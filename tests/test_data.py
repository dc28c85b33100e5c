import numpy as np
import pytest

from kooplift.data import (
    Dataset,
    LandmarkStrategy,
    Trajectory,
    build_pairs,
    cross_validate,
    derived_rng,
    fit_fold,
    load_trajectories,
    sample_landmarks,
    save_trajectories,
)
from kooplift.identify import model_to_dict


def make_traj(n_states, d=1, n_u=1, dt=0.1, tid="0", seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(
        dt=dt,
        states=rng.normal(size=(n_states, d)),
        controls=rng.normal(size=(n_states - 1, n_u)),
        traj_id=tid,
    )


def linear_dataset(n=40, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 1))
    U = rng.uniform(-1, 1, size=(n, 1))
    Y = 0.6 * X + 0.2 * U + noise * rng.normal(size=(n, 1))
    return Dataset(X, U, Y)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(dt=0.0, states=np.zeros((2, 1)), controls=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, states=np.zeros((3, 1)), controls=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, states=np.array([[0.0], [np.nan]]), controls=np.zeros((1, 1)))


def test_build_pairs_counts_and_boundaries():
    t1 = make_traj(3, tid="a", seed=1)
    t2 = make_traj(4, tid="b", seed=2)
    ds = build_pairs([t1, t2])
    assert ds.n == 2 + 3
    # no pair straddles the boundary: inputs are exactly the non-final states
    np.testing.assert_array_equal(ds.X[:2], t1.states[:-1])
    np.testing.assert_array_equal(ds.X[2:], t2.states[:-1])
    np.testing.assert_array_equal(ds.Y[:2], t1.states[1:])


def test_build_pairs_rejects_short_trajectory():
    with pytest.raises(ValueError):
        build_pairs([Trajectory(dt=0.1, states=np.zeros((1, 1)), controls=np.zeros((0, 1)))])


def test_build_pairs_refuses_mixed_dt():
    t1 = make_traj(3, tid="a", dt=0.1, seed=1)
    with pytest.raises(ValueError, match="disagree on dt: 'a' has dt = 0.1, 'b' has dt = 0.2"):
        build_pairs([t1, make_traj(4, tid="b", dt=0.2, seed=2)])
    # a dt read back from CSV moves in its last bits with the trajectory's length
    assert build_pairs([t1, make_traj(4, tid="b", dt=0.1 * (1 + 1.4e-14), seed=2)]).n == 5


def test_csv_round_trip_bit_exact(tmp_path):
    tr = make_traj(2, d=2, n_u=1, dt=0.05, tid="7", seed=3)
    path = tmp_path / "one.csv"
    save_trajectories(path, [tr])
    back = load_trajectories(path)
    assert len(back) == 1
    np.testing.assert_array_equal(back[0].states, tr.states)
    np.testing.assert_array_equal(back[0].controls, tr.controls)
    assert back[0].dt == pytest.approx(tr.dt, rel=1e-12)
    assert back[0].traj_id == "7"


def test_csv_multi_trajectory_grouping(tmp_path):
    trs = [make_traj(3, tid="a", seed=1), make_traj(4, tid="b", seed=2)]
    path = tmp_path / "multi.csv"
    save_trajectories(path, trs)
    back = load_trajectories(path)
    assert [t.traj_id for t in back] == ["a", "b"]
    assert build_pairs(back).n == 5


def test_csv_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("traj_id,t,x_1,u_1\n0,0.0,1.0,0.5\n0,0.1,not_a_number,\n")
    with pytest.raises(ValueError):
        load_trajectories(path)
    # wrong field count mid-stream (schema/dimension change)
    path.write_text("traj_id,t,x_1,u_1\n0,0.0,1.0,0.5\n0,0.1,1.0,2.0,0.5\n")
    with pytest.raises(ValueError):
        load_trajectories(path)
    # missing id
    path.write_text("traj_id,t,x_1,u_1\n,0.0,1.0,0.5\n0,0.1,1.0,\n")
    with pytest.raises(ValueError):
        load_trajectories(path)
    # non-final row missing control
    path.write_text("traj_id,t,x_1,u_1\n0,0.0,1.0,\n0,0.1,1.0,\n")
    with pytest.raises(ValueError):
        load_trajectories(path)
    # final row must have empty controls
    path.write_text("traj_id,t,x_1,u_1\n0,0.0,1.0,0.5\n0,0.1,1.0,0.5\n")
    with pytest.raises(ValueError):
        load_trajectories(path)


def test_sample_landmarks_exhaustive_draw_is_permutation():
    ds = linear_dataset(n=12)
    lm = sample_landmarks(ds, 12, LandmarkStrategy.IndependentUniform, seed=5)
    assert sorted(map(float, lm.inputs.ravel())) == sorted(map(float, ds.X.ravel()))
    assert sorted(map(float, lm.outputs.ravel())) == sorted(map(float, ds.Y.ravel()))


def test_sample_landmarks_paired_identity_dynamics():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 1))
    ds = Dataset(X, np.zeros((10, 1)), X.copy())
    lm = sample_landmarks(ds, 4, LandmarkStrategy.PairedOneStepAhead, seed=1)
    np.testing.assert_array_equal(lm.inputs, lm.outputs)


def test_sample_landmarks_shared_uses_outputs():
    ds = linear_dataset(n=10)
    lm = sample_landmarks(ds, 3, LandmarkStrategy.SharedUniform, seed=2)
    np.testing.assert_array_equal(lm.inputs, lm.outputs)
    for p in lm.outputs:
        assert any(np.allclose(p, y) for y in ds.Y)


def test_sample_landmarks_deterministic():
    ds = linear_dataset()
    a = sample_landmarks(ds, 5, LandmarkStrategy.IndependentUniform, seed=9)
    b = sample_landmarks(ds, 5, LandmarkStrategy.IndependentUniform, seed=9)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.outputs, b.outputs)


def test_sample_landmarks_bounds():
    ds = linear_dataset(n=5)
    with pytest.raises(ValueError):
        sample_landmarks(ds, 6)
    with pytest.raises(ValueError):
        sample_landmarks(ds, 0)


def test_landmark_draw_uniformity():
    # n = 10, m = 1: each index should appear with frequency 0.1 +- 0.01
    ds = linear_dataset(n=10)
    counts = np.zeros(10)
    trials = 10_000
    for seed in range(trials):
        lm = sample_landmarks(ds, 1, LandmarkStrategy.IndependentUniform, seed=seed)
        idx = int(np.argmin(np.abs(ds.X.ravel() - lm.inputs[0, 0])))
        counts[idx] += 1
    freq = counts / trials
    assert np.all(np.abs(freq - 0.1) <= 0.01)


def test_derived_rng_streams_differ():
    a = derived_rng("landmarks", 0).integers(0, 1 << 30, 4)
    b = derived_rng("training-inputs", 0).integers(0, 1 << 30, 4)
    c = derived_rng("landmarks", 0).integers(0, 1 << 30, 4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_cross_validate_single_cell():
    ds = linear_dataset(n=30)
    best, scores = cross_validate(ds, [(1.0, 1e-4)], folds=3, m=10, seed=0)
    assert best == (1.0, 1e-4)
    assert len(scores) == 1


def test_cross_validate_prefers_small_gamma_on_noiseless_data():
    # large gamma provably biases one-step predictions on noiseless data
    ds = linear_dataset(n=60)
    best, scores = cross_validate(ds, [(1.0, 1e-6), (1.0, 1e2)], folds=3, m=20, seed=0)
    assert best == (1.0, 1e-6)
    assert scores[(1.0, 1e-6)] < scores[(1.0, 1e2)]


def test_cross_validate_deterministic():
    ds = linear_dataset(n=30)
    grid = [(0.5, 1e-4), (1.0, 1e-2)]
    r1 = cross_validate(ds, grid, folds=3, m=8, seed=4)
    r2 = cross_validate(ds, grid, folds=3, m=8, seed=4)
    assert r1 == r2


def test_cross_validate_fold_errors():
    ds = linear_dataset(n=4)
    with pytest.raises(ValueError):
        cross_validate(ds, [(1.0, 1e-4)], folds=5, m=2, seed=0)
    with pytest.raises(ValueError):
        cross_validate(ds, [], folds=2, m=2, seed=0)


def test_fitting_never_touches_heldout_targets():
    ds = linear_dataset(n=30)
    model_clean, hold = fit_fold(ds, 0, 3, 1.0, 1e-4, 10, seed=0)
    poisoned = Dataset(ds.X.copy(), ds.U.copy(), ds.Y.copy())
    poisoned.Y[hold] = np.nan
    model_poisoned, _ = fit_fold(poisoned, 0, 3, 1.0, 1e-4, 10, seed=0)
    assert model_to_dict(model_clean) == model_to_dict(model_poisoned)
