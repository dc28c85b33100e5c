import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kooplift import kernels
from kooplift.kernels import (
    FACTOR_CUTOFF,
    KernelFamily,
    KernelSpec,
    gram,
    gram_factor,
    gram_stack,
    kernel_eval,
    thin_plate_matrix,
    thin_plate_stack,
)

M52 = KernelSpec(KernelFamily.Matern52, 1.0, 1.0)
RBF = KernelSpec(KernelFamily.RBF, 1.0, 1.0)


def test_zero_distance_gives_variance():
    assert kernel_eval(M52, [0.3, -0.2], [0.3, -0.2]) == pytest.approx(1.0)
    spec = KernelSpec(KernelFamily.RBF, 2.0, 3.5)
    assert kernel_eval(spec, [1.0], [1.0]) == pytest.approx(3.5)


def test_matern52_unit_distance_closed_form():
    # oracle: the profile evaluated directly at r = 1
    expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
    assert kernel_eval(M52, [0.0], [1.0]) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.5239941088, abs=1e-9)


def test_rbf_half_value_inversion():
    # exp(-r^2/2) = 1/2 at r^2 = 2 ln 2
    r = math.sqrt(2.0 * math.log(2.0))
    assert kernel_eval(RBF, [0.0], [r]) == pytest.approx(0.5, abs=1e-15)


def test_matern32_profile():
    spec = KernelSpec(KernelFamily.Matern32, 1.0, 1.0)
    expected = (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
    assert kernel_eval(spec, [0.0], [1.0]) == pytest.approx(expected, abs=1e-15)


def test_kernel_eval_errors():
    with pytest.raises(ValueError):
        kernel_eval(M52, [0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        kernel_eval(M52, [np.nan], [0.0])
    with pytest.raises(ValueError):
        KernelSpec(KernelFamily.RBF, -1.0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec(KernelFamily.RBF, 1.0, 0.0)


def test_gram_single_point():
    spec = KernelSpec(KernelFamily.Matern52, 1.0, 2.0)
    K = gram(spec, [[0.5, 0.5]])
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(2.0)


def test_gram_symmetrized_bit_exactly():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(17, 3))
    K = gram(M52, X)
    assert np.array_equal(K, K.T)


def test_gram_matches_pairwise_loop():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 2))
    Y = rng.normal(size=(3, 2))
    K = gram(M52, X, Y)
    for i in range(5):
        for j in range(3):
            assert abs(K[i, j] - kernel_eval(M52, X[i], Y[j])) <= 1e-14


def test_gram_numerically_psd():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    for fam in KernelFamily:
        spec = KernelSpec(fam, 0.7, 1.3)
        w = np.linalg.eigvalsh(gram(spec, X))
        assert w[0] >= -1e-10 * spec.variance * len(X)


def test_gram_errors():
    with pytest.raises(ValueError):
        gram(M52, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        gram(M52, np.zeros((3, 2)), np.zeros((3, 1)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    st.sampled_from(list(KernelFamily)),
)
def test_bounded_positive_property(x, y, fam):
    # distances kept inside the range where the profile stays above underflow
    spec = KernelSpec(fam, 1.5, 2.0)
    v = kernel_eval(spec, x, y)
    assert 0.0 < v <= spec.variance + 1e-12
    assert kernel_eval(spec, x, x) == pytest.approx(spec.variance)


def test_thin_plate_at_center_is_zero():
    assert thin_plate_matrix([[1.0, 2.0]], [[1.0, 2.0], [0.0, 0.0]])[0, 0] == 0.0


def test_thin_plate_unit_distance_is_zero():
    assert thin_plate_matrix([[1.0, 0.0]], [[0.0, 0.0]])[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_thin_plate_at_distance_e():
    val = thin_plate_matrix([[math.e]], [[0.0]])[0, 0]
    assert val == pytest.approx(math.e**2, abs=1e-12)


def test_thin_plate_continuity_at_origin():
    # r^2 log r -> 0; at r = 1e-8 the value is already ~ -1.8e-15
    v = thin_plate_matrix([[1e-8]], [[0.0]])[0, 0]
    assert abs(v) < 1e-13


def whole_array_distances(X, Y):
    """The distance formula as one whole-array expression (the reference)."""
    sq = np.sum(X * X, axis=1)[:, None] + np.sum(Y * Y, axis=1)[None, :] - 2.0 * (X @ Y.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def whole_array_profile(family, r):
    if family is KernelFamily.RBF:
        return np.exp(-0.5 * r * r)
    if family is KernelFamily.Matern52:
        s = math.sqrt(5.0) * r
        return (1.0 + s + s * s / 3.0) * np.exp(-s)
    s = math.sqrt(3.0) * r
    return (1.0 + s) * np.exp(-s)


def whole_array_gram(spec, X, Y=None):
    r = whole_array_distances(X, X if Y is None else Y) / spec.lengthscale
    K = spec.variance * whole_array_profile(spec.family, r)
    return K if Y is not None else 0.5 * (K + K.T)


def whole_array_thin_plate(X, C):
    r = whole_array_distances(X, C)
    out = np.zeros_like(r)
    nz = r > 0.0
    out[nz] = r[nz] * r[nz] * np.log(r[nz])
    return out


# tall and wide: (n, m, d) is used as (n, m) and as (m, n); 500 x 160 is the
# rate study's landmark cross-Gram, where a product split into blocks changes bits
BLOCK_SHAPES = [(4000, 100, 2), (9000, 37, 2), (1, 100, 1), (100, 1, 1), (500, 160, 2)]


@pytest.mark.parametrize("n,m,d", BLOCK_SHAPES)
def test_blocked_pass_matches_whole_array_formulas_bit_for_bit(n, m, d):
    rng = np.random.default_rng(n + m)
    X = rng.normal(size=(n, d))
    Y = rng.normal(size=(m, d))
    X[0] = Y[0]  # one zero distance, the thin-plate special case
    for A, B in ((X, Y), (Y, X)):
        for fam in KernelFamily:
            spec = KernelSpec(fam, 0.7, 1.3)
            K = gram(spec, A, B)
            assert K.flags.c_contiguous
            np.testing.assert_array_equal(K, whole_array_gram(spec, A, B))
        T = thin_plate_matrix(A, B)
        assert T.flags.c_contiguous
        np.testing.assert_array_equal(T, whole_array_thin_plate(A, B))


def test_blocked_symmetric_gram_matches_whole_array_bit_for_bit():
    # 660 points: more than one block, and X X^T is a symmetric rank-k update
    X = np.random.default_rng(660).uniform(-1.0, 1.0, size=(660, 2))
    for fam in KernelFamily:
        spec = KernelSpec(fam, 0.3, 1.0)
        np.testing.assert_array_equal(gram(spec, X), whole_array_gram(spec, X))


def test_feature_stacks_match_matrices_bit_for_bit():
    # each row against its own 100 points, in 1-D and 2-D; one point sits on a landmark
    rng = np.random.default_rng(5)
    for d in (1, 2):
        L = rng.normal(size=(4, 100, d))
        X = rng.normal(size=(4, d))
        X[1] = L[1, 3]
        for spec in (M52, KernelSpec(KernelFamily.RBF, 0.3, 2.0), KernelSpec(KernelFamily.Matern32, 0.7, 1.0)):
            F = gram_stack(spec, L)(X)
            for s in range(4):
                np.testing.assert_array_equal(F[s], gram(spec, L[s], X[s : s + 1])[:, 0])
        T = thin_plate_stack(L)(X)
        for s in range(4):
            np.testing.assert_array_equal(T[s], thin_plate_matrix(X[s : s + 1], L[s])[0])
        rows = np.array([3, 1])
        np.testing.assert_array_equal(thin_plate_stack(L).take(rows)(X[rows]), T[rows])
    stack = gram_stack(M52, L)
    for bad in ([[np.nan, 0.0]] * 4, np.zeros((4, 1)), np.zeros((3, 2)), np.zeros(2)):
        with pytest.raises(ValueError):
            stack(bad)
        with pytest.raises(ValueError):
            thin_plate_stack(L)(bad)
    for bad in ([[[0.0, np.inf]]], np.zeros((2, 2)), np.zeros((0, 3, 2))):
        with pytest.raises(ValueError):
            gram_stack(M52, bad)
        with pytest.raises(ValueError):
            thin_plate_stack(bad)


# ---------------------------------------------------------------------------
# Pivoted Cholesky factor of a Gram
# ---------------------------------------------------------------------------

FACTOR_POINTS = {
    1: np.random.default_rng(21).uniform(-1.0, 1.0, size=(300, 1)),
    2: np.random.default_rng(22).uniform(-1.0, 1.0, size=(300, 2)),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("cutoff", [1e-6, FACTOR_CUTOFF])
def test_gram_factor_matches_gram_within_trace_bound(d, cutoff, monkeypatch):
    # K - L L' is the PSD residual of the pivoting, so its entries lie within
    # its largest diagonal entry and its norm within its trace <= N residual;
    # the default cutoff sits near round-off, which the entries are allowed
    # (measured within 2e-15 of K at every rank, full rank 300 included)
    monkeypatch.setattr(kernels, "FACTOR_CUTOFF", cutoff)
    X = FACTOR_POINTS[d]
    for spec in (M52, KernelSpec(KernelFamily.RBF, 0.5, 2.5)):
        f = gram_factor(spec, X)
        L = f.rows(X)
        E = gram(spec, X) - L @ L.T
        assert f.residual < cutoff * spec.variance
        assert np.max(np.abs(E)) <= f.residual + 1e-14 * spec.variance
        assert np.linalg.norm(E, 2) <= len(X) * f.residual + 1e-13 * spec.variance
        assert np.all(np.isfinite(f.L))


def test_gram_factor_of_few_distinct_points_has_their_rank():
    X = np.array([[-2.0], [-0.5], [0.25], [1.0], [3.0]])
    f = gram_factor(M52, X)
    assert f.rank == 5 and f.residual == 0.0
    np.testing.assert_allclose(f.L @ f.L.T, gram(M52, X), atol=1e-14)


def test_gram_factor_ignores_duplicate_points(monkeypatch):
    # a repeated row adds no column and reads the row of its first occurrence
    monkeypatch.setattr(kernels, "FACTOR_CUTOFF", 1e-12)
    X = FACTOR_POINTS[2][:40]
    pts = np.vstack([X, X[::3], X[:1]])
    f = gram_factor(M52, pts)
    assert f.L.shape == (40, gram_factor(M52, X).rank)
    L = f.rows(pts)
    assert np.all(np.isfinite(L))
    np.testing.assert_array_equal(L[40:54], L[:40:3])
    np.testing.assert_allclose(L @ L.T, gram(M52, pts), atol=1e-12)
    # rows read in their factored order are a view of the factor
    assert np.shares_memory(f.rows(X[5:9]), f.L)
    with pytest.raises(ValueError, match=r"point \[2\.0, 2\.0\] is not a row"):
        f.index(np.vstack([X[:2], [[2.0, 2.0]]]))


def test_gram_factor_never_forms_the_gram():
    # 2 000 points: the N x N Gram would take 32 MB, the factor and its
    # residual diagonal a fraction of it.  Measured: rank 996 (the residual of
    # a Matern-5/2 Gram on spread points falls slowly) and a traced peak of
    # 0.52 N x N doubles
    import tracemalloc

    X = np.random.default_rng(23).uniform(-1.0, 1.0, size=(2000, 1))
    gram_factor(M52, X[:10])  # first-call work is not the factor's memory
    tracemalloc.start()
    try:
        f = gram_factor(M52, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.rank < len(X)
    assert peak < len(X) ** 2 * 8, peak / (len(X) ** 2 * 8)
