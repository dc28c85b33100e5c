import pytest

from kooplift.numerics import _openblas_runtimes, blas_threads


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS runtime set to 2 threads, whatever the environment said;
    the prior counts are put back after the test."""
    runtimes = _openblas_runtimes()
    prior = blas_threads()
    for _, set_threads in runtimes.values():
        set_threads(2)
    yield blas_threads()
    for name, (_, set_threads) in runtimes.items():
        set_threads(prior[name])
