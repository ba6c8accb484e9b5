import pytest

from circledyn import (
    circle_maps,
    defaults,
    linear_map,
    make_conjugated,
    piecewise_linear,
    sine_homeo,
    smooth_sine_map,
)


@pytest.fixture(scope="session")
def f06():
    return piecewise_linear([0.6])


@pytest.fixture(scope="session")
def f09():
    return piecewise_linear([0.9])


@pytest.fixture(scope="session")
def lin2():
    return linear_map(2)


@pytest.fixture(scope="session")
def smooth05():
    return smooth_sine_map(2, 0.5)


@pytest.fixture(scope="session")
def conj_smooth():
    return make_conjugated(linear_map(2), sine_homeo(0.5))


@pytest.fixture
def solver_tol(monkeypatch):
    """``solver_tol(value)`` runs the rest of the test with ``defaults.SOLVER_TOL = value``.

    The package reads the constant where it solves and where it bounds the
    solves' error (``chain_error_bound``, so the endpoint radii too), so the
    whole stack follows.  The one per-spec cache of solved values, the
    branch points, is emptied at each call and after the test, so no value
    solved at one tolerance is served at another.
    """

    def set_tol(value: float) -> None:
        circle_maps.branch_points.cache_clear()
        monkeypatch.setattr(defaults, "SOLVER_TOL", value)

    yield set_tol
    circle_maps.branch_points.cache_clear()
