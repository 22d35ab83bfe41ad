import math

import numpy as np
import pytest

from ldp import (CFLViolation, DomainViolation, Hamiltonian, HJGrid,
                 Lagrangian, ValidationError, lax_oleinik_field, solve_hj,
                 solve_hj_constrained)


def quadratic_h():
    return Hamiltonian.from_callables(
        value=lambda p: 0.5 * float(np.asarray(p).reshape(-1)[0]) ** 2,
        grad=lambda p: np.atleast_1d(np.asarray(p, dtype=float)),
        hess=lambda p: 1.0)


@pytest.fixture(scope="module")
def quad_solution():
    grid = HJGrid(n=199, T=1.0, A=10.0, snapshots=[0.5, 1.0])
    return solve_hj(quadratic_h(), grid), grid


def test_matches_hopf_lax_oracle(quad_solution):
    hist, grid = quad_solution
    L = Lagrangian(quadratic_h())
    for t in (0.5, 1.0):
        f = hist.at_time(t)
        oracle = lax_oleinik_field(L, grid, t)
        assert np.max(np.abs(f.values - oracle.values)) <= 0.06


def test_bounds_and_boundary(quad_solution):
    hist, grid = quad_solution
    for f in hist.fields:
        assert np.all(f.values >= -1e-12)
        assert np.all(f.values <= grid.A + 1e-12)
        assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_nonincreasing_in_time(quad_solution):
    # the front only erodes the plateau: u(x, t) decreases pointwise
    hist, _ = quad_solution
    early, late = hist.at_time(0.5), hist.at_time(1.0)
    assert np.all(late.values <= early.values + 1e-10)


def test_comparison_in_obstacle_height():
    h = quadratic_h()
    u1 = solve_hj(h, HJGrid(n=99, T=0.5, A=2.0)).at_time(0.5)
    u2 = solve_hj(h, HJGrid(n=99, T=0.5, A=4.0)).at_time(0.5)
    assert np.all(u1.values <= u2.values + 1e-10)


def test_symmetric_data_symmetric_solution(quad_solution):
    hist, _ = quad_solution
    v = hist.at_time(1.0).values
    assert np.max(np.abs(v - v[::-1])) <= 1e-10


def test_fixed_dt_march_matches_hopf_lax_oracle():
    # dt = h / p_max, at the CFL bound: H'(p) = p, so no cell of the
    # table, which ends at p_max, is steeper than p_max
    h = quadratic_h()
    snaps = [0.5, 1.0]
    adaptive = HJGrid(n=99, T=1.0, A=3.0, snapshots=snaps)
    dt = adaptive.h / solve_hj(h, adaptive).meta["p_max"]
    grid = HJGrid(n=99, T=1.0, A=3.0, dt=dt, snapshots=snaps)
    hist = solve_hj(h, grid)
    L = Lagrangian(h)
    for t in snaps:
        oracle = lax_oleinik_field(L, grid, t)
        assert np.max(np.abs(hist.at_time(t).values - oracle.values)) <= 0.06
    # full steps of dt, and one shorter step onto each snapshot
    gaps = np.diff([0.0] + snaps)
    assert hist.meta["steps"] == sum(math.ceil(g / dt) for g in gaps)
    assert hist.meta["dt_max"] == dt
    assert 0 < hist.meta["dt_min"] < dt


def test_adaptive_march_stats(quad_solution):
    meta = quad_solution[0].meta
    assert meta["steps"] > 0
    assert 0 < meta["dt_min"] <= meta["dt_max"]


def test_user_dt_cfl_check():
    grid = HJGrid(n=99, T=0.5, A=2.0, dt=0.5)
    with pytest.raises(CFLViolation):
        solve_hj(quadratic_h(), grid)


def test_critical_steepness_rejected(critical_h):
    # |DH| stays below beta0 = 1, so a jump of height A = 10 cannot be
    # transported across a unit interval by the unconstrained march
    with pytest.raises(DomainViolation):
        solve_hj(critical_h, HJGrid(n=99, T=1.0, A=10.0))


def test_constrained_slope_bound(critical_h):
    beta0 = 1.0
    grid = HJGrid(n=199, T=1.0, A=10.0, snapshots=[0.25, 1.0])
    hist = solve_hj_constrained(critical_h, beta0, grid)
    h = grid.h
    for f in hist.fields:
        slopes = np.abs(np.diff(f.values)) / h
        assert np.max(slopes) <= beta0 + 2 * h


def test_constrained_solve_reads_h_only():
    # its slope cap and its table read H, never H'
    grads = []

    def value(p):
        s = float(np.ravel(p)[0])
        return s * s / (1 - s * s)

    def grad(p):
        grads.append(p)
        s = float(np.ravel(p)[0])
        return np.array([2 * s / (1 - s * s) ** 2])

    h = Hamiltonian.from_callables(value=value, grad=grad,
                                   hess=lambda p: 2.0, domain=(-1.0, 1.0))
    hist = solve_hj_constrained(h, 1.0, HJGrid(n=49, T=0.5, A=2.0))
    assert grads == []
    assert hist.meta["steps"] > 0
    assert 0 < hist.meta["dt_min"] <= hist.meta["dt_max"] <= 0.5


def test_grid_validation():
    with pytest.raises(ValidationError):
        HJGrid(n=2, T=1.0, A=1.0)
    with pytest.raises(ValidationError):
        HJGrid(n=99, T=1.0, A=1.0, snapshots=[2.0])


def test_lax_oleinik_field_matches_pointwise():
    from ldp import lax_oleinik
    h = quadratic_h()
    L = Lagrangian(h)
    grid = HJGrid(n=49, T=1.0, A=3.0)
    f = lax_oleinik_field(L, grid, 0.5)
    for i in [1, 10, 25, 40, 48]:
        ref = lax_oleinik(L, grid.A, grid.x[i], 0.5).value
        assert f.values[i] == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("kwargs", [
    dict(T=math.nan), dict(T=math.inf), dict(A=math.nan), dict(A=math.inf),
    dict(dt=0.0), dict(dt=-0.1), dict(dt=math.nan), dict(dt=math.inf),
    dict(snapshots=[0.5, math.nan]), dict(snapshots=[])])
def test_grid_rejects_non_finite_and_empty_values(kwargs):
    with pytest.raises(ValidationError):
        HJGrid(**{**dict(n=9, T=1.0, A=1.0), **kwargs})
