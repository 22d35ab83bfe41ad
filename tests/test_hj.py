import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldp.hj
from _oracles import hj_scheme_march
from ldp import (CFLViolation, DomainViolation, Hamiltonian, HJGrid,
                 Lagrangian, ValidationError, lax_oleinik_field, solve_hj,
                 solve_hj_constrained)
from ldp.hamiltonian import HTable


def quadratic_h(drift=0.0, symmetric=True):
    """(p - drift)^2 / 2, declared even or not."""
    return Hamiltonian.from_callables(
        value=lambda p: 0.5 * (float(np.ravel(p)[0]) - drift) ** 2,
        grad=lambda p: np.atleast_1d(np.asarray(p, dtype=float)) - drift,
        hess=lambda p: 1.0, symmetric=symmetric)


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
    # The viscosity solutions are ordered in A.  The ENO2 march has no
    # discrete comparison principle (u1 - u2 reaches 5.4e-3 at T = 0.1,
    # A = 2 vs 4), so the march may cross the exact order by no more
    # than the two fields' own errors against their exact fields.
    h = quadratic_h()
    L = Lagrangian(h)
    for T in (0.01, 0.1, 0.5):
        for A1, A2 in ((1.0, 2.0), (2.0, 4.0)):
            g1, g2 = HJGrid(n=99, T=T, A=A1), HJGrid(n=99, T=T, A=A2)
            u1 = solve_hj(h, g1).at_time(T).values
            u2 = solve_hj(h, g2).at_time(T).values
            x1 = lax_oleinik_field(L, g1, T).values
            x2 = lax_oleinik_field(L, g2, T).values
            assert np.all(x1 <= x2)
            e1, e2 = np.max(np.abs(u1 - x1)), np.max(np.abs(u2 - x2))
            assert np.all(u1 - u2 <= e1 + e2 + 1e-10)


def test_symmetric_data_symmetric_solution(quad_solution):
    hist, _ = quad_solution
    v = hist.at_time(1.0).values
    assert np.max(np.abs(v - v[::-1])) <= 1e-10


def test_fixed_dt_march_matches_hopf_lax_oracle():
    # dt = h / p_max, within the step's bound s - 1: H'(p) = p, so no
    # cell of the table, which ends at p_max, is steeper than p_max
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


def test_fixed_dt_may_reach_stages_minus_one_euler_bounds(tables):
    # a step of dt is s Euler substeps of dt / (s - 1), so the bound on a
    # step is dt max|H'| / h <= s - 1, max|H'| over the table's cells
    s = ldp.hj._STAGES
    h = quadratic_h()
    grid = HJGrid(n=99, T=0.5, A=2.0)
    solve_hj(h, grid)
    dt = (s - 1) * grid.h / float(np.max(np.abs(tables[0].slopes)))
    hist = solve_hj(h, HJGrid(n=99, T=0.5, A=2.0, dt=dt))
    assert hist.meta["dt_max"] == dt
    with pytest.raises(CFLViolation, match=rf"dt\*max\|H'\|/h <= {s - 1} "):
        solve_hj(h, HJGrid(n=99, T=0.5, A=2.0, dt=1.01 * dt))


def test_each_substep_meets_the_euler_bound_at_its_step_start_speed(
        monkeypatch):
    # each step's s Euler substeps of dt / (s - 1) obey the bound of one
    # Euler step at the speed that set dt.  The march looks the Godunov
    # terms up in the halves of a table of dt H, first the half at and
    # above p* = argmin H, then the half at and below it, so each half
    # over the same half of H gives the substep's length.
    s = ldp.hj._STAGES
    speeds, tables, halves = [], [], []

    def speed(self, lo, hi, _speed=HTable.speed):
        tables.append(self)
        speeds.append(_speed(self, lo, hi))
        return speeds[-1]

    def interp(x, xp, fp, _np_interp=np.interp):
        halves.append(np.array(fp))
        return _np_interp(x, xp, fp)
    monkeypatch.setattr(HTable, "speed", speed)
    monkeypatch.setattr(np, "interp", interp)
    grid = HJGrid(n=99, T=0.5, A=3.0, snapshots=[0.25, 0.5])
    hist = solve_hj(quadratic_h(), grid)
    assert hist.meta["stages"] == s
    assert hist.meta["scheme"] == f"eno2-godunov-ssprk{s}2"
    assert len(speeds) == hist.meta["steps"]
    assert len(halves) == 2 * s * len(speeds)
    Hv = tables[0].Hv
    assert all(tab.Hv is Hv for tab in tables)
    i = int(np.argmin(Hv))
    subs = []
    for k, scaled in enumerate(halves):
        flux = Hv[i:] if k % 2 == 0 else Hv[:i + 1]
        assert scaled.shape == flux.shape
        j = int(np.argmax(np.abs(flux)))
        assert flux[j] != 0
        subs.append(scaled[j] / flux[j])
    cfl = []
    for k, top in enumerate(speeds):
        step = subs[2 * s * k:2 * s * (k + 1)]
        assert max(step) - min(step) <= 1e-14 * max(step)
        cfl.append(max(step) * top / grid.h)
    assert max(cfl) <= ldp.hj._CFL + 1e-12
    assert max(cfl) >= ldp.hj._CFL - 1e-9


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


@pytest.mark.parametrize("n", [3.5, 9.0, np.float64(9.0), True, "9"])
def test_grid_requires_an_integer_n(n):
    # 3.5 and 9.0 once passed, then failed in np.linspace or np.pad
    with pytest.raises(ValidationError):
        HJGrid(n=n, T=1.0, A=1.0)


def test_grid_takes_a_numpy_integer_n():
    grid = HJGrid(n=np.int64(9), T=0.5, A=2.0)
    plain = HJGrid(n=9, T=0.5, A=2.0)
    assert np.array_equal(grid.x, plain.x) and grid.h == plain.h
    assert np.array_equal(solve_hj(quadratic_h(), grid).at_time(0.5).values,
                          solve_hj(quadratic_h(), plain).at_time(0.5).values)


@pytest.fixture
def tables(monkeypatch):
    """The H tables the solvers build, in order."""
    made = []

    class Recorded(HTable):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
    monkeypatch.setattr(ldp.hj, "HTable", Recorded)
    return made


@pytest.mark.parametrize("case", ["quadratic", "compact", "critical",
                                  "quadratic-n50", "drifted"])
def test_march_matches_the_node_by_node_scheme(case, compact_h, critical_h,
                                               tables):
    # the whole-grid oracle against the half march of an even H, on an
    # odd n (ghosts from nodes m - 1, m - 2) and an even n (from m, m - 1),
    # and against the whole march of an uneven one
    n = 50 if case == "quadratic-n50" else 49
    if case == "critical":
        grid = HJGrid(n=n, T=0.5, A=10.0, snapshots=[0.01, 0.5])
        hist, beta = solve_hj_constrained(critical_h, 1.0, grid), 1.0
    else:
        grid = HJGrid(n=n, T=0.5, A=3.0, snapshots=[0.25, 0.5])
        h = {"quadratic": quadratic_h(), "quadratic-n50": quadratic_h(),
             "compact": compact_h,
             "drifted": quadratic_h(0.3, symmetric=False)}[case]
        hist, beta = solve_hj(h, grid), None
    tab, = tables
    assert hist.meta["marched_nodes"] == (n if case == "drifted"
                                          else (n + 1) // 2)
    ref, steps = hj_scheme_march(tab.ps, tab.Hv, grid.n, grid.A,
                                 grid.snapshots, beta=beta,
                                 stages=ldp.hj._STAGES)
    assert hist.meta["steps"] == steps
    for f, values in zip(hist.fields, ref):
        assert np.max(np.abs(f.values - np.array(values))) <= 1e-12


def test_two_half_table_lookups_per_euler_stage(monkeypatch):
    # an even H marches the nodes 1..(n + 1) // 2, an uneven one all n
    calls = []

    def interp(*args, _np_interp=np.interp):
        calls.append(args[0].shape)
        return _np_interp(*args)
    monkeypatch.setattr(np, "interp", interp)
    for h, shape in ((quadratic_h(), (25,)),
                     (quadratic_h(0.3, symmetric=False), (49,))):
        calls.clear()
        hist = solve_hj(h, HJGrid(n=49, T=0.5, A=3.0))
        assert len(calls) == 2 * ldp.hj._STAGES * hist.meta["steps"]
        assert set(calls) == {shape}


@pytest.mark.parametrize("solver", ["plain", "constrained"])
def test_an_even_h_is_read_on_one_side(solver, critical_h, tables,
                                       monkeypatch):
    # first_reach runs on the +1 side only, and the batches read H at no
    # p < 0 but the mirrors of the three knots that check its evenness
    sides, batches = [], []

    def reach(h, side, *args, _first_reach=ldp.hj.first_reach):
        sides.append(side)
        return _first_reach(h, side, *args)

    def batch(self, ps, moments=(0,), _batch=Hamiltonian.batch):
        batches.append(np.array(ps, dtype=float))
        return _batch(self, ps, moments)
    monkeypatch.setattr(ldp.hj, "first_reach", reach)
    monkeypatch.setattr(Hamiltonian, "batch", batch)
    if solver == "plain":
        solve_hj(quadratic_h(), HJGrid(n=49, T=0.5, A=3.0))
    else:
        solve_hj_constrained(critical_h, 1.0, HJGrid(n=49, T=0.5, A=2.0))
    tab, = tables
    assert sides and set(sides) == {1.0}
    half = tab.ps[tab.ps.size // 2:]
    negative = np.concatenate([ps[ps < 0] for ps in batches])
    assert sorted(negative) == sorted(-half[list(ldp.hj._PROBES)])
    assert np.array_equal(tab.ps, -tab.ps[::-1])
    assert np.array_equal(tab.Hv, tab.Hv[::-1])


def _half_square_on(domain, symmetric):
    return Hamiltonian.from_callables(
        lambda p: 0.5 * float(np.ravel(p)[0]) ** 2, lambda p: np.ravel(p),
        lambda p: 1.0, domain=domain, symmetric=symmetric)


@pytest.mark.parametrize("solver", ["plain", "constrained"])
@pytest.mark.parametrize("make, match", [
    (lambda symmetric: quadratic_h(0.3, symmetric), r"H\(-"),
    (functools.partial(_half_square_on, (-20.0, 40.0)), "domain")],
    ids=["uneven", "uneven-domain"])
def test_an_uneven_h_declared_even_is_refused(solver, make, match):
    def solve(h):
        grid = HJGrid(n=49, T=0.5, A=0.5)
        return (solve_hj(h, grid) if solver == "plain"
                else solve_hj_constrained(h, 1.0, grid))
    with pytest.raises(ValidationError, match=match):
        solve(make(symmetric=True))
    # the same H declared uneven marches every node
    assert solve(make(symmetric=False)).meta["marched_nodes"] == 49


@functools.lru_cache(maxsize=None)
def _split_tables():
    # knots in the march's units h p (n = 399), and dt H on them: the
    # table of a solve, and two whose minimum sits at an end knot, so
    # that one half is a single knot
    h = 2.0 / 400
    quad = HTable(quadratic_h(), ldp.hj._table_knots(-40.0, 60.0, -5.0, 5.0))
    ps = np.geomspace(0.5, 8.0, 41) - 1.0
    return [(quad.ps * h, 0.003 * quad.Hv),
            (ps * h, 0.003 * np.expm1(ps)),
            (ps * h, 0.003 * np.exp(-ps))]


@settings(max_examples=150, deadline=None)
@given(k=st.integers(0, 2), frac=st.lists(st.floats(-0.25, 1.25), max_size=40),
       wild=st.lists(st.floats(-1e300, 1e300), max_size=8))
def test_the_half_tables_are_the_clamp_at_pstar(k, frac, wild):
    # np.interp holds the end value beyond the last knot, so a lookup in
    # the half at and above (at and below) p* is, bit for bit, the
    # lookup of max(p, p*) (min(p, p*)) in the whole table
    ks, F = _split_tables()[k]
    i = int(np.argmin(F))
    star = ks[i]
    x = np.concatenate([
        ks[0] + np.array(frac) * (ks[-1] - ks[0]), wild,
        [-1e300, 1e300, star, np.nextafter(star, -np.inf),
         np.nextafter(star, np.inf), ks[0], ks[-1]]])
    up = np.interp(x, ks[i:], F[i:])
    down = np.interp(x, ks[:i + 1], F[:i + 1])
    assert up.tobytes() == np.interp(np.maximum(x, star), ks, F).tobytes()
    assert down.tobytes() == np.interp(np.minimum(x, star), ks, F).tobytes()


def test_clamped_steps_count_the_steps_past_the_table(monkeypatch):
    ends = []

    def speed(self, lo, hi, _speed=HTable.speed):
        ends.append((self.ps[0], self.ps[-1], lo, hi))
        return _speed(self, lo, hi)
    monkeypatch.setattr(HTable, "speed", speed)
    # the initial jump has slope A / h = 1000, past the table's edge
    meta = solve_hj(quadratic_h(), HJGrid(n=199, T=0.5, A=10.0)).meta
    assert len(ends) == meta["steps"]
    assert 0 < meta["clamped_steps"] <= meta["steps"]
    assert meta["clamped_steps"] == sum(lo < p_lo or hi > p_hi
                                        for p_lo, p_hi, lo, hi in ends)
    assert meta["table_s"] > 0 and meta["march_s"] > 0


def test_fields_share_one_read_only_grid(quad_solution, critical_h):
    hist, grid = quad_solution
    x = hist.fields[0].x
    assert not x.flags.writeable
    assert all(f.x is x for f in hist.fields)
    assert grid.x is x and HJGrid(n=199, T=2.0, A=1.0).x is x
    assert np.array_equal(x, np.linspace(-1.0, 1.0, 201))
    assert lax_oleinik_field(Lagrangian(quadratic_h()), grid, 0.5).x is x
    con = solve_hj_constrained(critical_h, 1.0, HJGrid(
        n=49, T=0.5, A=2.0, snapshots=[0.25, 0.5]))
    assert all(f.x is con.fields[0].x for f in con.fields)
    assert not con.fields[0].x.flags.writeable


@pytest.mark.parametrize("beta0", [math.nan, math.inf, -math.inf, 0.0])
def test_constrained_solver_rejects_a_bad_beta0(critical_h, beta0):
    # nan and inf once failed inside H with "p must be finite"
    with pytest.raises(ValidationError, match="beta0"):
        solve_hj_constrained(critical_h, beta0, HJGrid(n=49, T=0.5, A=1.0))
