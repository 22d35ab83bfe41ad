import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammainc

from _oracles import dense_nonlocal_solution
from ldp import (Field, FieldHistory, InsufficientData, Saturated, SimConfig,
                 SweepRecord, TruncationTooSmall, ValidationError,
                 build_kernel, empirical_rate, fit_rate, run_sweep, simulate,
                 sup_difference, tail_reach)
import ldp.pde as pde
from ldp.pde import _stencil


def test_constant_is_stationary_whole_line(compact_kernel):
    cfg = SimConfig(kernel=compact_kernel, R=4.0, T=0.5,
                    bc_mode="whole_line")
    f = simulate(cfg).at_time(0.5)
    assert np.max(np.abs(f.values - 1.0)) <= 1e-12


def test_dirichlet_stays_in_range_and_decays(compact_kernel):
    cfg = SimConfig(kernel=compact_kernel, R=4.0, T=1.0)
    f = simulate(cfg).at_time(1.0)
    assert np.all(f.values >= 0.0) and np.all(f.values <= 1.0)
    x = f.x
    center = f.values[np.argmin(np.abs(x))]
    edge = f.values[np.argmin(np.abs(x - 3.9))]
    assert center > edge
    # exterior nodes are killed by the boundary condition
    assert np.all(f.values[np.abs(x) > 4.0 + 1e-9] == 0.0)


def test_barrier_equals_complement(compact_kernel):
    # with unit mass and u0 = 1, u is identically 1 on the whole line, so
    # the truncation error u - u_R and the barrier field must coincide
    common = dict(kernel=compact_kernel, R=4.0, T=1.0,
                  domain_truncation=10.0)
    uR = simulate(SimConfig(bc_mode="dirichlet_zero_outside",
                            **common)).at_time(1.0)
    vR = simulate(SimConfig(bc_mode="barrier", **common)).at_time(1.0)
    inside = np.abs(uR.x) <= 4.0
    assert np.max(np.abs((1.0 - uR.values) - vR.values)[inside]) <= 1e-10


def test_sandwich_with_nonconstant_data(compact_kernel):
    u0 = lambda x: np.exp(-0.5 * np.asarray(x) ** 2)
    common = dict(kernel=compact_kernel, R=4.0, T=1.0, u0=u0,
                  domain_truncation=12.0)
    u = simulate(SimConfig(bc_mode="whole_line", **common)).at_time(1.0)
    uR = simulate(SimConfig(bc_mode="dirichlet_zero_outside",
                            **common)).at_time(1.0)
    vR = simulate(SimConfig(bc_mode="barrier", kernel=compact_kernel, R=4.0,
                            T=1.0, domain_truncation=12.0)).at_time(1.0)
    inside = np.abs(u.x) <= 4.0
    diff = (u.values - uR.values)[inside]
    assert np.min(diff) >= -1e-12
    assert np.max(diff - vR.values[inside]) <= 1e-10


def test_truncated_solution_monotone_in_R(compact_kernel):
    fields = []
    for R in (3.0, 4.0, 5.0):
        cfg = SimConfig(kernel=compact_kernel, R=R, T=1.0,
                        domain_truncation=15.0)
        fields.append(simulate(cfg).at_time(1.0))
    assert np.all(fields[0].values <= fields[1].values + 1e-12)
    assert np.all(fields[1].values <= fields[2].values + 1e-12)


def test_mass_conserved_whole_line(compact_kernel):
    u0 = lambda x: np.exp(-np.asarray(x) ** 2)
    cfg = SimConfig(kernel=compact_kernel, R=4.0, T=0.5, u0=u0,
                    bc_mode="whole_line", domain_truncation=30.0)
    hist = simulate(cfg)
    h = cfg.h
    m1 = np.sum(hist.at_time(0.5).values) * h
    m0 = np.sum(cfg.u0_values(cfg.x)) * h
    assert m1 == pytest.approx(m0, rel=1e-10)


def test_grid_refinement_stable(compact_kernel):
    sups = []
    for n in (8, 16):
        common = dict(kernel=compact_kernel, R=3.0, T=1.0,
                      domain_truncation=10.0, n_per_unit=n)
        u = simulate(SimConfig(bc_mode="whole_line", **common)).at_time(1.0)
        uR = simulate(SimConfig(bc_mode="dirichlet_zero_outside",
                                **common)).at_time(1.0)
        sups.append(sup_difference(u, uR, 1.0, 3.0))
    assert sups[1] == pytest.approx(sups[0], rel=0.05)


@pytest.mark.parametrize("bc_mode", ["whole_line", "dirichlet_zero_outside",
                                     "barrier"])
@pytest.mark.parametrize("A_diff,B_drift", [(0.25, 0.5), (0.25, -0.5),
                                            (0.0, 0.0)])
def test_matches_dense_matrix_exponential(compact_kernel, bc_mode, A_diff,
                                          B_drift):
    # the solver is exact in time: it must agree with expm(T Q) u(0) for
    # the generator Q of the same lattice chain built densely
    u0 = lambda x: 1.0 + 0.5 * math.cos(x / 3.0 + 0.4)
    cfg = SimConfig(kernel=compact_kernel, R=4.0, T=0.5, u0=u0,
                    A_diff=A_diff, B_drift=B_drift, bc_mode=bc_mode,
                    n_per_unit=8, domain_truncation=15.0)
    f = simulate(cfg).at_time(0.5)
    x, ref = dense_nonlocal_solution(
        compact_kernel.density, compact_kernel.params["rho"], R=4.0,
        T=0.5, h=cfg.h, L=15.0, A_diff=A_diff, B_drift=B_drift,
        bc_mode=bc_mode, u0=u0)
    assert np.array_equal(x, f.x)
    assert np.max(np.abs(f.values - ref)) <= 1e-12


@pytest.mark.parametrize("bc_mode", ["dirichlet_zero_outside", "barrier"])
@pytest.mark.parametrize("name", ["compact_kernel", "critical_kernel"])
def test_band_ignores_the_width_of_the_held_exterior(request, name, bc_mode):
    # P acts on the free band |x| <= R only; the held nodes and the pads
    # beyond the grid carry the same constant, so a wider held exterior
    # must leave the band as it is and the held nodes at their data
    kernel = request.getfixturevalue(name)
    R = 4.0
    u0 = lambda x: math.exp(-0.1 * x * x)
    held_value = 1.0 if bc_mode == "barrier" else 0.0
    bands = []
    for extra in (0.0, 8.0):
        hist = simulate(SimConfig(
            kernel=kernel, R=R, T=0.5, u0=u0, bc_mode=bc_mode, n_per_unit=8,
            domain_truncation=R + tail_reach(kernel) + extra))
        f = hist.at_time(0.5)
        free = np.abs(f.x) <= R
        assert hist.meta["free_nodes"] == np.count_nonzero(free)
        assert np.all(f.values[~free] == held_value)
        bands.append(f.values[free])
    np.testing.assert_allclose(bands[1], bands[0], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bc_mode", ["dirichlet_zero_outside", "barrier"])
def test_snapshots_match_single_runs(compact_kernel, bc_mode):
    # the snapshots accumulate in one pass over the jump count
    u0 = lambda x: math.exp(-0.1 * x * x)
    common = dict(kernel=compact_kernel, R=6.0, u0=u0, bc_mode=bc_mode,
                  n_per_unit=8)
    hist = simulate(SimConfig(T=1.0, snapshots=[0.25, 0.5, 1.0], **common))
    for t in (0.25, 0.5, 1.0):
        single = simulate(SimConfig(T=t, **common)).at_time(t)
        np.testing.assert_allclose(hist.at_time(t).values, single.values,
                                   rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("family,params", [("exp_linear", {"alpha": 1.0}),
                                           ("tempered_stable",
                                            {"alpha": 0.5, "lam": 1.0})])
def test_stencil_weights_match_pointwise_density(family, params):
    kernel = build_kernel(family, 1, params)
    h = 1.0 / 16
    ks, w = _stencil(kernel, h, tail_reach(kernel))
    far = np.abs(ks * h) >= math.sqrt(h)    # beyond any split radius
    ref = [h * float(kernel.density(k * h)) for k in ks[far]]
    np.testing.assert_allclose(w[far], ref, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("alpha,lam", [(0.5, 1.0), (1.5, 1.0), (1.5, 2.0)])
def test_stencil_small_ball_moment_closed_form(alpha, lam):
    # m2 = int_{|y| < delta} y^2 e^{-lam |y|} / |y|^{1 + alpha} dy
    #    = 2 lam^{alpha - 2} gamma(2 - alpha, lam delta); it sets the rate
    # (m2 / 2) / h^2 of the jumps to +-1 (no drift: the kernel is symmetric)
    kernel = build_kernel("tempered_stable", 1, {"alpha": alpha, "lam": lam})
    h = 1.0 / 16
    delta = math.sqrt(h)
    ks, w = _stencil(kernel, h, tail_reach(kernel))
    centre = int(np.flatnonzero(ks == 0)[0])
    assert w[centre - 1] == w[centre + 1]
    m2 = 2 * h * h * w[centre + 1]
    exact = (2 * lam ** (alpha - 2) * gammainc(2 - alpha, lam * delta)
             * gamma(2 - alpha))
    assert abs(m2 / exact - 1) <= 1e-10


# every 1-D family, with parameters that keep the kernel reach short
_FAMILIES_1D = [
    ("compact_uniform", {"rho": 1.0}),
    ("compact_custom", {"rho": 1.5, "dip_a": 0.3, "dip_b": 0.8,
                        "dip_factor": 0.25}),
    ("exp_power", {"alpha": 2.0}),
    ("exp_linear", {"alpha": 2.5}),
    ("super_exp", {}),
    ("tempered_stable", {"alpha": 1.5, "lam": 2.0}),
    ("asymmetric_1d_demo", {}),
]


@pytest.mark.parametrize("family,params", _FAMILIES_1D)
@settings(max_examples=8, deadline=None)
@given(R1=st.floats(1.0, 5.0), dR=st.floats(0.25, 1.0),
       T=st.floats(0.1, 0.5), amp=st.floats(0.0, 1.0),
       phase=st.floats(0.0, 2 * math.pi))
def test_comparison_principle_and_monotonicity_in_R(family, params, R1, dR,
                                                     T, amp, phase):
    # u >= u_R (comparison principle) for R = R1 < R2, and u_R1 <= u_R2 on
    # |x| <= R1 (u_R grows with R), on one grid
    kernel = build_kernel(family, 1, params)
    u0 = lambda x: 1.0 + amp * math.cos(x + phase)
    common = dict(kernel=kernel, T=T, u0=u0, n_per_unit=8,
                  domain_truncation=7.0 + tail_reach(kernel))
    u = simulate(SimConfig(R=R1 + dR, bc_mode="whole_line",
                           **common)).at_time(T)
    u1, u2 = (simulate(SimConfig(R=R, **common)).at_time(T)
              for R in (R1, R1 + dR))
    assert np.min(u.values - u1.values) >= -1e-12
    assert np.min(u.values - u2.values) >= -1e-12
    inside = np.abs(u.x) <= R1 + 1e-12
    assert np.min((u2.values - u1.values)[inside]) >= -1e-12


def test_kernel_below_grid_resolution_leaves_data_unchanged():
    # rho < h/2: no tap sees the kernel, the generator is zero
    narrow = build_kernel("compact_uniform", 1, {"rho": 0.01})
    cfg = SimConfig(kernel=narrow, R=2.0, T=1.0, bc_mode="barrier")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = simulate(cfg)
    f = hist.at_time(1.0)
    assert np.array_equal(f.values, np.where(np.abs(f.x) > 2.0, 1.0, 0.0))
    assert hist.meta["matvecs"] == 0


def test_results_share_one_read_only_grid(compact_kernel):
    # results on the same grid keep one copy of it, not one each
    hists = [simulate(SimConfig(kernel=compact_kernel, R=R, T=0.5,
                                domain_truncation=12.0, bc_mode=mode))
             for R, mode in ((3.0, "barrier"), (4.0, "whole_line"))]
    xs = [f.x for h in hists for f in h.fields]
    assert all(x is xs[0] for x in xs)
    assert not xs[0].flags.writeable


def test_truncation_too_small(compact_kernel):
    with pytest.raises(TruncationTooSmall):
        SimConfig(kernel=compact_kernel, R=4.0, T=1.0,
                  domain_truncation=4.5)


def test_sup_difference_validation(compact_kernel):
    x = np.linspace(-4, 4, 9)
    a = Field(x=x, t=1.0, values=np.ones(9))
    b = Field(x=x, t=1.0, values=0.5 * np.ones(9))
    assert sup_difference(a, b, 1.0, 4.0) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        sup_difference(a, Field(x=x + 1, t=1.0, values=b.values), 1.0, 4.0)
    with pytest.raises(ValidationError):
        sup_difference(a, Field(x=x, t=2.0, values=b.values), 1.0, 4.0)
    with pytest.raises(ValidationError):
        sup_difference(b, a, 1.0, 4.0)   # negative difference


def test_empirical_rate_rescaling():
    R = 10.0
    x = np.linspace(-R, R, 21)
    v = Field(x=x, t=5.0, values=np.full(21, math.exp(-R)))
    out = empirical_rate(FieldHistory(fields=[v]), R)
    f = out.fields[0]
    assert f.t == pytest.approx(0.5)
    assert np.allclose(f.x, x / R)
    assert np.allclose(f.values, 1.0)
    assert out.meta["saturated_nodes"] == 0


def test_empirical_rate_flags_saturation():
    x = np.linspace(-1, 1, 5)
    vals = np.array([1e-310, 1.0, 1.0, 1.0, 0.0])
    out = empirical_rate(FieldHistory(fields=[Field(x=x, t=1.0,
                                                    values=vals)]), 2.0)
    assert out.meta["saturated_nodes"] == 2
    assert np.isinf(out.fields[0].values[0])


def _records(Rs, emp):
    return [SweepRecord(R=R, theta=0.0, t_obs=1.0, sup_diff=math.exp(-e),
                        empirical_exponent=e, predicted_exponent=R,
                        ratio=e / R)
            for R, e in zip(Rs, emp)]


def test_fit_rate_exact_line():
    recs = _records([8.0, 12.0, 16.0, 20.0], [8.0, 12.0, 16.0, 20.0])
    fit = fit_rate(recs)
    assert fit.slope == pytest.approx(1.0)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.trend_ok


def test_fit_rate_scaled_with_noise():
    rng = np.random.default_rng(0)
    Rs = [8.0, 12.0, 16.0, 20.0, 24.0]
    emp = [0.7 * R + rng.normal(0, 0.01) for R in Rs]
    fit = fit_rate(_records(Rs, emp))
    assert fit.slope == pytest.approx(0.7, abs=0.01)
    assert fit.r2 > 0.999


def test_fit_rate_guards():
    with pytest.raises(InsufficientData):
        fit_rate(_records([8.0, 12.0], [8.0, 12.0]))
    recs = _records([8.0, 12.0, 16.0], [8.0, 12.0, 16.0])
    recs[1] = SweepRecord(R=12.0, theta=0.0, t_obs=1.0, sup_diff=0.0,
                          empirical_exponent=math.inf,
                          predicted_exponent=12.0, ratio=math.inf)
    with pytest.raises(Saturated):
        fit_rate(recs)


def test_run_sweep_small_ladder(compact_kernel):
    recs = run_sweep(compact_kernel, [3.0, 4.0, 5.0], n_per_unit=8)
    assert [r.R for r in recs] == [3.0, 4.0, 5.0]
    sups = [r.sup_diff for r in recs]
    assert all(s > 0 for s in sups)
    # truncation error shrinks with R
    assert sups[0] > sups[1] > sups[2]
    for r in recs:
        assert r.empirical_exponent == pytest.approx(-math.log(r.sup_diff))
        assert r.ratio == pytest.approx(
            r.empirical_exponent / r.predicted_exponent)


def test_run_sweep_requires_unit_mass():
    from ldp import build_kernel
    heavy = build_kernel("compact_uniform", 1, {"rho": 1.0, "mass": 2.0})
    with pytest.raises(ValidationError):
        run_sweep(heavy, [3.0, 4.0, 5.0])


def test_simulate_takes_the_reach_once(compact_kernel, monkeypatch):
    # the config computes the reach and the stencil reuses it
    calls = []

    def spy(kernel, *args, **kwargs):
        calls.append(kernel)
        return tail_reach(kernel, *args, **kwargs)

    monkeypatch.setattr(pde, "tail_reach", spy)
    simulate(SimConfig(kernel=compact_kernel, R=3.0, T=0.5))
    assert calls == [compact_kernel]


@pytest.mark.parametrize("field,value", [
    ("R", math.nan), ("R", math.inf), ("T", math.nan), ("T", math.inf),
    ("A_diff", math.nan), ("A_diff", math.inf), ("B_drift", math.nan),
    ("B_drift", -math.inf), ("snapshots", [0.25, math.nan]),
    ("snapshots", [math.inf])])
def test_config_rejects_non_finite_values(compact_kernel, field, value):
    kwargs = dict(kernel=compact_kernel, R=3.0, T=0.5)
    kwargs[field] = value
    with pytest.raises(ValidationError):
        SimConfig(**kwargs)
