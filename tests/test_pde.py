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
                 build_kernel, empirical_rate, fit_rate, run_sweep,
                 scaled_kernel, simulate, sup_difference, tail_reach)
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
@pytest.mark.parametrize("name,R,n_per_unit", [
    ("gaussian_tail_kernel", 2.0, 8), ("critical_kernel", 1.0, 4),
    ("demo_kernel", 2.0, 4)])
def test_far_taps_match_dense_matrix_exponential(request, name, R,
                                                 n_per_unit, bc_mode):
    # taps longer than the band land on held nodes or pads from every band
    # node and enter each matvec as one constant; the dense chain applies
    # every tap one by one.  The Gaussian and critical stencils pass the
    # band on both sides, the demo kernel's only on the left
    kernel = request.getfixturevalue(name)
    reach = tail_reach(kernel)
    u0 = lambda x: 1.0 + 0.5 * math.cos(x / 3.0 + 0.4)
    cfg = SimConfig(kernel=kernel, R=R, T=0.5, u0=u0, bc_mode=bc_mode,
                    n_per_unit=n_per_unit, domain_truncation=R + reach)
    hist = simulate(cfg)
    ks, _ = _stencil(kernel, cfg.h, reach)
    reach_k = hist.meta["free_nodes"] - 1  # the band's longest inner jump
    kept = min(ks[-1], reach_k) - max(ks[0], -reach_k) + 1
    assert hist.meta["taps"] == kept < len(ks)
    x, ref = dense_nonlocal_solution(
        kernel.density, reach, R=R, T=0.5, h=cfg.h, L=R + reach, A_diff=0.0,
        B_drift=0.0, bc_mode=bc_mode, u0=u0)
    assert np.array_equal(x, hist.fields[-1].x)
    assert np.max(np.abs(hist.fields[-1].values - ref)) <= 1e-12


@pytest.mark.parametrize("name,R,n_per_unit,taps", [
    ("compact_kernel", 4.0, 8, 17), ("critical_kernel", 1.0, 4, 17)])
def test_meta_counts_the_taps_after_the_cut(request, name, R, n_per_unit,
                                            taps):
    # compact at R = 4: all 17 taps reach the 65-node band; exp_linear at
    # R = 1, h = 1/4: the 9-node band keeps the offsets |k| <= 8 of its
    # far longer stencil
    kernel = request.getfixturevalue(name)
    cfg = SimConfig(kernel=kernel, R=R, T=0.5, n_per_unit=n_per_unit)
    meta = simulate(cfg).meta
    _, w = _stencil(kernel, cfg.h, cfg.reach)
    assert meta["free_nodes"] == 2 * R * n_per_unit + 1
    assert meta["taps"] == taps
    assert (meta["taps"] == len(w)) == (name == "compact_kernel")


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


@pytest.mark.parametrize("R", [0.0, -2.0, math.nan, math.inf, -math.inf])
def test_empirical_rate_rejects_a_bad_R(R):
    v = Field(x=np.linspace(-1, 1, 5), t=1.0, values=np.full(5, 0.5))
    with pytest.raises(ValidationError):
        empirical_rate(FieldHistory(fields=[v]), R)


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
        assert isinstance(r.wall_s, float) and r.wall_s > 0


def test_sweep_record_equality_ignores_the_wall_time(compact_kernel):
    # a rerun of the same sweep gives equal records, however long it took
    a, b = (run_sweep(compact_kernel, [3.0, 4.0], n_per_unit=8)
            for _ in range(2))
    b[0].wall_s += 1.0
    assert a == b


@pytest.mark.parametrize("threads", ["-1", "two", "1.5"])
def test_run_sweep_rejects_a_bad_thread_count(compact_kernel, monkeypatch,
                                              threads):
    calls = _spy_on_simulate(monkeypatch)
    monkeypatch.setenv("LDP_THREADS", threads)
    with pytest.raises(ValidationError, match="LDP_THREADS"):
        run_sweep(compact_kernel, [3.0, 4.0], n_per_unit=8)
    assert calls == []


def test_run_sweep_takes_zero_threads_as_the_default(compact_kernel,
                                                     monkeypatch):
    monkeypatch.delenv("LDP_THREADS", raising=False)
    ref = run_sweep(compact_kernel, [3.0, 4.0], n_per_unit=8)
    for threads in ("0", "", "1"):
        monkeypatch.setenv("LDP_THREADS", threads)
        assert run_sweep(compact_kernel, [3.0, 4.0], n_per_unit=8) == ref


def test_run_sweep_requires_unit_mass():
    from ldp import build_kernel
    heavy = build_kernel("compact_uniform", 1, {"rho": 1.0, "mass": 2.0})
    with pytest.raises(ValidationError):
        run_sweep(heavy, [3.0, 4.0, 5.0])


# family, params, Rs, theta, t_obs, n_per_unit: the benchmark's sweeps in
# every tail regime on short ladders, and the asymmetric demo kernel
_SWEEP_CASES = {
    "compact": ("compact_uniform", {"rho": 1.0}, [8.0, 16.0], 0.0, 1.0, 16),
    "compact_n64": ("compact_uniform", {"rho": 1.0}, [8.0, 16.0], 0.0, 1.0,
                    64),
    "exp_linear": ("exp_linear", {"alpha": 1.0}, [16.0, 24.0], 0.5, 4.0, 16),
    "exp_power": ("exp_power", {"alpha": 2.0}, [8.0, 12.0], 0.2, 1.0, 16),
    "demo": ("asymmetric_1d_demo", {}, [10.0, 15.0], 0.1, 1.0, 16),
}


@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_sweep_cut_keeps_the_window_max_of_the_full_solve(case):
    # each sweep solve stops at the accuracy of the window it reads; its
    # sup_diff must still be the window max of the solve that runs to the
    # representable floor, with fewer matvecs
    family, params, Rs, theta, t_obs, npu = _SWEEP_CASES[case]
    kernel = build_kernel(family, 1, params)
    kernel = scaled_kernel(kernel, 1.0 / kernel.mass)  # the sweep needs 1
    recs = run_sweep(kernel, Rs, theta=theta, t_obs=t_obs, n_per_unit=npu)
    full_matvecs = []
    for r in recs:
        full = simulate(SimConfig(kernel=kernel, R=r.R, T=t_obs,
                                  bc_mode="barrier", n_per_unit=npu))
        f = full.fields[-1]
        ref = float(np.max(f.values[np.abs(f.x) <= theta * r.R + 1e-12]))
        assert abs(r.sup_diff - ref) <= 2 * np.spacing(ref)
        assert r.matvecs < full.meta["matvecs"]
        full_matvecs.append(full.meta["matvecs"])
    if case == "compact":
        assert recs[0].matvecs <= 30 and full_matvecs[0] == 173


@pytest.mark.parametrize("bc_mode", ["dirichlet_zero_outside", "barrier"])
def test_reads_keeps_every_masked_value(compact_kernel, bc_mode):
    # a sum cut at 1e-16 of the smallest masked partial sum leaves every
    # masked value within 1e-16 relative of the full sum, in every snapshot;
    # max(u0) = 1000 makes the bound's factor max(u0) count
    cfg = SimConfig(kernel=compact_kernel, R=6.0, T=1.0,
                    u0=lambda x: 1e3 * math.exp(-0.1 * x * x), bc_mode=bc_mode,
                    n_per_unit=8, snapshots=[0.25, 0.5, 1.0])
    mask = np.abs(cfg.x) <= 3.0
    full, cut = simulate(cfg), simulate(cfg, reads=mask)
    assert cut.meta["matvecs"] < full.meta["matvecs"]
    lows = []
    for a, b in zip(full.fields, cut.fields):
        ref = a.values[mask]
        assert np.all(ref > 0)
        assert np.max(np.abs(b.values[mask] - ref) / ref) <= 4e-16
        lows.append(np.min(ref))
    # each snapshot stops at 1e-16 of its own smallest masked value
    assert cut.meta["tail_bound"] <= 1e-16 * max(lows)


def test_default_stop_reaches_the_representable_floor(compact_kernel):
    hist = simulate(SimConfig(kernel=compact_kernel, R=6.0, T=1.0,
                              bc_mode="barrier", snapshots=[0.5, 1.0]))
    assert 0 < hist.meta["tail_bound"] <= 1e-16 * pde._SAT_FLOOR


def _floor_run(cfg):
    """The solve whose sums all run to the representable floor 1e-300, as
    they did before the stop used the value floor m."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "_value_floor", lambda buf: 0.0)
        return simulate(cfg)


_FLOOR_KERNELS = {
    "compact": build_kernel("compact_uniform", 1, {"rho": 1.0}),
    "exp_linear": build_kernel("exp_linear", 1, {"alpha": 2.5}),
    "tempered": build_kernel("tempered_stable", 1,
                             {"alpha": 1.5, "lam": 2.0}),
}


@pytest.mark.parametrize("name", sorted(_FLOOR_KERNELS))
@settings(max_examples=8, deadline=None)
@given(R=st.floats(1.0, 4.0), T=st.floats(0.1, 1.0),
       A_diff=st.floats(0.0, 0.5), B_drift=st.floats(-0.5, 0.5),
       base=st.floats(1e-3, 1.0), amp=st.floats(0.0, 2.0),
       phase=st.floats(0.0, 2 * math.pi), scale=st.sampled_from([1e-3, 1e3]))
def test_whole_line_stop_at_the_value_floor(name, R, T, A_diff, B_drift,
                                            base, amp, phase, scale):
    # positive data: every P^n u(0) stays >= m = min(u0) (the discrete
    # maximum principle), so a sum cut at 1e-16 m leaves every value
    # within 1e-16 relative of the sum run to the floor 1e-300
    kernel = _FLOOR_KERNELS[name]
    u0 = lambda x: scale * (base + amp * (1.0 + math.cos(x + phase)))
    cfg = SimConfig(kernel=kernel, R=R, T=T, u0=u0, A_diff=A_diff,
                    B_drift=B_drift, bc_mode="whole_line", n_per_unit=8,
                    snapshots=[T / 2, T])
    hist, ref = simulate(cfg), _floor_run(cfg)
    m = hist.meta["value_floor"]
    assert m == np.min(cfg.u0_values(cfg.x)) > 0
    assert hist.meta["matvecs"] <= ref.meta["matvecs"]
    assert hist.meta["tail_bound"] <= 1e-16 * m
    # in floating point each matvec may lose the round-off bound's share
    # of the smallest value it reads (a constant drifts by about one ulp
    # a matvec: 1.5e-14 below m after 200 of them, in the floor run too)
    slack = hist.meta["roundoff_bound"]
    for a, b in zip(hist.fields, ref.fields):
        assert np.all(a.values >= m * (1 - 1e-16 - slack))
        assert np.max(np.abs(a.values - b.values) / b.values) <= 4e-16


def test_roundoff_bound_covers_the_drift_of_constant_data():
    # P's taps sum to 1 - 2.2e-16 in floating point, so constant data
    # drift (to 1 + 5.3e-14 after 228 matvecs here) though the exact
    # solution stays 1
    cfg = SimConfig(kernel=_FLOOR_KERNELS["tempered"], R=4.0, T=1.0,
                    u0=lambda x: 1.0, bc_mode="whole_line", n_per_unit=8)
    hist = simulate(cfg)
    taps = len(_stencil(cfg.kernel, cfg.h, cfg.reach)[1])
    assert hist.meta["matvecs"] == 228
    assert hist.meta["roundoff_bound"] == 229 * (2 * taps + 2) * 2.0 ** -53
    drift = np.max(np.abs(hist.fields[-1].values - 1.0))
    assert 0 < drift <= hist.meta["roundoff_bound"]


def test_whole_line_data_with_a_zero_node_keeps_the_floor_stop(
        compact_kernel):
    # min(u0) = 0 at x = 0: m = 0, and the stop is the floor's, as before
    cfg = SimConfig(kernel=compact_kernel, R=4.0, T=1.0,
                    u0=lambda x: min(1.0, x * x), bc_mode="whole_line",
                    n_per_unit=8, domain_truncation=12.0,
                    snapshots=[0.5, 1.0])
    hist, ref = simulate(cfg), _floor_run(cfg)
    assert hist.meta["value_floor"] == 0.0
    assert hist.meta["matvecs"] == ref.meta["matvecs"] == 173
    for a, b in zip(hist.fields, ref.fields):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("bc_mode,A_diff,B_drift,matvecs", [
    ("dirichlet_zero_outside", 0.0, 0.0, 173),
    ("dirichlet_zero_outside", 0.25, 0.5, 455),
    ("barrier", 0.0, 0.0, 173), ("barrier", 0.25, 0.5, 455)])
def test_held_zero_keeps_the_floor_stop(compact_kernel, bc_mode, A_diff,
                                        B_drift, matvecs):
    # Dirichlet and barrier runs hold a 0, so m = 0 and every sum runs to
    # the floor 1e-300 with the matvecs it always took
    cfg = SimConfig(kernel=compact_kernel, R=4.0, T=1.0,
                    u0=lambda x: 1.0 + 0.5 * math.cos(x / 3.0 + 0.4),
                    A_diff=A_diff, B_drift=B_drift, bc_mode=bc_mode,
                    n_per_unit=8, snapshots=[0.5, 1.0])
    hist, ref = simulate(cfg), _floor_run(cfg)
    assert hist.meta["value_floor"] == 0.0
    assert hist.meta["matvecs"] == ref.meta["matvecs"] == matvecs
    for a, b in zip(hist.fields, ref.fields):
        assert np.array_equal(a.values, b.values)


def test_whole_line_sandwich_solve_takes_few_matvecs(critical_kernel):
    # the benchmark's whole-line exp_linear sandwich solve: its values
    # never fall below 0.5, so its sums stop at 1e-16 * 0.5, not at the
    # floor 1e-300 (172 matvecs)
    cfg = SimConfig(kernel=critical_kernel, R=16.0, T=1.0,
                    u0=lambda x: 1.0 + 0.5 * math.cos(x / 3.0 + 0.4),
                    bc_mode="whole_line", domain_truncation=68.3)
    assert simulate(cfg).meta["matvecs"] <= 20


@pytest.mark.parametrize("bc_mode,R,T,u0", [
    ("barrier", 30.0, 1e-10, 1.0),
    ("dirichlet_zero_outside", 4.0, 1.0, 1.0),
    ("whole_line", 4.0, 1.0, lambda x: 0.25 + math.exp(-x * x))])
def test_meta_reports_value_floor_and_saturated_nodes(compact_kernel,
                                                      bc_mode, R, T, u0):
    cfg = SimConfig(kernel=compact_kernel, R=R, T=T, u0=u0, bc_mode=bc_mode,
                    n_per_unit=8, snapshots=[T / 2, T])
    hist = simulate(cfg)
    vals = [f.values for f in hist.fields]
    held_value = 0.0 if bc_mode != "whole_line" else 0.25
    floor = min(held_value, float(np.min(cfg.u0_values(cfg.x))))
    assert hist.meta["value_floor"] == floor
    assert min(float(np.min(v)) for v in vals) >= floor * (1 - 1e-15)
    saturated = sum(int(np.sum(v <= 1e-300)) for v in vals)
    assert hist.meta["saturated_nodes"] == saturated
    if bc_mode != "whole_line":
        assert saturated > 0


def test_reads_must_mask_a_node_of_the_grid(compact_kernel):
    cfg = SimConfig(kernel=compact_kernel, R=3.0, T=0.5)
    for mask in (np.zeros(len(cfg.x), dtype=bool), np.ones(3, dtype=bool)):
        with pytest.raises(ValidationError):
            simulate(cfg, reads=mask)


def _spy_on_simulate(monkeypatch):
    calls = []

    def spy(cfg, **kwargs):
        calls.append((cfg.R, kwargs.get("reads")))
        return simulate(cfg, **kwargs)

    monkeypatch.setattr(pde, "simulate", spy)
    return calls


def test_run_sweep_solves_through_the_module_attribute(compact_kernel,
                                                       monkeypatch):
    # benchmark tracers count the sweep solves by patching ldp.pde.simulate
    calls = _spy_on_simulate(monkeypatch)
    recs = run_sweep(compact_kernel, [5.0, 3.0, 4.0], theta=0.5,
                     n_per_unit=8)
    assert sorted(R for R, _ in calls) == [3.0, 4.0, 5.0]
    for R, reads in calls:
        cfg = SimConfig(kernel=compact_kernel, R=R, T=1.0, n_per_unit=8)
        np.testing.assert_array_equal(reads, np.abs(cfg.x) <= 0.5 * R)
    assert all(r.matvecs > 0 for r in recs)


@pytest.mark.parametrize("theta", [1.5, -0.1, math.nan])
def test_run_sweep_checks_theta_before_any_solve(compact_kernel, monkeypatch,
                                                 theta):
    calls = _spy_on_simulate(monkeypatch)
    with pytest.raises(ValidationError):
        run_sweep(compact_kernel, [3.0, 4.0, 5.0], theta=theta)
    assert calls == []


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
    ("snapshots", [math.inf]), ("u0", math.inf), ("u0", math.nan),
    ("u0", lambda x: math.nan), ("u0", lambda x: math.inf)])
def test_config_rejects_non_finite_values(compact_kernel, field, value):
    kwargs = dict(kernel=compact_kernel, R=3.0, T=0.5)
    kwargs[field] = value
    if callable(value):
        # a callable u0 is checked where it is sampled
        cfg = SimConfig(**kwargs)
        with pytest.raises(ValidationError):
            cfg.u0_values(cfg.x)
    else:
        with pytest.raises(ValidationError):
            SimConfig(**kwargs)
