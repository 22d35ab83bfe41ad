"""End-to-end acceptance checks.

Each test records a single PASS/FAIL verdict line (re-printed after the
run by the terminal-summary hook in conftest) and then asserts.  Heavy
simulations are shared across criteria through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from ldp import (Field, Hamiltonian, HamiltonianParams, HJGrid, Lagrangian,
                 SimConfig, build_kernel, conjugate, eval_h_ess, k_inverse,
                 lax_oleinik_field, rate_iinf, run_sweep, simulate, solve_hj,
                 sup_difference)


import _verdicts
from _oracles import compact_walk_exponent, demo_terminal_exponent


def _verdict(num, ok, detail):
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    _verdicts.record(line)
    return line


# ---------------------------------------------------------------------------
# shared objects
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quadratic_h():
    return Hamiltonian.from_callables(
        value=lambda p: 0.5 * float(np.asarray(p).reshape(-1)[0]) ** 2,
        grad=lambda p: np.atleast_1d(np.asarray(p, dtype=float)),
        hess=lambda p: 1.0)


@pytest.fixture(scope="module")
def compact_sweep(compact_kernel):
    # shared by the compact-rate and sandwich criteria
    return run_sweep(compact_kernel, [8.0, 12.0, 16.0, 20.0, 24.0],
                     theta=0.0, t_obs=1.0)


@pytest.fixture(scope="module")
def critical_sweep(critical_kernel):
    return run_sweep(critical_kernel, [16.0, 24.0, 32.0, 40.0],
                     theta=0.5, t_obs=4.0)


@pytest.fixture(scope="module")
def demo_barriers(demo_kernel):
    out = {}
    for R in (10.0, 15.0, 20.0):
        cfg = SimConfig(kernel=demo_kernel, R=R, T=1.0, bc_mode="barrier")
        out[R] = simulate(cfg).at_time(1.0)
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_closed_form_hamiltonians(compact_h, critical_h,
                                               demo_kernel):
    t0 = time.time()
    worst = 0.0
    for p in np.linspace(-6.0, 6.0, 50):
        exact = math.sinh(p) / p - 1.0
        worst = max(worst, abs(compact_h.value(p) - exact) / abs(exact))
    for p in np.linspace(-0.95, 0.95, 50):
        exact = p * p / (1 - p * p)
        worst = max(worst, abs(critical_h.value(p) - exact) / abs(exact))
    demo_h = Hamiltonian.from_kernel(demo_kernel)
    for p in np.linspace(-0.94, 5.0, 50):
        exact = math.exp(p) / (2 * p) - 1 / (2 * p) + 1 / (2 * (p + 1)) - 1
        worst = max(worst, abs(demo_h.value(p) - exact) / abs(exact))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    msg = _verdict(1, ok, f"max rel err {worst:.2e} (<=1e-8), "
                          f"{elapsed:.2f}s (<5s)")
    assert ok, msg


def test_criterion_02_fenchel_young(compact_h, critical_h):
    L = Lagrangian(compact_h)
    rng = np.random.default_rng(0)
    # the pairs (p, q) drawn in turn, p in [-6, 6] and q in [-50, 50]
    p, q = rng.uniform([-6.0, -50.0], [6.0, 50.0], size=(1000, 2)).T
    res = L.result(q)
    scale = np.maximum(1.0, np.abs(p * q))
    gap_worst = float(np.max((p * q - compact_h.batch(p)[0] - res.value)
                             / scale))
    resid_worst = float(np.max(res.residual[~res.hit_domain_boundary],
                               initial=0.0))
    Lc = Lagrangian(critical_h)
    ref_err = abs(Lc(16.0 / 9.0) - 5.0 / 9.0)
    ok = gap_worst <= 1e-8 and resid_worst <= 1e-8 and ref_err <= 1e-6
    msg = _verdict(2, ok, f"Fenchel-Young worst violation {gap_worst:.2e}, "
                          f"worst residual {resid_worst:.2e}, "
                          f"|L(16/9)-5/9|={ref_err:.2e}")
    assert ok, msg


def test_criterion_03_inverse_transform_table(compact_kernel,
                                              gaussian_tail_kernel):
    errs = []
    for z in (1.0, 10.0, 100.0):
        errs.append(abs(k_inverse(compact_kernel, z) - z / 1.0))
        errs.append(abs(k_inverse(gaussian_tail_kernel, z)
                        - 2 * math.sqrt(z)))
    const_ok = True
    for alpha in (0.5, 2.0):
        k = build_kernel("exp_linear", 1, {"alpha": alpha})
        const_ok &= all(k_inverse(k, z) == alpha for z in (1.0, 10.0, 100.0))
    exact_ok = errs[0] == 0.0 and errs[2] == 0.0 and errs[4] == 0.0
    sqrt_ok = max(errs[1], errs[3], errs[5]) <= 1e-6
    ok = exact_ok and sqrt_ok and const_ok
    msg = _verdict(3, ok, f"compact exact: {exact_ok}, sqrt table err "
                          f"{max(errs[1], errs[3], errs[5]):.2e}, "
                          f"constant: {const_ok}")
    assert ok, msg


def test_criterion_04_hj_vs_hopf_lax(quadratic_h, compact_h):
    t0 = time.time()
    times = (0.25, 0.5, 1.0)
    cases = [("quadratic", quadratic_h,
              lambda q: 0.5 * q * q, 10.0),
             ("compact", compact_h, Lagrangian(compact_h), 5.0)]
    errs = {}
    for name, h, L, A in cases:
        for n in (399, 799):
            grid = HJGrid(n=n, T=1.0, A=A, snapshots=list(times))
            hist = solve_hj(h, grid)
            for t in times:
                oracle = lax_oleinik_field(L, grid, t)
                errs[name, n, t] = float(np.max(np.abs(
                    hist.at_time(t).values - oracle.values)))
    elapsed = time.time() - t0
    tol_ok = all(errs[name, 399, t] <= 0.05
                 for name, _, _, _ in cases for t in times)
    dec_ok = all(errs[name, 799, t] < errs[name, 399, t]
                 for name, _, _, _ in cases for t in times)
    ok = tol_ok and dec_ok and elapsed < 30.0
    detail = ", ".join(f"{name}@{t}: {errs[name, 399, t]:.4f}"
                       for name, _, _, _ in cases for t in times)
    msg = _verdict(4, ok, f"sup errors n=399 [{detail}] (<=0.05), "
                          f"decrease on doubling: {dec_ok}, "
                          f"{elapsed:.1f}s (<30s)")
    assert ok, msg


def test_criterion_05_constrained_critical_solver(critical_h):
    beta0, A = 1.0, 10.0
    grid = HJGrid(n=399, T=1.0, A=A, snapshots=[1e-3, 1.0])
    hist = solve_hj(critical_h, grid)
    h = grid.h
    x = grid.x
    slope_worst = max(float(np.max(np.abs(np.diff(f.values)) / h))
                      for f in hist.fields)
    dist = 1.0 - np.abs(x)
    obstacle = np.minimum(A, beta0 * dist)
    err_early = float(np.max(np.abs(hist.at_time(1e-3).values - obstacle)))
    L = Lagrangian(critical_h)
    ref = np.minimum(A, 1.0 * L(dist / 1.0))
    err_late = float(np.max(np.abs(hist.at_time(1.0).values - ref)))
    ok = (slope_worst <= beta0 + 2 * h and err_early <= 0.05
          and err_late <= 0.05)
    msg = _verdict(5, ok, f"max slope {slope_worst:.4f} "
                          f"(<= {beta0 + 2 * h:.4f}), early trace err "
                          f"{err_early:.4f}, t=1 err {err_late:.4f} (<=0.05)")
    assert ok, msg


def test_criterion_06_sandwich_and_monotonicity(compact_kernel,
                                                critical_kernel):
    worst_low, worst_high = 0.0, 0.0
    mono_ok = True
    from ldp import tail_reach
    for kernel, Rs, T in ((compact_kernel, (8.0, 12.0), 1.0),
                          (critical_kernel, (12.0, 16.0), 1.0)):
        trunc = max(Rs) + max(10.0, tail_reach(kernel)) + 1.0
        prev = None
        for R in Rs:
            common = dict(kernel=kernel, R=R, T=T, domain_truncation=trunc)
            u = simulate(SimConfig(bc_mode="whole_line",
                                   **common)).at_time(T)
            uR = simulate(SimConfig(bc_mode="dirichlet_zero_outside",
                                    **common)).at_time(T)
            vR = simulate(SimConfig(bc_mode="barrier", **common)).at_time(T)
            inside = np.abs(u.x) <= R
            diff = (u.values - uR.values)[inside]
            worst_low = min(worst_low, float(np.min(diff)))
            worst_high = max(worst_high, float(np.max(
                diff - vR.values[inside])))
            if prev is not None:
                mono_ok &= bool(np.all(prev <= uR.values + 1e-12))
            prev = uR.values
    ok = worst_low >= -1e-12 and worst_high <= 1e-10 and mono_ok
    msg = _verdict(6, ok, f"min(u-uR) {worst_low:.1e} (>=0), "
                          f"max(u-uR-vR) {worst_high:.1e} (<=1e-10), "
                          f"uR monotone in R: {mono_ok}")
    assert ok, msg


def test_criterion_07_compact_rate_ladder(compact_kernel, compact_sweep):
    # The exact law of the walk gives ratios that fall towards 1/rho from
    # above (1.787 at R=8, 1.511 at R=24); the solver's exit exponent lies
    # at most a few percent below the exact terminal one (see _oracles).
    inv_rho = 1.0 / compact_kernel.params["rho"]
    ratios = [r.empirical_exponent / (r.R * math.log(r.R))
              for r in compact_sweep]
    shares = [r.empirical_exponent / compact_walk_exponent(r.R)
              for r in compact_sweep]
    noninc = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    above = all(r > inv_rho for r in ratios)
    in_band = all(0.95 <= s <= 1.0 for s in shares)
    ok = noninc and above and in_band
    msg = _verdict(7, ok, "ratios -ln(sup)/(R ln R) = "
                   + ", ".join(f"{r:.3f}" for r in ratios)
                   + f"; non-increasing: {noninc}, all > 1/rho: {above}; "
                     "exponent / exact = "
                   + ", ".join(f"{s:.3f}" for s in shares)
                   + f" (in [0.95, 1]: {in_band})")
    assert ok, msg


def test_criterion_08_critical_rate_ladder(critical_sweep):
    ratios = [r.ratio for r in critical_sweep]
    nondec = all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    in_bracket = 0.6 <= ratios[-1] <= 1.4
    ok = nondec and in_bracket
    msg = _verdict(8, ok, "ratios -ln(sup)/((1-theta) R) = "
                   + ", ".join(f"{r:.3f}" for r in ratios)
                   + f"; non-decreasing: {nondec}, "
                     f"final in [0.6, 1.4]: {in_bracket}")
    assert ok, msg


def test_criterion_09_asymmetric_decay_factor(demo_barriers):
    # From both points the cheapest exit is the exponential left tail, so
    # the factor is about (R + 2)/(R - 2): above 1 and falling in R.
    factors, exact = [], []
    for R in (10.0, 15.0, 20.0):
        f = demo_barriers[R]
        vp = float(f.sample(2.0))
        vm = float(f.sample(-2.0))
        factors.append(math.log(vp) / math.log(vm))
        exact.append(demo_terminal_exponent(R, 2.0)
                     / demo_terminal_exponent(R, -2.0))
    above = all(v > 1.0 for v in factors)
    falling = factors[0] > factors[1] > factors[2]
    close = all(abs(v / e - 1.0) <= 0.01 for v, e in zip(factors, exact))
    ok = above and falling and close
    msg = _verdict(9, ok, "decay factor at x=+2 vs x=-2: "
                   + ", ".join(f"{v:.4f}" for v in factors)
                   + " (exact " + ", ".join(f"{e:.4f}" for e in exact)
                   + f"); > 1: {above}, falling: {falling}, "
                     f"within 1% of exact: {close}")
    assert ok, msg


def test_criterion_10_growth_negligibility(compact_kernel,
                                           gaussian_tail_kernel):
    ok = True
    details = []
    for kernel in (compact_kernel, gaussian_tail_kernel):
        params = HamiltonianParams(kernel=kernel)
        ratios = [eval_h_ess(params, p)
                  / (p * eval_h_ess(params, p, moment=1))
                  for p in (20.0, 30.0, 40.0)]
        ok &= ratios[0] < 0.2 and ratios[0] > ratios[1] > ratios[2]
        details.append(f"{kernel.family}: "
                       + "/".join(f"{r:.4f}" for r in ratios))
    msg = _verdict(10, ok, "H^ess/(p DH^ess) at |p|=20,30,40: "
                   + "; ".join(details))
    assert ok, msg


def test_criterion_11_lagrangian_ordering(compact_kernel):
    dipped = build_kernel("compact_custom", 1,
                          {"rho": 1.0, "dip_a": 0.25, "dip_b": 0.5,
                           "dip_factor": 0.5})
    L1 = Lagrangian(Hamiltonian.from_kernel(dipped))
    L2 = Lagrangian(Hamiltonian.from_kernel(compact_kernel))
    gaps = [(q, L1(q) - L2(q)) for q in (1e3, 1e4, 1e5)]
    ok = all(g >= 0.0 for _, g in gaps)
    msg = _verdict(11, ok, "L_reduced - L_full = "
                   + ", ".join(f"{g:.3g}@q={q:g}" for q, g in gaps)
                   + " (all >= 0)")
    assert ok, msg


def test_criterion_12_empirical_rate_convergence(compact_kernel, compact_h):
    from ldp import empirical_rate
    L = Lagrangian(compact_h)
    sups = []
    for R in (8.0, 16.0, 24.0):
        cfg = SimConfig(kernel=compact_kernel, R=R, T=0.05 * R,
                        bc_mode="barrier")
        IR = empirical_rate(simulate(cfg), R).fields[-1]
        window = np.abs(IR.x) <= 0.5
        xw = IR.x[window]
        iw = IR.values[window]
        iref = rate_iinf(L, xw[:, None], 0.05).value
        sups.append(float(np.max(np.abs(iw - iref))))
    ok = sups[0] > sups[1] > sups[2]
    msg = _verdict(12, ok, "sup|I_R - I_inf| over {|x|<=0.5, t/R=0.05} = "
                   + ", ".join(f"{s:.3f}" for s in sups)
                   + " (decreasing)")
    assert ok, msg
