"""The batched H engine against the adaptive-quadrature oracle, in 1-D and
for radial kernels in 2-D, and the Fenchel-Young inequality for every
kernel family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldp.hamiltonian as ham
from ldp import Hamiltonian, Lagrangian, build_kernel, scaled_kernel
from ldp.hamiltonian import HTable, eval_batch, eval_h_ess, first_reach

import _quad_oracle as Q

# every 1-D family, with the largest |p| taken where the domain is
# unbounded (exp_power: H(12) ~ e^{256}); elsewhere |p| stays within 0.99
# of the domain edge
FAMILIES = {
    "compact_uniform": ("compact_uniform", {"rho": 1.0}, 20.0),
    "compact_custom": ("compact_custom", {"rho": 1.5, "dip_a": 0.3,
                                          "dip_b": 0.8, "dip_factor": 0.25},
                       20.0),
    "exp_power": ("exp_power", {"alpha": 1.5}, 12.0),
    "exp_linear": ("exp_linear", {"alpha": 2.0}, None),
    "super_exp": ("super_exp", {}, 20.0),
    "tempered_stable": ("tempered_stable", {"alpha": 0.5, "lam": 1.0}, None),
    "tempered_stable_15": ("tempered_stable", {"alpha": 1.5, "lam": 2.0},
                           None),
    "asymmetric_1d_demo": ("asymmetric_1d_demo", {}, 20.0),
}
_H = {name: Hamiltonian.from_kernel(build_kernel(family, 1, params))
      for name, (family, params, _) in FAMILIES.items()}
# every radial family in 2-D, with the same parameters and |p| ranges
_H2 = {name: Hamiltonian.from_kernel(build_kernel(family, 2, params))
       for name, (family, params, _) in FAMILIES.items()
       if name != "asymmetric_1d_demo"}


def _p_range(name):
    lo, hi = _H[name].domain
    cap = FAMILIES[name][2]
    return (0.99 * lo if math.isfinite(lo) else -cap,
            0.99 * hi if math.isfinite(hi) else cap)


def _close(value, ref):
    # relative 1e-9; the absolute floor only matters where the integral
    # crosses 0 (H' and the essential gradient at p = 0)
    return abs(value - ref) <= 1e-9 * abs(ref) + 1e-15


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=12, deadline=None)
@given(u=st.floats(0.0, 1.0))
def test_engine_matches_quad_oracle(name, u):
    h = _H[name]
    k, params = h.kernel, h.params
    lo, hi = _p_range(name)
    p = lo + u * (hi - lo)
    got = eval_batch(params, [p], (0, 1, 2))[:, 0]
    for m in (0, 1, 2):
        ref = Q.h_moment(k, p, m, params.compensated, params.delta_split)
        assert _close(got[m], ref), (m, p, got[m], ref)
    ess = eval_batch(params, [p], (0, 1), essential=True)[:, 0]
    for m in (0, 1):
        ref = Q.h_ess(k, p, m)
        assert _close(ess[m], ref), ("ess", m, p, ess[m], ref)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_batch_independent_of_chunks_and_order(name, monkeypatch):
    h = _H[name]
    lo, hi = _p_range(name)
    ps = np.linspace(lo, hi, 41)
    whole = eval_batch(h.params, ps, (0, 1, 2))
    perm = np.random.default_rng(3).permutation(ps.size)
    shuffled = eval_batch(h.params, ps[perm], (0, 1, 2))
    monkeypatch.setattr(ham, "_CHUNK", 1)   # one p per chunk
    single = eval_batch(h.params, ps, (0, 1, 2))
    scale = np.abs(whole) + 1e-300
    assert np.all(np.abs(shuffled[:, np.argsort(perm)] - whole)
                  <= 1e-14 * scale)
    assert np.all(np.abs(single - whole) <= 1e-14 * scale)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_table_slopes_nondecreasing(name):
    h = _H[name]
    lo, hi = _p_range(name)
    tab = HTable(h, np.linspace(lo, hi, 401))
    steps = np.diff(tab.slopes)
    assert np.all(steps >= -1e-12 * np.max(np.abs(tab.slopes)))
    # H' at the knots lies between the slopes of the neighbouring cells
    inner = h.batch(tab.ps, (1,))[0, 1:-1]
    assert np.all(tab.slopes[:-1] <= inner + 1e-9 * np.abs(inner))
    assert np.all(inner <= tab.slopes[1:] + 1e-9 * np.abs(inner))


def test_table_speed_reads_the_end_cells():
    # H = e^p - 2p on uneven knots: H' changes sign at p* = ln 2, so the
    # top speed sits in the cell of lo or in that of hi
    h = Hamiltonian.from_callables(
        value=lambda p: math.exp(p) - 2 * p,
        grad=lambda p: np.exp(np.ravel(p)) - 2.0, hess=lambda p: 1.0)
    ps = np.cumsum(np.random.default_rng(5).uniform(0.1, 0.5, 24)) - 4.0
    tab = HTable(h, ps)
    speeds = np.abs(tab.slopes)

    def cell(p):
        # the cell (ps[k], ps[k + 1]] holding p; the end cells beyond
        for k in range(len(speeds)):
            if p <= ps[k + 1]:
                return k
        return len(speeds) - 1

    inside = [ps[0] + 0.3 * (ps[1] - ps[0]), 0.1, math.log(2.0), 1.2]
    knots = [ps[0], ps[3], ps[11], ps[-2], ps[-1]]
    outside = [ps[0] - 1.0, ps[-1] + 0.7]
    probes = sorted(inside + knots + outside)
    for i, lo in enumerate(probes):
        for hi in probes[i:]:
            got = tab.speed(lo, hi)
            assert got == max(speeds[cell(lo)], speeds[cell(hi)])
            # H is convex: no cell between them is faster
            assert got == max(speeds[cell(lo):cell(hi) + 1])


def test_first_reach_tabulates_only_the_moments_it_reads():
    calls = {"value": 0, "grad": 0}

    def value(p):
        calls["value"] += 1
        return 0.5 * float(np.ravel(p)[0]) ** 2

    def grad(p):
        calls["grad"] += 1
        return np.array([float(np.ravel(p)[0])])

    h = Hamiltonian.from_callables(value=value, grad=grad,
                                   hess=lambda p: 1.0)
    for moments, good, crossing in (
            ((1,), lambda G: G >= 5.0, 5.0),
            ((0,), lambda H: H >= 8.0, 4.0),
            ((0, 1), lambda H, G: (H >= 8.0) & (G >= 3.0), 4.0)):
        calls.update(value=0, grad=0)
        t = first_reach(h, +1.0, math.inf, moments, good)
        assert crossing <= t <= crossing * (1 + 1e-6)
        probes = max(calls.values())
        assert probes > 0
        assert calls == {"value": probes if 0 in moments else 0,
                         "grad": probes if 1 in moments else 0}


@pytest.mark.parametrize("name", ["exp_linear", "tempered_stable"])
def test_tiny_kernels_keep_relative_accuracy(name):
    # panels are dropped relative to the kernel's own scale
    h = _H[name]
    tiny = Hamiltonian.from_kernel(scaled_kernel(h.kernel, 1e-30))
    ps = np.linspace(*_p_range(name), 9)
    np.testing.assert_allclose(tiny.batch(ps, (0, 1, 2)),
                               1e-30 * h.batch(ps, (0, 1, 2)),
                               rtol=1e-12, atol=1e-45)


def test_scalar_operations_are_batches_of_one():
    h = _H["tempered_stable"]
    p = 0.37
    got = eval_batch(h.params, [p], (0, 1, 2))[:, 0]
    assert h.value(p) == got[0]
    assert h.grad_1d(p) == got[1]
    assert h.hess_quadform(p, 2.0) == 4.0 * got[2]


def test_callable_fallback_loops_over_the_scalar_callable():
    h = Hamiltonian.from_callables(
        value=lambda p: float(np.ravel(p)[0]) ** 4,
        grad=lambda p: np.array([4 * float(np.ravel(p)[0]) ** 3]),
        hess=lambda p: 12 * float(np.ravel(p)[0]) ** 2)
    ps = np.array([-1.5, 0.0, 2.0])
    np.testing.assert_array_equal(
        h.batch(ps, (0, 1, 2)), [ps ** 4, 4 * ps ** 3, 12 * ps ** 2])


def _radius_cap(name):
    hi = _H2[name].domain[1]
    return 0.99 * hi if math.isfinite(hi) else FAMILIES[name][2]


def _radial_values(h, pr, theta):
    """H, |DH|, the curvatures along and across p, and H^ess at
    p = pr (cos theta, sin theta)."""
    along = np.array([math.cos(theta), math.sin(theta)])
    across = np.array([-along[1], along[0]])
    p = pr * along
    return [h.value(p), math.hypot(*h.grad(p)), h.hess_quadform(p, along),
            h.hess_quadform(p, across), eval_h_ess(h.params, p)]


@pytest.mark.parametrize("name", sorted(_H2))
@settings(max_examples=12, deadline=None)
@given(u=st.floats(0.0, 1.0), theta=st.floats(0.0, 2 * math.pi))
def test_radial_engine_matches_quad_oracle(name, u, theta):
    h = _H2[name]
    pr = u * _radius_cap(name)
    # the oracle at the |p| the engine sees (subnormal p rounds)
    pr_seen = math.hypot(*(pr * np.array([math.cos(theta), math.sin(theta)])))
    for kind, value in zip(("h", "grad", "par", "perp", "ess"),
                           _radial_values(h, pr, theta)):
        ref = Q.radial(h.kernel, pr_seen, kind, h.params.delta_split)
        assert _close(value, ref), (kind, pr, value, ref)


@pytest.mark.parametrize("name", sorted(_H2))
def test_radial_values_invariant_under_rotation(name):
    h = _H2[name]
    rng = np.random.default_rng(7)
    for pr in _radius_cap(name) * np.array([0.01, 0.5, 1.0]):
        p = pr * np.array([1.0, 0.0])
        base = _radial_values(h, pr, 0.0)
        nu = rng.normal(size=2)
        # a rotation moves |p| by an ulp or two, which H(12) ~ e^{256}
        # (exp_power) magnifies about 800-fold
        for phi in rng.uniform(0.0, 2 * math.pi, 3):
            rot = np.array([[math.cos(phi), -math.sin(phi)],
                            [math.sin(phi), math.cos(phi)]])
            np.testing.assert_allclose(_radial_values(h, pr, phi), base,
                                       rtol=1e-12)
            np.testing.assert_allclose(h.grad(rot @ p), rot @ h.grad(p),
                                       rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(h.hess_quadform(rot @ p, rot @ nu),
                                       h.hess_quadform(p, nu), rtol=1e-12)


@pytest.mark.parametrize("name", sorted(_H2))
def test_radial_values_at_p_zero(name):
    h = _H2[name]
    k, zero = h.kernel, np.zeros(2)
    assert h.value(zero) == 0.0
    assert np.all(h.grad(zero) == 0.0)
    # isotropic: pi int r^3 J in every direction
    curv = Q.radial(k, 0.0, "par", h.params.delta_split)
    assert _close(Q.radial(k, 0.0, "perp", h.params.delta_split), curv)
    for nu in ([1.0, 0.0], [0.3, -0.4], [-2.0, 1.0]):
        nu = np.array(nu)
        assert _close(h.hess_quadform(zero, nu), (nu @ nu) * curv)
    assert _close(eval_h_ess(h.params, zero),
                  Q.radial(k, 0.0, "ess", h.params.delta_split))
    if name == "compact_uniform":
        # J = 1/pi on the unit disc; H^ess(0) is its mass beyond rho0/2 = 1/4
        assert _close(h.hess_quadform(zero, np.array([1.0, 0.0])), 0.25)
        assert _close(eval_h_ess(h.params, zero), 0.9375)


_ALL_H = {**{(name, 1): h for name, h in _H.items()},
          **{(name, 2): h for name, h in _H2.items()}}


def _point(key, u, theta):
    """The point at fraction u of the family's p range (1-D) or at radius
    u times its cap in the direction theta (2-D)."""
    name, dim = key
    if dim == 1:
        lo, hi = _p_range(name)
        return np.array([lo + u * (hi - lo)])
    return u * _radius_cap(name) * np.array([math.cos(theta),
                                             math.sin(theta)])


@pytest.mark.parametrize("key", sorted(_ALL_H),
                         ids=lambda k: f"{k[0]}-{k[1]}d")
@settings(max_examples=5, deadline=None)
@given(u=st.floats(0.05, 0.95), theta=st.floats(0.0, 2 * math.pi),
       probes=st.lists(st.tuples(st.floats(0.0, 1.0),
                                 st.floats(0.0, 2 * math.pi)),
                       min_size=3, max_size=3))
def test_fenchel_young(key, u, theta, probes):
    # q = DH(p0) is attained inside the domain, so L(q) = p0.q - H(p0)
    h = _ALL_H[key]
    p0 = _point(key, u, theta)
    q = np.atleast_1d(h.grad(p0))
    L = Lagrangian(h)
    value = L(q)
    scale = 1.0 + abs(float(p0 @ q))
    # p.q <= H(p) + L(q) everywhere, with equality at the maximiser
    for v, phi in probes:
        p = _point(key, v, phi)
        assert float(p @ q) - h.value(p) - value <= 1e-8 * scale
    p_star = np.atleast_1d(L.slope(q))
    assert abs(float(p_star @ q) - h.value(p_star) - value) <= 1e-8 * scale
    assert abs(float(p0 @ q) - h.value(p0) - value) <= 1e-8 * scale


@pytest.mark.parametrize("key", sorted(_ALL_H),
                         ids=lambda k: f"{k[0]}-{k[1]}d")
def test_batched_l_matches_single_solves(key):
    # one batched solve against one solve per q, on q = DH(p) across the
    # p range, beyond it and reflected
    h = _ALL_H[key]
    qs = np.array([np.atleast_1d(h.grad(_point(key, u, 3.0 * u)))
                   for u in np.linspace(0.0, 1.0, 6)])
    qs = np.concatenate([qs, 1.5 * qs[-1:], -qs[1:3]])
    L = Lagrangian(h)
    batch = L.result(qs)
    singles = [L.result(q) for q in qs]
    np.testing.assert_array_equal(
        batch.hit_domain_boundary, [s.hit_domain_boundary for s in singles])
    np.testing.assert_allclose(batch.value, [s.value for s in singles],
                               rtol=1e-12, atol=0.0)
