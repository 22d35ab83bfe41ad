import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from ldp import (BelowRange, Hamiltonian, Lagrangian, UnsupportedKernel,
                 ValidationError, build_kernel, conjugate, k_inverse,
                 k_transform, lax_oleinik, predict_log_bound, rate_iinf,
                 scaled_kernel)
from ldp import hamiltonian

_conjugate = importlib.import_module("ldp.conjugate")


def quadratic_h():
    return Hamiltonian.from_callables(
        value=lambda p: 0.5 * float(np.asarray(p).reshape(-1)[0]) ** 2,
        grad=lambda p: np.atleast_1d(np.asarray(p, dtype=float)),
        hess=lambda p: 1.0)


def test_quadratic_conjugate_is_quadratic():
    h = quadratic_h()
    for q in [-3.0, -0.5, 0.0, 1.2, 7.0]:
        res = conjugate(h, q)
        assert res.value == pytest.approx(0.5 * q * q, abs=1e-9)
        assert res.residual <= 1e-8
        assert not res.hit_domain_boundary


def test_critical_lagrangian_reference_value(critical_h):
    L = Lagrangian(critical_h)
    # H(p) = p^2/(1-p^2): the conjugate at q = 16/9 evaluates to 5/9
    assert L(16.0 / 9.0) == pytest.approx(5.0 / 9.0, abs=1e-9)


def test_lagrangian_slope_inverts_gradient(compact_h):
    L = Lagrangian(compact_h)
    for q in [0.5, 3.0, 40.0]:
        p0 = float(L.slope(q)[0])
        assert compact_h.grad(p0)[0] == pytest.approx(q, rel=1e-7)


def test_lagrangian_nonnegative_zero_at_zero(compact_h):
    L = Lagrangian(compact_h)
    assert L(0.0) == pytest.approx(0.0, abs=1e-10)
    assert L(1e-3) >= 0.0


_FY_H = Hamiltonian.from_kernel(build_kernel("compact_uniform", 1,
                                             {"rho": 1.0}))
_FY_L = Lagrangian(_FY_H)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(-6.0, 6.0), q=st.floats(-50.0, 50.0))
def test_fenchel_young_inequality(p, q):
    # H(p) + L(q) >= p q for every admissible pair
    assert _FY_H.value(p) + _FY_L(q) >= p * q - 1e-8 * max(1.0, abs(p * q))


def test_fenchel_young_equality_at_argmax(compact_h):
    L = Lagrangian(compact_h)
    rng = np.random.default_rng(7)
    for q in rng.uniform(-20, 20, size=50):
        res = L.result(float(q))
        p0 = float(res.argmax[0])
        gap = compact_h.value(p0) + res.value - p0 * q
        assert abs(gap) <= 1e-8 * max(1.0, abs(p0 * q))


def test_k_transform_compact(compact_kernel):
    res = k_transform(compact_kernel, 3.0)
    assert res.value == pytest.approx(3.0)   # rho * |p| with rho = 1
    assert res.argmax[0] == pytest.approx(1.0)


def test_k_transform_gaussian_tail(gaussian_tail_kernel):
    # omega(r) = r so K(p) = sup_r (p r - r^2) = p^2 / 4
    res = k_transform(gaussian_tail_kernel, 5.0)
    assert res.value == pytest.approx(6.25, rel=1e-6)


@pytest.mark.parametrize("dimension, p", [(1, [3.0, 4.0]), (1, [[5.0]]),
                                          (1, []), (2, 5.0)])
def test_k_transform_rejects_a_p_of_another_dimension(dimension, p):
    # on the 1-D kernel |(3, 4)| = 5 gave K(5) = 6.25
    kernel = build_kernel("exp_power", dimension, {"alpha": 2.0})
    with pytest.raises(ValidationError):
        k_transform(kernel, p)


def test_k_transform_rejects_critical_and_asymmetric(critical_kernel,
                                                     demo_kernel):
    with pytest.raises(UnsupportedKernel):
        k_transform(critical_kernel, 1.0)
    with pytest.raises(UnsupportedKernel):
        k_transform(demo_kernel, 1.0)


# intermediate kernels (family, alpha) and K^{-1}(w) of the unscaled kernel
# in closed form: K(r) = (alpha - 1) (r / alpha)^{alpha / (alpha - 1)} for
# exp_power, K(r) = r ln r - r for super_exp (ln J(0) = -1)
_INTERMEDIATE = [("exp_power", 1.5), ("exp_power", 2.0), ("exp_power", 3.0),
                 ("super_exp", None)]


def _intermediate_kernel(family, alpha, dim, c=1.0):
    k = build_kernel(family, dim, {} if alpha is None else {"alpha": alpha})
    return k if c == 1.0 else scaled_kernel(k, c)


def _k_inverse_exact(family, alpha, w):
    if family == "super_exp":
        return brentq(lambda r: r * math.log(r) - r - w, 1.0, 1e6,
                      xtol=1e-300, rtol=1e-15) if w > -1 else 0.0
    return alpha * (w / (alpha - 1)) ** ((alpha - 1) / alpha) if w > 0 else 0.0


def test_k_inverse_families(compact_kernel, critical_kernel,
                            gaussian_tail_kernel):
    assert k_inverse(compact_kernel, 7.0) == 7.0
    assert k_inverse(critical_kernel, 7.0) == 1.0
    assert k_inverse(gaussian_tail_kernel, 4.0) == pytest.approx(4.0,
                                                                 abs=1e-6)
    # a density scaled by c shifts K by ln c: K^{-1}(z) is the unscaled
    # inverse at z - ln c, and 0 where z <= ln J(0+) (z <= ln 5 for
    # exp_power scaled by 5; super_exp has K^{-1}(0) = e)
    for family, alpha in _INTERMEDIATE:
        for dim in (1, 2):
            for c in (1.0, 0.3, 5.0):
                k = _intermediate_kernel(family, alpha, dim, c)
                for z in (0.0, 0.5, 1.0, 1.6, 4.0, 10.0, 100.0):
                    exact = _k_inverse_exact(family, alpha, z - math.log(c))
                    assert k_inverse(k, z) == pytest.approx(exact, rel=1e-12,
                                                            abs=0.0)


def test_k_inverse_cost():
    # one minimisation along the ray: a bisection over K solves made
    # hundreds of ln J calls per inverse
    for family, alpha in (("exp_power", 1.5), ("super_exp", None)):
        k = _intermediate_kernel(family, alpha, 1)
        calls = []

        def log_j(y, f=k.log_j):
            calls.append(y)
            return f(y)

        counted = dataclasses.replace(k, log_j=log_j)
        for z in (1.0, 10.0, 100.0):
            calls.clear()
            k_inverse(counted, z)
            assert len(calls) <= 60, (family, z, len(calls))


def test_brent_takes_the_steps_of_scipys_bounded_method(monkeypatch):
    # every minimisation that K, K^{-1} and predict_log_bound make is run
    # by scipy's method="bounded" as well: the same points of f in the same
    # order, and bitwise the same minimiser and minimum
    brent, runs = _conjugate._brent, []

    def both(f, a, b):
        mine, theirs = [], []
        x, fun, calls = brent(lambda r: mine.append(r) or f(r), a, b)
        ref = minimize_scalar(lambda r: theirs.append(r) or f(r),
                              bounds=(a, b), method="bounded",
                              options={"xatol": 1e-13})
        runs.append((mine == theirs, calls == ref.nfev == len(mine),
                     float(x).hex() == float(ref.x).hex(),
                     float(fun).hex() == float(ref.fun).hex()))
        return x, fun, calls

    monkeypatch.setattr(_conjugate, "_brent", both)
    for family, alpha in _INTERMEDIATE:
        for dim in (1, 2):
            for c in (1.0, 0.3, 5.0):
                k = _intermediate_kernel(family, alpha, dim, c)
                for z in (0.5, 1.0, 1.6, 4.0, 10.0, 37.0, 100.0):
                    k_inverse(k, z)
                for R in (12.0, 25.0, 40.0):
                    for theta in (0.0, 0.3):
                        for t in (0.3, 1.5):
                            predict_log_bound(k, R, theta, t)
                for p in (0.3, 2.0, 7.0):
                    k_transform(k, np.eye(dim)[0] * p)
    assert len(runs) > 400
    assert all(all(run) for run in runs)


def test_k_inverse_below_range(compact_kernel):
    with pytest.raises(BelowRange):
        k_inverse(compact_kernel, -1.0)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_k_inverse_non_finite_z(z, compact_kernel, critical_kernel,
                                gaussian_tail_kernel):
    for k in (compact_kernel, critical_kernel, gaussian_tail_kernel,
              build_kernel("super_exp", 1)):
        with pytest.raises(ValidationError) as info:
            k_inverse(k, z)
        assert info.type is ValidationError


def test_k_inverse_roundtrip(gaussian_tail_kernel):
    for z in [0.5, 2.0, 20.0]:
        r = k_inverse(gaussian_tail_kernel, z)
        back = k_transform(gaussian_tail_kernel, r).value
        assert back == pytest.approx(z, rel=1e-6)
    # K(K^{-1}(z)) = z on the range of K, z > max(0, ln J(0+))
    for family, alpha in _INTERMEDIATE:
        for dim in (1, 2):
            for c in (1.0, 0.3, 5.0):
                k = _intermediate_kernel(family, alpha, dim, c)
                for z in (0.5, 2.0, 20.0, 100.0):
                    if z > float(k.log_j(0.0)):
                        r = k_inverse(k, z)
                        back = k_transform(k, np.eye(dim)[0] * r).value
                        assert back == pytest.approx(z, rel=1e-12)


def test_asymmetric_2d_conjugate_matches_closed_form(anisotropic_drifted_h):
    # a drift and an anisotropic A make H asymmetric: the batched Newton
    h, A, B = anisotropic_drifted_h
    for q in ([0.0, 0.0], [1.0, -2.0], [-3.0, 0.5], [2.5, 4.0]):
        d = np.array(q) - B
        res = conjugate(h, q)
        assert res.value == pytest.approx(
            0.25 * d @ np.linalg.solve(A, d), rel=0.0, abs=1e-12)
        np.testing.assert_allclose(res.argmax, 0.5 * np.linalg.solve(A, d),
                                   rtol=0.0, atol=1e-12)


_SHIFTED = {"exp_power_2d": build_kernel("exp_power", 2, {"alpha": 2.0}),
            "compact_2d": build_kernel("compact_uniform", 2, {"rho": 1.0})}


@pytest.mark.parametrize("name", sorted(_SHIFTED))
@settings(max_examples=25, deadline=None)
@given(b=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       q=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
       a=st.sampled_from([0.0, 0.5]))
# at p = 0 DH = B, so |q - DH| = 1e-9 = the drifted solve's stop, and it
# stops there, 4e-9 from the exact maximiser on compact_2d (D^2 H(0) = I/4)
@example(b=(0.0, 1e-9), q=(0.0, 0.0), a=0.0)
def test_drifted_conjugate_is_the_shifted_radial_one(name, b, q, a):
    # with A = a I, H(p) = H_0(p) + B.p, so L(q) = L_0(q - B) with the same
    # maximiser, L_0 solved along the ray of q - B
    k, A, B, q = _SHIFTED[name], a * np.eye(2), np.array(b), np.array(q)
    res = conjugate(Hamiltonian.from_kernel(k, A=A, B=B), q)
    ref = conjugate(Hamiltonian.from_kernel(k, A=A), q - B)
    assert not res.hit_domain_boundary
    assert res.value == pytest.approx(ref.value, rel=1e-12, abs=1e-14)
    # D^2 H >= I / 4 on both kernels, so a point p with |q - DH(p)| = e
    # lies within 4 e of the exact maximiser p*: 4e-9 (1 + |q|) for the
    # drifted solve, which stops at e <= 1e-9 (1 + |q|), and 4 ref.residual
    # for the reference, which has its own error.  Both residuals are
    # computed from a DH rounded to a few ulp of |DH| ~ |q|; the factor 4
    # makes that about 1e-15 (1 + |q|) in p
    qn = np.linalg.norm(q)
    np.testing.assert_allclose(
        res.argmax, ref.argmax, rtol=0.0,
        atol=4e-9 * (1.0 + qn) + 4.0 * ref.residual + 1e-15 * (1.0 + qn))


def test_a_tiny_drift_is_not_dropped():
    # |B| < 1e-8 once passed for B = 0, and L(q) came out as L_0(q)
    k = _SHIFTED["exp_power_2d"]
    B = np.array([0.0, 5e-9])
    h = Hamiltonian.from_kernel(k, B=B)
    assert not h.symmetric
    qs = np.array([[0.0, 1.0], [1.5, -2.0], [-3.0, 0.5]])
    np.testing.assert_allclose(
        Lagrangian(h)(qs), Lagrangian(Hamiltonian.from_kernel(k))(qs - B),
        rtol=0.0, atol=1e-12)


def test_drifted_solve_past_the_edge_ends_on_the_inner_edge():
    # tempered alpha = 1.5: DH stays finite up to |p| = lam = 2, and these
    # q lie past it, so the supremum sits on the edge, in the direction of
    # q - B
    k = build_kernel("tempered_stable", 2, {"alpha": 1.5, "lam": 2.0})
    B = np.array([0.3, -0.2])
    h = Hamiltonian.from_kernel(k, B=B)
    edge = hamiltonian._inner_domain(h.domain)[1]
    for q, ref in (([50.0, 10.0], 93.0541816703),
                   ([500.0, 0.0], 990.981594317)):
        res = conjugate(h, q)
        shifted = conjugate(Hamiltonian.from_kernel(k), np.array(q) - B)
        assert res.hit_domain_boundary and shifted.hit_domain_boundary
        assert res.value == pytest.approx(shifted.value, rel=1e-8, abs=0)
        assert res.value == pytest.approx(ref, rel=1e-11, abs=0)
        assert edge * (1 - 1e-15) <= np.linalg.norm(res.argmax) <= edge
        # the engine takes the maximiser it returns
        h.value(res.argmax)


@pytest.mark.parametrize("q", [[1e200, 0.0], [3e160, -4e160]])
def test_huge_q_keeps_its_norm(q):
    # |q|^2 overflows: the norms of q and of q - DH(p) are taken without
    # squares, on the radial path and in the Newton iteration alike
    k, B = _SHIFTED["compact_2d"], np.array([0.5, -0.3])
    res = conjugate(Hamiltonian.from_kernel(k, B=B), q)
    ref = conjugate(Hamiltonian.from_kernel(k), np.array(q) - B)
    assert math.isfinite(ref.value) and ref.value > 1e160
    assert res.value == pytest.approx(ref.value, rel=1e-12, abs=0)


@pytest.mark.parametrize("q", [[1e250, 1.0], [-3e200, 4e200], [1e300, 1e300]])
def test_newton_backs_off_where_h_overflows(q):
    # H grows like e^{|p|^2/4}: the doubling trust radius steps past
    # |p| = 53, where H overflows, and each such step is halved back
    k, B = _SHIFTED["exp_power_2d"], np.array([0.5, -0.3])
    res = conjugate(Hamiltonian.from_kernel(k, B=B), q)
    ref = conjugate(Hamiltonian.from_kernel(k), np.array(q) - B)
    assert not res.hit_domain_boundary and ref.value > 1e200
    assert res.value == pytest.approx(ref.value, rel=1e-12, abs=0)
    assert res.residual <= 1e-9 * (1.0 + math.hypot(*q))


def test_newton_makes_one_derivatives_call_per_iteration(monkeypatch):
    calls, engine = [], []
    derivatives, jump_moments = (Hamiltonian.derivatives,
                                 hamiltonian._jump_moments)

    def spy(self, P, moments=(1, 2)):
        calls.append((len(P), moments))
        return derivatives(self, P, moments)

    def engine_spy(params, ps, moments, essential):
        engine.append(tuple(moments))
        return jump_moments(params, ps, moments, essential)

    monkeypatch.setattr(Hamiltonian, "derivatives", spy)
    monkeypatch.setattr(hamiltonian, "_jump_moments", engine_spy)
    h = Hamiltonian.from_kernel(build_kernel("exp_power", 2, {"alpha": 2.0}),
                                B=[0.5, -0.3])
    qs = np.array([[0.0, 0.0], [1.0, 0.2], [-3.0, 4.0], [6.0, -1.0],
                   [0.5, -0.3]])
    res = conjugate(h, qs)
    # the iterations on the active rows, then H at the maximisers
    assert calls[-1] == (len(qs), (0,))
    rows = [n for n, moments in calls[:-1]]
    assert {moments for n, moments in calls[:-1]} == {(1, 2)}
    assert len(rows) == res.iterations.max() and rows[0] == len(qs)
    assert sum(rows) == res.iterations.sum()
    assert engine == [(1, 2)] * len(rows) + [(0,)]


@pytest.mark.parametrize("dim,q", [(1, 2.0), (2, [1.5, 0.5])])
def test_l_solve_takes_each_moment_once_per_point(monkeypatch, dim, q):
    # a Newton point takes H' and H'' from one engine call; in 2-D two
    # calls would both integrate |DH| at the same |p|.  H is taken once,
    # for the value at the solution: carrying it at every Newton point
    # costs more than that one call
    seen = []
    engine = hamiltonian._jump_moments

    def spy(params, ps, moments, essential):
        seen.extend((float(p), m) for p in ps for m in moments)
        return engine(params, ps, moments, essential)

    monkeypatch.setattr(hamiltonian, "_jump_moments", spy)
    kernel = build_kernel("exp_power", dim, {"alpha": 2.0})
    res = conjugate(Hamiltonian.from_kernel(kernel), q)
    assert res.iterations > 0 and not res.hit_domain_boundary
    assert len(set(seen)) == len(seen)
    values = [p for p, m in seen if m == 0]
    assert len(values) == 1
    assert values[0] == pytest.approx(float(np.linalg.norm(res.argmax)),
                                      rel=1e-15)


def test_tempered_batch_hits_the_edge_element_by_element():
    # alpha = 0.5: H' stays finite up to the inner edge of dom H = (-1, 1),
    # so q beyond it puts the supremum on the edge
    h = Hamiltonian.from_kernel(build_kernel("tempered_stable", 1,
                                             {"alpha": 0.5, "lam": 1.0}))
    edge = 1.0 - 1e-6
    q_edge = float(h.batch([edge], (1,))[0, 0])
    qs = np.array([0.3, 2.0 * q_edge, -5.0, -3.0 * q_edge, 0.5 * q_edge,
                   10.0 * q_edge])
    L = Lagrangian(h)
    batch = L.result(qs)
    np.testing.assert_array_equal(batch.hit_domain_boundary,
                                  [False, True, False, True, False, True])
    for i, q in enumerate(qs):
        one = L.result(q)
        assert one.hit_domain_boundary == batch.hit_domain_boundary[i]
        assert batch.value[i] == pytest.approx(one.value, rel=1e-12, abs=0)
        assert batch.argmax[i, 0] == pytest.approx(one.argmax[0], rel=1e-12)
    assert np.all(np.abs(batch.argmax[batch.hit_domain_boundary]) == edge)


@pytest.mark.parametrize("lam", [1.722152408750556, 10.286675915261911,
                                 0.5])
def test_solve_past_the_edge_ends_on_the_inner_edge(lam):
    # alpha = 1.5: H' stays finite up to the edge lam of dom H, and q = 50
    # lies past H' there; the boundary hit is the engine's inner edge,
    # lam (1 - 1e-6), which the engine itself accepts
    h = Hamiltonian.from_kernel(build_kernel("tempered_stable", 1,
                                             {"alpha": 1.5, "lam": lam}))
    lo, hi = hamiltonian._inner_domain(h.domain)
    assert (lo, hi) == (-lam * (1 - 1e-6), lam * (1 - 1e-6))
    one = conjugate(h, 50.0)
    assert one.hit_domain_boundary and one.argmax[0] == hi
    assert one.value == 50.0 * hi - h.value(hi)
    many = Lagrangian(h).result(np.array([-50.0, 50.0]))
    assert many.hit_domain_boundary.all()
    np.testing.assert_array_equal(many.argmax[:, 0], [lo, hi])
    assert many.value[1] == one.value


def test_batch_backs_off_where_h_overflows():
    # H'(p) ~ e^{p^2/4}: doubling from 0 overflows H at p = 63 for these
    # q, and each such step is halved back on its own
    h = Hamiltonian.from_kernel(build_kernel("exp_power", 1, {"alpha": 2.0}))
    qs = np.array([1.0, 1e250, -1e200, 5.0])
    L = Lagrangian(h)
    batch = L.result(qs)
    assert not batch.hit_domain_boundary.any()
    for i, q in enumerate(qs):
        one = L.result(q)
        assert batch.value[i] == pytest.approx(one.value, rel=1e-12, abs=0)
        assert batch.residual[i] <= 1e-12 * abs(q) + 1e-10
    assert batch.argmax[1, 0] > 45.0


# engine calls of one L solve from a fresh H at q = -20, -5, -0.5, 0.5, 5
# and 20, every maximiser inside the domain: the point_queries kernels.
# A regression guard: a change to the iteration that moves them re-pins
# them and says why
_BUDGET_QS = (-20.0, -5.0, -0.5, 0.5, 5.0, 20.0)
_BUDGET = [("compact_uniform", {"rho": 1.0}, (7, 7, 6, 6, 7, 7)),
           ("exp_linear", {"alpha": 1.0}, (9, 8, 6, 6, 8, 9)),
           ("exp_power", {"alpha": 2.0}, (7, 6, 6, 6, 6, 7)),
           ("asymmetric_1d_demo", {}, (11, 7, 7, 7, 7, 7)),
           ("tempered_stable", {"alpha": 0.5, "lam": 1.0},
            (14, 11, 6, 6, 11, 14))]


@pytest.mark.parametrize("family,params,calls", _BUDGET,
                         ids=[f for f, _, _ in _BUDGET])
def test_l_solve_engine_calls_are_pinned(family, params, calls):
    # one call at p = 0 for H' and H'', one per iteration, and one for H
    # at the maximiser
    kernel = build_kernel(family, 1, params)
    seen = []
    for q in _BUDGET_QS:
        h = Hamiltonian.from_kernel(kernel)
        res = conjugate(h, q)
        assert not res.hit_domain_boundary
        assert h.params.stats.calls == res.iterations + 2
        seen.append(h.params.stats.calls)
    assert tuple(seen) == calls


@pytest.mark.parametrize("family,params,q,most,edge", [
    ("exp_power", {"alpha": 1.5}, -2e49, 23, False),
    ("compact_uniform", {"rho": 1.0}, 1e300, 20, False),
    ("exp_power", {"alpha": 2.0}, 1e250, 18, False),
    ("super_exp", {}, 1e100, 18, False),
    ("exp_linear", {"alpha": 1.0}, 1e12, 41, True),
    ("tempered_stable", {"alpha": 1.5, "lam": 2.0}, 1e3, 41, True)])
def test_far_l_solves_take_no_more_iterations(family, params, q, most, edge):
    # `most` is what a solve that brackets the root by doubling steps and
    # then takes Newton steps on H' needs.  Past H' at a finite edge the
    # solve halves towards the edge and steps onto it at iteration 41
    res = conjugate(Hamiltonian.from_kernel(build_kernel(family, 1, params)),
                    q)
    assert res.iterations <= most
    assert res.hit_domain_boundary == edge
    if not edge:
        assert res.residual <= 1e-12 * abs(q)


@pytest.mark.parametrize("family,params", [
    ("exp_power", {"alpha": 2.0}), ("exp_power", {"alpha": 1.5}),
    ("super_exp", {}), ("exp_linear", {"alpha": 1.0})])
def test_l_near_zero_scales_with_q(family, params):
    # L(q) ~ q^2 / (2 H''(0)) with maximiser q / H''(0) as q -> 0.  An
    # absolute stop |q - H'(p)| <= 1e-10 once gave exp_power alpha = 2 the
    # same argmax 3.1e-13 and L = -4.4e-26 for every |q| <= 1e-30
    h = Hamiltonian.from_kernel(build_kernel(family, 1, params))
    c0 = float(h.batch([0.0], (2,))[0, 0])
    qs = np.array([1e-300, 1e-30, 1e-16, 1e-12, 1e-10, 2e-10, 1e-8, 1e-6])
    qs = np.concatenate([qs, -qs])
    res = Lagrangian(h).result(qs)
    assert (res.value >= 0.0).all()
    np.testing.assert_allclose(res.argmax[:, 0] * c0 / qs, 1.0, rtol=2e-4)
    # the scalar path agrees
    for q in (1e-30, -2e-10):
        one = conjugate(h, q)
        assert one.value >= 0.0
        assert one.argmax[0] * c0 / q == pytest.approx(1.0, rel=2e-4)


@pytest.mark.parametrize("family,dim,params", [
    ("compact_uniform", 1, {"rho": 1.0}), ("exp_linear", 1, {"alpha": 1.0}),
    ("exp_power", 2, {"alpha": 2.0})])
def test_lagrangian_has_no_history(family, dim, params):
    h = Hamiltonian.from_kernel(build_kernel(family, dim, params))
    q = 0.7 if dim == 1 else np.array([0.6, -0.35])
    cold = Lagrangian(h).result(q)
    L = Lagrangian(h)
    for other in (5.0, -0.2, 30.0, 0.69):
        L(other if dim == 1 else np.array([other, 0.1]))
    warm = L.result(q)
    assert warm.value == cold.value
    assert warm.iterations == cold.iterations
    np.testing.assert_array_equal(warm.argmax, cold.argmax)


def test_call_forms_keep_their_types(compact_h):
    one = conjugate(compact_h, 2.0)
    assert isinstance(one.value, float) and isinstance(one.iterations, int)
    assert isinstance(one.hit_domain_boundary, bool)
    assert one.argmax.shape == (1,)
    many = conjugate(compact_h, [1.0, 2.0, 3.0])
    assert many.value.shape == many.iterations.shape == (3,)
    assert many.argmax.shape == (3, 1)
    assert many.value[1] == pytest.approx(one.value, rel=1e-12)
    h2 = Hamiltonian.from_kernel(build_kernel("compact_uniform", 2,
                                              {"rho": 1.0}))
    assert isinstance(conjugate(h2, [1.0, 0.5]).value, float)
    assert conjugate(h2, [[1.0, 0.5]]).value.shape == (1,)
    with pytest.raises(ValidationError):
        conjugate(h2, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_a_validation_error(compact_h,
                                                gaussian_tail_kernel, bad):
    L = Lagrangian(compact_h)
    h2 = Hamiltonian.from_kernel(build_kernel("compact_uniform", 2,
                                              {"rho": 1.0}))
    for call in (lambda: conjugate(compact_h, bad),
                 lambda: conjugate(h2, [bad, 0.0]),
                 lambda: L([0.5, bad]),
                 lambda: rate_iinf(L, bad, 0.5),
                 lambda: rate_iinf(L, 0.2, bad),
                 lambda: lax_oleinik(L, 1.0, [[0.1], [bad]], 0.5),
                 lambda: lax_oleinik(L, 1.0, 0.1, bad),
                 lambda: k_transform(gaussian_tail_kernel, bad)):
        with pytest.raises(ValidationError):
            call()
