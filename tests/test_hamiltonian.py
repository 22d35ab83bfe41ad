import math
import time

import numpy as np
import pytest

import ldp.hamiltonian as ham
from ldp import (DomainViolation, Hamiltonian, HamiltonianParams,
                 Lagrangian, ValidationError, build_kernel, eval_h_ess)
from ldp.hamiltonian import (HTable, eval_batch, eval_h, grad_h,
                             hess_quadform)


def test_compact_uniform_closed_form(compact_h):
    for p in [-3.0, -0.7, 0.4, 2.0, 6.0]:
        exact = math.sinh(p) / p - 1.0
        assert compact_h.value(p) == pytest.approx(exact, rel=1e-10)


def test_critical_closed_form(critical_h):
    for p in [-0.9, -0.5, 0.3, 0.8]:
        exact = p * p / (1 - p * p)
        assert critical_h.value(p) == pytest.approx(exact, rel=1e-10)


def test_asymmetric_demo_closed_form(demo_kernel):
    h = Hamiltonian.from_kernel(demo_kernel)
    for p in [-0.9, -0.3, 0.5, 2.0, 5.0]:
        exact = (math.exp(p) / (2 * p) - 1 / (2 * p)
                 + 1 / (2 * (p + 1)) - 1)
        assert h.value(p) == pytest.approx(exact, rel=1e-10)


def test_value_at_zero_and_symmetry(compact_kernel, critical_kernel):
    for k in (compact_kernel, critical_kernel):
        params = Hamiltonian.from_kernel(k).params
        assert abs(eval_h(params, 0.0)) < 1e-12
        # p <= 0 runs at -p on the same rule: H, H'' and H^ess even and H'
        # and the essential gradient odd to the last bit, no rule added
        for ess, moments in ((False, (0, 1, 2)), (True, (0, 1))):
            pos = eval_batch(params, [0.8, 0.3], moments, essential=ess)
            rules = len(params._rules)
            neg = eval_batch(params, [-0.8, -0.3], moments, essential=ess)
            assert len(params._rules) == rules
            odd = np.array([[-1.0 if m == 1 else 1.0] for m in moments])
            assert np.array_equal(neg, odd * pos)


def test_domain_violation_critical(critical_h):
    with pytest.raises(DomainViolation):
        critical_h.value(1.0)
    with pytest.raises(DomainViolation):
        critical_h.value(-1.05)


def test_demo_one_sided_domain(demo_kernel):
    h = Hamiltonian.from_kernel(demo_kernel)
    # finite for arbitrarily large p (bounded right support), blows up at -1
    assert math.isfinite(h.value(30.0))
    with pytest.raises(DomainViolation):
        h.value(-1.0)


def test_quadratic_part_gradient():
    params = HamiltonianParams(kernel=None, A=np.array([[0.5]]))
    for p in [-2.0, 0.3, 4.0]:
        assert grad_h(params, p)[0] == pytest.approx(p)


def test_hessian_quadform_pure_quadratic():
    params = HamiltonianParams(kernel=None, A=np.array([[1.0]]))
    assert hess_quadform(params, 0.7, 1.0) == pytest.approx(2.0)


def test_gradient_matches_finite_difference(compact_h):
    p, eps = 1.2, 1e-6
    fd = (compact_h.value(p + eps) - compact_h.value(p - eps)) / (2 * eps)
    assert compact_h.grad(p)[0] == pytest.approx(fd, rel=1e-7)


def test_h_ess_values(compact_kernel, critical_kernel):
    pc = HamiltonianParams(kernel=compact_kernel)
    # integral of 1/2 over 0.25 < |y| < 1
    assert eval_h_ess(pc, 0.0) == pytest.approx(0.75, rel=1e-10)
    pe = HamiltonianParams(kernel=critical_kernel)
    # integral of (1/2) e^{-|y|} over |y| > 1/2
    assert eval_h_ess(pe, 0.0) == pytest.approx(math.exp(-0.5), rel=1e-10)


def test_h_ess_moment_is_derivative(compact_kernel):
    params = HamiltonianParams(kernel=compact_kernel)
    p, eps = 2.0, 1e-6
    fd = (eval_h_ess(params, p + eps) - eval_h_ess(params, p - eps)) / (2 * eps)
    assert eval_h_ess(params, p, moment=1) == pytest.approx(fd, rel=1e-7)


def test_growth_dominated_by_gradient(compact_kernel):
    # H^ess(p) / (p DH^ess(p)) shrinks as |p| grows
    params = HamiltonianParams(kernel=compact_kernel)
    ratios = [eval_h_ess(params, p) / (p * eval_h_ess(params, p, moment=1))
              for p in (10.0, 20.0)]
    assert ratios[1] < ratios[0] < 0.5


def test_local_terms_add(compact_kernel):
    base = Hamiltonian.from_kernel(compact_kernel)
    full = Hamiltonian.from_kernel(compact_kernel, A=np.array([[1.0]]),
                                   B=np.array([0.5]))
    p = 1.7
    assert full.value(p) == pytest.approx(base.value(p) + p * p + 0.5 * p,
                                          rel=1e-10)


def test_params_validation(compact_kernel):
    with pytest.raises(ValidationError):
        HamiltonianParams(kernel=compact_kernel, A=np.array([[-1.0]]))
    with pytest.raises(ValidationError):
        HamiltonianParams(kernel=compact_kernel, B=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        HamiltonianParams(kernel=compact_kernel, A=np.array([[math.inf]]))
    with pytest.raises(ValidationError):
        HamiltonianParams(kernel=compact_kernel, B=np.array([math.nan]))


def test_2d_radial_reduction():
    from ldp import build_kernel
    k2 = build_kernel("compact_uniform", 2, {"rho": 1.0})
    h2 = Hamiltonian.from_kernel(k2)
    v_x = h2.value(np.array([1.5, 0.0]))
    v_rot = h2.value(np.array([1.5 / math.sqrt(2), 1.5 / math.sqrt(2)]))
    assert v_x == pytest.approx(v_rot, rel=1e-8)
    assert v_x > 0


def test_point_length_must_match_dimension(compact_kernel):
    from ldp import build_kernel
    p1 = HamiltonianParams(kernel=compact_kernel)
    p2 = HamiltonianParams(kernel=build_kernel("compact_uniform", 2,
                                               {"rho": 1.0}))
    for params, p in ((p2, 2.0), (p2, [1.0, 2.0, 3.0]), (p1, [1.0, 2.0])):
        for call in (lambda: eval_h(params, p), lambda: grad_h(params, p),
                     lambda: hess_quadform(params, p, p),
                     lambda: eval_h_ess(params, p)):
            with pytest.raises(ValidationError):
                call()


def test_non_finite_p_rejected(compact_h):
    # the 2-D scalar operations check their point as the 1-D ones do, and
    # hess_quadform its direction in both dimensions
    p2 = HamiltonianParams(kernel=build_kernel("compact_uniform", 2,
                                               {"rho": 1.0}))
    for bad in (math.nan, math.inf, -math.inf):
        for call in (lambda: compact_h.value(bad),
                     lambda: compact_h.hess_quadform(0.5, bad),
                     lambda: eval_h(p2, [bad, 0.0]),
                     lambda: grad_h(p2, [0.5, bad]),
                     lambda: eval_h_ess(p2, [bad, bad]),
                     lambda: hess_quadform(p2, [bad, 0.0], [1.0, 0.0]),
                     lambda: hess_quadform(p2, [0.5, 0.0], [bad, 0.0])):
            with pytest.raises(ValidationError):
                call()


@pytest.mark.parametrize("name", ["compact_kernel", "demo_kernel"])
def test_batch_of_both_signs_runs_as_its_halves(name, request, monkeypatch):
    builds = []
    rule = ham._rule

    def spy(params, p_lo, p_hi, essential):
        builds.append((p_lo, p_hi))
        return rule(params, p_lo, p_hi, essential)

    monkeypatch.setattr(ham, "_rule", spy)
    kernel = request.getfixturevalue(name)
    ps = np.array([0.7, -0.4, 0.0, 2.5, -0.9, 1.1])
    neg = ps < 0
    for ess, moments in ((False, (0, 1, 2)), (True, (0, 1))):
        params = HamiltonianParams(kernel=kernel)
        both = eval_batch(params, ps, moments, essential=ess)
        halves = np.empty_like(both)
        halves[:, neg] = eval_batch(params, ps[neg], moments, essential=ess)
        halves[:, ~neg] = eval_batch(params, ps[~neg], moments,
                                     essential=ess)
        assert np.array_equal(both, halves)
        # each rule covers p of one sign, keyed by one signed rung
        assert all(len(key) == 2 for key in params._rules)
    assert builds and all(min(p_lo, p_hi) == 0.0 or max(p_lo, p_hi) == 0.0
                          for p_lo, p_hi in builds)


def test_one_rule_per_octave(compact_kernel, monkeypatch):
    builds = []
    rule = ham._rule

    def spy(params, p_lo, p_hi, essential):
        builds.append((p_lo, p_hi))
        return rule(params, p_lo, p_hi, essential)

    monkeypatch.setattr(ham, "_rule", spy)
    params = Hamiltonian.from_kernel(compact_kernel).params
    # 1.1, 1.5 and 1.9 lie in one octave: H, H' and H'' share its rule
    for p in (1.1, 1.5, 1.9):
        eval_h(params, p)
        grad_h(params, p)
        hess_quadform(params, p, 1.0)
    assert builds == [(0.0, 2.0)]
    # -p of a symmetric kernel runs on the rule of p
    eval_h(params, -1.5)
    assert len(builds) == 1
    # 2.2 p is past the octave of p
    eval_h(params, 2.2 * 1.5)
    assert builds[1:] == [(0.0, 4.0)]
    # a table over [-P, P] of a symmetric kernel takes the rule of P
    HTable(Hamiltonian.from_params(params), np.linspace(-3.5, 3.5, 201))
    assert len(builds) == 2


# the kernels of the point-query benchmark, in 1-D and 2-D
_POINT_QUERY_KERNELS = [
    ("compact_uniform", 1, {"rho": 1.0}), ("exp_linear", 1, {"alpha": 1.0}),
    ("exp_power", 1, {"alpha": 2.0}), ("asymmetric_1d_demo", 1, {}),
    ("tempered_stable", 1, {"alpha": 0.5, "lam": 1.0}),
    ("compact_uniform", 2, {"rho": 1.0}), ("exp_power", 2, {"alpha": 2.0})]


def _ladder(k):
    """Rungs of the engine's ladder: 0, octaves 2^j and edge (1 - 2^-j)
    below a finite domain edge, of both signs in 1-D."""
    lo, hi = k.p_domain
    rungs = [0.0]
    sides = ((1.0, hi), (-1.0, -lo)) if k.dimension == 1 else ((1.0, hi),)
    for sign, edge in sides:
        rungs += [sign * 2.0 ** j for j in range(-8, 6) if 2.0 ** j < edge]
        if math.isfinite(edge):
            rungs += [sign * edge * (1 - 2.0 ** -j) for j in (1, 3, 8, 19)]
    return rungs


def _as_bytes(part):
    """Every array and number of a rule, as bytes."""
    if isinstance(part, (tuple, list)):
        return [b for p in part for b in _as_bytes(p)]
    return [np.asarray(part).tobytes()]


@pytest.mark.parametrize("family,dimension,params", _POINT_QUERY_KERNELS,
                         ids=[f"{f}_{d}d" for f, d, _ in _POINT_QUERY_KERNELS])
def test_a_rule_built_warm_equals_one_built_cold(family, dimension, params):
    # the first panels a Hamiltonian keeps serve its later rules, which
    # equal the rules of a fresh Hamiltonian bit for bit
    k = build_kernel(family, dimension, params)
    warm = HamiltonianParams(kernel=k)
    for rung in _ladder(k):
        for essential in (False, True):
            cold = HamiltonianParams(kernel=k)
            ends = (min(rung, 0.0), max(rung, 0.0), essential)
            assert _as_bytes(ham._rule(warm, *ends)) == _as_bytes(
                ham._rule(cold, *ends))
    # one set of first panels per essential flag, and per mirrored rule
    assert 2 <= len(warm._panels) <= 4


def test_engine_stats_count_what_a_spy_sees(monkeypatch):
    built, calls = [], []
    rule, one_signed = ham._rule, ham._one_signed

    def rule_spy(*args):
        out = rule(*args)
        built.append(out[0].size)
        return out

    def call_spy(params, ps, *args):
        calls.append(ps.size)
        return one_signed(params, ps, *args)

    monkeypatch.setattr(ham, "_rule", rule_spy)
    monkeypatch.setattr(ham, "_one_signed", call_spy)
    h = Hamiltonian.from_kernel(build_kernel("exp_power", 1, {"alpha": 2.0}))
    stats = h.params.stats
    assert (stats.rule_builds, stats.rule_hits, stats.build_s) == (0, 0, 0.0)
    assert stats.calls == 0

    def agrees():
        assert stats.rule_nodes == built
        assert stats.rule_builds == len(built)
        assert stats.rule_hits == len(calls) - len(built)
        assert stats.calls == len(calls)

    start = time.perf_counter()
    Lagrangian(h)(1.5)                  # a cold L solve
    agrees()
    assert stats.rule_builds >= 1
    builds, hits = stats.rule_builds, stats.rule_hits
    for p in (5.0, 5.5, 6.0, 7.5):      # one rung, 8, unseen by the solve
        h.value(p)
    agrees()
    assert (stats.rule_builds, stats.rule_hits) == (builds + 1, hits + 3)
    h.value(12.0)                       # a second rung, 16
    h.value(-12.0)                      # on the rule of 12
    agrees()
    assert (stats.rule_builds, stats.rule_hits) == (builds + 2, hits + 4)
    eval_h_ess(h.params, 1.5)           # the essential rule of rung 2
    agrees()
    assert stats.rule_builds == builds + 3
    assert 0.0 < stats.build_s < time.perf_counter() - start


# every symmetric 1-D family; the uncompensated form where it exists
_SYMMETRIC_1D = [
    ("compact_uniform", {"rho": 1.0}), ("compact_custom", {
        "rho": 1.5, "dip_a": 0.3, "dip_b": 0.8, "dip_factor": 0.25}),
    ("exp_power", {"alpha": 1.5}), ("exp_linear", {"alpha": 2.0}),
    ("super_exp", {}), ("tempered_stable", {"alpha": 0.5, "lam": 1.0}),
    ("tempered_stable", {"alpha": 1.5, "lam": 2.0})]
_FORMS = [(family, params, compensated) for family, params in _SYMMETRIC_1D
          for compensated in (True, False)
          if compensated or family != "tempered_stable"
          or params["alpha"] < 1.0]
_FORM_IDS = [f"{family}{params.get('alpha', '')}-"
             f"{'compensated' if compensated else 'uncompensated'}"
             for family, params, compensated in _FORMS]


@pytest.mark.parametrize("family,params,compensated", _FORMS,
                         ids=_FORM_IDS)
def test_small_p_derivatives_of_symmetric_kernels(family, params,
                                                  compensated):
    # H integrates J (e^{py} - 1 - p y) and H' y J (e^{py} - 1), each plus
    # a multiple of the first moment of J, 0 here: H'(0) is 0, and H'(p) /
    # (p H''(0)) and H(p) / (p^2 H''(0) / 2) tend to 1 down to the
    # smallest p, on the scalar path and in one batch with a large p
    h = Hamiltonian.from_kernel(build_kernel(family, 1, params),
                                compensated=compensated)
    zero = eval_batch(h.params, [0.0], (0, 1, 2))[:, 0]
    assert zero[0] == 0.0 and zero[1] == 0.0
    assert np.all(h.grad(0.0) == 0.0)
    ps = np.logspace(-300, -8, 30)
    ps = np.concatenate([ps, -ps])
    batch = eval_batch(h.params, np.append(ps, 0.5), (0, 1))[:, :-1]
    for p, v, d in zip(ps, *batch):
        scalar = eval_batch(h.params, [p], (0, 1))[:, 0]
        assert scalar[1] / (p * zero[2]) == pytest.approx(1.0, rel=1e-12)
        assert d / (p * zero[2]) == pytest.approx(1.0, rel=1e-12)
        for value in (scalar[0], v):
            assert value >= 0.0
            if p * p > 1e-290:      # H itself above the subnormals
                assert value / (0.5 * p * p * zero[2]) == pytest.approx(
                    1.0, rel=1e-12)


@pytest.mark.parametrize("family,params,compensated", _FORMS,
                         ids=_FORM_IDS)
def test_lagrangian_is_nonnegative_near_zero(family, params, compensated):
    h = Hamiltonian.from_kernel(build_kernel(family, 1, params),
                                compensated=compensated)
    qs = np.logspace(-300, -6, 50)
    res = Lagrangian(h).result(np.concatenate([qs, -qs]))
    assert (res.value >= 0.0).all()
