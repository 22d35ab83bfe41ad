import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import exp1, gamma, gammainc, gammaincc

import _quad_oracle as Q
import ldp.kernels as kern
from ldp import (Hamiltonian, NonConvergence, ValidationError, build_kernel,
                 kernel_from_dict, load_kernel, scaled_kernel, tail_reach)
from ldp.kernels import (_FAR, CompactTail, CriticalTail, IntermediateTail,
                         _ray_integrals, _ray_rule, is_essentially_ordered,
                         levy_integral)


def test_compact_uniform_density(compact_kernel):
    k = compact_kernel
    assert k.density(0.3) == pytest.approx(0.5)
    assert k.density(1.5) == 0.0
    assert k.mass == pytest.approx(1.0)
    assert isinstance(k.tail, CompactTail)
    assert k.tail.rho == 1.0
    assert k.rho0 == pytest.approx(0.5)


def test_exp_linear_is_critical(critical_kernel):
    k = critical_kernel
    assert isinstance(k.tail, CriticalTail)
    assert k.tail.beta0 == 1.0
    assert k.p_domain == (-1.0, 1.0)
    assert k.density(2.0) == pytest.approx(0.5 * math.exp(-2.0))
    assert k.mass == pytest.approx(1.0)
    # int min(1, y^2) (1/2) e^{-|y|} dy = 2 - 4/e
    assert levy_integral(k) == pytest.approx(2 - 4 / math.e, rel=1e-9)


def test_exp_power_tail_weight(gaussian_tail_kernel):
    k = gaussian_tail_kernel
    assert isinstance(k.tail, IntermediateTail)
    # omega(r) = -ln J(r) / r = r for alpha = 2
    assert -k.log_density(3.0) / 3.0 == pytest.approx(3.0)
    assert k.density(1.5) == pytest.approx(math.exp(-2.25))


def test_asymmetric_demo_density(demo_kernel):
    k = demo_kernel
    assert not k.symmetric
    assert k.density(-2.0) == pytest.approx(0.5 * math.exp(-2.0))
    assert k.density(0.7) == pytest.approx(0.5)
    assert k.density(1.3) == 0.0
    assert isinstance(k.tail, CriticalTail)
    assert k.tail.beta0 == 1.0


def test_unknown_family_rejected():
    with pytest.raises(ValidationError):
        build_kernel("cauchy", 1, {})


def test_unknown_param_rejected():
    with pytest.raises(ValidationError):
        build_kernel("compact_uniform", 1, {"rho": 1.0, "sigma": 2.0})


def test_missing_required_param_rejected():
    with pytest.raises(ValidationError):
        build_kernel("exp_power", 1, {})


def test_kernel_from_dict_rejects_extra_keys():
    with pytest.raises(ValidationError):
        kernel_from_dict({"family": "compact_uniform",
                          "params": {"rho": 1.0}, "color": "red"})


def test_load_kernel_roundtrip(kernel_spec_path):
    path = kernel_spec_path({"family": "compact_uniform", "dimension": 1,
                             "params": {"rho": 2.0}})
    k = load_kernel(path)
    assert k.family == "compact_uniform"
    assert k.tail.rho == 2.0


def test_scaled_kernel_scales_density(compact_kernel):
    k2 = scaled_kernel(compact_kernel, 0.25)
    assert k2.density(0.3) == pytest.approx(0.125)
    # int min(1, y^2) J = 1/3 for the unit uniform kernel, scaled by 1/4
    assert levy_integral(k2) == pytest.approx(0.25 / 3, rel=1e-9)


@pytest.mark.parametrize("c", [math.inf, math.nan, 0.0, -1.0])
def test_scaled_kernel_requires_a_finite_positive_factor(compact_kernel, c):
    # an infinite c made a kernel of infinite mass whose H failed later
    with pytest.raises(ValidationError):
        scaled_kernel(compact_kernel, c)


def test_tail_reach(compact_kernel, demo_kernel):
    assert tail_reach(compact_kernel) == pytest.approx(1.0)
    # exponential left tail: J(y) = 0.5 e^{-|y|} falls below tol at ln(0.5/tol)
    tol = 1e-16
    assert tail_reach(demo_kernel, tol) == pytest.approx(
        math.log(0.5 / tol), rel=1e-6)


# every family with unbounded support, as radial kernels in 1-D and 2-D
_UNBOUNDED = [("exp_power", {"alpha": 1.5}), ("exp_power", {"alpha": 2.0}),
              ("exp_linear", {"alpha": 1.0}), ("exp_linear", {"alpha": 2.5}),
              ("super_exp", {}),
              ("tempered_stable", {"alpha": 0.5, "lam": 1.0}),
              ("tempered_stable", {"alpha": 1.5, "lam": 2.0})]


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("family,params", _UNBOUNDED)
def test_tail_reach_matches_quad_oracle(family, params, dimension):
    k = build_kernel(family, dimension, params)
    assert tail_reach(k) == Q.tail_reach(k)


def test_tail_reach_of_unit_mass_exp_power_matches_quad_oracle():
    k = build_kernel("exp_power", 1, {"alpha": 2.0})
    unit = scaled_kernel(k, 1.0 / k.mass)
    assert tail_reach(unit) == Q.tail_reach(unit)


def test_tail_reach_super_exp_against_closed_form():
    # the tail of e^{-e^{|y|}} beyond R is 2 E_1(e^R): 1.8e-10 at the rung
    # R = 3, 1.8e-41 at R = 4.5 (quad over [3, 203] found 1.7e-11 at 3)
    k = build_kernel("super_exp", 1)
    assert 2 * exp1(math.exp(3.0)) > 1e-10 > 2 * exp1(math.exp(4.5))
    assert tail_reach(k, 1e-10) == 4.5


def test_super_exp_mass():
    # int e^{-e^{|y|}} dy = 2 int_1^inf e^{-u} / u du = 2 E_1(1)
    k1 = build_kernel("super_exp", 1)
    assert abs(k1.mass / (2 * exp1(1.0)) - 1) <= 1e-13
    k2 = build_kernel("super_exp", 2)
    assert abs(k2.mass / Q.radial_mass(k2) - 1) <= 1e-13


def _upper_gamma(s, x):
    """Gamma(s, x) for non-integer s > -2, by Gamma(s + 1, x) =
    s Gamma(s, x) + x^s e^{-x} below s = 0."""
    if s > 0:
        return gammaincc(s, x) * gamma(s)
    return (_upper_gamma(s + 1, x) - x ** s * math.exp(-x)) / s


def test_levy_integral_of_a_singular_kernel():
    # J = e^{-lam |y|} / |y|^{1 + alpha}: 2 lam^{alpha - 2} gamma(2 - alpha,
    # lam) on |y| < 1, 2 lam^alpha Gamma(-alpha, lam) beyond
    alpha, lam = 1.5, 2.0
    k = build_kernel("tempered_stable", 1, {"alpha": alpha, "lam": lam})
    exact = (2 * lam ** (alpha - 2) * gammainc(2 - alpha, lam)
             * gamma(2 - alpha) + 2 * lam ** alpha * _upper_gamma(-alpha, lam))
    assert levy_integral(k) == pytest.approx(exact, rel=1e-9)


def test_essential_ordering_witness(compact_kernel):
    dipped = build_kernel("compact_custom", 1,
                          {"rho": 1.0, "dip_a": 0.25, "dip_b": 0.5,
                           "dip_factor": 0.5})
    # reduced kernel sits below the full one, strictly on the dip annulus
    ordered, witness = is_essentially_ordered(dipped, compact_kernel)
    assert ordered
    a, b = witness
    assert 0.25 <= a < b <= 0.5
    ordered_rev, _ = is_essentially_ordered(compact_kernel, dipped)
    assert not ordered_rev


def test_essential_ordering_witness_2d():
    full = build_kernel("compact_uniform", 2, {"rho": 1.0})
    dipped = build_kernel("compact_custom", 2,
                          {"rho": 1.0, "dip_a": 0.25, "dip_b": 0.5,
                           "dip_factor": 0.5})
    ordered, witness = is_essentially_ordered(dipped, full)
    assert ordered
    a, b = witness
    assert 0.25 <= a < b <= 0.5
    ordered_rev, _ = is_essentially_ordered(full, dipped)
    assert not ordered_rev


def test_2d_compact_kernel():
    k = build_kernel("compact_uniform", 2, {"rho": 1.0})
    assert k.dimension == 2
    assert k.mass == pytest.approx(1.0)
    # int_{|y|<=1} |y|^2 / pi dy = 1/2
    assert levy_integral(k) == pytest.approx(0.5, rel=1e-8)


# every 1-D family, symmetric but the demo
_ONE_D = [("compact_uniform", {"rho": 1.0}),
          ("compact_custom", {"rho": 1.5, "dip_a": 0.3, "dip_b": 0.8,
                              "dip_factor": 0.25}),
          ("exp_power", {"alpha": 1.5}), ("exp_linear", {"alpha": 2.0}),
          ("super_exp", {}), ("tempered_stable", {"alpha": 0.5, "lam": 1.0}),
          ("asymmetric_1d_demo", {})]


@pytest.mark.parametrize("family,params", _ONE_D)
def test_ray_integrals_build_one_side_of_a_symmetric_kernel(
        family, params, monkeypatch):
    k = build_kernel(family, 1, params)
    builds = []     # one entry per ray refined
    refine = kern._refine

    def spy(k, panels, *args):
        builds.extend(panels.sides)
        return refine(k, panels, *args)

    monkeypatch.setattr(kern, "_refine", spy)
    for n, knots in ((0, (0.0, 1.0, _FAR)), (2, (0.0, 1.0))):
        builds.clear()
        _ray_integrals(k, n, knots)
        assert len(builds) == (1 if k.symmetric else 2)


@pytest.mark.parametrize("family,params", _ONE_D[:-1])
@pytest.mark.parametrize("p_ends", [(0.0,), (-2.0, 2.0), (-1.0, 0.0, 1.0)])
def test_mirrored_rule_equals_both_sides_built(family, params, p_ends):
    k = build_kernel(family, 1, params)
    lo, hi = k.p_domain
    p_ends = tuple(min(max(p, 0.9 * lo), 0.9 * hi) for p in p_ends)
    singular = k.singularity_exponent > 0
    mirrored = _ray_rule(k, (0.0, 0.5, _FAR), singular, p_ends)
    both = _ray_rule(replace(k, symmetric=False), (0.0, 0.5, _FAR),
                     singular, p_ends)
    for a, b in zip(mirrored, both):
        assert np.array_equal(a, b)


def _outcome(f):
    """The arrays f returns, as bytes, or the message of its
    NonConvergence."""
    try:
        return [a.tobytes() for a in f()]
    except NonConvergence as e:
        return str(e)


def _one_ray_at_a_time(k, knots, singular, p_ends):
    """_ray_rule of a 1-D kernel with its rays refined one after the
    other, each alone."""
    ys, ws = [], []
    for side in (1.0, -1.0):
        panels = kern._first_panels(k, knots, singular, (side,))
        y, w = kern._refine(k, panels, p_ends, kern._LOG_TINY + panels.ref)
        ys.append(y)
        ws.append(w)
    return np.concatenate(ys), np.concatenate(ws)


_DEMO = build_kernel("asymmetric_1d_demo", 1)
# two-sided kernels whose rays fail apart: _WIGGLE's ln J swings by 40
# every 3e-4 on y < 0 (too many panels there), _SLOW's also decays too
# slowly for a tail cut on y > 0, and _UNDECLARED's drops by a factor 1e-9
# on (0.3, 0.6), jumps it does not declare (the halving never settles)
_WIGGLE = replace(_DEMO, log_j=lambda y: np.where(
    y < 0, 20 * np.sin(1e4 * y), np.where(y <= 1.0, 0.0, -np.inf)),
    support=(-1.0, 1.0))
_SLOW = replace(_WIGGLE, log_j=lambda y: np.where(
    y < 0, 20 * np.sin(1e4 * y), -1e-9 * y), support=(-1.0, math.inf),
    jumps=())
_UNDECLARED = replace(_DEMO, log_j=lambda y: _DEMO.log_j(y) + np.where(
    (y > 0.3) & (y < 0.6), math.log(1e-9), 0.0))
# the same dip on y < 0: the ray y > 0 settles, and the failure of y < 0
# waits for it
_UNDECLARED_LEFT = replace(_DEMO, log_j=lambda y: _DEMO.log_j(y) + np.where(
    (y < -0.3) & (y > -0.6), math.log(1e-9), 0.0))


@pytest.mark.parametrize("k", [build_kernel(f, 1, p) for f, p in _ONE_D]
                         + [_WIGGLE, _SLOW, _UNDECLARED, _UNDECLARED_LEFT],
                         ids=[f for f, _ in _ONE_D]
                         + ["wiggle", "slow", "undeclared",
                            "undeclared_left"])
@pytest.mark.parametrize("p_ends", [(0.0,), (0.0, 1.0), (-0.5, 0.0),
                                    (-1.0, 0.0, 2.0),
                                    (0.0, 0.999999), (-0.999999, 0.0),
                                    (0.0, 1e6)])
def test_one_loop_equals_each_ray_refined_alone(k, p_ends):
    # the counterpart of test_mirrored_rule_equals_both_sides_built: the
    # same nodes and weights, bit for bit, and the same NonConvergence,
    # the first ray's before the second's
    lo, hi = k.p_domain
    p_ends = tuple(min(max(p, lo * (1 - 1e-9)), hi * (1 - 1e-9))
                   for p in p_ends)
    knots, singular = (0.0, 0.5, _FAR), k.singularity_exponent > 0
    two_sided = replace(k, symmetric=False)     # never mirrored
    joint = _outcome(lambda: _ray_rule(two_sided, knots, singular, p_ends))
    alone = _outcome(lambda: _one_ray_at_a_time(two_sided, knots, singular,
                                                p_ends))
    assert joint == alone


@pytest.mark.parametrize("k,p_ends,message", [
    (_WIGGLE, (0.0, 1.0), "too many panels"),   # only y < 0 fails
    (_SLOW, (0.0,), "no tail cut"),             # y > 0 fails first
    (_UNDECLARED, (0.0, 1.0), "did not settle"),
    (build_kernel("compact_uniform", 1, {"rho": 1.0}), (0.0, 1e6),
     "too many panels"),
    (_UNDECLARED_LEFT, (-1.0, 0.0), "did not settle")])
def test_refinement_limits_raise(k, p_ends, message):
    with pytest.raises(NonConvergence, match=message):
        _ray_rule(k, (0.0, 0.5, _FAR), False, p_ends)


def test_h_at_a_huge_p_needs_too_many_panels(compact_kernel):
    with pytest.raises(NonConvergence, match="too many panels"):
        Hamiltonian.from_kernel(compact_kernel).value(1e6)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 2.0, math.inf, 1.0])
@pytest.mark.parametrize("family,params", [
    ("exp_power", {"alpha": 2.0}), ("compact_uniform", {"rho": 1.0}),
    ("asymmetric_1d_demo", {})])
def test_tail_reach_requires_a_tol_in_the_unit_interval(family, params, tol):
    # on exp_power 0 and -1 raised a bare ValueError, nan NonConvergence,
    # and 2 and inf returned 2.0
    with pytest.raises(ValidationError):
        tail_reach(build_kernel(family, 1, params), tol)
