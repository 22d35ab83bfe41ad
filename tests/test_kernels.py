import math

import numpy as np
import pytest

from ldp import (ValidationError, build_kernel, kernel_from_dict,
                 load_kernel, scaled_kernel, tail_reach)
from ldp.kernels import (CompactTail, CriticalTail, IntermediateTail,
                         is_essentially_ordered, levy_integral)


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


def test_tail_reach(compact_kernel, demo_kernel):
    assert tail_reach(compact_kernel) == pytest.approx(1.0)
    # exponential left tail: J(y) = 0.5 e^{-|y|} falls below tol at ln(0.5/tol)
    tol = 1e-16
    assert tail_reach(demo_kernel, tol) == pytest.approx(
        math.log(0.5 / tol), rel=1e-6)


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


def test_2d_compact_kernel():
    k = build_kernel("compact_uniform", 2, {"rho": 1.0})
    assert k.dimension == 2
    assert k.mass == pytest.approx(1.0)
    # int_{|y|<=1} |y|^2 / pi dy = 1/2
    assert levy_integral(k) == pytest.approx(0.5, rel=1e-8)
