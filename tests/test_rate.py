import math

import numpy as np
import pytest

from ldp import (Hamiltonian, Lagrangian, ValidationError, build_kernel,
                 lax_oleinik, predict_log_bound, rate_iinf)


@pytest.fixture(scope="module")
def compact_L(compact_h):
    return Lagrangian(compact_h)


def test_rate_is_min_over_boundary(compact_L):
    x, t = 0.3, 0.5
    res = rate_iinf(compact_L, x, t)
    expected = min(t * compact_L((x - 1.0) / t), t * compact_L((x + 1.0) / t))
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.minimizing_boundary_point[0] == 1.0
    assert res.regime == "compact"


def test_rate_symmetric_in_x(compact_L):
    a = rate_iinf(compact_L, 0.4, 1.0).value
    b = rate_iinf(compact_L, -0.4, 1.0).value
    assert a == pytest.approx(b, rel=1e-12)


def test_rate_validation(compact_L):
    with pytest.raises(ValidationError):
        rate_iinf(compact_L, 1.5, 1.0)
    with pytest.raises(ValidationError):
        rate_iinf(compact_L, 0.0, 0.0)


def test_rate_nonincreasing_in_t(compact_L):
    # for fixed x the value t L(d/t) does not increase with t
    vals = [rate_iinf(compact_L, 0.2, t).value for t in (0.25, 0.5, 1.0, 2.0)]
    assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_scaled_lagrangian_slope_monotone(compact_L):
    # r -> L(c r) / r is non-decreasing (the comparison-principle premise)
    c = 2.0
    rs = np.logspace(-2, 3, 12)
    vals = [compact_L(c * r) / r for r in rs]
    assert all(v1 <= v2 + 1e-10 * max(1, v2)
               for v1, v2 in zip(vals, vals[1:]))


def test_lax_oleinik_caps_at_A(compact_L):
    x, t = 0.0, 0.25
    free = rate_iinf(compact_L, x, t).value
    assert lax_oleinik(compact_L, 1e9, x, t).value == pytest.approx(free)
    capped = lax_oleinik(compact_L, 0.5, x, t)
    assert capped.value == pytest.approx(min(0.5, free))


def test_predict_log_bound_formulas(compact_kernel, critical_kernel,
                                    gaussian_tail_kernel):
    R, theta = 16.0, 0.25
    assert predict_log_bound(compact_kernel, R, theta) == pytest.approx(
        (1 - theta) * R * math.log(R))
    assert predict_log_bound(critical_kernel, R, theta) == pytest.approx(
        (1 - theta) * R)
    # intermediate: (1-theta) R Kinv(ln((1-theta) R / t)), Kinv(z) = 2 sqrt(z)
    expected = (1 - theta) * R * 2 * math.sqrt(math.log((1 - theta) * R))
    assert predict_log_bound(gaussian_tail_kernel, R, theta) == pytest.approx(
        expected, rel=1e-6)


def test_predict_log_bound_validation(compact_kernel, critical_kernel):
    with pytest.raises(ValidationError):
        predict_log_bound(compact_kernel, 16.0, theta=1.0)
    with pytest.raises(ValidationError):
        predict_log_bound(compact_kernel, 0.5)
    for kernel in (compact_kernel, critical_kernel):
        for R, t in ((math.nan, 1.0), (math.inf, 1.0), (16.0, math.nan),
                     (16.0, math.inf)):
            with pytest.raises(ValidationError):
                predict_log_bound(kernel, R, t=t)


def test_rate_2d_symmetric():
    k2 = build_kernel("compact_uniform", 2, {"rho": 1.0})
    L2 = Lagrangian(Hamiltonian.from_kernel(k2))
    x = np.array([0.3, 0.0])
    res = rate_iinf(L2, x, 1.0)
    assert res.regime == "compact"
    assert np.linalg.norm(res.minimizing_boundary_point) == pytest.approx(
        1.0, rel=1e-6)
    # nearest boundary point lies along +x
    assert res.minimizing_boundary_point[0] == pytest.approx(1.0, rel=1e-4)
    assert res.value > 0


def test_asymmetric_2d_rate_matches_angular_brute_force(
        anisotropic_drifted_h):
    # no nearest-point formula for an asymmetric L: the angular sweep and
    # its golden refinement against the closed-form L on 200,001 angles
    h, A, B = anisotropic_drifted_h
    th = np.linspace(0.0, 2 * math.pi, 200_001)
    ys = np.stack([np.cos(th), np.sin(th)], axis=1)
    L = Lagrangian(h)
    for x, t in (([0.2, -0.3], 0.5), ([0.0, 0.0], 1.0), ([-0.6, 0.5], 0.3)):
        d = (np.array(x) - ys) / t - B
        brute = float(np.min(
            0.25 * t * np.einsum("ij,jk,ik->i", d, np.linalg.inv(A), d)))
        res = rate_iinf(L, x, t)
        assert res.value == pytest.approx(brute, rel=0.0, abs=1e-9)
        y = res.minimizing_boundary_point
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("B,x,t,ref", [
    ((0.1, 0.0), (0.0, 0.0), 1.0, 0.248463055),
    ((0.1, 0.0), (0.2, 0.1), 0.5, 0.385954937),
    ((0.1, 0.0), (0.5, 0.0), 1.0, 0.112618456),
    ((0.5, -0.3), (0.0, 0.0), 1.0, 0.054851877),
    ((0.5, -0.3), (0.2, 0.1), 0.5, 0.323513362),
    ((0.5, -0.3), (0.5, 0.0), 1.0, 0.152386398)])
def test_drifted_2d_rate_matches_the_shifted_reference(B, x, t, ref):
    # references: min over the boundary angle of t L_0((x - y)/t - B), L_0
    # the radial conjugate, on 4,096 angles refined by bounded Brent
    k = build_kernel("exp_power", 2, {"alpha": 2.0})
    res = rate_iinf(Lagrangian(Hamiltonian.from_kernel(k, B=B)), x, t)
    assert res.value == pytest.approx(ref, rel=0.0, abs=1e-8)
