import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldp import (BelowRange, DomainViolation, Hamiltonian, Lagrangian,
                 TabulatedLagrangian, UnsupportedKernel, ValidationError,
                 build_kernel, conjugate, k_inverse, k_transform)
from ldp import hamiltonian


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
        assert compact_h.grad_1d(p0) == pytest.approx(q, rel=1e-7)


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


def test_tabulated_matches_exact(compact_h):
    L = Lagrangian(compact_h)
    Lt = TabulatedLagrangian(compact_h, q_max=50.0)
    for q in [-40.0, -3.0, 0.3, 7.0, 45.0]:
        assert Lt(q) == pytest.approx(L(q), rel=1e-4, abs=1e-6)


def test_tabulated_raises_beyond_its_range(compact_h):
    Lt = TabulatedLagrangian(compact_h, q_max=8.5)
    assert Lt(8.5) == pytest.approx(Lagrangian(compact_h)(8.5), rel=1e-4)
    for q in (9.5, -9.5, 50.0):
        with pytest.raises(DomainViolation):
            Lt(q)


def test_k_transform_compact(compact_kernel):
    res = k_transform(compact_kernel, 3.0)
    assert res.value == pytest.approx(3.0)   # rho * |p| with rho = 1
    assert res.argmax[0] == pytest.approx(1.0)


def test_k_transform_gaussian_tail(gaussian_tail_kernel):
    # omega(r) = r so K(p) = sup_r (p r - r^2) = p^2 / 4
    res = k_transform(gaussian_tail_kernel, 5.0)
    assert res.value == pytest.approx(6.25, rel=1e-6)


def test_k_transform_rejects_critical_and_asymmetric(critical_kernel,
                                                     demo_kernel):
    with pytest.raises(UnsupportedKernel):
        k_transform(critical_kernel, 1.0)
    with pytest.raises(UnsupportedKernel):
        k_transform(demo_kernel, 1.0)


def test_k_inverse_families(compact_kernel, critical_kernel,
                            gaussian_tail_kernel):
    assert k_inverse(compact_kernel, 7.0) == 7.0
    assert k_inverse(critical_kernel, 7.0) == 1.0
    assert k_inverse(gaussian_tail_kernel, 4.0) == pytest.approx(4.0,
                                                                 abs=1e-6)


def test_k_inverse_below_range(compact_kernel):
    with pytest.raises(BelowRange):
        k_inverse(compact_kernel, -1.0)


def test_k_inverse_roundtrip(gaussian_tail_kernel):
    for z in [0.5, 2.0, 20.0]:
        r = k_inverse(gaussian_tail_kernel, z)
        back = k_transform(gaussian_tail_kernel, r).value
        assert back == pytest.approx(z, rel=1e-6)


def test_tabulated_rejects_2d():
    k2 = build_kernel("compact_uniform", 2, {"rho": 1.0})
    h2 = Hamiltonian.from_kernel(k2)
    with pytest.raises(ValidationError):
        TabulatedLagrangian(h2, q_max=10.0)


def test_asymmetric_2d_conjugate_matches_closed_form(anisotropic_drifted_h):
    # a drift and an anisotropic A make H asymmetric: the N-D Newton solve
    h, A, B = anisotropic_drifted_h
    for q in ([0.0, 0.0], [1.0, -2.0], [-3.0, 0.5], [2.5, 4.0]):
        d = np.array(q) - B
        res = conjugate(h, q)
        assert res.value == pytest.approx(
            0.25 * d @ np.linalg.solve(A, d), rel=0.0, abs=1e-12)
        np.testing.assert_allclose(res.argmax, 0.5 * np.linalg.solve(A, d),
                                   rtol=0.0, atol=1e-12)


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
