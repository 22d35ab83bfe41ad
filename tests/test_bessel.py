"""The Bessel factors of the 2-D H engine: the switch point and the term
counts against the truncation bound stated in `ldp.hamiltonian`, J I_0,
J (I_0 - 1) and J I_1(x)/x against mpmath and scipy.special, and the 2-D H,
|DH|, curvature and H^ess of every radial family against the same engine
with scipy's Bessel functions in its place."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import i0e, i1e

import ldp.hamiltonian as ham
from ldp import Hamiltonian, build_kernel
from ldp.hamiltonian import eval_batch

U = 2.0 ** -53
ULPS = 6        # the bound the module docstring states
RADIAL = {
    "compact_uniform": ({"rho": 1.0}, 20.0),
    "compact_custom": ({"rho": 1.5, "dip_a": 0.3, "dip_b": 0.8,
                        "dip_factor": 0.25}, 20.0),
    "exp_power": ({"alpha": 1.5}, 12.0),
    "exp_linear": ({"alpha": 2.0}, None),
    "super_exp": ({}, 20.0),
    "tempered_stable": ({"alpha": 0.5, "lam": 1.0}, None),
    "tempered_stable_15": ({"alpha": 1.5, "lam": 2.0}, None),
}


def _hankel_bound(x, nu, m):
    """The stated bound on the remainder of the Hankel expansion of I_nu
    after m terms, relative to e^x (2 pi x)^{-1/2}."""
    a = 1.0
    for j in range(1, m + 1):
        a *= (4 * nu * nu - (2 * j - 1) ** 2) / (8 * j)
    chi = math.sqrt(math.pi) * math.exp(math.lgamma(m / 2 + 1)
                                        - math.lgamma(m / 2 + 0.5))
    return (2 * chi * math.exp(abs(nu * nu - 0.25) / x) * abs(a) * x ** -m
            + math.exp(-2 * x))


def _hankel_terms(x, nu):
    """The fewest terms whose bound is below u, or None if the terms start
    to grow first."""
    for m in range(1, 200):
        if _hankel_bound(x, nu, m) <= U:
            return m
        if _hankel_bound(x, nu, m + 1) > _hankel_bound(x, nu, m):
            return None
    return None


def _series_terms(x, first):
    """The fewest terms K of sum_k t^k / (k! (k + first)!), t = x^2/4,
    whose tail bound is below u of the sum of the K terms."""
    t = x * x / 4
    for K in range(1, 200):
        c = [t ** k / (math.factorial(k) * math.factorial(k + first))
             for k in range(K + 1)]
        ratio = t / ((K + 1) * (K + 1 + first))
        if ratio < 1 and c[K] / (1 - ratio) <= U * sum(c[:K]):
            return K
    raise AssertionError("no term count")


def test_switch_point_and_term_counts_follow_from_the_bound():
    switch = next(x for x in range(1, 100)
                  if all(_hankel_terms(x, nu) for nu in (0, 1)))
    assert switch == ham._X_SWITCH
    assert max(_hankel_terms(switch, nu) for nu in (0, 1)) \
        == ham._HANKEL_TERMS
    # I_0 (first = 0) and 2 I_1 / x (first = 1) share one table
    assert max(_series_terms(switch, first) for first in (0, 1)) \
        == ham._SERIES_TERMS


def _grid():
    """A log-spaced grid over [1e-300, 1e4] and the switch point, give or
    take four ulp."""
    xs = list(np.logspace(-300, 4, 601))
    x = ham._X_SWITCH
    for _ in range(4):
        x = math.nextafter(x, 0.0)
    for _ in range(9):
        xs.append(x)
        x = math.nextafter(x, math.inf)
    return np.array(xs)


def _engine_factors(xs):
    """J I_0, J (I_0 - 1) and J I_1(x)/x at every x from one radius r = 1,
    each x on the tables of its own rung, as a scalar call would; J = 1
    where e^x is finite, else J = e^{-floor(x)} (returned as ln J)."""
    lj = np.where(xs < 700.0, 0.0, -np.floor(xs))
    out = np.empty((3, xs.size))
    for i, (x, l) in enumerate(zip(xs, lj)):
        y, jv = np.array([1.0]), np.exp([l])
        tables = ham._bessel_rule(y, np.array([l]), jv,
                                  ham._rung(x, math.inf))
        i0m1, i1x = ham._bessel_parts(np.array([[x]]), tables)[:, 0, 0]
        out[:, i] = jv[0] + i0m1, i0m1, i1x
    return out, lj


def _ulps(value, ref):
    """|value - ref| in units of the spacing at the float nearest ref."""
    r = float(ref)
    return abs(value - r) / np.spacing(abs(r))


def test_bessel_factors_match_mpmath():
    xs = _grid()
    got, lj = _engine_factors(xs)
    worst = 0.0
    with mpmath.workdps(40):
        for x, l, values in zip(xs, lj, got.T):
            X, J = mpmath.mpf(float(x)), mpmath.exp(float(l))
            # below x = 1, I_0 - 1 from its series, free of the cancellation
            t = X * X / 4
            i0m1 = (mpmath.besseli(0, X) - 1 if x >= 1 else mpmath.nsum(
                lambda k: t ** k / mpmath.factorial(k) ** 2, [1, mpmath.inf]))
            refs = (J * (1 + i0m1), J * i0m1,
                    J * mpmath.besseli(1, X) / X)
            for value, ref in zip(values, refs):
                if abs(ref) < np.finfo(float).tiny:     # below the normal
                    assert abs(value) < 2 * np.finfo(float).tiny
                    continue
                worst = max(worst, _ulps(value, ref))
    assert worst <= ULPS, worst


def test_bessel_factors_match_scipy():
    xs = _grid()
    got, lj = _engine_factors(xs)
    # J I_0 and J I_1 / x from scipy's scaled functions: within the two
    # bounds (scipy's own is 8 ulp); J (I_0 - 1) has no scipy counterpart
    e = np.exp(xs + lj)
    np.testing.assert_allclose(got[0], e * i0e(xs), rtol=16 * U, atol=0)
    np.testing.assert_allclose(got[2], e * i1e(xs) / xs, rtol=16 * U,
                               atol=0)


def _scipy_parts(p, tables):
    """_bessel_parts from scipy's i0e and i1e: J (I_0 - 1), with I_0 - 1
    from its series below x = 0.5, and J I_1(x)/x (J/2 at x = 0)."""
    y, lj, jv = tables[-3:]
    x = p * y
    e = np.exp(x + lj)
    t = x * x / 4
    series = sum(t ** k / math.factorial(k) ** 2 for k in range(1, 10))
    i0m1 = np.where(x < 0.5, jv * series, e * i0e(x) - jv)
    xs = np.where(x > 0, x, 1.0)
    i1x = np.where(x > 0, e * i1e(x) / xs, 0.5 * jv)
    return np.array([i0m1, i1x])


@pytest.mark.parametrize("name", sorted(RADIAL))
def test_radial_values_match_scipy_bessel_functions(name, monkeypatch):
    params, cap = RADIAL[name]
    family = "tempered_stable" if name.startswith("tempered") else name
    kernel = build_kernel(family, 2, params)
    hi = Hamiltonian.from_kernel(kernel).domain[1]
    radii = np.linspace(0.0, 0.99 * hi if math.isfinite(hi) else cap, 200)

    def values():
        h = Hamiltonian.from_kernel(kernel)
        return np.vstack([eval_batch(h.params, radii, (0, 1, 2)),
                          eval_batch(h.params, radii, (0, 1), True)])

    ours = values()
    monkeypatch.setattr(ham, "_bessel_parts", _scipy_parts)
    ref = values()
    assert np.all(np.abs(ours - ref) <= 1e-14 * np.abs(ref)), np.max(
        np.abs(ours - ref) / np.abs(ref))
