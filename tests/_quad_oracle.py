"""Adaptive-quadrature oracle for the 1-D jump integrals of H.

This is the scalar evaluator `ldp.hamiltonian` used before its batched
Gauss-Legendre engine: one p at a time, scipy's adaptive `quad` over a
Python integrand, split at delta, at |y| = 1 and at the support edges,
with the substitution y = u^2 near the origin for singular kernels and
geometric panels out to a tail cut.  It reads only the kernel's density
and log-density, so it checks the engine's panel rule, not the kernel.

    moment 0: int (e^{py} - 1 - p y 1_{|y|<1}) J(y) dy   (H)
    moment 1: int y (e^{py} - 1_{|y|<1}) J(y) dy         (H')
    moment 2: int y^2 e^{py} J(y) dy                      (H'')

(the compensator terms drop for uncompensated kernels), and
h_ess(kernel, p, m) = int_{|y| > rho0/2} y^m e^{py} J(y) dy.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

_EPSREL = 1e-12
_LIMIT = 500


def _quad(f, a, b):
    if a >= b:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(f, a, b, epsabs=1e-300, epsrel=_EPSREL, limit=_LIMIT)
    assert math.isfinite(val), f"quadrature returned {val} on [{a}, {b}]"
    return val


def _quad_geom(f, a, b):
    """[a, b] (same sign) in panels whose end points differ by a factor 2."""
    total = 0.0
    if a > 0:
        while a < b:
            total += _quad(f, a, min(2 * a, b))
            a = min(2 * a, b)
    else:
        while b > a:
            total += _quad(f, max(2 * b, a), b)
            b = max(2 * b, a)
    return total


def _exp_term(kernel, p, y):
    """e^{p y} J(y), formed in log space."""
    t = p * y + float(kernel.log_density_1d(y))
    assert t < 709.0, "e^{py} J(y) overflows"
    return math.exp(t) if t > -745.0 else 0.0


def _tail_cut(kernel, p, side, tol=1e-20):
    """|y| beyond which e^{py} J(y) y^2 has a tail integral below tol."""
    f = kernel.log_density_1d
    M = max(4.0, 2 * kernel.rho0)
    while M < 1e9:
        y = side * M
        t = p * y + float(f(y)) + 2 * math.log(M)
        y2 = y + side * 0.01 * M
        t2 = p * y2 + float(f(y2)) + 2 * math.log(1.01 * M)
        rate = max((t - t2) / (0.01 * M), 1e-3)
        if t + math.log(max(1.0 / rate, 1.0) + 1.0) < math.log(tol):
            return side * M
        M *= 1.4
    raise AssertionError("tail cutoff search failed")


def h_moment(kernel, p, moment, compensated, delta):
    """Jump part of H (moment 0), H' (1) or H'' (2) at a scalar p."""
    s = kernel.singularity_exponent
    lo, hi = kernel.support

    def f(y):
        c = compensated and abs(y) < 1.0
        x = p * y
        if abs(x) >= 1.0:
            ej = _exp_term(kernel, p, y)
            J = float(kernel.density_1d(y))
            if moment == 0:
                return ej - J - (x * J if c else 0.0)
            if moment == 1:
                return y * (ej - (J if c else 0.0))
            return y * y * ej
        J = float(kernel.density_1d(y))
        if J == 0.0:
            return 0.0
        e = math.expm1(x)
        if moment == 0:
            if c and abs(x) < 0.1:
                # e^x - 1 - x by its series, where e - x would cancel
                core = sum(x ** k / math.factorial(k) for k in range(2, 14))
            else:
                core = e - x if c else e
        elif moment == 1:
            core = y * (e if c else e + 1.0)
        else:
            core = y * y * (e + 1.0)
        return core * J

    total = 0.0
    if s > 0:
        # y = u^2 softens the singularity at the origin
        su = math.sqrt(delta)
        for sgn in (1.0, -1.0):
            total += _quad(lambda u: f(sgn * u * u) * 2 * u, 0.0, su)
    # split at the kernel's jumps, at |y| = 1 and at the support edges,
    # then integrate out to the tail cuts
    b = hi if math.isfinite(hi) else _tail_cut(kernel, max(p, 0.0), +1)
    a = lo if math.isfinite(lo) else _tail_cut(kernel, min(p, 0.0), -1)
    cuts = {0.0, 1.0, -1.0, delta, -delta} | set(kernel.jumps)
    knots = sorted({x for x in cuts if a < x < b} | {a, b})
    for u, v in zip(knots[:-1], knots[1:]):
        if s > 0 and -delta <= u and v <= delta:
            continue
        if u >= 1.0 or v <= -1.0:
            total += _quad_geom(f, u, v)
        else:
            total += _quad(f, u, v)
    return total


def h_ess(kernel, p, moment=0):
    """int_{|y| > rho0/2} y^moment e^{py} J(y) dy at a scalar p."""
    half = kernel.rho0 / 2
    lo, hi = kernel.support

    def f(y):
        v = _exp_term(kernel, p, y)
        return y * v if moment else v

    points = sorted(x for x in set(kernel.jumps) | {1.0, -1.0}
                    if abs(x) > half)
    b = hi if math.isfinite(hi) else _tail_cut(kernel, max(p, 0.0), +1)
    a = lo if math.isfinite(lo) else _tail_cut(kernel, min(p, 0.0), -1)
    total = 0.0
    for u0, v0 in ((half, b), (a, -half)):
        if u0 >= v0:
            continue
        knots = sorted({x for x in points if u0 < x < v0} | {u0, v0})
        for u, v in zip(knots[:-1], knots[1:]):
            if u >= 1.0 or v <= -1.0:
                total += _quad_geom(f, u, v)
            else:
                total += _quad(f, u, v)
    return total
