"""Adaptive-quadrature oracle for the jump integrals of H.

These are the scalar evaluators `ldp.hamiltonian` used before its batched
Gauss-Legendre engine: one p at a time, scipy's adaptive `quad` over a
Python integrand, split at delta, at |y| = 1, at the kernel's jumps and at
the support edges, with the substitution y = u^2 near the origin for
singular kernels and geometric panels out to a tail cut.  They read only
the kernel's density and log-density, so they check the engine's panel
rule, not the kernel.  In 1-D:

    moment 0: int (e^{py} - 1 - p y 1_{|y|<1}) J(y) dy   (H)
    moment 1: int y (e^{py} - 1_{|y|<1}) J(y) dy         (H')
    moment 2: int y^2 e^{py} J(y) dy                      (H'')

(the compensator terms drop for uncompensated kernels), and
h_ess(kernel, p, m) = int_{|y| > rho0/2} y^m e^{py} J(y) dy.  For a radial
kernel in 2-D, radial(kernel, |p|, kind, delta) integrates over the radii
with the angular integral done by Bessel functions:

    "h":    2 pi int r J(r) (I_0(|p| r) - 1) dr          (H)
    "grad": 2 pi int r^2 J(r) I_1(|p| r) dr              (|DH|)
    "par":  pi int r^3 J(r) (I_0 + I_2)(|p| r) dr        (curvature along p)
    "perp": pi int r^3 J(r) (I_0 - I_2)(|p| r) dr        (curvature across p)
    "ess":  2 pi int_{r > rho0/2} r J(r) I_0(|p| r) dr   (H^ess)

The integrals of J alone that `ldp.kernels` took by `quad` before they
moved onto the engine's panels are kept too: tail_reach and radial_mass.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ive

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
    t = p * y + float(kernel.log_density(y))
    assert t < 709.0, "e^{py} J(y) overflows"
    return math.exp(t) if t > -745.0 else 0.0


def _tail_cut(kernel, p, side, tol=1e-20):
    """|y| beyond which e^{py} J(y) y^2 has a tail integral below tol."""
    f = kernel.log_density
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
            J = float(kernel.density(y))
            if moment == 0:
                return ej - J - (x * J if c else 0.0)
            if moment == 1:
                return y * (ej - (J if c else 0.0))
            return y * y * ej
        J = float(kernel.density(y))
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


# ---------------------------------------------------------------------------
# 2-D radial kernels
# ---------------------------------------------------------------------------

_RADIAL = {"h": (1, 2 * math.pi), "grad": (2, 2 * math.pi),
           "par": (3, math.pi), "perp": (3, math.pi), "ess": (1, 2 * math.pi)}


def _log_angular(kind, x):
    """ln of the Bessel factor of `kind` at x >= 0 (-inf where it is 0)."""
    if kind == "h" and x < 2.0:
        # I_0(x) - 1 by its power series, free of cancellation
        t, term, total, k = x * x / 4, 1.0, 0.0, 0
        while t > 0.0:
            k += 1
            term *= t / (k * k)
            total += term
            if term <= 1e-18 * total:
                break
        return math.log(total) if total > 0.0 else -math.inf
    if kind == "grad" and x == 0.0:
        return -math.inf
    g = {"h": lambda: ive(0, x) - math.exp(-x),
         "grad": lambda: ive(1, x),
         "par": lambda: ive(0, x) + ive(2, x),
         "perp": lambda: ive(0, x) - ive(2, x),
         "ess": lambda: ive(0, x)}[kind]()
    return math.log(g) + x if g > 0.0 else -math.inf


def _log_radial(kernel):
    """ln J at the radius r of a radial kernel, in 1-D or 2-D."""
    if kernel.dimension == 2:
        return lambda r: kernel.log_density((r, 0.0))
    return kernel.log_density


def _radial_tail_cut(kernel, pr, tol=1e-20):
    """r beyond which r^3 e^{pr r} J(r) has a tail integral below tol."""
    f = _log_radial(kernel)
    M = max(4.0, 2 * kernel.rho0)
    while M < 1e9:
        t = pr * M + float(f(M)) + 3 * math.log(M)
        t2 = 1.01 * pr * M + float(f(1.01 * M)) + 3 * math.log(1.01 * M)
        rate = max((t - t2) / (0.01 * M), 1e-3)
        if t + math.log(max(1.0 / rate, 1.0) + 1.0) < math.log(tol):
            return M
        M *= 1.4
    raise AssertionError("tail cutoff search failed")


def radial(kernel, pr, kind, delta):
    """A 2-D jump integral of a radial kernel at |p| = pr (see above)."""
    weight, fac = _RADIAL[kind]
    lr = _log_radial(kernel)

    def f(r):
        lj = float(lr(r)) if r > 0 else -math.inf
        if lj == -math.inf:
            return 0.0
        t = weight * math.log(r) + lj + _log_angular(kind, pr * r)
        assert t < 709.0, "2-D integrand overflows"
        return fac * math.exp(t) if t > -745.0 else 0.0

    start = kernel.rho0 / 2 if kind == "ess" else 0.0
    sup = kernel.support[1]
    b = sup if math.isfinite(sup) else _radial_tail_cut(kernel, pr)
    cuts = {delta, 1.0} | {r for r in kernel.jumps if r > 0}
    knots = sorted({x for x in cuts if start < x < b} | {start, b})
    total = 0.0
    if kernel.singularity_exponent > 0 and start == 0.0:
        # r = u^2 softens the singularity at the origin
        total += _quad(lambda u: f(u * u) * 2 * u, 0.0, math.sqrt(delta))
        knots = knots[1:]
    for u, v in zip(knots[:-1], knots[1:]):
        total += _quad_geom(f, u, v) if u >= 1.0 else _quad(f, u, v)
    return total


# ---------------------------------------------------------------------------
# Integrals of J alone: the former quad paths of ldp.kernels
# ---------------------------------------------------------------------------

def tail_reach(kernel, tol=1e-16):
    """The first rung R of max(2, 2 rho0) 1.5^k at which the tail mass of
    a radial kernel with unbounded support, integrated over [R, R + 200]
    by quad, is below tol (the former ldp.kernels.tail_reach)."""
    lr = _log_radial(kernel)
    N = kernel.dimension
    surf = 2.0 if N == 1 else 2 * math.pi
    R = max(2.0, 2 * kernel.rho0)
    for _ in range(60):
        def g(r):
            w = r if N == 2 else 1.0
            return math.exp(float(lr(r))) * w
        tail = surf * quad(g, R, R + 200.0, limit=200)[0]
        if tail < tol:
            return R
        R *= 1.5
    return R


def radial_mass(kernel):
    """The mass of a radial kernel with unbounded support, by quad over
    [0, 40] (the former super_exp mass of ldp.kernels)."""
    lr = _log_radial(kernel)
    N = kernel.dimension
    surf = 2.0 if N == 1 else 2 * math.pi
    return surf * quad(lambda r: (r if N == 2 else 1.0)
                       * math.exp(float(lr(r))), 0, 40)[0]
