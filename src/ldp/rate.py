"""Large-deviations rate functions for the unit-ball escape problem.

I_inf(x, t) = min_{y on the unit sphere} t L((x - y)/t) is the limiting
rescaled cost of the exterior data reaching the point x by time t, and the
Lax-Oleinik field I^A = min(A, I_inf) is the explicit viscosity solution the
finite-difference solver is checked against.  predict_log_bound gives the
regime-specific exponent of sup |u - u_R| for the truncation experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conjugate import Lagrangian, _points, k_inverse
from .errors import MajorizationUnavailable, ValidationError
from .kernels import CompactTail, CriticalTail, IntermediateTail

_N_ANGLES = 256


@dataclass
class RateResult:
    value: float
    minimizing_boundary_point: np.ndarray
    regime: Optional[str]
    predicted_log_bound: Optional[float] = None


def _regime_of(L):
    h = getattr(L, "h", None)
    k = getattr(h, "kernel", None)
    if k is None:
        return None
    return {CompactTail: "compact", IntermediateTail: "intermediate",
            CriticalTail: "critical"}[type(k.tail)]


def rate_iinf(L: Lagrangian, x, t) -> RateResult:
    """I_inf(x,t) = min over boundary points y of t L((x - y)/t), at one
    point x (a number in 1-D, an N-vector) or at each of an (m, N) array
    of points, with array fields, from one L call over the boundary
    candidates of all of them (one per refinement step for an asymmetric
    L in N-D)."""
    h = getattr(L, "h", None)
    N = getattr(h, "dimension", 1)
    xs, one = _points(x, N, "x")
    t = float(t)
    if not 0 < t < math.inf:
        raise ValidationError("t must be positive and finite")
    r = np.linalg.norm(xs, axis=1)
    if np.any(r > 1.0 + 1e-12):
        raise ValidationError("x must lie in the closed unit ball")
    m = len(xs)

    if N == 1:
        ys = np.array([1.0, -1.0])
        vals = t * np.reshape(L(((xs - ys) / t).ravel()), (m, 2))
        i = np.argmin(vals, axis=1)
        value, y = vals[np.arange(m), i], ys[i, None]
    elif getattr(h, "symmetric", True):
        # nearest boundary point is optimal for radial L
        e = np.eye(N)[0]
        y = xs / np.where(r > 0, r, 1.0)[:, None]
        y[r == 0] = e
        d = 1.0 - r
        value = np.zeros(m)
        inside = d > 0
        if inside.any():
            value[inside] = t * L(d[inside, None] / t * e)
    else:
        value, y = _asymmetric_rate(L, xs, t)
    if one:
        return RateResult(float(value[0]), y[0], _regime_of(L))
    return RateResult(value, y, _regime_of(L))


def _asymmetric_rate(L, xs, t):
    """min over the unit circle for an asymmetric L in 2-D: a coarse sweep
    over the boundary angles, then golden-section refinement of every
    point at once, one L call per step."""
    def f(th):
        return t * L((xs - np.stack([np.cos(th), np.sin(th)], axis=1)) / t)

    thetas = np.linspace(0, 2 * math.pi, _N_ANGLES, endpoint=False)
    ring = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    vals = t * L(((xs[:, None] - ring) / t).reshape(-1, 2))
    th0 = thetas[np.argmin(vals.reshape(len(xs), _N_ANGLES), axis=1)]
    gr = (math.sqrt(5) - 1) / 2
    a, b = th0 - 2 * math.pi / _N_ANGLES, th0 + 2 * math.pi / _N_ANGLES
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        # the minimum lies in [a, d] where f(c) < f(d), else in [c, b]
        left = fc < fd
        a, b, c, d = (np.where(left, a, c), np.where(left, d, b),
                      np.where(left, d - gr * (d - a), d),
                      np.where(left, c, c + gr * (b - c)))
        fn = f(np.where(left, c, d))
        fc, fd = np.where(left, fn, fd), np.where(left, fc, fn)
        if np.all(b - a < 1e-12):
            break
    th = 0.5 * (a + b)
    return f(th), np.stack([np.cos(th), np.sin(th)], axis=1)


def lax_oleinik(L: Lagrangian, A, x, t) -> RateResult:
    """I^A(x,t) = min(A, I_inf(x,t)), at one point or an array of them."""
    if not A >= 0:
        raise ValidationError("A must be nonnegative")
    res = rate_iinf(L, x, t)
    value = np.minimum(float(A), res.value)
    return RateResult(value if np.ndim(value) else float(value),
                      res.minimizing_boundary_point, res.regime,
                      res.predicted_log_bound)


def predict_log_bound(kernel, R, theta=0.0, t=1.0):
    """Predicted exponent E in sup_{|x|<=theta R} |u - u_R| ~ e^{-E}.

    compact:       ((1-theta)/rho) R ln R
    intermediate:  (1-theta) R Kinv(ln((1-theta) R / t))   (symmetric only)
    critical:      (1-theta) beta0 R

    Asymmetric non-critical kernels are handled through a symmetric
    majorant when one exists (compact support: the enclosing uniform ball),
    otherwise MajorizationUnavailable is raised.
    """
    if not (0 <= theta < 1):
        raise ValidationError("theta must lie in [0, 1)")
    if R <= 1 or t <= 0:
        raise ValidationError("need R > 1 and t > 0")
    tail = kernel.tail
    if isinstance(tail, CriticalTail):
        return (1 - theta) * tail.beta0 * R
    if isinstance(tail, CompactTail):
        # for an asymmetric compact kernel the enclosing symmetric uniform
        # ball of the same radius majorizes it after scaling
        return (1 - theta) / tail.rho * R * math.log(R)
    if not kernel.symmetric:
        raise MajorizationUnavailable(
            "no symmetric majorant available for an asymmetric "
            "intermediate kernel")
    arg = math.log((1 - theta) * R / t)
    if arg <= 0:
        raise ValidationError("(1-theta) R / t must exceed 1")
    return (1 - theta) * R * k_inverse(kernel, arg)
