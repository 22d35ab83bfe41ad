"""Hamiltonians generated by Levy operators.

H(p) = <A p, p> + B . p + int ( e^{p.y} - 1 - (p.y) 1_{|y|<1} ) J(y) dy

with the compensator dropped for integrable kernels when requested, and
the essential Hamiltonian H^ess(p) = int_{|y|>rho0/2} e^{p.y} J(y) dy,
which carries the growth of H.

One engine gives H, H', H'' and H^ess for a whole array of p from fixed
Gauss-Legendre panels (those of `ldp.kernels`, which every integral of J
shares): split at delta, at |y| = 1, at rho0/2, at the support edges
and at the kernel's jumps; halved until their end points differ by at
most a factor 2 and ln(e^{py} J) spreads little over each for the
batch's extreme p; geometric out to one tail cut sized for the
largest |p|.  Singular kernels take y = u^2 near the origin.  Integrands
are formed as exp(p y + ln J(y)), so huge exponential factors against
tiny densities never overflow, and p is processed in chunks.  For a
radial kernel in 2-D the same panels cover the radii r > 0 and the
angular integral gives Bessel factors (I_0 - 1 for H, I_1 for |DH|,
I_0 + I_2 for the curvature along p), formed as the scaled I_n(|p| r)
e^{-|p| r} times exp(|p| r + ln J(r)).  eval_batch is the batched entry
point, over p in 1-D and over the radii |p| of a radial H in 2-D; the
scalar operations are batches of one in both dimensions; HTable tabulates
H in one call.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
# nothing here calls quad: perfbench/tracing.py wraps this name to count
# the adaptive quadrature calls of this layer
from scipy.integrate import quad  # noqa: F401
from scipy.special import i0e, i1e

from .errors import DomainViolation, NonConvergence, ValidationError
from .kernels import _FAR, _U_MIN, Kernel, _ray_rule, _rays

_DOMAIN_MARGIN = 1e-6


@dataclass
class HamiltonianParams:
    kernel: Optional[Kernel]
    A: np.ndarray = None          # (N, N) symmetric PSD; default zero
    B: np.ndarray = None          # (N,); default zero
    compensated: bool = True
    delta_split: Optional[float] = None   # near-origin split radius
    # H(p) depends on |p| alone: a symmetric kernel (or none), A = a I
    # and B = 0; set from the fields above
    symmetric: bool = field(init=False, repr=False, compare=False)
    # quadrature rules of the engine, by p-range rung (see _rung)
    _rules: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        N = self.kernel.dimension if self.kernel is not None else 1
        if self.A is None:
            self.A = np.zeros((N, N))
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if self.A.shape != (N, N):
            raise ValidationError(f"A must be {N}x{N}")
        if not np.allclose(self.A, self.A.T, atol=1e-12):
            raise ValidationError("A must be symmetric")
        if np.min(np.linalg.eigvalsh(self.A)) < -1e-12:
            raise ValidationError("A must be positive semi-definite")
        if self.B is None:
            self.B = np.zeros(N)
        self.B = np.atleast_1d(np.asarray(self.B, dtype=float))
        if self.B.shape != (N,):
            raise ValidationError(f"B must have length {N}")
        k = self.kernel
        if k is not None and not self.compensated:
            if k.singularity_exponent >= 1.0:
                raise ValidationError(
                    "uncompensated form needs singularity exponent < 1")
        if self.delta_split is None:
            if k is None:
                self.delta_split = 0.5
            elif k.singularity_exponent > 0:
                self.delta_split = 1e-3
            else:
                self.delta_split = min(k.rho0 / 2, 0.5)
        if not (0 < self.delta_split < 1):
            raise ValidationError("delta_split must lie in (0, 1)")
        self.symmetric = ((k is None or k.symmetric)
                          and np.allclose(self.B, 0.0)
                          and np.allclose(self.A, self.A[0, 0] * np.eye(N)))

    @property
    def dimension(self):
        return self.kernel.dimension if self.kernel is not None else 1


def _domain_interval(kernel):
    """Open finiteness interval of p -> int e^{py} J (1-D convention; for
    symmetric N-D kernels the bound is a radius)."""
    if kernel is None:
        return (-math.inf, math.inf)
    return kernel.p_domain


def _check_domain(kernel, ps):
    """Every p of ps (radii |p| in 2-D) inside the domain of H, short of
    its edges by the margin, or DomainViolation."""
    lo, hi = _domain_interval(kernel)
    name = "|p|" if kernel.dimension == 2 else "p"
    if math.isfinite(hi) and np.max(ps) > hi * (1 - _DOMAIN_MARGIN):
        raise DomainViolation(f"{name}={np.max(ps)} above domain bound {hi}")
    if math.isfinite(lo) and np.min(ps) < lo * (1 - _DOMAIN_MARGIN):
        raise DomainViolation(f"{name}={np.min(ps)} below domain bound {lo}")


def _radius(k, p):
    """|p| for the 2-D radial path, after the domain and symmetry checks
    (hypot: the squares of |p| < 1e-154 would lose digits to subnormals)."""
    r = math.hypot(*p)
    _check_domain(k, r)
    if not k.symmetric:
        raise ValidationError("2-D evaluation requires a radial kernel")
    return r


def _as_point(params, v, name="p"):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (params.dimension,):
        raise ValidationError(f"{name} must have {params.dimension} "
                              f"component(s), got shape {v.shape}")
    return v


# ---------------------------------------------------------------------------
# Jump integrals: one Gauss-Legendre rule for a whole array of p
# ---------------------------------------------------------------------------

_RULES_KEPT = 32        # rules cached per HamiltonianParams, oldest dropped
#                         (one L solve visits 5-8 rung pairs, one batched
#                         solve over 801 q of both signs 13)
_CHUNK = 1 << 12        # float64 entries per temporary (32 KB)
# 1/k! for k = 13 .. 2: Horner coefficients of e^x - 1 - x
_EXPM1MX = [1.0 / math.factorial(k) for k in range(13, 1, -1)]
# 1/(k!)^2 for k = 8 .. 1: Horner coefficients of (I_0(x) - 1) / t in
# t = x^2 / 4, used below x = 0.5 (the first term dropped is below 1e-20)
_I0M1 = [1.0 / math.factorial(k) ** 2 for k in range(8, 0, -1)]


def _rung(p, edge):
    """p >= 0 rounded up to the ladder 2^{j/4}, or edge (1 - 2^{-j/4})
    below a finite domain edge: batches whose p ranges round to the same
    rungs share one quadrature rule, valid for every p inside them."""
    if p > 0 and math.isfinite(edge):
        return edge * (1 - 2 ** (-math.ceil(-4 * math.log2(1 - p / edge)) / 4))
    return 2 ** (math.ceil(4 * math.log2(p)) / 4) if p > 0 else 0.0


def _rule(params, p_lo, p_hi, essential):
    """Nodes y, weights w, ln J and J at the nodes for the integral over
    the line, or in 2-D over the radii with the polar 2 pi r in w (over
    |y| > rho0/2 if essential), for every p in [p_lo, p_hi] (p_lo <= 0 <=
    p_hi; in 2-D p is |p| and p_lo = 0); then the mask c of the nodes
    where the compensator acts, c J, and for a singular kernel (not
    essential) J(side _U_MIN^2) on each ray."""
    k = params.kernel
    y, w = _ray_rule(k, (k.rho0 / 2 if essential else 0.0,
                         params.delta_split, _FAR),
                     k.singularity_exponent > 0 and not essential,
                     (p_lo, p_hi))
    lj = k.log_j(y)
    jv = np.exp(lj)
    c = (np.abs(y) < 1.0) & params.compensated & (not essential)
    lnj, sides = _rays(k)
    j_eps = [math.exp(float(lnj(side * _U_MIN ** 2))) for side in sides
             if k.singularity_exponent > 0 and not essential]
    return y, w, lj, jv, c, c * jv, j_eps


def _radial_integrand(m, essential, x, y, e, jv):
    """The 2-D integrand of moment m at the radii y (x = |p| y, e =
    e^x J(y), jv = J(y)), before the weights.  The angular integrals give
    I_n(x) = i{n}e(x) e^x, with e^x in e; the compensator integrates to
    0 over every circle."""
    if m == 1:
        return y * e * i1e(x)
    if m == 2:
        # (I_0 + I_2) / 2 = I_0 - I_1 / x, free of cancellation; I_1(x) / x
        # is 1/2 at x = 0
        xm = np.maximum(x, 1e-300)
        return y * y * e * (i0e(x) - i1e(xm) / xm)
    f = e * i0e(x)
    if not essential:
        f -= jv
        # below x = 0.5, I_0(x) - 1 from its series
        near = np.nonzero(x < 0.5)
        t = 0.25 * x[near] ** 2
        f[near] = jv[near[1]] * np.polyval(_I0M1, t) * t
    return f


@np.errstate(over="ignore", invalid="ignore")   # overflow raises below
def _jump_moments(params, ps, moments, essential):
    """The jump integrals of H, H', H'' (or H^ess and its derivative) for
    every p in ps, as an array (len(moments), len(ps)).  In 2-D ps holds
    radii |p| and the moments are H, |DH| and the curvature along p."""
    k = params.kernel
    sides = _rays(k)[1]
    radial = k.dimension == 2
    lo, hi = k.p_domain
    key = (essential, -_rung(-min(ps.min(), 0.0), -lo),
           _rung(max(ps.max(), 0.0), hi))
    if key not in params._rules:
        if len(params._rules) >= _RULES_KEPT:
            del params._rules[next(iter(params._rules))]
        params._rules[key] = _rule(params, key[1], key[2], essential)
    y, w, lj, jv, c, cjv, j_eps = params._rules[key]
    # e^{py} - 1 near 0 serves H and the compensated H'
    small = 0 in moments or params.compensated
    out = np.empty((len(moments), ps.size))
    rows = max(1, _CHUNK // max(y.size, 1))
    for i in range(0, ps.size, rows):
        p = ps[i:i + rows, None]
        x = p * y
        e = np.exp(x + lj)
        if small and not (essential or radial):
            # where |p y| is small, e^{py} - 1 by expm1, and where the
            # compensator acts, e^{py} - 1 - p y by its series
            near = np.nonzero(np.abs(x) < 0.1)
            em1 = np.expm1(x[near])
            if params.compensated:
                cs = c[near[1]]
                comp = near[0][cs], near[1][cs]
        for j, m in enumerate(moments):
            if radial:
                f = _radial_integrand(m, essential, x, y, e, jv)
            elif essential:
                f = e * y if m == 1 else e
            elif m == 0:
                f = e - jv - x * cjv
                f[near] = jv[near[1]] * em1
                if params.compensated:
                    xc = x[comp]
                    f[comp] = jv[comp[1]] * (np.polyval(_EXPM1MX, xc)
                                             * xc * xc)
            elif m == 1:
                f = y * (e - cjv)
                if params.compensated:
                    f[comp] = y[comp[1]] * jv[comp[1]] * em1[cs]
            else:
                f = y * y * e
            # a row sum in fixed order: a p's value does not depend on the
            # chunk it lands in
            out[j, i:i + rows] = (f * w).sum(axis=1)
    # an integrand past the float range leaves inf or nan in its row sum
    if not np.isfinite(out).all():
        raise NonConvergence("e^{py} J(y) overflows; H out of float range")
    s, eps = k.singularity_exponent, _U_MIN ** 2
    # in 2-D the terms odd in y vanish on every circle, so the leading
    # orders of the compensated integrands apply
    full = params.compensated or radial
    for side, je in zip(sides, j_eps):      # none unless singular
        # int over (0, eps) on this side of the leading-order integrand
        # c_m y^n J(y), with J(y) ~ J(side eps) (|y|/eps)^{-N-s}; in 2-D
        # the angular integral and the polar r add the factor pi eps
        if radial:
            je *= math.pi * eps
        for j, m in enumerate(moments):
            n = 2 if (m == 2 or full) else 1
            if m == 0:
                coef = 0.5 * ps * ps if full else ps
            else:
                coef = ps if m == 1 and full else 1.0
            out[j] += coef * side ** n * je * eps ** (n + 1) / (n - s)
    return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def eval_batch(params: HamiltonianParams, ps, moments=(0,),
               essential=False):
    """H (moment 0), H' (1) and H'' (2) at every p of a 1-D array, shape
    (len(moments), len(ps)); essential=True gives H^ess and its derivative
    (moments 0, 1) instead, without the local terms.  For a radial H in 2-D
    ps holds radii |p| and the moments are H, |DH| and the curvature along
    p, the same on every ray."""
    ps = np.asarray(ps, dtype=float).ravel()
    k = params.kernel
    if (not set(moments) <= ({0, 1} if essential else {0, 1, 2})
            or essential and k is None):
        raise ValidationError(f"no moments {moments} of "
                              f"{'H^ess' if essential else 'H'} here")
    if not np.isfinite(ps).all():
        raise ValidationError("p must be finite")
    if params.dimension != 1 and not (params.symmetric and np.all(ps >= 0)):
        raise ValidationError("in 2-D the batched evaluator takes radii "
                              "|p| >= 0 of a radial H")
    if ps.size == 0 or k is None:
        out = np.zeros((len(moments), ps.size))
    else:
        _check_domain(k, ps)
        out = _jump_moments(params, ps, moments, essential)
    a, b = float(params.A[0, 0]), float(params.B[0])
    if not essential and (a or b):
        local = {0: (a * ps + b) * ps, 1: 2 * a * ps + b, 2: 2 * a}
        for j, m in enumerate(moments):
            out[j] += local[m]
    return out


def _radial(params, p, moments, essential=False):
    """|p| and the 2-D radial integrals at it, a batch of one."""
    pr = _radius(params.kernel, p)
    return pr, _jump_moments(params, np.array([pr]), moments, essential)[:, 0]


def eval_h(params: HamiltonianParams, p):
    """H(p)."""
    p = _as_point(params, p)
    if params.dimension == 1:
        return float(eval_batch(params, p)[0, 0])
    quad_part = float(p @ params.A @ p + params.B @ p)
    return quad_part + float(_radial(params, p, (0,))[1][0])


def eval_h_ess(params: HamiltonianParams, p, moment=0):
    """H^ess(p) = int_{|y| > rho0/2} e^{p.y} J(y) dy.

    moment=1 returns the derivative d/dp H^ess (integrand times y);
    only available in 1-D.
    """
    k = params.kernel
    if k is None:
        raise ValidationError("essential Hamiltonian needs a kernel")
    if moment not in (0, 1):
        raise ValidationError("moment must be 0 or 1")
    if moment == 1 and k.dimension != 1:
        raise ValidationError("essential gradient is 1-D only")
    p = _as_point(params, p)
    if k.dimension == 1:
        return float(eval_batch(params, p, (moment,), essential=True)[0, 0])
    return float(_radial(params, p, (0,), essential=True)[1][0])


def _grad_2d(params, p, pr, mag):
    """DH(p) from |p| and the jump part |DH| of the radial integrals."""
    lin = 2.0 * params.A @ p + params.B
    return lin + mag * (p / pr) if pr > 0 else lin


def grad_h(params: HamiltonianParams, p):
    """DH(p) as an (N,) array."""
    p = _as_point(params, p)
    if params.dimension == 1:
        return eval_batch(params, p, (1,))[0]
    pr, (mag,) = _radial(params, p, (1,))
    return _grad_2d(params, p, pr, mag)


def hess_quadform(params: HamiltonianParams, p, nu):
    """<D^2 H(p) nu, nu> for a direction nu."""
    if params.dimension == 1:
        p = _as_point(params, p)
        nu = _as_point(params, nu, "nu")
        return float(nu[0] ** 2 * eval_batch(params, p, (2,))[0, 0])
    return grad_hess(params, p, nu)[1]


def grad_hess(params: HamiltonianParams, p, nu):
    """DH(p) and <D^2 H(p) nu, nu> from one engine call, the same values
    grad_h and hess_quadform give: a Newton step needs both at one p."""
    p = _as_point(params, p)
    nu = _as_point(params, nu, "nu")
    if params.dimension == 1:
        d1, d2 = eval_batch(params, p, (1, 2))
        return d1, float(nu[0] ** 2 * d2[0])
    pr, (mag, t_par) = _radial(params, p, (1, 2))
    grad = _grad_2d(params, p, pr, mag)
    quad_part = float(2.0 * nu @ params.A @ nu)
    # across p the curvature is pi int r^3 J (I_0 - I_2), and
    # I_0(x) - I_2(x) = (2 / x) I_1(x) makes it |DH| / |p|; it differs from
    # the curvature along p by O(|p|^2), so below |p| = 1e-100 (where I_1
    # would lose its digits to subnormals) the two are equal
    if pr <= 1e-100:
        return grad, quad_part + float(nu @ nu) * t_par
    c_par = float(nu @ p) / pr
    c_perp2 = float(nu @ nu) - c_par**2
    return grad, quad_part + c_par**2 * t_par + max(c_perp2, 0.0) * mag / pr


# ---------------------------------------------------------------------------
# Evaluator bundle used by the conjugate / HJ / rate modules
# ---------------------------------------------------------------------------

@dataclass
class Hamiltonian:
    """Callable bundle (value, gradient, Hessian quadratic form) together
    with the finiteness domain, used by every consumer of H."""
    value: Callable
    grad: Callable
    hess_quadform: Callable
    dimension: int = 1
    domain: tuple = (-math.inf, math.inf)
    symmetric: bool = True
    kernel: Optional[Kernel] = None
    params: Optional[HamiltonianParams] = None

    @classmethod
    def from_params(cls, params: HamiltonianParams):
        k = params.kernel
        return cls(
            value=lambda p: eval_h(params, p),
            grad=lambda p: grad_h(params, p),
            hess_quadform=lambda p, nu: hess_quadform(params, p, nu),
            dimension=params.dimension,
            domain=_domain_interval(k),
            symmetric=params.symmetric,
            kernel=k,
            params=params,
        )

    @classmethod
    def from_kernel(cls, kernel, A=None, B=None, compensated=None):
        if compensated is None:
            compensated = kernel.singularity_exponent > 0
        return cls.from_params(HamiltonianParams(
            kernel=kernel, A=A, B=B, compensated=compensated))

    @classmethod
    def from_callables(cls, value, grad, hess, dimension=1,
                       domain=(-math.inf, math.inf), symmetric=True):
        return cls(value=value, grad=grad,
                   hess_quadform=lambda p, nu, _h=hess:
                       float(np.atleast_1d(nu)[0])**2 * _h(p)
                       if dimension == 1 else hess(p, nu),
                   dimension=dimension, domain=domain, symmetric=symmetric)

    def grad_1d(self, p):
        return float(np.atleast_1d(self.grad(p))[0])

    def batch(self, ps, moments=(0,)):
        """eval_batch for this H; given by callables, it loops over them."""
        if self.params is not None:
            return eval_batch(self.params, ps, moments)
        if self.dimension != 1:
            raise ValidationError("the batched evaluator is one-dimensional")
        scalar = {0: lambda p: float(self.value(p)), 1: self.grad_1d,
                  2: lambda p: float(self.hess_quadform(p, 1.0))}
        ps = np.asarray(ps, dtype=float).ravel()
        return np.array([[scalar[m](p) for p in ps] for m in moments]
                        ).reshape(len(moments), ps.size)


class HTable:
    """H on increasing 1-D knots, filled by one batched call; `slopes`
    holds H' of the linear interpolant of H, one per cell."""

    def __init__(self, h: Hamiltonian, ps):
        self.ps = np.asarray(ps, dtype=float)
        self.Hv = h.batch(self.ps)[0]
        self.slopes = np.diff(self.Hv) / np.diff(self.ps)
        # Python lists: speed() is called once per time step, where two
        # bisections beat the numpy calls on arrays of two
        self._knots = self.ps.tolist()
        self._speeds = np.abs(self.slopes).tolist()

    def speed(self, lo, hi):
        """max |H'| of the interpolant over the slopes in [lo, hi], for a
        convex H: |H'| is largest in one of the two end cells.  The cell
        of p is the one ending at the first knot >= p; slopes beyond the
        table take its first or last cell."""
        last = len(self._speeds) - 1
        i = min(max(bisect_left(self._knots, lo) - 1, 0), last)
        j = min(max(bisect_left(self._knots, hi) - 1, 0), last)
        return max(self._speeds[i], self._speeds[j])


def first_reach(h: Hamiltonian, side, bound, moments, good):
    """Smallest t in (0, bound] at which good(*rows) holds, the rows being
    the `moments` of H (0: H, 1: H') at side t (vectorised; once true it
    stays true as t grows), or `bound` when it never holds before the
    last _DOMAIN_MARGIN of a finite bound.

    Tables of the moments the predicate reads probe a finite bound at
    halving distances to it, an infinite one by doubling from 1 (one p at
    a time: a table far past the crossing could overflow); four rounds
    re-tabulate the bracketing cell at 64 points, so the point returned
    lies past the crossing by at most 64^-4 of the first bracket.
    """
    def holds(ts):
        return good(*h.batch(side * np.asarray(ts, dtype=float), moments))

    if math.isfinite(bound):
        gap = bound - min(1.0, bound)
        m = math.log2(max(gap, 1e-300) / (_DOMAIN_MARGIN * max(1.0, bound)))
        ts = bound - gap * 0.5 ** np.arange(max(0, math.ceil(m)) + 1)
        ok = holds(ts)
        if not ok.any():
            return bound
        i = int(np.argmax(ok))
        lo, hi = (ts[i - 1] if i else 0.0), ts[i]
    else:
        lo, hi = 0.0, 1.0
        while not holds([hi])[0]:
            lo, hi = hi, 2 * hi
            if hi > 1e8:
                raise NonConvergence("the target is never reached")
    for _ in range(4):
        ts = np.linspace(lo, hi, 65)[1:]
        ok = holds(ts)
        i = int(np.argmax(ok)) if ok.any() else len(ts) - 1
        lo, hi = (ts[i - 1] if i else lo), ts[i]
    return float(hi)
