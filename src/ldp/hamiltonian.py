"""Hamiltonians generated by Levy operators.

H(p) = <A p, p> + B . p + int ( e^{p.y} - 1 - (p.y) 1_{|y|<1} ) J(y) dy

with the compensator dropped for integrable kernels when requested, and
the essential Hamiltonian H^ess(p) = int_{|y|>rho0/2} e^{p.y} J(y) dy,
which carries the growth of H.

In 1-D one engine, eval_batch, gives H, H', H'' and H^ess for a whole
array of p from fixed Gauss-Legendre panels: split at delta, at |y| = 1,
at rho0/2, at the support edges and at the kernel's jumps; halved until
their end points differ by at most a factor 2 and ln(e^{py} J) spreads
little over each for the batch's extreme p; geometric out to one tail cut
sized for the largest |p|.  Singular kernels take y = u^2 near the
origin.  Integrands are formed as exp(p y + ln J(y)), so huge exponential
factors against tiny densities never overflow, and p is processed in
chunks.  The scalar operations are batches of one; HTable tabulates H and
H' in one call.  The 2-D radial path uses adaptive quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad, IntegrationWarning
from scipy.special import ive, iv

from .errors import DomainViolation, NonConvergence, ValidationError
from .kernels import Kernel

_EPSREL = 1e-11
_QUAD_LIMIT = 250
_DOMAIN_MARGIN = 1e-6


@dataclass
class HamiltonianParams:
    kernel: Optional[Kernel]
    A: np.ndarray = None          # (N, N) symmetric PSD; default zero
    B: np.ndarray = None          # (N,); default zero
    compensated: bool = True
    delta_split: Optional[float] = None   # near-origin split radius
    # quadrature rules of the 1-D engine, by p-range rung (see _rung)
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

    @property
    def dimension(self):
        return self.kernel.dimension if self.kernel is not None else 1


def _domain_interval(kernel):
    """Open finiteness interval of p -> int e^{py} J (1-D convention; for
    symmetric N-D kernels the bound is a radius)."""
    if kernel is None:
        return (-math.inf, math.inf)
    return kernel.p_domain


def _check_domain(kernel, p):
    lo, hi = _domain_interval(kernel)
    if kernel.dimension == 2:
        r = float(np.linalg.norm(p))
        if math.isfinite(hi) and r > hi * (1 - _DOMAIN_MARGIN):
            raise DomainViolation(
                f"|p|={r} outside domain radius {hi} (critical kernel)")
        return
    if math.isfinite(hi) and np.max(p) > hi * (1 - _DOMAIN_MARGIN):
        raise DomainViolation(f"p={np.max(p)} above domain bound {hi}")
    if math.isfinite(lo) and np.min(p) < lo * (1 - _DOMAIN_MARGIN):
        raise DomainViolation(f"p={np.min(p)} below domain bound {lo}")


def _radius(k, p):
    """|p| for the 2-D radial path, after the domain and symmetry checks."""
    _check_domain(k, p)
    if not k.symmetric:
        raise ValidationError("2-D evaluation requires a radial kernel")
    return float(np.linalg.norm(p))


def _as_point(params, v, name="p"):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (params.dimension,):
        raise ValidationError(f"{name} must have {params.dimension} "
                              f"component(s), got shape {v.shape}")
    return v


def _quad(f, a, b):
    if a >= b:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, epsabs=1e-280, epsrel=_EPSREL,
                        limit=_QUAD_LIMIT)
    if not math.isfinite(val):
        raise NonConvergence(f"quadrature returned {val} on [{a}, {b}]")
    return val


def _quad_geom(f, a, b):
    """Adaptive quadrature over [a, b] (finite, same sign) in geometric
    panels, robust for slowly decaying exponential tails."""
    if a >= b:
        return 0.0
    total = 0.0
    if a > 0:
        lo = a
        while lo < b:
            hi = min(2 * lo, b)
            total += _quad(f, lo, hi)
            lo = hi
    else:
        hi = b
        while hi > a:
            lo = max(2 * hi, a)
            total += _quad(f, lo, hi)
            hi = lo
    return total


# ---------------------------------------------------------------------------
# 1-D integrals: one Gauss-Legendre rule for a whole array of p
# ---------------------------------------------------------------------------

def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], by Newton's
    method on the Legendre recurrence (no eigensolver, no LAPACK)."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p, q = x, np.ones(n)        # P_k and P_{k-1} at x
        for k in range(2, n + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        dp = n * (x * p - q) / (x * x - 1)
        x = x - p / dp
    return x, 2 / ((1 - x * x) * dp * dp)


_GL_X, _GL_W = _gauss_legendre(20)
_SAMPLES = np.linspace(0.0, 1.0, 9)   # where a panel's spread is measured
_SPAN = 12.0            # largest spread of ln(e^{py} J) over one panel
_LOG_TINY = math.log(1e-24)   # drop panels below this times J(rho0/2)
_U_MIN = 1e-5           # singular kernels: u-panels stop at y = _U_MIN^2
_FAR = 1e9              # unbounded supports: panels reach at most this far
_MAX_PANELS = 4096
_RULES_KEPT = 4         # rules cached per HamiltonianParams, oldest dropped
_CHUNK = 1 << 12        # float64 entries per temporary (32 KB)
# 1/k! for k = 13 .. 2: Horner coefficients of e^x - 1 - x
_EXPM1MX = [1.0 / math.factorial(k) for k in range(13, 1, -1)]


def _side_rule(k, side, knots, singular, p_ends, floor):
    """Nodes |y| and weights on one side, over the intervals between
    `knots` (increasing from 0 or rho0/2), resolving e^{py} J(y) for p in
    p_ends down to e^floor.  Singular kernels take y = u^2 on the first
    interval, down to u = _U_MIN."""
    ends = list(zip(knots[:-1], knots[1:]))
    if singular:
        ends[0] = (_U_MIN, math.sqrt(knots[1]))
    # geometric panels whose end points differ by a factor 2 at most ...
    parts = [np.geomspace(u, v, math.ceil(math.log2(v / u)) + 1)
             if u > 0 and v > 2 * u else np.array([u, v]) for u, v in ends]
    a = np.concatenate([e[:-1] for e in parts])
    b = np.concatenate([e[1:] for e in parts])
    sq = np.arange(a.size) < (parts[0].size - 1 if singular else 0)
    # ... halved where ln(e^{py} J) spreads by more than _SPAN at an end
    # of the p range, unless negligible there; the panels negligible at
    # both ends (and so for every p between) are dropped: the tail cut
    for _ in range(64):
        v = a[:, None] + (b - a)[:, None] * _SAMPLES
        t = np.where(sq[:, None], v * v, v)
        phi = np.stack([side * p * t + k.log_density_1d(side * t)
                        for p in p_ends])
        top = phi.max(axis=-1)
        tiny = (top + np.log(t[:, -1] - t[:, 0])
                + 2 * np.log(np.maximum(t[:, -1], 1.0)) < floor)
        fine = tiny | (top - phi.min(axis=-1) <= _SPAN)
        keep = ~tiny.all(axis=0)
        split = keep & ~fine.all(axis=0)
        whole = keep & ~split
        mid = 0.5 * (a + b)
        a = np.concatenate([a[whole], a[split], mid[split]])
        b = np.concatenate([b[whole], mid[split], b[split]])
        sq = np.concatenate([sq[whole], sq[split], sq[split]])
        if not split.any():
            break
        if a.size > _MAX_PANELS:
            raise NonConvergence("the H quadrature needs too many panels")
    else:
        raise NonConvergence("the H quadrature panels did not settle")
    if b.size and b.max() >= _FAR:
        raise NonConvergence(
            "no tail cut: p too close to the critical exponent or kernel "
            "decay too slow")
    half = 0.5 * (b - a)[:, None]
    v = 0.5 * (a + b)[:, None] + half * _GL_X
    w = half * _GL_W
    sq = sq[:, None]
    return np.where(sq, v * v, v).ravel(), np.where(sq, 2 * v * w, w).ravel()


def _rung(p, edge):
    """p >= 0 rounded up to the ladder 2^{j/4}, or edge (1 - 2^{-j/4})
    below a finite domain edge: batches whose p ranges round to the same
    rungs share one quadrature rule, valid for every p inside them."""
    if p > 0 and math.isfinite(edge):
        return edge * (1 - 2 ** (-math.ceil(-4 * math.log2(1 - p / edge)) / 4))
    return 2 ** (math.ceil(4 * math.log2(p)) / 4) if p > 0 else 0.0


def _rule_1d(params, p_lo, p_hi, essential):
    """Nodes y, weights w, ln J and J at the nodes for the 1-D integral
    over the line (over |y| > rho0/2 if essential), for every p in
    [p_lo, p_hi] (p_lo <= 0 <= p_hi)."""
    k = params.kernel
    singular = k.singularity_exponent > 0 and not essential
    start = k.rho0 / 2 if essential else 0.0
    floor = _LOG_TINY + float(np.max(k.log_density_1d(
        np.array([-0.5, 0.5]) * k.rho0)))
    ys, ws = [], []
    for side, edge in ((1.0, k.support[1]), (-1.0, -k.support[0])):
        edge = min(edge, _FAR)
        if edge <= start:
            continue
        cuts = {params.delta_split, 1.0, k.rho0 / 2}
        cuts |= {side * j for j in k.jumps if side * j > 0}
        knots = sorted({start, edge} | {c for c in cuts if start < c < edge})
        t, w = _side_rule(k, side, knots, singular, (p_lo, p_hi), floor)
        ys.append(side * t)
        ws.append(w)
    y = np.concatenate(ys)
    lj = k.log_density_1d(y)
    return y, np.concatenate(ws), lj, np.exp(lj)


def _jump_moments(params, ps, moments, essential):
    """The jump integrals of H, H', H'' (or H^ess and its derivative) for
    every p in ps, as an array (len(moments), len(ps))."""
    k = params.kernel
    lo, hi = k.p_domain
    key = (essential, -_rung(-min(ps.min(), 0.0), -lo),
           _rung(max(ps.max(), 0.0), hi))
    if key not in params._rules:
        if len(params._rules) >= _RULES_KEPT:
            del params._rules[next(iter(params._rules))]
        params._rules[key] = _rule_1d(params, key[1], key[2], essential)
    y, w, lj, jv = params._rules[key]
    c = (np.abs(y) < 1.0) & params.compensated & (not essential)
    out = np.empty((len(moments), ps.size))
    rows = max(1, _CHUNK // max(y.size, 1))
    for i in range(0, ps.size, rows):
        p = ps[i:i + rows, None]
        x = p * y
        z = x + lj
        if z.max() > 709.0:
            raise NonConvergence(
                "e^{py} J(y) overflows; H out of float range")
        e = np.exp(z)
        if not essential:
            # where |p y| is small, e^{py} - 1 (- p y) from its series
            near = np.nonzero(np.abs(x) < 0.1)
            xs, cs, js = x[near], c[near[1]], jv[near[1]]
            em1 = np.expm1(xs)
        for j, m in enumerate(moments):
            if essential:
                f = e * y if m == 1 else e
            elif m == 0:
                f = e - jv - c * x * jv
                series = np.polyval(_EXPM1MX, xs) * xs * xs
                f[near] = js * np.where(cs, series, em1)
            elif m == 1:
                f = y * (e - c * jv)
                f[near] = np.where(cs, y[near[1]] * js * em1, f[near])
            else:
                f = y * y * e
            # a row sum in fixed order: a p's value does not depend on the
            # chunk it lands in
            out[j, i:i + rows] = (f * w).sum(axis=1)
    s, eps = k.singularity_exponent, _U_MIN ** 2
    for side in ((1.0, -1.0) if s > 0 and not essential else ()):
        # int over (0, eps) on this side of the leading-order integrand
        # c_m y^n J(y), with J(y) ~ J(side eps) (|y|/eps)^{-1-s}
        j_eps = math.exp(float(k.log_density_1d(side * eps)))
        for j, m in enumerate(moments):
            n = 2 if (m == 2 or params.compensated) else 1
            coef = {0: 0.5 * ps * ps if params.compensated else ps,
                    1: ps if params.compensated else 1.0, 2: 1.0}[m]
            out[j] += coef * side ** n * j_eps * eps ** (n + 1) / (n - s)
    return out


# ---------------------------------------------------------------------------
# 2-D radial integrals (symmetric kernels)
# ---------------------------------------------------------------------------

def _bessel_term(n, x):
    """I_n(x) computed safely; returns ln of it when large via pair
    (value, is_log)."""
    if x < 650.0:
        return float(iv(n, x)), False
    return math.log(float(ive(n, x))) + x, True


def _radial_integral_2d(kernel, pr, weight, angular):
    """int_0^inf  r^weight J(r) G(pr * r) dr  with G an angular factor.

    angular: 'i0m1' -> 2 pi (I0(x)-1); 'i1' -> 2 pi I1(x);
             'i0pi2' -> pi (I0+I2); 'i0mi2' -> pi (I0-I2)
    """
    lr = kernel.log_radial_density
    s = kernel.singularity_exponent
    sup = kernel.support[1]

    def G(x):
        if angular == "i0m1":
            if x < 1e-4:
                return (x * x / 4 + x**4 / 64, False)
            v, is_log = _bessel_term(0, x)
            return (v - 1.0, False) if not is_log else (v, True)
        if angular == "i1":
            return _bessel_term(1, x)
        if angular == "i0pi2":
            v0, l0 = _bessel_term(0, x)
            v2, l2 = _bessel_term(2, x)
            if not l0:
                return v0 + v2, False
            return v0 + math.log1p(math.exp(v2 - v0)), True
        v0, l0 = _bessel_term(0, x)
        v2, l2 = _bessel_term(2, x)
        if not l0:
            return v0 - v2, False
        return v0 + math.log(-math.expm1(v2 - v0)), True

    fac = 2 * math.pi if angular in ("i0m1", "i1") else math.pi

    def f(r):
        if r <= 0:
            return 0.0
        lj = float(lr(r))
        if lj == -math.inf:
            return 0.0
        gv, is_log = G(pr * r)
        base = weight * math.log(r) + lj
        if not is_log:
            return fac * math.exp(base) * gv
        if base + gv > 709:
            raise NonConvergence("2-D integrand overflows")
        return fac * math.exp(base + gv)

    delta = 1e-3 if s > 0 else min(kernel.rho0 / 2, 0.5)
    total = 0.0
    if s > 0:
        su = math.sqrt(delta)
        total += _quad(lambda u: f(u * u) * 2 * u, 0.0, su)
    else:
        total += _quad(f, 0.0, delta)
    if math.isfinite(sup):
        total += _quad(f, delta, sup)
    else:
        M = _tail_cut_radial(kernel, pr)
        total += _quad(f, delta, 1.0)
        total += _quad_geom(f, 1.0, M)
    return total


def _tail_cut_radial(kernel, pr, tol=1e-18):
    lr = kernel.log_radial_density
    M = max(4.0, 2 * kernel.rho0)
    for _ in range(200):
        t = pr * M + float(lr(M)) + math.log(max(M, 1.0))
        if t < math.log(tol):
            return M
        M *= 1.4
        if M > 1e9:
            raise NonConvergence("2-D tail cutoff search failed")
    raise NonConvergence("2-D tail cutoff search failed")


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def eval_batch(params: HamiltonianParams, ps, moments=(0,),
               essential=False):
    """H (moment 0), H' (1) and H'' (2) at every p of a 1-D array, shape
    (len(moments), len(ps)); essential=True gives H^ess and its derivative
    (moments 0, 1) instead, without the local terms."""
    if params.dimension != 1:
        raise ValidationError("the batched evaluator is one-dimensional")
    ps = np.asarray(ps, dtype=float).ravel()
    k = params.kernel
    if (not set(moments) <= ({0, 1} if essential else {0, 1, 2})
            or essential and k is None):
        raise ValidationError(f"no moments {moments} of "
                              f"{'H^ess' if essential else 'H'} here")
    if not np.isfinite(ps).all():
        raise ValidationError("p must be finite")
    out = np.zeros((len(moments), ps.size))
    if ps.size == 0:
        return out
    if k is not None:
        _check_domain(k, ps)
        out += _jump_moments(params, ps, moments, essential)
    if not essential:
        a, b = float(params.A[0, 0]), float(params.B[0])
        local = {0: (a * ps + b) * ps, 1: 2 * a * ps + b, 2: 2 * a}
        for j, m in enumerate(moments):
            out[j] += local[m]
    return out


def eval_h(params: HamiltonianParams, p):
    """H(p)."""
    p = _as_point(params, p)
    if params.dimension == 1:
        return float(eval_batch(params, p)[0, 0])
    k = params.kernel
    quad_part = float(p @ params.A @ p + params.B @ p)
    if k is None:
        return quad_part
    pr = _radius(k, p)
    # angular average of the compensator vanishes for radial kernels
    return quad_part + _radial_integral_2d(k, pr, 1, "i0m1")


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
    half, pr = k.rho0 / 2, _radius(k, p)
    lrd, sup = k.log_radial_density, k.support[1]

    def g(r):
        lj = float(lrd(r))
        if lj == -math.inf:
            return 0.0
        v0, is_log = _bessel_term(0, pr * r)
        if is_log:
            return 2 * math.pi * math.exp(math.log(r) + lj + v0)
        return 2 * math.pi * r * math.exp(lj) * v0

    b = sup if math.isfinite(sup) else _tail_cut_radial(k, pr)
    return _quad(g, half, b)


def grad_h(params: HamiltonianParams, p):
    """DH(p) as an (N,) array."""
    p = _as_point(params, p)
    if params.dimension == 1:
        return eval_batch(params, p, (1,))[0]
    k = params.kernel
    lin = 2.0 * params.A @ p + params.B
    if k is None:
        return lin
    pr = _radius(k, p)
    if pr == 0.0:
        return lin
    mag = _radial_integral_2d(k, pr, 2, "i1")
    return lin + mag * (p / pr)


def hess_quadform(params: HamiltonianParams, p, nu):
    """<D^2 H(p) nu, nu> for a direction nu."""
    p = _as_point(params, p)
    nu = _as_point(params, nu, "nu")
    if params.dimension == 1:
        return float(nu[0] ** 2 * eval_batch(params, p, (2,))[0, 0])
    quad_part = float(2.0 * nu @ params.A @ nu)
    k = params.kernel
    if k is None:
        return quad_part
    pr = _radius(k, p)
    if pr == 0.0:
        iso = _radial_integral_2d(k, 0.0, 3, "i0mi2")
        return quad_part + float(nu @ nu) * iso
    phat = p / pr
    c_par = float(nu @ phat)
    c_perp2 = float(nu @ nu) - c_par**2
    t_par = _radial_integral_2d(k, pr, 3, "i0pi2")
    t_perp = _radial_integral_2d(k, pr, 3, "i0mi2")
    return quad_part + c_par**2 * t_par + max(c_perp2, 0.0) * t_perp


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
            symmetric=(k is None or k.symmetric) and
                      np.allclose(params.B, 0.0) and
                      np.allclose(params.A, params.A[0, 0] *
                                  np.eye(params.dimension)),
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
    """H and H' on increasing 1-D knots, filled by one batched call;
    `slopes` holds H' of the linear interpolant of H, one per cell."""

    def __init__(self, h: Hamiltonian, ps):
        self.ps = np.asarray(ps, dtype=float)
        self.Hv, self.Hg = h.batch(self.ps, (0, 1))
        self.slopes = np.diff(self.Hv) / np.diff(self.ps)

    def speed(self, lo, hi):
        """max |H'| of the interpolant over the slopes in [lo, hi]."""
        cells = np.searchsorted(self.ps, (lo, hi)) - 1
        np.clip(cells, 0, len(self.slopes) - 1, out=cells)
        return float(np.max(np.abs(self.slopes[cells])))


def first_reach(h: Hamiltonian, side, bound, good):
    """Smallest t in (0, bound] at which good(H(side t), H'(side t)) holds
    (vectorised; once true it stays true as t grows), or `bound` when it
    never holds before the last _DOMAIN_MARGIN of a finite bound.

    Tables of H and H' probe a finite bound at halving distances to it,
    an infinite one by doubling from 1 (one p at a time: a table far past
    the crossing could overflow); four rounds re-tabulate the bracketing
    cell at 64 points, so the point returned lies past the crossing by at
    most 64^-4 of the first bracket.
    """
    def holds(ts):
        return good(*h.batch(side * np.asarray(ts, dtype=float), (0, 1)))

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
                raise NonConvergence("H' never reaches the target")
    for _ in range(4):
        ts = np.linspace(lo, hi, 65)[1:]
        ok = holds(ts)
        i = int(np.argmax(ok)) if ok.any() else len(ts) - 1
        lo, hi = (ts[i - 1] if i else lo), ts[i]
    return float(hi)
