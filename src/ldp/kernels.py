"""Jump kernel families, their tail classification, and the quadrature of J.

A kernel is the log-density ln J of a (possibly singular) Levy measure on
R^N, N in {1, 2}, given once per family along a ray from the origin: at
the signed y in 1-D, at the radius r in 2-D, -inf off the support.  Each
kernel carries:

* an inner support radius ``rho0`` (J is positive on the ball B_rho0),
* a singularity exponent ``s`` in [0, 2) describing the blow-up of J at the
  origin (s = 0 means J is integrable near 0),
* a tail class: Compact (support contained in a ball), Intermediate
  (decay faster than every exponential but with full support), or Critical
  (exponential moments finite exactly up to a threshold beta0).

The tail class decides which asymptotic machinery downstream modules may
apply (K-transform inversion, gradient-constrained solvers, predicted
truncation exponents).

Every integral of J runs on one family of fixed Gauss-Legendre panels along
the kernel's rays (`_ray_rule`): the H engine of `ldp.hamiltonian`, and here
the masses, `levy_integral`, `tail_reach` and the small-ball moments of
the nonlocal stencil (`_ray_integrals`).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergence, ValidationError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CompactTail:
    rho: float


@dataclass(frozen=True)
class IntermediateTail:
    """Unbounded support, yet -ln J(r) / r grows without bound."""


@dataclass(frozen=True)
class CriticalTail:
    beta0: float


@dataclass(frozen=True)
class Kernel:
    family: str
    dimension: int
    params: dict
    log_j: Callable     # ln J along a ray: signed y in 1-D, radius r in 2-D
    #                     (-inf off the support)
    symmetric: bool
    singularity_exponent: float
    rho0: float
    tail: object
    mass: Optional[float]               # total mass if finite and known
    support: tuple                      # 1-D interval / radial (-R, R)
    p_domain: tuple                     # finiteness interval of p -> int e^{py} J
    scale: float = 1.0
    jumps: tuple = ()   # points on a line through 0 where J jumps or kinks

    def log_density(self, y):
        """ln J at points y (scalar or array in 1-D, (..., 2) array in 2-D);
        -inf off the support."""
        y = np.asarray(y, dtype=float)
        if self.dimension == 2:
            y = np.hypot(y[..., 0], y[..., 1])
        return self.log_j(y)

    def density(self, y):
        """J at points y, as exp(log_density) (inf at a singular origin)."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_density(y))

    @property
    def is_compact(self):
        return isinstance(self.tail, CompactTail)

    @property
    def is_critical(self):
        return isinstance(self.tail, CriticalTail)


_FAMILIES = {
    "compact_uniform",
    "compact_custom",
    "exp_power",
    "exp_linear",
    "super_exp",
    "tempered_stable",
    "asymmetric_1d_demo",
}


def _require(cond, msg):
    if not cond:
        raise ValidationError(msg)


def _finite_real(v):
    """v is a real number, not a bool, that is a finite float."""
    try:
        return (isinstance(v, numbers.Real) and not isinstance(v, bool)
                and math.isfinite(v))
    except OverflowError:       # an int past the float range
        return False


def _check_params(family, params, allowed, required):
    unknown = set(params) - set(allowed)
    _require(not unknown, f"{family}: unknown parameter(s) {sorted(unknown)}")
    missing = set(required) - set(params)
    _require(not missing, f"{family}: missing parameter(s) {sorted(missing)}")


def build_kernel(family, dimension=1, params=None, rho0=None):
    """Construct a kernel from a family name and parameters.

    rho0 defaults to half the support radius for compact families and to 1
    for families with unbounded support.  The family is a name, dimension
    the integer 1 or 2, and every parameter and rho0 a finite real; other
    values raise ValidationError.
    """
    params = {} if params is None else params
    _require(isinstance(family, str) and family in _FAMILIES,
             f"unknown kernel family '{family}'")
    _require(isinstance(dimension, numbers.Integral)
             and not isinstance(dimension, bool) and dimension in (1, 2),
             f"dimension must be the integer 1 or 2, not {dimension!r}")
    _require(isinstance(params, dict), "kernel params must be an object")
    bad = [name for name, v in params.items() if not _finite_real(v)]
    _require(not bad, f"{family}: parameter(s) {bad} must be finite reals")
    _require(rho0 is None or _finite_real(rho0), "rho0 must be a finite real")
    params = dict(params)

    if family == "asymmetric_1d_demo":
        _check_params(family, params, (), ())
        _require(dimension == 1, "asymmetric_1d_demo is one-dimensional")

        def log_j(y):
            y = np.asarray(y, dtype=float)
            return np.where(y < 0, math.log(0.5) - np.abs(y),
                            np.where(y <= 1.0, math.log(0.5), -np.inf))

        k = Kernel(
            family=family, dimension=1, params=params, log_j=log_j,
            symmetric=False,
            singularity_exponent=0.0, rho0=1.0 if rho0 is None else rho0,
            tail=CriticalTail(beta0=1.0), mass=1.0,
            support=(-math.inf, 1.0), p_domain=(-1.0, math.inf),
            jumps=(0.0, 1.0),
        )
        _require(0 < k.rho0 <= 1.0, "rho0 must lie in (0, 1] for this kernel")
        return k

    if family == "compact_uniform":
        _check_params(family, params, ("rho", "mass"), ("rho",))
        rho = float(params["rho"])
        mass = float(params.get("mass", 1.0))
        _require(rho > 0 and mass > 0, "rho and mass must be positive")
        c = mass / (2 * rho) if dimension == 1 else mass / (math.pi * rho**2)
        return _radial_kernel(family, dimension, params,
                              lambda t: np.where(np.abs(t) <= rho,
                                                 math.log(c), -np.inf),
                              s=0.0, support_radius=rho,
                              rho0=rho / 2 if rho0 is None else rho0,
                              tail=CompactTail(rho=rho), mass=mass,
                              p_domain=(-math.inf, math.inf))

    if family == "compact_custom":
        allowed = ("rho", "mass", "dip_a", "dip_b", "dip_factor")
        _check_params(family, params, allowed, ("rho",))
        rho = float(params["rho"])
        mass = float(params.get("mass", 1.0))
        a = float(params.get("dip_a", 0.0))
        b = float(params.get("dip_b", 0.0))
        f = float(params.get("dip_factor", 1.0))
        _require(rho > 0 and mass > 0 and f > 0, "rho, mass, dip_factor > 0")
        _require(0.0 <= a <= b <= rho, "dip annulus must sit inside the support")
        c = mass / (2 * rho) if dimension == 1 else mass / (math.pi * rho**2)

        def log_j(t):
            r = np.abs(t)
            base = np.where(r <= rho, math.log(c), -np.inf)
            return np.where((r > a) & (r < b), math.log(f) + base, base)

        if dimension == 1:
            total = c * (2 * rho - 2 * (b - a) * (1 - f))
        else:
            total = c * math.pi * (rho**2 - (b**2 - a**2) * (1 - f))
        return _radial_kernel(family, dimension, params, log_j,
                              s=0.0, support_radius=rho,
                              rho0=rho / 2 if rho0 is None else rho0,
                              tail=CompactTail(rho=rho), mass=total,
                              p_domain=(-math.inf, math.inf),
                              jump_radii=(a, b) if a < b and f != 1 else ())

    if family == "exp_power":
        _check_params(family, params, ("alpha",), ("alpha",))
        alpha = float(params["alpha"])
        _require(alpha > 1.0, "exp_power requires alpha > 1")
        if dimension == 1:
            mass = 2 * math.gamma(1 + 1 / alpha)
        else:
            mass = 2 * math.pi * math.gamma(2 / alpha) / alpha
        return _radial_kernel(family, dimension, params,
                              lambda t: -np.abs(t) ** alpha,
                              s=0.0, support_radius=math.inf,
                              rho0=1.0 if rho0 is None else rho0,
                              tail=IntermediateTail(), mass=mass,
                              p_domain=(-math.inf, math.inf))

    if family == "exp_linear":
        _check_params(family, params, ("alpha",), ("alpha",))
        alpha = float(params["alpha"])
        _require(alpha > 0, "exp_linear requires alpha > 0")
        c = alpha / 2 if dimension == 1 else alpha**2 / (2 * math.pi)
        return _radial_kernel(family, dimension, params,
                              lambda t: math.log(c) - alpha * np.abs(t),
                              s=0.0, support_radius=math.inf,
                              rho0=1.0 if rho0 is None else rho0,
                              tail=CriticalTail(beta0=alpha), mass=1.0,
                              p_domain=(-alpha, alpha))

    if family == "super_exp":
        _check_params(family, params, (), ())
        k = _radial_kernel(family, dimension, params,
                           lambda t: -np.exp(np.minimum(np.abs(t), 700.0)),
                           s=0.0, support_radius=math.inf,
                           rho0=1.0 if rho0 is None else rho0,
                           tail=IntermediateTail(), mass=None,
                           p_domain=(-math.inf, math.inf))
        return replace(k, mass=float(_ray_integrals(k, 0, (0.0, _FAR))[0]))

    if family == "tempered_stable":
        _check_params(family, params, ("alpha", "lam"), ("alpha", "lam"))
        alpha = float(params["alpha"])
        lam = float(params["lam"])
        _require(0 < alpha < 2, "tempered_stable requires alpha in (0, 2)")
        _require(lam > 0, "tempered_stable requires lam > 0")
        N = dimension

        def log_j(t):
            r = np.abs(t)
            return -lam * r - (N + alpha) * np.log(np.maximum(r, 1e-300))

        return _radial_kernel(family, dimension, params, log_j,
                              s=alpha, support_radius=math.inf,
                              rho0=1.0 if rho0 is None else rho0,
                              tail=CriticalTail(beta0=lam), mass=None,
                              p_domain=(-lam, lam))

    raise AssertionError("unreachable")


def _radial_kernel(family, dimension, params, log_j, s, support_radius,
                   rho0, tail, mass, p_domain, jump_radii=()):
    _require(rho0 > 0, "rho0 must be positive")
    if math.isfinite(support_radius):
        _require(rho0 <= support_radius,
                 "rho0 cannot exceed the support radius")
    return Kernel(
        family=family, dimension=dimension, params=params, log_j=log_j,
        symmetric=True, singularity_exponent=s, rho0=rho0, tail=tail,
        mass=mass, support=(-support_radius, support_radius),
        p_domain=p_domain,
        jumps=tuple(sorted({sign * r for r in jump_radii
                            for sign in (-1.0, 1.0)})),
    )


def scaled_kernel(kernel, c):
    """Return the kernel with density multiplied by a finite constant c > 0
    (ValidationError otherwise).

    Scaling does not change the tail class: for intermediate kernels the
    shift of -ln J by ln c is O(1/|y|) in omega and is ignored.
    """
    _require(0 < c < math.inf, "scale factor must be finite and positive")
    lc = math.log(c)
    return replace(
        kernel,
        log_j=lambda t, _f=kernel.log_j: lc + _f(t),
        mass=None if kernel.mass is None else c * kernel.mass,
        scale=c * kernel.scale,
    )


# ---------------------------------------------------------------------------
# JSON kernel specs
# ---------------------------------------------------------------------------

_SPEC_KEYS = {"family", "dimension", "params", "rho0"}


def kernel_from_dict(spec):
    """Build a kernel from a JSON-style dict.  Unknown keys are rejected."""
    _require(isinstance(spec, dict), "kernel spec must be an object")
    unknown = set(spec) - _SPEC_KEYS
    _require(not unknown, f"kernel spec: unknown key(s) {sorted(unknown)}")
    _require("family" in spec, "kernel spec: 'family' is required")
    return build_kernel(
        spec["family"],
        dimension=spec.get("dimension", 1),
        params=spec.get("params", {}),
        rho0=spec.get("rho0"),
    )


def load_kernel(path):
    """The kernel of the JSON spec at path; a file that cannot be read or
    parsed raises ValidationError."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:     # ValueError: JSONDecodeError
        raise ValidationError(f"cannot read kernel spec {path}: {e}") from e
    return kernel_from_dict(spec)


# ---------------------------------------------------------------------------
# Integrals of J: fixed Gauss-Legendre panels along the kernel's rays
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


def _side_rule(logj, knots, singular, p_ends, floor):
    """Nodes t > 0 and weights along one ray, over the intervals between
    `knots` (increasing from 0 or rho0/2), resolving e^{pt + logj(t)} for
    p in p_ends down to e^floor.  Singular kernels take t = u^2 on the
    first interval, down to u = _U_MIN."""
    ends = list(zip(knots[:-1], knots[1:]))
    if singular:
        ends[0] = (_U_MIN, math.sqrt(knots[1]))
    # geometric panels whose end points differ by a factor 2 at most ...
    parts = [np.geomspace(u, v, math.ceil(math.log2(v / u)) + 1)
             if u > 0 and v > 2 * u else np.array([u, v]) for u, v in ends]
    a = np.concatenate([e[:-1] for e in parts])
    b = np.concatenate([e[1:] for e in parts])
    sq = np.arange(a.size) < (parts[0].size - 1 if singular else 0)
    # ... halved where the log-integrand spreads by more than _SPAN at an
    # end of the p range, unless negligible there; the panels negligible
    # at both ends (and so for every p between) are dropped: the tail cut
    for _ in range(64):
        v = a[:, None] + (b - a)[:, None] * _SAMPLES
        t = np.where(sq[:, None], v * v, v)
        lj = logj(t)
        phi = np.stack([p * t + lj for p in p_ends])
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
            raise NonConvergence("the quadrature of J needs too many panels")
    else:
        raise NonConvergence("the quadrature panels of J did not settle")
    if b.size and b.max() >= _FAR:
        raise NonConvergence(
            "no tail cut: p too close to the critical exponent or kernel "
            "decay too slow")
    half = 0.5 * (b - a)[:, None]
    v = 0.5 * (a + b)[:, None] + half * _GL_X
    w = half * _GL_W
    sq = sq[:, None]
    return np.where(sq, v * v, v).ravel(), np.where(sq, 2 * v * w, w).ravel()


def _rays(k):
    """ln J and the rays from the origin the integrals run along: both
    sides of the line in 1-D, the radii r > 0 in 2-D."""
    return k.log_j, (1.0,) if k.dimension == 2 else (1.0, -1.0)


def _ray_rule(k, knots, singular, p_ends=(0.0,), log_below=math.inf):
    """Nodes y (signed in 1-D, the radii in 2-D) and weights w (with the
    polar 2 pi r in 2-D) for the integral over knots[0] <= |y| <= knots[-1]
    of e^{p.y} times J and powers of |y| up to 2, for every p in p_ends
    (in 2-D p is |p|).  The panels are cut at the knots between, at the
    support edges, the kernel's jumps, |y| = 1 and rho0/2, and dropped
    below 1e-24 of J(rho0/2) and of e^log_below; singular kernels take
    y = u^2 on the first interval."""
    lnj, sides = _rays(k)
    radial = k.dimension == 2
    start, stop = knots[0], knots[-1]

    def logj(t, side):
        # the panel tests bound the integrand by t^2 e^{pt} J in 1-D; in
        # 2-D the polar r adds a factor, bounded by max(r, 1)
        out = lnj(side * t)
        return out + np.log(np.maximum(t, 1.0)) if radial else out

    floor = _LOG_TINY + min(log_below, max(float(logj(k.rho0 / 2, side))
                                           for side in sides))
    # a symmetric 1-D kernel on a p range closed under negation: the rule
    # of the side y < 0 is the mirror image of the side y > 0
    mirror = (k.symmetric and not radial
              and sorted(p_ends) == sorted(-p for p in p_ends))
    ys, ws = [np.zeros(0)], [np.zeros(0)]
    for side in sides[:1] if mirror else sides:
        edge = min(side * k.support[side > 0], stop)
        if edge <= start:
            continue
        cuts = {1.0, k.rho0 / 2, *knots} | {side * j for j in k.jumps}
        ts = sorted({start, edge} | {c for c in cuts if start < c < edge})
        t, w = _side_rule(lambda t: logj(t, side), ts, singular,
                          [side * p for p in p_ends], floor)
        ys.append(side * t)
        ws.append(w)
    if mirror:
        ys.append(-ys[-1])
        ws.append(ws[-1])
    y, w = np.concatenate(ys), np.concatenate(ws)
    return y, 2 * math.pi * y * w if radial else w


def _ray_integrals(k, n, knots, log_below=math.inf):
    """int y^n J(y) dy over each shell knots[i] < |y| < knots[i + 1]
    (increasing knots >= 0; y^n signed in 1-D), down to 1e-24 of J(rho0/2)
    and of e^log_below.  From knots[0] = 0 a singular kernel (n > s) adds
    the leading-order integral below _U_MIN^2."""
    singular = k.singularity_exponent > 0 and knots[0] == 0
    y, w = _ray_rule(k, knots, singular, log_below=log_below)
    f = y ** n * np.exp(k.log_j(y)) * w
    shell = np.searchsorted(knots, np.abs(y)) - 1
    # one sum per side: for a symmetric kernel odd n cancels exactly
    out = sum(np.bincount(shell[half], f[half], minlength=len(knots) - 1)
              for half in (y > 0, y < 0))
    if singular:
        s, eps = k.singularity_exponent, _U_MIN ** 2
        lnj, sides = _rays(k)
        for side in sides:
            # J(y) ~ J(side eps) (|y| / eps)^{-N-s}; in 2-D the polar r
            # adds 2 pi eps
            j_eps = math.exp(float(lnj(side * eps)))
            if k.dimension == 2:
                j_eps *= 2 * math.pi * eps
            out[0] += side ** n * j_eps * eps ** (n + 1) / (n - s)
    return out


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def levy_integral(kernel):
    """int min(1, |y|^2) J(y) dy on the quadrature panels of J, from the
    origin to the tail cut (finite for every shipped kernel; the value is a
    diagnostic, not a normalization)."""
    return float(_ray_integrals(kernel, 2, (0.0, 1.0))[0]
                 + _ray_integrals(kernel, 0, (1.0, _FAR))[0])


def tail_reach(kernel, tol=1e-16):
    """Radius beyond which the kernel tail mass is below tol: the first
    rung of the ladder max(2, 2 rho0) 1.5^k at which it is."""
    if kernel.is_compact:
        return kernel.tail.rho
    if kernel.family == "asymmetric_1d_demo":
        # left tail (1/2) e^{y}: mass beyond -R is e^{-R}/2
        return max(1.0, math.log(0.5 / tol))
    # R *= 1.5 per rung: base * 1.5**k would round differently
    rungs = np.cumprod([max(2.0, 2 * kernel.rho0)] + [1.5] * 59)
    rungs = rungs[rungs < _FAR]
    mass = _ray_integrals(kernel, 0, [*rungs, _FAR], math.log(tol))
    below = np.flatnonzero(np.cumsum(mass[::-1])[::-1] < tol)
    return float(rungs[below[0]] if below.size else 1.5 * rungs[-1])


# ---------------------------------------------------------------------------
# Essential ordering
# ---------------------------------------------------------------------------

def _low_discrepancy(n, lo, hi, seed=0):
    u = ((np.arange(n) + seed + 1) * _GOLDEN) % 1.0
    return lo + (hi - lo) * u


def _on_rays(k, r):
    """J at the radii r along each of the kernel's rays."""
    lnj, sides = _rays(k)
    return np.exp(np.concatenate([lnj(side * r) for side in sides]))


def is_essentially_ordered(k1, k2, samples=10000, seed=0):
    """Check J1 <= J2 everywhere with strict inequality on some annulus
    {a < |y| < b}, rho0/2 < a < b < rho0.

    Returns (ordered, witness) where witness is the annulus (a, b) if
    ordered, else None.  Sampling is deterministic (low-discrepancy radii
    along the kernels' rays).
    """
    _require(k1.dimension == k2.dimension,
             "ordering requires kernels of equal dimension")
    _require(abs(k1.rho0 - k2.rho0) < 1e-12,
             "ordering requires kernels sharing rho0")
    span = max(k.support[1] if math.isfinite(k.support[1]) else 80.0
               for k in (k1, k2))
    r = _low_discrepancy(samples, 1e-9, span, seed=seed)
    if np.any(_on_rays(k1, r) > _on_rays(k2, r) * (1 + 1e-12) + 1e-300):
        return False, None
    return _find_witness_annulus(k1, k2)


def _find_witness_annulus(k1, k2, subdivisions=8, per_cell=64):
    edges = np.linspace(k1.rho0 / 2, k1.rho0, subdivisions + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        r = _low_discrepancy(per_cell, a + 1e-12, b - 1e-12)
        v1, v2 = _on_rays(k1, r), _on_rays(k2, r)
        if np.all(v2 - v1 > 1e-13 * np.maximum(np.abs(v2), 1e-300)):
            return True, (float(a), float(b))
    return False, None
