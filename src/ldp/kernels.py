"""Jump kernel families and their tail classification.

A kernel is the density J of a (possibly singular) Levy measure on R^N,
N in {1, 2}.  Each kernel carries:

* an inner support radius ``rho0`` (J is positive on the ball B_rho0),
* a singularity exponent ``s`` in [0, 2) describing the blow-up of J at the
  origin (s = 0 means J is integrable near 0),
* a tail class: Compact (support contained in a ball), Intermediate
  (decay faster than every exponential but with full support), or Critical
  (exponential moments finite exactly up to a threshold beta0).

The tail class decides which asymptotic machinery downstream modules may
apply (K-transform inversion, gradient-constrained solvers, predicted
truncation exponents).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma

from .errors import ValidationError

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
    radial_density: Optional[Callable]  # r >= 0 -> J(|y| = r); None if not radial
    density_1d: Optional[Callable]      # y in R -> J(y); None unless N == 1
    log_radial_density: Optional[Callable]  # r -> ln J(r), -inf off support
    log_density_1d: Optional[Callable]      # y -> ln J(y), -inf off support
    symmetric: bool
    singularity_exponent: float
    rho0: float
    tail: object
    mass: Optional[float]               # total mass if finite and known
    support: tuple                      # 1-D interval / radial (-R, R)
    p_domain: tuple                     # finiteness interval of p -> int e^{py} J
    scale: float = 1.0
    jumps: tuple = ()   # points on a line through 0 where J jumps or kinks

    def density(self, y):
        """Evaluate J at points y (scalar, 1-D array, or (m, N) array)."""
        y = np.asarray(y, dtype=float)
        if self.dimension == 1:
            return self.density_1d(y)
        r = np.linalg.norm(np.atleast_2d(y), axis=-1)
        return self.radial_density(r)

    def log_density(self, y):
        """ln J at points y; -inf off the support.  Evaluated analytically
        per family so that e^{p.y} J(y) can be formed in log space."""
        y = np.asarray(y, dtype=float)
        if self.dimension == 1:
            return self.log_density_1d(y)
        r = np.linalg.norm(np.atleast_2d(y), axis=-1)
        return self.log_radial_density(r)

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


def _check_params(family, params, allowed, required):
    unknown = set(params) - set(allowed)
    _require(not unknown, f"{family}: unknown parameter(s) {sorted(unknown)}")
    missing = set(required) - set(params)
    _require(not missing, f"{family}: missing parameter(s) {sorted(missing)}")


def build_kernel(family, dimension=1, params=None, rho0=None):
    """Construct a kernel from a family name and parameters.

    rho0 defaults to half the support radius for compact families and to 1
    for families with unbounded support.
    """
    params = dict(params or {})
    _require(family in _FAMILIES, f"unknown kernel family '{family}'")
    _require(dimension in (1, 2), "dimension must be 1 or 2")

    if family == "asymmetric_1d_demo":
        _check_params(family, params, (), ())
        _require(dimension == 1, "asymmetric_1d_demo is one-dimensional")

        def dens(y):
            y = np.asarray(y, dtype=float)
            left = 0.5 * np.exp(-np.abs(y)) * (y < 0)
            right = 0.5 * ((y >= 0) & (y <= 1.0))
            return left + right

        def log_dens(y):
            y = np.asarray(y, dtype=float)
            out = np.where(y < 0, math.log(0.5) - np.abs(y),
                           np.where(y <= 1.0, math.log(0.5), -np.inf))
            return out

        k = Kernel(
            family=family, dimension=1, params=params,
            radial_density=None, density_1d=dens,
            log_radial_density=None, log_density_1d=log_dens,
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

        def radial(r):
            r = np.asarray(r, dtype=float)
            return c * (r <= rho)

        def log_radial(r):
            r = np.asarray(r, dtype=float)
            return np.where(r <= rho, math.log(c), -np.inf)

        return _radial_kernel(family, dimension, params, radial, log_radial,
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

        def radial(r):
            r = np.asarray(r, dtype=float)
            base = c * (r <= rho)
            return np.where((r > a) & (r < b), f * base, base)

        def log_radial(r):
            r = np.asarray(r, dtype=float)
            base = np.where(r <= rho, math.log(c), -np.inf)
            return np.where((r > a) & (r < b), math.log(f) + base, base)

        if dimension == 1:
            total = c * (2 * rho - 2 * (b - a) * (1 - f))
        else:
            total = c * math.pi * (rho**2 - (b**2 - a**2) * (1 - f))
        return _radial_kernel(family, dimension, params, radial, log_radial,
                              s=0.0, support_radius=rho,
                              rho0=rho / 2 if rho0 is None else rho0,
                              tail=CompactTail(rho=rho), mass=total,
                              p_domain=(-math.inf, math.inf),
                              jump_radii=(a, b) if a < b and f != 1 else ())

    if family == "exp_power":
        _check_params(family, params, ("alpha",), ("alpha",))
        alpha = float(params["alpha"])
        _require(alpha > 1.0, "exp_power requires alpha > 1")

        def radial(r):
            r = np.asarray(r, dtype=float)
            return np.exp(-np.abs(r) ** alpha)

        def log_radial(r):
            r = np.asarray(r, dtype=float)
            return -np.abs(r) ** alpha

        if dimension == 1:
            mass = 2 * _gamma(1 + 1 / alpha)
        else:
            mass = 2 * math.pi * _gamma(2 / alpha) / alpha
        return _radial_kernel(family, dimension, params, radial, log_radial,
                              s=0.0, support_radius=math.inf,
                              rho0=1.0 if rho0 is None else rho0,
                              tail=IntermediateTail(), mass=mass,
                              p_domain=(-math.inf, math.inf))

    if family == "exp_linear":
        _check_params(family, params, ("alpha",), ("alpha",))
        alpha = float(params["alpha"])
        _require(alpha > 0, "exp_linear requires alpha > 0")
        c = alpha / 2 if dimension == 1 else alpha**2 / (2 * math.pi)

        def radial(r):
            r = np.asarray(r, dtype=float)
            return c * np.exp(-alpha * np.abs(r))

        def log_radial(r):
            r = np.asarray(r, dtype=float)
            return math.log(c) - alpha * np.abs(r)

        return _radial_kernel(family, dimension, params, radial, log_radial,
                              s=0.0, support_radius=math.inf,
                              rho0=1.0 if rho0 is None else rho0,
                              tail=CriticalTail(beta0=alpha), mass=1.0,
                              p_domain=(-alpha, alpha))

    if family == "super_exp":
        _check_params(family, params, (), ())

        def radial(r):
            r = np.asarray(r, dtype=float)
            return np.exp(-np.exp(np.minimum(np.abs(r), 700.0)))

        def log_radial(r):
            r = np.asarray(r, dtype=float)
            return -np.exp(np.minimum(np.abs(r), 700.0))

        if dimension == 1:
            mass = 2 * quad(lambda r: math.exp(-math.exp(r)), 0, 40)[0]
        else:
            mass = 2 * math.pi * quad(
                lambda r: r * math.exp(-math.exp(r)), 0, 40)[0]
        return _radial_kernel(family, dimension, params, radial, log_radial,
                              s=0.0, support_radius=math.inf,
                              rho0=1.0 if rho0 is None else rho0,
                              tail=IntermediateTail(), mass=mass,
                              p_domain=(-math.inf, math.inf))

    if family == "tempered_stable":
        _check_params(family, params, ("alpha", "lam"), ("alpha", "lam"))
        alpha = float(params["alpha"])
        lam = float(params["lam"])
        _require(0 < alpha < 2, "tempered_stable requires alpha in (0, 2)")
        _require(lam > 0, "tempered_stable requires lam > 0")
        N = dimension

        def radial(r):
            r = np.abs(np.asarray(r, dtype=float))
            with np.errstate(divide="ignore"):
                return np.exp(-lam * r) / np.maximum(r, 1e-300) ** (N + alpha)

        def log_radial(r):
            r = np.abs(np.asarray(r, dtype=float))
            with np.errstate(divide="ignore"):
                return -lam * r - (N + alpha) * np.log(np.maximum(r, 1e-300))

        return _radial_kernel(family, dimension, params, radial, log_radial,
                              s=alpha, support_radius=math.inf,
                              rho0=1.0 if rho0 is None else rho0,
                              tail=CriticalTail(beta0=lam), mass=None,
                              p_domain=(-lam, lam))

    raise AssertionError("unreachable")


def _radial_kernel(family, dimension, params, radial, log_radial, s,
                   support_radius, rho0, tail, mass, p_domain, jump_radii=()):
    _require(rho0 > 0, "rho0 must be positive")
    if math.isfinite(support_radius):
        _require(rho0 <= support_radius,
                 "rho0 cannot exceed the support radius")

    def dens1d(y):
        return radial(np.abs(np.asarray(y, dtype=float)))

    def log_dens1d(y):
        return log_radial(np.abs(np.asarray(y, dtype=float)))

    return Kernel(
        family=family, dimension=dimension, params=params,
        radial_density=radial,
        density_1d=dens1d if dimension == 1 else None,
        log_radial_density=log_radial,
        log_density_1d=log_dens1d if dimension == 1 else None,
        symmetric=True, singularity_exponent=s, rho0=rho0, tail=tail,
        mass=mass, support=(-support_radius, support_radius),
        p_domain=p_domain,
        jumps=tuple(sorted({sign * r for r in jump_radii
                            for sign in (-1.0, 1.0)})),
    )


def scaled_kernel(kernel, c):
    """Return the kernel with density multiplied by a constant c > 0.

    Scaling does not change the tail class: for intermediate kernels the
    shift of -ln J by ln c is O(1/|y|) in omega and is ignored.
    """
    _require(c > 0, "scale factor must be positive")
    lc = math.log(c)
    radial = kernel.radial_density
    d1 = kernel.density_1d
    lr = kernel.log_radial_density
    l1 = kernel.log_density_1d
    return replace(
        kernel,
        radial_density=(lambda r, _f=radial: c * _f(r)) if radial else None,
        density_1d=(lambda y, _f=d1: c * _f(y)) if d1 else None,
        log_radial_density=(lambda r, _f=lr: lc + _f(r)) if lr else None,
        log_density_1d=(lambda y, _f=l1: lc + _f(y)) if l1 else None,
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
        dimension=int(spec.get("dimension", 1)),
        params=spec.get("params", {}),
        rho0=spec.get("rho0"),
    )


def load_kernel(path):
    with open(path) as fh:
        return kernel_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def levy_integral(kernel, inner=1e-8, outer=None):
    """Numerical check of int min(1, |y|^2) J(y) dy (finite for every
    shipped kernel; the value is a diagnostic, not a normalization)."""
    radial = kernel.radial_density
    if radial is None:  # asymmetric 1-D
        f = kernel.density_1d
        lo, hi = kernel.support
        lo = max(lo, -80.0)
        hi = min(hi, 80.0)
        val = quad(lambda y: min(1.0, y * y) * float(f(y)), lo, -inner,
                   points=[-1.0], limit=200)[0]
        val += quad(lambda y: min(1.0, y * y) * float(f(y)), inner, hi,
                    points=[1.0] if hi > 1 else None, limit=200)[0]
        return val
    N = kernel.dimension
    surf = 2.0 if N == 1 else 2 * math.pi
    hi = kernel.support[1] if outer is None else outer
    hi = min(hi, 80.0)

    def g(r):
        w = r if N == 2 else 1.0
        return min(1.0, r * r) * float(radial(r)) * w

    val = quad(g, inner, min(1.0, hi), limit=200)[0]
    if hi > 1.0:
        val += quad(g, 1.0, hi, limit=200)[0]
    return surf * val


def tail_reach(kernel, tol=1e-16):
    """Radius beyond which the kernel tail mass is below tol."""
    if kernel.is_compact:
        return kernel.tail.rho
    if kernel.family == "asymmetric_1d_demo":
        # left tail (1/2) e^{y}: mass beyond -R is e^{-R}/2
        return max(1.0, math.log(0.5 / tol))
    radial = kernel.radial_density
    N = kernel.dimension
    surf = 2.0 if N == 1 else 2 * math.pi
    R = max(2.0, 2 * kernel.rho0)
    for _ in range(60):
        def g(r):
            w = r if N == 2 else 1.0
            return float(radial(r)) * w
        tail = surf * quad(g, R, R + 200.0, limit=200)[0]
        if tail < tol:
            return R
        R *= 1.5
    return R


# ---------------------------------------------------------------------------
# Essential ordering
# ---------------------------------------------------------------------------

def _low_discrepancy(n, lo, hi, seed=0):
    u = ((np.arange(n) + seed + 1) * _GOLDEN) % 1.0
    return lo + (hi - lo) * u


def is_essentially_ordered(k1, k2, samples=10000, seed=0):
    """Check J1 <= J2 everywhere with strict inequality on some annulus
    {a < |y| < b}, rho0/2 < a < b < rho0.

    Returns (ordered, witness) where witness is the annulus (a, b) if
    ordered, else None.  Sampling is deterministic (low-discrepancy radii).
    """
    _require(k1.dimension == k2.dimension,
             "ordering requires kernels of equal dimension")
    _require(abs(k1.rho0 - k2.rho0) < 1e-12,
             "ordering requires kernels sharing rho0")

    span1 = k1.support[1] if math.isfinite(k1.support[1]) else 80.0
    span2 = k2.support[1] if math.isfinite(k2.support[1]) else 80.0
    span = max(span1, span2)
    radii = _low_discrepancy(samples, 1e-9, span, seed=seed)

    def j_at(k, y):
        return k.density(y)

    if k1.dimension == 1:
        pts = np.concatenate([radii, -radii])
    else:
        # radial kernels: radii suffice
        pts = radii if (k1.symmetric and k2.symmetric) else None
        if pts is None:
            raise ValidationError("2-D ordering needs radial kernels")
        v1 = k1.radial_density(pts)
        v2 = k2.radial_density(pts)
        if np.any(v1 > v2 * (1 + 1e-12) + 1e-300):
            return False, None
        return _find_witness_annulus(k1, k2)

    v1 = j_at(k1, pts)
    v2 = j_at(k2, pts)
    if np.any(v1 > v2 * (1 + 1e-12) + 1e-300):
        return False, None
    return _find_witness_annulus(k1, k2)


def _find_witness_annulus(k1, k2, subdivisions=8, per_cell=64):
    lo = k1.rho0 / 2
    hi = k1.rho0
    edges = np.linspace(lo, hi, subdivisions + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        r = _low_discrepancy(per_cell, a + 1e-12, b - 1e-12)
        if k1.dimension == 1:
            pts = np.concatenate([r, -r])
        else:
            pts = r
        if k1.dimension == 1:
            v1, v2 = k1.density(pts), k2.density(pts)
        else:
            v1, v2 = k1.radial_density(pts), k2.radial_density(pts)
        gap = v2 - v1
        scale = np.maximum(np.abs(v2), 1e-300)
        if np.all(gap > 1e-13 * scale):
            return True, (float(a), float(b))
    return False, None
