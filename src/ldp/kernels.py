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
the nonlocal stencil (`_ray_integrals`).  One bisection refines the panels
of every ray of a rule at once (both sides of the line in 1-D, the radii
in 2-D), and each round tests only the halves the last one made.  The
panels it starts from do not depend on p, so a caller that builds many
rules of one kernel (the H engine, per Hamiltonian) keeps them.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

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


_TOO_MANY = "the quadrature of J needs too many panels"
_UNSETTLED = "the quadrature panels of J did not settle"
_NO_TAIL_CUT = ("no tail cut: p too close to the critical exponent or kernel "
                "decay too slow")


class _Panels(NamedTuple):
    """The panels a rule starts from on the rays `sides` (their signs),
    none of which depends on p: ends a, b, the flags sq of the panels that
    take t = u^2, the index of each panel's ray (None for one ray), the
    terms of `_samples`, and ref, the largest ln J at rho0/2 along the
    kernel's rays."""
    sides: tuple
    a: np.ndarray
    b: np.ndarray
    sq: np.ndarray
    ray: Optional[np.ndarray]
    t: np.ndarray
    lj: np.ndarray
    log_width: np.ndarray
    log_t2: np.ndarray
    ref: float


def _first_panels(k, knots, singular, sides):
    """The _Panels of a rule over `knots` on the rays `sides`: on each ray
    whose support edge passes knots[0], geometric panels between the cuts
    (the knots between, the support edge, the kernel's jumps, |y| = 1 and
    rho0/2) whose end points differ by a factor 2 at most; singular
    kernels take t = u^2 on the first interval, down to u = _U_MIN."""
    start, stop = knots[0], knots[-1]
    multi = len(sides) > 1
    a, b, sq, ray = [], [], [], []
    for i, side in enumerate(sides):
        edge = min(side * k.support[side > 0], stop)
        if edge <= start:
            continue
        cuts = {1.0, k.rho0 / 2, *knots} | {side * j for j in k.jumps}
        ts = sorted({start, edge} | {c for c in cuts if start < c < edge})
        ends = list(zip(ts[:-1], ts[1:]))
        if singular:
            ends[0] = (_U_MIN, math.sqrt(ts[1]))
        parts = [np.geomspace(u, v, math.ceil(math.log2(v / u)) + 1)
                 if u > 0 and v > 2 * u else np.array([u, v])
                 for u, v in ends]
        a.append(np.concatenate([e[:-1] for e in parts]))
        b.append(np.concatenate([e[1:] for e in parts]))
        sq.append(np.arange(a[-1].size)
                  < (parts[0].size - 1 if singular else 0))
        if multi:
            ray.append(np.full(a[-1].size, i))
    # one ray's arrays as they are, else joined (empty if no ray passes)
    a, b, sq = (x[0] if len(x) == 1 else np.concatenate([e, *x]) for x, e
                in ((a, []), (b, []), (sq, np.zeros(0, bool))))
    ray = np.concatenate([np.zeros(0, int), *ray]) if multi else None
    ref = max(float(_log_bound(k, k.rho0 / 2, side)) for side in _rays(k)[1])
    return _Panels(sides, a, b, sq, ray, *_samples(k, sides, a, b, sq, ray),
                   ref)


def _log_bound(k, t, side):
    """ln J at the radii t along the ray `side` (a sign, or a column of
    them), plus ln max(t, 1) in 2-D: the panel tests bound the integrand by
    t^2 e^{pt} J in 1-D, and in 2-D the polar r adds a factor, bounded by
    max(r, 1)."""
    out = k.log_j(side * t)
    return out + np.log(np.maximum(t, 1.0)) if k.dimension == 2 else out


def _samples(k, sides, a, b, sq, ray):
    """At the _SAMPLES points t of the panels [a, b] (t = u^2 where sq):
    t, the log-bound of the integrand, and the two size terms of the
    tail-cut test, ln(t_end - t_start) and 2 ln max(t_end, 1)."""
    v = a[:, None] + (b - a)[:, None] * _SAMPLES
    t = np.where(sq[:, None], v * v, v)
    side = sides[0] if ray is None else np.asarray(sides)[ray][:, None]
    return (t, _log_bound(k, t, side), np.log(t[:, -1] - t[:, 0]),
            2 * np.log(np.maximum(t[:, -1], 1.0)))


def _refine(k, panels, p_ends, floor):
    """Nodes y = side t, t > 0, and weights along the rays of `panels`,
    resolving e^{pt} J(side t) for every p in p_ends down to e^floor: one
    bisection over the first panels of every ray.  A panel is halved where the
    log-integrand spreads by more than _SPAN at an end of the p range,
    unless negligible there; the panels negligible at both ends (and so
    for every p between) are dropped, the tail cut.  A panel that needs
    no halving is finished and leaves the loop, so each round tests only
    the new halves.  Each ray's panels come out in the order a loop over
    that ray alone keeps them (its finished panels first, then each
    round's left halves, then its right halves), and the rays fail as
    those loops would, one after the other."""
    sides, a, b, sq, ray, t, lj, log_width, log_t2, _ = panels
    multi = ray is not None
    if multi:
        sign = np.asarray(sides)[:, None]
        count = np.zeros(len(sides), int)
    else:
        ps, count = [sides[0] * p for p in p_ends], 0
    done, failed = [], {}
    for _ in range(64):
        if multi:
            ps = [sign[ray] * p for p in p_ends]
        phi = [p * t + lj for p in ps]
        phi = np.stack(phi) if len(phi) > 1 else phi[0][None]
        top = phi.max(axis=-1)
        tiny = top + log_width + log_t2 < floor
        fine = tiny | (top - phi.min(axis=-1) <= _SPAN)
        keep = ~tiny.all(axis=0)
        split = keep & ~fine.all(axis=0)
        whole = keep & ~split
        done.append((a[whole], b[whole], sq[whole],
                     ray[whole] if multi else None))
        if not split.any():
            break
        mid = 0.5 * (a + b)
        a = np.concatenate([a[split], mid[split]])
        b = np.concatenate([mid[split], b[split]])
        sq = np.concatenate([sq[split], sq[split]])
        # a panel one ulp wide, at a jump of ln J that `Kernel.jumps` does
        # not list, halves into an empty panel: it never settles
        halved = (a < b).all()
        if not multi:
            if not halved:
                raise NonConvergence(_UNSETTLED)
            count += done[-1][0].size
            if count + a.size > _MAX_PANELS:
                raise NonConvergence(_TOO_MANY)
        else:
            ray = np.concatenate([ray[split], ray[split]])
            count += np.bincount(done[-1][3], minlength=len(sides))
            over = count + np.bincount(ray, minlength=len(sides)) > _MAX_PANELS
            if over.any() or not halved:
                # a later ray's failure waits for the rays before it
                stuck = np.bincount(ray[a >= b], minlength=len(sides)) > 0
                for r in np.flatnonzero(stuck | over).tolist():
                    failed.setdefault(r, _UNSETTLED if stuck[r] else _TOO_MANY)
                if 0 in failed:
                    raise NonConvergence(failed[0])
                live = ~(stuck | over)[ray]
                a, b, sq, ray = a[live], b[live], sq[live], ray[live]
                if not a.size:
                    break
        t, lj, log_width, log_t2 = _samples(k, sides, a, b, sq, ray)
    else:
        if not multi:
            raise NonConvergence(_UNSETTLED)
        for r in np.unique(ray):
            failed.setdefault(int(r), _UNSETTLED)
    if len(done) > 1:
        a, b, sq, ray = (None if x[0] is None else np.concatenate(x)
                         for x in zip(*done))
    else:
        a, b, sq, ray = done[0]
    if multi:
        order = np.argsort(ray, kind="stable")
        a, b, sq, ray = a[order], b[order], sq[order], ray[order]
        far = set(ray[b >= _FAR].tolist())
        for r in range(len(sides)):
            if r in failed or r in far:
                raise NonConvergence(failed.get(r, _NO_TAIL_CUT))
    elif b.size and b.max() >= _FAR:
        raise NonConvergence(_NO_TAIL_CUT)
    half = 0.5 * (b - a)[:, None]
    v = 0.5 * (a + b)[:, None] + half * _GL_X
    w = half * _GL_W
    sq = sq[:, None]
    side = np.repeat(sign[ray, 0], _GL_X.size) if multi else sides[0]
    return side * np.where(sq, v * v, v).ravel(), np.where(
        sq, 2 * v * w, w).ravel()


def _rays(k):
    """ln J and the rays from the origin the integrals run along: both
    sides of the line in 1-D, the radii r > 0 in 2-D."""
    return k.log_j, (1.0,) if k.dimension == 2 else (1.0, -1.0)


def _ray_rule(k, knots, singular, p_ends=(0.0,), log_below=math.inf,
              kept=None):
    """Nodes y (signed in 1-D, the radii in 2-D) and weights w (with the
    polar 2 pi r in 2-D) for the integral over knots[0] <= |y| <= knots[-1]
    of e^{p.y} times J and powers of |y| up to 2, for every p in p_ends
    (in 2-D p is |p|).  The panels are cut at the knots between, at the
    support edges, the kernel's jumps, |y| = 1 and rho0/2, and dropped
    below 1e-24 of J(rho0/2) and of e^log_below; singular kernels take
    y = u^2 on the first interval.  Every ray is refined in one loop
    (`_refine`).  The first panels do not depend on p: given a dict
    `kept`, they are taken from it, or made and kept there."""
    radial = k.dimension == 2
    # a symmetric 1-D kernel on a p range closed under negation: the rule
    # of the side y < 0 is the mirror image of the side y > 0
    mirror = (k.symmetric and not radial
              and sorted(p_ends) == sorted(-p for p in p_ends))
    sides = _rays(k)[1]
    sides = sides[:1] if mirror else sides
    key = (tuple(knots), singular, sides)
    panels = None if kept is None else kept.get(key)
    if panels is None:
        panels = _first_panels(k, knots, singular, sides)
        if kept is not None:
            kept[key] = panels
    y, w = _refine(k, panels, p_ends, _LOG_TINY + min(log_below, panels.ref))
    if mirror:
        y, w = np.concatenate([y, -y]), np.concatenate([w, w])
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
    """Radius beyond which the kernel tail mass is below tol, a real in
    (0, 1) (ValidationError otherwise): the first rung of the ladder
    max(2, 2 rho0) 1.5^k at which it is."""
    _require(_finite_real(tol) and 0 < tol < 1,
             f"tol must be a real in (0, 1), not {tol!r}")
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
