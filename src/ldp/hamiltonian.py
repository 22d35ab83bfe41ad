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
largest |p|.  A batch with p of both signs runs as its halves p < 0 and
p >= 0, each on the rule it would get alone.  The largest |p| of a half
is first rounded out to a ladder with one rung per octave (2^j, or
edge (1 - 2^{-j}) below a finite domain edge), and each
HamiltonianParams keeps the rules of the signed rungs it has met, so
the scalar calls of one octave share one rule, and the first panels its
rules start from, which do not depend on p; its `stats` count the rules
built, their nodes and build time, and the calls that found their rule.
A symmetric kernel takes p < 0 at -p, on the rule of -p.  Singular
kernels take y = u^2 near the origin.  Integrands are formed as exp(p y
+ ln J(y)), so huge exponential factors against tiny densities never
overflow, and p is processed in chunks.  In 1-D, H and H' integrate
J (e^{py} - 1 - p y) and y J (e^{py} - 1), the first by its series where
|p y| < 0.1 and the second by expm1 there, and add p and 1 times the
rule's first moment of J beyond the compensator, which is 0 for a
symmetric kernel: there H'(0) = 0, H >= 0, and H' stays proportional to
p down to the smallest p.

For a radial kernel in 2-D the same panels cover the radii r > 0, and the
angular integral gives Bessel factors of x = |p| r: J (I_0 - 1) for H,
r J I_1 = |p| r^2 J I_1(x)/x for |DH|, r^2 J (I_0 - I_1/x) (that is
r^2 J (I_0 + I_2) / 2, free of cancellation) for the curvature along p,
and J I_0 for H^ess.  J (I_0 - 1) and J I_1/x come from their power
series in t = x^2/4 (Abramowitz & Stegun 9.6.10) for x <= X_s, and from
the Hankel expansions (A&S 9.7.1), I_nu(x) = e^x (2 pi x)^{-1/2}
(sum_{k<m} (-1)^k a_k(nu) x^{-k} + R_m), times J as exp(x + ln J), above.
X_s and both term counts come from one truncation bound: each truncated
sum is within u = 2^{-53} of its function, relative.

* Hankel: |R_m| <= 2 chi(m) e^{|nu^2 - 1/4|/x} |a_m(nu)| x^{-m} + e^{-2x}
  (a bound of Olver's form, DLMF 10.40, plus the exponentially small
  second half of I_nu), chi(m) = pi^{1/2} Gamma(m/2 + 1) / Gamma(m/2 +
  1/2).  X_s = 19 is the smallest integer at which it falls below u for
  nu = 0 and 1; there m = 35 terms.
* Power series: the terms of I_0 (coefficients 1/(k!)^2) and of 2 I_1/x
  (1/(k! (k+1)!)) fall by t/(K+1)^2 or less after the K-th, so the tail
  is at most the first term dropped over 1 - t/(K+1)^2; its ratio to the
  sum grows with x, and at X_s it falls below u with K = 33 terms.

Rounding leaves J I_0, J (I_0 - 1) and J I_1/x within 6 ulp of their
values at x = |p| r for J = 1 (tests/test_bessel.py), except where J (I_0
- 1) comes within a few times of the smallest normal float and (r/2s)^2
goes subnormal; above X_s the rounding of x + ln J in exp(x + ln J) adds
to it, as it always has.  The
radii are fixed per rule, so each 2-D rule keeps two tables:
c_k (r/2s)^{2k} J(r) for all radii, and (r/s)^{-k-1/2} for the radii
where some x may pass X_s, with s a power of 2 near X_s over the rule's
top |p|.  A chunk of |p| gets J (I_0 - 1) and J I_1/x for every moment
from one product of the powers (|p| s)^{2k} with the first table, and
runs the Hankel product with the second only on the radii where some
x > X_s.

The engine owns the margin kept from a finite edge of the domain of H:
`_inner_domain` pulls each edge in to edge (1 - _DOMAIN_MARGIN), the
engine refuses any p beyond it, and the L solves and HJ tables of the
other modules stop on it.  eval_batch is the batched entry point, over
p in 1-D and over the radii |p| of a radial H in 2-D;
`Hamiltonian.derivatives` gives H, DH and D^2 H at an (m, N) array of
points from one engine call over their radii |p|.  The scalar
operations, in both dimensions, check their point, make one engine call
for a batch of one at r = p (1-D) or r = |p| (2-D; D^2 H through
_derivatives) and add the local terms; HTable tabulates H in one call.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation, NonConvergence, ValidationError
from .kernels import _FAR, _U_MIN, Kernel, _ray_rule, _rays

_DOMAIN_MARGIN = 1e-6


def __getattr__(name):
    """Module attributes made on first read (PEP 562): only `quad`."""
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # nothing here calls quad: perfbench/tracing.py wraps this name to count
    # the adaptive quadrature calls of this layer (ROADMAP item 2 deletes both)
    from scipy.integrate import quad
    return quad


@dataclass
class EngineStats:
    """What the H engine of one HamiltonianParams has done: the number of
    nodes of each quadrature rule it built, in order, the engine calls
    (one per one-signed half of a batch) that found their rule already
    built, and the seconds spent building rules."""
    rule_nodes: list = field(default_factory=list)
    rule_hits: int = 0
    build_s: float = 0.0

    @property
    def rule_builds(self):
        return len(self.rule_nodes)

    @property
    def calls(self):
        """Every engine call, one per one-signed half of a batch: each
        builds its rule or finds it built."""
        return self.rule_builds + self.rule_hits


@dataclass
class HamiltonianParams:
    kernel: Optional[Kernel]
    A: np.ndarray = None          # (N, N) symmetric PSD; default zero
    B: np.ndarray = None          # (N,); default zero
    compensated: bool = True
    # near-origin split radius, set from the kernel
    delta_split: float = field(init=False)
    # H(p) depends on |p| alone: a symmetric kernel (or none), A = a I
    # and B = 0 exactly; set from the fields above
    symmetric: bool = field(init=False, repr=False, compare=False)
    # quadrature rules of the engine, by p-range rung (see _rung)
    _rules: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    # the first panels of those rules, which do not depend on p (see
    # kernels._ray_rule)
    _panels: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    stats: EngineStats = field(default_factory=EngineStats, init=False,
                               repr=False, compare=False)

    def __post_init__(self):
        N = self.kernel.dimension if self.kernel is not None else 1
        if self.A is None:
            self.A = np.zeros((N, N))
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if self.A.shape != (N, N):
            raise ValidationError(f"A must be {N}x{N}")
        if not np.isfinite(self.A).all():
            raise ValidationError("A must be finite")
        if not np.allclose(self.A, self.A.T, atol=1e-12):
            raise ValidationError("A must be symmetric")
        if np.min(np.linalg.eigvalsh(self.A)) < -1e-12:
            raise ValidationError("A must be positive semi-definite")
        if self.B is None:
            self.B = np.zeros(N)
        self.B = np.atleast_1d(np.asarray(self.B, dtype=float))
        if self.B.shape != (N,):
            raise ValidationError(f"B must have length {N}")
        if not np.isfinite(self.B).all():
            raise ValidationError("B must be finite")
        k = self.kernel
        if k is not None and not self.compensated:
            if k.singularity_exponent >= 1.0:
                raise ValidationError(
                    "uncompensated form needs singularity exponent < 1")
        if k is None:
            self.delta_split = 0.5
        elif k.singularity_exponent > 0:
            self.delta_split = 1e-3
        else:
            self.delta_split = min(k.rho0 / 2, 0.5)
        self.symmetric = ((k is None or k.symmetric) and not self.B.any()
                          and (self.A == self.A[0, 0] * np.eye(N)).all())

    @property
    def dimension(self):
        return self.kernel.dimension if self.kernel is not None else 1


def _domain_interval(kernel):
    """Open finiteness interval of p -> int e^{py} J (1-D convention; for
    symmetric N-D kernels the bound is a radius)."""
    if kernel is None:
        return (-math.inf, math.inf)
    return kernel.p_domain


def _inner_domain(domain):
    """The interval of p the engine evaluates: each finite edge of the
    domain of H (which holds 0) pulled in by the margin, edge (1 -
    _DOMAIN_MARGIN), so that no p closer to an edge than that is taken."""
    lo, hi = domain
    return lo * (1 - _DOMAIN_MARGIN), hi * (1 - _DOMAIN_MARGIN)


def _as_point(params, v, name="p"):
    """v as a finite point of the dimension of H, or ValidationError."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (params.dimension,):
        raise ValidationError(f"{name} must have {params.dimension} "
                              f"component(s), got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} must be finite")
    return v


# ---------------------------------------------------------------------------
# Jump integrals: one Gauss-Legendre rule for a whole array of p
# ---------------------------------------------------------------------------

_RULES_KEPT = 32        # rules cached per HamiltonianParams, oldest dropped
#                         (one 1-D L solve visits 2-5 rungs, one batched
#                         solve over 801 q of both signs 3-13)
_CHUNK = 1 << 12        # float64 entries per temporary (32 KB)
# e^x - 1 - x = x^2 sum_k x^k / (k + 2)!, k < 12, for |x| < 0.1 (the first
# term dropped is below 1e-20 of the sum)
_EXPM1MX = np.array([1.0 / math.factorial(k + 2) for k in range(12)])
# Bessel factors of the 2-D engine; X_s and the term counts follow from
# the truncation bound in the module docstring (tests/test_bessel.py
# recomputes them)
_X_SWITCH = 19.0
_SERIES_TERMS = 33
_HANKEL_TERMS = 35
_SERIES_C = np.array([1.0 / math.factorial(k) ** 2
                      for k in range(_SERIES_TERMS)])
_SERIES_POWERS = 2.0 * np.arange(_SERIES_TERMS)
# No operand or product of the series may leave the normal range: a
# subnormal one slows the matrix product and np.power 40- to 80-fold.  For
# k >= 2, with x/2 = (|p| s)(r / 2s) and |p| s <= 2 X_s, a table entry at
# r / 2s below _SERIES_ETA[k] is under 2^-64 of the first term at every x,
# and a power (|p| s)^{2k} below 1e-100 under 1e-40 of it wherever r / 2s
# <= 110 (see _bessel_rule): both count as 0
_SERIES_ETA = np.array([0.0, 0.0] + [
    (2.0 ** -64 / c) ** (1 / (2 * k - 2)) / (2 * _X_SWITCH)
    for k, c in enumerate(_SERIES_C) if k >= 2])[:, None]
_SERIES_VMIN = np.array([0.0, 0.0] + [
    10.0 ** (-50 / k) for k in range(2, _SERIES_TERMS)])
# the factors of the series table's rows in J (I_0 - 1) (k >= 1) and in
# J I_1(x)/x, whose coefficients 1/(2 k! (k+1)!) are 1/(2 (k+1)) of I_0's
_SERIES_ROWS = np.array([[0.0] + [1.0] * (_SERIES_TERMS - 1),
                         [0.5 / (k + 1) for k in range(_SERIES_TERMS)]]
                        )[:, None, :]


def _hankel_coefficients(nu, m):
    """(-1)^k a_k(nu) for k < m (A&S 9.7.1), a_k(nu) = prod_{j <= k}
    (4 nu^2 - (2j - 1)^2) / (k! 8^k)."""
    out, a = [], 1.0
    for k in range(m):
        out.append(a)
        a *= -(4 * nu * nu - (2 * k + 1) ** 2) / (8 * (k + 1))
    return out


# (2 pi)^{-1/2} sum_k (-1)^k a_k(nu) x^{-k-1/2} gives J I_0 e^{-x}, and
# the same sum shifted by one power of x J I_1 e^{-x} / x: one table of
# powers (r/s)^{-k-1/2}, k <= _HANKEL_TERMS, serves both
_HANKEL_LEFT = np.array(
    [_hankel_coefficients(0, _HANKEL_TERMS) + [0.0],
     [0.0] + _hankel_coefficients(1, _HANKEL_TERMS)]) / math.sqrt(2 * math.pi)
_HANKEL_POWERS = -0.5 - np.arange(_HANKEL_TERMS + 1.0)


def _rung(p, edge):
    """p >= 0 rounded up to the ladder 2^j, one rung per octave, or
    edge (1 - 2^{-j}) below a finite domain edge: batches whose p ranges
    round to the same rungs share one quadrature rule.  The log-integrand
    p y + ln J(y) is linear in p, so its spread over a panel and the
    panel's tail-cut test at any p inside the rungs are bounded by their
    values at the rungs: the rule is valid for every p inside them."""
    if p > 0 and math.isfinite(edge):
        return edge * (1 - 2.0 ** -math.ceil(-math.log2(1 - p / edge)))
    return 2.0 ** math.ceil(math.log2(p)) if p > 0 else 0.0


def _rule(params, p_lo, p_hi, essential):
    """Nodes y, weights w, ln J and J at the nodes for the integral over
    the line, or in 2-D over the increasing radii with the polar 2 pi r in
    w (over |y| > rho0/2 if essential), for every p in [p_lo, p_hi], one
    end of which is 0 (in 2-D p is |p| and p_lo = 0); then for a singular
    kernel (not essential) J(side _U_MIN^2) on each ray; then in 2-D the
    Bessel tables of _bessel_rule, w r^2 and the sums of w J and w r^2 J,
    in 1-D (not essential) the first moment of J beyond the compensator
    (0 for a symmetric kernel), the reach max |y| if J is normal at every
    node (else inf), w y and w y^2."""
    k = params.kernel
    y, w = _ray_rule(k, (k.rho0 / 2 if essential else 0.0,
                         params.delta_split, _FAR),
                     k.singularity_exponent > 0 and not essential,
                     (p_lo, p_hi), kept=params._panels)
    if k.dimension == 2:
        # increasing radii: the Bessel series and expansions take slices
        order = np.argsort(y)
        y, w = y[order], w[order]
    lj = k.log_j(y)
    jv = np.exp(lj)
    lnj, sides = _rays(k)
    j_eps = [math.exp(float(lnj(side * _U_MIN ** 2))) for side in sides
             if k.singularity_exponent > 0 and not essential]
    extra = None
    if k.dimension == 2:
        wyy = w * y * y
        extra = (_bessel_rule(y, lj, jv, p_hi), wyy, float(w @ jv),
                 float(wyy @ jv))
    elif not essential:
        # the first moment takes the leading order of y J over (0,
        # _U_MIN^2) on each side where the compensator does not act
        s, eps = k.singularity_exponent, _U_MIN ** 2
        beyond = (np.abs(y) >= 1.0) | (not params.compensated)
        first = 0.0 if k.symmetric else float(
            (w * y * jv)[beyond].sum()) + sum(
            side * je * eps * eps / (1 - s) for side, je in zip(sides, j_eps)
            if not params.compensated)
        reach = (float(np.abs(y).max())
                 if jv.min() >= np.finfo(float).tiny else math.inf)
        extra = first, reach, w * y, w * y * y
    return y, w, lj, jv, j_eps, extra


def _bessel_rule(y, lj, jv, p_top):
    """The Bessel tables of a 2-D rule with increasing radii y, ln J = lj
    and J = jv, for |p| up to p_top: the scale s, a power of 2 near X_s /
    p_top (so that |p| s and y / s are exact and |p| s <= 2 X_s); the
    series table c_k (y / 2s)^{2k} J, c_k = 1/(k!)^2, taken as 0 where J <
    1e-150 max J and, for k >= 2, below 1e-200 max J and where y / 2s <
    _SERIES_ETA[k]; the index f of the first radius with y p_top > X_s,
    and the Hankel table (y / s)^{-k-1/2} of the radii from there on (at
    y / s >= 1/2, which every x = |p| y > X_s has); then y, lj and jv.
    With finite H, y / 2s stays below about 110 wherever J > 0, and where
    it passes 4096 it is cut there: x exceeds 5e4 there at the largest
    |p|, where e^{x + ln J} overflows and the engine raises."""
    s = 2.0 ** max(-1000, min(1000, round(
        math.log2(_X_SWITCH) - math.log2(p_top) if p_top > 0
        else math.log2(max(y[-1], 1.0)))))
    h = 0.5 * y / s
    ref = jv.max()
    series = np.zeros((_SERIES_TERMS, y.size))
    np.power(np.minimum(h, 4096.0), _SERIES_POWERS[:, None], out=series,
             where=h >= _SERIES_ETA)
    series *= _SERIES_C[:, None]
    series *= np.where(jv >= 1e-150 * ref, jv, 0.0)
    series[2:][series[2:] < 1e-200 * ref] = 0.0
    f = (y.size if p_top <= 0 else
         int(np.searchsorted(y, _X_SWITCH * (1 - 1e-12) / p_top)))
    hankel = np.maximum(2.0 * h[f:], 0.5) ** _HANKEL_POWERS[:, None]
    hankel[hankel < 1e-250] = 0.0
    return s, series, f, hankel, y, lj, jv


def _bessel_parts(p, tables):
    """J (I_0(x) - 1) and J I_1(x)/x at x = p y for the column p of radii
    |p| and the radii y of a rule's Bessel tables, as an array (2, len(p),
    len(y))."""
    s, series, f, hankel, y, lj, jv = tables
    rows, n = p.shape[0], y.size
    lo, hi = p.min(), p.max()
    # the radii where some x <= X_s take the series, those where some x >
    # X_s the Hankel expansions: two slices of the increasing y, with a
    # margin for the rounding of x
    j1 = n if lo <= 0 else int(np.searchsorted(y, _X_SWITCH * (1 + 1e-12)
                                               / lo))
    j0 = n if hi <= 0 else int(np.searchsorted(y, _X_SWITCH * (1 - 1e-12)
                                               / hi))
    v = p * s
    if lo * s >= _SERIES_VMIN[-1]:     # no power to take as 0
        left = v ** _SERIES_POWERS
    else:
        left = np.where(v >= _SERIES_VMIN,
                        np.maximum(v, _SERIES_VMIN) ** _SERIES_POWERS, 0.0)
    left = _SERIES_ROWS * left
    if j0 == n:
        return left @ series
    out = np.empty((2, rows, n))
    out[:, :, :j1] = left @ series[:, :j1]
    x = p * y[j0:]
    # rows with no x > X_s take any |p| s that keeps the powers finite
    vh = np.maximum(v, _X_SWITCH * s / y[-1])
    far = (_HANKEL_LEFT[:, None, :] * vh ** _HANKEL_POWERS) @ hankel[
        :, j0 - f:]
    far *= np.exp(x + lj[j0:])
    far[0] -= jv[j0:]
    if j1 > j0:     # the radii where the x of some rows reach X_s
        mix = far[:, :, :j1 - j0]
        mix[...] = np.where(x[:, :j1 - j0] > _X_SWITCH, mix,
                            out[:, :, j0:j1])
    out[:, :, j0:] = far
    return out


def _jump_moments(params, ps, moments, essential):
    """The jump integrals of H, H', H'' (or H^ess and its derivative) for
    every p in ps, as an array (len(moments), len(ps)).  In 2-D ps holds
    radii |p| and the moments are H, |DH| and the curvature along p.  A
    batch with p of both signs runs as its halves p < 0 and p >= 0, each
    on the rule it would get alone."""
    if not ps.min() < 0.0 <= ps.max():
        return _one_signed(params, ps, moments, essential)
    neg = ps < 0.0
    out = np.empty((len(moments), ps.size))
    for half in (neg, ~neg):
        out[:, half] = _one_signed(params, ps[half], moments, essential)
    return out


@np.errstate(over="ignore", invalid="ignore")   # overflow raises below
def _one_signed(params, ps, moments, essential):
    """_jump_moments for a batch whose p share one sign, on the rule of
    its signed rung: the rung of its largest |p|, negated for p < 0."""
    k = params.kernel
    radial = k.dimension == 2
    lo, hi = k.p_domain
    neg = ps[0] < 0.0
    # a symmetric kernel makes H and H'' even in p and H' odd: a batch of
    # p < 0 runs at -p, on the rule of -p
    flip = neg and k.symmetric and not radial
    if flip:
        ps, neg = -ps, False
    top = float(-ps.min() if neg else ps.max())     # the largest |p|
    rung = -_rung(top, -lo) if neg else _rung(top, hi)
    key = (essential, rung)
    rule, stats = params._rules.get(key), params.stats
    if rule is None:
        if len(params._rules) >= _RULES_KEPT:
            del params._rules[next(iter(params._rules))]
        start = time.perf_counter()
        rule = params._rules[key] = _rule(
            params, min(rung, 0.0), max(rung, 0.0), essential)
        stats.build_s += time.perf_counter() - start
        stats.rule_nodes.append(rule[0].size)
    else:
        stats.rule_hits += 1
    y, w, lj, jv, j_eps, extra = rule
    out = np.empty((len(moments), ps.size))
    rows = max(1, _CHUNK // max(y.size, 1))
    if radial:
        tables, wyy, wj, wyyj = extra
    elif not essential:
        first, reach, wy, wyy = extra
        # J (e^{py} - 1) is J expm1(p y) at every node while J is normal
        # at every node and |p y| < 700; otherwise it is e^{py + ln J} - J,
        # by expm1 where |p y| < 0.1
        plain = top * reach < 700.0
        with_g = 0 in moments or 1 in moments
    for i in range(0, ps.size, rows):
        p = ps[i:i + rows, None]
        # row sums in fixed order: in 1-D a p's value does not depend on
        # the chunk it lands in (in 2-D the matrix products may round it
        # by an ulp or two)
        if radial:
            # the row sums of J (I_0 - 1) w, |p| r^2 J I_1/x w and r^2 J
            # (I_0 - I_1/x) w, and of J I_0 w for H^ess
            i0m1, i1x = _bessel_parts(p, tables)
            for j, m in enumerate(moments):
                out[j, i:i + rows] = (
                    (i0m1 * w).sum(axis=1) + (wj if essential else 0.0)
                    if m == 0 else p[:, 0] * (i1x * wyy).sum(axis=1)
                    if m == 1 else ((i0m1 - i1x) * wyy).sum(axis=1) + wyyj)
            continue
        x = p * y
        if essential:
            e = np.exp(x + lj)
            for j, m in enumerate(moments):
                out[j, i:i + rows] = ((e * y if m == 1 else e) * w).sum(
                    axis=1)
            continue
        if with_g:
            g = jv * np.expm1(x) if plain else np.exp(x + lj) - jv
        if 0 in moments or with_g and not plain:
            near = np.nonzero(np.abs(x) < 0.1)
            xn, jn = x[near], jv[near[1]]
            if not plain:
                g[near] = jn * np.expm1(xn)
        for j, m in enumerate(moments):
            if m == 0:
                # J (e^{py} - 1 - p y), by its series where |p y| < 0.1;
                # p times the first moment below
                f = g - x * jv
                f[near] = jn * xn * xn * (np.vander(xn, _EXPM1MX.size, True)
                                          @ _EXPM1MX)
                out[j, i:i + rows] = (f * w).sum(axis=1)
            elif m == 1:
                # y J (e^{py} - 1); the first moment below
                out[j, i:i + rows] = (g * wy).sum(axis=1)
            else:
                out[j, i:i + rows] = ((g + jv if with_g else np.exp(x + lj))
                                      * wyy).sum(axis=1)
    # an integrand past the float range leaves inf or nan in its row sum
    if not np.isfinite(out).all():
        raise NonConvergence("e^{py} J(y) overflows; H out of float range")
    if not (essential or radial) and first:
        for j, m in enumerate(moments):
            if m < 2:
                out[j] += first * ps if m == 0 else first
    s, eps = k.singularity_exponent, _U_MIN ** 2
    for je in j_eps:        # none unless singular
        # int over (0, eps) on this side of the leading-order integrand
        # c_m y^2 J(y), with J(y) ~ J(side eps) (|y|/eps)^{-N-s}, of J
        # (e^{py} - 1 - p y), y J (e^{py} - 1) and y^2 J e^{py} (their
        # first moments are in the rule's; in 2-D the odd terms vanish on
        # every circle); in 2-D the angular integral and the polar r add
        # the factor pi eps
        if radial:
            je *= math.pi * eps
        for j, m in enumerate(moments):
            coef = 0.5 * ps * ps if m == 0 else ps if m == 1 else 1.0
            out[j] += coef * je * eps ** 3 / (2 - s)
    if flip:
        out[[j for j, m in enumerate(moments) if m == 1]] *= -1.0
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
    out = (_jumps(params, ps[:, None], moments, essential)[1] if ps.size
           else np.zeros((len(moments), 0)))
    a, b = float(params.A[0, 0]), float(params.B[0])
    if not essential and (a or b):
        local = {0: (a * ps + b) * ps, 1: 2 * a * ps + b, 2: 2 * a}
        for j, m in enumerate(moments):
            out[j] += local[m]
    return out


def _jumps(params, P, moments, essential=False):
    """r = p at every row of the (m, 1) array P or r = |p| of an (m, 2) one
    (hypot: squares of |p| < 1e-154 lose digits to subnormals) and the
    jump integrals of `moments` at r, (len(moments), m); zeros without a
    kernel, and DomainViolation for an r past the inner domain."""
    r = P[:, 0] if P.shape[1] == 1 else np.hypot(P[:, 0], P[:, 1])
    k = params.kernel
    if k is None:
        return r, np.zeros((len(moments), r.size))
    if not k.symmetric and k.dimension == 2:
        raise ValidationError("2-D evaluation requires a radial kernel")
    lo, hi = k.p_domain
    plo, phi = _inner_domain((lo, hi))
    name = "|p|" if k.dimension == 2 else "p"
    if phi < math.inf and r.max() > phi:
        raise DomainViolation(f"{name}={r.max()} above domain bound {hi}")
    if plo > -math.inf and r.min() < plo:
        raise DomainViolation(f"{name}={r.min()} below domain bound {lo}")
    return r, _jump_moments(params, r, moments, essential)


def _derivatives(params, P, moments, nu=None):
    """H (moment 0), DH (1) and D^2 H (2) at every row of the (m, N) array
    P, as arrays (m,), (m, N) and (m, N, N), or for a direction nu the
    forms <D^2 H nu, nu> (m,) in place of D^2 H: one engine call, plus the
    local terms.  In 2-D, with u = p / |p|, DH = |DH| u and D^2 H = 2 A +
    H_perp I + (H_par - H_perp) u u^T: across p the curvature is pi int r^3
    J (I_0 - I_2) = |DH| / |p| (I_0 - I_2 = 2 I_1 / x), within O(|p|^2) of
    H_par, which it is taken to be below |p| = 1e-100 (where I_1 loses its
    digits to subnormals)."""
    N = P.shape[1]
    # in 2-D the curvature across p reads |DH|
    need = sorted(set(moments) | ({1} if N == 2 and 2 in moments else set()))
    r, J = _jumps(params, P, need)
    J = dict(zip(need, J))
    u = np.ones_like(P) if N == 1 else P / np.where(r > 0, r, 1.0)[:, None]
    A, B, out = params.A, params.B, []
    for m in moments:
        if m == 0:
            out.append(J[0] + ((P @ A.T + B) * P).sum(axis=1))
        elif m == 1:
            out.append(2.0 * P @ A.T + B + J[1][:, None] * u)
        else:
            perp = J[2] if N == 1 else np.where(
                r > 1e-100, J[1] / np.maximum(r, 1e-100), J[2])
            if nu is not None:
                along = u @ nu
                out.append(2.0 * (nu @ A @ nu) + perp * (nu @ nu)
                           + (J[2] - perp) * along * along)
            else:
                out.append(2.0 * A + perp[:, None, None] * np.eye(N) + (
                    (J[2] - perp)[:, None] * u)[:, :, None] * u[:, None, :])
    return out


def eval_h(params: HamiltonianParams, p):
    """H(p)."""
    p = _as_point(params, p)
    ((jump,),) = _jumps(params, p[None], (0,))[1]
    return float(p @ (params.A @ p + params.B)) + float(jump)


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
    return float(_jumps(params, p[None], (moment,), essential=True)[1][0, 0])


def grad_h(params: HamiltonianParams, p):
    """DH(p) as an (N,) array: 2 A p + B, plus the jump part, which is H'
    itself in 1-D and |DH| along p / |p| in 2-D."""
    p = _as_point(params, p)
    r, ((mag,),) = _jumps(params, p[None], (1,))
    lin = 2.0 * params.A @ p + params.B
    if params.dimension == 1:
        return lin + mag
    return lin + mag * (p / r) if r > 0 else lin


def hess_quadform(params: HamiltonianParams, p, nu):
    """<D^2 H(p) nu, nu> for a direction nu, in 2-D from _derivatives."""
    p = _as_point(params, p)
    nu = _as_point(params, nu, "nu")
    if params.dimension == 1:
        ((t_par,),) = _jumps(params, p[None], (2,))[1]
        return float(2.0 * nu @ params.A @ nu) + float(nu[0] ** 2 * t_par)
    return float(_derivatives(params, p[None], (2,), nu)[0][0])


# ---------------------------------------------------------------------------
# Evaluator bundle used by the conjugate / HJ / rate modules
# ---------------------------------------------------------------------------

@dataclass
class Hamiltonian:
    """Callable bundle (value, gradient, Hessian quadratic form) together
    with the finiteness domain, used by every consumer of H.  An H given by
    callables keeps hess(p) = D^2 H(p): a number in 1-D, else (N, N)."""
    value: Callable
    grad: Callable
    hess_quadform: Callable
    dimension: int = 1
    domain: tuple = (-math.inf, math.inf)
    symmetric: bool = True
    kernel: Optional[Kernel] = None
    params: Optional[HamiltonianParams] = None
    hess: Optional[Callable] = None

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
        def quadform(p, nu):
            nu = np.atleast_1d(nu)
            return float(nu @ np.reshape(hess(p), (dimension,) * 2) @ nu)
        return cls(value=value, grad=grad, hess_quadform=quadform, hess=hess,
                   dimension=dimension, domain=domain, symmetric=symmetric)

    def batch(self, ps, moments=(0,)):
        """eval_batch for this H; given by callables, it loops over them."""
        if self.params is not None:
            return eval_batch(self.params, ps, moments)
        if self.dimension != 1:
            raise ValidationError("the batched evaluator is one-dimensional")
        ps = np.asarray(ps, dtype=float).ravel()
        return np.array([d.reshape(ps.size) for d in self.derivatives(
            ps, moments)]).reshape(len(moments), ps.size)

    def derivatives(self, P, moments=(1, 2)):
        """H (moment 0), DH (1) and D^2 H (2) at every row of the (m, N)
        array P, as arrays (m,), (m, N) and (m, N, N), from one engine
        call; given by callables, it loops over them (p a number in 1-D)."""
        N = self.dimension
        P = np.asarray(P, dtype=float).reshape(-1, N)
        if not np.isfinite(P).all():
            raise ValidationError("p must be finite")
        if self.params is not None:
            return _derivatives(self.params, P, moments)
        f, ps = {0: self.value, 1: self.grad, 2: self.hess}, (
            P[:, 0].tolist() if N == 1 else P)
        return [np.array([f[m](p) for p in ps], dtype=float).reshape(
            len(P), *(N,) * m) for m in moments]


class HTable:
    """H on increasing 1-D knots, filled by one batched call unless the
    caller passes the values Hv; `slopes` holds H' of the linear
    interpolant of H, one per cell."""

    def __init__(self, h: Hamiltonian, ps, Hv=None):
        self.ps = np.asarray(ps, dtype=float)
        self.Hv = h.batch(self.ps)[0] if Hv is None else np.asarray(
            Hv, dtype=float)
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
