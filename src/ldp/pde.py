"""Solver for the 1-D nonlocal parabolic equation

    u_t = int (u(x+y) - u(x) - u'(x) y 1_{|y|<1}) J(y) dy
          + A_diff u_xx + B_drift u_x

on a truncated line, with three boundary modes:

    whole_line             exterior nodes frozen at the initial data
    dirichlet_zero_outside u = 0 on every node with |x| > R, all times
    barrier                initial data 0 inside B_R, max(u0) outside

The space-discrete equation u' = Q u is the backward equation of a
continuous-time jump chain on the grid, and `simulate` solves it exactly in
time by uniformisation (Jensen 1953): with rate = sum_k w_k the total jump
rate of the stencil and P the convolution with w / rate,

    u(t) = sum_n Pois(n; rate t) P^n u(0),

a sum of nonnegative terms, so tail values keep their relative accuracy.
P is stochastic and reads only the initial buffer (the free band, the held
nodes and the pads beyond the grid), whose held entries never change, so
each P^n u(0) lies in [m, M] with m and M the smallest and the largest
entry of that buffer (the discrete maximum principle), and so does every
snapshot.  A sum cut after n terms is short by at most M times the Poisson
tail mass beyond them, bounded by Fox & Glynn (1988).  A snapshot's sum
stops by one of two rules:

    default   M * tail <= 1e-16 * max(1e-300, m): every value is at least
              m, so each one has a relative truncation error below 1e-16
              when m > 0 (whole-line runs with positive data), and each
              one above the representable floor 1e-300 has when m = 0
              (the 0 that Dirichlet and barrier runs hold outside).
    reads     M * tail <= 1e-16 * max(1e-300, m, min of the partial sum
              over the nodes the caller reads): the partial sums only
              grow, so every read value has a relative truncation error
              below 1e-16; the other nodes carry no stated accuracy.

The nodes a boundary mode holds (|x| > R) never change, so P is applied
only on the band of free nodes, |x| <= R (the whole grid in whole_line
mode); held values are written once and never recomputed.  On a band of B
nodes an offset |k| > B - 1 lands on a held node or a pad from every band
node, and in Dirichlet and barrier modes all of those hold one value (0,
or M), so the far taps add the constant c = value * (sum of their w_k) /
rate to every entry of P u.  c is formed once per solve, and each matvec
convolves the band with the taps |k| <= B - 1 alone: B min(K, 2B - 1)
multiply-adds for K taps instead of B K.  No tap passes the whole grid
(domain_truncation >= R + reach), so whole_line runs convolve every tap.

For unit-mass kernels with u0 = const = M and no local terms, the whole-line
solution is exactly the constant M, so the truncation difference u - u_R
coincides with the barrier field v_R.  The sweep helper uses that identity:
v_R reaches values like e^{-R ln R}, far below the float subtraction noise
of two O(1) fields, so it must be computed directly rather than as u - u_R.
For the same reason the convolution is a direct sum, not FFT-based: absolute
FFT round-off (~1e-16 * ||u||) would swamp the tail values of interest.

The compensator is only applied for kernels with singularity order >= 1;
for milder singularities the principal value exists without it and the
split stencil (second-difference times the small-ball second moment below
|y| < delta = sqrt(h), weighted sum above) is used on its own.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .errors import (InsufficientData, Saturated, TruncationTooSmall,
                     ValidationError)
from .fields import Field, FieldHistory, _snapshot_times
from .kernels import Kernel, _ray_integrals, tail_reach
from .rate import predict_log_bound

_BC_MODES = ("whole_line", "dirichlet_zero_outside", "barrier")
_SAT_FLOOR = 1e-300


@functools.lru_cache(maxsize=32)
def _grid(m, n_per_unit):
    """The nodes j / n_per_unit, |j| <= m, as one read-only array that
    every config and result on that grid shares."""
    x = np.arange(-m, m + 1) / n_per_unit
    x.flags.writeable = False
    return x


@dataclass
class SimConfig:
    kernel: Kernel
    R: float
    T: float
    u0: Union[float, Callable] = 1.0
    A_diff: float = 0.0
    B_drift: float = 0.0
    bc_mode: str = "dirichlet_zero_outside"
    domain_truncation: Optional[float] = None
    n_per_unit: int = 16
    snapshots: Optional[List[float]] = None
    # the kernel's tail_reach, computed once here for the stencil
    reach: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.bc_mode not in _BC_MODES:
            raise ValidationError(f"bc_mode must be one of {_BC_MODES}")
        if not (0 < self.R < math.inf and 0 < self.T < math.inf):
            raise ValidationError("need finite R > 0 and T > 0")
        if not (0 <= self.A_diff < math.inf and math.isfinite(self.B_drift)):
            raise ValidationError("need finite A_diff >= 0 and B_drift")
        if self.n_per_unit < 4:
            raise ValidationError("n_per_unit must be at least 4")
        if not (callable(self.u0) or 0 <= self.u0 < math.inf):
            raise ValidationError("u0 must be finite and nonnegative")
        if self.kernel.dimension != 1:
            raise ValidationError("the simulator is 1-D only")
        self.reach = reach = tail_reach(self.kernel)
        if self.domain_truncation is None:
            self.domain_truncation = self.R + max(reach, 10.0)
        if not self.domain_truncation >= self.R + reach - 1e-9:
            raise TruncationTooSmall(
                f"domain_truncation {self.domain_truncation} < R + kernel "
                f"reach {self.R + reach:.3g}")
        self.snapshots = _snapshot_times(self.snapshots, self.T)

    @property
    def h(self):
        return 1.0 / self.n_per_unit

    @property
    def x(self):
        return _grid(int(round(self.domain_truncation * self.n_per_unit)),
                     self.n_per_unit)

    def u0_values(self, x):
        if callable(self.u0):
            vals = np.array([float(self.u0(xi)) for xi in x])
        else:
            vals = np.full_like(x, float(self.u0))
        if not ((vals >= 0) & (vals < math.inf)).all():
            raise ValidationError("u0 must be finite and nonnegative")
        return vals


def _stencil(kernel: Kernel, h, reach, A_diff=0.0, B_drift=0.0):
    """Offsets k and jump rates w_k of the whole discrete generator
    sum_k w_k (u_{j+k} - u_j), out to the kernel's tail_reach `reach`.

    w_k = h J(k h) outside the split radius delta (sqrt(h) for singular
    kernels, h/2 otherwise).  A_diff and m2/2, m2 the second moment of J on
    |y| < delta, add second-difference jumps to +-1 at rate
    (A_diff + m2/2)/h^2 each; the drift B_drift - comp_drift, comp_drift the
    compensator integral of y J(y) between delta and 1 (kernels of
    singularity order >= 1 only; 0 for symmetric ones), adds an upwind jump
    at rate |drift|/h.  m2 and comp_drift run on the Gauss-Legendre panels
    of J (`ldp.kernels._ray_integrals`).
    """
    delta = math.sqrt(h) if kernel.singularity_exponent > 0 else 0.0
    lo, hi = kernel.support
    k_lo = int(math.floor(max(lo, -reach) / h))
    k_hi = int(math.ceil(min(hi, reach) / h))
    ks = np.arange(k_lo, k_hi + 1)
    ys = ks * h
    far = np.abs(ys) >= max(delta, h / 2)
    w = np.zeros(len(ks))
    w[far] = h * kernel.density(ys[far])
    m2 = 0.0
    drift = B_drift
    if delta > 0:
        m2 = _ray_integrals(kernel, 2, (0.0, delta))[0]
        if kernel.singularity_exponent >= 1:
            drift -= _ray_integrals(kernel, 1, (delta, 1.0))[0]
    centre = -k_lo                  # index of the offset 0
    w[[centre - 1, centre + 1]] += (A_diff + 0.5 * m2) / h ** 2
    w[centre + (1 if drift > 0 else -1)] += abs(drift) / h
    return ks, w


def _poisson_weights(mu, log_tol):
    """Pois(n; mu) for n = 0, 1, ..., N - 1, and ln of a bound on the mass
    beyond each n: p_{n+1} (n + 2)/(n + 2 - mu) once n + 2 > mu, 1 before
    (Fox & Glynn 1988).  N is the first n past the mode where the bound on
    the mass from n on falls below e^log_tol.  Formed in log space, so
    e^{-mu} may underflow without losing the weights near the mode."""
    log_mu = math.log(mu) if mu > 0 else -math.inf
    weights, log_tails, log_p, n = [], [], -mu, 0
    while True:
        weights.append(math.exp(log_p))
        n += 1
        log_p += log_mu - math.log(n)
        tail = log_p + math.log((n + 1) / (n + 1 - mu)) if n + 1 > mu \
            else 0.0
        log_tails.append(tail)
        if not tail >= log_tol:
            return weights, log_tails


def _value_floor(buf):
    """m, the smallest entry of the initial buffer: no sum falls below it."""
    return float(buf.min())


def simulate(cfg: SimConfig, *, reads=None) -> FieldHistory:
    """Uniformisation, exact in time; returns the requested snapshots.

    One pass over n applies P (the stencil convolution with weights
    w / rate) to the free band, reading the held nodes and the pads beyond
    the grid as constant sources, and adds Pois(n; rate t) P^n u(0) to the
    band of every snapshot t; held nodes keep their data throughout, and
    meta["free_nodes"] counts the band.  The taps longer than the band
    reach only held nodes and pads, so their share of P u is one constant
    formed once; meta["taps"] counts the offsets a matvec convolves.

    Every value is at least m = meta["value_floor"], the smallest entry
    of the initial buffer (min(u0) in whole_line mode; 0 in the other two,
    which hold a 0).  reads=None: each sum stops when max(u0) times its
    Poisson tail mass is below 1e-16 times m, or times the representable
    floor 1e-300 if m is smaller, so every value (every value above that
    floor, when m = 0) carries a relative truncation error below 1e-16.
    reads, a boolean mask over cfg.x: each sum stops once that product is
    at most 1e-16 times the larger of that bound and the smallest partial
    sum over the masked nodes, so every masked value carries a relative
    truncation error below 1e-16 and the other nodes none that is stated.
    meta["tail_bound"] is max(u0) times the tail bound at the stop, the
    largest over the snapshots, and meta["saturated_nodes"] counts the
    values at or below 1e-300 over the snapshots.  meta["roundoff_bound"]
    bounds a value's relative round-off: a matvec, len(w) nonnegative
    products with taps summing to 1 within an ulp, loses 2 len(w) + 2 ulp.
    The far taps' constant is one sum of len(w) - meta["taps"] such
    products, formed once, so the same bound covers the cut matvec.
    """
    h = cfg.h
    x = cfg.x
    ks, w = _stencil(cfg.kernel, h, cfg.reach, cfg.A_diff, cfg.B_drift)
    rate = float(np.sum(w))
    u0 = cfg.u0_values(x)
    M = float(np.max(u0))

    held = np.abs(x) > cfg.R + 1e-12
    if cfg.bc_mode == "barrier":
        u = np.where(held, M, 0.0)
        pads = (M, M)
    elif cfg.bc_mode == "dirichlet_zero_outside":
        u = np.where(held, 0.0, u0)
        pads = (0.0, 0.0)
    else:
        u = u0.copy()
        held[:] = False
        pads = (u0[0], u0[-1])
    free = np.flatnonzero(~held)    # a contiguous band: |x| <= R
    lo, hi = int(free[0]), int(free[-1]) + 1

    kpad = -int(ks[0])
    buf = np.concatenate([np.full(kpad, pads[0]), u,
                          np.full(int(ks[-1]), pads[1])])
    # taps longer than the band reach only held nodes and pads, which all
    # hold pads[0] (no tap is that long in whole_line mode): one constant
    near = np.abs(ks) < hi - lo
    k_a, k_b = int(ks[near][0]), int(ks[near][-1])
    window = buf[kpad + lo + k_a:kpad + hi + k_b]  # the entries band reads
    band = buf[kpad + lo:kpad + hi]    # view: P^n u(0) on the free nodes
    scale = rate or 1.0             # rate 0: no jumps, P is never applied
    taps = w[near][::-1] / scale
    far_share = pads[0] * float(np.sum(w[~near])) / scale
    m = _value_floor(buf)
    floor = max(_SAT_FLOOR, m)
    log_M = math.log(max(M, _SAT_FLOOR))
    log_tol = math.log(1e-16 * floor) - log_M
    terms = [_poisson_weights(rate * t, log_tol) for t in cfg.snapshots]
    # held entries of every sum keep their data; only the band accumulates
    sums = [np.where(held, u, 0.0) for _ in terms]
    stops = [len(p) for p, _ in terms]  # terms each sum takes
    if reads is not None:
        reads = np.asarray(reads, dtype=bool)
        if reads.shape != x.shape or not reads.any():
            raise ValidationError("reads must mask at least one node of x")
        idx = np.flatnonzero(reads)
    n = 0
    while n < max(stops):
        if n:
            np.add(np.convolve(window, taps, mode="valid"), far_share,
                   out=band)
        for i, (s, (p, tails)) in enumerate(zip(sums, terms)):
            if n < stops[i]:
                s[lo:hi] += p[n] * band
                if reads is not None and log_M + tails[n] <= math.log(
                        1e-16 * max(floor, float(s[idx].min()))):
                    stops[i] = n + 1
        n += 1
    matvecs = max(stops) - 1
    tail = max(tails[k - 1] for (_, tails), k in zip(terms, stops))
    fields = [Field(x=x, t=t, values=s) for t, s in zip(cfg.snapshots, sums)]
    return FieldHistory(fields=fields, meta={
        "bc_mode": cfg.bc_mode, "R": cfg.R, "h": h, "rate": rate,
        "matvecs": matvecs, "dt": cfg.snapshots[-1] / max(matvecs, 1),
        "tail_bound": math.exp(math.log(M) + tail) if M > 0 else 0.0,
        "roundoff_bound": (matvecs + 1) * (2 * len(w) + 2) * 2.0 ** -53,
        "value_floor": m,
        "saturated_nodes": sum(int(np.count_nonzero(s <= _SAT_FLOOR))
                               for s in sums),
        "free_nodes": hi - lo, "taps": len(taps),
        "kernel": cfg.kernel.family})


def sup_difference(u: Field, uR: Field, theta, R) -> float:
    """max over |x| <= theta R of u - uR (asserted nonnegative)."""
    if len(u.x) != len(uR.x) or not np.allclose(u.x, uR.x):
        raise ValidationError("fields live on different grids")
    if abs(u.t - uR.t) > 1e-9:
        raise ValidationError("fields have different timestamps")
    if not 0.0 <= theta <= 1.0:
        raise ValidationError("theta must lie in [0, 1]")
    window = np.abs(u.x) <= theta * R + 1e-12
    if not np.any(window):
        raise ValidationError("empty observation window")
    diff = u.values[window] - uR.values[window]
    if np.min(diff) < -1e-12:
        raise ValidationError(
            f"comparison violated: min(u - uR) = {np.min(diff):.3e}")
    return float(np.max(diff))


def empirical_rate(vR: FieldHistory, R) -> FieldHistory:
    """I_R(x,t) = -(1/R) ln v_R(R x, R t) on the rescaled grid.

    Nodes where v_R is at or below the denormal floor carry +inf (the true
    value is beyond what float64 can represent); their count is reported in
    the metadata rather than raised, so partial windows stay usable.
    """
    if not 0 < R < math.inf:
        raise ValidationError("R must be finite and positive")
    out = []
    saturated = 0
    for f in vR.fields:
        vals = f.values
        sat = vals <= _SAT_FLOOR
        saturated += int(np.sum(sat))
        I = -np.log(np.where(sat, 1.0, vals)) / R
        I[sat] = np.inf
        out.append(Field(x=f.x / R, t=f.t / R, values=I))
    meta = dict(vR.meta)
    meta["saturated_nodes"] = saturated
    return FieldHistory(fields=out, meta=meta)


@dataclass
class SweepRecord:
    R: float
    theta: float
    t_obs: float
    sup_diff: float
    empirical_exponent: float
    predicted_exponent: float
    ratio: float
    # the barrier solve's matvecs and wall time in seconds; None for a
    # record read back from a table.  A timing takes no part in equality.
    matvecs: Optional[int] = None
    wall_s: Optional[float] = field(default=None, compare=False)


@dataclass
class FitResult:
    slope: float
    intercept: float
    r2: float
    trend_ok: bool


def fit_rate(records: Sequence[SweepRecord]) -> FitResult:
    """Least-squares fit of empirical against predicted exponents."""
    recs = sorted(records, key=lambda r: r.R)
    if len({r.R for r in recs}) < 3:
        raise InsufficientData("need at least 3 distinct R values")
    if any(r.sup_diff <= _SAT_FLOOR for r in recs):
        raise Saturated("some sweep values hit the representable floor")
    xs = np.array([r.predicted_exponent for r in recs])
    ys = np.array([r.empirical_exponent for r in recs])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    ratios = [r.ratio for r in recs]
    trend_ok = all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r2=r2, trend_ok=trend_ok)


def run_sweep(kernel: Kernel, Rs, theta=0.0, t_obs=1.0,
              n_per_unit=16) -> List[SweepRecord]:
    """Barrier-route truncation sweep for u0 = 1, unit-mass kernels.

    With constant initial data and a mass-one kernel the whole-line
    solution stays identically 1, so u - u_R equals the barrier field v_R
    and one linear solve per R yields the difference at full precision.
    Each solve reads only the window |x| <= theta R, so it stops by the
    `reads` rule of `simulate`: sup_diff, the largest window value, keeps a
    relative truncation error below 1e-16, and the record carries the
    solve's matvecs and wall time.  The radii run on a pool of LDP_THREADS
    threads (0 or unset: Python's default size); any other value than a
    count >= 0 raises ValidationError before any solve.
    """
    if kernel.mass is None or abs(kernel.mass - 1.0) > 1e-9:
        raise ValidationError(
            "the barrier sweep identity requires a unit-mass kernel")
    if not 0.0 <= theta <= 1.0:
        raise ValidationError("theta must lie in [0, 1]")
    threads = os.environ.get("LDP_THREADS") or "0"
    if not threads.isdecimal():
        raise ValidationError(
            f"LDP_THREADS must be a worker count >= 0, not {threads!r}")

    def one(R):
        cfg = SimConfig(kernel=kernel, R=R, T=t_obs, bc_mode="barrier",
                        n_per_unit=n_per_unit)
        inside = np.abs(cfg.x) <= theta * R + 1e-12
        start = time.perf_counter()
        hist = simulate(cfg, reads=inside)
        wall = time.perf_counter() - start
        # v_R >= 0, a sum of nonnegative terms, so u - u_R needs no check
        sup = max(float(np.max(hist.fields[-1].values[inside])), _SAT_FLOOR)
        emp = -math.log(sup)
        pred = predict_log_bound(kernel, R, theta=theta, t=t_obs)
        return SweepRecord(R=float(R), theta=float(theta),
                           t_obs=float(t_obs), sup_diff=sup,
                           empirical_exponent=emp,
                           predicted_exponent=float(pred),
                           ratio=emp / float(pred),
                           matvecs=hist.meta["matvecs"], wall_s=wall)

    with ThreadPoolExecutor(max_workers=int(threads) or None) as ex:
        records = list(ex.map(one, sorted(Rs)))
    return records
