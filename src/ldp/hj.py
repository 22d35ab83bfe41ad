"""Second-order finite-difference solver for u_t + H(u_x) = 0 on (-1, 1).

Data: u = A inside at t = 0, u = 0 on the boundary for all times.  For a
convex H with H(0) = 0 the viscosity solution is the exit-time value
function min(A, min over y = +-1, s <= t of s L((x - y)/s)) (Bardi &
Capuzzo-Dolcetta 1997, ch. IV): the fixed-time field min(A, t L(dist/t))
where H >= 0 at the optimal slopes (every even H), and below it, by up to
t (-min H) near the outflow boundary, where not.

The scheme follows Osher & Shu (SIAM J. Numer. Anal. 28, 1991):

- ENO2 one-sided slopes p-, p+: the first difference corrected by half
  the second difference of smaller magnitude (first order next to the
  boundary, where only one second difference exists);
- the Godunov flux for convex H,

      Hhat(p-, p+) = max(H(max(p-, p*)), H(min(p+, p*))),  p* = argmin H,

  which is monotone, so the scheme it forms with first-order slopes
  converges to the viscosity solution (Crandall & Lions, Math. Comp. 43,
  1984);
- SSPRK(s,2), s = _STAGES = 4, in two registers (Spiteri & Ruuth, SIAM
  J. Numer. Anal. 40, 2002): a step dt is s forward Euler substeps of
  dt / (s - 1) into u1, then u <- (u + (s - 1) u1) / s.  It is
  strong-stability-preserving with coefficient s - 1 when every substep
  obeys the step bound of a single Euler step.  The march checks that
  bound only at the slopes a step starts from, and the later substeps'
  slopes can be steeper: measured at each substep's own extreme slopes,
  dt |H'| / h reaches 2.25 (compact kernel, A = 5, n = 399) and 1.70
  (quadratic H, A = 10, n = 1599) against the 0.9 of a first substep.
  The fields still meet their checks against the exact solution.  That
  check is why s stays 4: a larger s lengthens a step to s - 1 Euler
  steps, and nothing bounds its later substeps.  On the benchmark's three
  solves, s = 6, 8 and 10 kept every field check green, and the compact
  solve (n = 399) took 567, 416 and 321 steps against 933 at s = 4, with
  errors of 0.0072 to 0.0073; at s = 16 it diverged after 435,038 steps,
  its field leaving [0, A].  Raising s needs a bound checked at every
  substep's own slopes first.

Each Euler substep is one pass of twelve numpy calls on arrays allocated,
and views of them bound, once per solve: eight for the ENO2 slopes, kept
as undivided differences h p-, h p+ in the rows of one (2, m) array, one
np.interp for each Godunov term, their maximum and the update of u1 at
the m marched nodes.  The table's knots are h p too, and it is split at
p*: a lookup in the half at and above p* is H(max(p-, p*)), one in the
half at and below p* is H(min(p+, p*)), because np.interp holds the end
value beyond the last knot.  Once per step a multiply fills the table
with dt / (s - 1) times H, so the lookups return the substep's flux term.
u is 0 on the boundary from the start and no substep writes there, so a
march with no finite edge of dom H projects nothing.

An even H (Hamiltonian.symmetric) is marched on the left half of the
grid.  Its table is exactly even: H is evaluated on the knots p >= 0
alone and mirrored, after three mirrored knots in the same batch check
that H is even, and the knots' values that it does not fall on p >= 0
(a ValidationError if not).  The data are even too, and the scheme keeps
them so: the ENO2 slopes at the mirror of a node are -p+ and -p-, and for
an even H (p* = 0) the Godunov flux of (-p+, -p-) is that of (p-, p+).
So the march computes nodes 1..m, m = ceil(n/2), and reads nodes m + 1
and m + 2 from two ghosts, copies of their mirrors g and g - 1
(g = n - m: m - 1 for odd n, m for even n), which one slice copy
refreshes after each Euler substep; a substep touches m + 2 nodes.  Each
snapshot is assembled by reflection.  An uneven H runs the same code on
every node: m = n and no ghosts.  H rising on p >= 0 folds an even H's
flux into one lookup, Hhat = H(max(p-, -p+, 0)), the 1-D upwind form of
Rouy & Tourin (SIAM J. Numer. Anal. 29, 1992): the second slope row
holds -h p+, and a substep looks the rows' maximum up in the half table
at and above 0, twelve calls with the ghost copy.  Measured as march_s
per Euler substep (best of five solves, one core of a 2-core x86-64
host), the hj_fields solves at n = 399, 799 and 1599 take 11, 15-16 and
18 us, the lookup 3, 5 and 7 us of it (13, 19 and 23-24 us with two
lookups of 5, 8 and 11-13 us).

H is tabulated (one batched HTable) on a finite slope range
[p_min, p_max] and held constant beyond it, which clamps the slopes fed
to H; the clamp only modifies the transient layer emanating from the
boundary discontinuity, not the solution at the requested snapshot times,
because the clamped Hamiltonian agrees with H on every slope the exact
solution takes there.  dom H = (lo, hi) is read side by side: first_reach
finds an open side's end of the dense core from H' and its clamp from H
and H' (geometric knots fill the gap), and a finite edge's cap,
max(5, |H(0.8 edge)|), from H alone, where the dense core ends.  An even
H is read on the side p > 0 alone.

The time step is dt = (s - 1) 0.9 h / max |H'| over the slopes currently
sampled, with H' that of the tabulated (piecewise-linear) H, the flux the
scheme actually evaluates.  H' is monotone, so the top speed sits at the
extreme slopes; the step adapts to them, so the stiff initial layer does
not throttle the whole run.  On the half grid the extreme slopes are
min(p_lo, -p_hi) and max(p_hi, -p_lo) of the marched ones, p_lo and p_hi,
which are those of the whole grid.

A finite edge also bounds u_x on its own side: for finite hi, L(q) ~ hi q
as q -> inf, so u(x) <= u(x') + hi (x - x') for x' < x, and u_x <= hi;
likewise u_x >= lo.  The march enforces each bound by a min-plus
projection, u_j <- min over l <= j of u_l + hi h (j - l) (a forward
running minimum) and u_j <- min over l >= j of u_l - lo h (l - j) (a
backward one), on the initial data, which installs the initial trace
min(A, hi (1 + x), -lo (1 - x)), and after each step's average.  A
critical kernel is bounded on both sides, the asymmetric demo kernel
(dom H = (-1, inf)) by x = 1 alone.  For an even u and j <= m, the term
of a node l > m is no lower than that of its mirror n + 1 - l <= m, so
sweeping nodes 0..m of the half grid is exact; the ghosts are refreshed
after it.  solve_hj_constrained(h, beta0, grid) checks that
dom H = (-beta0, beta0) and calls solve_hj.

FieldHistory.meta reports `scheme` (+lipschitz if a side is bounded),
`slope_bounds` (lo, hi; None for an open side), `stages` (s), `steps`
(SSPRK steps), `dt_min` and `dt_max`; `clamped_steps`, the steps whose
extreme slopes (the two reductions that set dt) lay outside
[p_min, p_max]; `marched_nodes` (m: ceil(n/2) for an even H, else n); and
the phase timings `table_s` (slope range and H table) and `march_s`.
Every field holds the one read-only x of its grid.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import CFLViolation, ValidationError
from .fields import Field, FieldHistory, _snapshot_times
from .hamiltonian import HTable, Hamiltonian, _inner_domain, first_reach
from .rate import lax_oleinik

_CFL = 0.9             # dt * max|H'| / h, per Euler substep
_STAGES = 4            # s of SSPRK(s,2): s - 1 Euler steps of time a step
_TABLE_SIZE = 2001
# the knots of a half table whose mirrors test that an H declared even is:
# the last knot, and the end and the middle of solve_hj's dense core
_PROBES = (-1, _TABLE_SIZE // 2, _TABLE_SIZE // 4)


@dataclass
class HJGrid:
    n: int                      # interior nodes on (-1, 1)
    T: float
    A: float
    dt: Optional[float] = None  # None: adaptive
    snapshots: Optional[List[float]] = None

    def __post_init__(self):
        if (not isinstance(self.n, numbers.Integral)
                or isinstance(self.n, bool)):
            raise ValidationError(f"n must be an integer, not {self.n!r}")
        if not (self.n >= 3 and 0 < self.T < math.inf
                and 0 <= self.A < math.inf):
            raise ValidationError("need n >= 3, finite T > 0 and A >= 0")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValidationError("dt must be finite and positive")
        self.snapshots = _snapshot_times(self.snapshots, self.T)

    @property
    def h(self):
        return 2.0 / (self.n + 1)

    @property
    def x(self):
        return _grid_x(self.n)


@functools.lru_cache(maxsize=32)
def _grid_x(n):
    """The n interior nodes and the two boundary points, as one read-only
    array that every grid of that n and every field on it shares."""
    x = np.linspace(-1.0, 1.0, n + 2)
    x.flags.writeable = False
    return x


def _table_knots(pmin, pmax, core_min, core_max, size=_TABLE_SIZE):
    """A dense uniform core of `size` knots covers [core_min, core_max] --
    the slopes the solution actually takes at the requested snapshot
    times, where interpolation error feeds directly into the answer.
    Beyond the core, knots grow geometrically out to the clamp range:
    those slopes occur only inside the transient layer shed by the
    boundary discontinuity, where a ~0.1% relative flux error is
    harmless."""
    core_min = max(core_min, pmin)
    core_max = min(core_max, pmax)
    knots = [np.linspace(core_min, core_max, size)]
    for edge, side in ((pmax, +1.0), (pmin, -1.0)):
        base = core_max if side > 0 else -core_min
        tail = side * edge
        if tail > base + 1e-12:
            start = max(base, 1e-3 * tail)
            m = int(math.ceil(math.log(tail / start) / math.log(1.05)))
            knots.append(side * start * 1.05 ** np.arange(1, m))
            knots.append(np.array([edge]))
    return np.unique(np.concatenate(knots))


def _even_table(h: Hamiltonian, half):
    """The HTable of an even H on the knots `half` (increasing from 0) and
    their mirrors, exactly even.  One batch evaluates H on half and at the
    mirrors of three knots, half[_PROBES]; a mirror that differs from its
    knot by more than 1e-12 max(1, |H|) refuses H as uneven."""
    lo, hi = h.domain
    if lo != -hi:
        raise ValidationError(
            f"H is declared even, but its domain ({lo}, {hi}) is not")
    k = np.array(_PROBES)
    vals = h.batch(np.concatenate([half, -half[k]]))[0]
    Hv, mirror = vals[:half.size], vals[half.size:]
    odd = ~(np.abs(mirror - Hv[k]) <= 1e-12 * np.maximum(1.0, np.abs(Hv[k])))
    if odd.any():
        j = int(np.argmax(odd))
        p = float(half[k[j]])
        raise ValidationError(
            f"H is declared even, but H({-p:.6g}) = {mirror[j]:.17g} "
            f"and H({p:.6g}) = {Hv[k[j]]:.17g}")
    j = int(np.argmax(np.diff(Hv) < 0)) + 1  # the first knot where H falls
    if Hv[j] < Hv[j - 1]:
        raise ValidationError(
            f"H is declared even, but falls on p >= 0: H({half[j]:.6g}) = "
            f"{Hv[j]:.17g} < H({half[j - 1]:.6g}) = {Hv[j - 1]:.17g}")
    return HTable(h, np.concatenate([-half[:0:-1], half]),
                  np.concatenate([Hv[:0:-1], Hv]))


def _march(tab: HTable, grid: HJGrid, even, bounds=(None, None)):
    """The fields at the snapshot times and the march statistics: the
    number of SSPRK(s,2) steps, the smallest and largest dt taken, the
    steps whose extreme slopes left the table, the nodes marched and the
    march's wall time.

    An Euler substep is twelve numpy calls: eight for the undivided ENO2
    slopes, two np.interp lookups in the halves of the table split at p*,
    which hold dt / (s - 1) times H from one multiply per step, the
    maximum of the two and the update of u1.  For an even H (`even`, with
    the exactly even table of _even_table) it marches the nodes 1..m,
    m = ceil(n/2), of even data, keeping -h p+ in the second slope row:
    the rows' maximum, one lookup, the update and a slice copy that
    refreshes the ghosts m + 1, m + 2 from their mirrors g, g - 1
    (g = n - m) make its twelve.  The Lipschitz projection sweeps nodes
    0..m, which is exact for even u, then refreshes them too.  An uneven H
    marches all n nodes (m = n, no ghosts).  `bounds` are the slope bounds
    (lo, hi), None for an open side, which the projection enforces."""
    start = time.perf_counter()
    n, h, dt_fixed = grid.n, grid.h, grid.dt
    ps, Hv = tab.ps, tab.Hv
    p_lo, p_hi = float(ps[0]), float(ps[-1])
    # the mirror of node j is n + 1 - j: ghost m + 1 copies node g = n - m
    m = (n + 1) // 2 if even else n
    size = m + 3 if even else n + 2
    g = n - m
    # knots h p, like the slopes, and F = H times a substep, split at p*
    i = int(np.argmin(Hv))
    ks = ps * h
    F = np.empty_like(Hv)
    ks_up, F_up, ks_down, F_down = ks[i:], F[i:], ks[:i + 1], F[:i + 1]
    # work arrays, allocated once per solve, and every view of them a
    # stage reads or writes, bound once
    du = np.empty(size - 1)         # first differences
    # second differences, 0 at the boundary nodes 0 and n + 1; on the half
    # grid d2[m + 1] is ghost m + 1's own
    d2 = np.zeros(m + 2)
    ad2 = np.empty(m + 2)
    pick = np.empty(m + 1, dtype=bool)  # ENO2: the left d2 is smaller
    c = np.empty(m + 1)             # half the smaller second difference
    P = np.empty((2, m))            # rows h p- and h p+ (-h p+ if even)
    p_minus, p_plus = P
    du_next, du_prev = du[1:], du[:-1]
    du_l, du_r, c_l, c_r = du[:m], du[1:m + 1], c[:-1], c[1:]
    plus_terms = (c_r, du_r) if even else (du_r, c_r)
    d2_in, d2_l, d2_r = d2[1:size - 1], d2[:-1], d2[1:]
    ad2_l, ad2_r = ad2[:-1], ad2[1:]
    u = np.zeros(size)              # u = 0 on the boundary,
    u1 = np.zeros(size)             # which no stage writes
    u[1:m + 1] = grid.A
    u_r, u_l, u_in = u[1:], u[:-1], u[1:m + 1]
    u1_r, u1_l, u1_in = u1[1:], u1[:-1], u1[1:m + 1]
    if even:
        ghosts, mirrors = u[m + 1:], u[g - 1:g + 1][::-1]
        u1_ghosts, u1_mirrors = u1[m + 1:], u1[g - 1:g + 1][::-1]
        ghosts[:] = mirrors

    def slopes(v_r, v_l):
        # ENO2 one-sided slopes h p-, h p+ at the marched nodes, into P
        np.subtract(v_r, v_l, out=du)
        np.subtract(du_next, du_prev, out=d2_in)
        np.abs(d2, out=ad2)
        np.less_equal(ad2_l, ad2_r, out=pick)
        # np.where's temporary beats a masked multiply into c
        np.multiply(np.where(pick, d2_l, d2_r), 0.5, out=c)
        np.add(du_l, c_l, out=p_minus)
        np.subtract(*plus_terms, out=p_plus)

    def euler(v_in):
        # u1 = v - dt Hhat(p-, p+) at the marched nodes, from the slopes
        # in P and dt H in F; the half tables clamp the slopes at p*, and
        # an even H's Hhat is one lookup at max(p-, -p+), put in row p-
        if even:
            np.maximum(p_minus, p_plus, out=p_minus)
        f = np.interp(p_minus, ks_up, F_up)
        if not even:
            np.maximum(f, np.interp(p_plus, ks_down, F_down), out=f)
        np.subtract(v_in, f, out=u1_in)
        if even:
            u1_ghosts[:] = u1_mirrors

    span = m + 1 if even else n + 2
    body = u[:span]
    # (sweep order, ramp) per bounded side: u_j <- min over l of
    # u_l + beta h |j - l|, l on the side the order comes from
    slope_lo, slope_hi = bounds
    sweeps = [(v, beta * h * np.arange(span)) for v, beta in (
        (body, slope_hi),
        (body[::-1], None if slope_lo is None else -slope_lo))
        if beta is not None]
    work = np.empty(span)

    def project():
        # zero the boundary entries, then one cumulative minimum per
        # bounded side
        body[0] = 0.0
        if not even:
            body[-1] = 0.0
        for v, ramp in sweeps:
            np.subtract(v, ramp, out=work)
            np.minimum.accumulate(work, out=work)
            np.add(ramp, work, out=v)
        if even:
            ghosts[:] = mirrors
    if sweeps:
        project()
    if dt_fixed is not None:
        max_speed = float(np.max(np.abs(tab.slopes)))
        if dt_fixed * max_speed / h > (_STAGES - 1) * (1.0 + 1e-12):
            raise CFLViolation(
                f"dt={dt_fixed} violates dt*max|H'|/h <= {_STAGES - 1} "
                f"(max|H'|={max_speed:.3g}, h={h:.3g})")
    # a snapshot holds nodes 0..m and then the mirrors of nodes n - m..0
    order = (np.concatenate([np.arange(m + 1), np.arange(g, -1, -1)])
             if even else np.arange(n + 2))
    fields, t = [], 0.0
    steps, clamped, dt_min, dt_max = 0, 0, math.inf, 0.0
    for target in grid.snapshots:
        tol = 1e-12 * max(1.0, target)
        while abs(t - target) > tol:    # none for a repeated time
            slopes(u_r, u_l)
            lo, hi = float(P.min()) / h, float(P.max()) / h
            if even:                # the rows p-, -p+ and their mirrors
                lo, hi = min(lo, -hi), max(hi, -lo)
            clamped += lo < p_lo or hi > p_hi
            # H' is monotone, so the extreme slopes carry the top speed
            dt = min(dt_fixed or (_STAGES - 1) * _CFL * h
                     / max(tab.speed(lo, hi), 1e-12), target - t)
            # SSPRK(s,2): s Euler substeps into u1, then the average
            np.multiply(Hv, dt / (_STAGES - 1), out=F)
            euler(u_in)
            for _ in range(_STAGES - 1):
                slopes(u1_r, u1_l)
                euler(u1_in)
            u1 *= _STAGES - 1
            u += u1
            u /= _STAGES
            if sweeps:
                project()
            t += dt
            steps += 1
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        t = target
        fields.append(Field(x=grid.x, t=t, values=u[order]))
    return fields, {"steps": steps, "dt_min": float(dt_min),
                    "dt_max": float(dt_max), "clamped_steps": clamped,
                    "stages": _STAGES, "marched_nodes": m,
                    "march_s": time.perf_counter() - start}


def solve_hj(h: Hamiltonian, grid: HJGrid) -> FieldHistory:
    """March the second-order scheme for a convex H, with dom H = (lo, hi)
    read side by side (see the module docstring)."""
    start = time.perf_counter()
    t_first = grid.snapshots[0]
    # Clamping slopes to [-cap, cap] makes the boundary jump in the initial
    # data erode at rate H(cap) instead of resolving instantly, so on an
    # open side H(cap) must dominate A / t_first; the fan it leaves behind
    # moves at speeds up to H'(cap), which must cover the slopes present at
    # the first snapshot.  A finite edge's cap keeps H well inside dom H,
    # and the projection does the rest.  Each cap is the smallest |p|
    # meeting its targets; an even H has the caps of the +1 side on both.
    speed_target = 8.0 / t_first
    value_target = 2000.0 * grid.A / t_first
    bounds = tuple(float(e) if math.isfinite(e) else None for e in h.domain)
    inner = _inner_domain(h.domain)
    caps = {}
    for side in (+1.0,) if h.symmetric else (+1.0, -1.0):
        edge, reach = bounds[side > 0], side * inner[side > 0]
        if edge is not None:
            value_cap = max(5.0, abs(float(h.value(0.8 * edge))))
            core = full = first_reach(h, side, reach, (0,),
                                      lambda H: np.abs(H) >= value_cap)
        else:
            core = first_reach(h, side, reach, (1,),
                               lambda G: np.abs(G) >= speed_target)
            full = first_reach(h, side, reach, (0, 1), lambda H, G: (
                np.abs(G) >= speed_target) & (H >= value_target))
        caps[side] = side * core, side * full
    core_max, pmax = caps[+1.0]
    if h.symmetric:
        core_min, pmin = -core_max, -pmax
        tab = _even_table(h, _table_knots(0.0, pmax, 0.0, core_max,
                                          _TABLE_SIZE // 2 + 1))
    else:
        core_min, pmin = caps[-1.0]
        tab = HTable(h, _table_knots(pmin, pmax, core_min, core_max))
    table_s = time.perf_counter() - start
    fields, stats = _march(tab, grid, h.symmetric, bounds)
    lipschitz = "+lipschitz" if bounds != (None, None) else ""
    return FieldHistory(fields=fields, meta={
        "scheme": f"eno2-godunov-ssprk{_STAGES}2{lipschitz}", "n": grid.n,
        "A": grid.A, "slope_bounds": bounds, "p_min": pmin, "p_max": pmax,
        "table_s": table_s, **stats})


def solve_hj_constrained(h: Hamiltonian, beta0, grid: HJGrid) \
        -> FieldHistory:
    """solve_hj for an H with dom H = (-beta0, beta0), which it checks."""
    if not 0 < beta0 < math.inf:
        raise ValidationError("beta0 must be positive and finite")
    if tuple(h.domain) != (-beta0, beta0):
        raise ValidationError(
            f"beta0 = {beta0} contradicts dom H = {tuple(h.domain)}")
    return solve_hj(h, grid)


def lax_oleinik_field(L, grid: HJGrid, t) -> Field:
    """Reference field min(A, t L(dist/t)) on the same grid (1-D), from one
    L call over every node and both boundary points."""
    vals = np.array(lax_oleinik(L, grid.A, grid.x[:, None], t).value)
    vals[0] = vals[-1] = 0.0
    return Field(x=grid.x, t=t, values=vals)
