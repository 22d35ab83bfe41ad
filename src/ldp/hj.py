"""Second-order finite-difference solver for u_t + H(u_x) = 0 on (-1, 1).

Data: u = A inside at t = 0, u = 0 on the boundary for all times.  The
viscosity solution is the Lax-Oleinik field min(A, t L(dist(x)/t)), which
the scheme is validated against.

The scheme follows Osher & Shu (SIAM J. Numer. Anal. 28, 1991):

- ENO2 one-sided slopes p-, p+: the first difference corrected by half
  the second difference of smaller magnitude (first order next to the
  boundary, where only one second difference exists);
- the Godunov flux for convex H,

      Hhat(p-, p+) = max(H(max(p-, p*)), H(min(p+, p*))),  p* = argmin H,

  which is monotone, so the scheme it forms with first-order slopes
  converges to the viscosity solution (Crandall & Lions, Math. Comp. 43,
  1984);
- Heun's method (TVD-RK2): two forward Euler stages, then their average.
  It is strong-stability-preserving with coefficient 1, so each stage
  obeys the step bound of a single Euler step.

The step works in arrays allocated once per solve: each stage writes the
slopes into the rows of one (2, n) array and evaluates both Godunov terms
with one np.interp over it; np.where's choice of second differences and
np.interp's result are its only new arrays.

H is tabulated (one batched HTable) on a finite slope range
[p_min, p_max] and held constant beyond it, which clamps the slopes fed
to H; the clamp only modifies the transient layer emanating from the
boundary discontinuity, not the solution at the requested snapshot times,
because the clamped Hamiltonian agrees with H on every slope the exact
solution takes there.  first_reach finds that range from tables of the
moments each cap reads: H' for the dense core of solve_hj, H and H' for
its clamp range, H alone for the cap of solve_hj_constrained.

The time step is dt = 0.9 h / max |H'| over the slopes currently sampled,
with H' that of the tabulated (piecewise-linear) H, the flux the scheme
actually evaluates.  H' is monotone, so the top speed sits at the extreme
slopes; the step adapts to them, so the stiff initial layer does not
throttle the whole run.

For critical kernels (dom H = [-beta0, beta0]) the plain solver refuses to
run; solve_hj_constrained treats

    max(u_t + H(u_x); |u_x| - beta0) = 0

by projecting slopes into (-beta0, beta0) and enforcing the beta0-Lipschitz
bound with a min-plus sweep after every stage, which also installs the
correct initial trace min(A, beta0 dist(x)).

Both solvers report the march in FieldHistory.meta: `steps` (Heun
steps), `dt_min` and `dt_max`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import CFLViolation, DomainViolation, ValidationError
from .fields import Field, FieldHistory, _snapshot_times
from .hamiltonian import HTable, Hamiltonian, first_reach
from .rate import lax_oleinik

_CFL = 0.9             # dt * max|H'| / h, per Euler stage
_TABLE_SIZE = 2001
_EDGE_MARGIN = 1e-6


@dataclass
class HJGrid:
    n: int                      # interior nodes on (-1, 1)
    T: float
    A: float
    dt: Optional[float] = None  # None: adaptive
    snapshots: Optional[List[float]] = None

    def __post_init__(self):
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
        return np.linspace(-1.0, 1.0, self.n + 2)


def _table_knots(pmin, pmax, core_min, core_max):
    """A dense uniform core covers [core_min, core_max] -- the slopes the
    solution actually takes at the requested snapshot times, where
    interpolation error feeds directly into the answer.  Beyond the core,
    knots grow geometrically out to the clamp range: those slopes occur
    only inside the transient layer shed by the boundary discontinuity,
    where a ~0.1% relative flux error is harmless."""
    core_min = max(core_min, pmin)
    core_max = min(core_max, pmax)
    knots = [np.linspace(core_min, core_max, _TABLE_SIZE)]
    for edge, side in ((pmax, +1.0), (pmin, -1.0)):
        base = core_max if side > 0 else -core_min
        tail = side * edge
        if tail > base + 1e-12:
            start = max(base, 1e-3 * tail)
            m = int(math.ceil(math.log(tail / start) / math.log(1.05)))
            knots.append(side * start * 1.05 ** np.arange(1, m))
            knots.append(np.array([edge]))
    return np.unique(np.concatenate(knots))


def _march(tab: HTable, grid: HJGrid, sweep_beta=None):
    """The fields at the snapshot times and the march statistics: the
    number of Heun steps and the smallest and largest dt taken."""
    n, h = grid.n, grid.h
    ps, Hv = tab.ps, tab.Hv
    pstar = ps[np.argmin(Hv)]
    # work arrays, allocated once per solve; every stage writes into them
    du = np.empty(n + 1)            # first differences
    d2 = np.zeros(n + 2)            # second differences; none at the boundary
    ad2 = np.empty(n + 2)
    pick = np.empty(n + 1, dtype=bool)  # ENO2: the left d2 is smaller
    c = np.empty(n + 1)             # half the smaller second difference
    P = np.empty((2, n))            # rows p- and p+
    u1 = np.zeros(n + 2)
    if sweep_beta is not None:
        ramp = sweep_beta * h * np.arange(n + 2)
        work = np.empty(n + 2)

    def project(v):
        v[0] = v[-1] = 0.0
        if sweep_beta is not None:
            _lipschitz_sweep(v, ramp, work)

    def slopes(v):
        # ENO2 one-sided slopes p-, p+ at the interior nodes, into P
        np.subtract(v[1:], v[:-1], out=du)
        np.divide(du, h, out=du)
        np.subtract(du[1:], du[:-1], out=d2[1:-1])
        np.abs(d2, out=ad2)
        np.less_equal(ad2[:-1], ad2[1:], out=pick)
        # np.where's temporary beats a masked multiply into c
        np.multiply(np.where(pick, d2[:-1], d2[1:]), 0.5, out=c)
        np.add(du[:-1], c[:-1], out=P[0])
        np.subtract(du[1:], c[1:], out=P[1])

    def euler(v, dt):
        # u1 = v - dt Hhat(p-, p+) at the interior nodes, from the slopes
        # in P; np.interp holds H constant beyond the table: the slope clamp
        np.maximum(P[0], pstar, out=P[0])
        np.minimum(P[1], pstar, out=P[1])
        flux = np.interp(P, ps, Hv)
        f = np.maximum(flux[0], flux[1], out=flux[0])
        f *= dt
        np.subtract(v[1:-1], f, out=u1[1:-1])

    u = np.full(n + 2, float(grid.A))
    project(u)
    fields = []
    t = 0.0
    steps, dt_min, dt_max = 0, math.inf, 0.0
    targets = list(grid.snapshots)
    if grid.dt is not None:
        max_speed = float(np.max(np.abs(tab.slopes)))
        if grid.dt * max_speed / h > 1.0 + 1e-12:
            raise CFLViolation(
                f"dt={grid.dt} violates dt*max|H'|/h <= 1 "
                f"(max|H'|={max_speed:.3g}, h={h:.3g})")
    while targets:
        slopes(u)
        if grid.dt is not None:
            dt = grid.dt
        else:
            # H' is monotone, so the extreme slopes carry the top speed
            speed = tab.speed(float(P.min()), float(P.max()))
            dt = _CFL * h / max(speed, 1e-12)
        dt = min(dt, targets[0] - t)
        # Heun (TVD-RK2): two Euler stages, then the average
        euler(u, dt)
        project(u1)
        slopes(u1)
        euler(u1, dt)
        u += u1
        u *= 0.5
        project(u)
        t += dt
        steps += 1
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        if abs(t - targets[0]) <= 1e-12 * max(1.0, targets[0]):
            t = targets[0]
            fields.append(Field(x=grid.x.copy(), t=t, values=u.copy()))
            targets.pop(0)
    return fields, {"steps": steps, "dt_min": float(dt_min),
                    "dt_max": float(dt_max)}


def _lipschitz_sweep(u, ramp, work):
    """Min-plus projection onto the cone of beta-Lipschitz grid functions:
    u_j <- min_k u_k + beta h |j - k|, one cumulative minimum per side, in
    place; ramp holds beta h j and work is scratch of the length of u."""
    for v in (u, u[::-1]):
        np.subtract(v, ramp, out=work)
        np.minimum.accumulate(work, out=work)
        np.add(ramp, work, out=v)


def solve_hj(h: Hamiltonian, grid: HJGrid) -> FieldHistory:
    """March the second-order scheme; H must be finite on the slope range
    the data implies.  Critical Hamiltonians (bounded domain) are refused here:
    the constant-A initial data generates slopes A/h far beyond dom H."""
    lo, hi = h.domain
    t_first = grid.snapshots[0]
    need = grid.A / grid.h
    if (math.isfinite(hi) and need > hi) or (math.isfinite(lo)
                                             and -need < lo):
        raise DomainViolation(
            "initial data implies slopes outside dom(H); use "
            "solve_hj_constrained for gradient-constrained Hamiltonians")
    # Clamping slopes to [-cap, cap] makes the boundary jump in the initial
    # data erode at rate H(cap) instead of resolving instantly, so H(cap)
    # must dominate A / t_first; the fan it leaves behind moves at speeds
    # up to H'(cap), which must cover the slopes present at the first
    # snapshot.  Each cap is the smallest |p| meeting its targets.
    speed_target = 8.0 / t_first
    value_target = 2000.0 * grid.A / t_first
    caps = {}
    for side, bound in ((+1.0, hi), (-1.0, -lo)):
        bound *= 1 - _EDGE_MARGIN
        core = first_reach(h, side, bound, (1,),
                           lambda G: np.abs(G) >= speed_target)
        full = first_reach(h, side, bound, (0, 1), lambda H, G: (
            np.abs(G) >= speed_target) & (H >= value_target))
        caps[side] = side * core, side * full
    (core_max, pmax), (core_min, pmin) = caps[+1.0], caps[-1.0]
    tab = HTable(h, _table_knots(pmin, pmax, core_min, core_max))
    fields, stats = _march(tab, grid)
    return FieldHistory(fields=fields, meta={
        "scheme": "eno2-godunov-heun", "n": grid.n, "A": grid.A,
        "p_min": pmin, "p_max": pmax, **stats})


def solve_hj_constrained(h: Hamiltonian, beta0, grid: HJGrid) \
        -> FieldHistory:
    """Gradient-constrained evolution for critical Hamiltonians."""
    if beta0 <= 0:
        raise ValidationError("beta0 must be positive")
    edge = beta0 * (1 - _EDGE_MARGIN)
    t_first = grid.snapshots[0]
    # Clamp slopes well inside dom H.  The working cap keeps H(p_cap)
    # small enough that the untouched beta0-ramp loses only O(t_first)
    # while the rarefaction fan from the boundary is exact inside its
    # reach; both effects stay well below the verification tolerances.
    value_cap = max(5.0, abs(float(h.value(0.8 * beta0))))
    pmax = first_reach(h, +1.0, edge, (0,), lambda H: np.abs(H) >= value_cap)
    pmin = -pmax
    if math.isfinite(h.domain[0]):
        pmin = max(pmin, h.domain[0] * (1 - _EDGE_MARGIN))
    tab = HTable(h, np.linspace(pmin, pmax, _TABLE_SIZE))
    fields, stats = _march(tab, grid, sweep_beta=beta0)
    return FieldHistory(fields=fields, meta={
        "scheme": "eno2-godunov-heun+lipschitz", "n": grid.n, "A": grid.A,
        "beta0": beta0, "p_min": pmin, "p_max": pmax, **stats})


def lax_oleinik_field(L, grid: HJGrid, t) -> Field:
    """Reference field min(A, t L(dist/t)) on the same grid (1-D), from one
    L call over every node and both boundary points."""
    vals = np.array(lax_oleinik(L, grid.A, grid.x[:, None], t).value)
    vals[0] = vals[-1] = 0.0
    return Field(x=grid.x, t=t, values=vals)
