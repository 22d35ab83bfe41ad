"""Convex conjugates: the Lagrangian L = H*, the K-transform of the kernel
log-weight, and its inverse.

L(q) = sup_p { p.q - H(p) } solves the stationarity equation DH(p) = q
(DH is strictly increasing along rays) for a whole array of q at once,
element by element, by a safeguarded Newton iteration after Press et
al.'s rtsafe (Numerical Recipes, section 9.4).  One engine call at p0 = 0
(inside the domain of H near 0 where 0 is on its edge) gives H'(p0) and
H''(p0).  In x = s (p - p0) >= 0, s the sign of q - H'(p0), each element
then takes Newton steps on ln(s (H'(p) - H'(p0))) - ln|q - H'(p0)|,
which is close to linear in x for the exponential and compact tails of
the kernels: the iteration neither creeps one unit of ln H' per step, as
Newton on H' itself does, nor needs a bracket found by doubling steps
first.  The first step is the tangent of H' at p0, at most halfway to a
finite edge of the domain of H.  A step that leaves the bracket kept
around the root bisects it, and a trial where H overflows is halved
back.  Where H' never reaches q the supremum is
attained at the domain edge, taken as the engine's inner edge
(`ldp.hamiltonian._inner_domain`, which owns the margin).  Each iteration
makes one engine call, H' and H'' together, for all active q of both
signs (the engine splits the batch by sign), so a result depends on
nothing but its q; `ConjugateResult.iterations` counts these calls.  A
radial H in 2-D is solved so along the ray of q, any other by one
trust-region Newton iteration over the batch (Conn, Gould & Toint,
Trust-Region Methods, 2000), whose iterations are its `derivatives`
calls.

K(p) = sup_y { p.y - |y| omega(y) } with omega(y) = -ln J(y) / |y|.  For
compact kernels the log-weight is flat on the support at the scale that
matters, so K(p) = rho |p| exactly; for critical kernels K degenerates and
only the graph-sense inverse (the constant beta0) is exposed.  For
intermediate kernels K(r) <= z exactly when r y + ln J(y) <= z for every
y > 0, so the graph-sense inverse sup{r >= 0 : K(r) <= z} is
inf_{y>0} (z - ln J(y)) / y: K and its inverse are each one bounded Brent
minimisation along the ray (Brent, Algorithms for Minimization without
Derivatives, 1973).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BelowRange, NonConvergence, UnsupportedKernel,
                     ValidationError)
from .hamiltonian import Hamiltonian, _inner_domain
from .kernels import CompactTail, CriticalTail

_MAX_ITER = 200


@dataclass
class ConjugateResult:
    """L at one point (scalar fields, argmax an (N,) array) or at each of
    m points (arrays of length m, argmax (m, N))."""
    value: float
    argmax: np.ndarray
    residual: float
    iterations: int
    hit_domain_boundary: bool


def _points(v, N, name):
    """v as an (m, N) array of finite points, and whether it was one point
    (a number or an N-vector); in 1-D a flat array holds m points."""
    v = np.asarray(v, dtype=float)
    one = v.shape == (N,) or N == 1 and v.ndim == 0
    if not (one or v.ndim == 2 and v.shape[1] == N or N == 1 and v.ndim == 1):
        raise ValidationError(f"{name} must be a point with {N} component(s)"
                              f" or an array of them, not {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} must be finite")
    return v.reshape(-1, N), one


def _step_back(f, p, pn):
    """The steps p -> pn of a batch that overflowed, each halved back in
    place towards its p while H overflows at its end (64 times at most):
    f (an engine call) at each end alone, and the fraction of each step
    kept."""
    out, kept = [], np.ones(len(pn))
    for j in range(len(pn)):
        for _ in range(64):
            try:
                out.append(f(pn[j:j + 1]))
                break
            except NonConvergence:
                pn[j] = 0.5 * (p[j] + pn[j])
                kept[j] *= 0.5
        else:
            out.append(f(pn[j:j + 1]))
    return out, kept


def _ray(q, g0, p0, h1, c0, edge):
    """The root of H'(p) = q on the side s = sign(g0) of p0, where g0 = q -
    H'(p0), h1 = H'(p0) and c0 = H''(p0), as a generator: it yields each
    trial p with the last trial short of the root, is sent back the p the
    engine took (`_step_back` moves it towards that point where H
    overflows), H'(p) and H''(p), and returns the maximiser, |q - H'(p)|
    there, the trials made and whether the maximiser is the inner edge
    `edge` of the domain on that side (+-inf where the domain is open).

    In x = s (p - p0) >= 0 the root is the zero of the increasing phi(x) =
    ln(s (H'(p) - h1)) - ln|g0|, close to linear in x where H' grows
    exponentially.  The first trial is the root of the tangent of H' at
    p0, or halfway to a finite edge if that is nearer (a batch takes the
    rule of its largest |p|, which costs more next to an edge), then each
    is a Newton step on phi, unless the step leaves the bracket (xa, top):
    then it bisects the bracket.  xa is the last trial
    short of the root; top is xb, the last trial past it (or where H
    overflowed) or the edge, and while xb is an open side, 4 max(1, xa)
    ahead of xa.  Towards a finite edge not yet passed, trial 41 is the
    edge itself, and a trial short of the root within 1e-13 max(1, |edge|)
    of the edge ends there.  The iteration stops at |q - H'(p)| <=
    max(min(1e-10, 1e-4 |g0|), 1e-12 |q|), or where no float lies nearer
    the root: the bracket narrower than 1e-15 (1 + |p|), or a Newton step
    that does not move x."""
    s, size = math.copysign(1.0, g0), abs(g0)
    ln_size = math.log(size)
    tol = max(min(1e-10, 1e-4 * size), 1e-12 * abs(q))
    xe = s * (edge - p0)
    near = xe - 1e-13 * max(1.0, abs(edge))
    xa, xb = 0.0, xe
    x = min(size / c0, 0.5 * xe) if c0 > 0 else math.nan
    for k in range(1, _MAX_ITER + 1):
        top = xb if xb < math.inf else xa + 4.0 * (xa if xa > 1.0 else 1.0)
        if not xa < x < top:
            x = 0.5 * (xa + top)
        if k == 41 and xb == xe < math.inf:
            x = xe
        p = p0 + s * x
        taken, G, C = yield p, p0 + s * xa
        if taken != p:
            xb, x, p = x, s * (taken - p0), taken
        g = s * (q - G)             # falls with x
        if -tol <= g <= tol:
            return p, abs(g), k, False
        if g > 0:
            if x > near:
                return edge, 0.0, k, True
            xa = x
        else:
            xb = x
        if xb - xa < 1e-15 * (1.0 + abs(p)):
            return p, abs(g), k, False
        D = s * (G - h1)
        step = (math.log(D) - ln_size) * D / C if D > 0 < C else math.nan
        if x - step == x:
            return p, abs(g), k, False
        x -= step
    raise NonConvergence(f"conjugate solve did not converge for q={q}")


def _solve(h: Hamiltonian, qs):
    """sup_p (p q - H(p)) for every q of the 1-D array qs (|q| along a ray
    for a radial H): values, maximisers, residuals, iterations (the trials
    of `_ray`, each one engine call) and boundary hits, as arrays.  One
    engine call at p0 gives H'(p0) and H''(p0); then every iteration makes
    one engine call for the trials of all unfinished q, and a last one
    takes H at the maximisers."""
    plo, phi = _inner_domain(h.domain)
    p0 = 0.0 if plo < 0.0 < phi else 0.5 * (max(plo, -1.0) + min(phi, 1.0))
    (h1,), (c0,) = h.batch([p0], (1, 2)).tolist()
    g0 = qs - h1                # g = q - H'(p) falls with p
    m = qs.size
    p, resid = np.full(m, p0), np.zeros(m)
    it, hit = np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    # --- where |g0| <= 1e-10 the engine resolves H' too coarsely for a
    # stop relative to g0 (its absolute error is about 1e-17 near p0, and
    # H' reads 0 below p = 1e-16 for some kernels), while the tangent at
    # p0 is exact to O(g0^2): its root p0 + g0 / H''(p0) is the maximiser
    far = np.abs(g0) > 1e-10
    lin = ~far & (g0 != 0)
    if lin.any():
        p[lin] = np.clip(p0 + g0[lin] / c0 if c0 > 0 else p0, plo, phi)
    # --- every other q runs its own `_ray`; each iteration takes the
    # trials of all of them in one engine call
    rays = {j: _ray(q, g, p0, h1, c0, phi if g > 0 else plo)
            for j, q, g in zip(np.flatnonzero(far).tolist(),
                               qs[far].tolist(), g0[far].tolist())}
    trials = {j: next(ray) for j, ray in rays.items()}
    while trials:
        P = np.array([t for t, _ in trials.values()])
        try:
            G, C = h.batch(P, (1, 2))
        except NonConvergence:
            short = np.array([a for _, a in trials.values()])
            out, _ = _step_back(lambda x: h.batch(x, (1, 2)), short, P)
            G, C = np.concatenate(out, axis=1)
        for j, sent in zip(list(trials), zip(P.tolist(), G.tolist(),
                                             C.tolist())):
            try:
                trials[j] = rays[j].send(sent)
            except StopIteration as end:
                p[j], resid[j], it[j], hit[j] = end.value
                del trials[j]
    # --- the value at the maximiser, H' too for the residual at the edge
    # and at the tangent's root ------------------------------------------
    Hv = np.empty(m)
    other = hit | lin
    if not other.all():
        Hv[~other] = h.batch(p[~other], (0,))[0]
    if other.any():
        Hv[other], G = h.batch(p[other], (0, 1))
        resid[other] = np.abs(qs[other] - G)
    return p * qs - Hv, p, resid, it, hit


def _norm(v):
    """|v| of every row of v, free of overflow in the squares."""
    return np.hypot.reduce(v, axis=1)


def _newton(h: Hamiltonian, qs):
    """sup_p (p.q - H(p)) for every row of the (m, N) array qs, for an H
    that is not radial: Newton from p = 0, one `h.derivatives` call per
    iteration for the rows whose g = q - DH(p) still has |g| > 1e-9 (1 +
    |q|).  Steps are cut to a trust radius per row, doubled after each
    step forward; a row whose last step d passed the maximiser along it by
    more than it started short (g.d < -g0.d; objective values stop changing
    at rounding and are never compared) goes back half of d instead, and
    its radius falls to half of d.  A p past the inner edge |p| = R is
    projected onto it; on the edge, where g points out along u = p / |p|,
    g is its tangential part and (g.u / R) I, the edge's curvature, joins
    D^2 H.  A step to where H overflows is halved back from its start P0,
    as often as it takes, and the radius falls to half of what is kept."""
    m, N = qs.shape
    lo, hi = _inner_domain(h.domain)
    R = min(-lo, hi) * (1 - 4 * np.finfo(float).eps)   # |p| stays within
    p, resid, slope = np.zeros((m, N)), np.zeros(m), np.zeros(m)
    it, hit = np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    i, Q, T = np.arange(m), qs, 1e-9 * (1.0 + _norm(qs))
    P, P0, d, radius = p.copy(), p.copy(), p.copy(), np.ones(m)
    for n in range(1, _MAX_ITER + 1):
        try:
            G, C = h.derivatives(P)
        except NonConvergence:
            out, kept = _step_back(h.derivatives, P0, P)
            G, C = (np.concatenate(v) for v in zip(*out))
            d *= kept[:, None]
            slope *= kept
            radius = np.where(kept < 1, 0.5 * _norm(P - P0), radius)
        g = Q - G
        gap, r = _norm(g), _norm(P)
        u = P / np.where(r > 0, r, 1.0)[:, None]
        # the outward part of g on the edge
        w = np.maximum(np.einsum("ij,ij->i", g, u), 0) * (r >= R * (1 - 1e-12))
        g -= w[:, None] * u
        done = _norm(g) <= T
        if done.any():
            j = i[done]
            p[j], resid[j], it[j], hit[j] = P[done], gap[done], n, w[done] > 0
            i, Q, T, P, P0, d, slope, radius, g, C, u, w = (
                v[~done] for v in (i, Q, T, P, P0, d, slope, radius, g, C, u,
                                   w))
        if not i.size:
            break
        back = np.einsum("ij,ij->i", g, d) < -slope
        C += (w / R)[:, None, None] * np.eye(N)
        s = np.linalg.solve(C, g[..., None])[..., 0]
        s -= ((w > 0) * np.einsum("ij,ij->i", s, u))[:, None] * u
        radius = np.where(back, 0.5 * _norm(d), 2.0 * radius)
        s *= np.minimum(1.0, radius / _norm(s))[:, None]
        pn = P + np.where(back[:, None], -0.5 * d, s)
        rn = _norm(pn)
        on = (rn > R) | (w > 0)
        pn[on] *= (R / rn[on])[:, None]
        slope = np.where(back, 0.5 * slope, np.einsum("ij,ij->i", g, pn - P))
        d, P0, P = np.where(back[:, None], 0.5 * d, pn - P), P, pn
    else:
        raise NonConvergence(
            f"conjugate solve did not converge for q={Q[0]}")
    (Hv,) = h.derivatives(p, (0,))
    return np.einsum("ij,ij->i", p, qs) - Hv, p, resid, it, hit


def _conjugate(h: Hamiltonian, qs) -> ConjugateResult:
    """L at every row of the (m, N) array qs of finite points."""
    if h.dimension == 1:
        value, p, resid, it, hit = _solve(h, qs[:, 0])
        return ConjugateResult(value, p[:, None], resid, it, hit)
    if h.symmetric:
        qr = _norm(qs)
        qhat = qs / np.where(qr > 0, qr, 1.0)[:, None]
        qhat[qr == 0] = np.eye(h.dimension)[0]     # any ray for q = 0
        value, r, resid, it, hit = _solve(h, qr)
        return ConjugateResult(value, r[:, None] * qhat, resid, it, hit)
    return ConjugateResult(*_newton(h, qs))


def conjugate(h: Hamiltonian, q) -> ConjugateResult:
    """Legendre-Fenchel transform L(q) = sup_p { p.q - H(p) } at one point
    q (a number in 1-D, an N-vector), or at each of an array of points
    ((m,) in 1-D, (m, N)) with array fields; q must be finite."""
    qs, one = _points(q, h.dimension, "q")
    res = _conjugate(h, qs)
    # one point: Python scalars, and argmax an (N,) array
    return ConjugateResult(*(v[0] if v.ndim > 1 else v[0].item() for v in
                             vars(res).values())) if one else res


class Lagrangian:
    """L = H* as a callable without state: one point q gives a float, an
    array of points an array, from one batched solve."""

    def __init__(self, h: Hamiltonian):
        self.h = h

    def result(self, q) -> ConjugateResult:
        qs, one = _points(q, self.h.dimension, "q")
        # one point goes through `conjugate`, so that every single solve is
        # a call of it (perfbench/tracing.py counts solves by that call)
        return conjugate(self.h, q) if one else _conjugate(self.h, qs)

    def __call__(self, q):
        return self.result(q).value

    def slope(self, q) -> np.ndarray:
        """DL(q) = argmax p of the conjugate."""
        return self.result(q).argmax


# ---------------------------------------------------------------------------
# K-transform
# ---------------------------------------------------------------------------

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _brent(f, a, b):
    """min of f over [a, b] by Brent's bounded minimisation (Algorithms for
    Minimization without Derivatives, 1973, ch. 5), step for step as
    scipy.optimize.minimize_scalar(method="bounded", options={"xatol":
    1e-13}): the same parabolic and golden steps, the tolerance tol =
    sqrt(2.2e-16) |x| + 1e-13 / 3 and the stop once [a, b] shrinks to 2 tol
    about x or after 500 calls of f.  x is the best point, w the next
    best, v the one before; d is the last step and e the one before it.
    Returns x, f(x) and the calls of f."""
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    n = 1
    while n < 500:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + 1e-13 / 3.0
        tol2 = 2.0 * tol1
        if not abs(x - xm) > tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            # the parabola through x, w and v, taken if its step lands
            # inside (a, b) and is under half the step before last
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        u = x + max(abs(d), tol1) if d >= 0 else x - max(abs(d), tol1)
        fu = f(u)
        n += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, n


def _ray_min(f):
    """Bounded Brent minimisation of f over r > 0 along a ray, for an f
    that falls and then rises: the bracket (0, 2 hi) doubles hi from 1
    until f rises from hi to 2 hi.  f is never evaluated at r = 0.
    Returns the minimiser, the minimum and the calls of f in _brent."""
    hi, f_hi = 1.0, f(1.0)
    for _ in range(200):
        f_2hi = f(2 * hi)
        if f_2hi > f_hi:
            break
        hi, f_hi = 2 * hi, f_2hi
    else:
        raise NonConvergence("no bracket for the minimum along the ray")
    return _brent(f, 0.0, 2 * hi)


def k_transform(kernel, p) -> ConjugateResult:
    """K(p) = sup_y { p.y - |y| omega(y) }, omega = -ln J / |y|."""
    if not kernel.symmetric:
        raise UnsupportedKernel(
            "K-transform machinery is defined for symmetric kernels only")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (kernel.dimension,) or not np.isfinite(p).all():
        raise ValidationError(f"k_transform requires a finite p of "
                              f"{kernel.dimension} component(s), got {p}")
    pr = float(np.linalg.norm(p))
    phat = p / pr if pr > 0 else np.eye(kernel.dimension)[0]
    tail = kernel.tail
    if isinstance(tail, CriticalTail):
        raise UnsupportedKernel(
            "K-transform degenerates for critical kernels; only the "
            "graph-sense inverse (constant beta0) is available")
    if isinstance(tail, CompactTail):
        rho = tail.rho
        return ConjugateResult(
            value=rho * pr, argmax=rho * phat, residual=0.0,
            iterations=0, hit_domain_boundary=False)

    # intermediate: maximize phi(r) = pr * r + ln J(r) over r > 0
    logj = kernel.log_j

    def neg_phi(r):
        return -(pr * r + float(logj(r)))

    x, fun, calls = _ray_min(neg_phi)
    val = max(0.0, -fun)  # phi(0+) -> ln J(0) <= 0 handled by K >= 0
    r0 = float(x) if -fun >= 0 else 0.0
    # report residual as the geometric optimality gap
    eps = 1e-7 * max(1.0, r0)
    resid = max(0.0, -neg_phi(r0) -
                max(-neg_phi(r0 + eps), -neg_phi(max(r0 - eps, 0.0))))
    return ConjugateResult(
        value=val, argmax=r0 * phat, residual=abs(resid),
        iterations=calls,
        hit_domain_boundary=False)


def k_inverse(kernel, z):
    """Graph-sense inverse sup{r >= 0 : K(r) <= z} of the K-transform:
    z / rho for compact kernels, beta0 for critical ones, and for
    intermediate ones inf_{y>0} (z - ln J(y)) / y, which is 0 where
    z <= ln J(0+).  A z that is not finite raises ValidationError, z < 0
    BelowRange, an asymmetric kernel UnsupportedKernel."""
    if not math.isfinite(z):
        raise ValidationError(f"k_inverse requires a finite z, got {z}")
    if z < 0:
        raise BelowRange("k_inverse requires z >= 0")
    if not kernel.symmetric:
        raise UnsupportedKernel("k_inverse is defined for symmetric kernels")
    tail = kernel.tail
    if isinstance(tail, CompactTail):
        return z / tail.rho
    if isinstance(tail, CriticalTail):
        return tail.beta0
    logj = kernel.log_j
    if z <= float(logj(0.0)):
        return 0.0
    return float(_ray_min(lambda y: (z - float(logj(y))) / y)[1])
