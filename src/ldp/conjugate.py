"""Convex conjugates: the Lagrangian L = H*, the K-transform of the kernel
log-weight, and its inverse.

L(q) = sup_p { p.q - H(p) } solves the stationarity equation DH(p) = q
(DH is strictly increasing along rays) for a whole array of q at once,
element by element, after Press et al.'s rtsafe (Numerical Recipes,
section 9.4): from p = 0 each element brackets its root, by halving the
distance to a finite edge of the domain of H or by doubling steps, backing
off where H overflows; then Newton steps inside the bracket, bisecting
where Newton leaves it or fails to halve the step before last.  Where H'
never reaches q the supremum is attained at the domain edge.  Each
iteration makes one engine call for all active q, so a result depends on
nothing but its q.  A radial H in 2-D is solved the same way along the
ray of q; an asymmetric one by a damped Newton iteration per point.

K(p) = sup_y { p.y - |y| omega(y) } with omega(y) = -ln J(y) / |y|.  For
compact kernels the log-weight is flat on the support at the scale that
matters, so K(p) = rho |p| exactly; for critical kernels K degenerates and
only the graph-sense inverse (the constant beta0) is exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (BelowRange, NonConvergence, UnsupportedKernel,
                     ValidationError)
from .hamiltonian import Hamiltonian
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


def _inner_bounds(domain, margin=1e-6):
    lo, hi = domain
    plo = lo + margin * max(1.0, abs(lo)) if math.isfinite(lo) else -math.inf
    phi = hi - margin * max(1.0, abs(hi)) if math.isfinite(hi) else math.inf
    return plo, phi


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


def _batch(h: Hamiltonian, ps, moments):
    """h.batch at ps, in one call for the p < 0 and one for the p >= 0: a
    batch whose p straddle 0 needs a quadrature rule of its own, while
    one-signed batches share the rules of single solves."""
    if ps.size < 2 or not ps.min() < 0 <= ps.max():
        return h.batch(ps, moments)
    neg = ps < 0
    out = np.empty((len(moments), ps.size))
    out[:, neg] = h.batch(ps[neg], moments)
    out[:, ~neg] = h.batch(ps[~neg], moments)
    return out


def _step_back(h: Hamiltonian, p, pn):
    """The bracketing steps p -> pn of a batch that overflowed, each
    halved back towards its p while H overflows at its end (64 times at
    most), and H' there."""
    G = np.empty(pn.size)
    for j in range(pn.size):
        for _ in range(64):
            try:
                G[j] = h.batch(pn[j:j + 1], (1,))[0, 0]
                break
            except NonConvergence:
                pn[j] = 0.5 * (p[j] + pn[j])
        else:
            G[j] = h.batch(pn[j:j + 1], (1,))[0, 0]
    return pn, G


def _solve(h: Hamiltonian, qs):
    """sup_p (p q - H(p)) for every q of the 1-D array qs (|q| along a ray
    for a radial H): values, maximisers, residuals, iterations and
    boundary hits, as arrays.  Each phase keeps its active elements packed
    and drops those that finish."""
    plo, phi = _inner_bounds(h.domain)
    p0 = 0.0 if plo < 0.0 < phi else 0.5 * (max(plo, -1.0) + min(phi, 1.0))
    g0 = qs - h.batch([p0], (1,))[0, 0]     # g = q - H'(p) falls with p
    m = qs.size
    p, resid = np.full(m, p0), np.zeros(m)
    it, hit = np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    a, b = np.empty(m), np.empty(m)
    # --- bracket the root of g where p0 does not solve g = 0: towards a
    # finite edge by halving the distance to it (onto it after 40
    # halvings), else by doubling steps.  pi is the last point short of
    # the root; the edge is hit when pi comes within 1e-13 of it.
    i = np.flatnonzero(g0)
    s = np.sign(g0[i])
    edge = np.where(s > 0, phi, plo)
    fin = np.isfinite(edge)
    close = 1e-13 * np.maximum(1.0, np.abs(edge))
    pi, Q = p[i], qs[i]
    step = max(1.0, abs(p0))
    for k in range(1, _MAX_ITER + 1):
        if not i.size:
            break
        pn = pi + s * step
        step *= 2
        if fin.any():
            pn = np.where(fin, edge if k > 40 else pi + (edge - pi) * 0.5, pn)
        try:
            G = _batch(h, pn, (1,))[0]
        except NonConvergence:
            pn, G = _step_back(h, pi, pn)
        done = cross = s * (Q - G) <= 0
        if fin.any():
            done = cross | (np.abs(edge - pn) < close)
        if done.any():
            j = i[done]
            it[j], hit[j] = k, ~cross[done]
            a[j] = np.minimum(pi, pn)[done]
            b[j] = np.maximum(pi, pn)[done]
            keep = ~done
            i, s, edge, fin, close, Q, pn = (
                v[keep] for v in (i, s, edge, fin, close, Q, pn))
        pi = pn
    # never crossed: the supremum lies on the domain edge
    it[i], hit[i] = _MAX_ITER, True
    p[hit] = np.where(g0[hit] > 0, phi, plo)
    # --- safeguarded Newton inside [a, b] ---------------------------------
    i = np.flatnonzero(~hit & (g0 != 0))
    A, B, Q, kb = a[i], b[i], qs[i], it[i]
    T = np.maximum(1e-10, 1e-12 * np.abs(Q))
    P = 0.5 * (A + B)
    G, C = _batch(h, P, (1, 2))
    G = Q - G
    dx = dx_old = B - A             # |last step| and |the one before|
    done, last = np.abs(G) <= T, np.zeros(i.size, dtype=bool)
    for n in range(1, _MAX_ITER + 1):
        # finished: converged at the top of iteration n, or the bracket
        # collapsed at the end of iteration n - 1
        if done.any():
            j = i[done]
            p[j], resid[j] = P[done], np.abs(G[done])
            it[j] = kb[done] + n - last[done]
            keep = ~done
            i, A, B, Q, kb, T, P, G, C, dx, dx_old = (
                v[keep] for v in (i, A, B, Q, kb, T, P, G, C, dx, dx_old))
        if not i.size:
            break
        right = G > 0
        np.copyto(A, P, where=right)
        np.copyto(B, P, where=~right)
        step = G / np.where(C > 0, C, np.nan)
        size = np.abs(step)
        pn = P + step
        # Newton while it stays inside [a, b] and at least halves the step
        # before last, else bisect: Newton alone creeps along an
        # exponentially steep H' one unit of ln H' per step
        newton = (A < pn) & (pn < B) & (size + size <= dx_old)
        step = np.where(newton, step, 0.5 * (A + B) - P)
        dx_old, dx = dx, np.abs(step)
        P = P + step
        G, C = _batch(h, P, (1, 2))
        G = Q - G
        last = B - A < 1e-15 * np.maximum(1.0, np.abs(A) + np.abs(B))
        done = last | (np.abs(G) <= T)
    else:
        raise NonConvergence(
            f"conjugate solve did not converge for q={Q[0]}")
    # --- the value at the maximiser, H' too at the edge for the residual --
    Hv = np.empty(m)
    inner = ~hit
    if inner.any():
        Hv[inner] = _batch(h, p[inner], (0,))[0]
    if hit.any():
        Hv[hit], G = _batch(h, p[hit], (0, 1))
        resid[hit] = np.abs(qs[hit] - G)
    return p * qs - Hv, p, resid, it, hit


def _conjugate(h: Hamiltonian, qs) -> ConjugateResult:
    """L at every row of the (m, N) array qs of finite points."""
    if h.dimension == 1:
        value, p, resid, it, hit = _solve(h, qs[:, 0])
        return ConjugateResult(value, p[:, None], resid, it, hit)
    if h.symmetric:
        qr = np.linalg.norm(qs, axis=1)
        qhat = qs / np.where(qr > 0, qr, 1.0)[:, None]
        qhat[qr == 0] = np.eye(h.dimension)[0]     # any ray for q = 0
        value, r, resid, it, hit = _solve(h, qr)
        return ConjugateResult(value, r[:, None] * qhat, resid, it, hit)
    res = [_conjugate_nd(h, q) for q in qs]
    return ConjugateResult(*(np.array([getattr(r, f) for r in res]) for f in
                             ("value", "argmax", "residual", "iterations",
                              "hit_domain_boundary")))


def conjugate(h: Hamiltonian, q) -> ConjugateResult:
    """Legendre-Fenchel transform L(q) = sup_p { p.q - H(p) } at one point
    q (a number in 1-D, an N-vector), or at each of an array of points
    ((m,) in 1-D, (m, N)) with array fields; q must be finite."""
    qs, one = _points(q, h.dimension, "q")
    res = _conjugate(h, qs)
    # one point: Python scalars, and argmax an (N,) array
    return ConjugateResult(*(v[0] if v.ndim > 1 else v[0].item() for v in
                             vars(res).values())) if one else res


def _conjugate_nd(h: Hamiltonian, q):
    """Damped Newton from p = 0 for small N (asymmetric Hamiltonians)."""
    N = h.dimension
    p = np.zeros(N)
    plo, phi = _inner_bounds(h.domain)

    def phi_obj(p):
        return float(np.dot(p, q)) - float(h.value(p))

    it = 0
    for _ in range(_MAX_ITER):
        it += 1
        g = q - np.asarray(h.grad(p))
        tol = 1e-9 * (1.0 + float(np.linalg.norm(q)))
        if np.linalg.norm(g) <= tol:
            return ConjugateResult(
                value=phi_obj(p), argmax=p, residual=float(np.linalg.norm(g)),
                iterations=it, hit_domain_boundary=False)
        # Hessian from quadratic forms
        Hm = np.zeros((N, N))
        basis = np.eye(N)
        for i in range(N):
            Hm[i, i] = h.hess_quadform(p, basis[i])
        for i in range(N):
            for j in range(i + 1, N):
                mixed = h.hess_quadform(
                    p, (basis[i] + basis[j]) / math.sqrt(2))
                Hm[i, j] = Hm[j, i] = mixed - 0.5 * (Hm[i, i] + Hm[j, j])
        try:
            step = np.linalg.solve(Hm, g)
        except np.linalg.LinAlgError:
            step = g
        lam = 1.0
        base = phi_obj(p)
        for _ in range(60):
            pn = p + lam * step
            if (math.isfinite(phi) and np.linalg.norm(pn) > phi) or \
               (math.isfinite(plo) and np.linalg.norm(pn) > abs(plo)):
                lam *= 0.5
                continue
            if phi_obj(pn) >= base:
                break
            lam *= 0.5
        p = p + lam * step
    raise NonConvergence("N-dimensional conjugate solve did not converge")


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

def k_transform(kernel, p) -> ConjugateResult:
    """K(p) = sup_y { p.y - |y| omega(y) }, omega = -ln J / |y|."""
    if not kernel.symmetric:
        raise UnsupportedKernel(
            "K-transform machinery is defined for symmetric kernels only")
    p = np.atleast_1d(np.asarray(p, dtype=float))
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

    hi = 1.0
    for _ in range(200):
        if neg_phi(hi * 2) > neg_phi(hi):
            break
        hi *= 2
    else:
        raise NonConvergence("K-transform bracket search failed")
    res = minimize_scalar(neg_phi, bounds=(0.0, 2 * hi), method="bounded",
                          options={"xatol": 1e-13})
    val = max(0.0, -res.fun)  # phi(0+) -> ln J(0) <= 0 handled by K >= 0
    r0 = float(res.x) if -res.fun >= 0 else 0.0
    # report residual as the geometric optimality gap
    eps = 1e-7 * max(1.0, r0)
    resid = max(0.0, -neg_phi(r0) -
                max(-neg_phi(r0 + eps), -neg_phi(max(r0 - eps, 0.0))))
    return ConjugateResult(
        value=val, argmax=r0 * phat, residual=abs(resid),
        iterations=int(getattr(res, "nit", 0) or 0),
        hit_domain_boundary=False)


def k_inverse(kernel, z, tol=1e-12):
    """Inverse of r -> K(r) on r >= 0 (graph sense for the degenerate
    compact/critical cases)."""
    if z < 0:
        raise BelowRange("k_inverse requires z >= 0")
    if not kernel.symmetric:
        raise UnsupportedKernel("k_inverse is defined for symmetric kernels")
    tail = kernel.tail
    if isinstance(tail, CompactTail):
        return z / tail.rho
    if isinstance(tail, CriticalTail):
        return tail.beta0
    if z == 0.0:
        return 0.0
    e1 = np.eye(kernel.dimension)[0]

    def K(r):
        return k_transform(kernel, r * e1).value

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if K(hi) >= z:
            break
        lo, hi = hi, hi * 2
    else:
        raise NonConvergence("k_inverse: failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if K(mid) < z:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
