"""Convex conjugates: the Lagrangian L = H*, the K-transform of the kernel
log-weight, and its inverse.

L(q) = sup_p { p.q - H(p) } is computed by a safeguarded Newton iteration on
the stationarity equation DH(p) = q (DH is strictly increasing along rays),
with bisection fallback inside a maintained bracket and boundary handling
when the supremum is attained at the edge of the finiteness domain of H.

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

from .errors import (BelowRange, DomainViolation, NonConvergence,
                     UnsupportedKernel, ValidationError)
from .hamiltonian import Hamiltonian, first_reach
from .kernels import CompactTail, CriticalTail

_MAX_ITER = 200


@dataclass
class ConjugateResult:
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


def _warm_start(h: Hamiltonian, q):
    """Cold-start heuristic along the sign of q."""
    k = h.kernel
    s = 1.0 if q >= 0 else -1.0
    if k is None:
        return 0.0
    if isinstance(k.tail, CompactTail) and abs(q) > 2:
        return s * math.log(abs(q)) / k.tail.rho
    if isinstance(k.tail, CriticalTail) and abs(q) > 1:
        return s * (1.0 - 1.0 / abs(q)) * k.tail.beta0
    return 0.0


def _conjugate_scalar(value, grad, hess, domain, q, p_init=None):
    """1-D safeguarded Newton for sup_p (p q - H(p)); grad is H'."""
    plo, phi = _inner_bounds(domain)

    def g(p):
        return q - grad(p)

    def g_from(p, pn):
        # a bracketing step that lands where H cannot be evaluated (it
        # overflows there) is halved back towards p, where it could
        for _ in range(64):
            try:
                return pn, g(pn)
            except NonConvergence:
                pn = 0.5 * (p + pn)
        return pn, g(pn)

    # --- bracket the root of g (g is decreasing) -------------------------
    p = 0.0 if p_init is None else min(max(p_init, plo), phi)
    if not (plo < p < phi):
        p = 0.5 * (max(plo, -1.0) + min(phi, 1.0))
    gp = g(p)
    it = 0
    if gp > 0:
        a, ga = p, gp
        b = None
        step = max(1.0, abs(p))
        while it < _MAX_ITER:
            it += 1
            if math.isfinite(phi):
                pn = phi if it > 40 else p + (phi - p) * 0.5
            else:
                pn = p + step
                step *= 2
            pn, gn = g_from(p, pn)
            if gn <= 0:
                b, gb = pn, gn
                break
            a, ga = pn, gn
            p = pn
            if math.isfinite(phi) and phi - p < 1e-13 * max(1.0, abs(phi)):
                break
        if b is None:
            # supremum attained at the domain edge
            pa = phi
            return ConjugateResult(
                value=pa * q - value(pa), argmax=np.array([pa]),
                residual=abs(g(pa)), iterations=it,
                hit_domain_boundary=True)
    else:
        b, gb = p, gp
        a = None
        step = max(1.0, abs(p))
        while it < _MAX_ITER:
            it += 1
            if math.isfinite(plo):
                pn = plo if it > 40 else p - (p - plo) * 0.5
            else:
                pn = p - step
                step *= 2
            pn, gn = g_from(p, pn)
            if gn >= 0:
                a, ga = pn, gn
                break
            b, gb = pn, gn
            p = pn
            if math.isfinite(plo) and p - plo < 1e-13 * max(1.0, abs(plo)):
                break
        if a is None:
            pa = plo
            return ConjugateResult(
                value=pa * q - value(pa), argmax=np.array([pa]),
                residual=abs(g(pa)), iterations=it,
                hit_domain_boundary=True)

    # --- safeguarded Newton inside [a, b] --------------------------------
    tol = max(1e-10, 1e-12 * abs(q))
    p = 0.5 * (a + b)
    gp = g(p)
    dx = dx_old = b - a
    for _ in range(_MAX_ITER):
        it += 1
        if abs(gp) <= tol:
            break
        if gp > 0:
            a = p
        else:
            b = p
        hp = hess(p)
        step = gp / hp if hp > 0 else math.inf
        # Newton while it stays inside [a, b] and at least halves the step
        # before last, else bisect (rtsafe): Newton alone creeps along an
        # exponentially steep H' one unit of ln H' per step
        if not a < p + step < b or abs(2 * step) > abs(dx_old):
            step = 0.5 * (a + b) - p
        dx_old, dx = dx, step
        p = p + step
        gp = g(p)
        if b - a < 1e-15 * max(1.0, abs(a) + abs(b)):
            break
    else:
        raise NonConvergence(f"conjugate solve did not converge for q={q}")
    return ConjugateResult(
        value=p * q - value(p), argmax=np.array([p]), residual=abs(gp),
        iterations=it, hit_domain_boundary=False)


def conjugate(h: Hamiltonian, q, p_init=None):
    """Legendre-Fenchel transform L(q) = sup_p { p.q - H(p) }."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if h.dimension == 1:
        qs = float(q[0])
        init = None if p_init is None else float(np.atleast_1d(p_init)[0])
        if init is None:
            init = _warm_start(h, qs)
        return _conjugate_scalar(
            lambda p: float(h.value(p)), lambda p: h.grad_1d(p),
            lambda p: float(h.hess_quadform(p, 1.0)),
            h.domain, qs, p_init=init)
    if h.symmetric:
        qr = float(np.linalg.norm(q))
        qhat = q / qr if qr > 0 else np.eye(h.dimension)[0]

        res = _conjugate_scalar(
            lambda r: float(h.value(r * qhat)),
            lambda r: float(np.dot(h.grad(r * qhat), qhat)),
            lambda r: float(h.hess_quadform(r * qhat, qhat)),
            h.domain, qr,
            p_init=None if p_init is None
            else float(np.dot(np.asarray(p_init), qhat)))
        return ConjugateResult(
            value=res.value, argmax=float(res.argmax[0]) * qhat,
            residual=res.residual, iterations=res.iterations,
            hit_domain_boundary=res.hit_domain_boundary)
    return _conjugate_nd(h, q, p_init)


def _conjugate_nd(h: Hamiltonian, q, p_init=None):
    """Damped Newton for small N (asymmetric Hamiltonians)."""
    N = h.dimension
    p = np.zeros(N) if p_init is None else np.asarray(p_init, dtype=float)
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
    """L(q) with warm-started repeat evaluations."""

    def __init__(self, h: Hamiltonian):
        self.h = h
        self._last_p = None

    def result(self, q) -> ConjugateResult:
        res = conjugate(self.h, q, p_init=self._last_p)
        self._last_p = res.argmax
        return res

    def __call__(self, q) -> float:
        return self.result(q).value

    def slope(self, q) -> np.ndarray:
        """DL(q) = argmax p of the conjugate."""
        return self.result(q).argmax


class TabulatedLagrangian:
    """L(q) on a 1-D range via one table of H and the monotone map H'.

    The stationarity equation DH(p) = q is inverted by linear interpolation
    on a dense table of H'; since L is the Legendre transform, the envelope
    property makes L(q) = p q - H(p) first-order insensitive to the error in
    the recovered p, so table accuracy carries over to L almost unharmed.
    The table spans the slopes p with |H'(p)| up to q_max (or the domain
    edge); q outside the range of H' it holds raises DomainViolation.
    Intended for bulk evaluations (reference fields); build cost is the
    table, every call afterwards is O(log n).
    """

    def __init__(self, h: Hamiltonian, q_max, points=4001):
        if h.dimension != 1:
            raise ValidationError("tabulated Lagrangian is 1-D only")
        lo, hi = _inner_bounds(h.domain)
        p_hi = first_reach(h, +1.0, hi, lambda H, G: G >= q_max)
        p_lo = -first_reach(h, -1.0, -lo, lambda H, G: G <= -q_max)
        # the knot p = 0 gives H(0), and with it the bound L >= -H(0)
        self.ps = np.union1d(np.linspace(p_lo, p_hi, points), [0.0])
        self.Hv, self.Hg = h.batch(self.ps, (0, 1))
        self._floor = -float(self.Hv[self.ps == 0.0][0])

    def __call__(self, q) -> float:
        q = float(q)
        if not self.Hg[0] <= q <= self.Hg[-1]:
            raise DomainViolation(
                f"q={q} outside the tabulated range [{self.Hg[0]:.6g}, "
                f"{self.Hg[-1]:.6g}]; build the table with a larger q_max")
        p = float(np.interp(q, self.Hg, self.ps))
        Hp = float(np.interp(p, self.ps, self.Hv))
        # the interpolant lies above H: p q - Hp may undershoot -H(0)
        return max(p * q - Hp, self._floor)


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
    logj = kernel.log_radial_density

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
