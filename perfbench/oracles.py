"""Reference values that never call ldp.

Closed-form Hamiltonians are evaluated in mpmath at 40 digits; their
derivatives come from mpmath's high-precision differentiation.  L = H* is
found by bisection on the closed-form H', and the compact-kernel exit
exponent comes from the exact Irwin-Hall law of the compound Poisson walk.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40

_TEMPERED_ALPHA, _TEMPERED_LAM = 0.5, 1.0
_G_TEMPERED = mp.gamma(-_TEMPERED_ALPHA)


def _tempered_h(p):
    a, lam = _TEMPERED_ALPHA, _TEMPERED_LAM
    return _G_TEMPERED * ((lam - p) ** a + (lam + p) ** a - 2 * lam ** a)


class Family:
    """One kernel family with a closed-form Hamiltonian.

    h(s) is H along a ray (1-D: s = p; 2-D radial: s = |p|), `bracket` an
    interval of s on which h' is finite and spans the slopes queried,
    `density` the Levy density (of y in 1-D, of r in 2-D) on `support`.
    """

    def __init__(self, dim, h, bracket, density, support, rho0):
        self.dim, self.h, self.bracket = dim, h, bracket
        self.density, self.support, self.rho0 = density, support, rho0

    def dh(self, s):
        return mp.diff(self.h, s)

    def d2h(self, s):
        return mp.diff(self.h, s, 2)

    def value(self, p):
        return float(self.h(mp.mpf(self._ray(p))))

    def grad(self, p):
        if self.dim == 1:
            return np.array([float(self.dh(mp.mpf(float(p))))])
        p = np.asarray(p, dtype=float)
        r = float(np.linalg.norm(p))
        return float(self.dh(mp.mpf(r))) * p / r if r else np.zeros(2)

    def hess_quadform(self, p, nu):
        if self.dim == 1:
            return float(nu) ** 2 * float(self.d2h(mp.mpf(float(p))))
        p, nu = np.asarray(p, dtype=float), np.asarray(nu, dtype=float)
        r = float(np.linalg.norm(p))
        if r == 0:  # isotropic: h'(r)/r -> h''(0)
            return float(self.d2h(mp.mpf(0))) * float(nu @ nu)
        par = float(nu @ p) / r
        perp2 = float(nu @ nu) - par ** 2
        rm = mp.mpf(r)
        return float(self.d2h(rm) * par ** 2 + self.dh(rm) / rm * perp2)

    @mp.workdps(20)
    def h_ess(self, p):
        """int_{|y| > rho0/2} e^{p.y} J(y) dy by mpmath quadrature (20
        digits: the 2-D Gaussian case costs ~0.1 s at this precision)."""
        a = mp.mpf(self.rho0) / 2
        lo, hi = self.support
        if self.dim == 1:
            p = mp.mpf(float(p))

            def f(y):
                return mp.exp(p * y) * self.density(y)
            pieces = [(a, min(mp.mpf(1), hi)), (min(mp.mpf(1), hi), hi),
                      (max(mp.mpf(-1), lo), -a), (lo, max(mp.mpf(-1), lo))]
        else:
            r = mp.mpf(float(np.linalg.norm(p)))

            def f(t):
                return 2 * mp.pi * t * mp.besseli(0, r * t) * self.density(t)
            pieces = [(a, min(mp.mpf(1), hi)), (min(mp.mpf(1), hi), hi)]
        return float(sum(mp.quad(f, [u, v]) for u, v in pieces if u < v))

    def lagrangian(self, q):
        """L(q) = sup_p (p.q - H(p)), by bisection on h' along the ray."""
        q = self._ray(q)
        s = self._root(q)
        return float(s * q - self.h(mp.mpf(s)))

    def _root(self, q):
        a, b = self.bracket
        if self.dim == 2:
            a = 0.0
        for _ in range(200):
            m = 0.5 * (a + b)
            if m in (a, b):
                break
            if self.dh(mp.mpf(m)) < q:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    def _ray(self, p):
        """The ray coordinate of p: p itself in 1-D, |p| for radial 2-D."""
        return float(p) if self.dim == 1 else float(np.linalg.norm(p))


_INF = mp.inf
FAMILIES = {
    "compact": Family(
        1, lambda p: mp.sinh(p) / p - 1 if p else mp.mpf(0), (-40.0, 40.0),
        lambda y: mp.mpf(1) / 2, (mp.mpf(-1), mp.mpf(1)), 0.5),
    "exp_linear": Family(
        1, lambda p: p * p / (1 - p * p), (-1 + 1e-9, 1 - 1e-9),
        lambda y: mp.exp(-abs(y)) / 2, (-_INF, _INF), 1.0),
    "exp_power": Family(
        1, lambda p: mp.sqrt(mp.pi) * mp.expm1(p * p / 4), (-12.0, 12.0),
        lambda y: mp.exp(-y * y), (-_INF, _INF), 1.0),
    "tempered": Family(
        1, _tempered_h, (-1 + 1e-9, 1 - 1e-9),
        lambda y: mp.exp(-abs(y)) / abs(y) ** 1.5, (-_INF, _INF), 1.0),
    "demo": Family(
        1, lambda p: (mp.expm1(p) / (2 * p) if p else mp.mpf(1) / 2)
        + 1 / (2 * (p + 1)) - 1, (-1 + 1e-9, 40.0),
        lambda y: mp.exp(y) / 2 if y < 0 else mp.mpf(1) / 2,
        (-_INF, mp.mpf(1)), 1.0),
    "compact_2d": Family(
        2, lambda r: 2 * mp.besseli(1, r) / r - 1 if r else mp.mpf(0),
        (0.0, 40.0), lambda r: 1 / mp.pi, (mp.mpf(0), mp.mpf(1)), 0.5),
    "exp_power_2d": Family(
        2, lambda r: mp.pi * mp.expm1(r * r / 4), (0.0, 12.0),
        lambda r: mp.exp(-r * r), (mp.mpf(0), _INF), 1.0),
}


def family_of(kernel):
    """Name of the closed-form family a kernel object matches, or None."""
    if getattr(kernel, "scale", 1.0) != 1.0:
        return None
    key = (kernel.family, kernel.dimension,
           tuple(sorted((k, float(v)) for k, v in kernel.params.items())))
    return {
        ("compact_uniform", 1, (("rho", 1.0),)): "compact",
        ("exp_linear", 1, (("alpha", 1.0),)): "exp_linear",
        ("exp_power", 1, (("alpha", 2.0),)): "exp_power",
        ("tempered_stable", 1, (("alpha", 0.5), ("lam", 1.0))): "tempered",
        ("asymmetric_1d_demo", 1, ()): "demo",
        ("compact_uniform", 2, (("rho", 1.0),)): "compact_2d",
        ("exp_power", 2, (("alpha", 2.0),)): "exp_power_2d",
    }.get(key)


def rate_iinf(fam, x, t):
    """I_inf(x, t) = min over the unit sphere of t L((x - y)/t)."""
    if fam.dim == 1:
        x = float(np.ravel(x)[0])
        return min(t * fam.lagrangian((x - y) / t) for y in (1.0, -1.0))
    d = 1.0 - float(np.linalg.norm(x))
    return t * fam.lagrangian(np.array([d / t, 0.0])) if d > 0 else 0.0


def k_inverse(name, z, scale=1.0):
    """Known K^{-1}: z/rho (compact), beta0 (critical), and for the Gaussian
    tail J = scale e^{-|y|^2}, K(p) = p^2/4 + ln(scale), so 2 sqrt(z -
    ln(scale))."""
    if name in ("compact", "compact_2d"):
        return z
    if name in ("exp_power", "exp_power_2d"):
        return 2.0 * math.sqrt(z - math.log(scale))
    return 1.0


def predicted_exponent(name, R, theta, t, scale=1.0):
    """Regime exponent of sup|u - u_R| for the shipped kernels (density
    multiplied by `scale`)."""
    if name in ("compact", "compact_2d"):
        return (1 - theta) * R * math.log(R)
    if name in ("exp_power", "exp_power_2d"):
        return (1 - theta) * R * k_inverse(
            name, math.log((1 - theta) * R / t), scale)
    return (1 - theta) * R


# ---------------------------------------------------------------------------
# Lax-Oleinik fields min(A, t L(dist/t)) for the HJ solves (vectorised)
# ---------------------------------------------------------------------------

def _bisect(dh, q, lo, hi):
    a, b = np.full_like(q, lo), np.full_like(q, hi)
    for _ in range(120):
        m = 0.5 * (a + b)
        below = dh(m) < q
        a, b = np.where(below, m, a), np.where(below, b, m)
    return 0.5 * (a + b)


def _compact_dh(p):
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = (p * np.cosh(p) - np.sinh(p)) / (p * p)
    return np.where(np.abs(p) < 1e-4, p / 3, exact)


def _compact_h(p):
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = np.sinh(p) / p - 1
    return np.where(np.abs(p) < 1e-4, p * p / 6, exact)


def lax_oleinik_compact(dist, t, A):
    q = dist / t
    p = _bisect(_compact_dh, q, 0.0, 40.0)
    return np.minimum(A, t * (p * q - _compact_h(p)))


def lax_oleinik_exp_linear(dist, t, A):
    q = dist / t
    p = _bisect(lambda s: 2 * s / (1 - s * s) ** 2, q, 0.0, 1 - 1e-12)
    return np.minimum(A, t * (p * q - p * p / (1 - p * p)))


def lax_oleinik_quadratic(dist, t, A):
    return np.minimum(A, dist * dist / (2 * t))


# ---------------------------------------------------------------------------
# Exit exponent of the compound Poisson walk with U[-1, 1] jumps
# ---------------------------------------------------------------------------

def _irwin_hall_upper(k, x):
    """P(S_k > x), S_k a sum of k independent U[0, 1]."""
    y = k - x
    if y <= 0:
        return mp.mpf(0)
    s = sum((-1) ** j * mp.binomial(k, j) * (y - j) ** k
            for j in range(int(mp.floor(y)) + 1))
    return s / mp.factorial(k)


def _walk_upper(R, t):
    """P(X_t > R) for jump rate 1 and U[-1, 1] jumps (R > 0)."""
    with mp.workdps(300):
        total = mp.mpf(0)
        k = int(math.floor(R)) + 1
        while True:
            w = mp.exp(-t) * mp.mpf(t) ** k / mp.factorial(k)
            term = w * _irwin_hall_upper(k, (mp.mpf(R) + k) / 2)
            total += term
            if k > R + 5 and term < total * mp.mpf(10) ** -30:
                return total
            k += 1


def compact_exit_exponent(R, theta, t):
    """-ln P(|theta R + X_t| > R): an upper bound for -ln sup_{|x| <= theta
    R} v_R(x, t), since leaving B_R by time t includes ending outside it."""
    with mp.workdps(300):
        p = _walk_upper((1 - theta) * R, t) + _walk_upper((1 + theta) * R, t)
        return float(-mp.log(p))
