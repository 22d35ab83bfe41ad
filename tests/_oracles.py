"""Independent oracles for the truncation-rate criteria (C7, C9).

Nothing here imports ldp.  Each function is the exact law of a jump
process, so its exponent is what the barrier solver's -ln v_R should
approach:

- compact_walk_exponent: the continuum compound Poisson walk with U[-1, 1]
  jumps at rate 1, in exact rational arithmetic (Irwin-Hall sums);
- lattice_walk_exponent: the same walk on the grid h Z with the weights
  w_k = h J(k h) that the nonlocal stencil uses, by floating-point
  convolution (every term is nonnegative, so tails near e^{-110} keep
  their relative accuracy);
- demo_terminal_exponent: the asymmetric demo kernel (Exp(1) jumps to the
  left, U[0, 1] jumps to the right, each at rate 1/2), as a Poisson
  mixture of Gamma left jumps against Irwin-Hall right jumps.

Each is a terminal law P(X_t outside B_R), and leaving B_R by time t
includes ending outside it, so exit >= terminal: a solver exponent may lie
below the oracle's, not above it.

dense_nonlocal_solution is the space-discrete nonlocal equation solved by
a dense matrix exponential, the reference for a solver exact in time.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import gammaincc
from scipy.stats import poisson


def irwin_hall_cdf(n, x):
    """P(U_1 + ... + U_n <= x) for n iid U[0, 1], exactly (x rational)."""
    x = Fraction(x)
    if x <= 0:
        return Fraction(0)
    if x >= n:
        return Fraction(1)
    s = sum((-1) ** k * math.comb(n, k) * (x - k) ** n
            for k in range(math.floor(x) + 1))
    return s / math.factorial(n)


def _log_fraction(q):
    return math.log(q.numerator) - math.log(q.denominator)


def compact_walk_exponent(R, t=1):
    """-ln P(|X_t| > R) for the rate-1 compound Poisson walk with U[-1, 1]
    jumps started at 0 (R, t rational).

    With n jumps X = 2 S_n - n, S_n Irwin-Hall, so P(X > R | n) =
    P(S_n > (n + R)/2) = F_n((n - R)/2) by the symmetry of S_n.  The factor
    e^{-t} of the Poisson weights is kept out of the rational sum.
    """
    R, t = Fraction(R), Fraction(t)
    total = Fraction(0)
    n = math.floor(R) + 1
    while True:
        term = t ** n / math.factorial(n) * irwin_hall_cdf(n, (n - R) / 2)
        total += term
        if n > R + 5 and term < total * Fraction(1, 10 ** 30):
            break
        n += 1
    return float(t) - math.log(2) - _log_fraction(total)


def lattice_walk_exponent(R, h, rho=1.0, t=1.0):
    """-ln P(|X_t| > R) for the lattice walk with jumps k h, 1 <= |k| <=
    rho / h, each at rate h J(k h) = h / (2 rho): the uniform kernel as the
    nonlocal stencil discretises it.  The walk leaves B_R when its node
    index exceeds R / h.
    """
    m = int(round(rho / h))
    step = np.full(2 * m + 1, h / (2 * rho))
    step[m] = 0.0
    rate = float(step.sum())
    step /= rate
    edge = int(math.floor(R / h + 1e-9))
    pmf = np.array([1.0])            # law of the sum of n jumps, offset -n m
    total = 0.0
    for n in range(1, 100000):
        pmf = np.convolve(pmf, step)
        tail = float(pmf[n * m + edge + 1:].sum())
        term = poisson.pmf(n, rate * t) * tail
        total += term
        if n * m > edge and term < 1e-30 * total:
            break
    return -math.log(2.0 * total)


def irwin_hall_pdf(n, s):
    """Density of U_1 + ... + U_n (n >= 1) at s, in floating point."""
    if s <= 0 or s >= n:
        return 0.0
    return sum((-1) ** k * math.comb(n, k) * (s - k) ** (n - 1)
               for k in range(math.floor(s) + 1)) / math.factorial(n - 1)


def demo_terminal_exponent(R, x0, t=1.0, terms=60):
    """-ln P(X_t < -R | X_0 = x0) for the asymmetric demo kernel.

    X_t = x0 - G + S with G a sum of Pois(t/2) Exp(1) jumps (a Gamma(a, 1)
    law given a of them) and S a sum of Pois(t/2) U[0, 1] jumps (Irwin-Hall
    given b of them); the exit asks for G - S > c = R + x0.
    """
    c = R + x0
    a = np.arange(1, terms + 1)
    wa = poisson.pmf(a, 0.5 * t)

    def left_tail(y):                # P(G > y), y > 0
        return float(np.dot(wa, gammaincc(a, y)))

    total = poisson.pmf(0, 0.5 * t) * left_tail(c)
    for b in range(1, 16):
        inner = quad(lambda s: irwin_hall_pdf(b, s) * left_tail(c + s),
                     0.0, b, points=list(range(1, b)) or None,
                     epsabs=0.0, epsrel=1e-12, limit=200)[0]
        total += poisson.pmf(b, 0.5 * t) * inner
    return -math.log(total)


def dense_nonlocal_solution(density, reach, R, T, h, L, A_diff, B_drift,
                            bc_mode, u0):
    """expm(T G) applied to the initial data of the lattice chain on
    x = h {-L/h, ..., L/h}: jumps k h (1 <= |k| <= reach / h) at rate
    h density(k h), plus A_diff / h^2 to each neighbour and |B_drift| / h
    to the neighbour on the side of B_drift.  Jumps off the grid land on
    pads of constant value (a source fed by one extra coordinate fixed at
    1); nodes with |x| > R are absorbing unless bc_mode is whole_line.
    Returns (x, u(T)).
    """
    m = int(round(L / h))
    x = np.arange(-m, m + 1) * h
    n = len(x)
    rates = {}
    for k in range(1, int(math.ceil(reach / h)) + 1):
        rates[k] = h * float(density(k * h))
        rates[-k] = h * float(density(-k * h))
    rates[1] += A_diff / h ** 2 + max(B_drift, 0.0) / h
    rates[-1] += A_diff / h ** 2 + max(-B_drift, 0.0) / h
    start = np.array([float(u0(xi)) for xi in x])
    top = start.max()
    outside = np.abs(x) > R + 1e-12
    if bc_mode == "barrier":
        start, pads = np.where(outside, top, 0.0), (top, top)
    elif bc_mode == "dirichlet_zero_outside":
        start, pads = np.where(outside, 0.0, start), (0.0, 0.0)
    else:
        outside[:], pads = False, (start[0], start[-1])
    gen = np.zeros((n + 1, n + 1))
    for j in np.flatnonzero(~outside):
        for k, r in rates.items():
            i = j + k
            if 0 <= i < n:
                gen[j, i] += r
            else:
                gen[j, n] += r * (pads[0] if i < 0 else pads[1])
            gen[j, j] -= r
    return x, (expm(T * gen) @ np.append(start, 1.0))[:n]
