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

hj_scheme_march is the ENO2-Godunov scheme with an SSPRK(s,2) time step
(Heun at s = 2) for u_t + H(u_x) = 0 on (-1, 1), written node by node in
plain Python floats, the reference for the array march of the HJ solvers.

exit_time_field is the exact viscosity solution of that boundary problem,
the exit-time value function, by a brute-force sup over a p-grid.
"""

import math
from bisect import bisect_left, bisect_right
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


def hj_scheme_march(ps, Hv, n, A, snapshots, beta=None, cfl=0.9, stages=2):
    """The ENO2-Godunov-SSPRK(s,2) march of u_t + H(u_x) = 0 on the n interior
    nodes of (-1, 1), u = A inside and 0 on the boundary at t = 0, one node
    at a time.  H is the piecewise-linear interpolant of the table (ps, Hv),
    held constant beyond it.

    - ENO2 slopes: with D_j = (u_{j+1} - u_j) / h and S_j = D_j - D_{j-1}
      (S = 0 at the two boundary nodes), p- = D_{i-1} + S/2 and
      p+ = D_i - S'/2, S and S' the smaller in magnitude (the left one on
      a tie) of (S_{i-1}, S_i) and (S_i, S_{i+1});
    - Godunov flux max(H(max(p-, p*)), H(min(p+, p*))), p* the knot of
      least H;
    - SSPRK(s,2), s = stages (s = 2 is Heun): s Euler substeps of
      dt / (s - 1) from u into u1, then (u + (s - 1) u1) / s; with beta,
      the Lipschitz projection (boundary set to 0, then a running minimum
      of u_k + b h |j - k| over k <= j with b = hi, enforcing u_x <= hi,
      and over k >= j with b = -lo, enforcing u_x >= lo) after the first
      substep and after the average, and once on the initial data.  beta
      is the pair (lo, hi), None for a side without a bound, or a number
      b for (-b, b);
    - dt = (s - 1) cfl h / max|H'| over the two table cells holding the
      smallest and the largest slope of the first substep (the cell of p
      ends at the first knot >= p), cut to land on each snapshot.

    Returns the values at the snapshot times (lists of n + 2 floats) and
    the number of steps.
    """
    ps, Hv = [float(p) for p in ps], [float(v) for v in Hv]
    h = 2.0 / (n + 1)
    lo, hi = (-beta, beta) if isinstance(beta, (int, float)) else (
        beta or (None, None))
    sweeps = [(order, b) for order, b in (
        (range(n + 2), hi),
        (range(n + 1, -1, -1), None if lo is None else -lo))
        if b is not None]
    m = len(ps)
    pstar = ps[min(range(m), key=lambda k: (Hv[k], k))]
    cell_speed = [abs((Hv[k + 1] - Hv[k]) / (ps[k + 1] - ps[k]))
                  for k in range(m - 1)]

    def H(p):
        if p <= ps[0]:
            return Hv[0]
        if p >= ps[-1]:
            return Hv[-1]
        k = bisect_right(ps, p) - 1
        slope = (Hv[k + 1] - Hv[k]) / (ps[k + 1] - ps[k])
        return slope * (p - ps[k]) + Hv[k]

    def speed(p):
        return cell_speed[min(max(bisect_left(ps, p) - 1, 0), m - 2)]

    def slopes(v):
        D = [(v[j + 1] - v[j]) / h for j in range(n + 1)]
        S = [0.0] + [D[j] - D[j - 1] for j in range(1, n + 1)] + [0.0]

        def half_smaller(j):        # of S_j and S_{j+1}
            return 0.5 * (S[j] if abs(S[j]) <= abs(S[j + 1]) else S[j + 1])
        return [(D[i - 1] + half_smaller(i - 1), D[i] - half_smaller(i))
                for i in range(1, n + 1)]

    def euler(v, pairs, dt):
        out = [0.0] * (n + 2)
        for i, (pm, pp) in enumerate(pairs, start=1):
            flux = max(H(max(pm, pstar)), H(min(pp, pstar)))
            out[i] = v[i] - flux * dt
        return out

    def project(v):
        if not sweeps:
            return v
        v = [0.0] + v[1:-1] + [0.0]
        for order, b in sweeps:
            low = math.inf
            for k, j in enumerate(order):
                ramp = b * h * k
                low = min(low, v[j] - ramp)
                v[j] = ramp + low
        return v

    u = project([0.0] + [float(A)] * n + [0.0])
    t, steps, out = 0.0, 0, []
    for target in sorted(snapshots):
        while True:
            pairs = slopes(u)
            flat = [p for pair in pairs for p in pair]
            dt = (stages - 1) * cfl * h / max(
                max(speed(min(flat)), speed(max(flat))), 1e-12)
            dt = min(dt, target - t)
            sub = dt / (stages - 1)
            u1 = project(euler(u, pairs, sub))
            for _ in range(stages - 1):
                u1 = euler(u1, slopes(u1), sub)
            u = project([(a + (stages - 1) * b) / stages
                         for a, b in zip(u, u1)])
            t += dt
            steps += 1
            if abs(t - target) <= 1e-12 * max(1.0, target):
                break
        t = target
        out.append(u)
    return out, steps


def exit_time_field(H, A, x, t, ps):
    """The viscosity solution of u_t + H(u_x) = 0 on (-1, 1), u = A inside
    at time 0 and u = 0 on the boundary, at the points x and time t, for a
    convex H with H(0) = 0 (vectorised), by a brute-force sup over the
    slopes ps.

    It is the exit-time value function min(A, min over y = +-1 and
    s <= t of s L((x - y) / s)) (Bardi & Capuzzo-Dolcetta, Optimal Control
    and Viscosity Solutions of HJB Equations, 1997, ch. IV).  By minimax,
    min over s <= t of sup_p [p d - s H(p)] = sup_p [p d - t max(H, 0)],
    so it is the Lax-Oleinik field of H+ = max(H, 0):

        u(x, t) = min(A, min over y = +-1 of max over p in ps of
                  p (x - y) - t max(H(p), 0)).

    When min H < 0 this lies below the fixed-time field min(A, t L(d/t)),
    near the outflow boundary by up to t (-min H).  ps must hold the
    maximisers (and a p with H(p) <= 0); a grid misses each sup by at most
    the drop of p d - t H+ across the cell that holds it.
    """
    ps = np.asarray(ps, dtype=float)
    cost = t * np.maximum(H(ps), 0.0)
    return np.array([min(A, *(float(np.max(ps * (xi - y) - cost))
                              for y in (-1.0, 1.0)))
                     for xi in np.asarray(x, dtype=float)])
