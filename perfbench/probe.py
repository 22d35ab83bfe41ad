"""Fixed speed probes, so that times are reported at one reference speed.

On a shared host the same code runs up to about twice as slow for spells
that last from seconds to minutes, and CPU time slows with it, so neither
wall time nor CPU time repeats from one run to the next.  A probe is a fixed
piece of work of the kind a workload does that never calls ldp; the run
times it between the workload's calls, and a time divided by ``speed()``
of the probes taken around it is the time at the speed where one probe
takes ``REF_S``.  A change to ldp cannot move a probe, so it moves
the scaled time in full.

Slow spells slow interpreted code more than long vectorised array loops,
so there are two probes and each workload names the one like its own work:

* ``interpreted`` -- float arithmetic in Python, ``scipy.integrate.quad``
  over a Python integrand and small numpy updates, like the scalar H, L
  and HJ code;
* ``arrays`` -- padded ``np.convolve`` Euler steps on a 2049-node grid with
  a 257-tap kernel, like the nonlocal march.
"""

import math
import statistics
import time

import numpy as np
from scipy.integrate import quad

REF_S = 5e-4   # one probe at the reference speed
BURST = 5      # probes per sample


def _f(x, a):
    return math.exp(-a * x * x) * math.cos(x) + 1.0 / (1.0 + x * x)


def interpreted():
    t = time.perf_counter()
    s = 0.0
    for i in range(1000):
        s += _f(i * 1e-3, 1.5)
    for a in (0.5, 1.0, 2.0):
        quad(_f, 0.0, 3.0, args=(a,))
    v = np.linspace(0.0, 1.0, 257)
    for _ in range(20):
        v = np.sqrt(v * v + 1.0) - 0.5
    return time.perf_counter() - t


_W = np.exp(-np.linspace(-4.0, 4.0, 257) ** 2)
_W /= _W.sum()
_U0 = 0.5 + 0.5 * np.cos(np.linspace(0.0, 20.0, 2049))


def arrays():
    t = time.perf_counter()
    u = _U0.copy()
    for _ in range(5):
        up = np.concatenate([np.full(128, u[0]), u, np.full(128, u[-1])])
        u = u + 0.1 * (np.convolve(up, _W, mode="valid") - u)
        np.clip(u, 0.0, 1.0, out=u)
    return time.perf_counter() - t


PROBES = {"interpreted": interpreted, "arrays": arrays}


def sample(kind, out, n=BURST):
    """Append (start, seconds) of `n` probes of `kind` to `out`."""
    for _ in range(n):
        out.append((time.perf_counter(), PROBES[kind]()))


def speed(probes, t0=-math.inf, t1=math.inf, margin=0.0):
    """How many times slower than the reference the probes ran that
    started from `margin` before `t0` to `margin` after `t1`."""
    return statistics.median(
        s for t, s in probes if t0 - margin <= t <= t1 + margin) / REF_S
