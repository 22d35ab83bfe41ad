"""Layer spans recorded from outside the program.

The tracer wraps every public function of the ldp modules below, in every
``ldp.*`` namespace that holds it (``ldp.rate.k_inverse`` and
``ldp.conjugate.k_inverse`` are the same object, so both names are
patched), plus ``quad`` inside ``ldp.hamiltonian`` and the benchmark's own
closed-form Hamiltonians.  A span records its layer, function, start, end
and parent; spans started on ``run_sweep``'s worker threads take the span
that submitted the work as their parent.  Nothing inside ldp changes.
"""

import collections
import functools
import inspect
import itertools
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import oracles as O

LAYERS = ("kernels", "hamiltonian", "conjugate", "rate", "hj", "pde", "cli")
H_EVALS = ("eval_h", "grad_h", "hess_quadform", "eval_h_ess")
HJ_SOLVES = ("solve_hj", "solve_hj_constrained")
CLOSED_FORM_LAYER = "closed_form_h"
_SAT_FLOOR = 1e-300
_ERR_SAMPLES = 64   # H evaluations per function checked for max_rel_err


class Span:
    __slots__ = ("id", "parent", "layer", "name", "t0", "t1", "payload")

    def __init__(self, sid, parent, layer, name, t0, t1, payload):
        self.id, self.parent, self.layer, self.name = sid, parent, layer, name
        self.t0, self.t1, self.payload = t0, t1, payload


def _conjugate_payload(args, result):
    return (result.iterations, result.hit_domain_boundary, result.residual)


def _simulate_payload(args, hist):
    """Grid nodes times Euler steps, computed from the grid and meta["dt"],
    and the nodes at or below the representable floor."""
    cfg = args[0]
    dt = float(hist.meta["dt"])
    steps, t = 0, 0.0
    for s in cfg.snapshots:
        steps += math.ceil((s - t) / dt - 1e-9)
        t = s
    saturated = sum(int(np.sum(f.values <= _SAT_FLOOR)) for f in hist.fields)
    return (len(cfg.x) * steps, saturated)


def _h_payload(args, result):
    return (args, result)


_PAYLOADS = {"conjugate": _conjugate_payload, "simulate": _simulate_payload,
             "eval_h": _h_payload, "grad_h": _h_payload,
             "hess_quadform": _h_payload}


class Tracer:
    def __init__(self, extra=()):
        """extra: (module, names) pairs of benchmark functions to trace as
        closed-form H evaluations."""
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._extra = extra

    # -- recording ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, name, fn):
        payload = _PAYLOADS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result, done = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    sid, parent, layer, name, t0, t1,
                    payload(args, result) if payload and done else None))
        return traced

    def _executor(self):
        tracer = self

        def attached(parent, fn, *args, **kwargs):
            stack = tracer._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                return super().submit(attached, stack[-1] if stack else 0,
                                      fn, *args, **kwargs)
        return TracedExecutor

    # -- patching -----------------------------------------------------------

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "ldp" or n.startswith("ldp.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules["ldp." + layer]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = (fn, self.wrap(layer, name, fn))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(mod, name, wrapped[id(obj)][1])
        ham = sys.modules["ldp.hamiltonian"]
        self._patch(ham, "quad", self.wrap("hamiltonian", "quad", ham.quad))
        self._patch(sys.modules["ldp.pde"], "ThreadPoolExecutor",
                    self._executor())
        for mod, names in self._extra:
            for name in names:
                self._patch(mod, name, self.wrap(
                    CLOSED_FORM_LAYER, name, getattr(mod, name)))

    def _patch(self, mod, name, new):
        self._patches.append((mod, name, getattr(mod, name)))
        setattr(mod, name, new)

    def uninstall(self):
        while self._patches:
            mod, name, old = self._patches.pop()
            setattr(mod, name, old)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _self_times(spans):
    children = collections.defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    return {s.id: s.t1 - s.t0 - _covered(children.get(s.id, ()))
            for s in spans}


def _ancestor(span, by_id, test):
    s = by_id.get(span.parent)
    while s is not None:
        if test(s):
            return s
        s = by_id.get(s.parent)
    return None


def _h_reference(name, args):
    """Closed-form value of a traced H evaluation, or None."""
    params, p = args[0], args[1]
    fam = O.family_of(params.kernel) if params.kernel is not None else None
    if fam is None or np.any(params.A) or np.any(params.B):
        return None
    F = O.FAMILIES[fam]
    if not params.kernel.symmetric and params.compensated:
        return None
    if F.dim == 1:
        p = float(np.ravel(p)[0])
    if name == "eval_h":
        return F.value(p)
    if name == "grad_h":
        return F.grad(p)
    nu = args[2]
    return F.hess_quadform(p, float(np.ravel(nu)[0]) if F.dim == 1 else nu)


def _max_rel_err(spans):
    worst = 0.0
    for name in ("eval_h", "grad_h", "hess_quadform"):
        done = [s.payload for s in spans
                if s.name == name and s.payload is not None]
        step = max(1, len(done) // _ERR_SAMPLES)
        for args, result in done[::step]:
            ref = _h_reference(name, args)
            # no relative error where the closed form is exactly 0 (H'(0)
            # of a symmetric kernel, the usual first Newton iterate)
            if ref is None or not np.any(ref):
                continue
            a, b = np.asarray(result, float), np.asarray(ref, float)
            worst = max(worst, float(np.linalg.norm(a - b))
                        / float(np.linalg.norm(b)))
    return worst


def layer_metrics(spans, passes):
    """Per-pass layer figures from the spans of `passes` traced passes."""
    by_id = {s.id: s for s in spans}
    own = _self_times(spans)
    count = collections.Counter()
    self_s = collections.Counter()
    for s in spans:
        count[s.layer, s.name] += 1
        self_s[s.layer] += own[s.id]

    def n(layer, names=None):
        return sum(c for (lay, name), c in count.items()
                   if lay == layer and (names is None or name in names))

    h_spans = [s for s in spans if s.name in H_EVALS
               or s.layer == CLOSED_FORM_LAYER]
    conj_evals = sum(1 for s in h_spans if s.layer == "hamiltonian" and
                     _ancestor(s, by_id, lambda a: a.name == "conjugate"))
    hj_h = [s for s in h_spans
            if _ancestor(s, by_id, lambda a: a.name in HJ_SOLVES)]
    hj_time = sum(s.t1 - s.t0 for s in spans if s.name in HJ_SOLVES)
    conj = [s.payload for s in spans
            if s.name == "conjugate" and s.payload is not None]
    interior = [r for _, hit, r in conj if not hit]
    sims = [s.payload for s in spans
            if s.name == "simulate" and s.payload is not None]
    node_steps = sum(p[0] for p in sims)
    h_evals = n("hamiltonian", H_EVALS)
    solves, hj_solves = len(conj), n("hj", HJ_SOLVES)

    return {
        "kernels.calls": n("kernels") / passes,
        "kernels.self_s": self_s["kernels"] / passes,
        "hamiltonian.evals": h_evals / passes,
        "hamiltonian.quad_calls": n("hamiltonian", ("quad",)) / passes,
        "hamiltonian.self_s": self_s["hamiltonian"] / passes,
        "hamiltonian.us_per_eval":
            1e6 * self_s["hamiltonian"] / h_evals if h_evals else 0.0,
        "hamiltonian.max_rel_err": _max_rel_err(spans),
        "conjugate.solves": solves / passes,
        "conjugate.newton_iters": sum(c[0] for c in conj) / passes,
        "conjugate.boundary_hits": sum(c[1] for c in conj) / passes,
        "conjugate.h_evals_per_solve": conj_evals / solves if solves else 0.0,
        "conjugate.self_s": self_s["conjugate"] / passes,
        "conjugate.max_residual": max(interior, default=0.0),
        "rate.calls": n("rate") / passes,
        "rate.self_s": self_s["rate"] / passes,
        "hj.solves": hj_solves / passes,
        "hj.self_s": self_s["hj"] / passes,
        "hj.h_evals_per_solve": len(hj_h) / hj_solves if hj_solves else 0.0,
        "hj.table_share":
            sum(s.t1 - s.t0 for s in hj_h) / hj_time if hj_time else 0.0,
        "pde.simulates": n("pde", ("simulate",)) / passes,
        "pde.node_steps": node_steps / passes,
        "pde.self_s": self_s["pde"] / passes,
        "pde.ns_per_node_step":
            1e9 * self_s["pde"] / node_steps if node_steps else 0.0,
        "pde.saturated_nodes": sum(p[1] for p in sims) / passes,
        "cli.calls": n("cli", ("main",)) / passes,
        "cli.self_s": self_s["cli"] / passes,
    }
