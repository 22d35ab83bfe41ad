"""Benchmark for ldp: one workload, one fresh process, one closed loop.

    python3 perfbench/run.py --workload point_queries --seed 1 \\
        --seconds 36 --trace 0

Run from the root of a source checkout: ldp is imported from ``src/``.  The
run measures set-up, then repeats passes of the workload for about
``--seconds`` seconds, checks every output against references that do not
call ldp, and prints as the last line of stdout one JSON object with the
keys correct, attempted, failed and metrics.  The line before it is the run
record (versions, nproc, seed, src/ line count, failures).

``--trace 0`` reports the end-to-end metrics of one typical pass, made of
the median time of each call across passes: wall_s is its sum, op_p50_ms
and op_p90_ms its percentiles; a point_queries pass has 395 calls, so 39
samples lie beyond its p90.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, plus the tracing overhead (traced minus untraced median pass time).

The end-to-end times (wall_s, op_p50_ms, op_p90_ms, setup_s and
trace.overhead_s) are given at the reference speed of ``probe.py``: each
is the measured time divided by how much slower than its reference the
probe ran around it, so that the host's slow spells cancel.  The record
line keeps the measured pass times, the probe's slowdown in each pass and
the measured set-up time.  The per-layer self times are as measured.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_GAP_S = 0.02
PROBE_WINDOW_S = 0.5

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernels.calls": "count", "kernels.self_s": "s",
    "hamiltonian.evals": "count", "hamiltonian.quad_calls": "count",
    "hamiltonian.self_s": "s", "hamiltonian.us_per_eval": "us",
    "hamiltonian.max_rel_err": "ratio",
    "conjugate.solves": "count", "conjugate.newton_iters": "count",
    "conjugate.boundary_hits": "count",
    "conjugate.h_evals_per_solve": "count", "conjugate.self_s": "s",
    "conjugate.max_residual": "abs",
    "rate.calls": "count", "rate.self_s": "s",
    "hj.solves": "count", "hj.self_s": "s", "hj.h_evals_per_solve": "count",
    "hj.table_share": "ratio", "hj.max_abs_err": "abs",
    "hj.c4_compact_n399_err": "abs",
    "pde.simulates": "count", "pde.node_steps": "count_computed",
    "pde.self_s": "s", "pde.ns_per_node_step": "ns",
    "pde.saturated_nodes": "count", "pde.exponent_ratio_vs_exact": "ratio",
    "pde.c7_ratio_R24": "ratio", "pde.c9_factor_R20": "ratio",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Set-up is timed in a fresh interpreter so that imports are cold, and
# then scaled by the interpreted speed probe run after the clock stops.
# mpmath is the benchmark's own oracle dependency and is imported before
# the clock starts.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import mpmath
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[{name!r}].setup()
elapsed = time.perf_counter() - t0
import probe
times = []
probe.sample("interpreted", times, 40)
print(elapsed, probe.speed(times))
"""


def _hygiene():
    """One BLAS thread and one ``run_sweep`` worker: the single client then
    runs on one core, and its times follow that core's speed, which the
    probes measure, not the other core's load as well."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "LDP_THREADS"):
        os.environ[var] = "1"
    return nproc


def _setup_seconds(workload):
    """Median over cold interpreters of the set-up time, as measured and
    at the probe's reference speed."""
    code = _SETUP_PROBE.format(src=str(SRC), here=str(HERE), name=workload)
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        elapsed, speed = map(float, out.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed / speed)
    return statistics.median(raw), statistics.median(scaled)


class Pass:
    """One pass: the time of building its objects (`prep`) and of each call,
    as measured and at the probe's reference speed; `speed` is the median
    slowdown of all the pass's probes."""

    def __init__(self, traced, spans, probes, ctx, failures, wrong):
        import probe
        self.traced, self.ctx = traced, ctx
        self.failures, self.wrong = failures, wrong
        times = [t1 - t0 for t0, t1 in spans]
        scaled = [(t1 - t0) / probe.speed(probes, t0, t1, PROBE_WINDOW_S)
                  for t0, t1 in spans]
        self.prep, self.latencies = times[0], times[1:]
        self.scaled_prep, self.scaled = scaled[0], scaled[1:]
        self.wall, self.scaled_wall = sum(times), sum(scaled)
        self.speed = probe.speed(probes)


def run_pass(wl, tracer=None):
    """One closed-loop pass; outputs are checked after the clock stops.
    Probes run before the first call and after any call that ends at least
    PROBE_GAP_S after the last probe, so that probes lie within
    PROBE_WINDOW_S of every call; their time is not the pass's."""
    import probe
    probes = []
    probe.sample(wl.probe, probes)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        ops = wl.ops()
        spans = [(t0, time.perf_counter())]
        ctx, failures = {}, {}
        last = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                ctx[op.name] = op.call()
            except Exception as e:  # a raising call is a failed call
                failures[op.name] = f"raised {type(e).__name__}: {e}"
            end = time.perf_counter()
            spans.append((t, end))
            if end - last >= PROBE_GAP_S:
                probe.sample(wl.probe, probes)
                last = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe.sample(wl.probe, probes)
    wrong = {}
    for op in ops:
        if op.name in failures:
            continue
        try:
            msg = op.check(ctx)
        except KeyError as e:
            failures[op.name] = f"needs the result of failed call {e}"
            continue
        if msg:
            failures[op.name] = wrong[op.name] = msg
    return Pass(tracer is not None, spans, probes, ctx, failures, wrong)


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("point_queries", "hj_fields",
                             "truncation_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args):
    if not (SRC / "ldp" / "__init__.py").is_file():
        print(f"no ldp sources under {SRC}", file=sys.stderr)
        return 2
    nproc = _hygiene()
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import scipy

    import tracing
    import workloads
    import ldp
    if Path(ldp.__file__).resolve().parent != SRC / "ldp":
        print(f"ldp imported from {ldp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    W = workloads.WORKLOADS[args.workload]
    setup_raw_s, setup_s = _setup_seconds(args.workload)
    wl = W(W.setup(), args.seed)
    tracer = tracing.Tracer(extra=[(workloads, workloads.CLOSED_FORM_H)]) \
        if args.trace else None

    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, tracer if traced else None))
        needed = 2 if tracer is not None else 1
        median = statistics.median(p.wall for p in passes)
        if len(passes) >= needed and time.perf_counter() + median > deadline:
            break

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    untraced = [p for p in passes if not p.traced]
    if tracer is None:
        # one typical pass at the probe's reference speed, from the median
        # of each call (and of building the pass's objects) across passes:
        # steadier than the median pass when the speed drifts within a
        # run, and independent of the number of passes
        lat = np.median(np.array([p.scaled for p in untraced]), axis=0)
        wall = float(np.median([p.scaled_prep for p in untraced])
                     + lat.sum())
        p50, p90 = np.percentile(lat, [50, 90])
        values = {
            "wall_s": wall,
            "op_p50_ms": 1e3 * float(p50),
            "op_p90_ms": 1e3 * float(p90),
            "setup_s": setup_s,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        traced = [p for p in passes if p.traced]
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(tracing.layer_metrics(tracer.spans, len(traced)))
        try:
            values.update(wl.layer_values(traced[-1].ctx))
        except KeyError:  # a call it needs failed; that is counted already
            pass
        values["trace.overhead_s"] = (
            statistics.median(p.scaled_wall for p in traced)
            - statistics.median(p.scaled_wall for p in untraced))
        units = PER_LAYER

    failures = sorted({f"{k}: {v}" for p in passes
                       for k, v in p.failures.items()})
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "ops_per_pass": len(passes[0].latencies),
        "pass_walls": [round(p.wall, 4) for p in passes],
        "pass_speeds": [round(p.speed, 4) for p in passes],
        "setup_raw_s": round(setup_raw_s, 4),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": nproc,
        "ldp_threads": os.environ["LDP_THREADS"],
        "src_lines": _src_lines(), "failures": failures[:20],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not any(p.wrong for p in passes),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(run(_parse(sys.argv[1:])))
