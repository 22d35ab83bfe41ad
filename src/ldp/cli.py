"""Command-line front end.

Subcommands: hamiltonian, conjugate, kinv, rate, hj, simulate, sweep.
The list arguments (--p, --q, --z, --x, --t, and --R of sweep) accept a
single value, a comma list, or an inclusive range `a:b:step`.  Every
numeric argument must be a finite number, and a list must hold at least
one: `--t ""` is an error, not the default.  Tables are CSV with
12-significant-digit floats; sweeps also emit a gnuplot script next to
the table.  Exit codes: 0 success, 2 validation error, 3 numerical
failure; errors are reported as a JSON record on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .conjugate import Lagrangian, k_inverse
from .errors import LdpError, ValidationError
from .fields import _FMT
from .hamiltonian import Hamiltonian
from .hj import _STAGES, HJGrid, solve_hj
from .kernels import load_kernel
from .pde import (SimConfig, SweepRecord, fit_rate, run_sweep, simulate)
from .rate import lax_oleinik, rate_iinf


def _fmt(v):
    return _FMT.format(float(v))


_MAX_VALUES = 1_000_000     # values one list option may expand to


def _number(text):
    """A finite float; ValidationError for any other text."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"not a number: '{text}'") from None
    if not math.isfinite(value):
        raise ValidationError(f"not a finite number: '{text}'")
    return value


def parse_values(text):
    """Parse `a`, `a,b,c`, or inclusive `a:b:step` into a float list.

    ValidationError for any value that is not a finite number, for a range
    of more than _MAX_VALUES values, and for a list with no value at all
    (`""` or `","`): every option that takes a list needs one, and an
    option left out takes its default instead."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"range must be a:b:step, got '{text}'")
        a, b, step = (_number(p) for p in parts)
        if step <= 0 or b < a:
            raise ValidationError("range needs step > 0 and b >= a")
        span = (b - a) / step
        if not span < _MAX_VALUES:
            raise ValidationError(
                f"range '{text}' has more than {_MAX_VALUES} values")
        n = int(math.floor(span + 1e-9))
        return [a + i * step for i in range(n + 1)]
    values = [_number(p) for p in text.split(",") if p != ""]
    if not values:
        raise ValidationError(f"no value in '{text}'")
    return values


def _integer(text, flag):
    """An integer argument; ValidationError for any other text."""
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{flag} must be an integer, got '{text}'") \
            from None


def _write_rows(out, header, rows, footer=None):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    text = buf.getvalue()
    if footer:
        text += "".join(f"# {k}={v}\n" for k, v in footer.items())
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_hamiltonian(args):
    h = Hamiltonian.from_kernel(load_kernel(args.kernel))
    ps = parse_values(args.p)
    if len(ps) == 1 and not args.out:
        print(_fmt(h.value(ps[0])))
        return
    _write_rows(args.out, ["p", "H"], [(p, float(h.value(p))) for p in ps])


def _cmd_conjugate(args):
    h = Hamiltonian.from_kernel(load_kernel(args.kernel))
    qs = parse_values(args.q)
    vals = Lagrangian(h)([[q] for q in qs])
    if len(qs) == 1 and not args.out:
        print(_fmt(vals[0]))
        return
    _write_rows(args.out, ["q", "L"], zip(qs, vals))


def _cmd_kinv(args):
    kernel = load_kernel(args.kernel)
    zs = parse_values(args.z)
    if len(zs) == 1 and not args.out:
        print(_fmt(k_inverse(kernel, zs[0])))
        return
    _write_rows(args.out, ["z", "Kinv"],
                [(z, k_inverse(kernel, z)) for z in zs])


def _cmd_rate(args):
    kernel = load_kernel(args.kernel)
    lag = Lagrangian(Hamiltonian.from_kernel(kernel))
    xs = parse_values(args.x)
    ts = parse_values(args.t)
    rows = []
    for t in ts:
        # every x at this t from one call
        if args.A is not None:
            res = lax_oleinik(lag, args.A, [[x] for x in xs], t)
        else:
            res = rate_iinf(lag, [[x] for x in xs], t)
        rows.extend((x, t, v) for x, v in zip(xs, res.value))
    if len(rows) == 1 and not args.out:
        print(_fmt(rows[0][2]))
        return
    _write_rows(args.out, ["x", "t", "rate"], rows)


def _cmd_hj(args):
    kernel = load_kernel(args.kernel)
    h = Hamiltonian.from_kernel(kernel)
    snaps = parse_values(args.t) if args.t is not None else None
    grid = HJGrid(n=_integer(args.grid, "--grid"), T=args.tmax, A=args.A,
                  dt=args.dt, snapshots=snaps)
    hist = solve_hj(h, grid)
    if args.out:
        hist.to_csv(args.out)
    else:
        hist.to_csv(sys.stdout)


def _cmd_simulate(args):
    kernel = load_kernel(args.kernel)
    snaps = parse_values(args.t) if args.t is not None else None
    cfg = SimConfig(kernel=kernel, R=args.R, T=args.tmax,
                    bc_mode=args.bc,
                    n_per_unit=_integer(args.grid, "--grid"),
                    snapshots=snaps)
    hist = simulate(cfg)
    if args.out:
        hist.to_csv(args.out)
    else:
        hist.to_csv(sys.stdout)


def _sweep_plot_script(csv_path):
    base = os.path.basename(csv_path)
    return (
        "set datafile separator ','\n"
        "set key left top\n"
        "set xlabel 'R'\n"
        "set ylabel 'exponent'\n"
        f"plot '{base}' using 1:5 skip 1 with linespoints"
        " title 'empirical', \\\n"
        f"     '{base}' using 1:6 skip 1 with linespoints"
        " title 'predicted'\n")


def _profiles_plot_script(csv_path):
    base = os.path.basename(csv_path)
    return (
        "set datafile separator ','\n"
        "set key right top\n"
        "set xlabel 'x'\n"
        "set logscale y\n"
        "set ylabel 'u - u_R'\n"
        f"plot for [R in system(\"awk -F, 'NR>1 {{print $2}}' {base}"
        " | sort -un\")] \\\n"
        f"     '{base}' using 1:($2==R ? $3 : 1/0) skip 1"
        " with lines title 'R='.R\n")


def emit_plot_script(table, kind):
    """Write a gnuplot script next to `table` and return its path."""
    if not os.path.exists(table):
        raise ValidationError(f"table not found: {table}")
    with open(table) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        first = next(reader, None)
    if header is None or first is None:
        raise ValidationError("table is empty")
    required = {"sweep": ["R", "theta", "t", "sup_diff"],
                "profiles": ["x", "R", "value"]}[kind]
    missing = [c for c in required if c not in header]
    if missing:
        raise ValidationError(f"table lacks column(s) {missing}")
    script = (_sweep_plot_script(table) if kind == "sweep"
              else _profiles_plot_script(table))
    path = os.path.splitext(table)[0] + ".gp"
    with open(path, "w") as fh:
        fh.write(script)
    return path


def records_from_csv(path):
    """Re-ingest a sweep table written by the sweep subcommand."""
    records = []
    with open(path) as fh:
        for row in csv.DictReader(
                r for r in fh if not r.startswith("#")):
            records.append(SweepRecord(
                R=float(row["R"]), theta=float(row["theta"]),
                t_obs=float(row["t"]), sup_diff=float(row["sup_diff"]),
                empirical_exponent=float(row["empirical"]),
                predicted_exponent=float(row["predicted"]),
                ratio=float(row["ratio"])))
    return records


def _cmd_sweep(args):
    kernel = load_kernel(args.kernel)
    Rs = parse_values(args.R)
    t_obs = parse_values(args.t)[0] if args.t is not None else 1.0
    records = run_sweep(kernel, Rs, theta=args.theta, t_obs=t_obs)
    fit = fit_rate(records) if len(Rs) >= 3 else None
    out = args.out or "sweep.csv"
    rows = [(r.R, r.theta, r.t_obs, r.sup_diff, r.empirical_exponent,
             r.predicted_exponent, r.ratio) for r in records]
    footer = {"slope": _fmt(fit.slope), "r2": _fmt(fit.r2),
              "trend_ok": str(fit.trend_ok).lower()} if fit else None
    _write_rows(out, ["R", "theta", "t", "sup_diff", "empirical",
                      "predicted", "ratio"], rows, footer)
    emit_plot_script(out, "sweep")
    if kernel.family == "asymmetric_1d_demo":
        prof = os.path.splitext(out)[0] + "_profiles.csv"
        rows = []
        for R in Rs:
            cfg = SimConfig(kernel=kernel, R=R, T=t_obs, bc_mode="barrier")
            f = simulate(cfg).fields[-1]
            rows.extend((float(x), float(R), float(v))
                        for x, v in zip(f.x, f.values))
        _write_rows(prof, ["x", "R", "value"], rows)
        emit_plot_script(prof, "profiles")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

@functools.cache
def _parser():
    """The argparse tree, built on the first call and kept for the
    process: parse_args gives every call a fresh Namespace."""
    ap = argparse.ArgumentParser(
        prog="ldp",
        description="Levy Hamiltonians, conjugates, rate functions, HJ "
                    "and nonlocal-PDE experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, kernel=True):
        if kernel:
            p.add_argument("--kernel", required=True,
                           help="path to a kernel spec (JSON)")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--seed", default=0,
                       type=functools.partial(_integer, flag="--seed"),
                       help="accepted and ignored: nothing is random")

    p = sub.add_parser("hamiltonian", help="evaluate H(p)")
    common(p)
    p.add_argument("--p", required=True)
    p.set_defaults(fn=_cmd_hamiltonian)

    p = sub.add_parser("conjugate", help="evaluate L(q) = H*(q)")
    common(p)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=_cmd_conjugate)

    p = sub.add_parser("kinv", help="evaluate K^{-1}(z)")
    common(p)
    p.add_argument("--z", required=True)
    p.set_defaults(fn=_cmd_kinv)

    p = sub.add_parser("rate", help="rate function I_inf (or Lax-Oleinik "
                                    "value with --A)")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--A", type=_number, default=None)
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("hj", help="march the HJ viscosity scheme")
    common(p)
    p.add_argument("--A", type=_number, required=True)
    p.add_argument("--grid", default="399", help="interior node count")
    p.add_argument("--tmax", type=_number, required=True)
    p.add_argument("--t", default=None, help="snapshot times")
    p.add_argument("--dt", type=_number, default=None, help=f"fixed step of "
                   f"{_STAGES} Euler substeps, <= {_STAGES - 1} h/max|H'|")
    p.set_defaults(fn=_cmd_hj)

    p = sub.add_parser("simulate", help="run the nonlocal parabolic solver")
    common(p)
    p.add_argument("--R", type=_number, required=True)
    p.add_argument("--tmax", type=_number, required=True)
    p.add_argument("--t", default=None, help="snapshot times")
    p.add_argument("--grid", default="16", help="nodes per unit length")
    p.add_argument("--bc", default="dirichlet_zero_outside",
                   choices=["whole_line", "dirichlet_zero_outside",
                            "barrier"])
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="R-sweep of the truncation error")
    common(p)
    p.add_argument("--R", required=True, help="radii, e.g. 8:24:4")
    p.add_argument("--theta", type=_number, default=0.0)
    p.add_argument("--t", default=None, help="observation time")
    p.set_defaults(fn=_cmd_sweep)
    return ap


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        args.fn(args)
    except ValidationError as e:
        json.dump({"error": type(e).__name__, "message": str(e)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    except LdpError as e:
        json.dump({"error": type(e).__name__, "message": str(e)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
