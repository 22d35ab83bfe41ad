import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import ldp.cli as cli
from ldp import fit_rate
from ldp.cli import emit_plot_script, main, parse_values, records_from_csv
from ldp.errors import ValidationError


@pytest.fixture
def compact_spec(kernel_spec_path):
    return kernel_spec_path({"family": "compact_uniform",
                             "params": {"rho": 1.0}}, "compact.json")


@pytest.fixture
def critical_spec(kernel_spec_path):
    return kernel_spec_path({"family": "exp_linear",
                             "params": {"alpha": 1.0}}, "critical.json")


@pytest.fixture
def demo_spec(kernel_spec_path):
    return kernel_spec_path({"family": "asymmetric_1d_demo"}, "demo.json")


@pytest.fixture
def exp_power_spec(kernel_spec_path):
    return kernel_spec_path({"family": "exp_power",
                             "params": {"alpha": 2.0}}, "exp_power.json")


def test_parse_values_forms():
    assert parse_values("2.5") == [2.5]
    assert parse_values("1,2,3") == [1.0, 2.0, 3.0]
    assert parse_values("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValidationError):
        parse_values("5:1:1")
    with pytest.raises(ValidationError):
        parse_values("0:1:0")


def test_hamiltonian_single_value_print(compact_spec, capsys):
    assert main(["hamiltonian", "--kernel", compact_spec, "--p", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0.175201193644"


def test_kinv_single_value_print(compact_spec, capsys):
    assert main(["kinv", "--kernel", compact_spec, "--z", "7"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_conjugate_table_output(critical_spec, tmp_path, capsys):
    out = str(tmp_path / "L.csv")
    assert main(["conjugate", "--kernel", critical_spec,
                 "--q", "0.5,1,2", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "q,L"
    assert len(lines) == 4


def test_validation_error_exit_code(compact_spec, capsys):
    # z below the admissible range of the inverse transform
    assert main(["kinv", "--kernel", compact_spec, "--z", "-1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BelowRange"


def test_scalar_p_for_2d_kernel_exit_code(kernel_spec_path, capsys):
    spec = kernel_spec_path({"family": "compact_uniform", "dimension": 2,
                             "params": {"rho": 1.0}}, "compact_2d.json")
    assert main(["hamiltonian", "--kernel", spec, "--p", "2.0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


def test_unsupported_kernel_exit_code(demo_spec, capsys):
    assert main(["kinv", "--kernel", demo_spec, "--z", "1"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnsupportedKernel"


def test_simulate_csv(compact_spec, tmp_path):
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--kernel", compact_spec, "--R", "3",
                 "--tmax", "0.5", "--grid", "8", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "x,t,value"


def test_hj_csv(compact_spec, tmp_path):
    out = str(tmp_path / "hj.csv")
    assert main(["hj", "--kernel", compact_spec, "--A", "2",
                 "--grid", "49", "--tmax", "0.5", "--out", out]) == 0
    lines = [l for l in Path(out).read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "x,t,value"
    vals = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert np.all(vals >= 0.0) and np.all(vals <= 2.0)


@pytest.mark.parametrize("spec", ["compact_spec", "critical_spec",
                                  "demo_spec"])
def test_hj_csv_carries_the_march_stats(spec, request, tmp_path):
    out = str(tmp_path / "hj.csv")
    assert main(["hj", "--kernel", request.getfixturevalue(spec), "--A", "2",
                 "--grid", "49", "--tmax", "0.5", "--out", out]) == 0
    meta = dict(l[2:].split("=", 1) for l in Path(out).read_text()
                .splitlines() if l.startswith("# "))
    assert int(meta["steps"]) > 0
    assert 0 < float(meta["dt_min"]) <= float(meta["dt_max"]) <= 0.5
    if spec == "demo_spec":
        # dom H = (-1, inf) bounds one side.  The march takes 103 steps;
        # a table that ran up to the edge p = -1, where |H'| blows up,
        # would cut dt to ~1e-10 and take millions
        assert meta["slope_bounds"] == "(-1.0, None)"
        assert int(meta["steps"]) <= 500


def test_sweep_deterministic_and_reingestable(compact_spec, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"sweep_{tag}.csv")
        assert main(["sweep", "--kernel", compact_spec, "--R", "3:5:1",
                     "--out", out, "--seed", "0"]) == 0
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]

    path = str(tmp_path / "sweep_a.csv")
    recs = records_from_csv(path)
    assert [r.R for r in recs] == [3.0, 4.0, 5.0]
    # the table keeps no solver counts or timings
    assert all(r.matvecs is None and r.wall_s is None for r in recs)
    fit = fit_rate(recs)
    assert np.isfinite(fit.slope)
    # footer carries the same fit
    footer = [l for l in Path(path).read_text().splitlines()
              if l.startswith("# slope=")]
    assert len(footer) == 1
    # a gnuplot script is emitted next to the table
    gp = path.replace(".csv", ".gp")
    assert "plot" in Path(gp).read_text()


def test_emit_plot_script_guards(tmp_path):
    with pytest.raises(ValidationError):
        emit_plot_script(str(tmp_path / "missing.csv"), "sweep")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValidationError):
        emit_plot_script(str(bad), "sweep")


@pytest.mark.parametrize("argv", [
    ["conjugate", "--q", "nan"], ["conjugate", "--q", "inf"],
    ["conjugate", "--q", "1,-inf"],
    ["rate", "--x", "nan", "--t", "1"], ["rate", "--x", "0.2", "--t", "nan"],
    ["rate", "--x", "0.2", "--t", "1", "--A", "nan"],
    ["hj", "--A", "2", "--grid", "9", "--tmax", "0.5", "--dt", "0"],
    ["hj", "--A", "2", "--grid", "9", "--tmax", "0.5", "--dt", "nan"],
    ["hj", "--A", "2", "--grid", "9", "--tmax", "nan"],
    ["hj", "--A", "nan", "--grid", "9", "--tmax", "0.5"],
    ["simulate", "--R", "3", "--grid", "4", "--tmax", "nan"],
    ["simulate", "--R", "nan", "--grid", "4", "--tmax", "0.5"],
    ["simulate", "--R", "inf", "--grid", "4", "--tmax", "0.5"],
    ["sweep", "--R", "nan,8,9"]], ids=" ".join)
def test_non_finite_arguments_exit_2(argv, compact_spec, tmp_path, capsys):
    # caught by validation before any numerics run: no march starts, so
    # --dt 0 cannot loop forever
    argv = argv[:1] + ["--kernel", compact_spec,
                       "--out", str(tmp_path / "out.csv")] + argv[1:]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["hj", "--A", "2", "--grid", "9.5", "--tmax", "0.5"],
    ["simulate", "--R", "3", "--grid", "abc", "--tmax", "0.5"]],
    ids=" ".join)
def test_non_integer_grid_exit_2(argv, compact_spec, tmp_path, capsys):
    argv = argv[:1] + ["--kernel", compact_spec,
                       "--out", str(tmp_path / "out.csv")] + argv[1:]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "--grid" in err["message"]
    assert not (tmp_path / "out.csv").exists()


# each subcommand's numeric options, with a valid value for every
# required one, and its optional numeric options
_NUMERIC = {
    "hamiltonian": ({"p": "1"}, []),
    "conjugate": ({"q": "0.5"}, []),
    "kinv": ({"z": "7"}, []),
    "rate": ({"x": "0.2", "t": "1"}, ["A"]),
    "hj": ({"A": "2", "grid": "9", "tmax": "0.1"}, ["t", "dt"]),
    "simulate": ({"R": "3", "grid": "4", "tmax": "0.1"}, ["t"]),
    "sweep": ({"R": "3:5:1"}, ["theta", "t"]),
}


@pytest.mark.parametrize("cmd, opt", [
    (cmd, opt) for cmd, (required, optional) in _NUMERIC.items()
    for opt in [*required, *optional, "seed"]])
def test_every_numeric_option_rejects_a_bad_value_with_exit_2(
        cmd, opt, compact_spec, tmp_path, capsys):
    # a value that does not parse, is not finite, or is empty is refused
    # before any numerics run, with exit 2 and a JSON record, never a
    # traceback
    required = _NUMERIC[cmd][0]
    out = tmp_path / "out.csv"
    for bad in ["abc", "1:2:nan", "nan", "-inf", "1e400", "1,,x", ",", "",
                "0:1e300:1e-300"]:
        argv = [cmd, "--kernel", compact_spec, "--out", str(out)] + [
            f"--{k}={bad if k == opt else v}" for k, v in required.items()]
        if opt not in required:
            argv.append(f"--{opt}={bad}")
        assert main(argv) == 2, bad
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError", bad
        assert not out.exists()


@pytest.mark.parametrize("cmd, opt", [
    (cmd, opt) for cmd, (required, optional) in _NUMERIC.items()
    for opt in [*required, *optional, "seed"]])
def test_every_numeric_option_keeps_the_exit_contract(
        cmd, opt, compact_spec, tmp_path, capsys):
    # numbers that parse but may be out of range: each run succeeds, or
    # exits 2 or 3 with one JSON record on stderr
    required = _NUMERIC[cmd][0]
    out = tmp_path / "out.csv"
    for value in ["-1", "0", "inf", "1:0:1", "1:2:0", "1:2", "0.5"]:
        argv = [cmd, "--kernel", compact_spec, "--out", str(out)] + [
            f"--{k}={value if k == opt else v}" for k, v in required.items()]
        if opt not in required:
            argv.append(f"--{opt}={value}")
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), value
        if code:
            assert json.loads(err)["error"], value


def test_parse_values_refuses_what_is_not_a_finite_list():
    for text in ["abc", "1:2:nan", "1,inf", "", ",", "0:1e9:1e-3"]:
        with pytest.raises(ValidationError):
            parse_values(text)
    assert parse_values(",1,") == [1.0]


@pytest.mark.parametrize("threads", ["-1", "two"])
def test_sweep_bad_thread_count_exit_2(threads, compact_spec, tmp_path,
                                       monkeypatch, capsys):
    monkeypatch.setenv("LDP_THREADS", threads)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kernel", compact_spec, "--R", "3:5:1",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "LDP_THREADS" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("spec", ["compact_spec", "exp_power_spec"])
@pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
def test_kinv_non_finite_z_exit_2(spec, z, request, capsys):
    path = request.getfixturevalue(spec)
    assert main(["kinv", "--kernel", path, f"--z={z}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


# kernel spec files as written, None for a missing file; Python's json
# reads Infinity and NaN
_BAD_SPECS = {
    "rho Infinity": '{"family": "compact_uniform", "params": {"rho": '
                    'Infinity}}',
    "alpha string": '{"family": "exp_power", "params": {"alpha": "abc"}}',
    "alpha null": '{"family": "exp_power", "params": {"alpha": null}}',
    "params list": '{"family": "exp_power", "params": [1, 2]}',
    "dimension string": '{"family": "exp_power", "dimension": "x", '
                        '"params": {"alpha": 2.0}}',
    "invalid json": '{"family": "exp_power", ',
    "missing file": None,
    "alpha Infinity": '{"family": "exp_linear", "params": {"alpha": '
                      'Infinity}}',
    "mass Infinity": '{"family": "compact_uniform", "params": {"rho": 1.0, '
                     '"mass": Infinity}}',
    "dimension 1.5": '{"family": "exp_power", "dimension": 1.5, '
                     '"params": {"alpha": 2.0}}',
    "rho0 NaN": '{"family": "exp_power", "params": {"alpha": 2.0}, '
                '"rho0": NaN}',
    "unknown family": '{"family": "no_such_family", "params": {}}',
}


@pytest.mark.parametrize("name", sorted(_BAD_SPECS))
def test_bad_kernel_spec_exit_2(name, tmp_path, capsys):
    path = tmp_path / "kernel.json"
    if _BAD_SPECS[name] is not None:
        path.write_text(_BAD_SPECS[name])
    assert main(["kinv", "--kernel", str(path), "--z", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


def _run_main(argv):
    """Exit code, stdout and stderr of one in-process call; an argparse
    usage error exits by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def test_one_parser_serves_a_sequence_of_calls(compact_spec, critical_spec,
                                               kernel_spec_path, tmp_path):
    demo = kernel_spec_path({"family": "asymmetric_1d_demo"}, "demo.json")
    calls = [
        ["hamiltonian", "--kernel", compact_spec, "--p", "1"],
        ["conjugate", "--kernel", critical_spec, "--q", "0.5,1",
         "--out", "{out}"],
        ["kinv", "--kernel", compact_spec, "--z", "-1"],
        ["hamiltonian", "--kernel", critical_spec, "--p", "3"],
        ["kinv", "--kernel", demo, "--z", "1"],
        ["rate", "--kernel", compact_spec, "--x", "0.2", "--t", "1"],
        ["hamiltonian", "--kernel", compact_spec],
        ["kinv", "--kernel", critical_spec, "--z", "7", "--out", "{out}"],
        ["hamiltonian", "--kernel", compact_spec, "--p", "1"],
    ]

    def run(i, argv, tag):
        out = tmp_path / f"{tag}{i}.csv"
        got = _run_main([a.format(out=out) for a in argv])
        return got + (out.read_text() if out.exists() else None,)

    cli._parser.cache_clear()
    together = [run(i, argv, "seq") for i, argv in enumerate(calls)]
    assert cli._parser.cache_info().misses == 1
    alone = []
    for i, argv in enumerate(calls):
        cli._parser.cache_clear()
        alone.append(run(i, argv, "one"))
    assert together == alone
    assert [r[0] for r in together] == [0, 0, 2, 3, 3, 0, 2, 0, 0]


def test_rate_range_in_one_call_matches_single_calls(compact_spec, tmp_path,
                                                     capsys):
    out = str(tmp_path / "rate.csv")
    assert main(["rate", "--kernel", compact_spec, "--x=-0.5:0.5:0.25",
                 "--t", "0.5,1", "--A", "1.5", "--out", out]) == 0
    rows = [l.split(",") for l in Path(out).read_text().splitlines()[1:]]
    assert len(rows) == 10
    for x, t, value in rows:
        assert main(["rate", "--kernel", compact_spec, f"--x={x}",
                     "--t", t]) == 0
        single = float(capsys.readouterr().out)
        assert float(value) == pytest.approx(min(1.5, single), rel=1e-11)
