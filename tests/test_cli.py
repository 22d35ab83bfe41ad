import json
from pathlib import Path

import numpy as np
import pytest

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


def test_unsupported_kernel_exit_code(kernel_spec_path, capsys):
    demo = kernel_spec_path({"family": "asymmetric_1d_demo"}, "demo.json")
    assert main(["kinv", "--kernel", demo, "--z", "1"]) == 3
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


@pytest.mark.parametrize("spec", ["compact_spec", "critical_spec"])
def test_hj_csv_carries_the_march_stats(spec, request, tmp_path):
    out = str(tmp_path / "hj.csv")
    assert main(["hj", "--kernel", request.getfixturevalue(spec), "--A", "2",
                 "--grid", "49", "--tmax", "0.5", "--out", out]) == 0
    meta = dict(l[2:].split("=", 1) for l in Path(out).read_text()
                .splitlines() if l.startswith("# "))
    assert int(meta["steps"]) > 0
    assert 0 < float(meta["dt_min"]) <= float(meta["dt_max"]) <= 0.5


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
