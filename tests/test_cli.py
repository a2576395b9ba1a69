import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neckflow
from neckflow import __version__
from neckflow.asymptotics import MODEL_TRIPLES
from neckflow.cli import build_parser, main
from neckflow.outputs import BAND_COLUMNS, TRAJECTORY_COLUMNS, ZETA_COLUMNS


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_string(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"neckflow {__version__}"


def test_cli_import_and_tail_estimate_load_no_scipy():
    # scipy loads where solve_ivp, brentq or the DOP853 tableau first run:
    # a fresh interpreter that imports the CLI and runs a tail estimate has
    # no scipy module
    script = (
        "import sys\n"
        "import neckflow.cli\n"
        "from neckflow.experiments import ExperimentConfig, tail_estimate\n"
        "tail_estimate(ExperimentConfig(samples=20_000))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(neckflow.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert out.stdout.strip() == "[]"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_zeta_csv_header_and_shape(capsys):
    code, out, _ = run(
        ["zeta", "--n-min", "25", "--n-max", "200"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(ZETA_COLUMNS)
    # every band index appears once per side
    assert (len(lines) - 1) % 2 == 0
    assert len(lines) > 4


def test_bands_csv_header(capsys):
    code, out, _ = run(["bands", "--n-min", "25", "--n-max", "100"], capsys)
    assert code == 0
    assert out.split("\n", 1)[0] == ",".join(BAND_COLUMNS)


def test_geodesic_point_count(tmp_path, capsys):
    out_file = tmp_path / "orbit.csv"
    code, _, _ = run(
        [
            "geodesic",
            "--psi", "1.2",
            "--time", "10",
            "--points", "50",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 51


def test_transit_needs_psi_or_band(capsys):
    code, _, err = run(["transit"], capsys)
    assert code == 2
    assert "transit needs --psi or --band" in err


def test_transit_by_band_json(capsys):
    code, out, _ = run(
        ["transit", "--band", "40", "--side", "crossing", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == f"neckflow {__version__}"
    (row,) = payload["tables"]["rows"]
    assert row["klass"] == "crossing"
    assert abs(row["time_vs_quadrature"]) < 1e-6
    assert abs(row["angle_vs_quadrature"]) < 1e-6


def test_config_file_merging(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "r = 6.0\n"
        "seed = 3\n"
        "n-max = 800   # inline comment\n"
    )
    code, out, _ = run(
        [
            "bands",
            "--config", str(cfg_file),
            "--r", "4.0",  # flag beats the file
            "--n-min", "25",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["r"] == 4.0
    assert payload["config"]["seed"] == 3
    assert payload["config"]["n_max"] == 800


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("banana = 7\n")
    code, _, err = run(["bands", "--config", str(cfg_file)], capsys)
    assert code == 2
    assert "unknown config key" in err


def test_config_line_without_equals(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("just some words\n")
    code, _, err = run(["bands", "--config", str(cfg_file)], capsys)
    assert code == 2
    assert "config line without '='" in err


def test_accuracy_failure_exit_code(capsys):
    code, _, err = run(
        ["hyperbolicity", "--relax-time", "0.5", "--spread-tol", "1e-4"],
        capsys,
    )
    assert code == 1
    assert "accuracy failure" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--relax-time", "nan"],
        ["--relax-time", "-5"],
        ["--relax-time", "0"],
        ["--spread-tol", "-1"],
    ],
)
def test_hyperbolicity_bad_relaxation_inputs_are_usage_errors(flags, capsys):
    code, _, err = run(["hyperbolicity", *flags], capsys)
    assert code == 2
    assert "relax_time" in err or "spread_tol" in err


def test_tol_is_a_geodesic_flag(capsys):
    code, _, err = run(["geodesic", "--psi", "0.9", "--time", "8", "--tol", "1e-17"], capsys)
    assert code == 1
    assert "Clairaut drift" in err
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--tol", "1e-8"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zeta", "--n-min", "5"], "band index 5 is below the configured floor n0=10"),
        (["zeta", "--r", "10", "--eps0", "0.5"], "shallowest band this profile reaches is n=32"),
        (["transit", "--band", "5"], "band index 5 is below the configured floor n0=10"),
    ],
)
def test_bands_outside_n0_or_window_are_usage_errors(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert message in err
    assert out == ""


def test_tails_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["tails", "--samples", "60000", "--seed", "5", "--out"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + [str(a)], capsys)[0] == 0
    assert run(argv + [str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert "survival" in payload["fits"]
    assert payload["tables"]["exponent"] > 0


def test_tails_threads_do_not_change_bytes(tmp_path, capsys):
    argv = ["tails", "--samples", "20000", "--seed", "3", "--out"]
    a, b = tmp_path / "t1.json", tmp_path / "t2.json"
    assert run(argv + [str(a), "--threads", "1"], capsys)[0] == 0
    assert run(argv + [str(b), "--threads", "2"], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert "threads" not in json.loads(a.read_text())["config"]


def test_threads_config_key_still_accepted(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("threads = 2\n")
    code, out, _ = run(
        ["bands", "--config", str(cfg_file), "--n-max", "100", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert "threads" not in json.loads(out)["config"]


def test_asymptotics_rows_follow_model_triples(capsys):
    code, out, _ = run(["asymptotics"], capsys)
    assert code == 0
    header, *lines = out.strip().split("\n")
    assert header == "kind,alpha,beta,q,b,limit_constant,ratio"
    assert len(lines) == 5 * len(MODEL_TRIPLES)
    for k, (kind, alpha, beta, q_off) in enumerate(MODEL_TRIPLES):
        q = 0.0 if kind == "1a" else 4.0 + q_off  # at the default r = 4
        for line in lines[5 * k : 5 * k + 5]:
            assert line.split(",")[:4] == [kind, repr(alpha), repr(beta), repr(q)]


def test_scaling_csv_header_order(capsys):
    code, out, _ = run(["scaling", "--n-max", "200", "--format", "csv"], capsys)
    assert code == 0
    assert out.split("\n", 1)[0] == (
        "n,side,psi_mid,c,upsilon0,zeta,zeta_prime,zeta_second,growth_0,growth_p1,growth_m1"
    )


def test_tails_at_grazing_window_edge(capsys):
    # band 32's bouncing edge is the grazing angle psi = 0 at r=10, eps0=0.5
    argv = ["tails", "--r", "10", "--eps0", "0.5", "--n0", "32", "--samples", "100000"]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert json.loads(out)["tables"]["exponent"] > 2.0


def test_report_single_criterion(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(["report", "--only", "8", "--out", str(out_file)], capsys)
    assert code == 0
    assert "[PASS] criterion 8" in out
    payload = json.loads(out_file.read_text())
    report = payload["tables"]["report"]
    assert report["passed"] is True
    assert len(report["criteria"]) == 1
    assert report["criteria"][0]["number"] == 8
    assert report["failures"] == []


def test_report_rerun_is_byte_identical(tmp_path, capsys):
    # wall times go to the [PASS] lines on stdout, never into the file
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, out, _ = run(["report", "--only", "10", "--out", str(path)], capsys)
        assert code == 0 and "[PASS] criterion 10" in out
    assert a.read_bytes() == b.read_bytes()
    assert "runtime" not in a.read_text()


def test_parser_covers_every_command():
    parser = build_parser()
    actions = [a for a in parser._actions if a.dest == "command"]
    names = set(actions[0].choices)
    assert names == {
        "geodesic",
        "transit",
        "zeta",
        "bands",
        "tails",
        "scaling",
        "distortion",
        "asymptotics",
        "hyperbolicity",
        "report",
    }


def test_report_csv_format_writes_json(tmp_path, capsys):
    out_file = tmp_path / "report.out"
    code, _, _ = run(
        ["report", "--only", "8", "--format", "csv", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert json.loads(out_file.read_text())["tables"]["report"]["passed"] is True
