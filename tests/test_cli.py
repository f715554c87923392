# Command-line interface: formats, exit codes, determinism.

import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermirw
from fermirw import numerics
from fermirw.cli import build_parser, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


# ---------------------------------------------------------------------------
# transform

def test_transform_to_rw_milne(capsys):
    code, out, err = run_cli(capsys, "transform", "to-rw", "--model", "milne",
                             "--tau", "2", "--rho", "1.7320508")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["t"]) == pytest.approx(1.0, abs=1e-6)
    assert float(row["chi"]) == pytest.approx(1.3169579, abs=1e-6)
    assert float(row["sigma"]) == pytest.approx(4.0, abs=1e-5)


def test_transform_to_fermi_trivial(capsys):
    code, out, _ = run_cli(capsys, "transform", "to-fermi", "--model",
                           "power-law", "--alpha", "1", "--t", "1",
                           "--chi", "0")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["tau"]) == pytest.approx(1.0)
    assert float(row["rho"]) == 0.0


def test_transform_out_of_slice_exit_2(capsys):
    code, out, err = run_cli(capsys, "transform", "to-rw", "--model", "milne",
                             "--tau", "1", "--rho", "2")
    assert code == 2
    assert out == ""
    assert "domain error" in err
    assert "1" in err  # names the slice radius rho_M = tau = 1


def test_transform_accuracy_exit_3(capsys, monkeypatch):
    # --quad-rel-tol 1e-30 alone passes on the 50 eps resabs floor; the
    # inversion's Newton iteration on a panel polynomial takes four steps
    # here.
    monkeypatch.setattr(numerics, "_PANEL_ROOT_CAP", 3)
    code, _, err = run_cli(capsys, "transform", "to-rw", "--model", "matter",
                           "--tau", "1", "--rho", "0.8",
                           "--quad-rel-tol", "1e-30")
    assert code == 3
    assert "accuracy error" in err
    assert "panel root iteration cap 3" in err


@pytest.mark.parametrize("flags", [("--quad-rel-tol", "inf"),
                                   ("--quad-rel-tol=-inf",),
                                   ("--quad-rel-tol", "nan"),
                                   ("--quad-rel-tol=-1e-12",)])
def test_bad_numerics_exit_2(capsys, flags):
    code, out, err = run_cli(capsys, "transform", "to-rw", "--model",
                             "matter", "--tau", "1", "--rho", "0.5", *flags)
    assert code == 2
    assert out == ""
    assert flags[0][2:].split("=")[0].replace("-", "_") in err


@pytest.mark.parametrize("rows, message", [
    ('[[1, 1], [2, 1.5], ["a", 1], [4, 2.2]]', "entry 2"),
    ("[[1, 1], [2, 1.5], [3, 1.9], [4, NaN]]", "a sample at index 3"),
], ids=["not-a-number", "nan"])
def test_transform_bad_table_is_domain_error(capsys, tmp_path, rows,
                                             message):
    p = tmp_path / "bad.json"
    p.write_text(rows)
    code, out, err = run_cli(capsys, "transform", "to-fermi", "--model",
                             "tabulated", "--table", str(p), "--t", "2",
                             "--chi", "0.5")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("event", [("to-fermi", "--t", "1", "--chi", "0.5"),
                                   ("to-rw", "--tau", "1", "--rho", "0.5")])
@pytest.mark.parametrize("angle", [("--theta", "nan"), ("--phi", "inf"),
                                   ("--theta=-inf",)])
def test_transform_angle_not_finite_exit_2(capsys, event, angle):
    # JSON output printed "theta": NaN, which is not JSON, and exited 0.
    code, out, err = run_cli(capsys, "transform", event[0], "--model",
                             "milne", *event[1:], *angle, "--format", "json")
    assert code == 2
    assert out == ""
    assert "angles must be finite" in err


def test_transform_round_trip_through_cli(capsys):
    code, out, _ = run_cli(capsys, "transform", "to-fermi", "--model",
                           "radiation", "--t", "0.5", "--chi",
                           str(math.pi / 2.0))
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["tau"]) == pytest.approx(1.0, rel=1e-8)
    assert float(row["rho"]) == pytest.approx(0.5 + math.pi / 4.0, rel=1e-8)


# ---------------------------------------------------------------------------
# sweep

def test_sweep_radius_radiation(capsys):
    code, out, _ = run_cli(capsys, "sweep", "radius", "--model", "radiation",
                           "--start", "1", "--stop", "10", "--samples", "10")
    assert code == 0
    for row in parse_csv(out):
        tau = float(row["tau"])
        assert float(row["rho_slice"]) == pytest.approx(
            math.pi / 2.0 * tau, abs=1e-8)
        assert float(row["hubble_radius"]) == pytest.approx(2.0 * tau,
                                                            rel=1e-12)
        assert row["error"] == ""


def test_sweep_geodesic_milne(capsys):
    code, out, _ = run_cli(capsys, "sweep", "geodesic", "--model", "milne",
                           "--tau", "1", "--start", "1", "--stop", "100",
                           "--samples", "12")
    assert code == 0
    for row in parse_csv(out):
        sigma = float(row["sigma"])
        assert float(row["t"]) == pytest.approx(1.0 / math.sqrt(sigma),
                                                rel=1e-9)


def test_sweep_velocity_matter_monotone(capsys):
    code, out, _ = run_cli(capsys, "sweep", "velocity", "--model", "matter",
                           "--tau", "1", "--start", "0", "--stop", "20",
                           "--samples", "50")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 50
    good = [r for r in rows if r["error"] == ""]
    bad = [r for r in rows if r["error"] != ""]
    vs = [float(r["v_fermi"]) for r in good]
    assert all(b >= a for a, b in zip(vs, vs[1:]))
    assert 1.3 < vs[-1] < 1.3110287771460599  # approaching sup from below
    # reach of the tau=1 slice is 3*1.31103 = 3.933: chi0 beyond it errors
    assert bad
    assert all(float(r["chi0"]) > 3.933 for r in bad)
    assert all("comoving reach" in r["error"] for r in bad)


def test_sweep_velocity_milne_to_the_end_of_the_store(capsys):
    # Milne's chi grows without bound.  Its slice store ends where sigma
    # overflows, at chi = 355.93; rows past it carry an error, and the
    # others invert chi = ln(sqrt(s) + sqrt(s - 1)) out to sigma = 2e277.
    code, out, _ = run_cli(capsys, "sweep", "velocity", "--model", "milne",
                           "--tau", "1", "--start", "40", "--stop", "400",
                           "--samples", "10")
    assert code == 0
    rows = parse_csv(out)
    good = [r for r in rows if float(r["chi0"]) < 355.93]
    assert len(good) == 8
    for r in good:
        assert r["error"] == ""
        assert float(r["sigma0"]) == pytest.approx(
            math.cosh(float(r["chi0"])) ** 2, rel=1e-10)
    for r in rows[len(good):]:
        assert "comoving reach" in r["error"]
        assert "chi = 355.93" in r["error"]


@pytest.mark.parametrize("start,stop,samples",
                         [("0", "2", 50), ("0.1", "0.3", 7)])
def test_sweep_ends_at_stop(capsys, start, stop, samples):
    # start + (samples - 1) step ends at 1.9999999999999998 and at
    # 0.30000000000000004 here; the other rows keep that formula.
    code, out, _ = run_cli(capsys, "sweep", "velocity", "--model", "milne",
                           "--tau", "1", "--start", start, "--stop", stop,
                           "--samples", str(samples))
    assert code == 0
    step = (float(stop) - float(start)) / (samples - 1)
    assert [float(r["chi0"]) for r in parse_csv(out)] == [
        float(start) + i * step for i in range(samples - 1)] + [float(stop)]


def test_sweep_velocity_on_an_early_matter_slice(capsys):
    # The tau = 1e-40 slice reaches chi = 3 * 1.31103 tau^(1/3) = 1.83e-13,
    # and v depends on sigma0 alone, so both rows are ordinary ones.
    code, out, _ = run_cli(capsys, "sweep", "velocity", "--model", "matter",
                           "--tau", "1e-40", "--start", "1.5e-13",
                           "--stop", "1.7e-13", "--samples", "2")
    assert code == 0
    rows = parse_csv(out)
    assert [r["error"] for r in rows] == ["", ""]
    assert [float(r["v_fermi"]) for r in rows] == pytest.approx(
        [1.3074, 1.3109], abs=1e-4)
    for r in rows:
        assert float(r["v_fermi"]) == pytest.approx(
            fermirw.fermi_speed_power_law(2.0 / 3.0, float(r["sigma0"])),
            rel=1e-10)


def test_sweep_metric_de_sitter(capsys):
    code, out, _ = run_cli(capsys, "sweep", "metric", "--model", "de-sitter",
                           "--h0", "1", "--tau", "3", "--start", "0",
                           "--stop", "1.4", "--samples", "8")
    assert code == 0
    for row in parse_csv(out):
        rho = float(row["rho"])
        assert float(row["g_tau_tau"]) == pytest.approx(
            -math.cos(rho) ** 2, abs=1e-8)
        assert float(row["g_rho_rho"]) == 1.0


def test_sweep_metric_rows_are_metric_polar(capsys):
    # The sweep reuses its row's sigma; the fields must still be exactly
    # what metric_polar, which inverts sigma(rho) itself, returns.
    code, out, _ = run_cli(capsys, "sweep", "metric", "--model", "matter",
                           "--tau", "1.3", "--start", "0", "--stop", "1.2",
                           "--samples", "5")
    assert code == 0
    cosmo = fermirw.Cosmology(fermirw.make_power_law(2.0 / 3.0), k=0)
    for row in parse_csv(out):
        pm = fermirw.metric_polar(cosmo, 1.3, float(row["rho"]))
        assert (row["g_tau_tau"], row["ang"]) == (
            f"{pm.g_tau_tau:.17g}", f"{pm.ang:.17g}")


def test_sweep_out_of_range_rows_continue(capsys):
    code, out, _ = run_cli(capsys, "sweep", "metric", "--model", "milne",
                           "--tau", "1", "--start", "0", "--stop", "1.5",
                           "--samples", "4")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["error"] == "" and rows[1]["error"] == ""
    assert rows[3]["error"] != ""  # rho = 1.5 beyond the tau = 1 slice


def test_sweep_metric_bad_tau_fills_the_error_column(capsys):
    code, out, _ = run_cli(capsys, "sweep", "metric", "--model", "matter",
                           "--tau", "-1", "--start", "0", "--stop", "0.5",
                           "--samples", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    assert all("time must be positive" in row["error"] for row in rows)


# ---------------------------------------------------------------------------
# verify

def test_verify_closed_forms_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "closed-forms")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines and all(ln.startswith("PASS") for ln in lines)


def test_verify_all_check_count(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
    assert len(lines) == 37


def test_verify_invariants_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "invariants")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 14 and all(ln.startswith("PASS") for ln in lines)


def test_verify_ode_oracle_custom_model(capsys):
    code, out, _ = run_cli(capsys, "verify", "ode-oracle", "--model",
                           "power-law", "--alpha", "0.5")
    assert code == 0
    assert "ode-oracle-power-law-0.50" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "closed-forms", "--format",
                           "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == ["name", "residual", "tolerance", "passed",
                             "detail"]
    assert all(r["passed"] for r in doc["rows"])


# ---------------------------------------------------------------------------
# formats and determinism

def test_json_structure(capsys):
    code, out, _ = run_cli(capsys, "sweep", "geodesic", "--model", "milne",
                           "--tau", "2", "--start", "1", "--stop", "4",
                           "--samples", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == ["sigma", "t", "chi", "rho", "error"]
    assert doc["model"]["family"] == "milne"
    assert len(doc["rows"]) == 3
    assert doc["rows"][2]["t"] == pytest.approx(1.0, rel=1e-9)


def test_repeated_runs_identical(capsys):
    args = ("sweep", "velocity", "--model", "radiation", "--tau", "1",
            "--start", "0", "--stop", "2", "--samples", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_meta_header_lines(capsys):
    code, out, _ = run_cli(capsys, "transform", "to-rw", "--model", "milne",
                           "--tau", "2", "--rho", "1", "--meta")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# fermirw ")
    assert lines[1].startswith("# model: ")
    assert lines[2].startswith("# invocation: ")
    # payload after the comment block parses as before
    rows = parse_csv("\n".join(lines[3:]))
    assert float(rows[0]["sigma"]) == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_json_meta(capsys):
    code, out, _ = run_cli(capsys, "transform", "to-rw", "--model", "milne",
                           "--tau", "2", "--rho", "1", "--format", "json",
                           "--meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["generator"] == f"fermirw {fermirw.__version__}"
    assert doc["meta"]["invocation"].startswith("transform to-rw ")
    assert doc["rows"][0]["sigma"] == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_verify_output_file(tmp_path, capsys):
    dest = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify", "closed-forms", "--output",
                           str(dest))
    assert code == 0
    assert out == ""
    lines = dest.read_text().splitlines()
    assert lines and lines[0].startswith("PASS")


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "sweep", "radius", "--model", "milne",
                           "--start", "1", "--stop", "3", "--samples", "3",
                           "--output", str(dest))
    assert code == 0
    assert out == ""
    rows = parse_csv(dest.read_text())
    assert float(rows[-1]["rho_slice"]) == pytest.approx(3.0, rel=1e-9)


def test_csv_uses_full_precision(capsys):
    _, out, _ = run_cli(capsys, "transform", "to-rw", "--model", "milne",
                        "--tau", "2", "--rho", "1")
    row = parse_csv(out)[0]
    # printed with enough digits that parsing reproduces the double exactly
    assert f"{float(row['t']):.17g}" == row["t"]
    assert float(row["t"]) == pytest.approx(math.sqrt(3.0), rel=1e-9)


# ---------------------------------------------------------------------------
# tabulated model

def test_tabulated_model_flow(tmp_path, capsys):
    ts = np.geomspace(0.05, 100.0, 400)
    table = tmp_path / "scale.csv"
    table.write_text("t,a\n" + "\n".join(
        f"{t:.17g},{t ** (2.0 / 3.0):.17g}" for t in ts) + "\n")
    code, out, _ = run_cli(capsys, "transform", "to-fermi", "--model",
                           "tabulated", "--table", str(table), "--t", "8",
                           "--chi", "0.05")
    assert code == 0
    row = parse_csv(out)[0]
    # matter-like: compare against the analytic power law loosely
    assert float(row["rho"]) == pytest.approx(0.2, abs=1e-3)
    assert float(row["sigma"]) == pytest.approx(1.000278, abs=1e-4)


def test_tabulated_model_runs_at_the_default_tolerance(tmp_path, capsys):
    # A table runs at the same quad_rel_tol as any model: leaving the flag
    # out and passing the default give the same row.
    ts = np.geomspace(0.05, 100.0, 120)
    table = tmp_path / "sinh.json"
    table.write_text(json.dumps(
        [[t, math.sinh(1.05 * t) ** (2.0 / 3.0)] for t in ts.tolist()]))
    event = ("transform", "to-fermi", "--model", "tabulated", "--table",
             str(table), "--t", "0.61719236899874",
             "--chi", "1.4032698777433827")
    code, out, _ = run_cli(capsys, *event)
    assert code == 0
    assert run_cli(capsys, *event, "--quad-rel-tol", "1e-12") == (0, out, "")
    # The event lies on the tau = 1.9 slice of the exact sinh model.
    assert parse_csv(out)[0]["tau"] == "1.9000000071595542"


def test_tabulated_requires_table(capsys):
    code, _, err = run_cli(capsys, "transform", "to-fermi", "--model",
                           "tabulated", "--t", "1", "--chi", "0.1")
    assert code == 64
    assert "--table" in err


# ---------------------------------------------------------------------------
# usage errors

@pytest.mark.parametrize("argv", [
    ("transform", "to-rw", "--model", "power-law", "--tau", "1", "--rho",
     "0.1"),                                        # missing --alpha
    ("sweep", "radius", "--model", "milne", "--tau", "1", "--start", "1",
     "--stop", "2", "--samples", "3"),              # radius rejects --tau
    ("sweep", "geodesic", "--model", "milne", "--start", "1", "--stop", "4",
     "--samples", "3"),                             # geodesic needs --tau
    ("sweep", "geodesic", "--model", "milne", "--tau", "1", "--start", "1",
     "--stop", "4", "--samples", "1"),              # too few samples
    ("transform", "to-rw", "--model", "milne", "--tau", "1", "--rho", "0.5",
     "--alpha", "0.5"),                             # alpha on fixed family
    ("verify", "closed-forms", "--model", "milne"),  # model not accepted
    ("transform", "to-rw", "--model", "milne", "--tau", "1", "--rho", "0.5",
     "--sigma-cap", "1e12"),                        # flag removed
    ("transform", "to-rw", "--model", "milne", "--tau", "1", "--rho", "0.5",
     "--h0", "2"),                                  # h0 on another family
    ("transform", "to-rw", "--model", "matter", "--tau", "1", "--rho", "0.5",
     "--table", "t.csv"),                           # table, not tabulated
    ("transform", "to-rw", "--model", "milne", "--tau", "1", "--rho", "0.5",
     "--k", "0"),                                   # milne fixes k = -1
    ("transform", "to-rw", "--model", "de-sitter", "--tau", "1", "--rho",
     "0.5", "--k", "-1"),                           # de Sitter fixes k = 0
    ("transform", "to-rw", "--tau", "1", "--rho", "0.5"),  # no --model
])
def test_usage_errors_exit_64(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 64
    assert "error:" in err


_TO_RW = ("transform", "to-rw", "--tau", "1", "--rho", "0.5", "--model")


@pytest.mark.parametrize("argv,message", [
    (("milne", "--alpha", "0.5"), "--alpha applies only to --model power-law"),
    (("power-law", "--alpha", "0.5", "--h0", "2"),
     "--h0 applies only to --model de-sitter"),
    (("de-sitter", "--table", "t.csv"),
     "--table applies only to --model tabulated"),
    # The flag rules come first, in this order, then the fixed k.
    (("matter", "--table", "t.csv", "--h0", "2", "--alpha", "0.5", "--k",
      "-1"), "--alpha applies only to --model power-law"),
    (("milne", "--h0", "2", "--k", "0"),
     "--h0 applies only to --model de-sitter"),
    (("milne", "--k", "0"), "--model milne fixes k=-1"),
    (("radiation", "--k", "-1"), "--model radiation fixes k=0"),
    (("matter", "--k", "-1"), "--model matter fixes k=0"),
    (("de-sitter", "--k", "-1"), "--model de-sitter fixes k=0"),
    (("power-law", "--k", "-1"), "--model power-law requires --alpha"),
    (("tabulated", "--k", "-1"), "--model tabulated requires --table"),
])
def test_model_flag_rules_name_the_broken_rule(capsys, argv, message):
    code, out, err = run_cli(capsys, *_TO_RW, *argv)
    assert code == 64 and out == ""
    assert err.splitlines()[-1].endswith(f": error: {message}")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fermirw.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fermirw" in proc.stdout


def test_cli_import_loads_no_scipy():
    # Importing scipy.special alone costs more than the rest of the CLI's
    # set-up, so the package imports scipy only inside the functions that
    # call it.
    env = {**os.environ,
           "PYTHONPATH": str(Path(fermirw.__file__).resolve().parents[1])}
    code = ("import sys, fermirw.cli\n"
            "sys.exit(sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] == 'scipy') or None)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_interpolate_unloaded(tmp_path):
    # Tabulated models use the package's own PCHIP interpolant, so no
    # fermirw run, analytic or tabulated, imports scipy.interpolate.
    ts = np.geomspace(0.05, 100.0, 60)
    table = tmp_path / "scale.csv"
    table.write_text("t,a\n" + "\n".join(
        f"{t:.17g},{t ** (2.0 / 3.0):.17g}" for t in ts) + "\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(fermirw.__file__).resolve().parents[1])}
    code = (
        "import sys, fermirw, fermirw.cli\n"
        "fermirw.make_tabulated(fermirw.load_table(sys.argv[1]))\n"
        "code = fermirw.cli.main(['transform', 'to-fermi', '--model', "
        "'tabulated', '--table', sys.argv[1], '--t', '8', '--chi', '0.05'])\n"
        "assert code == 0, code\n"
        "sys.exit('scipy.interpolate' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(table)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("t,chi,")


# ---------------------------------------------------------------------------
# README examples

def _readme_commands():
    """The argument lists of the `fermirw ...` lines in README.md's sh
    blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [shlex.split(line)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("fermirw ")]


README_COMMANDS = _readme_commands()


def test_readme_has_commands():
    assert len(README_COMMANDS) >= 5
    assert ["verify", "all"] in README_COMMANDS


# `verify all` runs in CI on its own.
@pytest.mark.parametrize("argv", [a for a in README_COMMANDS
                                  if a != ["verify", "all"]],
                         ids=lambda argv: "-".join(argv[:2]))
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ts = np.geomspace(0.05, 100.0, 400)
    (tmp_path / "scale.csv").write_text("t,a\n" + "\n".join(
        f"{t:.17g},{t ** (2.0 / 3.0):.17g}" for t in ts) + "\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out


def _readme_section(title):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _readme_section("Python API"),
                        re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    # The comments' proper radius and superluminal speed.
    assert float(lines[1]) == pytest.approx(1.3110288, rel=1e-7)
    assert float(lines[2]) > 1.0


def _flags(parser):
    """Every option string of parser and of its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action.choices, dict):     # the subcommands
            for sub in action.choices.values():
                flags |= _flags(sub)
    return flags


# Flags README names as removed; each exits 64 like any unknown flag.
REMOVED_FLAGS = {"--sigma-cap", "--quad-abs-tol", "--root-tol",
                 "--max-iter"}


def test_readme_flags_are_the_parsers(capsys):
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                           _readme_section("Command line")))
    assert named - _flags(build_parser()) == REMOVED_FLAGS
    for flag in REMOVED_FLAGS:
        code, _, err = run_cli(capsys, "transform", "to-rw", "--model",
                               "milne", "--tau", "1", "--rho", "0.5", flag,
                               "1")
        assert code == 64
        assert "unrecognized arguments" in err
