"""CLI plumbing tests: flag parsing, config merging, CSV output,
determinism, and exit codes.  The heavy table commands are exercised with
a stubbed force evaluator; their numerics live in the acceptance suite."""

import csv
import json
import subprocess
import sys

import pytest

from casphere import cli, wigner
from casphere.freeenergy import EnergyResult
from casphere.specfun import L_CAP


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_invalid_config_exit_code(tmp_path, capsys):
    assert run_cli(["--command", "free-energy", "--R", "1.0"]) == 1
    assert run_cli(["--command", "free-energy", "--R", "1.0", "--d", "0.5",
                    "--epsilon", "0.5", "--T", "1.0"]) == 1
    assert run_cli([]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_free_energy_csv(tmp_path):
    out = tmp_path / "fe.csv"
    rc = run_cli(["--command", "free-energy", "--R", "1.0", "--d", "1.0",
                  "--T", "1.0", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    for col in ("value", "error_estimate", "l_max_used", "converged"):
        assert col in row
    assert float(row["value"]) < 0
    assert row["converged"] == "True"


def test_epsilon_flag(tmp_path):
    out = tmp_path / "pfa.csv"
    rc = run_cli(["--command", "pfa", "--R", "10.0", "--epsilon", "0.1",
                  "--T", "0.0", "--mode-count", "2", "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert float(row["d"]) == pytest.approx(1.0)
    # -pi^3 R/720 d^2 / (1 + eps)
    import math
    want = -math.pi ** 3 * 10.0 / 720.0 / 1.1
    assert float(row["value"]) == pytest.approx(want, rel=1e-6)


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "pfa", "R": 10.0, "d": 1.0,
                               "T": 0.0, "mode-count": 2}))
    out = tmp_path / "out.csv"
    rc = run_cli(["--config", str(cfg), "--out", str(out)])
    assert rc == 0
    # flags override the file
    out2 = tmp_path / "out2.csv"
    rc = run_cli(["--config", str(cfg), "--T", "1.0", "--out", str(out2)])
    assert rc == 0
    assert float(read_csv(out2)[0]["value"]) < float(read_csv(out)[0]["value"])


def test_scan_monotone_and_deterministic(tmp_path):
    for axis, fixed, deeper in [
        ("R", ["--epsilon", "0.0"], True),                # deeper with larger R
        ("d", ["--R", "1.0", "--epsilon", "0.1"], False),  # shallower with larger d
    ]:
        args = ["--command", "scan", "--scan-axis", axis, "--scan-grid", "0.2:1.2:3",
                *fixed, "--T", "1.0", "--scan-quantity", "thermal-part",
                "--rel-tol", "1e-2"]
        out1 = tmp_path / f"{axis}1.csv"
        out2 = tmp_path / f"{axis}2.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()  # bit-identical rerun
        rows = read_csv(out1)
        # a d scan replaces --epsilon: the separation is the grid value
        assert [float(r[axis]) for r in rows] == [0.2, 0.7, 1.2]
        vals = [float(r["value"]) for r in rows]
        assert all(v < 0 for v in vals)
        assert all((b < a) == deeper for a, b in zip(vals, vals[1:]))


def test_scan_grid_validation():
    assert run_cli(["--command", "scan", "--scan-axis", "R",
                    "--scan-grid", "3:1:5", "--epsilon", "0.1", "--T", "1"]) == 1
    assert run_cli(["--command", "scan", "--scan-axis", "R",
                    "--scan-grid", "nonsense", "--epsilon", "0.1", "--T", "1"]) == 1


def test_asymptotic_command(tmp_path):
    out = tmp_path / "asy.csv"
    rc = run_cli(["--command", "asymptotic", "--R", "1.0", "--d", "1.0",
                  "--T", "0.1", "--field", "em", "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert int(row["leading_power"]) == 4


def test_table_command_stubbed(tmp_path, monkeypatch):
    calls = []

    def fake_force(geom, spec, T, trunc=None, target="total"):
        calls.append((geom.R, geom.d, target))
        return EnergyResult(-0.5 / geom.R, 1e-4,
                            {"l_max_used": 10, "converged": True})

    monkeypatch.setattr(cli.freeenergy, "force", fake_force)
    out = tmp_path / "t1.csv"
    rc = run_cli(["--command", "table1", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert [float(r["R"]) for r in rows] == [0.5, 1.0, 3.0]
    assert all(r["epsilon"] == "0.01" for r in rows)
    # table convention: R * |force|
    assert [float(r["f_T_exact"]) for r in rows] == pytest.approx([0.5, 0.5, 0.5])
    for col in ("f_T_pfa", "rel_deviation", "f_T_pfa_mode2", "converged"):
        assert col in rows[0]
    assert all(t == "thermal_part" for _, _, t in calls)


def test_table_convergence_failure_exit_2(tmp_path, monkeypatch):
    def fake_force(geom, spec, T, trunc=None, target="total"):
        return EnergyResult(-0.5, 1e-4, {"l_max_used": 10, "converged": False})

    monkeypatch.setattr(cli.freeenergy, "force", fake_force)
    out = tmp_path / "t2.csv"
    rc = run_cli(["--command", "table2", "--out", str(out)])
    assert rc == 2
    assert len(read_csv(out)) == 3  # partial results still written


def test_table_keeps_the_rows_before_a_failing_row(tmp_path, monkeypatch, capsys):
    def fake_force(geom, spec, T, trunc=None, target="total"):
        if geom.R == 6.0:
            raise MemoryError("coupling stores at m = 0 would pass the budget")
        return EnergyResult(-0.5 / geom.R, 1e-4, {"l_max_used": 10, "converged": True})

    monkeypatch.setattr(cli.freeenergy, "force", fake_force)
    out, diag = tmp_path / "t2.csv", tmp_path / "t2.json"
    rc = run_cli(["--command", "table2", "--out", str(out), "--diagnostics", str(diag)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: coupling stores")
    assert [float(r["R"]) for r in read_csv(out)] == [0.5, 1.0]
    assert [r["R"] for r in json.loads(diag.read_text())] == [0.5, 1.0]


def test_store_budget_refusal_exits_1(monkeypatch, capsys):
    # fresh, empty stores under a budget too small for any growth
    monkeypatch.setattr(wigner, "_STORES", {})
    monkeypatch.setattr(wigner, "_STORE_BUDGET", 10000)
    rc = run_cli(["--command", "thermal-part", "--R", "1", "--d", "0.5", "--T", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coupling stores at m = ")
    assert "more than the budget of 10000" in err


def test_frequency_path_past_the_cap_exits_1(capsys):
    # the Matsubara nodes n >= 1 need coupling stores, which stop at L_CAP
    rc = run_cli(["--command", "free-energy", "--R", "1", "--d", "0.5", "--T", "1",
                  "--lmax", str(L_CAP + 1)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"L_CAP = {L_CAP}" in err


@pytest.mark.parametrize("target", ["out", "diagnostics"])
def test_unwritable_output_path_exits_1(tmp_path, capsys, target):
    paths = {"out": tmp_path / "x.csv", "diagnostics": tmp_path / "x.json"}
    paths[target] = tmp_path / "missing" / paths[target].name
    rc = run_cli(["--command", "free-energy", "--R", "1", "--d", "1", "--T", "1",
                  "--out", str(paths["out"]), "--diagnostics", str(paths["diagnostics"])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    if target == "diagnostics":  # the CSV is written before the diagnostics
        assert read_csv(paths["out"])[0]["converged"] == "True"


def test_readme_lists_every_flag():
    import re
    from pathlib import Path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flags = readme[readme.index("\nFlags: "):]
    flags = flags[: flags.index("\n\n")]
    options = [opt for action in cli.build_parser()._actions if action.dest != "help"
               for opt in action.option_strings if opt.startswith("--")]
    assert len(options) > 10
    missing = [opt for opt in options if not re.search("`" + re.escape(opt) + "[` ]", flags)]
    assert missing == []


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "casphere.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--command" in proc.stdout


def test_thermal_row_diagnostics_count_the_discarded_nodes(tmp_path):
    out, diag = tmp_path / "ft.csv", tmp_path / "ft.json"
    rc = run_cli(["--command", "thermal-part", "--R", "1.0", "--d", "0.3", "--T", "0.7",
                  "--out", str(out), "--diagnostics", str(diag)])
    assert rc == 0
    (rec,) = json.loads(diag.read_text())
    assert rec["command"] == "thermal-part"
    # a verified node at (1, 0.3), T = 0.7 moves the hint inside a panel
    assert rec["diagnostics"]["nodes_discarded"] > 0
    assert rec["diagnostics"]["nodes_assumed"] > 0
    # the work evaluated, next to the work accepted
    assert rec["diagnostics"]["l_max_evaluated"] >= rec["diagnostics"]["l_max_used"]
    assert rec["diagnostics"]["m_max_evaluated"] >= rec["diagnostics"]["m_max_used"]


def test_diagnostics_json_next_to_the_csv(tmp_path, monkeypatch):
    out, diag = tmp_path / "fe.csv", tmp_path / "fe.json"
    rc = run_cli(["--command", "free-energy", "--R", "1.0", "--d", "1.0", "--T", "1.0",
                  "--out", str(out), "--diagnostics", str(diag)])
    assert rc == 0
    records = json.loads(diag.read_text())
    assert len(records) == 1
    rec = records[0]
    assert (rec["command"], rec["R"], rec["d"], rec["T"]) == ("free-energy", 1.0, 1.0, 1.0)
    assert rec["diagnostics"]["l_max_used"] == int(read_csv(out)[0]["l_max_used"])
    assert rec["diagnostics"]["converged"] is True

    # one object per row of a table, keyed by the row's inputs
    def fake_force(geom, spec, T, trunc=None, target="total"):
        return EnergyResult(-0.5, 1e-4, {"l_max_used": 10, "blocks": 7, "converged": False})

    monkeypatch.setattr(cli.freeenergy, "force", fake_force)
    assert run_cli(["--command", "table2", "--out", str(out), "--diagnostics", str(diag)]) == 2
    records = json.loads(diag.read_text())
    assert [(r["epsilon"], r["R"], r["T"]) for r in records] == [
        (0.1, 0.5, 1.0), (0.1, 1.0, 1.0), (0.1, 6.0, 1.0)]
    assert all(r["diagnostics"] == {"l_max_used": 10, "blocks": 7, "converged": False}
               for r in records)

    # closed-form rows carry no EnergyResult
    assert run_cli(["--command", "pfa", "--R", "1.0", "--d", "0.1", "--T", "0.0",
                    "--out", str(out), "--diagnostics", str(diag)]) == 0
    assert json.loads(diag.read_text()) == []
