"""Command-line interface: subcommands, report schema, exit codes."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

from helpers import tree
from mpmcs import solver
from mpmcs.cli import main
from mpmcs.encoding import format_wcnf
from mpmcs.fault_tree import parse_fault_tree, serialize_fault_tree
from mpmcs.generator import GeneratorParams, random_fault_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tree(path, t):
    path.write_text(serialize_fault_tree(t) + "\n", encoding="utf-8")
    return str(path)


def test_solve_reports_golden_result(capsys, fire_path):
    code, out, _ = run_cli(capsys, "solve", str(fire_path))
    assert code == 0
    report = json.loads(out)
    assert report["cut_set"] == ["x1", "x2"]
    assert report["probability"] == pytest.approx(0.02, abs=1e-6)
    assert report["log_weight"] == pytest.approx(3.912023, abs=1e-5)
    assert report["proven"] is True
    assert report["solver_id"]
    assert report["elapsed_ms"] >= 0.0
    assert report["stats"] == {
        "events": 7, "gates": 5, "vars": 12, "hard_clauses": 17,
    }


@pytest.mark.parametrize("strategy", ["portfolio", "bnb", "bestfirst"])
def test_solve_strategies(capsys, fire_path, strategy):
    code, out, _ = run_cli(capsys, "solve", str(fire_path), "--strategy", strategy)
    assert code == 0
    report = json.loads(out)
    assert report["cut_set"] == ["x1", "x2"]
    assert report["proven"] is True
    members = {"bnb": {"bnb-desc"}, "bestfirst": {"bestfirst-asc"}}
    assert report["solver_id"] in members.get(strategy, {"bnb-desc", "bestfirst-asc"})


def test_solve_all_optima_with_ties(capsys, tmp_path):
    t = tree({"top": ("or", ["a", "b"]), "a": 0.25, "b": 0.25}, top="top")
    path = write_tree(tmp_path / "tie.json", t)
    code, out, _ = run_cli(capsys, "solve", path, "--all-optima")
    assert code == 0
    report = json.loads(out)
    assert sorted(o["cut_set"] for o in report["optima"]) == [["a"], ["b"]]
    assert report["proven"] is True


def test_solve_all_optima_unproven_resolve_reports_partial(capsys, tmp_path, monkeypatch):
    t = tree({"top": ("or", ["a", "b"]), "a": 0.25, "b": 0.25}, top="top")
    path = write_tree(tmp_path / "tie.json", t)
    real = solver.solve_portfolio
    calls = []

    def second_solve_unproven(*args, **kwargs):
        calls.append(None)
        sol = real(*args, **kwargs)
        if len(calls) == 2:
            return replace(sol, assignment=None, weight=math.inf, proven=False)
        return sol

    monkeypatch.setattr(solver, "solve_portfolio", second_solve_unproven)
    code, out, _ = run_cli(capsys, "solve", path, "--all-optima")
    assert code == 2
    report = json.loads(out)
    assert report["proven"] is False
    assert len(report["optima"]) == 1
    assert report["cut_set"] == report["optima"][0]["cut_set"]


def test_solve_budget_exhausted_still_reports(capsys, tmp_path):
    t = random_fault_tree(GeneratorParams(nodes=1000, seed=3))
    path = write_tree(tmp_path / "big.json", t)
    code, out, _ = run_cli(capsys, "solve", path, "--timeout", "0.000001")
    assert code == 2
    report = json.loads(out)
    assert report["proven"] is False
    assert report["cut_set"]  # incumbent from the greedy warm start


def test_solve_missing_file(capsys):
    code, out, err = run_cli(capsys, "solve", "/no/such/file.json")
    assert code == 1
    assert "error" in err


def test_solve_invalid_tree(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "b", "top": "a", "nodes": '
                    '[{"id": "a", "type": "basic", "prob": 1.5}]}')
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert "probability" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_check_agrees_on_fire_tree(capsys, fire_path):
    code, out, _ = run_cli(capsys, "check", str(fire_path))
    assert code == 0
    report = json.loads(out)
    assert report["match"] is True
    assert report["cut_set"] == ["x1", "x2"]


def test_check_rejects_large_trees(capsys, tmp_path):
    t = random_fault_tree(GeneratorParams(nodes=100, seed=0))
    path = write_tree(tmp_path / "big.json", t)
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "events" in err


def test_export_wcnf_stdout(capsys, fire_path, fire_instance):
    code, out, _ = run_cli(capsys, "export-wcnf", str(fire_path))
    assert code == 0
    assert out == format_wcnf(fire_instance)


def test_export_wcnf_to_file(capsys, fire_path, fire_instance, tmp_path):
    target = tmp_path / "out.wcnf"
    code, _, _ = run_cli(capsys, "export-wcnf", str(fire_path), "-o", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == format_wcnf(fire_instance)


def test_generate_roundtrips(capsys, tmp_path):
    target = tmp_path / "gen.json"
    code, _, _ = run_cli(
        capsys, "generate", "--nodes", "40", "--seed", "6", "-o", str(target)
    )
    assert code == 0
    t = parse_fault_tree(target.read_text(encoding="utf-8"))
    assert len(t.nodes) == 40
    assert t == random_fault_tree(GeneratorParams(nodes=40, seed=6))


def test_generate_to_stdout_matches_file_output(capsys):
    code, out, _ = run_cli(capsys, "generate", "--nodes", "12", "--seed", "2")
    assert code == 0
    t = parse_fault_tree(out)
    assert len(t.nodes) == 12


def test_generate_rejects_bad_params(capsys):
    code, _, err = run_cli(capsys, "generate", "--nodes", "0")
    assert code == 1
    assert "error" in err


def test_generated_trees_are_solvable(capsys, tmp_path):
    target = tmp_path / "gen.json"
    run_cli(capsys, "generate", "--nodes", "60", "--seed", "14", "-o", str(target))
    code, out, _ = run_cli(capsys, "solve", str(target))
    assert code == 0
    report = json.loads(out)
    assert report["proven"] is True
    assert report["cut_set"]


def test_module_entry_point(fire_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mpmcs", "solve", str(fire_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cut_set"] == ["x1", "x2"]
