"""Command-line interface: subcommands, report schema, exit codes."""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from helpers import seeded_dag, tie_tree, tree, underflow_tree
from mpmcs import cli, solver
from mpmcs.cli import build_parser, main
from mpmcs.encoding import WcnfInstance, format_wcnf
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


@pytest.mark.parametrize("extra", [[], ["--all-optima"]], ids=["one", "all-optima"])
def test_solve_does_not_derive_the_cnf(capsys, fire_path, monkeypatch, extra):
    """The report counts the hard clauses from the circuit; only
    ``export-wcnf`` derives them."""
    def underived(self):
        raise AssertionError("solve derived the Tseitin CNF")

    monkeypatch.setattr(WcnfInstance, "hard", property(underived))
    code, out, _ = run_cli(capsys, "solve", str(fire_path), *extra)
    assert code == 0
    assert json.loads(out)["stats"] == {
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
    # Enumeration runs each solve's race through ``solver._race``.
    real = solver._race
    calls = []

    def second_solve_unproven(*args, **kwargs):
        calls.append(None)
        sol = real(*args, **kwargs)
        if len(calls) == 2:
            return replace(sol, assignment=None, weight=math.inf, proven=False)
        return sol

    monkeypatch.setattr(solver, "_race", second_solve_unproven)
    code, out, _ = run_cli(capsys, "solve", path, "--all-optima")
    assert code == 2
    report = json.loads(out)
    assert report["proven"] is False
    assert len(report["optima"]) == 1
    assert report["cut_set"] == report["optima"][0]["cut_set"]


def test_solve_all_optima_first_solve_unproven_reports_its_incumbent(capsys, tmp_path):
    """The first solve's search on this open-root DAG outlasts the budget:
    the report is its unproven incumbent, as plain ``solve`` reports it,
    with no optima, and the exit code says the budget ran out."""
    path = write_tree(tmp_path / "dag.json", seeded_dag(1000, 2.0, 1))
    code, out, _ = run_cli(capsys, "solve", path, "--all-optima", "--timeout", "0.001")
    assert code == 2
    report = json.loads(out)
    assert report["proven"] is False
    assert report["cut_set"] and report["log_weight"] > 0.0
    assert report["optima"] == []
    code, out, _ = run_cli(capsys, "solve", path, "--timeout", "0.001")
    assert code == 2
    assert set(report) - {"optima"} == set(json.loads(out))


@pytest.mark.parametrize("t, extra, want_code", [
    (tie_tree(60, 1), [], 0),
    (seeded_dag(1000, 2.0, 1), ["--timeout", "0.001"], 2),
], ids=["ties-60-1", "first-solve-unproven"])
def test_solve_all_optima_elapsed_covers_the_enumeration(capsys, tmp_path, monkeypatch,
                                                         t, extra, want_code):
    """``elapsed_ms`` is at least the wall time of the whole enumeration,
    its solves that list no optimum included, also when it runs out of
    budget."""
    walls = []
    real = cli.enumerate_optima

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            walls.append(time.perf_counter() - start)

    monkeypatch.setattr(cli, "enumerate_optima", timed)
    path = write_tree(tmp_path / "t.json", t)
    code, out, _ = run_cli(capsys, "solve", path, "--all-optima", *extra)
    assert code == want_code
    assert json.loads(out)["elapsed_ms"] >= walls[0] * 1000.0


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


def test_solve_rejects_a_probability_too_large_for_a_float(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"name": "b", "top": "a", "nodes": '
                    f'[{{"id": "a", "type": "basic", "prob": {"9" * 400}}}]}}')
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "probability" in err
    assert "Traceback" not in err


def test_solve_rejects_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "nested" in err
    assert "Traceback" not in err


def test_solve_rejects_a_nan_timeout(capsys, fire_path):
    """A NaN budget would never expire: every deadline test is false."""
    code, out, err = run_cli(capsys, "solve", str(fire_path), "--timeout", "nan")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_one_parser_serves_many_calls(capsys, fire_path, monkeypatch):
    """``main`` keeps one parser for the process: each command, run in
    turn, gives the exit code and stdout it gives through a fresh
    ``build_parser()``, and a usage error leaves nothing behind for the
    command after it."""
    fire = str(fire_path)
    commands = [
        ["solve", fire], ["solve", fire, "--all-optima"], ["solve", fire, "--strategy", "bnb"],
        ["solve"], ["check", fire], ["export-wcnf", fire], ["generate", "--nodes", "30"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        if argv[0] == "solve" and out:
            out = {**json.loads(out), "elapsed_ms": None}
        return code, out

    shared = [outcome(argv) for argv in commands]
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert shared == [outcome(argv) for argv in commands]
    assert [code for code, _ in shared] == [0, 0, 0, 1, 0, 0, 0]


def test_check_agrees_on_fire_tree(capsys, fire_path):
    code, out, _ = run_cli(capsys, "check", str(fire_path))
    assert code == 0
    report = json.loads(out)
    assert report["match"] is True
    assert report["cut_set"] == ["x1", "x2"]


def test_check_agrees_when_probabilities_underflow(capsys, tmp_path):
    """Both cut sets' products are 0.0; the reference ranks by log
    weight, so it agrees with the solver's {c, d}."""
    path = write_tree(tmp_path / "underflow.json", underflow_tree())
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    report = json.loads(out)
    assert report["match"] is True
    assert report["cut_set"] == ["c", "d"]


def test_check_reports_a_mismatch(capsys, fire_path, monkeypatch):
    from mpmcs import cli

    real = cli.oracle_mpmcs
    monkeypatch.setattr(
        cli, "oracle_mpmcs", lambda t: replace(real(t), log_weight=1.0, cut_set=frozenset("z"))
    )
    code, out, _ = run_cli(capsys, "check", str(fire_path))
    assert code == 3
    report = json.loads(out)
    assert list(report) == ["match", "solver", "reference"]
    assert report["match"] is False
    assert report["solver"]["cut_set"] == ["x1", "x2"]
    assert report["reference"] == {"cut_set": ["z"], "log_weight": 1.0}


def test_check_budget_exhausted_exits_two(capsys, fire_path):
    code, out, err = run_cli(capsys, "check", str(fire_path), "--timeout", "1e-6")
    assert code == 2
    assert out == ""
    assert "budget exhausted" in err


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


@pytest.mark.parametrize("command", [["export-wcnf", "FILE"], ["generate"]])
def test_write_to_a_missing_directory_exits_one(capsys, fire_path, tmp_path, command):
    target = tmp_path / "missing" / "out"
    argv = [str(fire_path) if a == "FILE" else a for a in command]
    code, out, err = run_cli(capsys, *argv, "-o", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


def test_generate_roundtrips(capsys, tmp_path):
    target = tmp_path / "gen.json"
    code, _, _ = run_cli(
        capsys, "generate", "--nodes", "40", "--seed", "6", "-o", str(target)
    )
    assert code == 0
    t = parse_fault_tree(target.read_text(encoding="utf-8"))
    assert len(t.nodes) == 40
    assert t == random_fault_tree(GeneratorParams(nodes=40, seed=6))


def test_generate_to_stdout_matches_file_output(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "generate", "--nodes", "12", "--seed", "2")
    assert code == 0
    t = parse_fault_tree(out)
    assert len(t.nodes) == 12
    target = tmp_path / "gen.json"
    run_cli(capsys, "generate", "--nodes", "12", "--seed", "2", "-o", str(target))
    assert target.read_text(encoding="utf-8") == out


def test_generate_output_is_pinned(capsys):
    """``generate`` writes ``json.dumps(indent=2)``'s bytes for its tree."""
    code, out, _ = run_cli(capsys, "generate", "--nodes", "2000", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "82638b11522da435a52e54f84dc22c9189fb8b431002a34dcd3392e9d79a80d9"
    )


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
