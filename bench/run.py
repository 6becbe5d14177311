"""Seeded end-to-end benchmark of the mpmcs ``solve`` path.

    python3 bench/run.py --workload dag_search --seed 1 --seconds 35 --trace 0

Each run builds its workload's instances from ``--seed``, writes them as
JSON files, and then solves them in a closed loop (one instance after
the other) through ``mpmcs.cli.main(["solve", FILE, ...])``, in process,
with stdout captured and the JSON report parsed.  It repeats whole
rounds over the instances until ``--seconds`` are used up, then checks
every report against an independent MILP (``reference.py``) and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` also calls
each layer's public functions on the same instances, records a span
around every call, and gives the per-layer metrics instead.  See
README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# Per-strategy budget passed to ``solve``.  Every workload instance is
# proven in under 3 s today, so a budget hit is a real regression; the
# budget also keeps a regressed run within a few minutes.
SOLVE_TIMEOUT = 10.0
# Fixed budget of the stand-alone best-first probe in traced runs.
BESTFIRST_PROBE_S = 0.5
SETUP_REPEATS = 3


def _cpu() -> float:
    """CPU seconds of this process (all threads) and of its reaped children.

    Time is measured as CPU time, not wall time: on a shared host, wall
    time of the portfolio's two threads mostly measures how long the
    host keeps the thread that is due the interpreter lock waiting for a
    processor (see README.md).
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _import_program():
    """Import the program from this checkout's ``src``; return import CPU seconds."""
    if not (SRC_DIR / "mpmcs" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    t0 = _cpu()
    import mpmcs.cli  # noqa: F401

    took = _cpu() - t0
    if SRC_DIR not in Path(sys.modules["mpmcs"].__file__).resolve().parents:
        raise SystemExit("error: mpmcs was imported from outside this checkout")
    return took


def _cli_solve(path: Path, extra: list[str]) -> tuple[float, float, int, dict | None, str]:
    """One operation: ``mpmcs solve FILE`` in process, report parsed.

    Returns CPU seconds, wall seconds, exit code, report and stderr tail.
    """
    from mpmcs import cli

    out, err = io.StringIO(), io.StringIO()
    c0, t0 = _cpu(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["solve", str(path), "--timeout", str(SOLVE_TIMEOUT), *extra])
        text = out.getvalue()
        report = json.loads(text) if text.strip() else None
    except Exception as exc:  # counted as a failed operation, not fatal
        rc, report = -1, None
        err.write(f"{type(exc).__name__}: {exc}")
    return _cpu() - c0, time.perf_counter() - t0, rc, report, err.getvalue()[-500:]


def _setup(workload, seed: int, workdir: Path) -> tuple[float, list[Path]]:
    """Build and write the instances, then solve the warm-up instance."""
    t0 = _cpu()
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for label, text in workload.instances(seed):
        path = workdir / f"{label}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    warm = workdir / "warmup.json"
    warm.write_text(workload.warmup(), encoding="utf-8")
    _cli_solve(warm, workload.cli_args)
    return _cpu() - t0, paths


def _rounds(seconds: float, one_round) -> None:
    """Whole rounds until the next one would overrun ``seconds`` (at least one)."""
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return


def _geomean(xs) -> float:
    xs = list(xs)
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


class Tracer:
    """Spans kept in memory and written out once, at the end of the run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.round = 0

    @contextlib.contextmanager
    def span(self, name: str, instance: str):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self.stack[-1] if self.stack else None,
               "name": name, "instance": instance, "round": self.round,
               "start": time.perf_counter(), "cpu_start": _cpu()}
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield rec
        finally:
            rec["cpu_end"] = _cpu()
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _traced_instance(tracer: Tracer, path: Path, workload) -> tuple:
    """The user path, then each layer's public function, each in a span."""
    from mpmcs.encoding import build_wcnf, event_weights
    from mpmcs.fault_tree import parse_fault_tree
    from mpmcs.solver import (
        SolverConfig,
        Strategy,
        VarOrder,
        add_blocking_clause,
        default_portfolio,
        enumerate_optima,
        extract_mpmcs,
        solve_best_first,
        solve_branch_and_bound,
        solve_portfolio,
    )

    label = path.stem
    with tracer.span("instance", label):
        gc.collect()
        with tracer.span("cli.main", label):
            op = _cli_solve(path, workload.cli_args)
        text = path.read_text(encoding="utf-8")
        gc.collect()
        with tracer.span("fault_tree.parse", label):
            tree = parse_fault_tree(text)
        with tracer.span("encoding.build_wcnf", label) as rec:
            instance = build_wcnf(tree)
        rec["hard_clauses"] = len(instance.hard.clauses)
        weights = event_weights(tree)
        portfolio = default_portfolio(time_budget=SOLVE_TIMEOUT)
        if workload.all_optima:
            with tracer.span("solver.enumerate", label) as rec:
                optima = enumerate_optima(instance, weights, portfolio)
            rec["optima"] = len(optima)
            # The probes below then time the enumeration's second solve: a
            # cold search, since the blocking clause rules out the warm start.
            instance = add_blocking_clause(instance, optima[0].cut_set)
        with tracer.span("solver.bnb", label) as rec:
            sol = solve_branch_and_bound(instance, portfolio[0])
        rec.update(decisions=sol.stats.decisions, propagations=sol.stats.propagations,
                   elapsed=sol.stats.elapsed)
        probe = SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT,
                             time_budget=BESTFIRST_PROBE_S)
        with tracer.span("solver.bestfirst", label) as rec:
            sol = solve_best_first(instance, probe)
        rec.update(decisions=sol.stats.decisions, elapsed=sol.stats.elapsed)
        with tracer.span("solver.portfolio", label) as rec:
            sol = solve_portfolio(instance, portfolio)
        exits = [w.exit_after_winner for w in sol.workers if w.exit_after_winner is not None]
        rec.update(winner=sol.solver_id, loser_exit_s=max(exits, default=0.0))
        with tracer.span("solver.extract", label) as rec:
            result = extract_mpmcs(sol, instance, weights)
        rec["cut_size"] = len(result.cut_set)
    return op


PER_LAYER_UNITS = {
    "fault_tree.parse_s": "s",
    "encoding.build_wcnf_s": "s",
    "encoding.hard_clauses": "count",
    "solver.bnb_s": "s",
    "solver.bnb_decisions": "count",
    "solver.bnb_decisions.min": "count",
    "solver.bnb_propagations": "count",
    "solver.bnb_decisions_per_s": "1/s",
    "solver.bestfirst_decisions_per_s": "1/s",
    "solver.portfolio_s": "s",
    "solver.portfolio_over_bnb": "ratio",
    "solver.bnb_wins": "count",
    "solver.loser_exit_ms.max": "ms",
    "solver.extract_s": "s",
    "solver.cut_size": "count",
    "solver.enumerate_s": "s",
    "solver.optima": "count",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "cli.wall_over_cpu": "ratio",
    "trace.overhead_s": "s",
}


def _span_cpu(rec: dict) -> float:
    return rec["cpu_end"] - rec["cpu_start"]


def _layer_metrics(spans: list[dict], untraced_cpu: float, all_optima: bool) -> dict:
    """Per-layer figures: per-instance medians over traced rounds, summed.

    Times are CPU seconds, as for the end-to-end metrics; only
    ``cli.wall_over_cpu`` reads wall time.
    """
    by: dict[tuple[str, str], list[dict]] = {}
    for rec in spans:
        by.setdefault((rec["name"], rec["instance"]), []).append(rec)
    labels = sorted({rec["instance"] for rec in spans})

    def dur(name: str, label: str, span_time=_span_cpu) -> float:
        recs = by.get((name, label), [])
        return statistics.median(span_time(r) for r in recs) if recs else 0.0

    def total(name: str) -> float:
        return math.fsum(dur(name, lab) for lab in labels)

    def last(name: str, key: str, label: str):
        return by[(name, label)][-1][key]

    decisions = [last("solver.bnb", "decisions", lab) for lab in labels]
    bnb_cpu = math.fsum(_span_cpu(by[("solver.bnb", lab)][-1]) for lab in labels)
    bf_dec = sum(last("solver.bestfirst", "decisions", lab) for lab in labels)
    bf_cpu = math.fsum(_span_cpu(by[("solver.bestfirst", lab)][-1]) for lab in labels)
    solve_layers = ("solver.enumerate",) if all_optima else ("solver.portfolio", "solver.extract")
    overhead = math.fsum(
        dur("cli.main", lab)
        - sum(dur(n, lab) for n in ("fault_tree.parse", "encoding.build_wcnf", *solve_layers))
        for lab in labels
    )
    traced_cli = [
        math.fsum(_span_cpu(r) for r in spans if r["name"] == "cli.main" and r["round"] == k)
        for k in sorted({r["round"] for r in spans if r["name"] == "cli.main"})
    ]
    values = {
        "fault_tree.parse_s": total("fault_tree.parse"),
        "encoding.build_wcnf_s": total("encoding.build_wcnf"),
        "encoding.hard_clauses": sum(last("encoding.build_wcnf", "hard_clauses", lab) for lab in labels),
        "solver.bnb_s": total("solver.bnb"),
        "solver.bnb_decisions": sum(decisions),
        "solver.bnb_decisions.min": min(decisions),
        "solver.bnb_propagations": sum(last("solver.bnb", "propagations", lab) for lab in labels),
        "solver.bnb_decisions_per_s": sum(decisions) / bnb_cpu,
        "solver.bestfirst_decisions_per_s": bf_dec / bf_cpu,
        "solver.portfolio_s": total("solver.portfolio"),
        "solver.portfolio_over_bnb": _geomean(
            dur("solver.portfolio", lab) / dur("solver.bnb", lab) for lab in labels
        ),
        "solver.bnb_wins": sum(last("solver.portfolio", "winner", lab).startswith("bnb") for lab in labels),
        "solver.loser_exit_ms.max": 1000.0 * max(
            r["loser_exit_s"] for r in spans if r["name"] == "solver.portfolio"
        ),
        "solver.extract_s": total("solver.extract"),
        "solver.cut_size": sum(last("solver.extract", "cut_size", lab) for lab in labels),
        "solver.enumerate_s": total("solver.enumerate"),
        "solver.optima": sum(last("solver.enumerate", "optima", lab) for lab in labels) if all_optima else 0,
        "cli.main_s": total("cli.main"),
        "cli.overhead_s": overhead,
        "cli.wall_over_cpu": math.fsum(
            dur("cli.main", lab, lambda r: r["end"] - r["start"]) for lab in labels
        ) / total("cli.main"),
        "trace.overhead_s": statistics.median(traced_cli) - untraced_cpu,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-{args.seed}"
    workdir = OUT_DIR / tag

    setups = []
    for _ in range(SETUP_REPEATS):
        took, paths = _setup(workload, args.seed, workdir)
        setups.append(took)
    setup_s = import_s + statistics.median(setups)

    ops: list[tuple[Path, float, float, int, dict | None, str]] = []  # path, cpu, wall, ...

    def plain_round() -> None:
        for path in paths:
            # Start each operation from a collected heap, as a fresh `mpmcs`
            # process would, so no solve pays to collect an earlier one's cycles.
            gc.collect()
            ops.append((path, *_cli_solve(path, workload.cli_args)))

    if args.trace:
        plain_round()
        untraced_cpu = math.fsum(cpu for _, cpu, *_ in ops)
        tracer = Tracer()

        def traced_round() -> None:
            for path in paths:
                ops.append((path, *_traced_instance(tracer, path, workload)))
            tracer.round += 1

        _rounds(args.seconds, traced_round)
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
    else:
        _rounds(args.seconds, plain_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks run after the timed phase; only now is scipy imported.
    import reference

    refs = {}
    for path in paths:
        tree = reference.RefTree(path.read_text(encoding="utf-8"))
        refs[path] = (tree, reference.milp_optimum(tree))
    check = reference.optima_problems if workload.all_optima else reference.cut_set_problems
    verdicts: dict[tuple, list[str]] = {}
    failed = 0
    correct = True
    failures = []
    for path, _, _, rc, report, err in ops:
        if rc != 0 or report is None or report.get("proven") is not True:
            failed += 1
            failures.append({"instance": path.stem, "rc": rc, "stderr": err})
            continue
        # Rounds repeat the same answers; check each distinct one once.
        key = (path, json.dumps({k: v for k, v in report.items()
                                 if k not in ("elapsed_ms", "solver_id")}, sort_keys=True))
        if key not in verdicts:
            verdicts[key] = check(*refs[path], report)
        if verdicts[key]:
            failed += 1
            correct = False
            failures.append({"instance": path.stem, "problems": verdicts[key]})

    if args.trace:
        metrics = _layer_metrics(tracer.spans, untraced_cpu, workload.all_optima)
    else:
        # Per-instance medians over rounds: one slow stretch of the machine
        # then spoils a sample of each instance it hits, not a whole round.
        per_instance: dict[Path, list[float]] = {}
        for path, cpu, *_ in ops:
            per_instance.setdefault(path, []).append(cpu)
        medians = [statistics.median(ts) for ts in per_instance.values()]
        metrics = {
            "cpu_s": {"value": math.fsum(medians), "unit": "s"},
            "instance_cpu_s.geomean": {"value": _geomean(medians), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, setups=setups,
                  import_s=import_s, failures=failures[:20],
                  ops=[{"instance": p.stem, "cpu_s": c, "wall_s": w, "rc": rc}
                       for p, c, w, rc, _, _ in ops])
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    for name, m in metrics.items():
        print(f"{name:34} {m['value']:.6g} {m['unit']}")
    print(f"{'attempted':34} {len(ops)}\n{'failed':34} {failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
