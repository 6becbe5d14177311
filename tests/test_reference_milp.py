"""Branch and bound against the benchmark's independent MILP on DAGs
that only the core pass's bound proves.

The reference (``bench/reference.py``) solves each tree with HiGHS
through scipy, which the program itself does not need, so this module
is skipped where scipy is missing.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

from helpers import seeded_dag  # noqa: E402
from mpmcs.encoding import build_wcnf  # noqa: E402
from mpmcs.fault_tree import serialize_fault_tree  # noqa: E402
from mpmcs.solver import SolverConfig, solve_branch_and_bound  # noqa: E402


def _reference():
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


reference = _reference()


@pytest.mark.parametrize(
    "nodes, share, seed",
    [(2000, 0.2, 1), (5000, 0.1, 1), (3000, 0.5, 8), (3000, 2.0, 14), (1000, 2.0, 1)],
    ids=lambda x: str(x),
)
def test_branch_and_bound_proves_the_milp_optimum(nodes, share, seed):
    """Each row went unproven, or searched for long, on the first table
    alone; each must now be proven within 10 s at the MILP's weight."""
    t = seeded_dag(nodes, share, seed)
    sol = solve_branch_and_bound(build_wcnf(t), SolverConfig(time_budget=10.0))
    assert sol.proven
    want = reference.milp_optimum(reference.RefTree(serialize_fault_tree(t)))
    tol = reference.WEIGHT_REL_TOL * max(1.0, abs(want.weight))
    assert abs(sol.weight - want.weight) <= tol
