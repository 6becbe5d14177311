"""Maximum probability minimal cut sets for AND/OR fault trees.

The failure formula is compiled to weighted partial MaxSAT (hard: the
top event occurs; soft: each basic event prefers not to, at weight
-ln p) and solved exactly by a small portfolio of search strategies.
The optimal model, after a set-minimality sweep, is the most probable
minimal cut set.
"""

from .encoding import (
    CnfFormula,
    VarMap,
    WcnfInstance,
    build_wcnf,
    event_weights,
    format_wcnf,
    joint_probability,
    to_log_space,
)
from .fault_tree import (
    Assignment,
    BasicEvent,
    FaultTree,
    FaultTreeError,
    Gate,
    GateOp,
    dualize,
    evaluate,
    parse_fault_tree,
    serialize_fault_tree,
)
from .generator import GeneratorParams, random_fault_tree
from .oracle import CutSet, enumerate_mcs, oracle_mpmcs
from .solver import (
    MpmcsResult,
    OptimaTimeoutError,
    SearchStats,
    Solution,
    SolverConfig,
    Strategy,
    VarOrder,
    WorkerReport,
    compute_mpmcs,
    default_portfolio,
    enumerate_optima,
    extract_mpmcs,
    solve_best_first,
    solve_branch_and_bound,
    solve_portfolio,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BasicEvent",
    "CnfFormula",
    "CutSet",
    "FaultTree",
    "FaultTreeError",
    "Gate",
    "GateOp",
    "GeneratorParams",
    "MpmcsResult",
    "OptimaTimeoutError",
    "SearchStats",
    "Solution",
    "SolverConfig",
    "Strategy",
    "VarMap",
    "VarOrder",
    "WcnfInstance",
    "WorkerReport",
    "build_wcnf",
    "compute_mpmcs",
    "default_portfolio",
    "dualize",
    "enumerate_mcs",
    "enumerate_optima",
    "evaluate",
    "event_weights",
    "extract_mpmcs",
    "format_wcnf",
    "joint_probability",
    "oracle_mpmcs",
    "parse_fault_tree",
    "random_fault_tree",
    "serialize_fault_tree",
    "solve_best_first",
    "solve_branch_and_bound",
    "solve_portfolio",
    "to_log_space",
    "__version__",
]
