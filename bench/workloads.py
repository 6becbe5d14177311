"""The benchmark's three workloads and the instances each run solves.

Each workload solves a fixed catalogue of tree shapes; the seed renames
(keeping the names' order) and reorders the nodes of every file, and
the order of the files.  The shapes are fixed because the work they
take is heavy-tailed in the random structure: across consecutive
generator seeds, 300-700 node DAGs range from 0 decisions to unproven
after 5 s, tied trees from 2 to over 100 optima, and large trees from 1
to 47 cut-set members, which sets the cost of extraction.  Fresh shapes
per seed would make runs with different seeds measure different amounts
of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from mpmcs.fault_tree import BasicEvent, FaultTree, Gate, serialize_fault_tree
from mpmcs.generator import GeneratorParams, random_fault_tree


def dag_tree(nodes: int, share: float, tree_seed: int) -> FaultTree:
    """A random tree plus ``share * #events`` extra gate -> event references.

    Events have no children, so no added edge can close a cycle.
    """
    base = random_fault_tree(GeneratorParams(nodes=nodes, seed=tree_seed))
    rng = random.Random(f"dag:{tree_seed}")
    gates = [n.id for n in base.nodes.values() if isinstance(n, Gate)]
    events = base.event_ids
    children = {g: list(base.nodes[g].children) for g in gates}
    extra = round(share * len(events))
    while extra:
        g, e = rng.choice(gates), rng.choice(events)
        if e not in children[g]:
            children[g].append(e)
            extra -= 1
    out = {
        nid: Gate(nid, node.op, tuple(children[nid])) if nid in children else node
        for nid, node in base.nodes.items()
    }
    return FaultTree(name=f"dag-{nodes}-{share}-{tree_seed}", nodes=out, top=base.top)


def tie_tree(nodes: int, tree_seed: int, probs: tuple[float, ...]) -> FaultTree:
    """A random tree whose probabilities are drawn from ``probs``.

    Handbook data come as round values, so many cut sets tie.
    """
    base = random_fault_tree(GeneratorParams(nodes=nodes, seed=tree_seed))
    rng = random.Random(f"ties:{tree_seed}")
    out = {
        nid: BasicEvent(nid, rng.choice(probs)) if isinstance(node, BasicEvent) else node
        for nid, node in base.nodes.items()
    }
    return FaultTree(name=f"ties-{nodes}-{tree_seed}", nodes=out, top=base.top)


def relabel(tree: FaultTree, seed: int) -> FaultTree:
    """Rename every node and shuffle the node list; structure is unchanged.

    Gate child order is kept, so the program encodes the same formula
    with the same variable numbering.  The new names sort in the same
    order as the old ones: the program breaks ties between equal weights
    by name, and a renaming that reordered them would change the search
    on tied trees, by up to a fifth of an instance's time.
    """
    rng = random.Random(f"relabel:{seed}:{tree.name}:{len(tree.nodes)}")
    tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4))
    new = {nid: f"{tag}{rank:06d}" for rank, nid in enumerate(sorted(tree.nodes))}
    ids = list(tree.nodes)
    rng.shuffle(ids)
    out = {}
    for nid in ids:
        node = tree.nodes[nid]
        if isinstance(node, Gate):
            out[new[nid]] = Gate(new[nid], node.op, tuple(new[c] for c in node.children))
        else:
            out[new[nid]] = BasicEvent(new[nid], node.probability)
    return FaultTree(name=tree.name, nodes=out, top=new[tree.top])


# The catalogues below were chosen by the rules in README.md.
# (nodes, share, generator seed)
DAG_CATALOGUE = (
    (300, 0.1, 1),
    (300, 0.2, 1),
    (300, 0.3, 1),
    (500, 0.1, 0),
    (500, 0.2, 1),
    (500, 0.3, 3),
    (700, 0.1, 4),
    (700, 0.2, 4),
    (700, 0.3, 4),
)
# (nodes, generator seed)
LARGE_TREE_CATALOGUE = (
    (10_000, 0),
    (12_500, 1),
    (15_000, 2),
    (17_500, 0),
    (20_000, 1),
)
TIE_PROBS = (0.1, 0.01)
# (nodes, generator seed)
TIE_CATALOGUE = (
    (100, 0),
    (100, 2),
    (150, 0),
    (150, 2),
    (200, 0),
    (200, 2),
)


@dataclass(frozen=True)
class Workload:
    catalogue: Callable[[], list[tuple[str, FaultTree]]]  # (label, tree)
    warmup_tree: Callable[[], FaultTree]
    cli_args: tuple[str, ...] = ()

    @property
    def all_optima(self) -> bool:
        return "--all-optima" in self.cli_args

    def instances(self, seed: int) -> list[tuple[str, str]]:
        """(label, JSON text) per instance, in the order a round solves them."""
        out = [(label, serialize_fault_tree(relabel(t, seed))) for label, t in self.catalogue()]
        random.Random(f"order:{seed}").shuffle(out)
        return out

    def warmup(self) -> str:
        return serialize_fault_tree(self.warmup_tree())


def _large_tree(nodes: int, tree_seed: int) -> FaultTree:
    return random_fault_tree(GeneratorParams(nodes=nodes, seed=tree_seed))


WORKLOADS = {
    "dag_search": Workload(
        lambda: [(f"dag-{n}-{s}-{ts}", dag_tree(n, s, ts)) for n, s, ts in DAG_CATALOGUE],
        lambda: dag_tree(200, 0.2, 1),
    ),
    "large_tree": Workload(
        lambda: [(f"tree-{n}-{ts}", _large_tree(n, ts)) for n, ts in LARGE_TREE_CATALOGUE],
        lambda: _large_tree(2000, 0),
    ),
    "all_optima": Workload(
        lambda: [(f"ties-{n}-{ts}", tie_tree(n, ts, TIE_PROBS)) for n, ts in TIE_CATALOGUE],
        lambda: tie_tree(40, 0, TIE_PROBS),
        ("--all-optima",),
    ),
}
