"""Hypergraph construction, GYO reduction, and join-tree building.

Atoms are identified by their FROM position.  The reduction removes, per
pass, vertices occurring in a single edge and edges contained in another
surviving edge, always processing the lowest atom id first so that join
trees (and every feature derived from them) are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .engine import Aggregate
from .errors import InvalidJoinTree

SET_SAFE_FUNCTIONS = ("MIN", "MAX")


@dataclass
class Hypergraph:
    vertices: set
    edges: list  # (atom id, frozenset of class ids)


@dataclass
class AcyclicityResult:
    acyclic: bool
    ears: list = field(default_factory=list)  # (atom id, witness atom id | None)
    residual: list = field(default_factory=list)  # surviving edges if cyclic


@dataclass
class OmaResult:
    is_0ma: bool
    guard: int | None = None
    failure_reason: str | None = None  # NotAggregate | NotGuarded | NotSetSafe


@dataclass
class JoinTree:
    nodes: list  # atom ids
    parent: dict  # atom id -> atom id | None
    root: int
    oma_flag: bool = False
    guard: int | None = None

    def children(self):
        """node -> its children in node order, for every node."""
        kids = {u: [] for u in self.nodes}
        for v in self.nodes:
            p = self.parent[v]
            if p is not None:
                kids[p].append(v)
        return kids

    def depth(self):
        kids = self.children()

        def rec(u):
            return 1 + max(map(rec, kids[u])) if kids[u] else 0

        return rec(self.root)

    def edge_set(self):
        return {frozenset((u, p)) for u, p in self.parent.items() if p is not None}

    def to_dict(self, cq=None):
        nodes = []
        for u in self.nodes:
            entry = {"node": u, "parent": self.parent[u]}
            if cq is not None:
                atom = cq.atoms[u]
                entry["alias"] = atom.alias
                entry["table"] = atom.table
                entry["attrs"] = sorted(set(atom.renaming.values()))
            nodes.append(entry)
        return {
            "root": self.root,
            "is_0ma": self.oma_flag,
            "guard": self.guard,
            "nodes": nodes,
        }

    def to_text(self, cq=None):
        def label(u):
            if cq is None:
                return str(u)
            atom = cq.atoms[u]
            return atom.alias if atom.alias == atom.table else f"{atom.table} AS {atom.alias}"

        lines = []
        kids = self.children()

        def rec(u, indent):
            lines.append("  " * indent + label(u))
            for c in kids[u]:
                rec(c, indent + 1)

        rec(self.root, 0)
        return "\n".join(lines)


def build_hypergraph(cq) -> Hypergraph:
    edges = [
        (i, frozenset(atom.renaming.values())) for i, atom in enumerate(cq.atoms)
    ]
    vertices = set()
    for _, vs in edges:
        vertices |= vs
    return Hypergraph(vertices=vertices, edges=edges)


def gyo_reduce(hg: Hypergraph) -> AcyclicityResult:
    alive = {atom: set(vs) for atom, vs in hg.edges}
    ears = []
    while alive:
        changed = False
        # vertices occurring in exactly one edge disappear
        counts = Counter(chain.from_iterable(alive.values()))
        once = {v for v, n in counts.items() if n == 1}
        if once:
            for vs in alive.values():
                vs.difference_update(once)
            changed = True
        # edges contained in another surviving edge get absorbed; the
        # highest-positioned witness is preferred, which yields wide
        # (star-shaped) trees rather than deep chains
        ascending = sorted(alive)
        descending = ascending[::-1]
        for atom in ascending:
            vs = alive[atom]
            witness = next((w for w in descending if w != atom and w in alive
                            and vs <= alive[w]), None)
            if witness is not None:
                ears.append((atom, witness))
                del alive[atom]
                changed = True
        if len(alive) == 1:
            last = next(iter(alive))
            ears.append((last, None))
            del alive[last]
            changed = True
        if not changed:
            break
    if alive:
        residual = [(atom, frozenset(vs)) for atom, vs in sorted(alive.items())]
        return AcyclicityResult(acyclic=False, residual=residual)
    return AcyclicityResult(acyclic=True, ears=ears)


def classify_0ma(cq) -> OmaResult:
    out = cq.output
    if out.kind != "aggregate":
        return OmaResult(False, failure_reason="NotAggregate")
    needed = set(out.needed_classes())
    qualifying = [
        i for i, atom in enumerate(cq.atoms)
        if needed <= set(atom.renaming.values())
    ]
    if not qualifying:
        return OmaResult(False, failure_reason="NotGuarded")
    # prefer the atom whose alias is written in the output, so e.g.
    # MIN(u.Id) roots at u even when other atoms share the join class
    guard = qualifying[0]
    if len(out.source_aliases) == 1:
        alias = out.source_aliases[0]
        for i in qualifying:
            if cq.atoms[i].alias == alias:
                guard = i
                break
    for agg in out.aggregates:
        assert isinstance(agg, Aggregate)
        if agg.fn not in SET_SAFE_FUNCTIONS and not agg.distinct:
            return OmaResult(False, guard=guard, failure_reason="NotSetSafe")
    return OmaResult(True, guard=guard)


def check_connectedness(tree: JoinTree, cq):
    """Raise InvalidJoinTree unless each class's atoms form a subtree.

    The atoms holding a class induce a forest in the tree, which is
    connected iff it has one edge fewer than it has atoms; the edges are
    counted over the tree once.
    """
    classes = [dict.fromkeys(atom.renaming.values()) for atom in cq.atoms]
    missing = {}  # class id -> atoms holding it - 1 - tree edges inside it
    for attrs in classes:
        for cid in attrs:
            missing[cid] = missing.get(cid, -1) + 1
    for node, parent in tree.parent.items():
        if parent is not None:
            for cid in classes[node].keys() & classes[parent].keys():
                missing[cid] -= 1
    for cid, n in missing.items():
        if n:
            raise InvalidJoinTree(
                f"attribute class {cid} not connected in join tree"
            )


def _reroot(parent, new_root):
    path = [new_root]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    rerooted = dict(parent)
    rerooted[new_root] = None
    for child, above in zip(path, path[1:]):
        rerooted[above] = child
    return rerooted


def build_join_tree(ears, cq, oma: OmaResult) -> JoinTree:
    parent = {}
    root = None
    for atom, witness in ears:
        parent[atom] = witness
        if witness is None:
            root = atom
    nodes = sorted(parent)
    if root is None or len(nodes) != len(cq.atoms):
        raise InvalidJoinTree("ear ordering does not cover the query atoms")
    oma_flag = oma.is_0ma
    guard = oma.guard if oma_flag else None
    if oma_flag and guard != root:
        parent = _reroot(parent, guard)
        root = guard
    tree = JoinTree(nodes=nodes, parent=parent, root=root,
                    oma_flag=oma_flag, guard=guard)
    check_connectedness(tree, cq)
    return tree


def analyze(cq):
    """GYO + 0MA classification + join tree in one step.

    Returns (tree, oma) or raises InvalidJoinTree for cyclic queries.
    """
    result = gyo_reduce(build_hypergraph(cq))
    if not result.acyclic:
        raise InvalidJoinTree("query is cyclic; no join tree exists")
    oma = classify_0ma(cq)
    return build_join_tree(result.ears, cq, oma), oma
