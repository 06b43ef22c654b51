"""GYO reduction, 0MA classification, and join-tree building.

Atoms are identified by their FROM position, and the query hypergraph is
the atoms' class bitmasks.  The reduction removes, per pass, vertices
occurring in a single edge and edges contained in another surviving edge,
always processing the lowest atom id first so that join trees (and every
feature derived from them) are reproducible.  `analyze` runs all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Aggregate
from .errors import SmashError

SET_SAFE_FUNCTIONS = ("MIN", "MAX")


@dataclass(slots=True)
class OmaResult:
    is_0ma: bool
    guard: int | None = None
    failure_reason: str | None = None  # NotAggregate | NotGuarded | NotSetSafe


@dataclass(frozen=True, slots=True)
class JoinTree:
    """A rooted join tree over atom ids, as `analyze` builds it: `children`
    maps every node to its children in node order, and `depth` counts the
    edges of the longest root-to-leaf path (both derived, so not compared)."""

    nodes: list  # atom ids
    parent: dict  # atom id -> atom id | None
    root: int
    oma_flag: bool
    guard: int | None
    children: dict = field(repr=False, compare=False)
    depth: int = field(repr=False, compare=False)

    def to_dict(self, cq):
        nodes = []
        for u in self.nodes:
            atom = cq.atoms[u]
            nodes.append({"node": u, "parent": self.parent[u], "alias": atom.alias,
                          "table": atom.table,
                          "attrs": sorted(set(atom.renaming.values()))})
        return {
            "root": self.root,
            "is_0ma": self.oma_flag,
            "guard": self.guard,
            "nodes": nodes,
        }

    def to_text(self, cq):
        def label(u):
            atom = cq.atoms[u]
            return atom.alias if atom.alias == atom.table else f"{atom.table} AS {atom.alias}"

        lines = []

        def rec(u, indent):
            lines.append("  " * indent + label(u))
            for c in self.children[u]:
                rec(c, indent + 1)

        rec(self.root, 0)
        return "\n".join(lines)


def _gyo(masks):
    """GYO over atom bitmasks: (ears, surviving atom -> mask).

    Per pass, vertices in exactly one surviving edge disappear, then every
    edge whose mask is a subset of another surviving edge's is an ear.
    The highest-positioned witness is preferred, which yields wide
    (star-shaped) trees rather than deep chains.
    """
    alive = dict(enumerate(masks))  # ascending atom ids, and stays so
    ears = []
    while alive:
        changed = False
        once = many = 0
        for mask in alive.values():
            many |= once & mask
            once |= mask
        once &= ~many
        if once:
            keep = ~once
            for atom in alive:
                alive[atom] &= keep
            changed = True
        for atom in list(alive):
            mask = alive[atom]
            # the atom is its own superset, so it is skipped only when met
            for w, m in reversed(alive.items()):
                if m & mask == mask and w != atom:
                    ears.append((atom, w))
                    del alive[atom]
                    changed = True
                    break
        if len(alive) == 1:
            ears.append((alive.popitem()[0], None))
            changed = True
        if not changed:
            break
    return ears, alive


def classify_0ma(cq) -> OmaResult:
    out = cq.output
    if out.kind != "aggregate":
        return OmaResult(False, failure_reason="NotAggregate")
    needed = cq.mask_of(out.needed_classes())
    qualifying = [i for i, mask in enumerate(cq.masks) if not needed & ~mask]
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


def _reroot(parent, new_root):
    path = [new_root]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    rerooted = dict(parent)
    rerooted[new_root] = None
    for child, above in zip(path, path[1:]):
        rerooted[above] = child
    return rerooted


def analyze(cq):
    """GYO, 0MA classification and the join tree in one step, over the
    query IR: (tree, oma), or SmashError for a cyclic query.

    The tree is GYO's ear/witness map, rerooted at a 0MA query's guard:
    each ear hangs under the witness that holds what is left of it, so
    every class's atoms are connected (Beeri, Fagin, Maier and
    Yannakakis, JACM 1983), and the last ear, which has none, is the root.
    """
    ears, alive = _gyo(cq.masks)
    if alive:
        raise SmashError("query is cyclic; no join tree exists")
    oma = classify_0ma(cq)
    parent = dict(ears)
    root = ears[-1][0]
    guard = oma.guard if oma.is_0ma else None
    if guard is not None and guard != root:
        parent = _reroot(parent, guard)
        root = guard
    nodes = sorted(parent)
    children = {u: [] for u in nodes}
    for v in nodes:
        if parent[v] is not None:
            children[parent[v]].append(v)
    depth = -1
    level = [root]
    while level:
        depth += 1
        level = [c for u in level for c in children[u]]
    return JoinTree(nodes, parent, root, oma.is_0ma, guard, children, depth), oma
