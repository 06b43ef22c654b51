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


@dataclass(slots=True)
class JoinTree:
    """A rooted join tree over atom ids.  `children()` and `depth()` are
    computed on first use and kept, so a tree must not change after."""

    nodes: list  # atom ids
    parent: dict  # atom id -> atom id | None
    root: int
    oma_flag: bool = False
    guard: int | None = None
    _children: dict = field(default=None, init=False, repr=False, compare=False)
    _depth: int = field(default=None, init=False, repr=False, compare=False)

    def children(self):
        """node -> its children in node order, for every node (shared: do
        not change it)."""
        if self._children is None:
            nodes, parent = self.nodes, self.parent
            kids = {}
            for u in nodes:
                kids[u] = []
            for v in nodes:
                p = parent[v]
                if p is not None:
                    kids[p].append(v)
            self._children = kids
        return self._children

    def depth(self):
        """Edges on the longest root-to-leaf path.

        Walks down from the root level by level.  Every node but the root
        is reached only through its one parent, so a node is reached twice
        only on a cycle through the root; the walk stops there, once it
        has seen more nodes than the tree has.
        """
        if self._depth is None:
            kids = self.children()
            level = [self.root]
            seen = depth = 0
            while True:
                seen += len(level)
                if seen > len(self.nodes):
                    break
                below = []
                for u in level:
                    below += kids[u]
                if not below:
                    break
                level = below
                depth += 1
            if seen != len(self.nodes):
                raise SmashError(f"parent map is not a tree rooted at {self.root}")
            self._depth = depth
        return self._depth

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
        kids = self.children()

        def rec(u, indent):
            lines.append("  " * indent + label(u))
            for c in kids[u]:
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
    qualifying = []
    for i, mask in enumerate(cq.masks):
        if not needed & ~mask:
            qualifying.append(i)
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
    """Raise SmashError unless each class's atoms form a subtree.

    The atoms holding a class induce a forest in the tree, which is
    connected iff it has one edge fewer than it has atoms.  The tree edges
    inside a class are counted as the bits two adjacent atoms' masks
    share; the first class left uneven, in the atoms' renaming order, is
    named.
    """
    masks = cq.masks
    missing = [n - 1 for n in cq.occurrences.values()]  # bit order
    for node, parent in tree.parent.items():
        if parent is not None:
            inside = masks[node] & masks[parent]
            while inside:
                bit = inside & -inside
                missing[bit.bit_length() - 1] -= 1
                inside ^= bit
    if any(missing):
        index = cq.class_index
        for atom in cq.atoms:
            for cid in atom.renaming.values():
                if missing[index[cid]]:
                    raise SmashError(
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
    """The join tree of an ear ordering, rerooted at a 0MA guard.

    When every ear's witness becomes an ear only after it, as in GYO, the
    parent map is a tree.  In a tree the atoms holding a class induce a
    forest, so the tree edges inside a class never number more than its
    atoms less one; every class is then connected iff the edges, each
    counted once per class its two atoms share, number the query's
    occurrences less one per class, and only otherwise does
    `check_connectedness` count them class by class.
    """
    parent = {}
    root = None
    ordered = True
    for atom, witness in ears:
        if witness in parent:
            ordered = False
        parent[atom] = witness
        if witness is None:
            root = atom
    nodes = sorted(parent)
    if root is None or len(nodes) != len(cq.atoms):
        raise SmashError("ear ordering does not cover the query atoms")
    oma_flag = oma.is_0ma
    guard = oma.guard if oma_flag else None
    if oma_flag and guard != root:
        parent = _reroot(parent, guard)
        root = guard
    tree = JoinTree(nodes, parent, root, oma_flag, guard)
    if ordered and len(ears) == len(nodes):
        masks = cq.masks
        inside = 0
        for node, above in parent.items():
            if above is not None:
                inside += (masks[node] & masks[above]).bit_count()
        occurrences = cq.occurrences
        if inside == sum(occurrences.values()) - len(occurrences):
            return tree
    check_connectedness(tree, cq)
    return tree


def analyze(cq):
    """GYO + 0MA classification + join tree in one step, over the query IR.

    Returns (tree, oma) or raises SmashError for cyclic queries.
    """
    ears, alive = _gyo(cq.masks)
    if alive:
        raise SmashError("query is cyclic; no join tree exists")
    oma = classify_0ma(cq)
    return build_join_tree(ears, cq, oma), oma
