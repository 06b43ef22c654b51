"""The bitmask GYO reduction and join-tree building against a set-based oracle.

The oracle is the set-based implementation `acyclic` had before it read
the query IR: hypergraph edges as frozensets of class ids, GYO over Python
sets, 0MA classification by set containment and the connectedness check
counted class by class.  Both must agree on the ears, the residual of a
cyclic query, the join tree, the 0MA result and every `SmashError`,
on the digest corpus of `test_plan_equivalence` and on generated
hypergraphs, cyclic ones included.
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import pytest

from smash.acyclic import (
    SET_SAFE_FUNCTIONS,
    JoinTree,
    OmaResult,
    _gyo,
    analyze,
    check_connectedness,
)
from smash.engine import Database
from smash.errors import SmashError
from smash.frontend import (
    ColumnRef,
    QuerySpec,
    SelectAggregate,
    normalize,
    parse_query,
    to_sql,
)

from conftest import from_rows
from test_plan_equivalence import corpus

# ---------------------------------------------------------------------------
# the oracle: set-based GYO, 0MA and join tree
# ---------------------------------------------------------------------------


@dataclass
class _Hypergraph:
    vertices: set
    edges: list  # (atom id, frozenset of class ids)


@dataclass
class _Result:
    acyclic: bool
    ears: list = field(default_factory=list)
    residual: list = field(default_factory=list)


def oracle_hypergraph(cq):
    edges = [(i, frozenset(atom.renaming.values())) for i, atom in enumerate(cq.atoms)]
    vertices = set()
    for _, vs in edges:
        vertices |= vs
    return _Hypergraph(vertices=vertices, edges=edges)


def oracle_gyo(hg):
    alive = {atom: set(vs) for atom, vs in hg.edges}
    ears = []
    while alive:
        changed = False
        counts = Counter(chain.from_iterable(alive.values()))
        once = {v for v, n in counts.items() if n == 1}
        if once:
            for vs in alive.values():
                vs.difference_update(once)
            changed = True
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
        return _Result(False, residual=[(a, frozenset(vs)) for a, vs in sorted(alive.items())])
    return _Result(True, ears=ears)


def oracle_0ma(cq):
    out = cq.output
    if out.kind != "aggregate":
        return OmaResult(False, failure_reason="NotAggregate")
    needed = set(out.needed_classes())
    qualifying = [i for i, atom in enumerate(cq.atoms)
                  if needed <= set(atom.renaming.values())]
    if not qualifying:
        return OmaResult(False, failure_reason="NotGuarded")
    guard = qualifying[0]
    if len(out.source_aliases) == 1:
        for i in qualifying:
            if cq.atoms[i].alias == out.source_aliases[0]:
                guard = i
                break
    for agg in out.aggregates:
        if agg.fn not in SET_SAFE_FUNCTIONS and not agg.distinct:
            return OmaResult(False, guard=guard, failure_reason="NotSetSafe")
    return OmaResult(True, guard=guard)


def oracle_check_connectedness(parent, cq):
    classes = [dict.fromkeys(atom.renaming.values()) for atom in cq.atoms]
    missing = {}
    for attrs in classes:
        for cid in attrs:
            missing[cid] = missing.get(cid, -1) + 1
    for node, above in parent.items():
        if above is not None:
            for cid in classes[node].keys() & classes[above].keys():
                missing[cid] -= 1
    for cid, n in missing.items():
        if n:
            raise SmashError(f"attribute class {cid} not connected in join tree")


def oracle_analyze(cq):
    """(nodes, parent, root, oma flag, guard, children, depth), oma."""
    result = oracle_gyo(oracle_hypergraph(cq))
    if not result.acyclic:
        raise SmashError("query is cyclic; no join tree exists")
    oma = oracle_0ma(cq)
    parent = {}
    root = None
    for atom, witness in result.ears:
        parent[atom] = witness
        if witness is None:
            root = atom
    nodes = sorted(parent)
    if root is None or len(nodes) != len(cq.atoms):
        raise SmashError("ear ordering does not cover the query atoms")
    guard = oma.guard if oma.is_0ma else None
    if oma.is_0ma and guard != root:
        path = [guard]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        parent = dict(parent)
        parent[guard] = None
        for child, above in zip(path, path[1:]):
            parent[above] = child
        root = guard
    oracle_check_connectedness(parent, cq)
    children = {u: [v for v in nodes if parent[v] == u] for u in nodes}

    def depth(u):
        return 0 if parent[u] is None else depth(parent[u]) + 1

    return (nodes, parent, root, oma.is_0ma, guard, children,
            max(map(depth, nodes))), oma


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _outcome(fn, cq):
    try:
        return fn(cq)
    except SmashError as exc:
        return "SmashError", str(exc)


def _analyzed(cq):
    tree, oma = analyze(cq)
    return (tree.nodes, tree.parent, tree.root, tree.oma_flag, tree.guard,
            tree.children(), tree.depth()), oma


def _bitmask_gyo(cq):
    """`_gyo` over the atoms' masks, its residual as the oracle's
    (atom id, frozenset of class ids) edges."""
    ears, alive = _gyo(cq.masks)
    classes = list(cq.class_index)  # bit order
    residual = [(atom, frozenset(c for i, c in enumerate(classes) if mask >> i & 1))
                for atom, mask in alive.items()]
    return _Result(not alive, [] if alive else ears, residual)


def _agree(cq):
    """Assert agreement; returns whether the query is acyclic."""
    expected = oracle_gyo(oracle_hypergraph(cq))
    got = _bitmask_gyo(cq)
    assert (got.acyclic, got.ears, got.residual) == (
        expected.acyclic, expected.ears, expected.residual)
    assert _outcome(_analyzed, cq) == _outcome(oracle_analyze, cq)
    return expected.acyclic


def test_digest_corpus_matches_the_set_based_oracle():
    verdicts = Counter()
    for name, db, spec in corpus():
        cq = normalize(parse_query(to_sql(spec)), db)
        verdicts[_agree(cq)] += 1
    assert sum(verdicts.values()) == 435 and verdicts[True] == 435


def _hypergraph_cq(edges, needed, fn, distinct):
    """A query whose atom i holds the classes of the vertices in edges[i],
    and whose output aggregates over the `needed` classes: atom i reads
    table t<i> with one column c<j> per vertex j, joined on c<j> with the
    next atom holding j."""
    db = Database()
    holders = {}
    for i, edge in enumerate(edges):
        db.add(from_rows(f"t{i}", [f"c{j}" for j in sorted(edge)], []))
        for j in sorted(edge):
            holders.setdefault(j, []).append(i)
    joins = [(ColumnRef(f"a{x}", f"c{j}"), ColumnRef(f"a{y}", f"c{j}"))
             for j, atoms in sorted(holders.items()) for x, y in zip(atoms, atoms[1:])]
    columns = [ColumnRef(f"a{holders[j][0]}", f"c{j}") for j in sorted(holders)
               if j in needed]
    spec = QuerySpec(tables=[(f"t{i}", f"a{i}") for i in range(len(edges))],
                     join_conds=joins)
    if fn is None:
        spec.select_columns = columns
    else:
        spec.select_aggregates = [SelectAggregate(fn, columns[0] if columns else None,
                                                  distinct)]
        spec.group_by = columns[1:]
    return normalize(spec, db)


def _vertex_set(rng, max_size):
    return frozenset(rng.sample(range(8), rng.randint(0, max_size)))


def test_generated_hypergraphs_match_the_set_based_oracle():
    """400 seeded hypergraphs: 1-7 edges of up to 4 of 8 vertices each."""
    rng = random.Random(3)
    verdicts = Counter()
    for _ in range(400):
        edges = [_vertex_set(rng, 4) for _ in range(rng.randint(1, 7))]
        needed = _vertex_set(rng, 3)
        fn = rng.choice([None, "MIN", "MAX", "COUNT", "SUM"])
        verdicts[_agree(_hypergraph_cq(edges, needed, fn, rng.random() < 0.5))] += 1
    assert verdicts[True] and verdicts[False]


def test_generated_hypergraphs_include_cyclic_ones():
    triangle = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 0})]
    cq = _hypergraph_cq(triangle, frozenset({0}), "MIN", False)
    assert not _agree(cq)
    assert _outcome(_analyzed, cq) == ("SmashError",
                                  "query is cyclic; no join tree exists")


CYCLE = {0: 1, 1: 0, 2: None}  # not a tree


@pytest.mark.parametrize("parent, root", [
    ({0: 1, 1: 2, 2: None}, 2),  # a chain: R-S-T is connected
    ({0: 2, 1: 2, 2: None}, 2),  # R under T: class R.b breaks
    (CYCLE, 2),
    (CYCLE, 0),  # the cycle runs through the root
])
def test_connectedness_matches_the_oracle_on_given_trees(parent, root):
    cq = normalize(parse_query(
        "SELECT MIN(R.a) FROM R, S, T WHERE R.b = S.b AND S.c = T.c"))
    tree = JoinTree(nodes=[0, 1, 2], parent=parent, root=root)
    assert _outcome(lambda q: check_connectedness(tree, q), cq) == \
        _outcome(lambda q: oracle_check_connectedness(parent, q), cq)


@pytest.mark.parametrize("root", [0, 2])
def test_depth_rejects_a_parent_map_with_a_cycle(root):
    tree = JoinTree(nodes=[0, 1, 2], parent=CYCLE, root=root)
    with pytest.raises(SmashError, match=f"not a tree rooted at {root}"):
        tree.depth()
