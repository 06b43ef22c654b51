"""GYO reduction, 0MA classification, and join-tree tests."""

import pytest

import random

from smash.acyclic import (
    JoinTree,
    _gyo,
    analyze,
    build_join_tree,
    check_connectedness,
    classify_0ma,
)
from smash.errors import SmashError
from smash.frontend import normalize, parse_query

from conftest import CHAIN_SQL, random_specs

TRIANGLE = (
    "SELECT MIN(R.a) FROM R, S, T "
    "WHERE R.b = S.b AND S.c = T.c AND T.a = R.a"
)


def analyzed(sql):
    cq = normalize(parse_query(sql))
    return cq, *analyze(cq)


class TestGyo:
    def test_chain_acyclic(self):
        cq = normalize(parse_query(CHAIN_SQL))
        ears, residual = _gyo(cq.masks)
        assert not residual
        assert len(ears) == 3

    def test_triangle_cyclic_with_full_residual(self):
        cq = normalize(parse_query(TRIANGLE))
        _, residual = _gyo(cq.masks)
        assert len(residual) == 3

    def test_single_edge(self):
        cq = normalize(parse_query("SELECT MIN(R.a) FROM R"))
        assert _gyo(cq.masks) == ([(0, None)], {})

    def test_cyclic_raises_on_tree_build(self):
        cq = normalize(parse_query(TRIANGLE))
        with pytest.raises(SmashError, match="^query is cyclic; no join tree exists$"):
            analyze(cq)


class TestOma:
    def test_chain_min_is_0ma(self):
        cq, tree, oma = analyzed(CHAIN_SQL)
        assert oma.is_0ma and oma.guard == 0
        assert tree.root == 0

    def test_enumeration_not_aggregate(self):
        cq, tree, oma = analyzed(
            "SELECT R.a, S.c FROM R, S WHERE R.b = S.b"
        )
        assert not oma.is_0ma
        assert oma.failure_reason == "NotAggregate"

    def test_unguarded(self):
        # MIN over R grouped by an attribute only in T: no single atom
        # holds every needed class
        cq, tree, oma = analyzed(
            "SELECT T.d, MIN(R.a) FROM R, S, T "
            "WHERE R.b = S.b AND S.c = T.c GROUP BY T.d"
        )
        assert not oma.is_0ma
        assert oma.failure_reason == "NotGuarded"

    def test_not_set_safe(self):
        cq, tree, oma = analyzed(
            "SELECT SUM(R.a) FROM R, S WHERE R.b = S.b"
        )
        assert not oma.is_0ma
        assert oma.failure_reason == "NotSetSafe"

    def test_count_distinct_is_set_safe(self):
        cq, tree, oma = analyzed(
            "SELECT COUNT(DISTINCT R.a) FROM R, S WHERE R.b = S.b"
        )
        assert oma.is_0ma

    def test_guard_becomes_root(self):
        cq, tree, oma = analyzed(
            "SELECT MIN(T.d) FROM R, S, T WHERE R.b = S.b AND S.c = T.c"
        )
        assert oma.is_0ma
        assert tree.root == oma.guard == 2


class TestJoinTree:
    def test_chain_tree_shape(self):
        cq, tree, _ = analyzed(CHAIN_SQL)
        assert tree.depth() == 2
        assert tree.parent == {0: None, 1: 0, 2: 1}

    def test_determinism(self):
        trees = [analyzed(CHAIN_SQL)[1] for _ in range(3)]
        assert all(t.parent == trees[0].parent for t in trees)

    def test_generated_queries_acyclic_and_connected(self):
        for db, spec in random_specs(11, 40):
            cq = normalize(spec, db)
            tree, _ = analyze(cq)  # runs the connectedness check internally
            assert set(tree.nodes) == set(range(len(cq.atoms)))

    def test_to_text_contains_aliases(self):
        cq, tree, _ = analyzed(CHAIN_SQL)
        text = tree.to_text(cq)
        assert "R" in text and "S" in text and "T" in text

    def test_children_and_depth(self):
        cq, tree, _ = analyzed(
            "SELECT MIN(R.a) FROM R, S, T, U WHERE R.a = S.a AND R.a = T.a "
            "AND T.b = U.b"
        )
        kids = tree.children()
        assert sorted(kids) == tree.nodes
        assert sorted(c for cs in kids.values() for c in cs) == sorted(
            u for u in tree.nodes if u != tree.root)
        for u, cs in kids.items():
            assert cs == sorted(cs) and all(tree.parent[c] == u for c in cs)
        assert tree.depth() == 2


class TestConnectedness:
    def test_disconnected_ear_order_rejected(self):
        cq = normalize(parse_query(CHAIN_SQL))
        oma = classify_0ma(cq)
        build_join_tree([(0, 1), (1, 2), (2, None)], cq, oma)
        # R and S share R.b, but the path between them runs through T
        with pytest.raises(SmashError, match="R.b not connected"):
            build_join_tree([(0, 2), (1, 2), (2, None)], cq, oma)

    @staticmethod
    def connected_by_search(tree, cq):
        """Independent check: walk each class's atoms along tree edges."""
        adjacent = {u: set() for u in tree.nodes}
        for u, p in tree.parent.items():
            if p is not None:
                adjacent[u].add(p)
                adjacent[p].add(u)
        classes = {c for atom in cq.atoms for c in atom.renaming.values()}
        for cid in classes:
            holders = {i for i, atom in enumerate(cq.atoms)
                       if cid in atom.renaming.values()}
            start = min(holders)
            seen, stack = {start}, [start]
            while stack:
                for v in adjacent[stack.pop()] & holders - seen:
                    seen.add(v)
                    stack.append(v)
            if seen != holders:
                return False
        return True

    def test_matches_search_on_random_trees(self):
        rng = random.Random(3)
        verdicts = set()
        for db, spec in random_specs(5, 60):
            cq = normalize(spec, db)
            for _ in range(5):
                order = list(range(len(cq.atoms)))
                rng.shuffle(order)
                parent = {order[0]: None}
                for i, u in enumerate(order[1:], 1):
                    parent[u] = rng.choice(order[:i])
                tree = JoinTree(nodes=sorted(parent), parent=parent, root=order[0])
                expected = self.connected_by_search(tree, cq)
                verdicts.add(expected)
                if expected:
                    check_connectedness(tree, cq)
                else:
                    with pytest.raises(SmashError, match="not connected in join tree$"):
                        check_connectedness(tree, cq)
        assert verdicts == {True, False}
