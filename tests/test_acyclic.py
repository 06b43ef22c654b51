"""GYO reduction, 0MA classification, and join-tree tests."""

from pathlib import Path

import pytest

from smash.acyclic import _gyo, analyze
from smash.errors import SmashError
from smash.frontend import normalize, parse_query

from conftest import CHAIN_SQL, random_specs
from test_gyo_differential import generated_hypergraph_cqs

BENCH = Path(__file__).resolve().parent.parent / "bench"

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
        assert tree.depth == 2
        assert tree.parent == {0: None, 1: 0, 2: 1}

    def test_determinism(self):
        trees = [analyzed(CHAIN_SQL)[1] for _ in range(3)]
        assert all(t.parent == trees[0].parent for t in trees)

    def test_generated_queries_acyclic_and_connected(self):
        for db, spec in random_specs(11, 40):
            cq = normalize(spec, db)
            tree, _ = analyze(cq)
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
        kids = tree.children
        assert sorted(kids) == tree.nodes
        assert sorted(c for cs in kids.values() for c in cs) == sorted(
            u for u in tree.nodes if u != tree.root)
        for u, cs in kids.items():
            assert cs == sorted(cs) and all(tree.parent[c] == u for c in cs)
        assert tree.depth == 2


class TestConnectedness:
    """Every class's atoms are connected in the trees `analyze` returns,
    by an independent search along the tree edges."""

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

    def assert_connected(self, cqs):
        """Analyze each query; returns how many were acyclic."""
        acyclic = 0
        for cq in cqs:
            try:
                tree, _ = analyze(cq)
            except SmashError as exc:
                assert str(exc) == "query is cyclic; no join tree exists"
                continue
            assert self.connected_by_search(tree, cq)
            acyclic += 1
        return acyclic

    def test_matches_search_on_random_trees(self):
        specs = random_specs(5, 60)
        assert self.assert_connected(normalize(spec, db) for db, spec in specs) == 60

    def test_matches_search_on_generated_hypergraphs(self):
        assert 0 < self.assert_connected(generated_hypergraph_cqs()) < 400

    def test_matches_search_on_the_benchmark_workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        from smashbench import WORKLOADS

        acyclic = 0
        for workload in WORKLOADS.values():
            db, queries = workload.generate(42)
            acyclic += self.assert_connected(normalize(spec, db) for _, spec in queries)
        assert acyclic == 480
