"""Per-table statistics recorded at ingestion, and the estimator reading them.

`Database.add` stores each column's distinct count over the first
`_NDV_SAMPLE_ROWS` rows; `estimate_cardinalities` reads those counts for
atoms without filters and intra-atom equalities and samples the other
atoms' surviving rows.  The estimator as it was before the statistics
existed is kept below as the reference for the sampled atoms, and
`atom_relation` as it was before it shared the estimator's scan (rename,
then filter a row at a time) as the reference for execution.  Both
references filter with `Predicate.matches` alone.
"""

import operator
from collections import defaultdict

import numpy as np
import pytest

from smash.acyclic import analyze
from smash.augmentation import generate_two_regime_workload
from smash.engine import (
    _NDV_SAMPLE_ROWS,
    Database,
    Relation,
    _atom_stats,
    atom_relation,
    estimate_cardinalities,
    load_database,
    save_database,
)
from smash.errors import SmashError
from smash.frontend import normalize, parse_query
from smash.rewriter import rewrite

from conftest import from_rows, random_specs, selector_wide
from test_plan_equivalence import _HAND_SQL, _hand_db


def _filter_rows(rows, preds, index):
    """Rows that satisfy every predicate, a row at a time in table order and
    predicates in query order: the first row that raises raises."""
    return [r for r in rows if all(p.matches(r[index(p.attribute)]) for p in preds)]


def _reference_atom_stats(cq, atom, db, shared):
    """`_atom_stats` before ingestion statistics: always scans the table."""
    base = db.table(atom.table)
    renaming = atom.renaming
    unknown = renaming.keys() - set(base.schema)
    if unknown:
        raise SmashError(f"{atom.table} has no column {min(unknown)}")
    columns = {}  # class id -> base column indexes
    for i, col in enumerate(base.schema):
        columns.setdefault(renaming.get(col) or f"{atom.alias}.{col}", []).append(i)
    rows = base.rows
    if len(columns) < len(base.schema):  # intra-atom equalities
        dup = [ix for ix in columns.values() if len(ix) > 1]
        rows = [r for r in rows if all(len({r[i] for i in ix}) == 1 for ix in dup)]
    preds = cq.filters.get(atom.alias)
    if preds:
        rows = _filter_rows(rows, preds, lambda cid: columns[cid][0])
    sample = rows if len(rows) <= _NDV_SAMPLE_ROWS else rows[:_NDV_SAMPLE_ROWS]
    ndv = {}
    for cid in renaming.values():
        if cid in shared and cid not in ndv:
            ndv[cid] = len(set(map(operator.itemgetter(columns[cid][0]), sample)))
    return len(rows), ndv


def _reference_atom_relation(cq, atom, db):
    """`atom_relation` before the shared scan: rename and apply the
    intra-atom equalities, then filter the renamed relation."""
    base = db.table(atom.table)
    renaming = dict(atom.renaming)
    for col in base.schema:
        renaming.setdefault(col, f"{atom.alias}.{col}")
    seen = {}
    keep = []  # (source index, class id)
    eq_groups = defaultdict(list)
    for i, col in enumerate(base.schema):
        cid = renaming[col]
        eq_groups[cid].append(i)
        if cid not in seen:
            seen[cid] = i
            keep.append((i, cid))
    rows = base.rows
    dup_groups = [idxs for idxs in eq_groups.values() if len(idxs) > 1]
    if dup_groups:
        rows = [
            r for r in rows
            if all(len({r[i] for i in idxs}) == 1 for idxs in dup_groups)
        ]
    rel = Relation(atom.alias, [cid for _, cid in keep],
                   [tuple(r[i] for i, _ in keep) for r in rows])
    preds = cq.filters.get(atom.alias, [])
    if preds:
        rel = Relation(rel.name, rel.schema,
                       _filter_rows(rel.rows, preds, rel._index))
    return rel


class CountingRows(list):
    """A stored column that counts every iteration and indexing of it."""

    reads = 0

    def __iter__(self):
        CountingRows.reads += 1
        return super().__iter__()

    def __getitem__(self, key):
        CountingRows.reads += 1
        return super().__getitem__(key)


def _benchmark_databases():
    yield "two_regime", generate_two_regime_workload(42, 240)[0]
    yield "selector_wide", selector_wide(42, 240)[0]
    yield "hand", _hand_db()


def _assert_stats_match_rows(db):
    assert db.stats.keys() == db.tables.keys()
    for name, rel in db.tables.items():
        stats = db.stats[name]
        assert list(stats.ndv) == rel.schema
        prefix = rel.rows[:512]
        assert stats.ndv == {
            col: len(set(row[i] for row in prefix))
            for i, col in enumerate(rel.schema)
        }, name


@pytest.mark.parametrize("name, db", list(_benchmark_databases()))
def test_stored_counts_equal_prefix_distinct_counts(name, db):
    _assert_stats_match_rows(db)


def test_stored_counts_survive_save_and_load(tmp_path):
    hand = _hand_db()
    # P.score mixes ints, a float and a str, which a CSV would give back as strs
    with pytest.raises(SmashError, match="^P: column 'score' holds float and int and str"):
        save_database(hand, tmp_path)
    db = Database()
    db.add(from_rows("P", ["id", "name"], [row[:2] for row in hand.table("P").rows]))
    db.add(hand.table("Q"))
    db.add(from_rows("Big", ["k", "v"], [(i % 700, i // 3) for i in range(2000)]))
    db.add(from_rows("Empty", ["x", "y"], []))
    save_database(db, tmp_path)
    back = load_database(tmp_path)
    _assert_stats_match_rows(back)
    assert back.stats["Big"].ndv == {"k": 512, "v": 171}
    assert back.stats["Empty"].ndv == {"x": 0, "y": 0}


def test_tables_enter_only_through_add():
    with pytest.raises(TypeError):
        Database(tables={})


def _counted(db):
    for table in db.tables.values():
        table.columns = list(map(CountingRows, table.columns))
    CountingRows.reads = 0
    return db


def test_unfiltered_atoms_read_no_row():
    db, queries = generate_two_regime_workload(7, 24)
    cqs = [normalize(spec, db) for _, spec in queries]
    assert not any(cq.filters for cq in cqs)
    expected = [estimate_cardinalities(cq, db) for cq in cqs]
    _counted(db)
    assert [estimate_cardinalities(cq, db) for cq in cqs] == expected
    assert CountingRows.reads == 0


def test_filtered_atoms_still_read_their_rows():
    db = _counted(_hand_db())
    cq = normalize(parse_query(_HAND_SQL[1]), db)
    estimate_cardinalities(cq, db)
    assert CountingRows.reads > 0  # the counting list does see reads


def test_rewrite_reads_no_row_and_rendering_decides_the_cast():
    db = _hand_db()
    cq = normalize(parse_query(_HAND_SQL[1]), db)  # P.score holds 'n/a'
    tree, _ = analyze(cq)
    _counted(db)
    seq = rewrite(tree, cq, db)
    assert CountingRows.reads == 0
    assert "CAST(score AS REAL) > 1" in seq.to_sql()
    assert CountingRows.reads > 0  # rendering reads the column's values


# intra-atom equalities over values that compare equal across types
_EQUALITY_DB = [
    from_rows("E", ["a", "b", "c"], [
        (1, 1.0, "x"), (1, True, "y"), (2, 2, 3), (0, False, "z"), (5, 6, 7),
    ]),
    from_rows("F", ["a", "d"], [(1, 1), (2, 2), (0, 9)]),
]
_EQUALITY_SQL = [
    "SELECT MIN(E.c) FROM E, F WHERE E.a = E.b AND E.a = F.a",
    "SELECT MIN(F.d) FROM E, F WHERE E.b = E.a AND E.b = F.a AND E.a < 2",
    "SELECT COUNT(*) FROM E, F WHERE E.a = E.b AND E.b = F.a AND F.d = F.a",
    "SELECT MIN(F.d) FROM E, F WHERE E.a = F.a AND E.c > 1",  # raises
]


# bool and numpy.float64 columns, which `_select` filters a row at a time
_TYPED_DB = [
    from_rows("G", ["b", "x", "m", "k"], [
        (True, np.float64(1.5), 1, 1), (False, np.float64("nan"), True, 2),
        (True, np.float64(-0.0), 2.5, 3), (False, np.float64(3.0), 0, 4),
    ]),
]
_TYPED_SQL = [
    "SELECT MIN(G.k) FROM G WHERE G.x > 0",
    "SELECT MIN(G.k) FROM G WHERE G.x <= 1.5 AND G.k > 1",
    "SELECT MIN(G.k) FROM G WHERE G.x = 0 AND G.x != 3.0",
    "SELECT MIN(G.k) FROM G WHERE G.b != 'x' AND G.k < 4",
    "SELECT MIN(G.k) FROM G WHERE G.k = 1 AND G.m >= 1",
    "SELECT MIN(G.k) FROM G WHERE G.k > 2 AND G.m < 1",
    "SELECT MIN(G.k) FROM G WHERE G.b = 1",  # raises
    "SELECT MIN(G.k) FROM G WHERE G.b < 'x'",  # raises
    "SELECT MIN(G.k) FROM G WHERE G.k > 1 AND G.x = 'a'",  # raises
    "SELECT MIN(G.k) FROM G WHERE G.m > 0",  # raises
]


def _reference_corpus():
    hand = _hand_db()
    for sql in _HAND_SQL:
        yield hand, parse_query(sql)
    for tables, queries in ((_EQUALITY_DB, _EQUALITY_SQL), (_TYPED_DB, _TYPED_SQL)):
        db = Database()
        for rel in tables:
            db.add(rel)
        for sql in queries:
            yield db, parse_query(sql)
    yield from random_specs(2024, 200)
    db, queries = selector_wide(42, 120)
    for _, spec in queries:
        yield db, spec


def _atoms_of_corpus():
    """(cq, atom, db, shared) for every atom of the corpus, normalized with
    and without the database."""
    for db, spec in _reference_corpus():
        for cq in (normalize(spec, db), normalize(spec)):
            shared = {cid for cid, n in cq.occurrences.items() if n > 1}
            for atom in cq.atoms:
                yield cq, atom, db, shared


def _outcome(fn, *args):
    try:
        n, ndv = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return n, list(ndv.items())  # in order: the estimator multiplies in it


def test_atom_stats_match_the_scanning_reference():
    sampled = 0
    for args in _atoms_of_corpus():
        cq, atom, db, _ = args
        i = next(i for i, a in enumerate(cq.atoms) if a is atom)
        assert _outcome(_atom_stats, cq, i, db) == \
            _outcome(_reference_atom_stats, *args), atom
        classes = atom.renaming.values()
        sampled += bool(cq.filters.get(atom.alias)
                        or len(set(classes)) < len(classes))
    assert sampled > 100


def _relation_outcome(fn, cq, atom, db):
    try:
        rel = fn(cq, atom, db)
    except Exception as exc:
        return type(exc), str(exc)
    # in order, and by repr, because 1, 1.0 and True compare equal
    return rel.name, rel.schema, [repr(r) for r in rel.rows]


def test_atom_relation_matches_the_rename_then_filter_reference():
    filtered = errors = 0
    for cq, atom, db, _ in _atoms_of_corpus():
        got = _relation_outcome(atom_relation, cq, atom, db)
        assert got == _relation_outcome(_reference_atom_relation, cq, atom, db), atom
        error = len(got) == 2
        filtered += bool(cq.filters.get(atom.alias)) and not error
        errors += error
    assert filtered > 100 and errors > 0
