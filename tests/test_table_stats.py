"""Per-table statistics recorded at ingestion, and the estimator reading them.

`Database.add` stores each column's distinct count over the first
`_NDV_SAMPLE_ROWS` rows; `estimate_cardinalities` reads those counts for
atoms without filters and intra-atom equalities and samples the other
atoms' surviving rows.  The estimator as it was before the statistics
existed is kept below as the reference for the sampled atoms.
"""

import operator

import pytest

from smash.augmentation import generate_two_regime_workload
from smash.engine import (
    _NDV_SAMPLE_ROWS,
    Database,
    Relation,
    _atom_stats,
    _select,
    estimate_cardinalities,
    load_database,
    save_database,
)
from smash.errors import UnknownAttribute
from smash.frontend import normalize, parse_query

from conftest import random_specs, selector_wide
from test_plan_equivalence import _HAND_SQL, _hand_db


def _reference_atom_stats(cq, atom, db, shared):
    """`_atom_stats` before ingestion statistics: always scans the table."""
    base = db.table(atom.table)
    renaming = atom.renaming
    unknown = renaming.keys() - set(base.schema)
    if unknown:
        raise UnknownAttribute(f"{atom.table} has no column {min(unknown)}")
    columns = {}  # class id -> base column indexes
    for i, col in enumerate(base.schema):
        columns.setdefault(renaming.get(col) or f"{atom.alias}.{col}", []).append(i)
    rows = base.rows
    if len(columns) < len(base.schema):  # intra-atom equalities
        dup = [ix for ix in columns.values() if len(ix) > 1]
        rows = [r for r in rows if all(len({r[i] for i in ix}) == 1 for ix in dup)]
    preds = cq.filters.get(atom.alias)
    if preds:
        for p in preds:
            if p.attribute not in columns:
                raise UnknownAttribute(f"{p.attribute} not in {atom.alias}")
        error = None
        for p in preds:
            rows, exc = _select(rows, columns[p.attribute][0], p)
            if exc is not None:
                error = exc
        if error is not None:
            raise error
    sample = rows if len(rows) <= _NDV_SAMPLE_ROWS else rows[:_NDV_SAMPLE_ROWS]
    ndv = {}
    for cid in renaming.values():
        if cid in shared and cid not in ndv:
            ndv[cid] = len(set(map(operator.itemgetter(columns[cid][0]), sample)))
    return len(rows), ndv


class CountingRows(list):
    """Rows that count every iteration and indexing of the list."""

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
        assert stats.index == {col: i for i, col in enumerate(rel.schema)}
        prefix = rel.rows[:512]
        assert stats.ndv == {
            col: len(set(row[i] for row in prefix))
            for i, col in enumerate(rel.schema)
        }, name


@pytest.mark.parametrize("name, db", list(_benchmark_databases()))
def test_stored_counts_equal_prefix_distinct_counts(name, db):
    _assert_stats_match_rows(db)


def test_stored_counts_survive_save_and_load(tmp_path):
    db = _hand_db()
    db.add(Relation("Big", ["k", "v"], [(i % 700, i // 3) for i in range(2000)]))
    db.add(Relation("Empty", ["x", "y"], []))
    save_database(db, tmp_path)
    back = load_database(tmp_path)
    _assert_stats_match_rows(back)
    assert back.stats["Big"].ndv == {"k": 512, "v": 171}
    assert back.stats["Empty"].ndv == {"x": 0, "y": 0}


def test_tables_enter_only_through_add():
    with pytest.raises(TypeError):
        Database(tables={})


def _counted(db):
    for rel in db.tables.values():
        rel.rows = CountingRows(rel.rows)
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


# intra-atom equalities over values that compare equal across types
_EQUALITY_DB = [
    Relation("E", ["a", "b", "c"], [
        (1, 1.0, "x"), (1, True, "y"), (2, 2, 3), (0, False, "z"), (5, 6, 7),
    ]),
    Relation("F", ["a", "d"], [(1, 1), (2, 2), (0, 9)]),
]
_EQUALITY_SQL = [
    "SELECT MIN(E.c) FROM E, F WHERE E.a = E.b AND E.a = F.a",
    "SELECT MIN(F.d) FROM E, F WHERE E.b = E.a AND E.b = F.a AND E.a < 2",
    "SELECT COUNT(*) FROM E, F WHERE E.a = E.b AND E.b = F.a AND F.d = F.a",
    "SELECT MIN(F.d) FROM E, F WHERE E.a = F.a AND E.c > 1",  # raises
]


def _reference_corpus():
    hand = _hand_db()
    for sql in _HAND_SQL:
        yield hand, parse_query(sql)
    equality = Database()
    for rel in _EQUALITY_DB:
        equality.add(rel)
    for sql in _EQUALITY_SQL:
        yield equality, parse_query(sql)
    yield from random_specs(2024, 200)
    db, queries = selector_wide(42, 120)
    for _, spec in queries:
        yield db, spec


def _outcome(fn, *args):
    try:
        n, ndv = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return n, list(ndv.items())  # in order: the estimator multiplies in it


def test_atom_stats_match_the_scanning_reference():
    sampled = 0
    for db, spec in _reference_corpus():
        for cq in (normalize(spec, db), normalize(spec)):
            shared = {cid for cid, n in cq.occurrences.items() if n > 1}
            for atom in cq.atoms:
                args = (cq, atom, db, shared)
                assert _outcome(_atom_stats, *args) == \
                    _outcome(_reference_atom_stats, *args), (spec, atom)
                classes = atom.renaming.values()
                sampled += bool(cq.filters.get(atom.alias)
                                or len(set(classes)) < len(classes))
    assert sampled > 100
