"""One int object per value within a database.

The generator slices every key from one shared list of ints, and
`load_database` interns every int column through one dict, so in each
database the number of distinct int objects equals the number of distinct
int values.  Values, types and row order stay those of the rows generated
or saved; floats are not interned, so 0.0 and -0.0 stay apart.
"""

import gc
import math
import operator
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from smash import augmentation
from smash.augmentation import WorkloadSpec, generate_two_regime_workload, generate_workload
from smash.engine import Database, Table, load_database, load_table, save_database

from conftest import from_rows

REPO = Path(__file__).resolve().parent.parent


def int_values(db):
    return [v for rel in db.tables.values() for row in rel.rows for v in row
            if type(v) is int]


def assert_one_object_per_int(db):
    ints = int_values(db)
    assert len({id(v) for v in ints}) == len(set(ints))
    return ints


@pytest.mark.parametrize("name", ["two_regime", "selector_wide"])
def test_benchmark_workloads_share_one_object_per_int(monkeypatch, name):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    from smashbench import WORKLOADS

    db, _ = WORKLOADS[name].generate(42)
    ints = assert_one_object_per_int(db)
    # keys above 256, which CPython does not cache, occur more than once
    assert len([v for v in ints if v > 256]) > len({v for v in ints if v > 256}) > 0


@pytest.mark.parametrize("shape", ["random", "star", "chain"])
def test_tables_that_outgrow_the_pool_still_share(shape):
    start = len(augmentation._KEYS)
    db, _ = generate_workload(WorkloadSpec(
        seed=len(shape), n_base_queries=4, n_relations=(2, 4),
        rows=(start + 1, start + 400), fanout=(1, 3), dangling_fraction=0.3,
        shape=shape, name_prefix=shape,
    ))
    assert len(augmentation._KEYS) > start
    assert max(assert_one_object_per_int(db)) >= start


def test_csv_round_trip_keeps_rows_types_and_sharing(tmp_path):
    db, _ = generate_two_regime_workload(7, 24)
    db.add(from_rows("mixed", ["i", "f", "s"], [
        (256, 1000.0, "1000"), (-5, 0.5, "x"), (256, -0.0, "")]))
    save_database(db, tmp_path)
    back = load_database(tmp_path)
    assert set(back.tables) == set(db.tables)
    for name, rel in db.tables.items():
        assert back.table(name).schema == rel.schema
        assert back.table(name).rows == rel.rows, name
        assert repr(back.table(name).rows) == repr(rel.rows), name
    assert len(set(map(id, assert_one_object_per_int(back)))) == len(
        set(map(id, assert_one_object_per_int(db))))


def test_one_table_shares_its_ints_across_columns(tmp_path):
    path = tmp_path / "R.csv"
    path.write_text("a,b\n1000,1000\n1001,1000\n")
    rel = load_table(path)
    assert rel.rows == [(1000, 1000), (1001, 1000)]
    assert rel.rows[0][0] is rel.rows[0][1] is rel.rows[1][1]


@pytest.mark.parametrize("sidecar", [False, True])
def test_float_zeros_keep_their_signs(tmp_path, sidecar):
    db = Database()
    db.add(from_rows("F", ["f", "i"], [(0.0, 0), (-0.0, 0), (-0.0, 1), (0.0, 1)]))
    save_database(db, tmp_path)
    if sidecar:
        (tmp_path / "F.schema.json").write_text('{"f": "float64", "i": "int64"}')
    rows = load_database(tmp_path).table("F").rows
    assert [math.copysign(1.0, f) for f, _ in rows] == [1.0, -1.0, -1.0, 1.0]
    assert [type(v) for row in rows for v in row] == [float, int] * 4


def test_pool_grown_from_many_threads_holds_each_key_at_its_index(monkeypatch):
    # without the lock, about one trial in ten loses or repeats a stretch
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            monkeypatch.setattr(augmentation, "_KEYS", [])
            threads = [threading.Thread(target=lambda i=i: [
                augmentation._key_pool(4 * n + i) for n in range(1, 3000)])
                for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert augmentation._KEYS == list(range(4 * 2999 + 3))
    finally:
        sys.setswitchinterval(interval)


def test_two_regime_tables_are_stored_by_column():
    gc.collect()
    tracemalloc.start()
    try:
        db, _ = generate_two_regime_workload(42, 240)
        gc.collect()
        held_mb = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert held_mb < 40  # 72.2 MB when each row was a tuple
    keys = augmentation._KEYS
    for name, table in db.tables.items():
        assert type(table) is Table and all(type(c) is list for c in table.columns)
        *key_columns, payloads = table.columns
        assert table.schema[-1] == "v"
        for col in key_columns:
            assert all(map(operator.is_, col, map(keys.__getitem__, col))), name
        # a table's own keys, one column per child edge, are one list
        own = key_columns if name.endswith("_t0") else key_columns[1:]
        assert len(set(map(id, own))) <= 1, name
    roots = [t for name, t in db.tables.items() if name.endswith("_t0")]
    assert sum(len(t.columns) > 2 for t in roots) > 100
