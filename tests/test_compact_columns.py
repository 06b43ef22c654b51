"""Int columns stored compactly.

The generator stores a table's own keys as the `range` of its row
positions, and its parent keys and payloads as arrays of the narrowest
unsigned typecode for the bound each is drawn under (the parent's row
count, the payload range).  `load_database` stores each int column as an
array of the narrowest typecode for its least and greatest value, signed
when it holds a negative, and keeps a list for a value beyond 64 bits.
Values, types and row order stay those of the rows generated or saved;
float and str columns stay lists, so 0.0 and -0.0 stay apart.
"""

import gc
import json
import math
import tracemalloc
from array import array
from pathlib import Path

import pytest

from smash.augmentation import WorkloadSpec, generate_two_regime_workload, generate_workload
from smash.engine import Database, Table, int_typecode, load_database, load_table, save_database
from smash.errors import SmashError

from conftest import from_rows

REPO = Path(__file__).resolve().parent.parent


def assert_generated_columns_compact(db, payload_range):
    """Every column of a generated `db` in the form its bound gives it."""
    own_keys = {}  # (query id, key attribute) -> rows of the table keyed by it
    for name, table in db.tables.items():
        for attr, col in zip(table.schema, table.columns):
            if type(col) is range:
                own_keys[name.rsplit("_t", 1)[0], attr] = len(col)
    for name, table in db.tables.items():
        *keys, payloads = table.columns
        assert table.schema[-1] == "v"
        assert type(payloads) is array, name
        assert payloads.typecode == int_typecode(0, payload_range - 1), name
        n = len(payloads)
        own = keys if name.endswith("_t0") else keys[1:]
        # a table's own keys, one column per child edge, are one range
        assert all(col is own[0] and col == range(n) for col in own), name
        if not name.endswith("_t0"):
            parent_rows = own_keys[name.rsplit("_t", 1)[0], table.schema[0]]
            assert type(keys[0]) is array, name
            assert keys[0].typecode == int_typecode(0, parent_rows - 1), name


@pytest.mark.parametrize("name", ["two_regime", "selector_wide"])
def test_benchmark_workloads_store_compact_int_columns(monkeypatch, name):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    from smashbench import WORKLOADS

    db, _ = WORKLOADS[name].generate(42)
    assert_generated_columns_compact(db, 100)


@pytest.mark.parametrize("shape", ["random", "star", "chain"])
def test_generated_int_columns_are_compact(shape):
    spec = WorkloadSpec(
        seed=len(shape), n_base_queries=6, n_relations=(2, 4), rows=(200, 400),
        fanout=(1, 3), dangling_fraction=0.3, shape=shape, payload_range=10000,
        name_prefix=shape,
    )
    db, _ = generate_workload(spec)
    assert_generated_columns_compact(db, 10000)
    assert {t.columns[-1].typecode for t in db.tables.values()} == {"H"}


def test_payloads_beyond_64_bits_stay_a_list():
    db, _ = generate_workload(WorkloadSpec(
        seed=3, n_base_queries=2, filter_prob=0.0, payload_range=2**70))
    payloads = [t.column("v") for t in db.tables.values()]
    assert all(type(col) is list for col in payloads)
    assert max(map(max, payloads)) >= 2**64


def test_csv_round_trip_keeps_rows_and_types_in_compact_columns(tmp_path):
    db, _ = generate_two_regime_workload(7, 24)
    db.add(from_rows("mixed", ["i", "f", "s", "big"], [
        (256, 1000.0, "1000", 2**64), (-5, 0.5, "x", 0), (256, -0.0, "", 1)]))
    # a CSV holds no bool: no database holds a bool column to save
    with pytest.raises(SmashError, match="^flags: column 'b' holds bool values"):
        Database().add(from_rows("flags", ["b"], [(True,), (False,)]))
    save_database(db, tmp_path)
    back = load_database(tmp_path)
    assert set(back.tables) == set(db.tables)
    for name, rel in db.tables.items():
        assert back.table(name).schema == rel.schema
        assert back.table(name).rows == rel.rows, name
        assert repr(back.table(name).rows) == repr(rel.rows), name
        for col in back.table(name).columns:
            if all(type(v) is int for v in col):
                assert type(col) is array or max(col) >= 2**64, name
                if type(col) is array:
                    assert col.typecode == int_typecode(min(col), max(col)), name
    mixed = back.table("mixed")
    assert [type(col) for col in mixed.columns] == [array, list, list, list]
    assert mixed.column("i").typecode == "h"


def test_load_table_picks_the_narrowest_typecode(tmp_path):
    cases = [([0, 255], "B"), ([0, 256], "H"), ([-1, 127], "b"), ([-129, 0], "h"),
             ([0, 65536], "I"), ([-1, 2**31 - 1], "i"), ([0, 2**32], "Q"),
             ([0, 2**64 - 1], "Q"), ([-2**63, 0], "q"), ([], "B"),
             ([0, 2**64], None), ([-2**63 - 1, 0], None), ([-1, 2**63], None)]
    path = tmp_path / "R.csv"
    for values, code in cases:
        path.write_text("".join(f"{v}\n" for v in ["a", *values]))
        for sidecar in (None, tmp_path / "R.schema.json"):
            if sidecar is not None:
                sidecar.write_text(json.dumps({"a": "int64"}))
            col = load_table(path, sidecar).column("a")
            assert list(col) == values and all(type(v) is int for v in col)
            if code is None:
                assert type(col) is list
            else:
                assert type(col) is array and col.typecode == code, values


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


def test_two_regime_tables_are_stored_by_column():
    gc.collect()
    tracemalloc.start()
    try:
        db, _ = generate_two_regime_workload(42, 240)
        gc.collect()
        held_mb = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    # 3.9 MB measured; 21.0 MB with one list slot per value, 72.2 MB with
    # one tuple per row
    assert held_mb < 4.5
    for name, table in db.tables.items():
        assert type(table) is Table, name
        assert all(type(col) in (range, array) for col in table.columns), name
    assert_generated_columns_compact(db, 100)
    roots = [t for name, t in db.tables.items() if name.endswith("_t0")]
    assert sum(len(t.columns) > 2 for t in roots) > 100
