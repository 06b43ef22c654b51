"""CLI subcommand tests (driven through main())."""

import json
from collections import Counter

import pytest

from smash import harness
from smash.acyclic import analyze
from smash.augmentation import generate_two_regime_workload
from smash.cli import main
from smash.engine import estimate_cardinalities, load_database, save_database
from smash.features import extract_features, feature_names
from smash.frontend import normalize, parse_query, to_sql
from smash.harness import plan_query
from smash.ml import decide, label, load_dataset, load_model, save_dataset
from smash.rewriter import interpret_sequence, rewrite

from conftest import CHAIN_SQL
from test_sql_differential import _connect


@pytest.fixture
def data_dir(tmp_path, chain_db):
    d = tmp_path / "data"
    save_database(chain_db, d)
    return str(d)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def chain_features(db):
    """CHAIN_SQL's feature vector, wired stage by stage."""
    cq = normalize(parse_query(CHAIN_SQL), db)
    tree, _ = analyze(cq)
    return extract_features(cq, tree, estimate_cardinalities(cq, db))


class TestSingleQueryCommands:
    def test_parse(self, capsys):
        code, out = run(capsys, ["parse", CHAIN_SQL])
        assert code == 0
        assert json.loads(out)["kind"] == "aggregate"

    def test_parse_error_exit_code(self, capsys):
        assert main(["parse", "SELECT * FROM R"]) == 1

    def test_long_inline_sql_parses(self, capsys):
        tables = [f"table_number_{i}" for i in range(40)]
        sql = f"SELECT MIN({tables[0]}.a) FROM {', '.join(tables)}"
        assert len(sql.encode()) >= 300  # longer than a file name may be
        code, out = run(capsys, ["parse", sql])
        assert code == 0
        assert json.loads(out)["tables"] == [[t, t] for t in tables]

    def test_jointree(self, capsys):
        code, out = run(capsys, ["jointree", CHAIN_SQL])
        assert code == 0 and '"root": 0' in out

    def test_rewrite_with_and_without_drops(self, capsys):
        code, out = run(capsys, ["rewrite", CHAIN_SQL])
        assert code == 0 and "DROP" in out
        _, out = run(capsys, ["rewrite", CHAIN_SQL, "--no-with-drops"])
        assert "DROP" not in out

    @pytest.mark.parametrize("sql", [
        CHAIN_SQL,
        "SELECT R.a, T.d FROM R, S, T WHERE R.b = S.b AND S.c = T.c",
        "SELECT S.c, COUNT(*) FROM R, S WHERE R.b = S.b AND S.c >= 10 GROUP BY S.c",
        "SELECT R.a, S.c FROM R, S WHERE R.a < 5",
    ])
    def test_printed_rewrite_runs_on_sqlite(self, capsys, data_dir, sql):
        code, out = run(capsys, ["--data-dir", data_dir, "rewrite", sql])
        assert code == 0
        db = load_database(data_dir)
        conn = _connect(db)
        selected = []
        try:
            for text in out.strip().removesuffix(";").split(";\n"):
                rows = conn.execute(text).fetchall()
                if text.startswith("SELECT"):
                    selected.append(rows)
        finally:
            conn.close()
        cq = normalize(parse_query(sql), db)
        tree, _ = analyze(cq)
        expected = interpret_sequence(rewrite(tree, cq, db), cq, db).rows
        assert len(selected) == 1
        assert Counter(selected[0]) == Counter(expected)

    def test_features(self, capsys, data_dir, chain_db):
        code, out = run(capsys, ["--data-dir", data_dir, "features", CHAIN_SQL])
        assert code == 0
        fv = chain_features(chain_db)
        *json_lines, names, values = out.splitlines()
        assert json.loads("\n".join(json_lines)) == fv._asdict()
        assert names == ",".join(feature_names())
        assert values == ",".join(repr(v) for v in fv)
        assert "est_total_cost" in names

    def test_features_env_var(self, capsys, data_dir, monkeypatch):
        monkeypatch.setenv("SMASH_DATA_DIR", data_dir)
        code, _ = run(capsys, ["features", CHAIN_SQL])
        assert code == 0


class TestWorkloadCommands:
    def test_generate_then_run_then_significance(self, capsys, tmp_path):
        out_dir = tmp_path / "wl"
        code, _ = run(capsys, [
            "generate", "--out", str(out_dir), "--queries", "3",
        ])
        assert code == 0
        assert len(list((out_dir / "queries").glob("*.sql"))) == 3

        runlog = tmp_path / "runlog.json"
        code, _ = run(capsys, [
            "--data-dir", str(out_dir / "data"), "--repeats", "2",
            "run", "--queries", str(out_dir / "queries"),
            "--out", str(runlog),
        ])
        assert code == 0 and runlog.exists()

        code, out = run(capsys, [
            "significance", "--runlog", str(runlog), "Base", "Rewriting",
        ])
        assert code == 0 and "median test p" in out

    def test_generate_two_regime_writes_its_workload(self, capsys, tmp_path):
        # --dangling and --shape are the generic generator's; two-regime
        # fixes both
        code, out = run(capsys, [
            "--seed", "7", "generate", "--two-regime", "--queries", "6",
            "--dangling", "0.5", "--shape", "chain", "--out", str(tmp_path),
        ])
        db, queries = generate_two_regime_workload(7, 6)
        assert code == 0 and out == (
            f"wrote {len(db.tables)} tables and 6 queries to {tmp_path}\n")
        written = load_database(tmp_path / "data")
        assert {name: (rel.schema, rel.rows) for name, rel in written.tables.items()} == {
            name: (rel.schema, rel.rows) for name, rel in db.tables.items()}
        assert {p.stem: p.read_text() for p in (tmp_path / "queries").glob("*.sql")} == {
            qid: to_sql(q) + "\n" for qid, q in queries}

    def test_generate_then_run_dataset_then_train(self, capsys, tmp_path):
        out_dir = tmp_path / "wl"
        code, _ = run(capsys, ["generate", "--out", str(out_dir), "--queries", "24"])
        assert code == 0
        dataset = tmp_path / "dataset.csv"
        code, out = run(capsys, [
            "--data-dir", str(out_dir / "data"), "--repeats", "1",
            "run", "--queries", str(out_dir / "queries"),
            "--out", str(tmp_path / "runlog.json"), "--dataset", str(dataset),
        ])
        assert code == 0 and "dataset of 24 queries" in out
        examples = load_dataset(dataset)
        assert sorted(e.query_id for e in examples) == sorted(
            p.stem for p in (out_dir / "queries").glob("*.sql"))
        assert all(len(e.features) == len(feature_names()) for e in examples)

        model = tmp_path / "model.json"
        code, out = run(capsys, [
            "train", "--dataset", str(dataset), "--task", "regress",
            "--out", str(model),
        ])
        assert code == 0 and model.exists()
        assert json.loads(out)["train_size"] == 20

    def test_augment(self, capsys, tmp_path, data_dir):
        sql_file = tmp_path / "q.sql"
        sql_file.write_text(
            "SELECT MIN(R.a) FROM R, S WHERE R.b = S.b AND R.a >= 1\n"
        )
        out_dir = tmp_path / "aug"
        code, _ = run(capsys, [
            "--data-dir", data_dir, "augment", str(sql_file),
            "--out", str(out_dir),
        ])
        assert code == 0
        names = sorted(p.name for p in out_dir.glob("*.sql"))
        assert any("-augF" in n for n in names)
        assert any("-augA" in n for n in names)
        assert any("-augE" in n for n in names)


class TestRejectedInput:
    """Each rejection exits 1 with one `error:` line on stderr, and no
    traceback."""

    @staticmethod
    def error(capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err.rstrip("\n")

    def test_empty_csv_in_the_data_dir(self, capsys, tmp_path):
        (tmp_path / "t.csv").write_text("")
        err = self.error(capsys, ["--data-dir", str(tmp_path), "features",
                                  "SELECT MIN(t.a) FROM t"])
        assert err == f"error: {tmp_path / 't.csv'}: empty file, no header"

    def test_dangling_fraction_out_of_range(self, capsys, tmp_path):
        err = self.error(capsys, ["generate", "--dangling", "2",
                                  "--out", str(tmp_path)])
        assert err == "error: dangling fraction must be within [0, 1]"

    @pytest.mark.parametrize("argv", [
        ["train", "--dataset", "{missing}", "--out", "{tmp}/m.json"],
        ["--data-dir", "{data}", "decide", CHAIN_SQL, "--model", "{missing}"],
        ["significance", "--runlog", "{missing}", "Base", "Rewriting"],
    ], ids=["dataset", "model", "runlog"])
    def test_missing_file(self, capsys, tmp_path, data_dir, argv):
        missing = tmp_path / "nope.csv"
        argv = [a.format(missing=missing, tmp=tmp_path, data=data_dir) for a in argv]
        err = self.error(capsys, argv)
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'"

    def test_missing_data_dir(self, capsys, tmp_path):
        missing = tmp_path / "nowhere"
        err = self.error(capsys, ["--data-dir", str(missing), "features",
                                  "SELECT MIN(t.a) FROM t"])
        assert err == f"error: {missing}: not a directory"

    def test_directory_argument_is_read_as_sql(self, capsys, tmp_path):
        (tmp_path / "q").mkdir()
        err = self.error(capsys, ["parse", str(tmp_path / "q")])
        assert err == "error: unexpected character '/' (line 1, column 1)"

    @pytest.mark.parametrize("filters", [
        "t.name > 1 AND t.name != 'a'", "t.name > 1",
    ], ids=["two-filters", "one-filter"])
    def test_augment_a_filter_the_engine_cannot_compare(self, capsys, tmp_path, filters):
        data = tmp_path / "data"
        data.mkdir()
        (data / "t.csv").write_text("id,name\nx,a\ny,b\nz,c\nw,d\n")
        sql_file = tmp_path / "q.sql"
        sql_file.write_text(f"SELECT MIN(t.id) FROM t WHERE {filters}\n")
        out = tmp_path / "aug"
        err = self.error(capsys, ["--data-dir", str(data), "augment", str(sql_file),
                                  "--out", str(out)])
        assert err == "error: cannot compare 'a' with literal 1"
        assert not list(out.glob("*.sql"))

    @pytest.mark.parametrize("setting, message", [
        (["--repeats", "0"], "repeats must be at least 1, not 0"),
        (["--repeats", "-2"], "repeats must be at least 1, not -2"),
        (["--timeout", "0"], "timeout must be positive, not 0"),
        (["--timeout", "-1.5"], "timeout must be positive, not -1.5"),
        (["--timeout", "nan"], "timeout must be positive, not nan"),
    ], ids=["no-repeats", "negative-repeats", "no-timeout", "negative-timeout",
            "nan-timeout"])
    @pytest.mark.parametrize("command", ["run", "e2e"])
    def test_timed_run_settings_out_of_range(self, capsys, tmp_path, data_dir,
                                             setting, message, command):
        queries = tmp_path / "queries"
        queries.mkdir()
        (queries / "q.sql").write_text(CHAIN_SQL + "\n")
        args = {"run": ["run", "--queries", str(queries), "--out", str(tmp_path / "log.json")],
                "e2e": ["e2e", "--queries", "4"]}[command]
        err = self.error(capsys, [*setting, "--data-dir", data_dir, *args])
        assert err == "error: " + message
        assert not (tmp_path / "log.json").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("text, message", [
        ("", "{path}: empty file, no header"),
        ("a,b\n1,2\n", "{path}, line 1: 2 fields, but a dataset has a query id, "
                       "the features and two timings"),
        ("query_id,f0,t_original,t_rewritten\nq1,1,2,3\nq2,1,2\n",
         "{path}, line 3: 3 fields, but the header has 4"),
        ("query_id,f0,t_original,t_rewritten\nq1,x,2,3\n",
         "{path}, line 2: column 'f0' value 'x' is not a finite number"),
        ("query_id,f0,t_original,t_rewritten\nq1,1,2,3\nq2,1,nan,3\n",
         "{path}, line 3: column 't_original' value 'nan' is not a finite number"),
    ], ids=["empty", "narrow", "ragged", "non-numeric", "non-finite"])
    def test_malformed_dataset(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        model = "--out" if command == "train" else "--model"
        err = self.error(capsys, [command, "--dataset", str(path),
                                  model, str(tmp_path / "m.json")])
        assert err == "error: " + message.format(path=path)

    @pytest.mark.parametrize("text, message", [
        ("not json", "{path}: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "{path}: not a JSON object of model fields"),
        ('{"kind": "forest"}', "{path}: unknown model kind 'forest'"),
        ('{"kind": "cart"}',
         "{path}: CartModel lacks task, tree, importances, feature_names, n_features"),
        ('{"kind": "knn", "task": "classify", "k": 1, "mean": [], "scale": [], '
         '"points": [], "targets": [], "n_features": 0, "depth": 3}',
         "{path}: KnnModel has no field depth"),
    ], ids=["invalid", "list", "kind", "missing", "unknown"])
    def test_malformed_model(self, capsys, tmp_path, data_dir, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        err = self.error(capsys, ["--data-dir", data_dir, "decide", CHAIN_SQL,
                                  "--model", str(path)])
        assert err == "error: " + message.format(path=path)

    @pytest.mark.parametrize("strategies, message", [
        (["base", "Rewriting"], "no strategy 'base'; the run log holds Base, Rewriting"),
        (["Base", "rewriting"], "no strategy 'rewriting'; the run log holds Base, Rewriting"),
    ], ids=["first", "second"])
    def test_significance_of_a_strategy_the_runlog_lacks(self, capsys, tmp_path,
                                                         strategies, message):
        entries = [{"query_id": f"q{i}", "strategy": s, "mean_s": 0.1 * i}
                   for i in range(3) for s in ("Base", "Rewriting")]
        path = tmp_path / "log.json"
        path.write_text(json.dumps({"config": {}, "entries": entries}))
        err = self.error(capsys, ["significance", "--runlog", str(path), *strategies])
        assert err == f"error: {path}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("not json", "{path}: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("3", "{path}: not a JSON object of run log fields"),
        ('{"entries": []}', "{path}: a run log has the keys config and entries, not entries"),
        ('{"config": {}, "entries": {}}', "{path}: entries is not a JSON list"),
        ('{"config": [], "entries": []}', "{path}: RunConfig is not a JSON object"),
        ('{"config": {"repeat": 2}, "entries": []}', "{path}: RunConfig has no field repeat"),
        ('{"config": {}, "entries": [{"query_id": "q"}]}', "{path}: RunEntry lacks strategy"),
    ], ids=["invalid", "number", "keys", "entries", "config", "unknown", "missing"])
    def test_malformed_runlog(self, capsys, tmp_path, text, message):
        path = tmp_path / "log.json"
        path.write_text(text)
        err = self.error(capsys, ["significance", "--runlog", str(path),
                                  "Base", "Rewriting"])
        assert err == "error: " + message.format(path=path)


class TestModelCommands:
    @pytest.fixture
    def dataset_csv(self, tmp_path):
        examples = []
        for i in range(40):
            fast = i % 2 == 0
            # 31 features so trained models apply to real query vectors
            examples.append(label(
                f"q{i}", [float(fast), float(i)] + [0.0] * 29,
                2.0 if fast else 1.0, 1.0 if fast else 2.0,
            ))
        path = tmp_path / "dataset.csv"
        save_dataset(examples, path)
        return str(path)

    def test_train_evaluate_decide(self, capsys, tmp_path, dataset_csv, data_dir,
                                   chain_db):
        model = tmp_path / "model.json"
        code, out = run(capsys, [
            "train", "--dataset", dataset_csv, "--out", str(model),
        ])
        assert code == 0 and model.exists()
        assert json.loads(out)["train_size"] == 32

        code, out = run(capsys, [
            "evaluate", "--dataset", dataset_csv, "--model", str(model),
        ])
        assert code == 0
        assert json.loads(out)["acc"] == 1.0

        code, out = run(capsys, [
            "--data-dir", data_dir, "decide", CHAIN_SQL,
            "--model", str(model),
        ])
        assert code == 0 and out.strip() in ("Original", "Rewritten")
        assert out.strip() == decide(load_model(model), chain_features(chain_db), 0.0)

    def test_e2e_report(self, capsys, tmp_path, monkeypatch):
        planned = []

        def counting_plan_query(spec, *args, **kwargs):
            planned.append(spec)
            return plan_query(spec, *args, **kwargs)

        monkeypatch.setattr(harness, "plan_query", counting_plan_query)
        report = tmp_path / "report.json"
        code, out = run(capsys, [
            "--repeats", "1", "e2e", "--queries", "24",
            "--out", str(report),
        ])
        assert code == 0
        assert "SMASH" in out and report.exists()
        payload = json.loads(report.read_text())
        # once per query in run_workload, once per test query in smash_e2e
        assert len(planned) == 24 + payload["n_queries"]
        assert len({id(spec) for spec in planned[:24]}) == 24
        assert set(payload["strategies"]) == {
            "Base", "Rewriting", "SMASH", "OracleBest",
        }
