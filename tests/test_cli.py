import csv
import io
import json
import os

import pytest

from conftest import corpus_paths
from stormwatch import index as IX
from stormwatch import loggen
from stormwatch.cli import main
from stormwatch.pipeline import Document
from stormwatch.timeutil import parse_date_ms


@pytest.fixture(scope="module")
def cli_store(small_corpus, tmp_path_factory):
    store_dir = str(tmp_path_factory.mktemp("cli_store"))
    code = main(
        ["ingest", "--paths", *corpus_paths(small_corpus["dir"]),
         "--store", store_dir, "--base-date", "2024-03-01"]
    )
    assert code == 0
    return store_dir


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoggenCommand:
    def test_generates_five_files(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        code, stdout, _ = run(capsys, "loggen", "--out", out, "--duration", "120", "--seed", "1")
        assert code == 0
        assert "5 files" in stdout
        assert sorted(os.listdir(out)) == [
            "heartbeat.log", "monitoring.log", "storm-backend-metrics.log",
            "storm-backend.log", "storm-frontend-server.log", "truth.json",
        ]

    def test_bad_anomaly_spec_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "loggen", "--out", str(tmp_path), "--anomaly", "weird"
        )
        assert code == 1
        assert "error" in stderr

    def test_bad_duration_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "loggen", "--out", str(tmp_path), "--duration", "90")
        assert code == 1


class TestIngestCommand:
    def test_summary_counts_match_truth(self, small_corpus, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        code, stdout, _ = run(
            capsys, "ingest", "--paths", *corpus_paths(small_corpus["dir"]),
            "--store", store_dir, "--base-date", "2024-03-01", "--format", "json-lines",
        )
        assert code == 0
        summary = json.loads(stdout)
        truth = small_corpus["truth"]
        assert summary["shipped"] == sum(truth["line_counts"].values())
        assert summary["dead_letters"] == 0
        assert summary["dropped"] == truth["debug_line_count"]
        assert summary["indexed"] + summary["dropped"] == summary["shipped"]
        assert len(summary["indices_created"]) == 5

    def test_nonexistent_path_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "ingest", "--paths", str(tmp_path / "missing.log"),
            "--store", str(tmp_path / "s"),
        )
        assert code == 1
        assert "no such file" in stderr

    def test_corrupted_corpus_exceeds_threshold(self, small_corpus, tmp_path, capsys):
        victim = tmp_path / "storm-backend.log"
        src = os.path.join(small_corpus["dir"], "storm-backend.log")
        lines = open(src, encoding="utf-8").read().splitlines()
        for i in range(0, len(lines), 20):  # 5% corrupted
            lines[i] = "corrupted " + lines[i][:20]
        victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, stderr = run(
            capsys, "ingest", "--paths", str(victim), "--store", str(tmp_path / "s"),
            "--base-date", "2024-03-01",
        )
        assert code == 2
        assert "exceeds" in stderr
        dead = (tmp_path / "s" / "dead_letters.jsonl").read_text().splitlines()
        assert len(dead) == len(range(0, len(lines), 20))
        assert json.loads(dead[0])["stage"] == "grok"

    def test_threshold_flag_tolerates_dirt(self, small_corpus, tmp_path, capsys):
        victim = tmp_path / "storm-backend.log"
        src = os.path.join(small_corpus["dir"], "storm-backend.log")
        lines = open(src, encoding="utf-8").read().splitlines()
        lines[0] = "corrupted"
        victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, _ = run(
            capsys, "ingest", "--paths", str(victim), "--store", str(tmp_path / "s"),
            "--base-date", "2024-03-01", "--max-dead-fraction", "0.5",
        )
        assert code == 0

    def test_reingest_is_idempotent(self, small_corpus, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        args = ["ingest", "--paths", *corpus_paths(small_corpus["dir"]),
                "--store", store_dir, "--base-date", "2024-03-01", "--format", "json-lines"]
        code, first_out, _ = run(capsys, *args)
        assert code == 0
        first = json.loads(first_out)
        # Fresh registry forces a re-ship; document ids dedupe the replay.
        code, second_out, _ = run(
            capsys, *args, "--registry", str(tmp_path / "fresh-registry.json")
        )
        assert code == 0
        store = IX.load_store(store_dir)
        total_docs = sum(ix.doc_count for ix in store.indices.values())
        assert total_docs == first["indexed"]

    def test_snapshot_is_no_larger_than_the_logs(self, small_corpus, cli_store):
        log_bytes = sum(os.path.getsize(p) for p in corpus_paths(small_corpus["dir"]))
        index_bytes = 0
        for name in IX.index_names(cli_store):
            directory = os.path.join(cli_store, name)
            index_bytes += sum(
                os.path.getsize(os.path.join(directory, leaf)) for leaf in os.listdir(directory)
            )
        assert 0 < index_bytes <= 1.0 * log_bytes

    def test_multi_day_ingest_writes_only_the_days_it_reads(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        days = ["2024-03-01", "2024-03-02", "2024-03-03"]
        dirs = []
        for i, day in enumerate(days):
            out = str(tmp_path / f"day{i}")
            workload = loggen.WorkloadSpec(
                seed=40 + i, duration_seconds=60, start_ms=parse_date_ms(day)
            )
            loggen.generate(workload, [], out)
            dirs.append(out)
        # The newest day's files hold back their second half for an append.
        held = {}
        for path in corpus_paths(dirs[-1]):
            with open(path, encoding="utf-8", newline="") as handle:
                lines = handle.readlines()
            keep = len(lines) - len(lines) // 2
            held[path] = lines[keep:]
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(lines[:keep])

        def ingest(i, *extra):
            code, out, _ = run(capsys, "ingest", "--paths", *corpus_paths(dirs[i]),
                               "--store", store_dir, "--base-date", days[i],
                               "--format", "json-lines", *extra)
            assert code == 0
            return json.loads(out)

        def day_names(i):
            suffix = days[i].replace("-", ".")
            return sorted(n for n in os.listdir(store_dir) if n.endswith(suffix))

        for i in range(3):
            summary = ingest(i)
            assert summary["indices_created"] == day_names(i)
            assert len(summary["indices_created"]) == 5

        def older_files():
            found = {}
            for i in (0, 1):
                for name in day_names(i):
                    for leaf in os.listdir(os.path.join(store_dir, name)):
                        path = os.path.join(store_dir, name, leaf)
                        with open(path, "rb") as handle:
                            found[path] = (handle.read(), os.stat(path).st_mtime_ns)
            return found

        before = older_files()
        for path, lines in held.items():
            with open(path, "a", encoding="utf-8", newline="") as handle:
                handle.writelines(lines)
        appended = ingest(2)
        assert appended["shipped"] == sum(len(lines) for lines in held.values())
        assert appended["indices_created"] == []
        assert older_files() == before
        noop = ingest(2)
        assert (noop["shipped"], noop["indices_created"]) == (0, [])

        counts = {n: ix.doc_count for n, ix in IX.load_store(store_dir).indices.items()}
        assert len(counts) == 15
        for i in range(3):
            replay = ingest(i, "--registry", str(tmp_path / f"fresh-registry-{i}.json"))
            assert replay["shipped"] > 0
            assert replay["indices_created"] == []
        replayed = {n: ix.doc_count for n, ix in IX.load_store(store_dir).indices.items()}
        assert replayed == counts


class TestQueryAndAgg:
    def test_query_csv_row_count(self, cli_store, capsys):
        code, stdout, stderr = run(
            capsys, "query", "--store", cli_store, "--index", "storm-backend-*",
            "--q", json.dumps({"term": {"field": "status", "value": "ERROR"}}),
        )
        assert code == 0
        rows = stdout.strip().splitlines()[1:]
        store = IX.load_store(cli_store, "storm-backend-*")
        want = IX.search(store, "storm-backend-*", IX.Term("status", "ERROR"))
        assert len(rows) == len(want)

    def test_query_json_lines(self, cli_store, capsys):
        code, stdout, _ = run(
            capsys, "query", "--store", cli_store, "--index", "storm-heartbeat-*",
            "--format", "json-lines",
        )
        assert code == 0
        rows = [json.loads(line) for line in stdout.strip().splitlines()]
        assert all("ptg_count" in r["fields"] for r in rows)

    def test_bad_query_json_is_usage_error(self, cli_store, capsys):
        code, _, stderr = run(
            capsys, "query", "--store", cli_store, "--index", "storm-*", "--q", "{nope",
        )
        assert code == 1

    def test_agg_terms_equals_library_call(self, cli_store, capsys):
        code, stdout, _ = run(
            capsys, "agg", "--store", cli_store, "--index", "storm-backend-*",
            "--agg", json.dumps({"terms": {"field": "status", "top_n": 5}}),
        )
        assert code == 0
        got = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        store = IX.load_store(cli_store, "storm-backend-*")
        want = IX.aggregate(store, "storm-backend-*", IX.MatchAll(), IX.TermsAgg("status", 5))
        assert [(v, int(c)) for v, c in got] == want

    def test_agg_csv_quotes_values_with_commas(self, cli_store, capsys):
        code, stdout, _ = run(
            capsys, "agg", "--store", cli_store, "--index", "storm-*",
            "--agg", json.dumps({"terms": {"field": "fqans"}}),
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(stdout))
        assert header == ["value", "count"]
        assert all(len(row) == 2 for row in rows)
        assert any("," in value for value, _ in rows)
        store = IX.load_store(cli_store, "storm-*")
        want = IX.aggregate(store, "storm-*", IX.MatchAll(), IX.TermsAgg("fqans", 10))
        assert [(v, int(c)) for v, c in rows] == want

    def test_stats_on_text_field_is_usage_error(self, cli_store, capsys):
        code, _, stderr = run(
            capsys, "agg", "--store", cli_store, "--index", "storm-backend-*",
            "--agg", json.dumps({"stats": {"field": "status"}}),
        )
        assert code == 1
        assert stderr.startswith("error: stats on non-numeric field 'status'")

    def test_corrupt_or_old_store_is_data_error(self, tmp_path, capsys):
        name = "storm-backend-2024.03.01"
        store = IX.Store()
        IX.index_document(store, Document(
            id="a", index_name=name,
            fields={"@timestamp": parse_date_ms("2024-03-01"), "status": "INFO"}))
        root = tmp_path / "store"
        IX.save_store(store, str(root))
        (segment,) = (p for p in (root / name).iterdir() if p.name != "manifest.json")
        segment.write_bytes(segment.read_bytes()[:-4])
        code, _, stderr = run(capsys, "query", "--store", str(root), "--index", "storm-*")
        assert code == 2
        assert stderr.startswith(f"error: snapshot corrupt for {name}")

        (root / name / "manifest.json").write_text(json.dumps({"name": name, "doc_count": 1}))
        code, _, stderr = run(capsys, "query", "--store", str(root), "--index", "storm-*")
        assert code == 2
        assert stderr.startswith(f"error: {name}: not a format-2 snapshot")


class TestReportCommand:
    def test_report_files_match_aggregate_calls(self, cli_store, tmp_path, capsys):
        out = str(tmp_path / "reports")
        code, _, _ = run(capsys, "report", "--store", cli_store, "--out", out)
        assert code == 0
        store = IX.load_store(cli_store)

        gauge_rows = open(os.path.join(out, "status_gauge.csv")).read().strip().splitlines()[1:]
        want = IX.aggregate(store, "storm-backend-*", IX.MatchAll(), IX.TermsAgg("status", 10))
        assert [(v, int(c)) for v, c in (r.split(",") for r in gauge_rows)] == want

        geo_rows = open(os.path.join(out, "geo_heatmap.csv")).read().strip().splitlines()[1:]
        grid = IX.aggregate(store, "storm-frontend-*", IX.MatchAll(), IX.GeoGridAgg(1.0))
        assert len(geo_rows) == len(grid)
        assert sum(int(r.split(",")[2]) for r in geo_rows) == sum(c for _, _, c in grid)

        ts_rows = open(os.path.join(out, "request_timeseries.csv")).read().strip().splitlines()[1:]
        actions = {r.split(",")[0] for r in ts_rows}
        top = IX.aggregate(store, "storm-frontend-*", IX.MatchAll(), IX.TermsAgg("action", 8))
        assert actions == {value for value, _ in top}

    def test_geo_total_equals_docs_with_geo_points(self, cli_store, tmp_path, capsys):
        out = str(tmp_path / "reports")
        run(capsys, "report", "--store", cli_store, "--out", out)
        geo_rows = open(os.path.join(out, "geo_heatmap.csv")).read().strip().splitlines()[1:]
        store = IX.load_store(cli_store)
        docs = IX.search(store, "storm-frontend-*", IX.MatchAll())
        with_geo = sum(1 for d in docs if "geo_lat" in d.fields)
        assert sum(int(r.split(",")[2]) for r in geo_rows) == with_geo

    def test_empty_range_yields_empty_reports(self, cli_store, tmp_path, capsys):
        out = str(tmp_path / "reports")
        code, _, _ = run(
            capsys, "report", "--store", cli_store, "--out", out,
            "--from", "1999-01-01", "--to", "1999-01-02",
        )
        assert code == 0
        for name in ("status_gauge", "request_timeseries", "geo_heatmap"):
            rows = open(os.path.join(out, f"{name}.csv")).read().strip().splitlines()
            assert len(rows) == 1  # header only


def write_job(path, truth, indices="storm-backend-metrics-*"):
    job = {
        "metric": {
            "indices": indices,
            "filter": {"term": {"field": "action", "value": "synch.ls"}},
            "detector": {"kind": "mean", "field": "mean_ms"},
            "bucket_span_seconds": 60,
        },
        "from": truth["start_ms"],
        "to": truth["start_ms"] + truth["duration_seconds"] * 1000,
        "warmup_buckets": 5,
    }
    path.write_text(json.dumps(job), encoding="utf-8")
    return str(path)


class TestMlCommands:
    def test_detect_writes_outputs(self, cli_store, small_corpus, tmp_path, capsys):
        job = write_job(tmp_path / "job.json", small_corpus["truth"])
        out = str(tmp_path / "ml")
        code, stdout, _ = run(
            capsys, "ml", "detect", "--store", cli_store, "--job", job, "--out", out
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "records.csv"))
        bounds = open(os.path.join(out, "bounds.csv")).read().strip().splitlines()
        assert bounds[0] == "bucket_start,value,lower,upper"
        assert len(bounds) == 1 + small_corpus["truth"]["duration_seconds"] // 60
        model = json.loads(open(os.path.join(out, "model.json")).read())
        assert model["observed"] == small_corpus["truth"]["duration_seconds"] // 60

    def test_clean_stationary_store_is_quiet(self, tmp_path, capsys):
        # One metrics document per minute for 2020 minutes, N(40, 2) values.
        import random

        from stormwatch.pipeline import Document

        rng = random.Random(71)
        store = IX.Store()
        start = 1709251200000
        for i in range(2020):
            ts = start + i * 60_000
            from stormwatch.timeutil import day_name

            doc = Document(
                id=f"m{i}",
                fields={"@timestamp": ts, "kind": "backend-metrics",
                        "action": "synch.ls", "mean_ms": rng.gauss(40.0, 2.0)},
                index_name=f"storm-backend-metrics-{day_name(ts)}",
            )
            IX.index_document(store, doc)
        store_dir = str(tmp_path / "store")
        IX.save_store(store, store_dir)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "metric": {
                "indices": "storm-backend-metrics-*",
                "filter": {"term": {"field": "action", "value": "synch.ls"}},
                "detector": {"kind": "mean", "field": "mean_ms"},
                "bucket_span_seconds": 60,
            },
            "from": start,
            "to": start + 2020 * 60_000,
        }), encoding="utf-8")
        out = str(tmp_path / "ml")
        code, _, _ = run(capsys, "ml", "detect", "--store", store_dir,
                         "--job", str(job), "--out", out)
        assert code == 0
        rows = open(os.path.join(out, "records.csv")).read().strip().splitlines()[1:]
        loud = [r for r in rows if float(r.split(",")[5]) >= 25.0]
        assert len(loud) / 2000 <= 0.01

    def test_forecast_flat_and_validated(self, cli_store, small_corpus, tmp_path, capsys):
        job = write_job(tmp_path / "job.json", small_corpus["truth"])
        out = str(tmp_path / "ml")
        code, _, _ = run(
            capsys, "ml", "forecast", "--store", cli_store, "--job", job,
            "--out", out, "--horizon", "12",
        )
        assert code == 0
        rows = open(os.path.join(out, "forecast.csv")).read().strip().splitlines()[1:]
        assert len(rows) == 12
        assert len({r.split(",")[1] for r in rows}) == 1
        code, _, _ = run(
            capsys, "ml", "forecast", "--store", cli_store, "--job", job,
            "--out", out, "--horizon", "0",
        )
        assert code == 1

    def test_bad_job_config_is_usage_error(self, cli_store, tmp_path, capsys):
        bad = tmp_path / "job.json"
        bad.write_text(json.dumps({"metric": {"indices": "storm-*", "detector": {"kind": "zap"}},
                                   "from": 0, "to": 1}), encoding="utf-8")
        code, _, _ = run(capsys, "ml", "detect", "--store", cli_store,
                         "--job", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1


class TestIndexRm:
    def test_rm_then_pattern_excludes(self, small_corpus, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        run(capsys, "ingest", "--paths", *corpus_paths(small_corpus["dir"]),
            "--store", store_dir, "--base-date", "2024-03-01")
        code, stdout, _ = run(
            capsys, "index", "rm", "--store", store_dir, "storm-monitoring-2024.03.01"
        )
        assert code == 0
        store = IX.load_store(store_dir)
        assert "storm-monitoring-2024.03.01" not in store.indices
        assert len(store.indices) == 4

    def test_rm_unknown_is_error(self, cli_store, capsys):
        code, _, stderr = run(capsys, "index", "rm", "--store", cli_store, "nope")
        assert code == 1

    def test_rm_reads_no_documents(self, small_corpus, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        run(capsys, "ingest", "--paths", *corpus_paths(small_corpus["dir"]),
            "--store", store_dir, "--base-date", "2024-03-01")
        corrupt = os.path.join(store_dir, "storm-backend-2024.03.01")
        for leaf in os.listdir(corrupt):
            if leaf != "manifest.json":
                with open(os.path.join(corrupt, leaf), "wb") as handle:
                    handle.write(b"not a segment")
        code, _, _ = run(capsys, "index", "rm", "--store", store_dir, "storm-monitoring-*")
        assert code == 0
        assert "storm-monitoring-2024.03.01" not in IX.index_names(store_dir)
        assert len(IX.index_names(store_dir)) == 4
        with pytest.raises(IX.StoreError, match="storm-backend-2024.03.01"):
            IX.load_store(store_dir, "storm-backend-*")

    def test_rm_pattern(self, small_corpus, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        run(capsys, "ingest", "--paths", *corpus_paths(small_corpus["dir"]),
            "--store", store_dir, "--base-date", "2024-03-01")
        code, _, _ = run(capsys, "index", "rm", "--store", store_dir, "storm-backend-*")
        assert code == 0
        store = IX.load_store(store_dir)
        assert all(not n.startswith("storm-backend-") for n in store.indices)


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
