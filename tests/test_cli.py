import csv
import importlib
import io
import json
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import stormwatch
from conftest import corpus_paths
from helpers import read_segment, write_segment
from stormwatch import index as IX
from stormwatch import loggen, metrics
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

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_batch_size_below_one_is_usage_error(self, small_corpus, tmp_path, capsys, size):
        store_dir = tmp_path / "store"
        code, _, stderr = run(
            capsys, "ingest", "--paths", *corpus_paths(small_corpus["dir"]),
            "--store", str(store_dir), "--batch-size", size,
        )
        assert code == 1
        assert stderr.startswith("error: --batch-size must be >= 1")
        assert not store_dir.exists()

    @pytest.mark.parametrize(
        "registry",
        ['{"a.log": {"offset": 1', "[]", '{"a.log": []}', '{"a.log": "x"}', "7"],
        ids=["truncated", "list", "object-of-lists", "object-of-strings", "number"],
    )
    def test_unreadable_registry_is_data_error(self, small_corpus, tmp_path, capsys, registry):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "registry.json").write_text(registry, encoding="utf-8")
        code, _, stderr = run(
            capsys, "ingest", "--paths", *corpus_paths(small_corpus["dir"]),
            "--store", str(store_dir),
        )
        assert code == 2
        assert stderr.startswith("error: cannot load registry")
        assert sorted(os.listdir(store_dir)) == ["registry.json"]

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"routes": {"backend": [{"type": "lowercase"}]}},
             "route backend stage 0: unknown stage type 'lowercase'"),
            ({"routes": {}, "geo_table_csv": "10.0.0.0/8,1,2\n"},
             "line 1: expected cidr,lat,lon,label"),
            ({"routes": {"backend": ["grok"]}}, "route backend stage 0 must be an object"),
        ],
        ids=["unknown-stage", "bad-geo-table", "stage-not-an-object"],
    )
    def test_bad_config_is_usage_error(self, small_corpus, tmp_path, capsys, config, message):
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        store_dir = tmp_path / "store"
        code, stdout, stderr = run(
            capsys, "ingest", "--paths", *corpus_paths(small_corpus["dir"]),
            "--store", str(store_dir), "--config", str(config_path),
        )
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {message}\n"
        assert not store_dir.exists()

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

    def test_malformed_index_pattern_is_usage_error(self, cli_store, capsys):
        code, stdout, stderr = run(capsys, "query", "--store", cli_store, "--index", "storm-*-x")
        assert (code, stdout) == (1, "")
        assert stderr == "error: '*' only supported as a suffix: 'storm-*-x'\n"

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

    @pytest.mark.parametrize(
        "lat,lon,cell,message",
        [
            ("12", 5.0, 1, "geo_grid on non-numeric or non-finite field 'geo_lat'"),
            (float("inf"), 5.0, 1, "geo_grid on non-numeric or non-finite field 'geo_lat'"),
            (float("nan"), 5.0, 1, "geo_grid on non-numeric or non-finite field 'geo_lat'"),
            (True, 5.0, 1, "geo_grid on non-numeric or non-finite field 'geo_lat'"),
            (12.5, float("-inf"), 1, "geo_grid on non-numeric or non-finite field 'geo_lon'"),
            (12.5, "5", 1, "geo_grid on non-numeric or non-finite field 'geo_lon'"),
            (1e308, 5.0, 0.5, "geo_grid cells of 0.5 degrees overflow"),
            (10**400, 5.0, 1, "geo_grid cells of 1.0 degrees overflow"),
        ],
        ids=["text", "inf", "nan", "bool", "lon-inf", "lon-text", "overflow", "huge-int"],
    )
    def test_geo_grid_over_a_bad_coordinate_is_usage_error(
        self, tmp_path, capsys, lat, lon, cell, message
    ):
        name = "storm-frontend-2024.03.01"
        ts = parse_date_ms("2024-03-01")
        store = IX.Store()
        IX.index_documents(store, [
            Document("a", {"@timestamp": ts, "geo_lat": lat, "geo_lon": lon}, name),
            Document("b", {"@timestamp": ts, "geo_lat": 1.5, "geo_lon": 2.5}, name),
        ])
        IX.save_store(store, str(tmp_path))
        for agg in ({"geo_grid": {"cell_degrees": cell}}, {"terms": {"field": "geo_lat"}}):
            code, stdout, stderr = run(capsys, "agg", "--store", str(tmp_path),
                                       "--index", "storm-*", "--agg", json.dumps(agg))
            if "geo_grid" in agg:
                assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
            else:  # the store holds the value as written
                assert code == 0 and stdout.count("\n") == 3

        IX.index_document(store, Document("a", {"@timestamp": ts, "geo_lat": 12.5,
                                                "geo_lon": 5.0}, name))
        IX.save_store(store, str(tmp_path))
        code, stdout, _ = run(capsys, "agg", "--store", str(tmp_path), "--index", "storm-*",
                              "--agg", json.dumps({"geo_grid": {"cell_degrees": 1}}))
        assert (code, stdout.splitlines()) == (0, ["cell_lat,cell_lon,count", "1.0,2.0,1",
                                                   "12.0,5.0,1"])

    def test_a_cell_that_is_not_finite_is_usage_error(self, tmp_path, capsys):
        name = "storm-frontend-2024.03.01"
        store = IX.Store()
        IX.index_document(store, Document("a", {"@timestamp": parse_date_ms("2024-03-01"),
                                                "geo_lat": 1.5, "geo_lon": 2.5}, name))
        IX.save_store(store, str(tmp_path / "store"))
        for cell in ("Infinity", '"inf"', "-Infinity", "NaN", '"nan"'):
            code, stdout, stderr = run(capsys, "agg", "--store", str(tmp_path / "store"),
                                       "--index", "storm-*",
                                       "--agg", f'{{"geo_grid": {{"cell_degrees": {cell}}}}}')
            message = "positive" if cell.startswith("-") else "finite"
            assert (code, stdout, stderr) == (1, "", f"error: cell_degrees must be {message}\n")
        for cell in ("inf", "nan", "Infinity"):
            out = tmp_path / "report"
            code, stdout, stderr = run(capsys, "report", "--store", str(tmp_path / "store"),
                                       "--out", str(out), "--cell", cell)
            assert (code, stdout, stderr) == (1, "", "error: cell_degrees must be finite\n")
            assert not out.exists()

    def test_counting_a_list_or_object_value_is_usage_error(self, tmp_path, capsys):
        name = "storm-frontend-2024.03.01"
        ts = parse_date_ms("2024-03-01")
        store = IX.Store()
        IX.index_documents(store, [
            Document("a", {"@timestamp": ts, "tags": ["x", "y"], "geo_lat": 1.5,
                           "geo_lon": {"deg": 2}}, name),
            Document("b", {"@timestamp": ts + 1, "tags": "z", "geo_lat": 1.5,
                           "geo_lon": 2.5}, name),
        ])
        IX.save_store(store, str(tmp_path))
        # The whole day's kept counts, then the per-call count of a filtered query.
        for q in ({"match_all": {}}, {"term": {"field": "id", "value": "a"}}):
            for agg, field in (({"terms": {"field": "tags"}}, "tags"),
                               ({"geo_grid": {"cell_degrees": 1}}, "geo_lon")):
                code, stdout, stderr = run(capsys, "agg", "--store", str(tmp_path),
                                           "--index", "storm-*", "--q", json.dumps(q),
                                           "--agg", json.dumps(agg))
                assert (code, stdout) == (1, ""), (q, agg)
                assert stderr == (
                    f"error: cannot count field {field!r}: it holds a list or object value\n")

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

        manifest = {"format": 4, "name": name, "doc_count": 1, "segments": [segment.name]}
        for old in ({"name": name, "doc_count": 1}, {**manifest, "format": 2},
                    {**manifest, "format": 3}):
            (root / name / "manifest.json").write_text(json.dumps(old))
            code, _, stderr = run(capsys, "query", "--store", str(root), "--index", "storm-*")
            assert code == 2
            assert stderr.startswith(f"error: {name}: not a format-4 snapshot")
            assert "re-ingest its logs into a fresh store" in stderr

        for damaged in (json.dumps(manifest)[:-9], json.dumps([manifest]),
                        json.dumps({k: v for k, v in manifest.items() if k != "segments"})):
            (root / name / "manifest.json").write_text(damaged)
            code, _, stderr = run(capsys, "query", "--store", str(root), "--index", "storm-*")
            assert code == 2
            assert stderr.startswith(f"error: snapshot corrupt for {name}")

    def test_a_damaged_dictionary_line_is_a_corrupt_snapshot(self, tmp_path, capsys):
        # A dictionary stream: the JSON array of distinct values, a newline,
        # and one little-endian position per document of the header's width.
        name = "storm-backend-2024.03.01"
        ts = parse_date_ms("2024-03-01")
        root = tmp_path / "store"
        (root / name).mkdir(parents=True)
        (root / name / "manifest.json").write_text(json.dumps(
            {"format": 4, "name": name, "doc_count": 2, "segments": ["1.seg"]}))

        def query_with(status_line):
            write_segment(root / name / "1.seg", [
                (["@timestamp", "status"], ["a", "b"], [[ts, ts + 1], status_line])])
            return run(capsys, "query", "--store", str(root), "--index", "storm-*",
                       "--format", "json-lines")

        for width in (1, 2, 4):
            code, out, _ = query_with({"d": ["WARN", "INFO"], "i": [1, 0], "w": width})
            assert code == 0
            assert [json.loads(line)["fields"]["status"] for line in out.splitlines()] == [
                "INFO", "WARN"]
        for damaged in (
            {"d": ["INFO"], "i": [0, 1], "w": 1},  # out of range
            {"d": ["INFO", "WARN"], "i": [0, 255], "w": 1},  # the byte a -1 leaves
            {"d": ["INFO", "WARN"], "i": [0, 1], "w": 3},  # a width that is not 1, 2, 4
            (b'["INFO","WARN"]\n\x00\x01', 2),  # one 2-byte position for two documents
            (b'["INFO"]\n\x00\x00\x00', 2),  # a truncated position
            (b'["INFO"]\n\x00\x00\x00', 1),  # a position too many
            (b'["INFO"]\n\x00', 1),  # a position too few
            (b'["INFO"]', 1), (b"\n\x00\x00", 1),  # no positions; no values
            (b'["INFO"]\n\x00\x00', 0),
            {"d": "II", "i": [0, 1], "w": 1},  # would take "I" per position
            {"d": {"0": "INFO"}, "i": [0, 0], "w": 1},
            b'"II"', b"2", b'["INFO"]', b'["INFO","INFO","INFO"]', b'["INFO",',
        ):
            code, _, stderr = query_with(damaged)
            assert code == 2, damaged
            assert stderr.startswith(f"error: snapshot corrupt for {name}"), damaged

    def test_a_damaged_column_is_found_when_a_command_reads_it(self, tmp_path, capsys):
        name = "storm-backend-2024.03.01"
        ts = parse_date_ms("2024-03-01")
        store = IX.Store()
        IX.index_documents(store, [
            Document(f"d{i}", {"@timestamp": ts + i, "status": ["INFO", "WARN"][i % 2],
                               "message": f"request {i} done"}, name)
            for i in range(40)])
        root = tmp_path / "store"
        IX.save_store(store, str(root))
        segment = root / name / "1.seg"
        (keys, _ids, _lines), = read_segment(segment)
        data = bytearray(segment.read_bytes())
        header = json.loads(data[int.from_bytes(data[-8:], "little"):-8])
        offset, length = header[0]["columns"][keys.index("message")]
        data[offset:offset + length] = bytes(length)  # no longer inflates
        segment.write_bytes(bytes(data))

        def command(*argv):
            return run(capsys, *argv, "--store", str(root), "--index", "storm-*")

        code, stdout, _ = command("agg", "--agg", json.dumps({"terms": {"field": "status"}}))
        assert (code, stdout.splitlines()) == (0, ["value,count", "INFO,20", "WARN,20"])
        term = {"term": {"field": "message", "value": "request"}}
        for argv in (("query",), ("agg", "--agg", json.dumps({"terms": {"field": "message"}})),
                     ("query", "--q", json.dumps(term))):
            code, _, stderr = command(*argv)
            assert code == 2, argv
            assert stderr.startswith(f"error: snapshot corrupt for {name}: column 'message'")

    def test_a_stream_outside_the_segment_is_corrupt_at_load(self, tmp_path, capsys):
        name = "storm-backend-2024.03.01"
        ts = parse_date_ms("2024-03-01")
        root = tmp_path / "store"
        (root / name).mkdir(parents=True)
        (root / name / "manifest.json").write_text(json.dumps(
            {"format": 4, "name": name, "doc_count": 2, "segments": ["1.seg"]}))
        groups = [(["@timestamp", "status"], ["a", "b"], [[ts, ts + 1], ["INFO", "WARN"]])]
        segment = root / name / "1.seg"

        def agg_count():
            histogram = {"date_histogram": {"interval_seconds": 60}}
            code, _, stderr = run(capsys, "agg", "--store", str(root), "--index", "storm-*",
                                  "--agg", json.dumps(histogram))
            return code, stderr

        write_segment(segment, groups)
        assert agg_count() == (0, "")
        size = len(segment.read_bytes())
        for header_offset in (size, size - 7, 1 << 63):  # past the end, into the last 8 bytes
            write_segment(segment, groups, header_offset=header_offset)
            code, stderr = agg_count()
            assert code == 2, header_offset
            assert stderr.startswith(f"error: snapshot corrupt for {name}"), header_offset

        # A span of a column the command does not read, past the header.
        write_segment(segment, groups)
        data = segment.read_bytes()
        end = int.from_bytes(data[-8:], "little")
        header = json.loads(data[end:-8])
        for span in ([end, 1], [end - 1, 2], [-1, 1], [0, -1], [0.0, 1], [0, 1, 8]):
            header[0]["columns"][1] = span
            segment.write_bytes(data[:end] + json.dumps(header).encode() + data[-8:])
            code, stderr = agg_count()
            assert code == 2, span
            assert stderr.startswith(f"error: snapshot corrupt for {name}"), span

    @pytest.mark.parametrize(
        "agg,message",
        [
            ({"date_histogram": {"interval_seconds": 0}}, "interval_seconds must be >= 1"),
            ({"terms": {"field": "status", "top_n": -1}}, "top_n must be >= 1"),
            ({"terms": {"field": "status", "top_n": 0}}, "top_n must be >= 1"),
        ],
    )
    def test_bad_aggregation_parameter_is_usage_error(self, cli_store, capsys, agg, message):
        code, stdout, stderr = run(
            capsys, "agg", "--store", cli_store, "--index", "storm-backend-*",
            "--agg", json.dumps(agg),
        )
        assert (code, stdout) == (1, "")
        assert stderr.startswith(f"error: {message}")


class TestReportCommand:
    @pytest.mark.parametrize(
        "flag,value,message",
        [("--interval", "0", "interval_seconds"), ("--top", "0", "top_n")],
    )
    def test_bad_parameter_is_usage_error(self, cli_store, tmp_path, capsys, flag, value, message):
        code, _, stderr = run(
            capsys, "report", "--store", cli_store, "--out", str(tmp_path / "r"), flag, value,
        )
        assert code == 1
        assert stderr.startswith(f"error: {message} must be >= 1")

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--interval", "0", "interval_seconds must be >= 1"),
            ("--top", "0", "top_n must be >= 1"),
            ("--cell", "0", "cell_degrees must be positive"),
        ],
    )
    def test_bad_parameter_is_usage_error_on_an_empty_store(
        self, tmp_path, capsys, flag, value, message
    ):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        out = tmp_path / "r"
        code, stdout, stderr = run(
            capsys, "report", "--store", str(store_dir), "--out", str(out), flag, value,
        )
        assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
        assert not out.exists()

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

    def test_series_beyond_the_bucket_limit_is_usage_error(
        self, cli_store, small_corpus, tmp_path, capsys
    ):
        job_path = write_job(tmp_path / "job.json", small_corpus["truth"])
        job = json.loads(open(job_path, encoding="utf-8").read())
        job["metric"]["bucket_span_seconds"] = 1
        job["to"] = job["from"] + (metrics.MAX_BUCKETS + 1) * 1000
        (tmp_path / "job.json").write_text(json.dumps(job), encoding="utf-8")
        code, stdout, stderr = run(capsys, "ml", "detect", "--store", cli_store,
                                   "--job", job_path, "--out", str(tmp_path / "o"))
        assert (code, stdout) == (1, "")
        assert f"more than {metrics.MAX_BUCKETS}" in stderr
        assert not (tmp_path / "o").exists()

    def test_forecast_beyond_the_bucket_limit_is_usage_error(
        self, cli_store, small_corpus, tmp_path, capsys
    ):
        job = write_job(tmp_path / "job.json", small_corpus["truth"])
        code, stdout, stderr = run(
            capsys, "ml", "forecast", "--store", cli_store, "--job", job,
            "--out", str(tmp_path / "o"), "--horizon", str(metrics.MAX_BUCKETS + 1),
        )
        assert (code, stdout) == (1, "")
        assert f"horizon must be within [1, {metrics.MAX_BUCKETS}]" in stderr
        assert not (tmp_path / "o").exists()

    def test_bad_job_config_is_usage_error(self, cli_store, tmp_path, capsys):
        bad = tmp_path / "job.json"
        bad.write_text(json.dumps({"metric": {"indices": "storm-*", "detector": {"kind": "zap"}},
                                   "from": 0, "to": 1}), encoding="utf-8")
        code, _, _ = run(capsys, "ml", "detect", "--store", cli_store,
                         "--job", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1

    @pytest.mark.parametrize(
        "command,change",
        [
            ("detect", {"thresholds": 5}),
            ("detect", {"metric": "x"}),
            ("detect", {"metric": {"indices": "storm-*", "bucket_span_seconds": None}}),
            ("detect", {"metric": {"indices": "storm-*", "detector": ["mean"]}}),
            ("forecast", {"beta": None}),
            ("forecast", {"beta": "wide"}),
        ],
        ids=["thresholds-int", "metric-str", "span-null", "detector-list", "beta-null",
             "beta-str"],
    )
    def test_wrongly_typed_job_value_is_usage_error(
        self, cli_store, small_corpus, tmp_path, capsys, command, change
    ):
        job_path = write_job(tmp_path / "job.json", small_corpus["truth"])
        job = json.loads(open(job_path, encoding="utf-8").read())
        job.update(change)
        (tmp_path / "job.json").write_text(json.dumps(job), encoding="utf-8")
        extra = ["--horizon", "3"] if command == "forecast" else []
        code, _, stderr = run(capsys, "ml", command, "--store", cli_store, "--job", job_path,
                              "--out", str(tmp_path / "o"), *extra)
        assert code == 1
        assert stderr.startswith("error: bad job config: ")
        assert not (tmp_path / "o").exists()


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

    @staticmethod
    def _two_day_store(root):
        store = IX.Store()
        for day in ("2024-03-01", "2024-03-02"):
            IX.index_document(store, Document(
                id=day, index_name=f"storm-backend-{day.replace('-', '.')}",
                fields={"@timestamp": parse_date_ms(day), "status": "INFO"}))
        IX.save_store(store, str(root))
        return str(root)

    def test_rm_with_an_unknown_name_deletes_nothing(self, tmp_path, capsys):
        store_dir = self._two_day_store(tmp_path / "store")
        code, stdout, stderr = run(
            capsys, "index", "rm", "--store", store_dir, "storm-backend-2024.03.01", "nope"
        )
        assert (code, stdout, stderr) == (1, "", "error: no such index: nope\n")
        assert len(IX.index_names(store_dir)) == 2

    @pytest.mark.parametrize(
        "names,deleted",
        [
            (["storm-backend-2024.03.01"] * 2, ["storm-backend-2024.03.01"]),
            (["storm-backend-*", "storm-backend-2024.03.01"],
             ["storm-backend-2024.03.01", "storm-backend-2024.03.02"]),
        ],
        ids=["twice", "pattern-and-name"],
    )
    def test_rm_of_a_name_given_twice_deletes_it_once(self, tmp_path, capsys, names, deleted):
        store_dir = self._two_day_store(tmp_path / "store")
        code, stdout, _ = run(capsys, "index", "rm", "--store", store_dir, *names)
        assert (code, stdout) == (0, "".join(f"deleted {name}\n" for name in deleted))
        assert IX.index_names(store_dir) == sorted(
            {"storm-backend-2024.03.01", "storm-backend-2024.03.02"} - set(deleted))


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


# Runs one command through `cli.main` in a fresh interpreter and prints its
# exit code and the stormwatch modules it imported, with `dataclasses` if it
# was imported, as the last stdout line.
_IMPORT_PROBE = """
import json, sys
from stormwatch import cli
code = cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("stormwatch") or m == "dataclasses"]
print(json.dumps([code, sorted(loaded)]))
"""

_READ_MODULES = ["stormwatch", "stormwatch.cli", "stormwatch.index", "stormwatch.timeutil"]


@pytest.mark.parametrize(
    "command,modules",
    [
        ("query", _READ_MODULES),
        ("agg", _READ_MODULES),
        ("report", _READ_MODULES),
        ("ml detect", [*_READ_MODULES, "dataclasses", "stormwatch.anomaly",
                       "stormwatch.metrics"]),
        ("ingest", [*_READ_MODULES, "dataclasses", "stormwatch.codecs", "stormwatch.patterns",
                    "stormwatch.pipeline", "stormwatch.shipper"]),
    ],
    ids=["query", "agg", "report", "ml-detect", "ingest"],
)
def test_a_command_imports_only_the_layers_it_runs(
    cli_store, small_corpus, tmp_path, command, modules
):
    argv = {
        "query": ["query", "--store", cli_store, "--index", "storm-heartbeat-*"],
        "agg": ["agg", "--store", cli_store, "--index", "storm-backend-*",
                "--agg", json.dumps({"terms": {"field": "status"}})],
        "report": ["report", "--store", cli_store, "--out", str(tmp_path / "report")],
        "ml detect": ["ml", "detect", "--store", cli_store, "--out", str(tmp_path / "ml"),
                      "--job", write_job(tmp_path / "job.json", small_corpus["truth"])],
        "ingest": ["ingest", "--store", str(tmp_path / "store"), "--base-date", "2024-03-01",
                   "--paths", os.path.join(small_corpus["dir"], "heartbeat.log")],
    }[command]
    src = os.path.dirname(os.path.dirname(os.path.abspath(IX.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert (code, sorted(loaded)) == (0, sorted(modules))


class TestWronglyTypedJsonIsUsageError:
    """Each of these reached an evaluator and exited 3 as an internal error."""

    @pytest.mark.parametrize(
        "command,flag,text",
        [
            ("query", "--q", '{"term":{"field":["a"],"value":"x"}}'),
            ("query", "--q", '{"range":{"field":"@timestamp","min":"2024"}}'),
            ("agg", "--agg", '{"stats":{"field":{}}}'),
            ("agg", "--agg", '{"terms":{"field":"action","top_n":1e999}}'),
            ("agg", "--agg", '{"date_histogram":{"interval_seconds":1e999}}'),
        ],
        ids=["term-field-list", "range-min-string", "stats-field-object", "top-n-infinite",
             "interval-infinite"],
    )
    def test_query_or_aggregation(self, cli_store, capsys, command, flag, text):
        code, stdout, stderr = run(
            capsys, command, "--store", cli_store, "--index", "storm-*", flag, text
        )
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: bad ")

    @pytest.mark.parametrize(
        "metric_change,job_change",
        [
            ({"indices": 7}, {}),
            ({"bucket_span_seconds": "INFINITE"}, {}),
            ({}, {"warmup_buckets": "INFINITE"}),
            ({"detector": {"kind": "mean", "field": ["x"]}}, {}),
        ],
        ids=["indices-number", "span-infinite", "warmup-infinite", "detector-field-list"],
    )
    def test_job(self, cli_store, small_corpus, tmp_path, capsys, metric_change, job_change):
        job_path = write_job(tmp_path / "job.json", small_corpus["truth"])
        job = json.loads(open(job_path, encoding="utf-8").read())
        job["metric"].update(metric_change)
        job.update(job_change)
        text = json.dumps(job).replace('"INFINITE"', "1e999")
        (tmp_path / "job.json").write_text(text, encoding="utf-8")
        code, stdout, stderr = run(capsys, "ml", "detect", "--store", cli_store,
                                   "--job", job_path, "--out", str(tmp_path / "o"))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: bad job config: ")
        assert not (tmp_path / "o").exists()


def _nested_not(levels):
    return '{"not":' * levels + '{"match_all":{}}' + "}" * levels


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (["query", "--q", _nested_not(5000)], "error: bad query: "),
        (["agg", "--agg", '{"terms":{"field":"status"}}', "--q", _nested_not(5000)],
         "error: bad query: "),
        (["agg", "--agg", _nested_not(5000)], "error: bad aggregation: "),
        (["ml", "detect"], "error: cannot read job config: "),
    ],
    ids=["query-q", "agg-q", "agg-agg", "job-filter"],
)
def test_json_nested_too_deeply_is_usage_error(
    cli_store, small_corpus, tmp_path, capsys, argv, prefix
):
    """JSON nested past the interpreter's recursion limit is bad input."""
    if argv[0] == "ml":
        job_path = write_job(tmp_path / "job.json", small_corpus["truth"])
        job = json.loads(open(job_path, encoding="utf-8").read())
        job["metric"]["filter"] = "NESTED"
        text = json.dumps(job).replace('"NESTED"', _nested_not(5000))
        (tmp_path / "job.json").write_text(text, encoding="utf-8")
        argv = [*argv, "--job", job_path, "--out", str(tmp_path / "o")]
    else:
        argv = [*argv, "--index", "storm-*"]
    code, stdout, stderr = run(capsys, *argv, "--store", cli_store)
    assert (code, stdout) == (1, "")
    assert stderr.startswith(prefix)


# Values for the random JSON below: the store's own field names and values,
# wrong types, and numbers at the edges of int and float.
_FIELDS = ["@timestamp", "action", "status", "message", "mean_ms", "geo_lat", "seq", "id",
           "no_such_field"]
_SCALARS = [None, True, False, 0, 1, -1, 7, 60, 2**64, 10**400, 0.5, -2.5, 1e999, -1e999,
            float("nan"), "", "x", "INFO", "synch.ls", "storm-*", "storm-*-x", *_FIELDS]
_QUERY_KEYS = ("field", "value", "min", "max", "include_min", "include_max")
_AGG_KEYS = {"terms": ("field", "top_n"), "date_histogram": ("interval_seconds",),
             "stats": ("field",), "geo_grid": ("cell_degrees",), "histogram": ("field",)}


def _random_value(rng, depth=0):
    roll = rng.random()
    if depth > 2 or roll < 0.6:
        return rng.choice(_SCALARS)
    if roll < 0.8:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice([*_QUERY_KEYS, "kind", "term"]): _random_value(rng, depth + 1)
            for _ in range(rng.randrange(3))}


def _random_body(rng, keys):
    """Mostly an object holding some of the keys, with a field name or a
    random value each; sometimes any value."""
    if rng.random() < 0.1:
        return _random_value(rng)
    return {
        key: rng.choice(_FIELDS) if key == "field" and rng.random() < 0.5 else _random_value(rng)
        for key in keys if rng.random() < 0.8
    }


def _random_query(rng, depth=0):
    if rng.random() < 0.1:
        return _random_value(rng, depth)
    kind = rng.choice(["match_all", "term", "range", "and", "or", "not", "prefix"])
    if kind in ("and", "or") and depth < 3:
        body = [_random_query(rng, depth + 1) for _ in range(rng.randrange(4))]
    elif kind == "not" and depth < 3:
        body = _random_query(rng, depth + 1)
    else:
        body = _random_body(rng, _QUERY_KEYS)
    return {kind: body}


def _random_aggregation(rng):
    if rng.random() < 0.1:
        return _random_value(rng)
    kind = rng.choice(sorted(_AGG_KEYS))
    return {kind: _random_body(rng, _AGG_KEYS[kind])}


def _random_job(rng, template):
    """The template job with some of its values replaced. `from` and `to`
    stay: a wide range with a short span asks for a bucket per span."""
    job = json.loads(json.dumps(template))
    metric = job["metric"]
    choices = {
        "indices": lambda: rng.choice([_random_value(rng), "storm-*", "storm-*-x"]),
        "filter": lambda: _random_query(rng),
        "detector": lambda: rng.choice([
            _random_value(rng), {"kind": rng.choice(["count", "mean", "max", "zap"]),
                                 "field": rng.choice([*_FIELDS, _random_value(rng)])}]),
        "bucket_span_seconds": lambda: _random_value(rng),
    }
    for key, make in choices.items():
        if rng.random() < 0.3:
            metric[key] = make()
    for key in ("warmup_buckets", "decay", "k_bound", "thresholds", "gap_policy"):
        if rng.random() < 0.2:
            job[key] = _random_value(rng)
    if rng.random() < 0.05:
        job["metric"] = _random_value(rng)
    return job


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    truth = loggen.generate(
        loggen.WorkloadSpec(seed=5, duration_seconds=60), [], str(root / "corpus")
    )
    store_dir = str(root / "store")
    code = main(["ingest", "--paths", *corpus_paths(str(root / "corpus")),
                 "--store", store_dir, "--base-date", "2024-03-01"])
    assert code == 0
    return store_dir, truth


@pytest.mark.parametrize("command", ["query", "agg", "ml detect"])
def test_random_json_exits_0_or_1(tiny_store, tmp_path, capsys, command):
    store_dir, truth = tiny_store
    rng = random.Random(f"random-json-{command}")
    template = json.loads(open(write_job(tmp_path / "job.json", truth), encoding="utf-8").read())
    indices = ["storm-*", "storm-backend-*", "storm-frontend-*", "storm-backend-metrics-*"]
    crashes = []
    for _ in range(150):
        if command == "query":
            argv = ["query", "--index", rng.choice(indices),
                    "--q", json.dumps(_random_query(rng))]
        elif command == "agg":
            argv = ["agg", "--index", rng.choice(indices),
                    "--agg", json.dumps(_random_aggregation(rng))]
            if rng.random() < 0.3:
                argv += ["--q", json.dumps(_random_query(rng))]
        else:
            (tmp_path / "job.json").write_text(json.dumps(_random_job(rng, template)))
            argv = ["ml", "detect", "--job", str(tmp_path / "job.json"),
                    "--out", str(tmp_path / "out")]
        code, _, stderr = run(capsys, *argv, "--store", store_dir)
        if code not in (0, 1):
            crashes.append((argv, stderr))
    assert crashes == []


def test_every_error_class_subclasses_value_error_or_store_error():
    """An error's base class decides the exit code (`cli._exit_code`): a
    ValueError exits 1 and a StoreError 2, so no layer defines another."""
    others = []
    for info in pkgutil.iter_modules(stormwatch.__path__):
        module = importlib.import_module(f"stormwatch.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__
                    and not issubclass(value, (ValueError, IX.StoreError))):
                others.append(f"{module.__name__}.{name}")
    assert others == []
