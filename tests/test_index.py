import json
import math
import os
import random
import shutil
import zlib
from collections import Counter

import pytest

from helpers import oracle_search, oracle_tokens, random_query, read_segment
from stormwatch import index as IX
from stormwatch import metrics
from stormwatch.pipeline import Document

DAY = "2024.03.01"
BASE_TS = 1709251200000


def make_doc(i, ts=None, **fields):
    ts = BASE_TS + i * 1000 if ts is None else ts
    payload = {"@timestamp": ts, "kind": "backend", **fields}
    return Document(id=f"doc{i:06d}", fields=payload, index_name=f"storm-backend-{DAY}")


def make_corpus(n=400, seed=5):
    rng = random.Random(seed)
    statuses = ["INFO", "INFO", "INFO", "WARN", "ERROR"]
    actions = ["srmLs", "srmRm", "srmPrepareToGet", "srmReleaseFiles"]
    docs = []
    for i in range(n):
        docs.append(
            make_doc(
                i,
                status=rng.choice(statuses),
                action=rng.choice(actions),
                message=f"request {i} for {rng.choice(actions)} done in {rng.randrange(100)}ms",
                mean_ms=rng.uniform(0.5, 80.0),
                offset=i,
            )
        )
    return docs


@pytest.fixture()
def store_and_docs():
    docs = make_corpus()
    store = IX.Store()
    for doc in docs:
        IX.index_document(store, doc)
    return store, docs


class TestIndexDocument:
    def test_upsert_same_id_counts_once(self):
        store = IX.Store()
        IX.index_document(store, make_doc(1, status="INFO"))
        IX.index_document(store, make_doc(1, status="ERROR"))
        index = store.indices[f"storm-backend-{DAY}"]
        assert index.doc_count == 1
        hits = IX.search(store, "storm-*", IX.Term("status", "ERROR"))
        assert [d.id for d in hits] == ["doc000001"]
        assert not IX.search(store, "storm-*", IX.Term("status", "INFO"))

    def test_upsert_k_times_equals_once(self):
        store = IX.Store()
        for _ in range(7):
            IX.index_document(store, make_doc(2, status="WARN"))
        assert store.indices[f"storm-backend-{DAY}"].doc_count == 1

    def test_missing_timestamp_rejected(self):
        store = IX.Store()
        doc = Document(id="x", fields={"status": "INFO"}, index_name=f"storm-backend-{DAY}")
        with pytest.raises(IX.StoreError, match="^document x has no @timestamp$"):
            IX.index_document(store, doc)

    def test_timestamp_outside_index_day_rejected(self):
        store = IX.Store()
        doc = make_doc(1, ts=BASE_TS - 1)
        with pytest.raises(IX.StoreError):
            IX.index_document(store, doc)

    def test_keyword_term_findable_verbatim(self, store_and_docs):
        store, docs = store_and_docs
        hits = IX.search(store, "storm-backend-*", IX.Term("action", "srmReleaseFiles"))
        assert hits
        assert all(d.fields["action"] == "srmReleaseFiles" for d in hits)

    def test_every_doc_retrievable_by_id(self, store_and_docs):
        store, docs = store_and_docs
        for doc in docs:
            hits = IX.search(store, "storm-backend-*", IX.Term("id", doc.id))
            assert [d.id for d in hits] == [doc.id]


class TestSearch:
    def test_match_all_on_empty_store(self):
        assert IX.search(IX.Store(), "storm-*", IX.MatchAll()) == []

    def test_results_sorted_by_timestamp_then_id(self, store_and_docs):
        store, _ = store_and_docs
        hits = IX.search(store, "storm-*", IX.MatchAll())
        keys = [(d.fields["@timestamp"], d.id) for d in hits]
        assert keys == sorted(keys)

    def test_prefix_pattern(self, store_and_docs):
        store, docs = store_and_docs
        assert len(IX.search(store, "storm-backend-*", IX.MatchAll())) == len(docs)
        assert IX.search(store, "storm-frontend-*", IX.MatchAll()) == []

    def test_malformed_pattern(self, store_and_docs):
        store, _ = store_and_docs
        with pytest.raises(IX.MalformedPattern):
            IX.search(store, "storm-*-backend", IX.MatchAll())

    def test_unknown_field_returns_empty(self, store_and_docs):
        store, _ = store_and_docs
        assert IX.search(store, "storm-*", IX.Term("nope", "x")) == []
        assert IX.search(store, "storm-*", IX.Range("nope", min=0)) == []

    def test_an_int_beyond_every_float_matches_nothing(self, store_and_docs):
        store, docs = store_and_docs
        assert IX.search(store, "storm-*", IX.Term("offset", 10**400)) == []
        assert len(IX.search(store, "storm-*", IX.Range("offset", max=10**400))) == len(docs)

    def test_query_nesting_is_bounded(self, store_and_docs):
        store, docs = store_and_docs
        query = {"match_all": {}}
        for _ in range(IX.MAX_QUERY_DEPTH - 2):  # an even count of "not"s
            query = {"not": query}
        deepest = {"and": [query]}
        assert len(IX.search(store, "storm-*", IX.query_from_json(deepest))) == len(docs)
        with pytest.raises(ValueError, match=f"^query nests deeper than {IX.MAX_QUERY_DEPTH} "):
            IX.query_from_json({"not": deepest})

    def test_text_term_matches_tokens(self, store_and_docs):
        store, docs = store_and_docs
        hits = IX.search(store, "storm-*", IX.Term("message", "request"))
        assert len(hits) == len(docs)
        hits = IX.search(store, "storm-*", IX.Term("message", "srmRm done"))
        expected = {
            d.id for d in docs if {"srmrm", "done"} <= oracle_tokens(d.fields["message"])
        }
        assert {d.id for d in hits} == expected

    def test_text_postings_follow_upserts_after_first_query(self, store_and_docs, tmp_path):
        store, docs = store_and_docs
        current = {d.id: d for d in docs}
        queries = [
            IX.Term("message", "srmRm done"),
            IX.Term("message", "request 7"),
            IX.Term("message", "zebra"),
            IX.Term("note", "zebra"),
        ]

        def check(st):
            want_docs = list(current.values())
            for q in queries:
                got = IX.search(st, "storm-*", q)
                assert [d.id for d in got] == [d.id for d in oracle_search(want_docs, q)]

        def mutate(st, start):
            # Replacements whose text differs from the old, then new ids.
            for i in range(start, start + 20):
                doc = make_doc(i, message=f"zebra srmRm done {i}", note="zebra crossing")
                current[doc.id] = doc
                IX.index_document(st, doc)
            for i in range(400 + start, 420 + start):
                doc = make_doc(i, message=f"request {i} zebra")
                current[doc.id] = doc
                IX.index_document(st, doc)

        check(store)  # the first text query builds the postings
        mutate(store, 0)
        check(store)
        IX.save_store(store, str(tmp_path))
        reloaded = IX.load_store(str(tmp_path))
        check(reloaded)
        mutate(reloaded, 40)
        check(reloaded)

    def test_time_range_is_half_open(self, store_and_docs):
        store, _ = store_and_docs
        lo, hi = BASE_TS + 10_000, BASE_TS + 20_000
        hits = IX.search(store, "storm-*", IX.MatchAll(), (lo, hi))
        stamps = [d.fields["@timestamp"] for d in hits]
        assert min(stamps) == lo and max(stamps) == hi - 1000

    def test_ranges_and_order_follow_upserts_after_first_query(self, store_and_docs):
        store, docs = store_and_docs
        current = {d.id: d for d in docs}
        queries = [
            (IX.Range("mean_ms", min=10.0, max=40.0), None),
            (IX.Range("mean_ms", min=5.0, max=50.0, include_min=False), None),
            (IX.Range("offset", min=30, max=60, include_max=True), None),
            (IX.Range("offset", min=float("nan"), max=25, include_min=False), None),
            (IX.Range("mean_ms", max=3.0), (BASE_TS + 5_000, BASE_TS + 300_000)),
            (IX.Term("status", "WARN"), (BASE_TS, BASE_TS + 90_000)),
            (IX.Term("action", "srmLs"), None),
            (IX.Term("offset", 45), None),
            (IX.Term("mean_ms", float("nan")), None),
            (IX.Term("retries", 5), None),
            (IX.Range("retries", min=0), None),
        ]

        def check():
            for q, time_range in queries:
                got = IX.search(store, "storm-*", q, time_range)
                want = oracle_search(list(current.values()), q, time_range)
                assert [d.id for d in got] == [d.id for d in want]

        check()  # the first queries build the postings and columns
        # Replacements move documents in time and in value, drop `action`, a
        # NaN value falls in every range but equals no term, a bool is not a
        # number, and new ids share timestamps with old ones.
        for i in range(0, 60, 3):
            doc = make_doc(i, ts=BASE_TS + (200 - i) * 1000, status="WARN",
                           mean_ms=float("nan") if i % 2 else 2.0, offset=45,
                           retries=[5, 5.0, True][i // 3 % 3])
            current[doc.id] = doc
            IX.index_document(store, doc)
        for i in range(500, 520):
            doc = make_doc(i, ts=BASE_TS + (i - 480) * 1000, status="WARN",
                           mean_ms=20.0, offset=i - 480)
            current[doc.id] = doc
            IX.index_document(store, doc)
        check()
        fives = IX.search(store, "storm-*", IX.Term("retries", 5))
        assert {repr(d.fields["retries"]) for d in fives} == {"5", "5.0"}
        assert not IX.search(store, "storm-*", IX.Term("mean_ms", float("nan")))

    def test_random_queries_match_linear_scan(self, store_and_docs):
        store, docs = store_and_docs
        rng = random.Random(31)
        for _ in range(150):
            q = random_query(rng, docs)
            time_range = None
            if rng.random() < 0.3:
                lo = BASE_TS + rng.randrange(0, 300_000)
                time_range = (lo, lo + rng.randrange(1000, 200_000))
            got = IX.search(store, "storm-backend-*", q, time_range)
            want = oracle_search(docs, q, time_range)
            assert [d.id for d in got] == [d.id for d in want]

    def test_upsert_after_snapshot_round_trip_replaces(self, tmp_path):
        # Each id upserted once before a snapshot round trip and once after
        # is replaced rather than duplicated.
        store = IX.Store()
        for i in range(50):
            IX.index_document(store, make_doc(i, status="INFO"))
        IX.save_store(store, str(tmp_path))
        store = IX.load_store(str(tmp_path))
        for i in range(50):
            IX.index_document(store, make_doc(i, status="ERROR"))
        (index,) = store.indices.values()
        assert index.doc_count == 50
        assert len(IX.search(store, "storm-*", IX.Term("status", "ERROR"))) == 50
        assert not IX.search(store, "storm-*", IX.Term("status", "INFO"))


class TestAggregations:
    def test_terms_counts_and_tie_break(self):
        store = IX.Store()
        for i, status in enumerate(["INFO", "INFO", "INFO", "ERROR"]):
            IX.index_document(store, make_doc(i, status=status))
        result = IX.aggregate(store, "storm-*", IX.MatchAll(), IX.TermsAgg("status", 5))
        assert result == [("INFO", 3), ("ERROR", 1)]

    def test_terms_tie_break_is_value_ascending(self):
        store = IX.Store()
        for i, status in enumerate(["B", "A", "C", "A", "B", "C"]):
            IX.index_document(store, make_doc(i, status=status))
        result = IX.aggregate(store, "storm-*", IX.MatchAll(), IX.TermsAgg("status", 2))
        assert result == [("A", 2), ("B", 2)]

    def test_date_histogram_single_bucket(self):
        store = IX.Store()
        for i in range(3):
            IX.index_document(store, make_doc(i, ts=BASE_TS + i * 900))
        result = IX.aggregate(
            store, "storm-*", IX.MatchAll(), IX.DateHistogramAgg(60)
        )
        assert result == [(BASE_TS, 3)]

    def test_date_histogram_utc_alignment(self):
        store = IX.Store()
        IX.index_document(store, make_doc(0, ts=BASE_TS + 59_999))
        IX.index_document(store, make_doc(1, ts=BASE_TS + 60_000))
        result = IX.aggregate(store, "storm-*", IX.MatchAll(), IX.DateHistogramAgg(60))
        assert result == [(BASE_TS, 1), (BASE_TS + 60_000, 1)]

    def test_stats_exact(self, store_and_docs):
        store, docs = store_and_docs
        result = IX.aggregate(store, "storm-*", IX.MatchAll(), IX.StatsAgg("mean_ms"))
        values = [d.fields["mean_ms"] for d in docs]
        assert result["count"] == len(values)
        assert result["min"] == min(values)
        assert result["max"] == max(values)
        assert result["sum"] == math.fsum(values)
        assert result["mean"] == math.fsum(values) / len(values)

    def test_stats_on_non_numeric_field_errors(self, store_and_docs):
        store, _ = store_and_docs
        with pytest.raises(IX.AggregationError):
            IX.aggregate(store, "storm-*", IX.MatchAll(), IX.StatsAgg("status"))

    @pytest.mark.parametrize(
        "agg,message",
        [
            (IX.TermsAgg("status", 0), "top_n must be >= 1"),
            (IX.TermsAgg("status", -1), "top_n must be >= 1"),
            (IX.DateHistogramAgg(0), "interval_seconds must be >= 1"),
            (IX.DateHistogramAgg(-60), "interval_seconds must be >= 1"),
            (IX.GeoGridAgg(0.0), "cell_degrees must be positive"),
            (IX.GeoGridAgg(math.inf), "cell_degrees must be finite"),
            (IX.GeoGridAgg(math.nan), "cell_degrees must be finite"),
        ],
    )
    def test_parameter_out_of_range_errors(self, store_and_docs, agg, message):
        store, _ = store_and_docs
        with pytest.raises(IX.AggregationError, match=message):
            IX.aggregate(store, "storm-*", IX.MatchAll(), agg)

    def test_stats_empty(self):
        result = IX.aggregate(IX.Store(), "storm-*", IX.MatchAll(), IX.StatsAgg("x"))
        assert result == {"count": 0, "min": None, "max": None, "mean": None, "sum": 0.0}

    def test_geo_grid_binning(self):
        store = IX.Store()
        points = [(44.4, 11.3), (44.6, 11.4), (46.2, 6.1), (-1.5, -0.5)]
        for i, (lat, lon) in enumerate(points):
            IX.index_document(store, make_doc(i, geo_lat=lat, geo_lon=lon))
        IX.index_document(store, make_doc(99))  # no geo point
        result = IX.aggregate(store, "storm-*", IX.MatchAll(), IX.GeoGridAgg(1.0))
        assert result == [(44.0, 11.0, 2), (-2.0, -1.0, 1), (46.0, 6.0, 1)]
        assert sum(c for _, _, c in result) == 4

    def test_aggregate_respects_query(self, store_and_docs):
        store, docs = store_and_docs
        result = IX.aggregate(
            store, "storm-*", IX.Term("status", "ERROR"), IX.TermsAgg("action", 10)
        )
        errors = [d for d in docs if d.fields["status"] == "ERROR"]
        assert sum(c for _, c in result) == len(errors)


class TestDeleteAndRetention:
    def _dated_store(self, days):
        store = IX.Store()
        for offset, day in enumerate(days):
            doc = Document(
                id=f"d{offset}",
                fields={"@timestamp": BASE_TS + offset * 86_400_000, "kind": "backend"},
                index_name=f"storm-backend-{day}",
            )
            IX.index_document(store, doc)
        return store

    def test_delete_excludes_from_pattern(self):
        store = self._dated_store(["2024.03.01", "2024.03.02"])
        IX.delete_index(store, "storm-backend-2024.03.01")
        hits = IX.search(store, "storm-backend-*", IX.MatchAll())
        assert [d.index_name for d in hits] == ["storm-backend-2024.03.02"]

    def test_delete_unknown_errors(self):
        with pytest.raises(IX.UnknownIndex):
            IX.delete_index(IX.Store(), "storm-backend-2024.03.01")

    def test_crash_while_removing_a_deleted_index_leaves_no_index(self, tmp_path, monkeypatch):
        root = str(tmp_path)
        IX.save_store(self._dated_store(["2024.03.01", "2024.03.02"]), root)
        store = IX.Store(root=root)
        IX.delete_index(store, "storm-backend-2024.03.01")

        def crash(path, *_args, **_kwargs):
            for leaf in os.listdir(path):
                if leaf.endswith(".seg"):
                    os.remove(os.path.join(path, leaf))
            raise OSError("crash after the segments are removed")

        monkeypatch.setattr(IX.shutil, "rmtree", crash)
        with pytest.raises(OSError):
            IX.save_store(store, root)
        monkeypatch.undo()
        assert IX.index_names(root) == ["storm-backend-2024.03.02"]
        assert list(IX.load_store(root).indices) == ["storm-backend-2024.03.02"]


class TestSnapshot:
    def test_round_trip_preserves_search(self, store_and_docs, tmp_path):
        store, docs = store_and_docs
        IX.save_store(store, str(tmp_path))
        reloaded = IX.load_store(str(tmp_path))
        q = IX.And((IX.Term("status", "INFO"), IX.Range("mean_ms", min=10, max=50)))
        assert [d.id for d in IX.search(store, "storm-*", q)] == [
            d.id for d in IX.search(reloaded, "storm-*", q)
        ]
        assert reloaded.indices[f"storm-backend-{DAY}"].doc_count == len(docs)

    def test_load_with_pattern_filter(self, store_and_docs, tmp_path):
        store, _ = store_and_docs
        IX.save_store(store, str(tmp_path))
        assert IX.load_store(str(tmp_path), "storm-frontend-*").indices == {}

    def test_deleted_index_removed_from_disk(self, store_and_docs, tmp_path):
        store, _ = store_and_docs
        IX.save_store(store, str(tmp_path))
        IX.delete_index(store, f"storm-backend-{DAY}")
        IX.save_store(store, str(tmp_path))
        assert IX.load_store(str(tmp_path)).indices == {}

    def test_save_after_partial_load_keeps_other_indices(self, store_and_docs, tmp_path):
        store, docs = store_and_docs
        frontend = Document(
            id="fe1", fields={"@timestamp": BASE_TS, "kind": "frontend"},
            index_name=f"storm-frontend-{DAY}",
        )
        IX.index_document(store, frontend)
        IX.save_store(store, str(tmp_path))
        partial = IX.load_store(str(tmp_path), "storm-frontend-*")
        assert list(partial.indices) == [f"storm-frontend-{DAY}"]
        IX.index_document(partial, Document(
            id="fe2", fields={"@timestamp": BASE_TS + 1, "kind": "frontend"},
            index_name=f"storm-frontend-{DAY}",
        ))
        IX.save_store(partial, str(tmp_path))
        reloaded = IX.load_store(str(tmp_path))
        assert reloaded.indices[f"storm-backend-{DAY}"].doc_count == len(docs)
        assert reloaded.indices[f"storm-frontend-{DAY}"].doc_count == 2

    def test_first_write_loads_the_index_from_disk(self, store_and_docs, tmp_path):
        store, docs = store_and_docs
        IX.save_store(store, str(tmp_path))
        for fresh in (IX.Store(root=str(tmp_path)), IX.load_store(str(tmp_path), "storm-x-*")):
            IX.index_document(fresh, make_doc(0, status="ERROR"))
            IX.index_document(fresh, make_doc(len(docs), status="ERROR"))
            IX.save_store(fresh, str(tmp_path))
            reloaded = IX.load_store(str(tmp_path))
            assert reloaded.indices[f"storm-backend-{DAY}"].doc_count == len(docs) + 1
            hits = IX.search(reloaded, "storm-*", IX.Term("id", docs[0].id))
            assert [d.fields["status"] for d in hits] == ["ERROR"]

    def test_deleted_index_is_not_reopened_by_a_write(self, store_and_docs, tmp_path):
        store, _ = store_and_docs
        IX.save_store(store, str(tmp_path))
        reloaded = IX.load_store(str(tmp_path))
        IX.delete_index(reloaded, f"storm-backend-{DAY}")
        IX.index_document(reloaded, make_doc(1))
        assert reloaded.indices[f"storm-backend-{DAY}"].doc_count == 1
        IX.save_store(reloaded, str(tmp_path))
        assert IX.load_store(str(tmp_path)).indices[f"storm-backend-{DAY}"].doc_count == 1


def odd_doc(i, **changes):
    """A document whose values test the snapshot's round trip: ints beside
    floats, NaN, bools, None, an int in a keyword field, non-ASCII text,
    sparse geo fields and, for some ids, another key order."""
    fields = {
        "@timestamp": BASE_TS + i * 7, "kind": "backend", "offset": i,
        "status": ["INFO", "ERROR", None, 500][i % 4],
        "message": f"naïve Ωmega 東京 request {i}",
        "user_dn": f"/C=IT/O=Ünïvèrsità/CN=user{i % 17}",
        "mean_ms": float("nan") if i % 13 == 0 else (i / 3 if i % 2 else i),
    }
    if i % 5 == 0:
        fields.update(geo_lat=41.9 + i % 3, geo_lon=-12.5, geo_label="IT/Roma")
    if i % 7 == 0:
        fields["sync_performed"] = i % 2 == 0
    if i % 11 == 0:
        fields["result"] = True
    fields.update(changes)
    if i % 9 == 0:
        fields = dict(reversed(fields.items()))
    return Document(id=f"odd{i:05d}", fields=fields, index_name=f"storm-backend-{DAY}")


def shard_state(index):
    """Per shard and id: the document's fields, compared by repr so that NaN
    equals NaN and 1 differs from 1.0 and True. Checks on the way that
    `by_id` covers exactly the live ordinals, that a replaced ordinal holds
    None in every column, and that every live document comes back with its
    @timestamp and index name; the field indexes derive from the columns and
    are left to queries to check."""
    state = {}
    for n, shard in enumerate(index.shards):
        ords = set(range(len(shard.ids)))
        live = set(shard.by_id.values())
        assert len(live) == len(shard.by_id) and live <= ords
        assert all(shard.ids[o] == doc_id for doc_id, o in shard.by_id.items())
        entries = shard.hit_entries(live, index.name)  # decodes every pending column
        assert not shard.pending
        for column in shard.columns.values():
            assert len(column) == len(shard.ids)
            assert all(column[o] is None for o in ords - live)
        for ts, doc_id, name, doc in map(entries.__getitem__, live):
            assert (doc.id, doc.index_name, ts) == (doc_id, name, doc.fields["@timestamp"])
            assert name == index.name
            state[n, doc_id] = repr(sorted(doc.fields.items()))
    return state


def write_json_lines_segment(path, name, docs, format_):
    """Write `docs` by hand under `path` as an index of the format-2 and
    format-3 layout: one zlib stream of JSON lines, a group line `[keys,
    ids]` per shape followed by one plain array per key."""
    groups = {}
    for doc in docs:
        groups.setdefault(tuple(doc.fields), []).append(doc)
    lines = []
    for names, group in groups.items():
        keys = sorted(names)
        lines.append([keys, [d.id for d in group]])
        lines += [[d.fields[key] for d in group] for key in keys]
    path.mkdir()
    text = "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines)
    (path / "1.seg").write_bytes(zlib.compress(text.encode("utf-8"), 1))
    (path / "manifest.json").write_text(json.dumps({
        "format": format_, "name": name, "doc_count": len(docs), "segments": ["1.seg"]}))


def write_two_segments(path, name, first, later):
    """Write each batch of documents as its own segment of one index."""
    path.mkdir()
    for segment, batch in (("1.seg", first), ("2.seg", later)):
        part = IX.Store()
        IX.index_documents(part, batch)
        IX._write_segment(part.indices[name].shards[0], str(path / segment))
    doc_count = len({d.id for d in first + later})
    (path / "manifest.json").write_text(json.dumps({
        "format": IX.SNAPSHOT_FORMAT, "name": name, "doc_count": doc_count,
        "segments": ["1.seg", "2.seg"]}))


class TestSegments:
    NAME = f"storm-backend-{DAY}"

    def test_load_rebuilds_the_upsert_built_state(self, tmp_path):
        root = str(tmp_path)
        store = IX.Store()
        current = {}
        for i in range(9000):
            doc = odd_doc(i)
            current[doc.id] = doc
            IX.index_document(store, doc)
        for i in range(0, 9000, 10):
            doc = odd_doc(i, status="WARN", message=None, extra=i)
            del doc.fields["user_dn"]
            current[doc.id] = doc
            IX.index_document(store, doc)
        IX.save_store(store, root)
        reloaded = IX.load_store(root)
        index = reloaded.indices[self.NAME]
        assert min(len(shard.by_id) for shard in index.shards) > IX._BLOCK_DOCS
        assert all(len(shard.ids) == len(shard.by_id) for shard in index.shards)
        assert shard_state(index) == shard_state(store.indices[self.NAME])

        # The loaded state keeps working: text postings, upserts, queries.
        text = IX.Term("message", "naïve request 12")
        assert len(IX.search(reloaded, "storm-*", text)) == 1
        for i in range(8990, 9100):
            doc = odd_doc(i, message=f"zebra naïve {i}", status="INFO")
            current[doc.id] = doc
            IX.index_document(reloaded, doc)
        docs = list(current.values())
        rng = random.Random(23)
        queries = [text, IX.Term("message", "zebra"), IX.Term("status", 500),
                   IX.Term("user_dn", "/C=IT/O=Ünïvèrsità/CN=user3"),
                   IX.Range("mean_ms", min=100, max=200)]
        queries += [random_query(rng, docs) for _ in range(60)]
        for q in queries:
            got = IX.search(reloaded, "storm-*", q)
            hits = oracle_search(docs, q)
            assert [d.id for d in got] == [d.id for d in hits]
            counts = Counter(d.fields["status"] for d in hits if d.fields["status"] is not None)
            want = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[:3]
            assert IX.aggregate(reloaded, "storm-*", q, IX.TermsAgg("status", 3)) == want
            stats = IX.aggregate(reloaded, "storm-*", q, IX.StatsAgg("offset"))
            assert (stats["count"], stats["sum"]) == (
                len(hits), math.fsum(d.fields["offset"] for d in hits))

    def test_failed_manifest_replace_keeps_the_previous_snapshot(
        self, store_and_docs, tmp_path, monkeypatch
    ):
        store, docs = store_and_docs
        root = str(tmp_path)
        path = os.path.join(root, self.NAME)
        IX.save_store(store, root)
        committed = sorted(os.listdir(path))
        for i in range(len(docs), len(docs) + 50):
            IX.index_document(store, make_doc(i, status="ERROR"))

        def crash(*_args):
            raise OSError("crash before the manifest is replaced")

        monkeypatch.setattr(IX.os, "replace", crash)
        with pytest.raises(OSError):
            IX.save_store(store, root)
        monkeypatch.undo()
        previous = IX.load_store(root).indices[self.NAME]
        assert previous.doc_count == len(docs)
        assert not IX.search(IX.load_store(root), "storm-*", IX.Term("id", make_doc(len(docs)).id))

        IX.save_store(store, root)
        assert IX.load_store(root).indices[self.NAME].doc_count == len(docs) + 50
        with open(os.path.join(path, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert sorted(os.listdir(path)) == sorted(["manifest.json", *manifest["segments"]])
        assert not set(manifest["segments"]) & set(committed)

    def test_a_later_segment_replaces_the_ids_it_repeats(self, tmp_path):
        # Segments written per batch repeat an id when a batch is replayed.
        docs = make_corpus(n=300, seed=13)
        later = [make_doc(i, status="REPLAYED", offset=-i) for i in range(100, 200)]
        later += [make_doc(i, status="REPLAYED", offset=i) for i in range(300, 320)]
        write_two_segments(tmp_path / self.NAME, self.NAME, docs, later)
        loaded = IX.load_store(str(tmp_path))
        current = list({d.id: d for d in docs + later}.values())

        assert loaded.indices[self.NAME].doc_count == len(current) == 320
        got = IX.search(loaded, "storm-*", IX.MatchAll())
        assert [(d.id, d.fields) for d in got] == [
            (d.id, d.fields) for d in oracle_search(current, IX.MatchAll())]
        for q in (IX.Term("status", "REPLAYED"), IX.Term("action", "srmLs"),
                  IX.Range("offset", max=150), IX.Term("message", "request done")):
            assert [d.id for d in IX.search(loaded, "storm-*", q)] == [
                d.id for d in oracle_search(current, q)]

    def test_format_2_and_format_3_manifests_are_refused(self, tmp_path):
        docs = [odd_doc(i) for i in range(30)]
        for format_ in (2, 3):
            root = tmp_path / f"format-{format_}"
            root.mkdir()
            write_json_lines_segment(root / self.NAME, self.NAME, docs, format_)
            with pytest.raises(IX.StoreError, match=(
                    f"{self.NAME}: not a format-4 snapshot.*re-ingest.*fresh store")):
                IX.load_store(str(root))

    def test_a_format_2_segment_answers_as_before(self, tmp_path):
        # A format-2 segment is refused; its documents, re-ingested as the
        # message asks, answer from a format-4 snapshot as an in-memory store.
        docs = [odd_doc(i) for i in range(300)]
        (tmp_path / "old").mkdir()
        write_json_lines_segment(tmp_path / "old" / self.NAME, self.NAME, docs, 2)
        with pytest.raises(IX.StoreError, match=f"{self.NAME}.*re-ingest"):
            IX.load_store(str(tmp_path / "old"))
        fresh = IX.Store()
        IX.index_documents(fresh, docs)
        IX.save_store(fresh, str(tmp_path / "new"))
        loaded = IX.load_store(str(tmp_path / "new"))
        whole = IX.Store()
        IX.index_documents(whole, docs)

        for q in (IX.MatchAll(), IX.Term("message", "naïve request 12"),
                  IX.Term("status", 500), IX.Range("mean_ms", min=10, max=60)):
            for agg in (IX.TermsAgg("user_dn", 5), IX.StatsAgg("offset"),
                        IX.DateHistogramAgg(60), IX.GeoGridAgg(1.0)):
                assert IX.aggregate(loaded, "storm-*", q, agg) == (
                    IX.aggregate(whole, "storm-*", q, agg))
            assert [d.id for d in IX.search(loaded, "storm-*", q)] == [
                d.id for d in oracle_search(docs, q)]
        assert shard_state(loaded.indices[self.NAME]) == shard_state(whole.indices[self.NAME])

    def test_a_store_of_format_2_and_format_3_days(self, tmp_path):
        # A store whose older days are format 2 and 3 is refused; once those
        # days are re-ingested beside its format-4 day, all three answer, and
        # a write to a re-ingested day keeps it in format 4.
        day2, day3 = "storm-backend-2024.03.02", "storm-backend-2024.03.03"

        def shifted(docs, name, days):
            return [Document(id=f"{name[-2:]}-{i:04d}", index_name=name, fields={
                **d.fields, "@timestamp": d.fields["@timestamp"] + days * 86_400_000})
                for i, d in enumerate(docs)]

        old = make_corpus(n=200, seed=19)
        new = shifted(make_corpus(n=200, seed=23), day2, 1)
        older = shifted(make_corpus(n=150, seed=29), day3, 2)
        write_json_lines_segment(tmp_path / self.NAME, self.NAME, old, 2)
        write_json_lines_segment(tmp_path / day3, day3, older, 3)
        store = IX.Store()
        IX.index_documents(store, new)
        IX.save_store(store, str(tmp_path))
        with pytest.raises(IX.StoreError, match="not a format-4 snapshot.*re-ingest"):
            IX.load_store(str(tmp_path))

        def manifest_format(name):
            return json.loads((tmp_path / name / "manifest.json").read_text())["format"]

        def assert_answers(current):
            loaded = IX.load_store(str(tmp_path))
            for q in (IX.MatchAll(), IX.Term("status", "ERROR"), IX.Term("action", "srmLs"),
                      IX.Term("message", "srmRm done"), IX.Range("offset", min=50, max=120)):
                hits = oracle_search(current, q)
                counts = Counter(d.fields["action"] for d in hits)
                want = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
                assert IX.aggregate(loaded, "storm-*", q, IX.TermsAgg("action", 9)) == want
                got = IX.search(loaded, "storm-*", q)
                assert [(d.id, d.fields) for d in got] == [(d.id, d.fields) for d in hits]

        for name in (self.NAME, day3):
            shutil.rmtree(tmp_path / name)
        reingest = IX.Store(str(tmp_path))
        IX.index_documents(reingest, old + older)
        IX.save_store(reingest, str(tmp_path))
        assert {manifest_format(n) for n in (self.NAME, day2, day3)} == {IX.SNAPSHOT_FORMAT}
        assert_answers(old + new + older)

        extra = make_doc(500, status="ERROR", action="srmLs", message="late srmLs",
                         mean_ms=1.5, offset=500)
        appended = IX.Store(str(tmp_path))
        IX.index_documents(appended, [extra])
        IX.save_store(appended, str(tmp_path))
        assert manifest_format(self.NAME) == IX.SNAPSHOT_FORMAT
        assert_answers(old + new + older + [extra])

    def test_old_docs_jsonl_layout_is_refused(self, tmp_path):
        path = tmp_path / self.NAME
        path.mkdir()
        (path / "manifest.json").write_text(
            json.dumps({"name": self.NAME, "shard_count": 2, "doc_count": 1}))
        (path / "docs.jsonl").write_text(
            json.dumps({"id": "a", "fields": {"@timestamp": BASE_TS}}) + "\n")
        with pytest.raises(IX.StoreError, match=f"{self.NAME}.*re-ingest.*fresh store"):
            IX.load_store(str(tmp_path))

    def test_truncated_segment_is_reported_as_corrupt(self, store_and_docs, tmp_path):
        store, _ = store_and_docs
        IX.save_store(store, str(tmp_path))
        path = tmp_path / self.NAME
        segment = next(p for p in path.iterdir() if p.name != "manifest.json")
        segment.write_bytes(segment.read_bytes()[:-40])
        with pytest.raises(IX.StoreError, match=f"snapshot corrupt for {self.NAME}"):
            IX.load_store(str(tmp_path))


DAY_MS = 86_400_000
D1, D2, D3 = BASE_TS, BASE_TS + DAY_MS, BASE_TS + 2 * DAY_MS
DAY_NAMES = {1: "storm-backend-2024.03.01", 2: "storm-backend-2024.03.02",
             3: "storm-backend-2024.03.03"}
UNDATED = "storm-backend-archive"
NAN = float("nan")


def count_documents(monkeypatch):
    """Record the id of every `Document` the index module builds from here on."""
    built = []
    real = IX.Document

    def counting(*args, **kwargs):
        doc = real(*args, **kwargs)
        built.append(doc.id)
        return doc

    monkeypatch.setattr(IX, "Document", counting)
    return built


class TestLazyColumns:
    """A load decodes each group's ids and leaves its columns as compressed
    streams, decoded on the column's first read."""

    NAME = f"storm-backend-{DAY}"

    def test_a_terms_aggregation_decodes_only_its_field(self, tmp_path, monkeypatch):
        store = IX.Store()
        IX.index_documents(store, [odd_doc(i, action=["srmLs", "srmRm"][i % 3 % 2])
                                   for i in range(5000)])
        IX.save_store(store, str(tmp_path))
        decoded = []
        real = IX._decode_stream
        monkeypatch.setattr(IX, "_decode_stream",
                            lambda *args: decoded.append(args) or real(*args))
        loaded = IX.load_store(str(tmp_path))
        shard = loaded.indices[self.NAME].shards[0]
        assert (decoded, shard.columns, shard.memos["action"]) == ([], {}, {})
        fields = set(shard.pending)
        agg = IX.TermsAgg("action", 5)
        want = IX.aggregate(store, "storm-*", IX.MatchAll(), agg)
        assert IX.aggregate(loaded, "storm-*", IX.MatchAll(), agg) == want == [
            ("srmLs", 3333), ("srmRm", 1667)]
        assert list(shard.columns) == ["action"]
        assert shard.pending.keys() == fields - {"action"}
        assert len(decoded) == len(read_segment(tmp_path / self.NAME / "1.seg"))

    def test_two_segments_filled_lazily_equal_a_full_read(self, tmp_path):
        first = [odd_doc(i) for i in range(5000)]
        later = [odd_doc(i, status="REPLAYED", mean_ms=-1.0) for i in range(4000, 4600)]
        later += [odd_doc(i, status="LATE", extra=i) for i in range(6000, 6100)]
        write_two_segments(tmp_path / self.NAME, self.NAME, first, later)
        # The full read appends each group's decoded columns with
        # `Shard.extend`, as a load did before columns were read on their own.
        full = IX.Shard()
        for segment in ("1.seg", "2.seg"):
            for keys, ids, lines in read_segment(tmp_path / self.NAME / segment):
                full.extend(tuple(keys), ids, [
                    [*map(line["d"].__getitem__, line["i"])] if type(line) is dict else line
                    for line in lines])
        whole = IX.Store()
        whole.indices[self.NAME] = IX.TimeIndex(self.NAME)
        whole.indices[self.NAME].shards[0] = full

        loaded = IX.load_store(str(tmp_path))
        shard = loaded.indices[self.NAME].shards[0]
        assert (shard.ids, shard.shapes, shard.by_id) == (full.ids, full.shapes, full.by_id)
        assert shard.pending.keys() == full.columns.keys()
        for q in (IX.Term("status", "REPLAYED"), IX.Range("extra", min=6050),
                  IX.Term("message", "request 4321"), IX.MatchAll()):
            got, want = IX.search(loaded, "storm-*", q), IX.search(whole, "storm-*", q)
            assert [(d.id, repr(d.fields)) for d in got] == [
                (d.id, repr(d.fields)) for d in want]
        assert not shard.pending
        assert {field: repr(column) for field, column in shard.columns.items()} == {
            field: repr(column) for field, column in full.columns.items()}
        for agg in (IX.TermsAgg("status", 9), IX.StatsAgg("mean_ms"), IX.GeoGridAgg(1.0)):
            again = IX.load_store(str(tmp_path))
            assert repr(IX.aggregate(again, "storm-*", IX.MatchAll(), agg)) == repr(
                IX.aggregate(whole, "storm-*", IX.MatchAll(), agg))

    def test_a_write_to_a_loaded_day_decodes_every_column_first(self, tmp_path):
        store = IX.Store()
        IX.index_documents(store, make_corpus(n=300))
        IX.save_store(store, str(tmp_path))
        appended = IX.Store(str(tmp_path))
        late = [make_doc(7, status="LATE", extra=1.5), make_doc(400, status="INFO")]
        IX.index_documents(appended, late)
        IX.index_documents(store, late)
        shard = appended.indices[self.NAME].shards[0]
        assert not shard.pending
        # A dictionary on disk stays one, though the write alone, two
        # distinct values, would not share them.
        assert shard.memos["status"] == {"LATE": "LATE", "INFO": "INFO"}
        assert shard_state(appended.indices[self.NAME]) == shard_state(store.indices[self.NAME])

    def test_a_damaged_stream_fails_each_read_of_its_column(self, tmp_path):
        store = IX.Store()
        IX.index_documents(store, [odd_doc(i) for i in range(300)])
        IX.save_store(store, str(tmp_path))
        segment = tmp_path / self.NAME / "1.seg"
        data = bytearray(segment.read_bytes())
        header = json.loads(data[int.from_bytes(data[-8:], "little"):-8])
        offset, length = header[0]["columns"][header[0]["keys"].index("offset")]
        data[offset + 2:offset + length] = bytes(length - 2)
        segment.write_bytes(bytes(data))
        loaded = IX.load_store(str(tmp_path))
        assert IX.aggregate(loaded, "storm-*", IX.MatchAll(), IX.StatsAgg("mean_ms"))["count"]
        for _ in range(2):
            with pytest.raises(IX.StoreError, match=(
                    f"snapshot corrupt for {self.NAME}: column 'offset'")):
                IX.aggregate(loaded, "storm-*", IX.MatchAll(), IX.StatsAgg("offset"))
            assert "offset" in loaded.indices[self.NAME].shards[0].pending


class TestColumns:
    def test_load_and_aggregations_build_no_document(self, store_and_docs, tmp_path,
                                                     monkeypatch):
        store, _ = store_and_docs
        IX.save_store(store, str(tmp_path))
        built = count_documents(monkeypatch)
        loaded = IX.load_store(str(tmp_path))
        q = IX.Term("status", "ERROR")
        for agg in (IX.TermsAgg("action", 3), IX.DateHistogramAgg(60),
                    IX.StatsAgg("mean_ms"), IX.GeoGridAgg(1.0)):
            want = IX.aggregate(store, "storm-*", q, agg)
            assert IX.aggregate(loaded, "storm-*", q, agg) == want
        spec = metrics.MetricSpec("storm-*", q, "max", "mean_ms", 60)
        window = (BASE_TS, BASE_TS + 600_000)
        want = metrics.build_series(store, spec, *window)
        assert metrics.build_series(loaded, spec, *window) == want
        assert built == []

    def test_search_builds_a_hit_document_once_until_the_next_write(
        self, store_and_docs, tmp_path, monkeypatch
    ):
        store, docs = store_and_docs
        IX.save_store(store, str(tmp_path))
        loaded = IX.load_store(str(tmp_path))
        built = count_documents(monkeypatch)
        error = IX.Term("status", "ERROR")
        either = IX.Or((error, IX.Term("status", "WARN")))
        first = IX.search(loaded, "storm-*", error)
        both = IX.search(loaded, "storm-*", either)
        assert IX.search(loaded, "storm-*", error) == first
        assert sorted(built) == sorted(d.id for d in both)
        assert [(d.id, d.fields) for d in both] == [
            (d.id, d.fields) for d in oracle_search(docs, either)]
        same = {d.id: d for d in both}
        assert all(same[d.id] is d for d in first)

        built.clear()
        IX.index_document(loaded, make_doc(len(docs), status="ERROR"))
        again = IX.search(loaded, "storm-*", error)
        assert sorted(built) == sorted(d.id for d in again) == sorted(
            [make_doc(len(docs)).id, *(d.id for d in first)])

    def test_saving_a_loaded_index_again_writes_the_same_segment(self, tmp_path):
        # Replaced documents, and a field that first appears after
        # thousands of writes, leave holes in the columns.
        store = IX.Store()
        for i in range(6000):
            extra = {"retries": i % 4} if i >= 3000 else {}
            IX.index_document(store, make_doc(i, status="INFO", message=f"m {i}", **extra))
        for i in range(0, 6000, 7):
            IX.index_document(store, make_doc(i, status="WARN", geo_label="IT/Roma"))
        first, second = tmp_path / "first", tmp_path / "second"
        IX.save_store(store, str(first))
        loaded = IX.load_store(str(first))
        loaded.indices[TestSegments.NAME].dirty = True
        IX.save_store(loaded, str(second))
        segment = f"{TestSegments.NAME}/1.seg"
        assert (first / segment).read_bytes() == (second / segment).read_bytes()


class TestDayPruning:
    """A time range loads and searches exactly the days it overlaps.

    Each case lists the days of `DAY_NAMES` it must load and the days it
    covers whole, which are queried without the time range; the undated
    index and no index outside the name pattern are loaded for every range.
    """

    CASES = {
        "straddles_midnight": ((D2 - 1000, D2 + 1000), {1, 2}, set()),
        "ends_at_midnight_exclusive": ((D1 + 3_600_000, D2), {1}, set()),
        "starts_at_235959999": ((D2 - 1, D3), {1, 2}, {2}),
        "whole_day": ((D2, D3), {2}, {2}),
        "ends_at_235959999": ((D2, D3 - 1), {2}, set()),
        "open_start": ((None, D2), {1}, {1}),
        "open_end": ((D3 - 1, None), {2, 3}, {3}),
        "open_both": ((None, None), {1, 2, 3}, {1, 2, 3}),
        "nan_start": ((NAN, D2), {1}, set()),
        "nan_start_whole_days": ((NAN, D3), {1, 2}, set()),
        "nan_end": ((D2, NAN), {2, 3}, set()),
        "nan_both": ((NAN, NAN), {1, 2, 3}, set()),
        "inverted": ((D3, D2), set(), set()),
        "after_the_last_day": ((D3 + DAY_MS, None), set(), set()),
    }

    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("days"))
        rng = random.Random(17)
        store = IX.Store()
        docs = []
        n = 0
        for day, start in ((1, D1), (2, D2), (3, D3)):
            for offset in (0, 1, 3_600_000, 43_200_000, DAY_MS - 2, DAY_MS - 1):
                docs.append(Document(
                    id=f"d{n:04d}", index_name=DAY_NAMES[day],
                    fields={"@timestamp": start + offset, "kind": "backend",
                            "status": rng.choice(["INFO", "ERROR"])},
                ))
                n += 1
        # An undated index holds any timestamp, so no range may skip it.
        for ts in (D1 - 1, D1, D2 - 1, D2, D3 + DAY_MS + 5):
            docs.append(Document(
                id=f"d{n:04d}", index_name=UNDATED,
                fields={"@timestamp": ts, "kind": "backend",
                        "status": rng.choice(["INFO", "ERROR"])},
            ))
            n += 1
        other = Document(id="fe", index_name="storm-frontend-2024.03.02",
                         fields={"@timestamp": D2, "kind": "frontend", "status": "INFO"})
        for doc in docs + [other]:
            IX.index_document(store, doc)
        IX.save_store(store, root)
        return root, docs

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pruned_load_and_search_are_exact(self, snapshot, case):
        root, docs = snapshot
        time_range, days, whole = self.CASES[case]
        pattern = "storm-backend-*"
        pruned = IX.load_store(root, pattern, time_range)
        assert set(pruned.indices) == {DAY_NAMES[d] for d in days} | {UNDATED}

        full = IX.load_store(root)
        shards = list(IX._matches(full, pattern, IX.MatchAll(), time_range))
        assert len(shards) == len(pruned.indices)
        # Only a dated index whose whole day the range covers is queried
        # without it, and so matches its shard's live set.
        assert {name for name, shard, hits in shards if hits is shard.live} == {
            DAY_NAMES[d] for d in whole}

        for q in (IX.MatchAll(), IX.Term("status", "ERROR")):
            hits = oracle_search(docs, q, time_range)
            want = [(d.index_name, d.id) for d in hits]
            for st in (pruned, full):
                got = IX.search(st, pattern, q, time_range)
                assert [(d.index_name, d.id) for d in got] == want
            buckets = Counter(d.fields["@timestamp"] // 3_600_000 * 3_600_000 for d in hits)
            statuses = Counter(d.fields["status"] for d in hits)
            stamps = [d.fields["@timestamp"] for d in hits]
            for st in (pruned, full):
                got = IX.aggregate(st, pattern, q, IX.DateHistogramAgg(3600), time_range)
                assert got == sorted(buckets.items())
                got = IX.aggregate(st, pattern, q, IX.TermsAgg("status", 5), time_range)
                assert got == sorted(statuses.items(), key=lambda kv: (-kv[1], kv[0]))
                got = IX.aggregate(st, pattern, q, IX.StatsAgg("@timestamp"), time_range)
                assert (got["count"], got["min"], got["max"]) == (
                    len(stamps), min(stamps, default=None), max(stamps, default=None))


def oracle_aggregate(docs, q, agg, time_range=None):
    """The aggregation by a linear scan of the documents `q` matches."""
    hits = oracle_search(docs, q, time_range)
    if isinstance(agg, IX.TermsAgg):
        counts = Counter(d.fields[agg.field] for d in hits
                         if d.fields.get(agg.field) is not None)
        return sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[: agg.top_n]
    if isinstance(agg, IX.DateHistogramAgg):
        span = agg.interval_seconds * 1000
        return sorted(Counter(d.fields["@timestamp"] // span * span for d in hits).items())
    if isinstance(agg, IX.StatsAgg):
        values = [d.fields.get(agg.field) for d in hits]
        values = [v for v in values if v is not None]
        if any(type(v) not in (int, float) for v in values):
            raise IX.AggregationError(agg.field)
        if not values:
            return {"count": 0, "min": None, "max": None, "mean": None, "sum": 0.0}
        total = math.fsum(values)
        return {"count": len(values), "min": float(min(values)), "max": float(max(values)),
                "mean": total / len(values), "sum": total}
    cell = agg.cell_degrees
    cells = Counter(
        (math.floor(d.fields["geo_lat"] / cell), math.floor(d.fields["geo_lon"] / cell))
        for d in hits
        if d.fields.get("geo_lat") is not None and d.fields.get("geo_lon") is not None)
    ranked = sorted(cells.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(la * cell, lo * cell, n) for (la, lo), n in ranked]


class TestAggregationOracle:
    """Every aggregation kind equals a linear scan, on random documents."""

    BEFORE = "storm-agg-1969.12.31"  # replaced ids leave dead ordinals here
    AFTER = "storm-agg-1970.01.01"
    ARCHIVE = "storm-agg-archive"
    AGGS = (
        IX.TermsAgg("status", 1), IX.TermsAgg("status", 3),
        *map(IX.DateHistogramAgg, (1, 7, 60, 3600, 86_400)),
        IX.StatsAgg("size"), IX.StatsAgg("geo_lat"), IX.StatsAgg("absent"), IX.StatsAgg("flag"),
        *map(IX.GeoGridAgg, (0.25, 1.0, 5.0)),
    )

    @staticmethod
    def random_doc(rng, id_, index_name, ts):
        fields = {"@timestamp": ts}
        if rng.random() < 0.8:
            fields["status"] = rng.choice(["INFO", "WARN", "ERROR"])
        if rng.random() < 0.8:
            fields["size"] = rng.choice([rng.randrange(-50, 50), rng.uniform(-50, 50)])
        if rng.random() < 0.1:
            fields["flag"] = rng.choice([0, 1.5])
        if rng.random() < 0.7:
            fields["geo_lat"] = rng.choice([-0.0, 0.0, -12.5, rng.uniform(-90, 90)])
            if rng.random() < 0.8:
                fields["geo_lon"] = rng.choice([-0.0, -179.9, rng.uniform(-180, 180), 7])
        return Document(id=id_, fields=fields, index_name=index_name)

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        rng = random.Random(41)
        live = {}
        store = IX.Store()
        for i in range(600):
            name = (self.BEFORE, self.AFTER, self.ARCHIVE)[i % 3]
            if name == self.BEFORE:
                ts = rng.randrange(-DAY_MS, 0)
            elif name == self.AFTER:
                ts = rng.randrange(0, DAY_MS)
            else:
                ts = rng.randrange(-3 * DAY_MS, 3 * DAY_MS)
            doc = self.random_doc(rng, f"{name[-5:]}-{i:04d}", name, ts)
            live[doc.id] = doc
            IX.index_document(store, doc)
        # Stats over "flag" raise wherever this document matches.
        flagged = Document(id="flagged", index_name=self.AFTER,
                           fields={"@timestamp": 5, "status": "INFO", "flag": True})
        live[flagged.id] = flagged
        IX.index_document(store, flagged)
        for old in rng.sample([d for d in live.values() if d.index_name == self.BEFORE], 60):
            doc = self.random_doc(rng, old.id, old.index_name, rng.randrange(-DAY_MS, 0))
            live[doc.id] = doc
            IX.index_document(store, doc)
        root = str(tmp_path_factory.mktemp("aggs"))
        IX.save_store(store, root)
        loaded = IX.load_store(root)
        before = store.indices[self.BEFORE]
        assert len(before.shards[0].ids) > before.doc_count
        assert all(len(index.shards[0].ids) == index.doc_count
                   for index in loaded.indices.values())
        return {"fresh": store, "loaded": loaded}, list(live.values())

    @pytest.mark.parametrize("which", ["fresh", "loaded"])
    def test_every_kind_equals_a_linear_scan(self, stores, which):
        by_name, docs = stores
        store = by_name[which]
        queries = (IX.MatchAll(), IX.Term("status", "ERROR"), IX.Not(IX.Term("status", "INFO")),
                   IX.Range("size", min=-10, max=10.5))
        ranges = (None, (-DAY_MS, DAY_MS), (-DAY_MS // 2, DAY_MS // 3), (None, 0), (NAN, None))
        for q in queries:
            for time_range in ranges:
                for agg in self.AGGS:
                    try:
                        want = oracle_aggregate(docs, q, agg, time_range)
                    except IX.AggregationError:  # stats over a bool
                        with pytest.raises(IX.AggregationError):
                            IX.aggregate(store, "storm-agg-*", q, agg, time_range)
                        continue
                    got = IX.aggregate(store, "storm-agg-*", q, agg, time_range)
                    assert got == want, (q, time_range, agg)

    def test_kept_counts_follow_every_write(self):
        """Terms and geo grids asked twice, over whole shards (kept counts)
        and partial hit sets, equal a linear scan before and after each
        kind of write."""
        rng = random.Random(43)
        aggs = (IX.TermsAgg("status", 2), IX.TermsAgg("status", 5),
                IX.GeoGridAgg(1.0), IX.GeoGridAgg(10.0))
        live = {}
        store = IX.Store()

        def write(docs):
            live.update((doc.id, doc) for doc in docs)
            IX.index_documents(store, docs)

        def check():
            docs = list(live.values())
            for q in (IX.MatchAll(), IX.Term("status", "WARN")):
                for time_range in (None, (-DAY_MS, 2 * DAY_MS), (-DAY_MS // 2, DAY_MS // 3)):
                    for agg in aggs:
                        want = oracle_aggregate(docs, q, agg, time_range)
                        for _ in range(2):
                            got = IX.aggregate(store, "storm-agg-*", q, agg, time_range)
                            assert got == want, (q, time_range, agg)
            assert all(index.shards[0].counts for index in store.indices.values())

        def day_doc(id_, name):
            start = IX._day_bounds(name)[0] if name != self.ARCHIVE else -3 * DAY_MS
            span = DAY_MS if name != self.ARCHIVE else 6 * DAY_MS
            return self.random_doc(rng, id_, name, start + rng.randrange(span))

        names = (self.BEFORE, self.AFTER, self.ARCHIVE)
        write([day_doc(f"d{i:04d}", names[i % 3]) for i in range(300)])
        check()
        replaced = rng.sample(sorted(live), 60)
        write([day_doc(id_, live[id_].index_name) for id_ in replaced])
        check()
        ts = 1000
        write([
            *(day_doc(f"n{i:04d}", names[i % 3]) for i in range(30)),
            Document("no-fields", {"@timestamp": ts}, self.AFTER),
            Document("null-status", {"@timestamp": ts, "status": None}, self.AFTER),
            Document("null-lat", {"@timestamp": ts, "geo_lat": None, "geo_lon": 1.5}, self.AFTER),
            Document("null-lon", {"@timestamp": ts, "geo_lat": 2.5, "geo_lon": None}, self.AFTER),
            Document("null-both", {"@timestamp": ts, "status": None, "geo_lat": None,
                                   "geo_lon": None}, self.ARCHIVE),
        ])
        check()
        write([day_doc(f"x{i:04d}", "storm-agg-1970.01.02") for i in range(40)])
        check()
