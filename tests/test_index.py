import json
import math
import os
import random
from collections import Counter

import pytest

from helpers import oracle_search, oracle_tokens, random_query
from stormwatch import index as IX
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
        with pytest.raises(IX.MissingTimestamp):
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
        ]

        def check():
            for q, time_range in queries:
                got = IX.search(store, "storm-*", q, time_range)
                want = oracle_search(list(current.values()), q, time_range)
                assert [d.id for d in got] == [d.id for d in want]

        check()  # the first range queries sort the columns
        # Replacements move documents in time and in value, a NaN value
        # falls in every range, and new ids share timestamps with old ones.
        for i in range(0, 60, 3):
            doc = make_doc(i, ts=BASE_TS + (200 - i) * 1000, status="WARN",
                           mean_ms=float("nan") if i % 2 else 2.0, offset=45)
            current[doc.id] = doc
            IX.index_document(store, doc)
        for i in range(500, 520):
            doc = make_doc(i, ts=BASE_TS + (i - 480) * 1000, status="WARN",
                           mean_ms=20.0, offset=i - 480)
            current[doc.id] = doc
            IX.index_document(store, doc)
        check()

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
    """Per shard and id: the document and its live keyword, `id` and numeric
    entries. Stale entries of replaced documents are left out, and values are
    compared by repr, so NaN equals NaN and 1 differs from 1.0 and True."""
    state = {}
    for n, shard in enumerate(index.shards):
        ids = {o: entry[1] for o, entry in shard.entries.items()}
        assert {shard.by_id[doc_id]: doc_id for doc_id in ids.values()} == ids
        for ts, doc_id, name, doc in shard.entries.values():
            assert (doc.id, doc.index_name, ts) == (doc_id, name, doc.fields["@timestamp"])
            state[n, doc_id] = {"fields": repr(sorted(doc.fields.items())), "terms": set()}
        for field, terms in shard.postings.items():
            if field in shard.text_built:
                continue
            for term, ords in terms.items():
                for o in set(ords) & ids.keys():
                    state[n, ids[o]]["terms"].add((field, repr(term)))
        for field, column in shard.numeric.items():
            for o, value in column.items():
                if o in ids:
                    state[n, ids[o]]["terms"].add((field, repr(value)))
    return state


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
        assert min(len(shard.entries) for shard in index.shards) > IX._BLOCK_DOCS
        assert all(shard.next_ord == len(shard.entries) for shard in index.shards)
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

    def test_two_segment_store_of_the_earlier_layout_loads(self, tmp_path):
        # Saves once routed each index's documents to two shards by a hash
        # of the id, wrote one segment per shard and a `shard_count` key.
        docs = make_corpus(n=300, seed=11)
        path = tmp_path / self.NAME
        path.mkdir()
        segments = []
        for n in range(2):
            shard = IX.Shard()
            for doc in docs[n::2]:
                shard.upsert(doc)
            segments.append(f"shard-{n}.1.seg")
            IX._write_segment(shard, str(path / segments[-1]))
        (path / "manifest.json").write_text(json.dumps({
            "format": 2, "name": self.NAME, "shard_count": 2,
            "doc_count": len(docs), "segments": segments}))
        loaded = IX.load_store(str(tmp_path))
        whole = IX.Store()
        for doc in docs:
            IX.index_document(whole, doc)

        assert loaded.indices[self.NAME].doc_count == len(docs)
        for q in (IX.MatchAll(), IX.Term("message", "srmLs done"),
                  IX.And((IX.Term("status", "ERROR"), IX.Range("mean_ms", min=40)))):
            assert [d.id for d in IX.search(loaded, "storm-*", q)] == [
                d.id for d in IX.search(whole, "storm-*", q)]
            for agg in (IX.TermsAgg("action", 10), IX.StatsAgg("mean_ms"),
                        IX.DateHistogramAgg(60)):
                assert IX.aggregate(loaded, "storm-*", q, agg) == (
                    IX.aggregate(whole, "storm-*", q, agg))
        IX.index_document(loaded, make_doc(7, status="WARN"))
        assert loaded.indices[self.NAME].doc_count == len(docs)
        assert [d.id for d in IX.search(loaded, "storm-*", IX.Term("id", make_doc(7).id))] == [
            make_doc(7).id]

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


class TestDayPruning:
    """A time range loads and searches exactly the days it overlaps.

    Each case lists the days of `DAY_NAMES` it must load; the undated index
    and no index outside the name pattern are loaded for every range.
    """

    CASES = {
        "straddles_midnight": ((D2 - 1000, D2 + 1000), {1, 2}),
        "ends_at_midnight_exclusive": ((D1 + 3_600_000, D2), {1}),
        "starts_at_235959999": ((D2 - 1, D3), {1, 2}),
        "open_start": ((None, D2), {1}),
        "open_end": ((D3 - 1, None), {2, 3}),
        "open_both": ((None, None), {1, 2, 3}),
        "nan_start": ((NAN, D2), {1}),
        "nan_end": ((D2, NAN), {2, 3}),
        "nan_both": ((NAN, NAN), {1, 2, 3}),
        "after_the_last_day": ((D3 + DAY_MS, None), set()),
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
        time_range, days = self.CASES[case]
        pattern = "storm-backend-*"
        pruned = IX.load_store(root, pattern, time_range)
        assert set(pruned.indices) == {DAY_NAMES[d] for d in days} | {UNDATED}

        full = IX.load_store(root)
        shards = list(IX._matches(full, pattern, IX.MatchAll(), time_range))
        assert len(shards) == len(pruned.indices)

        for q in (IX.MatchAll(), IX.Term("status", "ERROR")):
            hits = oracle_search(docs, q, time_range)
            want = [(d.index_name, d.id) for d in hits]
            for st in (pruned, full):
                got = IX.search(st, pattern, q, time_range)
                assert [(d.index_name, d.id) for d in got] == want
            buckets = Counter(d.fields["@timestamp"] // 3_600_000 * 3_600_000 for d in hits)
            for st in (pruned, full):
                got = IX.aggregate(st, pattern, q, IX.DateHistogramAgg(3600), time_range)
                assert got == sorted(buckets.items())
            assert IX.aggregate(pruned, pattern, q, IX.TermsAgg("status", 5), time_range) == (
                IX.aggregate(full, pattern, q, IX.TermsAgg("status", 5), time_range)
            )

