"""The batch write: `index_documents`, the `cli.ingest` loop that calls it
once per shipped batch, and the strings it shares within a column, which a
save writes as dictionary streams and a load shares again."""

import io
import json
import os

import pytest

from conftest import corpus_paths
from helpers import read_segment
from stormwatch import cli, pipeline, shipper
from stormwatch import index as IX
from stormwatch.pipeline import Document

NAME = "storm-backend-2024.03.01"
BASE_TS = 1709251200000
# Equal to one another in pairs (1 == 1.0 == True, -0.0 == 0.0), so a
# write that shares values by equality alone would merge them.
MIXED = [1, 1.0, True, -0.0, 0.0, None, ["xy", 1], "xy"]


# Strings a dictionary stream must give back with their type and text.
TEXTS = ["", "1", "null", "naïve Ωmega 東京", 'say "hi"', "two\nlines"]


def doc(i, **fields):
    return Document(id=f"d{i:04d}", fields={"@timestamp": BASE_TS + i, **fields},
                    index_name=NAME)


def fresh(text):
    """An equal string that is a new object, as each regex capture is."""
    return "".join([text[:1], text[1:]])


def same(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


def stored(store):
    return {d.id: d.fields for d in IX.search(store, "storm-*", IX.MatchAll())}


def value_lines(root):
    """The decoded value streams of every segment under `root`, ids left
    out: a dictionary as `{"d", "i", "w"}`, a plain stream as its array
    (`helpers.read_segment`)."""
    found = []
    for name in os.listdir(root):
        for leaf in os.listdir(os.path.join(root, name)):
            if leaf.endswith(".seg"):
                for _keys, _ids, lines in read_segment(os.path.join(root, name, leaf)):
                    found += lines
    return found


class ReplayShip:
    """A shipper that delivers the given batches, then nothing."""

    def __init__(self, batches):
        self.batches = [shipper.Batch(tuple(batch)) for batch in batches]
        self.checkpoints = 0

    def poll(self, path):
        return self.batches.pop(0) if self.batches else shipper.Batch(())

    def checkpoint(self):
        self.checkpoints += 1


@pytest.fixture(scope="module")
def backend_records(small_corpus):
    path = next(p for p in corpus_paths(small_corpus["dir"]) if p.endswith("storm-backend.log"))
    batch, _ = shipper.tail_once(shipper.TailRegistry(), path, 6)
    return batch.records


def stock_pipe(**backend_adds):
    config = pipeline.default_pipeline_config("2024-03-01")
    if backend_adds:
        config["routes"]["backend"].append({"type": "mutate", "add": backend_adds})
    return pipeline.load_pipeline(json.dumps(config))


def ingest(pipe, store, batches):
    ship = ReplayShip(batches)
    counts = cli.ingest(pipe, store, ship, ["storm-backend.log"], io.StringIO())
    assert ship.checkpoints == 0  # the caller commits once the store is saved
    return counts


def last_copies(pipe, records):
    """Each id's fields as processed from the last record that has the id."""
    docs = [pipeline.process(pipe, record) for record in records]
    return {d.id: d.fields for d in docs}


class TestRepeatedIds:
    def test_a_line_replayed_inside_one_batch_keeps_the_last_copy(self):
        store = IX.Store()
        batch = [doc(0, status="INFO"), doc(1, status="INFO"), doc(0, status="ERROR", extra=1)]
        assert IX.index_documents(store, batch) == 3
        assert IX.index_documents(store, iter([doc(2), doc(2, status="WARN")])) == 2
        assert store.indices[NAME].doc_count == 3
        assert stored(store) == {"d0000": doc(0, status="ERROR", extra=1).fields,
                                 "d0001": doc(1, status="INFO").fields,
                                 "d0002": doc(2, status="WARN").fields}
        assert [d.id for d in IX.search(store, "storm-*", IX.Term("status", "INFO"))] == [
            "d0001"]

    def test_a_batch_that_repeats_a_stored_id_replaces_it(self):
        store = IX.Store()
        IX.index_documents(store, [doc(0, status="INFO"), doc(1, status="INFO")])
        IX.index_documents(store, [doc(1, status="ERROR"), doc(2, status="INFO")])
        assert store.indices[NAME].doc_count == 3
        assert stored(store)["d0001"] == doc(1, status="ERROR").fields
        assert IX.aggregate(store, "storm-*", IX.MatchAll(), IX.TermsAgg("status", 5)) == [
            ("INFO", 2), ("ERROR", 1)]

    def test_cli_ingest_keeps_the_last_copy_of_a_replayed_line(self, backend_records):
        # The same source, offset and line hash to the same id; the beat
        # name differs, so each copy's fields can be told apart.
        r = backend_records
        first = [r[0], r[1], r[0]._replace(beat_name="replay-1"), r[2], r[0]._replace(
            beat_name="replay-2")]
        second = [r[1]._replace(beat_name="replay-3"), r[3]]
        pipe, store = stock_pipe(), IX.Store()
        counts = ingest(pipe, store, [first])
        assert counts == {"shipped": 5, "indexed": 5, "dead": 0, "dropped": 0}
        assert stored(store) == last_copies(pipe, first)
        assert stored(store)[pipeline.record_id(r[0])]["beat.name"] == "replay-2"

        ingest(pipe, store, [second])
        assert store.indices[NAME].doc_count == 4
        assert stored(store) == last_copies(pipe, first + second)
        assert stored(store)[pipeline.record_id(r[1])]["beat.name"] == "replay-3"


class TestSharedStrings:
    def test_repeated_strings_share_one_object_per_value(self):
        store = IX.Store()
        IX.index_documents(store, [doc(i, status=fresh(["INFO", "ERROR"][i % 2]),
                                       message=fresh(f"m {i}")) for i in range(8)])
        column = store.indices[NAME].shards[0].columns
        assert len({id(v) for v in column["status"]}) == 2
        assert len({id(v) for v in column["message"]}) == 8

    def test_sharing_never_changes_a_value(self, tmp_path):
        # Batch 1 decides to share `v` (repeated strings), then holds the
        # mixed values in a group of another shape; batch 2 holds them in
        # `v`'s first shape, and batch 3 holds ints where batch 1 held
        # strings.
        batches = [
            [doc(i, v=fresh("xy")) for i in range(8)]
            + [doc(8 + i, v=value, w=fresh("xy")) for i, value in enumerate(MIXED)],
            [doc(20 + i, v=value) for i, value in enumerate(MIXED * 2)],
            [doc(40 + i, v=i % 2) for i in range(4)],
        ]
        store = IX.Store()
        for batch in batches:
            IX.index_documents(store, batch)
        want = {d.id: d.fields for batch in batches for d in batch}
        shard = store.indices[NAME].shards[0]
        column = shard.columns["v"]
        assert len({id(column[shard.by_id[doc(i).id]]) for i in range(8)}) == 1

        IX.save_store(store, str(tmp_path))
        for got in (stored(store), stored(IX.load_store(str(tmp_path)))):
            assert got.keys() == want.keys()
            for id_, fields in want.items():
                assert got[id_].keys() == fields.keys()
                assert all(same(got[id_][k], v) for k, v in fields.items()), id_
        for value in (1, True, 1.0):
            hits = IX.search(store, "storm-*", IX.Term("v", value))
            assert {type(d.fields["v"]) for d in hits} <= {int, float}
        kinds = {type(d.fields["v"]) for d in IX.search(store, "storm-*", IX.MatchAll())}
        assert kinds == {str, int, float, bool, type(None), list}

    def test_a_list_from_a_pipeline_mutate_stays_a_list(self, backend_records, tmp_path):
        # The same field is a repeated string in one ingest and a list in
        # the next.
        store = IX.Store()
        ingest(stock_pipe(tags=fresh("grid")), store, [backend_records[:3]])
        ingest(stock_pipe(tags=["grid", 1]), store, [backend_records[3:]])
        IX.save_store(store, str(tmp_path))
        for got in (stored(store), stored(IX.load_store(str(tmp_path)))):
            tags = {id_: fields["tags"] for id_, fields in got.items()}
            assert sorted(map(repr, tags.values())) == ["'grid'"] * 3 + ["['grid', 1]"] * 3
            for record in backend_records:
                want = "grid" if record in backend_records[:3] else ["grid", 1]
                assert same(tags[pipeline.record_id(record)], want)

    def test_a_load_keeps_each_value_and_one_object_per_repeated_string(self, tmp_path):
        # `v` is repeated strings in its first shape and mixed values in a
        # second one, whose `w` is repeated strings again.
        batch = [doc(i, v=fresh(TEXTS[i % len(TEXTS)])) for i in range(24)]
        batch += [doc(30 + i, v=value, w=fresh("xy"))
                  for i, value in enumerate(MIXED + [fresh("xy") for _ in range(8)])]
        store = IX.Store()
        IX.index_documents(store, batch)
        IX.save_store(store, str(tmp_path))

        lines = value_lines(str(tmp_path))
        dictionaries = [line for line in lines if type(line) is dict]
        assert {"d": TEXTS, "i": list(range(len(TEXTS))) * 4, "w": 1} in dictionaries
        assert {"d": ["xy"], "i": [0] * 16, "w": 1} in dictionaries
        assert [*map(repr, MIXED), *["'xy'"] * 8] in [list(map(repr, line)) for line in lines]
        loaded = IX.load_store(str(tmp_path))
        got, want = stored(loaded), {d.id: d.fields for d in batch}
        assert got.keys() == want.keys()
        for id_, fields in want.items():
            assert got[id_].keys() == fields.keys()
            assert all(same(got[id_][k], v) for k, v in fields.items()), id_
        shard = loaded.indices[NAME].shards[0]
        values = [shard.columns["v"][shard.by_id[doc(i).id]] for i in range(24)]
        for text in TEXTS:
            assert len({id(v) for v in values if v == text}) == 1

    def test_an_append_to_a_loaded_day_gives_the_documents_of_one_write(self, tmp_path):
        first = [doc(i, status=fresh(["INFO", "WARN"][i % 2]), host=fresh("se01"))
                 for i in range(12)]
        later = [doc(20 + i, status=fresh("ERROR"), port=fresh("8444")) for i in range(6)]
        later += [doc(i, status=fresh("INFO")) for i in range(0, 12, 3)]
        root = str(tmp_path / "appended")
        store = IX.Store()
        IX.index_documents(store, first)
        IX.save_store(store, root)
        appended = IX.Store(root)
        IX.index_documents(appended, later)
        memos = appended.indices[NAME].shards[0].memos
        assert memos["status"] is not None and memos["port"] is not None
        assert memos["host"] == {}  # given by its dictionary stream at load
        IX.save_store(appended, root)

        # The loaded `host` column, which the append did not write, is
        # written as a dictionary stream again.
        lines = value_lines(root)
        assert {"d": ["ERROR"], "i": [0] * 6, "w": 1} in lines
        assert [line for line in lines if "se01" in str(line)] == [
            {"d": ["se01"], "i": [0] * 8, "w": 1}]
        cold = IX.Store()
        IX.index_documents(cold, first + later)
        IX.save_store(cold, str(tmp_path / "cold"))
        got, want = stored(IX.load_store(root)), stored(IX.load_store(str(tmp_path / "cold")))
        assert got.keys() == want.keys()
        for id_, fields in want.items():
            assert list(got[id_]) == list(fields)
            assert all(same(got[id_][k], v) for k, v in fields.items()), id_


class TestRefusedExtend:
    def test_a_refused_extend_leaves_the_shard_as_it_was(self):
        store = IX.Store()
        IX.index_documents(store, [
            Document("a", {"@timestamp": BASE_TS, "status": "INFO"}, NAME),
            Document("b", {"@timestamp": BASE_TS + 1, "status": "ERROR"}, NAME),
        ])
        index = store.indices[NAME]

        def answers():
            return (
                index.doc_count,
                [(d.id, d.fields) for d in IX.search(store, "storm-*", IX.MatchAll())],
                [d.id for d in IX.search(store, "storm-*", IX.Term("status", "INFO"))],
                IX.aggregate(store, "storm-*", IX.MatchAll(), IX.TermsAgg("status", 5)),
                IX.aggregate(store, "storm-*", IX.MatchAll(), IX.StatsAgg("@timestamp")),
            )

        before = answers()
        with pytest.raises(ValueError, match="ids repeat within a group"):
            index.shards[0].extend(("@timestamp", "status"), ["a", "c", "c"],
                                   [[BASE_TS + 2] * 3, ["WARN"] * 3])
        assert answers() == before
