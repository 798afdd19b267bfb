import io
import os
import subprocess
import sys

from stormwatch import shipper as SH
from stormwatch.codecs import LogKind


def write(path, text, mode="w"):
    with open(path, mode, encoding="utf-8") as handle:
        handle.write(text)


def heartbeat_path(tmp_path, name="heartbeat.log"):
    return str(tmp_path / name)


class TestTailOnce:
    def test_full_read_of_complete_lines(self, tmp_path):
        path = heartbeat_path(tmp_path)
        write(path, "one\ntwo\nthree\n")
        batch, registry = SH.tail_once(SH.TailRegistry(), path, 10)
        assert [r.line for r in batch.records] == ["one", "two", "three"]
        assert registry.entries[path].offset == os.path.getsize(path)
        assert [r.offset for r in batch.records] == [0, 4, 8]
        assert all(r.kind is LogKind.HEARTBEAT for r in batch.records)

    def test_partial_trailing_line_left_unread(self, tmp_path):
        path = heartbeat_path(tmp_path)
        write(path, "one\ntwo\npart")
        batch, registry = SH.tail_once(SH.TailRegistry(), path, 10)
        assert [r.line for r in batch.records] == ["one", "two"]
        assert registry.entries[path].offset == 8
        write(path, "ial\nmore\n", mode="a")
        batch, registry = SH.tail_once(registry, path, 10)
        assert [r.line for r in batch.records] == ["partial", "more"]

    def test_unchanged_file_yields_empty_batch_and_same_registry(self, tmp_path):
        path = heartbeat_path(tmp_path)
        write(path, "one\n")
        _, registry = SH.tail_once(SH.TailRegistry(), path, 10)
        batch, registry2 = SH.tail_once(registry, path, 10)
        assert not batch.records
        assert registry2 is registry

    def test_max_records_bounds_batch(self, tmp_path):
        path = heartbeat_path(tmp_path)
        write(path, "".join(f"line{i}\n" for i in range(10)))
        batch, registry = SH.tail_once(SH.TailRegistry(), path, 3)
        assert len(batch.records) == 3
        batch, registry = SH.tail_once(registry, path, 100)
        assert len(batch.records) == 7

    def test_offsets_are_file_positions(self, tmp_path):
        path = heartbeat_path(tmp_path)
        write(path, "aa\nbbbb\nc\n")
        batch, _ = SH.tail_once(SH.TailRegistry(), path, 10)
        data = open(path, "rb").read()
        for record in batch.records:
            start = record.offset
            assert data[start : start + len(record.line)].decode() == record.line

    def test_mixed_utf8_batches_under_cuts_resume_at_the_next_byte(self, tmp_path):
        # ASCII lines, multi-byte UTF-8 and an invalid byte in one read, cut
        # by max_records mid-read; the last read is all ASCII and ends in a
        # partial line that a later write completes with a multi-byte one.
        lines = [b"ascii one", b"ascii two", "café ☃".encode(), b"bad \xff byte",
                 "cut ☃".encode()[:-1],
                 b"", "\U0001f600 end".encode(), b"ascii three", b"ascii four"]
        path = heartbeat_path(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines) + b"\npartial")
        starts = [0]
        for raw in lines:
            starts.append(starts[-1] + len(raw) + 1)
        registry = SH.TailRegistry()
        shipped = []
        for cut in (2, 3, 2, 100):
            batch, registry = SH.tail_once(registry, path, cut)
            shipped += batch.records
            assert registry.entries[path].offset == starts[len(shipped)]
        assert [r.line for r in shipped] == [raw.decode("utf-8", "replace") for raw in lines]
        assert shipped[3].line == "bad \ufffd byte"
        assert [r.offset for r in shipped] == starts[:-1]
        with open(path, "ab") as handle:
            handle.write(" énd\n".encode())
        batch, registry = SH.tail_once(registry, path, 100)
        assert [(r.line, r.offset) for r in batch.records] == [("partial énd", starts[-1])]
        assert registry.entries[path].offset == os.path.getsize(path)

    def test_each_byte_is_read_about_once(self, tmp_path, monkeypatch):
        path = heartbeat_path(tmp_path)
        write(path, "".join(f"{i:06d} {'x' * (i % 400)}\n" for i in range(15_000)))
        returned = []

        class CountingFile(io.FileIO):
            def readinto(self, buffer):
                n = super().readinto(buffer)
                returned.append(n or 0)
                return n

        monkeypatch.setattr(SH, "open", lambda name, mode: io.BufferedReader(CountingFile(name)),
                            raising=False)
        registry = SH.TailRegistry()
        calls = 0
        while True:
            batch, registry = SH.tail_once(registry, path, 200)
            calls += 1
            if not batch.records:
                break
        size = os.path.getsize(path)
        assert registry.entries[path].offset == size
        # A call may read ahead at most one buffer past the last line it ships.
        assert size <= sum(returned) <= size + calls * io.DEFAULT_BUFFER_SIZE

    def test_rotation_resets_offset(self, tmp_path):
        path = heartbeat_path(tmp_path)
        write(path, "old1\nold2\n")
        _, registry = SH.tail_once(SH.TailRegistry(), path, 10)
        os.rename(path, heartbeat_path(tmp_path, "heartbeat.log.1"))
        write(path, "new1\nnew2\nnew3\n")
        batch, registry = SH.tail_once(registry, path, 10)
        assert [r.line for r in batch.records] == ["new1", "new2", "new3"]
        assert registry.entries[path].offset == os.path.getsize(path)

    def test_truncation_resets_offset(self, tmp_path):
        path = heartbeat_path(tmp_path)
        write(path, "a long first generation line\nanother\n")
        _, registry = SH.tail_once(SH.TailRegistry(), path, 10)
        os.remove(path)
        write(path, "tiny\n")
        batch, _ = SH.tail_once(registry, path, 10)
        assert [r.line for r in batch.records] == ["tiny"]

    def test_rotation_scenario_delivers_expected_line_set(self, tmp_path):
        path = heartbeat_path(tmp_path)
        expected = []
        delivered = []
        registry = SH.TailRegistry()
        write(path, "g1-a\ng1-b\n")
        expected += ["g1-a", "g1-b"]
        batch, registry = SH.tail_once(registry, path, 100)
        delivered += [r.line for r in batch.records]
        write(path, "g1-c\n", mode="a")
        expected += ["g1-c"]
        os.rename(path, heartbeat_path(tmp_path, "heartbeat.log.1"))
        write(path, "g2-a\ng2-b\n")
        expected += ["g2-a", "g2-b"]
        # The rotated remainder g1-c is lost to the tailer (rotation happened
        # before the poll); the new generation must ship completely.
        batch, registry = SH.tail_once(registry, path, 100)
        delivered += [r.line for r in batch.records]
        assert delivered == ["g1-a", "g1-b", "g2-a", "g2-b"]
        # The rotated path is a new source to the path-keyed registry, so it
        # ships from offset zero: full coverage, duplicates allowed.
        batch, registry = SH.tail_once(
            registry, heartbeat_path(tmp_path, "heartbeat.log.1"), 100
        )
        delivered += [r.line for r in batch.records]
        assert set(delivered) == set(expected)
        duplicates = {line for line in delivered if delivered.count(line) > 1}
        assert duplicates == {"g1-a", "g1-b"}


# Checkpoints one registry of 500 entries again and again, loading it after
# each checkpoint; a load that does not parse, or a rename whose temp file
# another process took, ends the process with a traceback.
_CHECKPOINT_LOOP = """
import sys
from stormwatch import shipper as SH
store, tag = sys.argv[1], sys.argv[2]
registry = SH.TailRegistry(
    {f"/logs/{tag}-{i}.log": SH.RegistryEntry(i, (1, i), i) for i in range(500)})
for _ in range(200):
    SH.checkpoint(registry, store)
    assert len(SH.load_registry(store).entries) == 500
"""


class TestCheckpoint:
    def test_two_processes_checkpointing_one_registry_keep_it_whole(self, tmp_path):
        store = str(tmp_path / "registry.json")
        src = os.path.dirname(os.path.dirname(os.path.abspath(SH.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        procs = [
            subprocess.Popen([sys.executable, "-c", _CHECKPOINT_LOOP, store, tag], env=env,
                             stderr=subprocess.PIPE, text=True)
            for tag in ("a", "b")
        ]
        errors = [proc.communicate(timeout=120)[1] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], errors
        assert len(SH.load_registry(store).entries) == 500
        assert os.listdir(tmp_path) == ["registry.json"]

    def test_round_trip_equality(self, tmp_path):
        path = heartbeat_path(tmp_path)
        write(path, "one\ntwo\n")
        _, registry = SH.tail_once(SH.TailRegistry(), path, 10)
        store = str(tmp_path / "registry.json")
        SH.checkpoint(registry, store)
        assert SH.load_registry(store) == registry

    def test_empty_registry_round_trips(self, tmp_path):
        store = str(tmp_path / "registry.json")
        SH.checkpoint(SH.TailRegistry(), store)
        assert SH.load_registry(store) == SH.TailRegistry()

    def test_missing_file_is_empty_registry(self, tmp_path):
        assert SH.load_registry(str(tmp_path / "nope.json")) == SH.TailRegistry()

    def test_corrupt_registry_raises(self, tmp_path):
        store = str(tmp_path / "registry.json")
        write(store, "{broken")
        try:
            SH.load_registry(store)
        except SH.RegistryCorrupt:
            return
        raise AssertionError("expected RegistryCorrupt")

    def test_crash_before_checkpoint_replays_batch(self, tmp_path):
        path = heartbeat_path(tmp_path)
        store = str(tmp_path / "registry.json")
        write(path, "a\nb\n")
        ship = SH.Shipper(store, batch_size=10)
        first = ship.poll(path)
        ship.checkpoint()
        write(path, "c\nd\n", mode="a")
        uncheckpointed = ship.poll(path)  # crash: checkpoint never happens
        assert [r.line for r in uncheckpointed.records] == ["c", "d"]

        revived = SH.Shipper(store, batch_size=10)
        replay = revived.poll(path)
        delivered = [r.line for r in first.records]
        delivered += [r.line for r in uncheckpointed.records]
        delivered += [r.line for r in replay.records]
        # At-least-once: every line delivered; duplicates confined to the
        # records shipped after the last checkpoint.
        assert sorted(set(delivered)) == ["a", "b", "c", "d"]
        duplicates = [line for line in set(delivered) if delivered.count(line) > 1]
        assert sorted(duplicates) == ["c", "d"]

