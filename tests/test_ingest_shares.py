"""`stormwatch ingest` in shares: one per usable CPU, whole log kinds each.

Each test compares a run that may fork (this process's CPUs) with one
pinned to a single CPU, which forks nothing and is the single-worker
ingest.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict

import pytest

from conftest import corpus_paths
from stormwatch import index as IX
from stormwatch.codecs import FILENAME_FOR_KIND, LogKind
from stormwatch.cli import main

_AFFINITY = getattr(os, "sched_getaffinity", None)
CPUS = len(_AFFINITY(0)) if _AFFINITY else 1

pytestmark = pytest.mark.skipif(CPUS < 2, reason="needs two usable CPUs to fork a share")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(IX.__file__)))


def start_ingest(*argv, pinned=True):
    """`stormwatch ingest` started in a fresh process in its own session,
    pinned to one usable CPU or free to fork its shares."""
    cpu = min(_AFFINITY(0))
    return subprocess.Popen(
        [sys.executable, "-m", "stormwatch.cli", "ingest", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pinned else None,
    )


def finish(proc):
    out, err = proc.communicate(timeout=300)
    return proc.returncode, out, err


def pinned_ingest(*argv):
    """`stormwatch ingest` in a fresh process pinned to one usable CPU."""
    return finish(start_ingest(*argv))


@pytest.fixture
def forked(monkeypatch):
    """The pids that `os.fork` returns to this process while the test runs."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def stored_documents(store_dir):
    store = IX.load_store(store_dir)
    docs = IX.search(store, "storm-*", IX.MatchAll())
    return sorted((doc.id, doc.index_name, doc.fields) for doc in docs)


def dead_letters_by_source(path):
    by_source = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            by_source[json.loads(line)["source"]].append(line)
    return dict(by_source)


def registry_offsets(path):
    with open(path, encoding="utf-8") as handle:
        return {source: entry["offset"] for source, entry in json.load(handle).items()}


@pytest.fixture
def damaged_corpus(small_corpus, tmp_path):
    """The small corpus with a few frontend and backend lines that no
    grammar matches, so the shares of both kinds write dead letters."""
    out = tmp_path / "corpus"
    shutil.copytree(small_corpus["dir"], out)
    for name in ("storm-frontend-server.log", "storm-backend.log"):
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for n in (5, 1000, 2500, len(lines) - 3):
            lines[n] = f"not a StoRM line {n}\n"
        path.write_text("".join(lines), encoding="utf-8")
    return str(out)


def test_forked_shares_give_the_single_worker_store(damaged_corpus, tmp_path, capsys, forked):
    def argv(name):
        return ["--paths", *corpus_paths(damaged_corpus), "--store", str(tmp_path / name),
                "--base-date", "2024-03-01", "--format", "json-lines"]

    code = main(["ingest", *argv("shares")])
    out = capsys.readouterr().out
    assert code == 0
    assert len(forked) == min(CPUS, 5) - 1
    assert_reaped(forked)
    pinned_code, pinned_out, pinned_err = pinned_ingest(*argv("single"))
    assert pinned_code == 0, pinned_err

    shares, single = (json.loads(text) for text in (out, pinned_out))
    for summary in (shares, single):
        del summary["elapsed_s"], summary["lines_per_s"]
    assert shares == single
    assert shares["dead_letters"] == 8
    stores = [str(tmp_path / name) for name in ("shares", "single")]
    assert stored_documents(stores[0]) == stored_documents(stores[1])
    dead = [dead_letters_by_source(os.path.join(s, "dead_letters.jsonl")) for s in stores]
    assert dead[0] == dead[1]
    assert len(dead[0]) == 2
    offsets = [registry_offsets(os.path.join(s, "registry.json")) for s in stores]
    assert offsets[0] == offsets[1]
    assert offsets[0] == {path: os.path.getsize(path) for path in corpus_paths(damaged_corpus)}

    # Nothing is left to ship, so the re-ingest forks nothing.
    forks = len(forked)
    assert main(["ingest", *argv("shares")]) == 0
    assert json.loads(capsys.readouterr().out)["shipped"] == 0
    assert len(forked) == forks


@pytest.mark.parametrize("kind,other", [("frontend", "backend"), ("backend", "frontend")])
def test_a_corrupt_day_fails_the_run_as_a_single_worker_does(
    small_corpus, tmp_path, capsys, forked, kind, other
):
    paths = corpus_paths(small_corpus["dir"])
    clean = str(tmp_path / "clean")
    code, _, err = pinned_ingest("--paths", *paths, "--store", clean, "--base-date", "2024-03-01")
    assert code == 0, err
    expected = stored_documents(clean)
    # The store holds only the failing kind's day, so a run that records
    # lines it did not save loses them for good.
    failing, survivor = (os.path.join(small_corpus["dir"], FILENAME_FOR_KIND[LogKind(name)])
                         for name in (kind, other))
    store = str(tmp_path / "store")
    code, _, err = pinned_ingest("--paths", failing, "--store", store, "--base-date", "2024-03-01")
    assert code == 0, err
    day = f"storm-{kind}-2024.03.01"
    with open(os.path.join(store, day, "manifest.json"), "w") as handle:
        handle.write("{")
    copy = str(tmp_path / "copy")
    shutil.copytree(store, copy)

    # Fresh registries, so both runs ship every line again.
    registries = [str(tmp_path / name) for name in ("shares.json", "single.json")]
    argv = ["--base-date", "2024-03-01", "--paths", *paths]
    code = main(["ingest", *argv, "--store", store, "--registry", registries[0]])
    out, err = capsys.readouterr()
    pinned = pinned_ingest(*argv, "--store", copy, "--registry", registries[1])
    assert (code, out, err) == pinned
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: snapshot corrupt for {day}")
    assert len(forked) == min(CPUS, 5) - 1
    assert_reaped(forked)
    other_day = f"storm-{other}-2024.03.01"
    after = IX.load_store(store, f"storm-{other}-*").indices[other_day]
    assert after.doc_count == IX.load_store(clean, f"storm-{other}-*").indices[other_day].doc_count
    # A share that failed saved nothing and records none of its lines.
    shares, single = (registry_offsets(path) for path in registries)
    assert single == {}
    assert failing not in shares
    assert shares == {path: os.path.getsize(path) for path in shares}
    assert survivor in shares

    # Once the day is repaired, a rerun ships what the failed run did not save.
    for root in (store, copy):
        shutil.rmtree(os.path.join(root, day))
    assert main(["ingest", *argv, "--store", store, "--registry", registries[0]]) == 0
    code, _, err = pinned_ingest(*argv, "--store", copy, "--registry", registries[1])
    assert code == 0, err
    assert_reaped(forked)
    assert stored_documents(store) == expected
    assert stored_documents(copy) == expected


@pytest.mark.parametrize("kind", ["frontend", "backend"])
def test_a_failed_share_writes_none_of_its_dead_letters(damaged_corpus, tmp_path, capsys, kind):
    argv = ["--paths", *corpus_paths(damaged_corpus), "--base-date", "2024-03-01"]
    clean = str(tmp_path / "clean")
    assert main(["ingest", *argv, "--store", clean]) == 0
    # The failing kind's day, written with a registry and dead letters apart.
    store = str(tmp_path / "store")
    failing = os.path.join(damaged_corpus, FILENAME_FOR_KIND[LogKind(kind)])
    assert main(["ingest", "--paths", failing, "--store", store, "--base-date", "2024-03-01",
                 "--registry", str(tmp_path / "apart.json"),
                 "--dead-letters", str(tmp_path / "apart.jsonl")]) == 0
    day = os.path.join(store, f"storm-{kind}-2024.03.01")
    with open(os.path.join(day, "manifest.json"), "w") as handle:
        handle.write("{")

    assert main(["ingest", *argv, "--store", store]) == 2
    shutil.rmtree(day)
    assert main(["ingest", *argv, "--store", store]) == 0
    capsys.readouterr()
    dead = [dead_letters_by_source(os.path.join(s, "dead_letters.jsonl")) for s in (clean, store)]
    assert dead[0] == dead[1]
    assert sum(map(len, dead[1].values())) == 8
    assert stored_documents(store) == stored_documents(clean)


def has_manifest(store):
    return os.path.isdir(store) and any(
        os.path.exists(os.path.join(store, name, "manifest.json")) for name in os.listdir(store))


@pytest.mark.parametrize("pinned", [False, True], ids=["forked", "pinned"])
def test_an_ingest_killed_at_any_point_loses_no_lines(small_corpus, tmp_path, pinned):
    def argv(store):
        return ["--paths", *corpus_paths(small_corpus["dir"]), "--store", store,
                "--base-date", "2024-03-01", "--batch-size", "200"]

    def outcome(store):
        return stored_documents(store), registry_offsets(os.path.join(store, "registry.json"))

    clean = str(tmp_path / "clean")
    started = time.perf_counter()
    code, _, err = finish(start_ingest(*argv(clean), pinned=pinned))
    wall = time.perf_counter() - started
    assert code == 0, err
    expected = outcome(clean)

    # A kill that lands after the run has ended kills nothing and still passes.
    for point in (0.3, 0.6, "first manifest"):
        store = str(tmp_path / f"killed at {point}")
        proc = start_ingest(*argv(store), pinned=pinned)
        if point == "first manifest":
            while proc.poll() is None and not has_manifest(store):
                time.sleep(0.002)
        else:
            try:
                proc.wait(timeout=point * wall)
            except subprocess.TimeoutExpired:
                pass
        if proc.poll() is None:  # not reaped, so its pid still names its group
            os.killpg(proc.pid, signal.SIGKILL)
        finish(proc)
        code, _, err = finish(start_ingest(*argv(store), pinned=pinned))
        assert code == 0, err
        assert outcome(store) == expected, point
