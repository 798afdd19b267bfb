"""`stormwatch ingest` in shares: one per usable CPU, whole log kinds each.

Each test compares a run that may fork (this process's CPUs) with one
pinned to a single CPU, which forks nothing and is the single-worker
ingest.
"""

import json
import os
import shutil
import subprocess
import sys
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


def pinned_ingest(*argv):
    """`stormwatch ingest` in a fresh process pinned to one usable CPU."""
    cpu = min(_AFFINITY(0))
    proc = subprocess.run(
        [sys.executable, "-m", "stormwatch.cli", "ingest", *argv],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    return proc.returncode, proc.stdout, proc.stderr


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
