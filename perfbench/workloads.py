"""The three benchmark workloads.

All three are closed loops with a single client: the next operation starts
when the previous one has returned and been checked.

- ingest-cold: fresh-process `stormwatch ingest` of the ROADMAP corpus into
  an empty store. Tail, grok/process, index and save do all the work.
- live-cli: one operator's session of fresh-process commands against a
  store spanning three UTC days: reads (query, agg, report, ml detect,
  ml forecast) with appended-slice ingests and no-op ingests in between.
  Snapshot load dominates here.
- search-warm: the same multi-day store loaded once, then in-process
  `index.search` / `index.aggregate` calls. The query engine does all the
  work and snapshot load none.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import oracle
import tracer as tracing
from harness import Child, Probe, Runner, corpus_fingerprint, median, tree_bytes

from stormwatch import anomaly, index, metrics, pipeline, shipper
from stormwatch.codecs import FILENAME_FOR_KIND, LogKind
from stormwatch.timeutil import day_name, format_iso8601_ms, parse_date_ms

BASE_DATE = "2024-03-01"
DAY_MS = 86_400_000
# Frontend lines the stock pipeline drops (truth.json's debug_line_count).
DEBUG_MARK = "] DEBUG: "

# ingest-cold uses the ROADMAP corpus: WorkloadSpec(seed, duration_seconds=2160).
COLD_DURATION_S = 2160
MIN_INGESTS = 2

# live-cli and search-warm share one store: DAYS corpora of DAY_SECONDS each,
# one per UTC day. The last HOLD_BACK of the newest day's lines is kept out of
# setup and appended in SLICES slices during the live-cli session.
DAYS = 3
DAY_SECONDS = 180
HOLD_BACK = 0.25
SLICES = 8

SETUP_REPEATS = 3

# One block of the live-cli session, shuffled per block: mostly reads, most
# of them naming one day (by index name or by --from/--to), one spanning
# every day. Fixing each command's scope keeps the work of a block the same
# from seed to seed; the seed picks days, terms and the order.
LIVE_BLOCK = (
    ("query", "name"), ("query", "range"), ("agg", "name"), ("agg", "all"),
    ("report", "range"), ("ml_detect", "range"), ("ml_forecast", "range"),
    ("append", None), ("noop", None),
)
MIN_LIVE_BLOCKS = 3

# One block of search-warm calls, shuffled per block; each type draws from
# twelve concrete operations (two per SEARCH_SCOPES entry) fixed at setup.
SEARCH_BLOCK = {
    "search.term": 3, "search.and": 3, "search.match_all": 2, "search.message": 2,
    "search.range": 2, "agg.terms": 2, "agg.date_histogram": 2, "agg.stats": 2,
    "agg.geo_grid": 2,
}
SEARCH_SCOPES = (
    ("frontend", "name"), ("backend", "name"), ("frontend", "range"),
    ("backend", "range"), ("frontend", "all"), ("backend", "name"),
)
MIN_SEARCH_BLOCKS = 20

ROUTES = tuple(kind.value for kind in LogKind)


class SetupError(RuntimeError):
    """The program failed while the workload was being set up."""


@dataclass
class Measured:
    """Everything one run of a workload measured."""

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    shares: dict[str, float] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    snapshot_ratio: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    layers: "TraceTotals | None" = None
    lines_per_s: list[float] = field(default_factory=list)
    # Multiply set-up and measured wall times, respectively, into times at
    # the probe's reference speed (harness.Probe).
    setup_scale: float = 1.0
    scale: float = 1.0
    probes: int = 0

    def check(self, what: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {error}")
        return error is None


# ---------------------------------------------------------------------------
# Trace accounting


@dataclass
class TraceTotals:
    """Per-layer sums over the traced operations of one run."""

    ops: int = 0
    wall_s: float = 0.0
    overhead_s: float = 0.0
    busy: dict = field(default_factory=lambda: defaultdict(float))
    own: dict = field(default_factory=lambda: defaultdict(float))
    by_parent: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    gauges: dict = field(default_factory=dict)
    spans: int = 0
    useful_docs: float = 0.0
    paired_traced_s: float = 0.0
    paired_plain_s: float = 0.0

    def add_child(self, child: Child, useful_docs: float) -> None:
        """Add one traced CLI process.

        Its overhead is the time outside `cli.main`: from the spawn to the
        child's first clock reading, and from its last one to the reap.
        """
        extra = child.trace["extra"]
        overhead = (extra["main_start"] - child.spawned_at) + \
            (child.reaped_at - extra["main_end"])
        self.add(child.trace, child.wall_s, overhead, useful_docs)

    def add(self, trace: dict, wall_s: float, overhead_s: float = 0.0,
            useful_docs: float = 0.0, ops: int = 1) -> None:
        """Add one traced process, or an in-process block of `ops` calls."""
        busy, own, by_parent = tracing.self_times(trace["spans"])
        self.ops += ops
        self.wall_s += wall_s
        self.overhead_s += overhead_s
        for target, source in ((self.busy, busy), (self.own, own),
                               (self.by_parent, by_parent), (self.counts, trace["counts"])):
            for key, value in source.items():
                target[key] += value
        for key, value in trace["gauges"].items():
            self.gauges[key] = max(self.gauges.get(key, 0), value)
        self.spans += len(trace["spans"])
        self.useful_docs += useful_docs

    def pair(self, plain_s: float, traced_s: float) -> None:
        self.paired_plain_s += plain_s
        self.paired_traced_s += traced_s

    def metrics(self) -> dict[str, float]:
        per = 1.0 / max(self.ops, 1)
        b, s, c = self.busy, self.own, self.counts
        loaded = c.get("index.load_store.docs_loaded", 0.0)
        examined = c.get("index.search.examined", 0.0)
        self_sum = sum(s.values())
        overhead = self.overhead_s
        out = {
            "shipper.tail_once.busy_s": b.get("shipper.tail_once", 0.0) * per,
            "shipper.tail_once.lines": c.get("shipper.tail_once.lines", 0.0) * per,
            "shipper.tail_once.bytes": c.get("shipper.tail_once.bytes", 0.0) * per,
            "shipper.checkpoint.busy_s": b.get("shipper.checkpoint", 0.0) * per,
            "shipper.checkpoint.calls": c.get("shipper.checkpoint.calls", 0.0) * per,
            "patterns.match_line.busy_s": b.get("patterns.match_line", 0.0) * per,
            "patterns.match_line.calls": c.get("patterns.match_line.calls", 0.0) * per,
            "patterns.match_line.misses": c.get("patterns.match_line.misses", 0.0) * per,
        }
        for route in ROUTES:
            out[f"pipeline.process.{route}.self_s"] = s.get(f"pipeline.process.{route}", 0.0) * per
        for key in ("records", "documents", "dead_letters", "dropped"):
            out[f"pipeline.process.{key}"] = c.get(f"pipeline.process.{key}", 0.0) * per
        out.update({
            "index.index_document.busy_s": b.get("index.index_document", 0.0) * per,
            "index.postings_entries": float(self.gauges.get("index.postings_entries", 0)),
            "index.distinct_terms": float(self.gauges.get("index.distinct_terms", 0)),
            "index.save_store.busy_s": b.get("index.save_store", 0.0) * per,
            "index.save_store.bytes_written":
                c.get("index.save_store.bytes_written", 0.0) * per,
            "index.save_store.indices_written":
                c.get("index.save_store.indices_written", 0.0) * per,
            "index.load_store.self_s": s.get("index.load_store", 0.0) * per,
            "index.load_store.reindex_s":
                self.by_parent.get(("index.Shard.upsert", "index.load_store"), 0.0) * per,
            "index.load_store.docs_loaded": loaded * per,
            "index.load_store.useful_ratio": self.useful_docs / loaded if loaded else 0.0,
            "index.search.busy_s": b.get("index.search", 0.0) * per,
            "index.aggregate.busy_s": b.get("index.aggregate", 0.0) * per,
            "index.docs_examined": c.get("index.docs_examined", 0.0) * per,
            "index.hit_ratio":
                c.get("index.search.returned", 0.0) / examined if examined else 0.0,
            "metrics.build_series.busy_s": b.get("metrics.build_series", 0.0) * per,
            "anomaly.detect.busy_s": b.get("anomaly.detect", 0.0) * per,
            "anomaly.detect.buckets": c.get("anomaly.detect.buckets", 0.0) * per,
            "anomaly.forecast.busy_s": b.get("anomaly.forecast", 0.0) * per,
            "cli.overhead_s": overhead * per,
            "cli.main.self_s": s.get("cli.main", 0.0) * per,
            "trace.overhead_ratio":
                self.paired_traced_s / self.paired_plain_s - 1.0 if self.paired_plain_s else 0.0,
            "trace.wall_s": self.wall_s * per,
            "trace.self_sum_s": self_sum * per,
            "trace.observe_s": s.get("trace.observe", 0.0) * per,
            "trace.residual_s": (self.wall_s - overhead - self_sum) * per,
            "trace.spans": self.spans * per,
        })
        return out


# ---------------------------------------------------------------------------
# Corpora, ingest and the expected documents


def _log_paths(directory: str) -> list[str]:
    return [os.path.join(directory, FILENAME_FOR_KIND[kind]) for kind in LogKind]


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines(keepends=True)


def ingest_error(child: Child, lines: list[str]) -> str | None:
    """Check an ingest's conservation counts against the lines it was given.

    Every shipped line is indexed, dead-lettered or dropped, the dropped ones
    are exactly the DEBUG frontend lines, and loggen corpora produce no dead
    letters.
    """
    if child.code != 0:
        return f"exit {child.code}: {child.stderr.strip()[-300:]}"
    try:
        summary = json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return f"unreadable ingest summary: {exc}"
    debug = sum(1 for line in lines if DEBUG_MARK in line)
    expected = {
        "shipped": len(lines), "indexed": len(lines) - debug, "dead_letters": 0,
        "dropped": debug,
    }
    got = {key: summary.get(key) for key in expected}
    if got != expected:
        return f"ingest counts {got} != expected {expected}"
    return None


def store_index_bytes(store_dir: str) -> int:
    """Bytes of the index snapshot (registry and dead letters excluded)."""
    return sum(
        tree_bytes(os.path.join(store_dir, entry))
        for entry in os.listdir(store_dir)
        if os.path.isdir(os.path.join(store_dir, entry))
    )


def store_doc_count(store_dir: str) -> int:
    total = 0
    for entry in os.listdir(store_dir):
        manifest = os.path.join(store_dir, entry, "manifest.json")
        if os.path.isfile(manifest):
            with open(manifest, encoding="utf-8") as handle:
                total += int(json.load(handle)["doc_count"])
    return total


class ExpectedDocs:
    """The documents a store should hold, made by `pipeline.process`.

    Each `ingest` call mirrors one CLI ingest run: a fresh pipeline (and so
    fresh day contexts) with that run's base date, tailing on from where the
    previous call stopped.
    """

    def __init__(self) -> None:
        self.by_index: dict[str, list] = defaultdict(list)
        self.registry = shipper.TailRegistry()

    def ingest(self, paths: list[str], base_date: str) -> None:
        config = json.dumps(pipeline.default_pipeline_config(base_date))
        pipe = pipeline.load_pipeline(config)
        for path in paths:
            while True:
                batch, self.registry = shipper.tail_once(self.registry, path, 5000)
                if not batch.records:
                    break
                for record in batch.records:
                    outcome = pipeline.process(pipe, record)
                    if isinstance(outcome, pipeline.Document):
                        self.by_index[outcome.index_name].append(outcome)

    def candidates(self, kind: str, pattern: str, time_range) -> list:
        """Documents of one log kind in scope, to draw query values from."""
        docs = oracle.select(self.by_index, pattern, {"match_all": {}}, time_range)
        return [doc for doc in docs if doc.fields["kind"] == kind]


def _day_date(day: int) -> str:
    return format_iso8601_ms(parse_date_ms(BASE_DATE) + day * DAY_MS)[:10]


def _day_start(day: int) -> int:
    return parse_date_ms(BASE_DATE) + day * DAY_MS


class MultiDayStore:
    """The live-cli / search-warm store: one loggen corpus per UTC day."""

    def __init__(self, runner: Runner, seed: int, root: str) -> None:
        self.runner = runner
        self.seed = seed
        self.root = root
        self.store = os.path.join(root, "store")
        self.day_dirs = [os.path.join(root, f"day{d}") for d in range(DAYS)]
        self.held: dict[str, list[str]] = {}
        self.log_bytes = 0
        self.fingerprint: dict = {}

    def build(self) -> float:
        """Generate and ingest every day from scratch; returns its wall time."""
        started = time.perf_counter()
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.log_bytes = 0
        for day, directory in enumerate(self.day_dirs):
            gen = self.runner.cli([
                "loggen", "--out", directory, "--seed", str(self.seed * 10 + day),
                "--duration", str(DAY_SECONDS), "--start", format_iso8601_ms(_day_start(day)),
            ])
            if gen.code != 0:
                raise SetupError(f"loggen exit {gen.code}: {gen.stderr.strip()[-300:]}")
            self.fingerprint[f"day{day}"] = corpus_fingerprint(self.seed * 10 + day, [directory])
            shipped = []
            for path in _log_paths(directory):
                lines = _read_lines(path)
                if day == DAYS - 1:
                    keep = len(lines) - int(len(lines) * HOLD_BACK)
                    self.held[path] = lines[keep:]
                    lines = lines[:keep]
                    with open(path, "w", encoding="utf-8", newline="") as handle:
                        handle.writelines(lines)
                shipped.extend(lines)
                self.log_bytes += sum(len(line) for line in lines)
            child = self.runner.cli(self.ingest_argv(day))
            error = ingest_error(child, shipped)
            if error is not None:
                raise SetupError(f"setup ingest of day {day}: {error}")
        return time.perf_counter() - started

    def ingest_argv(self, day: int) -> list[str]:
        return ["ingest", "--paths", *_log_paths(self.day_dirs[day]), "--store", self.store,
                "--base-date", _day_date(day), "--format", "json-lines"]

    def expected(self) -> ExpectedDocs:
        docs = ExpectedDocs()
        for day, directory in enumerate(self.day_dirs):
            docs.ingest(_log_paths(directory), _day_date(day))
        return docs

    def append_slice(self, k: int) -> list[str]:
        """Append slice k of the held-back lines to the newest day's files."""
        appended = []
        for path, lines in self.held.items():
            chunk = lines[k * len(lines) // SLICES:(k + 1) * len(lines) // SLICES]
            with open(path, "a", encoding="utf-8", newline="") as handle:
                handle.writelines(chunk)
            appended.extend(chunk)
            self.log_bytes += sum(len(line) for line in chunk)
        return appended


# ---------------------------------------------------------------------------
# The run context shared by the workloads


class Context:
    def __init__(self, root: str, work: str, seed: int, seconds: float, traced: bool) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.probe = Probe()
        self.runner = Runner(root, work, self.probe)
        self.rng = random.Random(seed)
        self.out = Measured()
        if traced:
            self.out.layers = TraceTotals()
        self.setup_probes = 0

    def end_setup(self) -> None:
        """Probe samples from here on belong to the measured phase."""
        self.setup_probes = len(self.probe.samples)

    def finish(self) -> Measured:
        out, split = self.out, self.setup_probes
        out.setup_scale = self.probe.scale(0, split)
        out.scale = self.probe.scale(split)
        out.probes = len(self.probe.samples)
        return out


def ingest_cold(ctx: Context) -> Measured:
    out = ctx.out
    corpus = os.path.join(ctx.work, "cold-corpus")
    store = os.path.join(ctx.work, "cold-store")
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        shutil.rmtree(corpus, ignore_errors=True)
        gen = ctx.runner.cli(["loggen", "--out", corpus, "--seed", str(ctx.seed),
                              "--duration", str(COLD_DURATION_S)])
        if gen.code != 0:
            raise SetupError(f"loggen exit {gen.code}: {gen.stderr.strip()[-300:]}")
        out.setup_s.append(time.perf_counter() - started)
    with open(os.path.join(corpus, "truth.json"), encoding="utf-8") as handle:
        truth = json.load(handle)
    out.fingerprint = corpus_fingerprint(ctx.seed, [corpus])
    lines = [line for path in _log_paths(corpus) for line in _read_lines(path)]
    if len(lines) != sum(truth["line_counts"].values()) or \
            sum(DEBUG_MARK in line for line in lines) != truth["debug_line_count"]:
        raise SetupError("corpus lines disagree with truth.json")
    log_bytes = out.fingerprint["bytes"]
    ctx.end_setup()
    argv = ["ingest", "--paths", *_log_paths(corpus), "--store", store,
            "--base-date", BASE_DATE, "--format", "json-lines"]
    out.shares = {"ingest": 1.0}

    def one(traced: bool) -> Child:
        shutil.rmtree(store, ignore_errors=True)
        child = ctx.runner.cli(argv, traced=traced)
        error = ingest_error(child, lines)
        if error is None:
            indexed = len(lines) - truth["debug_line_count"]
            if store_doc_count(store) != indexed:
                error = f"snapshot holds {store_doc_count(store)} docs, expected {indexed}"
        if out.check("ingest", error):
            if not traced:
                out.samples["ingest"].append(child.wall_s)
                out.rss_mb.append(child.rss_mb)
                out.lines_per_s.append(len(lines) / child.wall_s)
            out.snapshot_ratio = store_index_bytes(store) / log_bytes
        return child

    started = time.perf_counter()
    done = 0
    walls: list[float] = []
    while True:
        if ctx.traced:
            pair = [False, True] if done % 2 == 0 else [True, False]
            children = {traced: one(traced) for traced in pair}
            plain, traced = children[False], children[True]
            if traced.trace is not None:
                out.layers.add_child(traced, useful_docs=0)
                out.layers.pair(plain.wall_s, traced.wall_s)
            walls.append(plain.wall_s + traced.wall_s)
            minimum = 1
        else:
            walls.append(one(False).wall_s)
            minimum = MIN_INGESTS
        done += 1
        elapsed = time.perf_counter() - started
        if done >= minimum and elapsed + median(walls) > ctx.seconds:
            break
    return out


# ---------------------------------------------------------------------------
# live-cli


@dataclass
class Scope:
    pattern: str
    time_range: tuple[int, int] | None
    argv: list[str]


def _scope(rng: random.Random, kind: str, how: str, day: int) -> Scope:
    """One day by index name ("name") or by --from/--to ("range"), or every
    day ("all")."""
    start = _day_start(day)
    if how == "name":
        return Scope(f"storm-{kind}-{day_name(start)}", None, [])
    pattern = f"storm-{kind}-*"
    if how == "range":
        if rng.random() < 0.5:
            lo, hi = start, start + DAY_MS
        else:
            span = int(DAY_SECONDS * (1 - HOLD_BACK)) * 1000
            lo = start + rng.randrange(0, span // 2)
            hi = lo + span // 2
        return Scope(pattern, (lo, hi),
                     ["--from", format_iso8601_ms(lo), "--to", format_iso8601_ms(hi)])
    return Scope(pattern, None, [])


def _query_spec(rng: random.Random, doc) -> dict:
    f = doc.fields
    shape = rng.randrange(3)
    if shape == 0:
        return {"term": {"field": "request_id", "value": f["request_id"]}}
    action = {"term": {"field": "action", "value": f["action"]}}
    if shape == 1:
        return {"and": [action, {"term": {"field": "user_dn", "value": f["user_dn"]}}]}
    who = f["user_dn"].rsplit("=", 1)[-1] or "alice"
    return {"and": [action, {"term": {"field": "message", "value": who}}]}


_AGGS = (
    ("frontend", {"terms": {"field": "action", "top_n": 5}}),
    ("frontend", {"terms": {"field": "user_dn", "top_n": 10}}),
    ("frontend", {"terms": {"field": "geo_label", "top_n": 10}}),
    ("frontend", {"terms": {"field": "client_ip", "top_n": 5}}),
    ("backend", {"terms": {"field": "result", "top_n": 10}}),
    ("backend", {"terms": {"field": "status", "top_n": 10}}),
    ("frontend", {"date_histogram": {"interval_seconds": 10}}),
    ("backend", {"date_histogram": {"interval_seconds": 60}}),
    ("backend-metrics", {"stats": {"field": "mean_ms"}}),
    ("backend-metrics", {"stats": {"field": "p99_ms"}}),
    ("heartbeat", {"stats": {"field": "heap_free_bytes"}}),
    ("monitoring", {"stats": {"field": "sync_avg_ms"}}),
    ("frontend", {"geo_grid": {"cell_degrees": 1.0}}),
    ("frontend", {"geo_grid": {"cell_degrees": 5.0}}),
)
# CLI aggregations stay on the two large log kinds, so that every `agg`
# command loads a comparable share of the store.
_CLI_AGGS = tuple(a for a in _AGGS if a[0] in ("frontend", "backend")) + (
    ("frontend", {"stats": {"field": "geo_lat"}}),
)


def _normalise(value):
    return json.loads(json.dumps(value))


class LiveSession:
    def __init__(self, ctx: Context, store: MultiDayStore) -> None:
        self.ctx = ctx
        self.out = ctx.out
        self.store = store
        self.expected = store.expected()
        self.docs = self.expected.by_index
        self.slices_done = 0
        self.pairs = 0
        self.turns: Counter = Counter()
        self.job_path = os.path.join(ctx.work, "job.json")
        self.out_dir = os.path.join(ctx.work, "cli-out")

    def _day(self, kind: str) -> int:
        """Cycle each command type through the days, so every seed does the
        same work per block."""
        self.turns[kind] += 1
        return self.turns[kind] % DAYS

    # Each builder returns (argv, check, useful) where check(child) returns
    # an error or None and useful is the number of documents the command's
    # index patterns and time range can match.

    def _useful(self, targets: list[tuple[str, tuple[int, int] | None]]) -> int:
        total = 0
        for name, docs in self.docs.items():
            day = parse_date_ms(name[-10:].replace(".", "-"))
            for pattern, time_range in targets:
                if oracle.pattern_matches(pattern, name) and (
                    time_range is None or (time_range[0] < day + DAY_MS and time_range[1] > day)
                ):
                    total += len(docs)
                    break
        return total

    def _candidates(self, kind: str, scope: Scope) -> list:
        return self.expected.candidates(kind, scope.pattern, scope.time_range)

    def query(self, how: str):
        rng = self.ctx.rng
        kind = rng.choice(("frontend", "backend"))
        scope = _scope(rng, kind, how, self._day("query"))
        q = _query_spec(rng, rng.choice(self._candidates(kind, scope)))
        argv = ["query", "--store", self.store.store, "--index", scope.pattern,
                "--q", json.dumps(q), "--format", "json-lines", *scope.argv]

        def check(child: Child):
            want = [
                {"id": d.id, "index": d.index_name, "fields": _normalise(d.fields)}
                for d in oracle.select(self.docs, scope.pattern, q, scope.time_range)
            ]
            got = [json.loads(line) for line in child.stdout.splitlines() if line]
            return None if got == want else f"query {q} returned {len(got)} docs, want {len(want)}"
        return argv, check, self._useful([(scope.pattern, scope.time_range)])

    def agg(self, how: str):
        rng = self.ctx.rng
        kind, agg = rng.choice(_CLI_AGGS)
        scope = _scope(rng, kind, how, self._day("agg"))
        q = {"match_all": {}}
        if kind == "frontend" and rng.random() < 0.3:
            action = rng.choice(self._candidates(kind, scope)).fields["action"]
            q = {"term": {"field": "action", "value": action}}
        argv = ["agg", "--store", self.store.store, "--index", scope.pattern,
                "--agg", json.dumps(agg), "--q", json.dumps(q), "--format", "json-lines",
                *scope.argv]

        def check(child: Child):
            docs = oracle.select(self.docs, scope.pattern, q, scope.time_range)
            want = _normalise(oracle.agg_rows(agg, oracle.aggregate(docs, agg)))
            got = [json.loads(line) for line in child.stdout.splitlines() if line]
            return None if got == want else f"agg {agg} on {scope.pattern} differs"
        return argv, check, self._useful([(scope.pattern, scope.time_range)])

    def report(self, how: str):
        rng = self.ctx.rng
        time_range = None
        argv = ["report", "--store", self.store.store, "--out", self.out_dir,
                "--interval", "60", "--top", "8", "--cell", "1.0"]
        if how == "range":
            start = _day_start(self._day("report"))
            time_range = (start, start + DAY_MS)
            argv += ["--from", format_iso8601_ms(start), "--to", format_iso8601_ms(start + DAY_MS)]

        def check(child: Child):
            if child.code != 0:
                return f"exit {child.code}"
            match_all = {"match_all": {}}
            gauge = oracle.aggregate(
                oracle.select(self.docs, "storm-backend-*", match_all, time_range),
                {"terms": {"field": "status", "top_n": 10}})
            fe_docs = oracle.select(self.docs, "storm-frontend-*", match_all, time_range)
            top = oracle.aggregate(fe_docs, {"terms": {"field": "action", "top_n": 8}})
            series = []
            for action, _count in top:
                chosen = [d for d in fe_docs if d.fields.get("action") == action]
                for start, count in oracle.aggregate(
                        chosen, {"date_histogram": {"interval_seconds": 60}}):
                    series.append({"action": action, "bucket_start": start,
                                   "bucket_iso": format_iso8601_ms(start), "count": count})
            grid = oracle.aggregate(fe_docs, {"geo_grid": {"cell_degrees": 1.0}})
            want = {
                "status_gauge": [{"status": v, "count": c} for v, c in gauge],
                "request_timeseries": series,
                "geo_heatmap": [{"cell_lat": a, "cell_lon": b, "count": c} for a, b, c in grid],
            }
            for name, rows in want.items():
                with open(os.path.join(self.out_dir, f"{name}.jsonl"), encoding="utf-8") as fh:
                    got = [json.loads(line) for line in fh if line.strip()]
                if got != _normalise(rows):
                    return f"report {name} differs"
            return None
        targets = [("storm-backend-*", time_range), ("storm-frontend-*", time_range)]
        return argv, check, self._useful(targets)

    def _ml(self, forecast: bool):
        rng = self.ctx.rng
        kind = rng.choice(("frontend", "backend"))
        lo = _day_start(self._day("ml"))
        hi = lo + DAY_SECONDS * 1000
        metric = {"indices": f"storm-{kind}-*", "detector": {"kind": "count"},
                  "bucket_span_seconds": 5, "filter": {"match_all": {}}}
        if rng.random() < 0.5:
            doc = rng.choice(self._candidates(kind, Scope(f"storm-{kind}-*", (lo, hi), [])))
            metric["filter"] = {"term": {"field": "action", "value": doc.fields["action"]}}
        job = {"metric": metric, "from": format_iso8601_ms(lo), "to": format_iso8601_ms(hi)}
        with open(self.job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        argv = ["ml", "forecast" if forecast else "detect", "--store", self.store.store,
                "--job", self.job_path, "--out", self.out_dir]
        if forecast:
            argv += ["--horizon", "12"]

        def check(child: Child):
            if child.code != 0:
                return f"exit {child.code}: {child.stderr.strip()[-300:]}"
            start, values, counts = oracle.series(self.docs, metric, lo, hi)
            series = metrics.MetricSeries(start, 5, values, counts)
            result = anomaly.detect(series, anomaly.DetectorParams())
            if forecast:
                points = anomaly.forecast(result.model, 12, start_ms=start + len(values) * 5000,
                                          span_seconds=5, beta=0.05)
                want = {"forecast.csv": anomaly.forecast_to_csv(points)}
            else:
                want = {"series.csv": metrics.series_to_csv(series),
                        "records.csv": anomaly.records_to_csv(result.records)}
            for name, text in want.items():
                with open(os.path.join(self.out_dir, name), encoding="utf-8") as handle:
                    if handle.read() != text:
                        return f"ml {name} differs for job {job}"
            return None
        return argv, check, self._useful([(metric["indices"], (lo, hi))])

    def ml_detect(self, _how):
        return self._ml(False)

    def ml_forecast(self, _how):
        return self._ml(True)

    def append(self, _how):
        k = self.slices_done
        self.slices_done += 1
        lines = self.store.append_slice(k)
        self.expected.ingest(_log_paths(self.store.day_dirs[-1]), _day_date(DAYS - 1))
        newest = day_name(_day_start(DAYS - 1))
        useful = sum(len(docs) for name, docs in self.docs.items() if name.endswith(newest))
        return self.store.ingest_argv(DAYS - 1), lambda child: ingest_error(child, lines), useful

    def noop(self, _how):
        return self.store.ingest_argv(DAYS - 1), lambda child: ingest_error(child, []), 0

    def run(self) -> None:
        ctx, out = self.ctx, self.out
        out.shares = {t: n / len(LIVE_BLOCK) for t, n in Counter(t for t, _ in LIVE_BLOCK).items()}
        started = time.perf_counter()
        blocks = 0
        block_walls: list[float] = []
        while blocks < SLICES:
            block_started = time.perf_counter()
            order = list(LIVE_BLOCK)
            ctx.rng.shuffle(order)
            for kind, how in order:
                self.command(kind, how)
            blocks += 1
            block_walls.append(time.perf_counter() - block_started)
            minimum = 1 if ctx.traced else MIN_LIVE_BLOCKS
            elapsed = time.perf_counter() - started
            if blocks >= minimum and elapsed + median(block_walls) > ctx.seconds:
                break

    def command(self, kind: str, how: str | None) -> None:
        """Run one command; a traced run repeats it untraced to price the tracer.

        An append cannot be repeated (the second run would be a no-op), so
        in a traced run it runs once, traced, and is left out of the pairs.
        """
        ctx, out = self.ctx, self.out
        argv, check, useful = getattr(self, kind)(how)
        if not ctx.traced:
            order = [False]
        elif kind == "append":
            order = [True]
        else:
            self.pairs += 1
            order = [False, True] if self.pairs % 2 else [True, False]
        walls = {}
        for traced in order:
            child = ctx.runner.cli(argv, traced=traced)
            error = f"exit {child.code}: {child.stderr.strip()[-300:]}" if child.code else None
            if not out.check(kind, error or check(child)):
                continue
            walls[traced] = child.wall_s
            if not traced:
                out.samples[kind].append(child.wall_s)
                out.rss_mb.append(child.rss_mb)
            elif child.trace is not None:
                out.layers.add_child(child, useful)
        if len(walls) == 2:
            out.layers.pair(walls[False], walls[True])


def live_cli(ctx: Context) -> Measured:
    out = ctx.out
    store = MultiDayStore(ctx.runner, ctx.seed, os.path.join(ctx.work, "multiday"))
    for _ in range(SETUP_REPEATS):
        out.setup_s.append(store.build())
    out.fingerprint = store.fingerprint
    session = LiveSession(ctx, store)
    ctx.end_setup()
    session.run()
    out.snapshot_ratio = store_index_bytes(store.store) / store.log_bytes
    return out


# ---------------------------------------------------------------------------
# search-warm


@dataclass
class Op:
    kind: str
    source: str
    pattern: str
    query: dict
    agg: dict | None
    time_range: tuple[int, int] | None
    expected: object = None

    def __post_init__(self) -> None:
        # Parsed once, so that a timed call is the search or aggregation alone.
        self.parsed_query = index.query_from_json(self.query)
        self.parsed_agg = None if self.agg is None else index.aggregation_from_json(self.agg)

    def call(self, store):
        if self.agg is None:
            return index.search(store, self.pattern, self.parsed_query, self.time_range)
        return index.aggregate(store, self.pattern, self.parsed_query, self.parsed_agg,
                               self.time_range)

    def error(self, result) -> str | None:
        got = [d.id for d in result] if self.agg is None else _normalise(result)
        return None if got == self.expected else f"{self.kind} {self.query} {self.agg} differs"


def _search_ops(rng: random.Random, expected: ExpectedDocs) -> dict[str, list[Op]]:
    """Twelve concrete calls per type, each with its expected answer.

    Variant i of every type takes its log kind and scope from SEARCH_SCOPES
    and its day from i, so the cost mix is the same for every seed; the seed
    picks terms and time windows. A variant's samples are keyed "type/i".
    """
    ops: dict[str, list[Op]] = defaultdict(list)
    for kind_name in SEARCH_BLOCK:
        aggs = [a for a in _AGGS if kind_name.removeprefix("agg.") in a[1]]
        for i, (source, how) in enumerate(SEARCH_SCOPES * 2):
            agg = None
            if aggs:
                source, agg = aggs[i % len(aggs)]
            scope = _scope(rng, source, how, i % DAYS)
            f = rng.choice(expected.candidates(source, scope.pattern, scope.time_range)).fields
            q: dict = {"match_all": {}}
            if kind_name == "search.term":
                q = {"term": {"field": "request_id", "value": f["request_id"]}}
            elif kind_name == "search.and":
                q = {"and": [{"term": {"field": "action", "value": f["action"]}},
                             {"term": {"field": "user_dn", "value": f["user_dn"]}}]}
            elif kind_name == "search.message":
                who = f["user_dn"].rsplit("=", 1)[-1] or "alice"
                q = {"term": {"field": "message", "value": (f["action"], who, "srm")[i % 3]}}
            elif kind_name == "search.range":
                ts = f["@timestamp"]
                q = {"range": {"field": "@timestamp", "min": ts - 60_000, "max": ts + 60_000}}
            chosen = oracle.select(expected.by_index, scope.pattern, q, scope.time_range)
            if agg is None:
                answer = [d.id for d in chosen]
            else:
                answer = _normalise(oracle.aggregate(chosen, agg))
            ops[kind_name].append(
                Op(f"{kind_name}/{i}", source, scope.pattern, q, agg, scope.time_range, answer))
    return ops


def search_warm(ctx: Context) -> Measured:
    out = ctx.out
    store = MultiDayStore(ctx.runner, ctx.seed, os.path.join(ctx.work, "multiday"))
    loaded = None
    for _ in range(SETUP_REPEATS):
        loaded = None
        started = time.perf_counter()
        store.build()
        ctx.probe.sample()
        loaded = index.load_store(store.store)
        ctx.probe.sample()
        out.setup_s.append(time.perf_counter() - started)
    out.fingerprint = store.fingerprint
    out.snapshot_ratio = store_index_bytes(store.store) / store.log_bytes
    ops = _search_ops(ctx.rng, store.expected())
    out.shares = {t: n / sum(SEARCH_BLOCK.values()) for t, n in SEARCH_BLOCK.items()}
    ctx.end_setup()
    block = [t for t, n in SEARCH_BLOCK.items() for _ in range(n)]

    def run_block(plan: list[Op], traced: bool) -> float:
        """Run the plan; returns the time spent inside the calls."""
        uninstall = None
        tracer = None
        if traced:
            tracer = tracing.Tracer(out.attempted)
            uninstall = tracing.install(tracer)
        wall = 0.0
        ctx.probe.sample()
        try:
            for op in plan:
                started = time.perf_counter()
                result = op.call(loaded)
                elapsed = time.perf_counter() - started
                wall += elapsed
                if out.check(op.kind, op.error(result)) and not traced:
                    out.samples[op.kind].append(elapsed)
        finally:
            if uninstall is not None:
                uninstall()
        ctx.probe.sample()
        if tracer is not None:
            out.layers.add({"spans": tracer.spans, "counts": tracer.counts,
                            "gauges": tracer.gauges}, wall, ops=len(plan))
        return wall

    gc.collect()
    started = time.perf_counter()
    blocks = 0
    walls: list[float] = []
    while True:
        ctx.rng.shuffle(block)
        plan = [ctx.rng.choice(ops[t]) for t in block]
        if ctx.traced:
            order = [False, True] if blocks % 2 == 0 else [True, False]
            timed = {traced: run_block(plan, traced) for traced in order}
            out.layers.pair(timed[False], timed[True])
            walls.append(timed[False] + timed[True])
        else:
            walls.append(run_block(plan, False))
        blocks += 1
        elapsed = time.perf_counter() - started
        if blocks >= MIN_SEARCH_BLOCKS and elapsed + median(walls) > ctx.seconds:
            break
    out.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


WORKLOADS = {
    "ingest-cold": ingest_cold,
    "live-cli": live_cli,
    "search-warm": search_warm,
}
