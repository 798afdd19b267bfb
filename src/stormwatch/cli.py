"""Command-line entry point.

Subcommands: loggen, ingest, query, agg, report, ml detect, ml forecast,
index rm. Exit codes: 0 success, 1 usage or configuration error, 2 data
error (dead-letter fraction above threshold, unreadable or corrupt store or
registry), 3 internal error. An error's base class decides its code: every
layer raises a ValueError for bad input or configuration (1), and a
StoreError, or a file's OSError, for data it cannot read (2); anything else
is a bug (3).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Iterator

# Each command imports the layers it runs, other than the store, when it runs.
from . import index as index_store
from .timeutil import format_iso8601_ms, parse_date_ms, parse_iso8601_ms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _parse_when(text: str) -> int:
    if text.isdigit():
        return int(text)
    try:
        return parse_iso8601_ms(text)
    except ValueError:
        try:
            return parse_date_ms(text)
        except ValueError:
            raise UsageError(f"not a timestamp: {text!r}") from None


def _parse_anomaly(text: str) -> loggen.AnomalySpec:
    from . import loggen
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"expected kind:start:end[:magnitude], got {text!r}")
    magnitude = float(parts[3]) if len(parts) == 4 else 10.0
    return loggen.AnomalySpec(
        kind=parts[0], start_s=int(parts[1]), end_s=int(parts[2]), magnitude=magnitude
    )


def _load_query(text: str | None) -> index_store.Query:
    if not text:
        return index_store.MatchAll()
    try:
        return index_store.query_from_json(json.loads(text))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(f"bad query: {exc}") from exc


def _time_range(args) -> tuple[int | None, int | None] | None:
    lo = _parse_when(args.from_) if args.from_ else None
    hi = _parse_when(args.to) if args.to else None
    if lo is None and hi is None:
        return None
    return (lo, hi)


def _csv_field(value) -> str:
    text = "" if value is None else str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render_rows(header: list[str], rows: list[list], fmt: str) -> Iterator[str]:
    """The rows as CSV lines under the header, or as one JSON object each.

    A CSV value is quoted only when it holds a comma or a double quote.
    """
    if fmt == "json-lines":
        for row in rows:
            yield json.dumps(dict(zip(header, row)), sort_keys=True, ensure_ascii=False)
    else:
        for row in (header, *rows):
            yield ",".join(map(_csv_field, row))


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(content)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_loggen(args) -> int:
    from . import loggen
    workload = loggen.WorkloadSpec(
        seed=args.seed,
        duration_seconds=args.duration,
        start_ms=_parse_when(args.start),
        error_rate=args.error_rate,
    )
    anomalies = [_parse_anomaly(a) for a in args.anomaly]
    truth = loggen.generate(workload, anomalies, args.out)
    total = sum(truth["line_counts"].values())
    print(f"wrote {total} lines across 5 files to {args.out}")
    for kind, count in sorted(truth["line_counts"].items()):
        print(f"  {kind}: {count}")
    return EXIT_OK


def ingest(pipe, store, ship, paths, dead_file) -> dict[str, int]:
    """Ship each path to its end, process every record and index the documents.

    Each shipped batch's documents are written with one `index_documents`
    call. The shipper's registry moves past each batch in memory only: the
    caller checkpoints it once the store is saved. Dead letters go to
    `dead_file` as JSON lines. Returns the shipped, indexed, dead and
    dropped record counts.
    """
    from . import pipeline
    shipped = indexed = dead = 0

    def documents(records):
        nonlocal dead
        for record in records:
            outcome = pipeline.process(pipe, record)
            if isinstance(outcome, pipeline.DeadLetter):
                dead += 1
                dead_file.write(pipeline.dead_letter_json(outcome))
                dead_file.write("\n")
            elif outcome is not None:
                yield outcome

    for path in paths:
        while True:
            batch = ship.poll(path)
            if not batch.records:
                break
            shipped += len(batch.records)
            indexed += index_store.index_documents(store, documents(batch.records))
    return {"shipped": shipped, "indexed": indexed, "dead": dead,
            "dropped": shipped - indexed - dead}


def _shares(paths: list[str], workers: int, registry) -> list[list[tuple[int, str]]]:
    """Deal the paths, whole log kinds at a time, onto at most `workers`
    shares of (position in `paths`, path) pairs.

    Indices are named by kind and day contexts are kept per source, so no
    index or day context spans two shares. The kinds go largest first, by
    the file bytes the `registry` has yet to ship, onto the share with the
    fewest bytes so far; each share keeps its paths in the given order. A
    kind with nothing to ship adds no share, so a no-op ingest is one share.
    """
    from . import codecs, shipper
    kinds = [codecs.classify_file(path) for path in paths]
    sizes: dict = {}
    for kind, path in zip(kinds, paths):
        st = os.stat(path)
        unshipped = st.st_size - shipper.resume_offset(registry, path, st)
        sizes[kind] = sizes.get(kind, 0) + unshipped
    loads = [0] * max(1, min(workers, sum(map(bool, sizes.values()))))
    share_of = {}
    for kind in sorted(sizes, key=sizes.get, reverse=True):
        share_of[kind] = loads.index(min(loads))
        loads[share_of[kind]] += sizes[kind]
    shares: list[list[tuple[int, str]]] = [[] for _ in loads]
    for position, (kind, path) in enumerate(zip(kinds, paths)):
        shares[share_of[kind]].append((position, path))
    return shares


def _ingest_share(pipe, ship, root: str, share: list[tuple[int, str]]) -> dict:
    """Run `ingest` over one share into its own store and save that store.

    Returns the counts, the names of the indices written, the share's final
    registry entries, its dead letters as `dead` and the `perf_counter` at
    the end of the loop. An exception is returned, not raised, as `error`,
    with `at`, the position of the path it came from, and no registry
    entries or dead letters: the share saved none of its documents.
    """
    import io
    store = index_store.Store(root=root)
    dead = io.StringIO()
    at = share[0][0]

    def walk():
        nonlocal at
        for at, path in share:
            yield path

    try:
        counts = ingest(pipe, store, ship, walk(), dead)
        end = time.perf_counter()
        index_store.save_store(store, root)
    except Exception as exc:
        return {"error": exc, "at": at, "entries": {}, "dead": ""}
    entries = ship.registry.entries
    return {"error": None, "counts": counts, "end": end, "indices": list(store.indices),
            "entries": {path: entries[path] for _, path in share if path in entries},
            "dead": dead.getvalue()}


def _fork_share(pipe, ship, root: str, share: list[tuple[int, str]]) -> tuple[int, int]:
    """Fork a process that runs `_ingest_share` and sends its result back
    over a pipe. Returns the child's pid and the pipe's read end. The child
    never returns from here."""
    import pickle
    read_fd, write_fd = os.pipe()
    # The CLI starts no threads, so no lock is held across the fork.
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        result = _ingest_share(pipe, ship, root, share)
        with os.fdopen(write_fd, "wb") as out:
            pickle.dump(result, out)
        code = 0
    finally:
        os._exit(code)


def _reap_share(pid: int, read_fd: int, share: list[tuple[int, str]]) -> dict:
    """Read a forked share's result to the end of its pipe, then reap it.
    Only a child that exited 0 sent a whole result; any other one failed."""
    import pickle
    with os.fdopen(read_fd, "rb") as handle:
        data = handle.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return pickle.loads(data)
    return {"error": RuntimeError(f"ingest worker {pid} exited with status {code}"),
            "at": share[0][0], "entries": {}, "dead": ""}


def _ingest_shares(pipe, ship, root: str, shares, dead_file) -> tuple[dict, set[str], float]:
    """Ingest every share, the first in this process and each other one in
    a forked process; returns the summed counts, the indices written and
    the latest loop end.

    The run commits once, when every share has saved or failed: it appends
    the dead letters to `dead_file` and syncs them, then merges the shares'
    entries over the start entries and checkpoints them. A killed run, and
    a failed share, which gives back no entries, leave their lines to ship
    again; replayed lines dedupe on write. The first error in path order is
    then raised.
    """
    from . import shipper
    sys.stdout.flush()
    sys.stderr.flush()
    entries = dict(ship.registry.entries)
    children, results = [], []
    try:
        for share in shares[1:]:
            children.append((*_fork_share(pipe, ship, root, share), share))
        results.append(_ingest_share(pipe, ship, root, shares[0]))
    finally:
        results += [_reap_share(*child) for child in children]
    for result in results:
        dead_file.write(result["dead"])
        entries.update(result["entries"])
    dead_file.flush()
    os.fsync(dead_file.fileno())
    ship.registry = shipper.TailRegistry(entries)
    ship.checkpoint()
    failed = [result for result in results if result["error"] is not None]
    if failed:
        raise min(failed, key=lambda result: result["at"])["error"]
    counts = {key: sum(result["counts"][key] for result in results)
              for key in results[0]["counts"]}
    indices = set().union(*(result["indices"] for result in results))
    return counts, indices, max(result["end"] for result in results)


def cmd_ingest(args) -> int:
    from . import pipeline, shipper
    if args.batch_size < 1:
        raise UsageError("--batch-size must be >= 1")
    for path in args.paths:
        if not os.path.exists(path):
            raise UsageError(f"no such file: {path}")
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            config_text = handle.read()
    else:
        config_text = json.dumps(pipeline.default_pipeline_config(args.base_date))
    pipe = pipeline.load_pipeline(config_text)

    os.makedirs(args.store, exist_ok=True)
    registry_path = args.registry or os.path.join(args.store, "registry.json")
    dead_path = args.dead_letters or os.path.join(args.store, "dead_letters.jsonl")
    ship = shipper.Shipper(registry_path, beat_name=args.beat_name, batch_size=args.batch_size)
    # One share per usable CPU; with one, nothing is forked.
    affinity = getattr(os, "sched_getaffinity", None)
    shares = _shares(args.paths, len(affinity(0)) if affinity else 1, ship.registry)
    existing = index_store.index_names(args.store)

    started = time.perf_counter()
    with open(dead_path, "a", encoding="utf-8") as dead_file:
        counts, written, loop_end = _ingest_shares(pipe, ship, args.store, shares, dead_file)
    elapsed = loop_end - started
    created = sorted(written - set(existing))
    shipped, indexed = counts["shipped"], counts["indexed"]
    dead, dropped = counts["dead"], counts["dropped"]

    rate = shipped / elapsed if elapsed > 0 else 0.0
    summary = {
        "shipped": shipped,
        "indexed": indexed,
        "dead_letters": dead,
        "dropped": dropped,
        "indices_created": created,
        "elapsed_s": round(elapsed, 3),
        "lines_per_s": round(rate),
    }
    if args.format == "json-lines":
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"shipped {shipped} indexed {indexed} dead-letters {dead} "
            f"dropped {dropped} in {elapsed:.2f}s ({rate:,.0f} lines/s)"
        )
        for name in created:
            print(f"  created {name}")
    if shipped > 0 and dead / shipped > args.max_dead_fraction:
        print(
            f"dead-letter fraction {dead / shipped:.2%} exceeds "
            f"{args.max_dead_fraction:.2%}",
            file=sys.stderr,
        )
        return EXIT_DATA
    return EXIT_OK


_QUERY_CSV_COLUMNS = ("id", "@timestamp", "kind", "status", "action", "message")


def cmd_query(args) -> int:
    time_range = _time_range(args)
    store = index_store.load_store(args.store, args.index, time_range)
    q = _load_query(args.q)
    docs = index_store.search(store, args.index, q, time_range)
    if args.format == "json-lines":
        header = ["id", "index", "fields"]
        rows = [[doc.id, doc.index_name, doc.fields] for doc in docs]
    else:
        header = list(_QUERY_CSV_COLUMNS)
        rows = [[doc.id, *map(doc.fields.get, _QUERY_CSV_COLUMNS[1:])] for doc in docs]
    for line in _render_rows(header, rows, args.format):
        print(line)
    print(f"# {len(docs)} documents", file=sys.stderr)
    return EXIT_OK


def _agg_rows(agg, result) -> tuple[list[str], list[list]]:
    if isinstance(agg, index_store.TermsAgg):
        return ["value", "count"], [[v, c] for v, c in result]
    if isinstance(agg, index_store.DateHistogramAgg):
        return ["bucket_start", "count"], [[b, c] for b, c in result]
    if isinstance(agg, index_store.StatsAgg):
        return list(result.keys()), [list(result.values())]
    return ["cell_lat", "cell_lon", "count"], [[la, lo, c] for la, lo, c in result]


def cmd_agg(args) -> int:
    time_range = _time_range(args)
    store = index_store.load_store(args.store, args.index, time_range)
    q = _load_query(args.q)
    try:
        agg = index_store.aggregation_from_json(json.loads(args.agg))
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise UsageError(f"bad aggregation: {exc}") from exc
    result = index_store.aggregate(store, args.index, q, agg, time_range)
    for line in _render_rows(*_agg_rows(agg, result), args.format):
        print(line)
    return EXIT_OK


def _report_csv_jsonl(out_dir: str, name: str, header: list[str], rows: list[list]) -> None:
    for fmt, suffix in (("csv", "csv"), ("json-lines", "jsonl")):
        body = "".join(f"{line}\n" for line in _render_rows(header, rows, fmt))
        _write(os.path.join(out_dir, f"{name}.{suffix}"), body)


def cmd_report(args) -> int:
    for name, value in (("interval_seconds", args.interval), ("top_n", args.top)):
        if value < 1:
            raise UsageError(f"{name} must be >= 1")
    if args.cell <= 0:
        raise UsageError("cell_degrees must be positive")
    if not math.isfinite(args.cell):
        raise UsageError("cell_degrees must be finite")
    time_range = _time_range(args)
    store = index_store.load_store(args.store, time_range=time_range)
    os.makedirs(args.out, exist_ok=True)
    match_all = index_store.MatchAll()

    gauge = index_store.aggregate(
        store, "storm-backend-*", match_all, index_store.TermsAgg("status", 10), time_range
    )
    _report_csv_jsonl(args.out, "status_gauge", ["status", "count"], [[v, c] for v, c in gauge])

    top_ops = index_store.aggregate(
        store, "storm-frontend-*", match_all, index_store.TermsAgg("action", args.top), time_range
    )
    rows = []
    for action, _count in top_ops:
        series = index_store.aggregate(
            store,
            "storm-frontend-*",
            index_store.Term("action", action),
            index_store.DateHistogramAgg(args.interval),
            time_range,
        )
        for bucket_start, count in series:
            rows.append([action, bucket_start, format_iso8601_ms(bucket_start), count])
    _report_csv_jsonl(
        args.out, "request_timeseries", ["action", "bucket_start", "bucket_iso", "count"], rows
    )

    grid = index_store.aggregate(
        store, "storm-frontend-*", match_all, index_store.GeoGridAgg(args.cell), time_range
    )
    _report_csv_jsonl(
        args.out, "geo_heatmap", ["cell_lat", "cell_lon", "count"],
        [[la, lo, c] for la, lo, c in grid],
    )
    print(f"wrote status_gauge, request_timeseries, geo_heatmap to {args.out}")
    return EXIT_OK


def _load_job(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            job = json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read job config: {exc}") from exc
    if not isinstance(job, dict) or "metric" not in job:
        raise UsageError("job config must be an object with a metric key")
    return job


def _job_series(root: str, job) -> metrics.MetricSeries:
    """Load the job's indices over its [from, to) and build its series."""
    from . import metrics
    try:
        spec = metrics.metric_spec_from_json(job["metric"])
        from_ms = _parse_when(str(job["from"]))
        to_ms = _parse_when(str(job["to"]))
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad job config: {exc}") from exc
    store = index_store.load_store(root, spec.indices, (from_ms, to_ms))
    series = metrics.build_series(store, spec, from_ms, to_ms)
    return metrics.gap_fill(series, job.get("gap_policy", "skip"))


def _job_params(job) -> anomaly.DetectorParams:
    from . import anomaly
    default = anomaly.DetectorParams()
    try:
        cutpoints = tuple(job.get("thresholds", default.level_cutpoints))
        if (len(cutpoints) != 4 or not {int, float}.issuperset(map(type, cutpoints))
                or sorted(cutpoints) != list(cutpoints)):
            raise ValueError("thresholds must be 4 ascending numbers")
        return anomaly.DetectorParams(
            decay=float(job.get("decay", default.decay)),
            warmup_buckets=int(job.get("warmup_buckets", default.warmup_buckets)),
            k_bound=float(job.get("k_bound", default.k_bound)),
            level_cutpoints=cutpoints,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad job config: {exc}") from exc


def cmd_ml_detect(args) -> int:
    from . import anomaly, metrics
    job = _load_job(args.job)
    series = _job_series(args.store, job)
    result = anomaly.detect(series, _job_params(job))
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "series.csv"), metrics.series_to_csv(series))
    _write(os.path.join(args.out, "records.csv"), anomaly.records_to_csv(result.records))
    _write(os.path.join(args.out, "bounds.csv"), anomaly.bounds_to_csv(result))
    model = result.model
    _write(
        os.path.join(args.out, "model.json"),
        json.dumps(
            {
                "mean": model.mean,
                "sigma": model.sigma,
                "observed": model.observed,
                "decay": model.decay,
                "k_bound": model.k_bound,
                "warmup_buckets": model.warmup_buckets,
            },
            sort_keys=True,
        )
        + "\n",
    )
    print(f"{len(result.records)} anomaly records over {len(series)} buckets -> {args.out}")
    return EXIT_OK


def cmd_ml_forecast(args) -> int:
    from . import anomaly
    if args.horizon < 1:
        raise UsageError("forecast horizon must be >= 1")
    job = _load_job(args.job)
    try:
        beta = float(job.get("beta", 0.05))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad job config: {exc}") from exc
    series = _job_series(args.store, job)
    result = anomaly.detect(series, _job_params(job))
    if result.model.in_warmup:
        raise UsageError("not enough data to train past warmup")
    horizon_start = series.start_ms + len(series) * series.span_seconds * 1000
    points = anomaly.forecast(
        result.model,
        args.horizon,
        start_ms=horizon_start,
        span_seconds=series.span_seconds,
        beta=beta,
    )
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "forecast.csv"), anomaly.forecast_to_csv(points))
    print(f"{len(points)} forecast points -> {args.out}")
    return EXIT_OK


def cmd_index_rm(args) -> int:
    store = index_store.Store(root=args.store)
    on_disk = index_store.index_names(args.store)
    names = []
    for pattern in args.names:
        if "*" in pattern:
            names.extend(index_store.match_index_pattern(pattern, on_disk))
        else:
            names.append(pattern)
    if not names:
        raise UsageError("no indices matched")
    # All or nothing: every name resolves before the save deletes any.
    names = list(dict.fromkeys(names))
    for name in names:
        index_store.delete_index(store, name)
    index_store.save_store(store, args.store)
    for name in names:
        print(f"deleted {name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="stormwatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("loggen", help="generate a synthetic log corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--duration", type=int, default=1800, help="seconds, multiple of 60")
    p.add_argument("--start", default="2024-03-01T00:00:00.000Z")
    p.add_argument("--error-rate", type=float, default=0.02)
    p.add_argument("--anomaly", action="append", default=[],
                   metavar="KIND:START:END[:MAG]")
    p.set_defaults(func=cmd_loggen)

    p = sub.add_parser("ingest", help="ship, parse and index log files")
    p.add_argument("--paths", nargs="+", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--config", help="pipeline config JSON file")
    p.add_argument("--base-date", default="1970-01-01",
                   help="calendar date for time-of-day-only logs")
    p.add_argument("--batch-size", type=int, default=2000)
    p.add_argument("--beat-name", default="beat-local")
    p.add_argument("--registry")
    p.add_argument("--dead-letters")
    p.add_argument("--max-dead-fraction", type=float, default=0.01)
    p.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("query", help="search indexed documents")
    p.add_argument("--store", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--q", help="query JSON")
    p.add_argument("--from", dest="from_")
    p.add_argument("--to", dest="to")
    p.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("agg", help="run one aggregation")
    p.add_argument("--store", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--agg", required=True, help="aggregation JSON")
    p.add_argument("--q", help="query JSON")
    p.add_argument("--from", dest="from_")
    p.add_argument("--to", dest="to")
    p.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    p.set_defaults(func=cmd_agg)

    p = sub.add_parser("report", help="write the three plot-ready reports")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--from", dest="from_")
    p.add_argument("--to", dest="to")
    p.add_argument("--interval", type=int, default=3600, help="timeseries bucket seconds")
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--cell", type=float, default=1.0, help="geo grid cell degrees")
    p.set_defaults(func=cmd_report)

    ml = sub.add_parser("ml", help="anomaly detection and forecasting")
    mlsub = ml.add_subparsers(dest="ml_command", required=True)
    p = mlsub.add_parser("detect")
    p.add_argument("--store", required=True)
    p.add_argument("--job", required=True, help="job config JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ml_detect)
    p = mlsub.add_parser("forecast")
    p.add_argument("--store", required=True)
    p.add_argument("--job", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=cmd_ml_forecast)

    ix = sub.add_parser("index", help="index management")
    ixsub = ix.add_subparsers(dest="index_command", required=True)
    p = ixsub.add_parser("rm")
    p.add_argument("--store", required=True)
    p.add_argument("names", nargs="+")
    p.set_defaults(func=cmd_index_rm)

    return parser


def _exit_code(exc: Exception) -> int:
    """The exit code for an exception that a command raised, by its base class."""
    if isinstance(exc, ValueError):
        return EXIT_USAGE
    if isinstance(exc, (OSError, index_store.StoreError)):
        return EXIT_DATA
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        prefix = "internal error" if code == EXIT_INTERNAL else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
