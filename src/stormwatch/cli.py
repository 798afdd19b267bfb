"""Command-line entry point.

Subcommands: loggen, ingest, query, agg, report, ml detect, ml forecast,
index rm. Exit codes: 0 success, 1 usage or configuration error, 2 data
error (dead-letter fraction above threshold, unreadable or corrupt store),
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterator

from . import anomaly, index as index_store, loggen, metrics, pipeline, shipper
from .codecs import UnknownLogKind
from .timeutil import format_iso8601_ms, parse_date_ms, parse_iso8601_ms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
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
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"expected kind:start:end[:magnitude], got {text!r}")
    try:
        magnitude = float(parts[3]) if len(parts) == 4 else 10.0
        return loggen.AnomalySpec(
            kind=parts[0], start_s=int(parts[1]), end_s=int(parts[2]), magnitude=magnitude
        )
    except (ValueError, loggen.LoggenError) as exc:
        raise UsageError(str(exc)) from exc


def _load_query(text: str | None) -> index_store.Query:
    if not text:
        return index_store.MatchAll()
    try:
        return index_store.query_from_json(json.loads(text))
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
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

    Dead letters go to `dead_file` as JSON lines, and the shipper's registry
    is checkpointed after every batch. Returns the shipped, indexed, dead and
    dropped record counts.
    """
    shipped = indexed = dead = dropped = 0
    for path in paths:
        while True:
            batch = ship.poll(path)
            if not batch.records:
                break
            for record in batch.records:
                shipped += 1
                outcome = pipeline.process(pipe, record)
                if outcome is None:
                    dropped += 1
                elif isinstance(outcome, pipeline.DeadLetter):
                    dead += 1
                    dead_file.write(pipeline.dead_letter_json(outcome))
                    dead_file.write("\n")
                else:
                    index_store.index_document(store, outcome)
                    indexed += 1
            ship.checkpoint()
    return {"shipped": shipped, "indexed": indexed, "dead": dead, "dropped": dropped}


def cmd_ingest(args) -> int:
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
    store = index_store.Store(root=args.store)
    registry_path = args.registry or os.path.join(args.store, "registry.json")
    dead_path = args.dead_letters or os.path.join(args.store, "dead_letters.jsonl")
    ship = shipper.Shipper(registry_path, beat_name=args.beat_name, batch_size=args.batch_size)

    started = time.perf_counter()
    with open(dead_path, "a", encoding="utf-8") as dead_file:
        try:
            counts = ingest(pipe, store, ship, args.paths, dead_file)
        except UnknownLogKind as exc:
            raise UsageError(str(exc)) from exc
    elapsed = time.perf_counter() - started
    # The store holds only the indices this run wrote to; until the save,
    # the manifests on disk are those from before the run.
    created = sorted(
        name for name in store.indices
        if not os.path.isfile(os.path.join(args.store, name, "manifest.json"))
    )
    index_store.save_store(store, args.store)
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
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
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
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read job config: {exc}") from exc
    if not isinstance(job, dict) or "metric" not in job:
        raise UsageError("job config must be an object with a metric key")
    return job


def _job_series(root: str, job) -> metrics.MetricSeries:
    """Load the job's indices over its [from, to) and build its series."""
    try:
        spec = metrics.metric_spec_from_json(job["metric"])
        from_ms = _parse_when(str(job["from"]))
        to_ms = _parse_when(str(job["to"]))
    except (KeyError, ValueError, metrics.MetricError) as exc:
        raise UsageError(f"bad job config: {exc}") from exc
    store = index_store.load_store(root, spec.indices, (from_ms, to_ms))
    series = metrics.build_series(store, spec, from_ms, to_ms)
    policy = job.get("gap_policy", "skip")
    try:
        return metrics.gap_fill(series, policy)
    except metrics.MetricError as exc:
        raise UsageError(str(exc)) from exc


def _job_params(job) -> anomaly.DetectorParams:
    try:
        cutpoints = tuple(job.get("thresholds", anomaly.LEVEL_CUTPOINTS))
        if len(cutpoints) != 4 or sorted(cutpoints) != list(cutpoints):
            raise ValueError("thresholds must be 4 ascending numbers")
        return anomaly.DetectorParams(
            decay=float(job.get("decay", 0.02)),
            warmup_buckets=int(job.get("warmup_buckets", 20)),
            k_bound=float(job.get("k_bound", 3.0)),
            level_cutpoints=cutpoints,
        )
    except ValueError as exc:
        raise UsageError(f"bad job config: {exc}") from exc


def cmd_ml_detect(args) -> int:
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
    if args.horizon < 1:
        raise UsageError("forecast horizon must be >= 1")
    job = _load_job(args.job)
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
        beta=float(job.get("beta", 0.05)),
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
    for name in names:
        try:
            index_store.delete_index(store, name)
        except index_store.UnknownIndex as exc:
            raise UsageError(str(exc)) from exc
        print(f"deleted {name}")
    index_store.save_store(store, args.store)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        pipeline.PipelineConfigError,
        pipeline.GeoTableError,
        metrics.MetricError,
        loggen.LoggenError,
        index_store.MalformedPattern,
        index_store.AggregationError,
        anomaly.WarmupError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, index_store.StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
