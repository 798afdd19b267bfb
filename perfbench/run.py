#!/usr/bin/env python3
"""stormwatch benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ingest-cold,live-cli,search-warm,all}
                             [--seed 3] [--seconds 10] [--trace 0|1]

The program is run from `src/` of the checkout. With `--trace 0` the last
line of standard output is one JSON object holding every end-to-end
metric; with `--trace 1` it holds every per-layer metric of a traced run.
Human-readable lines before it give each metric with its unit and sample
count, the machine and a fingerprint of the generated corpus. See
perfbench/README.md for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = ".bench_work"

# (name, unit) of every end-to-end metric, as listed in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("mix_op_ms", "ms"),
    ("type_geomean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("snapshot_bytes_per_log_byte", "ratio"),
)

_ROUTES = ("frontend", "monitoring", "backend", "heartbeat", "backend-metrics")

# (name, unit) of every per-layer metric, as listed in BENCHMARK.json.
PER_LAYER = (
    ("shipper.tail_once.busy_s", "s"),
    ("shipper.tail_once.lines", "count"),
    ("shipper.tail_once.bytes", "bytes"),
    ("shipper.checkpoint.busy_s", "s"),
    ("shipper.checkpoint.calls", "count"),
    ("patterns.match_line.busy_s", "s"),
    ("patterns.match_line.calls", "count"),
    ("patterns.match_line.misses", "count"),
    *((f"pipeline.process.{route}.self_s", "s") for route in _ROUTES),
    ("pipeline.process.records", "count"),
    ("pipeline.process.documents", "count"),
    ("pipeline.process.dead_letters", "count"),
    ("pipeline.process.dropped", "count"),
    ("index.index_document.busy_s", "s"),
    ("index.postings_entries", "count"),
    ("index.distinct_terms", "count"),
    ("index.save_store.busy_s", "s"),
    ("index.save_store.bytes_written", "bytes"),
    ("index.save_store.indices_written", "count"),
    ("index.load_store.self_s", "s"),
    ("index.load_store.reindex_s", "s"),
    ("index.load_store.docs_loaded", "count"),
    ("index.load_store.useful_ratio", "ratio"),
    ("index.search.busy_s", "s"),
    ("index.aggregate.busy_s", "s"),
    ("index.docs_examined", "count"),
    ("index.hit_ratio", "ratio"),
    ("metrics.build_series.busy_s", "s"),
    ("anomaly.detect.busy_s", "s"),
    ("anomaly.detect.buckets", "count"),
    ("anomaly.forecast.busy_s", "s"),
    ("cli.overhead_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.observe_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.spans", "count"),
)


def type_costs(samples: dict[str, list[float]]) -> dict[str, float]:
    """Wall seconds per operation type: the mean over its variants of each
    variant's mean. Samples are keyed "type" or "type/variant".

    Means, like the probe's mean they are divided by, weigh every moment of
    the run alike, so a stretch of slow CPU moves both by the same factor.
    """
    variants: dict[str, list[float]] = {}
    for key, values in samples.items():
        if values:
            variants.setdefault(key.split("/")[0], []).append(sum(values) / len(values))
    return {kind: sum(v) / len(v) for kind, v in variants.items()}


def end_to_end(out) -> dict[str, float]:
    """Times are at the probe's reference speed (wall time × out.scale)."""
    costs = type_costs(out.samples)
    shares = {kind: share for kind, share in out.shares.items() if kind in costs}
    weight = sum(shares.values())
    return {
        "setup_s": harness.median(out.setup_s) * out.setup_scale,
        "mix_op_ms": 1000 * out.scale * sum(shares[k] * costs[k] for k in shares) / weight,
        "type_geomean_ms": 1000 * out.scale * harness.geomean([costs[k] for k in shares]),
        "peak_rss_mb": max(out.rss_mb),
        "snapshot_bytes_per_log_byte": out.snapshot_ratio,
    }


def describe(workload: str, out, seconds: float) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    lines = [f"# workload {workload}: {out.attempted} operations checked, "
             f"{out.failed} failed (failed_ops_ratio {out.failed / max(out.attempted, 1):.4f})"]
    for error in out.errors:
        lines.append(f"#   FAILED {error}")
    lines.append(f"#   setup_s median {harness.median(out.setup_s):.3f} s "
                 f"(n={len(out.setup_s)} set-ups: "
                 + ", ".join(f"{v:.3f}" for v in out.setup_s) + ")")
    lines.append(f"#   speed scale: set-up {out.setup_scale:.4f}, measured {out.scale:.4f} "
                 f"({out.probes} probe samples; gated times are wall times x scale)")
    costs = type_costs(out.samples)
    for kind in sorted(costs):
        values = [v for key, vs in out.samples.items() if key.split("/")[0] == kind for v in vs]
        variants = sum(1 for key in out.samples if key.split("/")[0] == kind)
        text = (f"#   {kind}: {1000 * costs[kind]:.3f} ms wall, mean "
                f"(n={len(values)} over {variants} variant(s); p50 "
                f"{1000 * harness.median(values):.3f} ms")
        tail = harness.tail_percentile(values)
        if tail is not None:
            text += f", p{round(100 * tail[0])} {1000 * tail[1]:.3f} ms"
        lines.append(text + f"; share {out.shares.get(kind, 0):.3f})")
    if out.lines_per_s:
        lines.append(f"#   ingest_lines_per_s p50 {harness.median(out.lines_per_s):,.0f} lines/s "
                     f"(n={len(out.lines_per_s)}, CLI wall time, save included)")
    for group in ("search", "agg"):
        values = [v for kind, vs in out.samples.items() if kind.startswith(group + ".")
                  for v in vs]
        if values:
            text = (f"#   {group}_p50_ms {1000 * harness.median(values):.3f} ms "
                    f"(n={len(values)}")
            tail = harness.tail_percentile(values)
            if tail is not None:
                text += (f"; {group}_p{round(100 * tail[0])}_ms {1000 * tail[1]:.3f} ms, "
                         f"{round(len(values) * (1 - tail[0]))} samples beyond it")
            lines.append(text + ")")
    if out.rss_mb:
        lines.append(f"#   peak_rss_mb max {max(out.rss_mb):.1f} MiB over {len(out.rss_mb)} "
                     "measured processes")
    lines.append(f"#   measured for about {seconds:g} s")
    return lines


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads  # needs src/ on sys.path, which main() checks and adds

    work = os.path.join(ROOT, WORK)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ctx = workloads.Context(ROOT, WORK, seed, seconds, traced)
        workloads.WORKLOADS[workload](ctx)
        out = ctx.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# machine {json.dumps(harness.machine(), sort_keys=True)}")
    print(f"# corpus {json.dumps(out.fingerprint, sort_keys=True)}")
    for line in describe(workload, out, seconds):
        print(line)
    if traced:
        values = out.layers.metrics()
        units = dict(PER_LAYER)
        for name, value in values.items():
            print(f"#   {name} {value:.6g} {units[name]} (per traced operation, "
                  f"n={out.layers.ops})")
    else:
        values = end_to_end(out)
        units = dict(END_TO_END)
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("ingest-cold", "live-cli", "search-warm", "all"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stormwatch", "cli.py")):
        print("error: run from the root of a stormwatch checkout (src/stormwatch not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
        except workloads.SetupError as exc:
            print(f"error: {name} set-up failed: {exc}", file=sys.stderr)
            return 1
        sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
