#!/usr/bin/env python3
"""Ingest throughput benchmark: generates a mixed corpus once, then times
`stormwatch.cli.ingest` (ship, parse and index) for a few rounds and
reports lines/second.

Usage: python scripts/bench_ingest.py [--duration 2160] [--rounds 3]
"""

import argparse
import io
import json
import tempfile
import time

from stormwatch import cli, loggen, pipeline, shipper
from stormwatch import index as index_store
from stormwatch.codecs import FILENAME_FOR_KIND, LogKind


def ingest_once(corpus_dir: str) -> tuple[int, float]:
    config = json.dumps(pipeline.default_pipeline_config("2024-03-01"))
    pipe = pipeline.load_pipeline(config)
    store = index_store.Store()
    paths = [f"{corpus_dir}/{FILENAME_FOR_KIND[kind]}" for kind in LogKind]
    with tempfile.TemporaryDirectory() as registry_dir:
        ship = shipper.Shipper(f"{registry_dir}/registry.json", batch_size=5000)
        started = time.perf_counter()
        counts = cli.ingest(pipe, store, ship, paths, io.StringIO())
        elapsed = time.perf_counter() - started
    return counts["shipped"], elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=int, default=2160)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as corpus_dir:
        workload = loggen.WorkloadSpec(seed=args.seed, duration_seconds=args.duration)
        truth = loggen.generate(workload, [], corpus_dir)
        total = sum(truth["line_counts"].values())
        print(f"corpus: {total} lines ({args.duration}s of simulated traffic)")
        rates = []
        for n in range(args.rounds):
            lines, elapsed = ingest_once(corpus_dir)
            rates.append(lines / elapsed)
            print(f"round {n + 1}: {lines} lines in {elapsed:.2f}s "
                  f"-> {rates[-1]:,.0f} lines/s")
        print(f"best: {max(rates):,.0f} lines/s   "
              f"median: {sorted(rates)[len(rates) // 2]:,.0f} lines/s")


if __name__ == "__main__":
    main()
