import io
import json
import tempfile

import pytest

from stormwatch import cli, loggen, pipeline, shipper
from stormwatch import index as index_store


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_small")
    workload = loggen.WorkloadSpec(seed=11, duration_seconds=600)
    truth = loggen.generate(workload, [], str(out))
    return {"dir": str(out), "truth": truth, "workload": workload}


@pytest.fixture(scope="session")
def anomalous_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_anomalous")
    workload = loggen.WorkloadSpec(seed=7, duration_seconds=1800)
    anomalies = [loggen.AnomalySpec("latency_scale", 1200, 1500, 10.0)]
    truth = loggen.generate(workload, anomalies, str(out))
    return {"dir": str(out), "truth": truth, "workload": workload}


def corpus_paths(corpus_dir: str) -> list[str]:
    from stormwatch.codecs import FILENAME_FOR_KIND, LogKind

    return [f"{corpus_dir}/{FILENAME_FOR_KIND[kind]}" for kind in LogKind]


def ingest_corpus(corpus_dir: str, base_date: str = "2024-03-01"):
    """Library-level ingest through `cli.ingest`: returns (store, counts dict)."""
    config = json.dumps(pipeline.default_pipeline_config(base_date))
    pipe = pipeline.load_pipeline(config)
    store = index_store.Store()
    with tempfile.TemporaryDirectory() as registry_dir:
        ship = shipper.Shipper(f"{registry_dir}/registry.json", batch_size=5000)
        counts = cli.ingest(pipe, store, ship, corpus_paths(corpus_dir), io.StringIO())
    return store, counts
