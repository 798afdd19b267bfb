import hashlib
import json
import math
import os
import re
import statistics
from dataclasses import dataclass

import pytest

from stormwatch import loggen as LG
from stormwatch.codecs import FILENAME_FOR_KIND, BunchStats, LogKind, parse_line, render_line
from stormwatch.timeutil import DayContext, day_start_ms


def file_hashes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


class TestSpecs:
    def test_duration_must_be_minute_multiple(self):
        with pytest.raises(LG.LoggenError):
            LG.WorkloadSpec(duration_seconds=90).validate()

    def test_error_rate_bounds(self):
        with pytest.raises(LG.LoggenError):
            LG.WorkloadSpec(error_rate=1.5).validate()

    def test_anomaly_window_validation(self):
        with pytest.raises(LG.LoggenError):
            LG.AnomalySpec("latency_scale", 100, 100)
        with pytest.raises(LG.LoggenError):
            LG.AnomalySpec("tornado", 0, 60)
        with pytest.raises(LG.LoggenError):
            LG.AnomalySpec("rate_spike", 0, 60, magnitude=0)

    def test_window_beyond_duration_rejected(self, tmp_path):
        workload = LG.WorkloadSpec(duration_seconds=120)
        spec = LG.AnomalySpec("latency_scale", 60, 600)
        with pytest.raises(LG.LoggenError):
            LG.generate(workload, [spec], str(tmp_path))


class TestGenerate:
    def test_heartbeat_line_count(self, small_corpus):
        truth = small_corpus["truth"]
        expected = truth["duration_seconds"] // truth["heartbeat_period"]
        assert truth["line_counts"]["heartbeat"] == expected
        path = os.path.join(small_corpus["dir"], FILENAME_FOR_KIND[LogKind.HEARTBEAT])
        with open(path, encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == expected

    def test_monitoring_line_count(self, small_corpus):
        truth = small_corpus["truth"]
        assert truth["line_counts"]["monitoring"] == truth["duration_seconds"] // 60

    def test_same_seed_is_byte_identical(self, tmp_path):
        workload = LG.WorkloadSpec(seed=23, duration_seconds=180)
        LG.generate(workload, [], str(tmp_path / "a"))
        LG.generate(workload, [], str(tmp_path / "b"))
        assert file_hashes(tmp_path / "a") == file_hashes(tmp_path / "b")

    def test_output_is_pinned(self, tmp_path):
        # Parent and change of a benchmark run each generate their corpus
        # with their own generator; a changed digest means they measure
        # different inputs.
        LG.generate(LG.WorkloadSpec(seed=11, duration_seconds=600), [], str(tmp_path))
        assert file_hashes(tmp_path) == {
            "heartbeat.log": "fee6b06d720b11f70c5bbe6ec464c31e31a681e0c4978dc64ca1b281aef40650",
            "monitoring.log": "8d099c73aa940b556e877e20b163833e7ff9dc70f1e91c67ecc2a9431cac9648",
            "storm-backend-metrics.log":
                "0fbe25f0075498056cb1932999ed9125a8a2e977502f0d59fde9e842b651f942",
            "storm-backend.log":
                "22634eab92ff8a735f7bbe4df5e2966df317f6981540e96c49e71239a3dbaf0f",
            "storm-frontend-server.log":
                "69b1803b3bc75c121723dc2b9fbd7f7d0285ed39de8cb1facde0e9b165155c6a",
            "truth.json": "179d1f57f0bd7f951177317ce5e1136ddf6037ed0482e3d5eec49e75e97fa263",
        }

    def test_different_seed_differs(self, tmp_path):
        LG.generate(LG.WorkloadSpec(seed=1, duration_seconds=180), [], str(tmp_path / "a"))
        LG.generate(LG.WorkloadSpec(seed=2, duration_seconds=180), [], str(tmp_path / "b"))
        assert file_hashes(tmp_path / "a") != file_hashes(tmp_path / "b")

    def test_dominant_operations_lead_the_mix(self, small_corpus):
        totals = small_corpus["truth"]["op_totals"]
        top4 = sorted(totals, key=totals.get, reverse=True)[:4]
        assert set(top4) == {
            "srmLs", "Connection", "srmStatusOfGetRequest", "srmStatusOfPutRequest"
        }

    def test_truth_minute_counts_sum_to_totals(self, small_corpus):
        truth = small_corpus["truth"]
        summed: dict[str, int] = {}
        for minute in truth["minutes"]:
            for op, count in minute["op_counts"].items():
                summed[op] = summed.get(op, 0) + count
        assert summed == truth["op_totals"]

    def test_latency_scale_window_multiplies_means(self, anomalous_corpus):
        truth = anomalous_corpus["truth"]
        window = truth["anomalies"][0]
        lo = window["start_s"] // 60
        hi = window["end_s"] // 60
        rows = truth["metric_rows"]
        base = [r["mean_ms"] for r in rows if r["operation"] == "synch.ls" and r["minute"] < lo]
        hot = [r["mean_ms"] for r in rows if r["operation"] == "synch.ls" and lo <= r["minute"] < hi]
        ratio = statistics.mean(hot) / statistics.mean(base)
        assert 8.0 <= ratio <= 12.0

    def test_error_burst_window_raises_error_fraction(self, tmp_path):
        workload = LG.WorkloadSpec(seed=5, duration_seconds=600, error_rate=0.02)
        truth = LG.generate(
            workload, [LG.AnomalySpec("error_burst", 300, 480, magnitude=15.0)], str(tmp_path)
        )
        def bad_fraction(minute):
            counts = minute["outcome_counts"]
            total = sum(counts.values())
            return (counts["failure"] + counts["error"]) / max(1, total)
        quiet = statistics.mean(bad_fraction(m) for m in truth["minutes"][:5])
        burst = statistics.mean(bad_fraction(m) for m in truth["minutes"][5:8])
        assert burst > 5 * quiet

    def test_rate_spike_window_multiplies_rates(self, tmp_path):
        workload = LG.WorkloadSpec(seed=6, duration_seconds=600)
        truth = LG.generate(
            workload, [LG.AnomalySpec("rate_spike", 300, 480, magnitude=4.0)], str(tmp_path)
        )
        def total(minute):
            return sum(minute["op_counts"].values())
        quiet = statistics.mean(total(m) for m in truth["minutes"][:5])
        spike = statistics.mean(total(m) for m in truth["minutes"][5:8])
        assert 3.0 <= spike / quiet <= 5.0


# ---------------------------------------------------------------------------
# The generator's self-check: re-parse a corpus and cross-check its aggregates


@dataclass
class ConsistencyReport:
    issues: list[str]
    lines_parsed: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.issues


_TOOK_RE = re.compile(r"^client=(\S+) took=([^m]+)ms$")


def _parse_generated_frontend(events) -> list[LG._Request]:
    out = []
    level_to_outcome = {v: k for k, v in LG._FE_LEVEL.items()}
    for event in events:
        if event.level == "DEBUG":
            continue
        m = _TOOK_RE.match(event.message)
        if m is None:
            continue
        out.append(
            LG._Request(
                t_ms=event.timestamp,
                op=event.operation,
                rid=event.request_id,
                user_dn=event.user_dn,
                vo="",
                ip=m.group(1),
                surl=event.surl,
                latency_ms=float(m.group(2)),
                outcome=level_to_outcome[event.level],
            )
        )
    return out


def verify_consistency(out_dir: str) -> ConsistencyReport:
    """Re-parse a generated corpus and cross-check every derived aggregate.

    Checks: every line parses (field-range violations included), heartbeat
    counters are monotone, and the monitoring, heartbeat and backend-metrics
    aggregates equal a recomputation from the frontend request stream, which
    in turn must match truth.json per minute.
    """
    truth = LG.load_truth(out_dir)
    start = truth["start_ms"]
    issues: list[str] = []
    parsed: dict[str, list] = {}
    lines_parsed: dict[str, int] = {}

    for kind in LogKind:
        path = os.path.join(out_dir, FILENAME_FOR_KIND[kind])
        ctx = DayContext(day_start_ms(start))
        events = []
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.rstrip("\n")
                try:
                    events.append(parse_line(kind, line, ctx))
                except Exception as exc:
                    issues.append(f"{FILENAME_FOR_KIND[kind]}:{lineno}: {exc}")
        parsed[kind.value] = events
        lines_parsed[kind.value] = len(events)

    heartbeats = parsed[LogKind.HEARTBEAT.value]
    for prev, cur in zip(heartbeats, heartbeats[1:]):
        if cur.ptg_total < prev.ptg_total or cur.ptp_total < prev.ptp_total:
            issues.append(f"heartbeat seq {cur.seq}: totals decreased")
        if cur.lifetime_seconds <= prev.lifetime_seconds:
            issues.append(f"heartbeat seq {cur.seq}: lifetime not increasing")

    requests = _parse_generated_frontend(parsed[LogKind.FRONTEND.value])
    for r in requests:
        r.t_ms -= start
    if any(r.t_ms < 0 for r in requests):
        issues.append("frontend timestamps precede the corpus start")
        return ConsistencyReport(issues, lines_parsed)

    workload = LG.WorkloadSpec(
        seed=truth["seed"],
        duration_seconds=truth["duration_seconds"],
        start_ms=start,
    )

    minutes = truth["duration_seconds"] // 60
    minute_buckets = LG._bucketize(requests, 60000, minutes)
    for minute, bucket in enumerate(minute_buckets):
        want = truth["minutes"][minute]
        got_counts: dict[str, int] = {}
        for r in bucket:
            got_counts[r.op] = got_counts.get(r.op, 0) + 1
        if got_counts != want["op_counts"]:
            issues.append(f"minute {minute}: op counts differ from truth")
        got_samples: dict[str, list[float]] = {}
        for r in bucket:
            got_samples.setdefault(r.op, []).append(r.latency_ms)
        if got_samples != want["latency_samples_ms"]:
            issues.append(f"minute {minute}: latency samples differ from truth")

    recomputed = LG._monitoring_lines(workload, requests)
    rendered = parsed[LogKind.MONITORING.value]
    if len(recomputed) != len(rendered):
        issues.append("monitoring line count differs from recomputation")
    else:
        for k, (line, event) in enumerate(zip(recomputed, rendered)):
            if line != render_line(event):
                issues.append(f"monitoring round {k}: stats differ from recomputation")

    rendered_metrics = parsed[LogKind.BACKEND_METRICS.value]
    recomputed_metric_lines, _ = LG._metrics_lines(workload, minute_buckets)
    if len(recomputed_metric_lines) != len(rendered_metrics):
        issues.append("backend-metrics line count differs from recomputation")
    else:
        for k, (line, event) in enumerate(zip(recomputed_metric_lines, rendered_metrics)):
            if line != render_line(event):
                issues.append(f"backend-metrics line {k + 1}: differs from recomputation")

    period_ms = LG.HEARTBEAT_PERIOD * 1000
    beats = workload.duration_seconds * 1000 // period_ms
    if len(heartbeats) != beats:
        issues.append("heartbeat line count differs from recomputation")
    else:
        ptg_total = 0
        ptp_total = 0
        for k, in_beat in enumerate(LG._bucketize(requests, period_ms, beats)):
            ptg = [r for r in in_beat if r.op == "srmPrepareToGet"]
            ptp = [r for r in in_beat if r.op == "srmPrepareToPut"]
            ptg_total += len(ptg)
            ptp_total += len(ptp)
            got = heartbeats[k]
            want_ptg = BunchStats(
                count=len(ptg),
                ok=sum(1 for r in ptg if r.outcome == "success"),
                mean_duration_ms=LG._mean([r.latency_ms for r in ptg]),
            )
            want_ptp = BunchStats(
                count=len(ptp),
                ok=sum(1 for r in ptp if r.outcome == "success"),
                mean_duration_ms=LG._mean([r.latency_ms for r in ptp]),
            )
            sync_count = sum(1 for r in in_beat if r.op not in LG.ASYNC_OPS)
            if (
                got.ptg_total != ptg_total
                or got.ptp_total != ptp_total
                or got.ptg_last != want_ptg
                or got.ptp_last != want_ptp
                or got.synch_last_beat != sync_count
            ):
                issues.append(f"heartbeat seq {got.seq}: differs from recomputation")

    return ConsistencyReport(issues, lines_parsed)


class TestVerifyConsistency:
    def test_fresh_generation_is_consistent(self, small_corpus):
        report = verify_consistency(small_corpus["dir"])
        assert report.ok, report.issues[:5]
        assert report.lines_parsed == small_corpus["truth"]["line_counts"]

    def test_anomalous_generation_is_consistent(self, anomalous_corpus):
        report = verify_consistency(anomalous_corpus["dir"])
        assert report.ok, report.issues[:5]

    def test_single_byte_corruption_is_one_parse_failure(self, tmp_path):
        LG.generate(LG.WorkloadSpec(seed=9, duration_seconds=180), [], str(tmp_path))
        path = tmp_path / FILENAME_FOR_KIND[LogKind.HEARTBEAT]
        data = path.read_bytes()
        index = data.index(b"Heap")
        path.write_bytes(data[:index] + b"Xeap" + data[index + 4 :])
        report = verify_consistency(str(tmp_path))
        assert not report.ok
        parse_failures = [i for i in report.issues if "heartbeat.log:" in i]
        assert len(parse_failures) == 1

    def test_tampered_aggregate_is_reported(self, tmp_path):
        LG.generate(LG.WorkloadSpec(seed=9, duration_seconds=180), [], str(tmp_path))
        path = tmp_path / FILENAME_FOR_KIND[LogKind.HEARTBEAT]
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("SYNCH [", "SYNCH [9", 1)
        path.write_text("\n".join(lines) + "\n")
        report = verify_consistency(str(tmp_path))
        assert any("differs from recomputation" in issue for issue in report.issues)


class TestPercentiles:
    def test_nearest_rank_definition(self):
        samples = sorted([5.0, 1.0, 9.0, 3.0, 7.0])
        assert LG.nearest_rank(samples, 0.95) == 9.0
        assert LG.nearest_rank(samples, 0.50) == 5.0
        assert LG.nearest_rank(samples, 0.01) == 1.0
        assert LG.nearest_rank([], 0.95) == 0.0

    def test_rendered_p95_matches_recomputation_from_truth(self, small_corpus):
        truth = small_corpus["truth"]
        rows = truth["metric_rows"]
        metric_by_op = {
            "synch.ls": "srmLs", "synch.connection": "Connection",
            "synch.ptgStatus": "srmStatusOfGetRequest",
        }
        checked = 0
        for row in rows:
            op = metric_by_op.get(row["operation"])
            if op is None:
                continue
            samples = truth["minutes"][row["minute"]]["latency_samples_ms"].get(op, [])
            if not samples:
                continue
            ordered = sorted(samples)
            rank = max(1, math.ceil(0.95 * len(ordered)))
            assert row["p95_ms"] == ordered[rank - 1]
            checked += 1
        assert checked > 5

    def test_mean_matches_recomputation_from_truth(self, small_corpus):
        truth = small_corpus["truth"]
        for row in truth["metric_rows"][:40]:
            if row["operation"] != "synch.ls":
                continue
            samples = truth["minutes"][row["minute"]]["latency_samples_ms"]["srmLs"]
            assert row["mean_ms"] == math.fsum(sorted(samples)) / len(samples)


def test_truth_json_round_trips(small_corpus):
    loaded = LG.load_truth(small_corpus["dir"])
    assert loaded == json.loads(json.dumps(small_corpus["truth"]))
