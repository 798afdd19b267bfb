"""Deterministic synthetic generator for the five log streams.

Request arrivals are Poisson per operation, latencies truncated normal, and
every derived stream (monitoring rounds, heartbeat beats, per-minute
backend metrics) is computed from the same event stream, so the files are
cross-consistent by construction. Identical inputs produce byte-identical
outputs. Alongside the logs it writes `truth.json`: per-minute aggregates,
raw latency samples, injected anomaly windows and the metric each one
affects, which the acceptance suite uses as ground truth.

Frontend messages embed the client address and the exact request latency
(`client=<ip> took=<ms>ms`), which is what makes the derived aggregates
re-checkable from the rendered lines alone.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

from .codecs import (
    BackendEvent,
    BackendMetricsEvent,
    BunchStats,
    FrontendEvent,
    HeartbeatEvent,
    LogKind,
    MonitoringEvent,
    RoundStats,
    FILENAME_FOR_KIND,
    render_line,
)
from .timeutil import parse_iso8601_ms

# 2024-03-01T00:00:00Z; a fixed origin keeps default corpora reproducible.
DEFAULT_START_MS = parse_iso8601_ms("2024-03-01T00:00:00.000Z")

DEFAULT_OP_RATES = {
    "srmLs": 8.0,
    "Connection": 6.0,
    "srmStatusOfGetRequest": 4.0,
    "srmStatusOfPutRequest": 3.0,
    "srmPrepareToGet": 1.5,
    "srmPrepareToPut": 1.2,
    "srmReleaseFiles": 0.6,
    "srmRm": 0.4,
    "srmPing": 0.3,
    "srmMkdir": 0.2,
}

DEFAULT_LATENCY_MS = {
    "srmLs": (18.0, 6.0),
    "Connection": (4.0, 1.5),
    "srmStatusOfGetRequest": (9.0, 3.0),
    "srmStatusOfPutRequest": (9.0, 3.0),
    "srmPrepareToGet": (120.0, 40.0),
    "srmPrepareToPut": (150.0, 50.0),
    "srmReleaseFiles": (25.0, 8.0),
    "srmRm": (30.0, 10.0),
    "srmPing": (2.0, 0.5),
    "srmMkdir": (22.0, 7.0),
}

ASYNC_OPS = frozenset({"srmPrepareToGet", "srmPrepareToPut"})

METRIC_NAME = {
    "srmLs": "synch.ls",
    "Connection": "synch.connection",
    "srmStatusOfGetRequest": "synch.ptgStatus",
    "srmStatusOfPutRequest": "synch.ptpStatus",
    "srmReleaseFiles": "synch.releaseFiles",
    "srmRm": "synch.rm",
    "srmPing": "synch.ping",
    "srmMkdir": "synch.mkdir",
}

SURL_OPS = frozenset(
    {"srmLs", "srmPrepareToGet", "srmPrepareToPut", "srmReleaseFiles", "srmRm", "srmMkdir"}
)

_USERS = (
    ("/DC=ch/DC=example/OU=people/CN=alice", "atlas"),
    ("/DC=ch/DC=example/OU=people/CN=bruno", "atlas"),
    ("/DC=it/DC=example/OU=people/CN=carla", "cms"),
    ("/DC=it/DC=example/OU=people/CN=davide", "cms"),
    ("/DC=fr/DC=example/OU=people/CN=elise", "alice"),
    ("/DC=de/DC=example/OU=people/CN=franz", "lhcb"),
    ("/DC=uk/DC=example/OU=people/CN=gwen", "atlas"),
    ("/DC=es/DC=example/OU=people/CN=hugo", "cms"),
)

_FQANS = {
    "atlas": ["/atlas", "/atlas/Role=production"],
    "cms": ["/cms", "/cms/Role=pilot"],
    "alice": ["/alice"],
    "lhcb": ["/lhcb", "/lhcb/Role=user"],
}

# Weighted client pool; repeats skew the geo heat map toward a few sites.
_CLIENT_IPS = (
    "131.154.10.21", "131.154.10.21", "131.154.10.21",
    "131.154.200.5", "131.154.200.5",
    "128.142.33.9", "128.142.33.9",
    "188.184.10.100",
    "129.13.64.7",
    "134.158.12.34", "134.158.12.34",
    "141.108.35.11",
    "130.199.3.7",
    "131.225.44.20",
    "134.79.129.8",
    "133.82.241.6",
    "150.244.9.13",
    "145.100.77.3",
    "93.184.216.34",
    "192.108.46.9",
    "10.0.0.15", "192.168.1.40", "172.16.5.9",
)

ANOMALY_KINDS = ("latency_scale", "error_burst", "rate_spike")

DEBUG_OP = "internal.state"


class LoggenError(ValueError):
    pass


@dataclass(frozen=True)
class AnomalySpec:
    kind: str
    start_s: int
    end_s: int
    magnitude: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in ANOMALY_KINDS:
            raise LoggenError(f"unknown anomaly kind: {self.kind!r}")
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise LoggenError("anomaly window must be a non-empty forward range")
        if self.magnitude <= 0:
            raise LoggenError("anomaly magnitude must be positive")

    def covers(self, t_seconds: float) -> bool:
        return self.start_s <= t_seconds < self.end_s


@dataclass
class WorkloadSpec:
    seed: int = 42
    duration_seconds: int = 1800
    start_ms: int = DEFAULT_START_MS
    op_rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_OP_RATES))
    base_latency_ms: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_LATENCY_MS)
    )
    error_rate: float = 0.02
    heartbeat_period: int = 60
    monitoring_round: int = 60
    debug_noise_rate: float = 0.5

    def validate(self) -> None:
        if self.duration_seconds <= 0 or self.duration_seconds % 60 != 0:
            raise LoggenError("duration_seconds must be a positive multiple of 60")
        if self.heartbeat_period <= 0 or self.duration_seconds % self.heartbeat_period:
            raise LoggenError("heartbeat_period must divide the duration")
        if self.monitoring_round <= 0 or self.duration_seconds % self.monitoring_round:
            raise LoggenError("monitoring_round must divide the duration")
        if not 0.0 <= self.error_rate <= 1.0:
            raise LoggenError("error_rate must be within [0, 1]")
        for op, rate in self.op_rates.items():
            if rate < 0:
                raise LoggenError(f"negative rate for {op}")
            if op not in self.base_latency_ms:
                raise LoggenError(f"no latency profile for {op}")
        if self.debug_noise_rate < 0:
            raise LoggenError("debug_noise_rate must be >= 0")


@dataclass(slots=True)
class _Request:
    t_ms: int
    op: str
    rid: str
    user_dn: str
    vo: str
    ip: str
    surl: str | None
    latency_ms: float
    outcome: str  # success | failure | error


_FE_LEVEL = {"success": "INFO", "failure": "WARNING", "error": "ERROR"}
_BE_LEVEL = {"success": "INFO", "failure": "WARN", "error": "ERROR"}
_RESULT = {
    "success": "SRM_SUCCESS",
    "failure": "SRM_FAILURE",
    "error": "SRM_INTERNAL_ERROR",
}


def _poisson_times(rng: random.Random, rate: float, t0: float, t1: float) -> list[float]:
    times = []
    if rate <= 0.0:
        return times
    t = t0
    while True:
        t += rng.expovariate(rate)
        if t >= t1:
            return times
        times.append(t)


def nearest_rank(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def _mean(samples: list[float]) -> float:
    return math.fsum(samples) / len(samples) if samples else 0.0


def generate(
    workload: WorkloadSpec,
    anomalies: list[AnomalySpec] | None = None,
    out_dir: str = ".",
) -> dict:
    """Write the five log files plus truth.json; returns the truth dict."""
    workload.validate()
    anomalies = list(anomalies or [])
    for spec in anomalies:
        if spec.end_s > workload.duration_seconds:
            raise LoggenError("anomaly window exceeds the workload duration")

    rng = random.Random(workload.seed)
    duration = workload.duration_seconds

    # Arrival times per operation (base process plus rate-spike surplus).
    arrivals: list[tuple[int, str]] = []
    spikes = [a for a in anomalies if a.kind == "rate_spike"]
    for op in sorted(workload.op_rates):
        rate = workload.op_rates[op]
        times = _poisson_times(rng, rate, 0.0, duration)
        for spike in spikes:
            times.extend(
                _poisson_times(
                    rng, rate * (spike.magnitude - 1.0), spike.start_s, spike.end_s
                )
            )
        arrivals.extend((int(t * 1000), op) for t in times)
    debug_times = _poisson_times(rng, workload.debug_noise_rate, 0.0, duration)
    arrivals.extend((int(t * 1000), DEBUG_OP) for t in debug_times)
    arrivals.sort()

    latency_windows = [a for a in anomalies if a.kind == "latency_scale"]
    error_windows = [a for a in anomalies if a.kind == "error_burst"]

    requests: list[_Request] = []
    debug_events: list[tuple[int, str, str]] = []
    for t_ms, op in arrivals:
        t_s = t_ms / 1000.0
        if op == DEBUG_OP:
            ip = rng.choice(_CLIENT_IPS)
            debug_events.append((t_ms, ip, f"{rng.getrandbits(48):012x}"))
            continue
        dn, vo = _USERS[rng.randrange(len(_USERS))]
        ip = rng.choice(_CLIENT_IPS)
        mean, std = workload.base_latency_ms[op]
        for window in latency_windows:
            if window.covers(t_s):
                mean *= window.magnitude
                std *= window.magnitude
        latency = max(0.1, rng.gauss(mean, std))
        error_rate = workload.error_rate
        for window in error_windows:
            if window.covers(t_s):
                error_rate = min(1.0, error_rate * window.magnitude)
        if rng.random() < error_rate:
            outcome = "failure" if rng.random() < 0.7 else "error"
        else:
            outcome = "success"
        surl = None
        if op in SURL_OPS:
            surl = f"srm://storm.tier1.example/{vo}/data/f{rng.randrange(100000):05d}.root"
        requests.append(
            _Request(
                t_ms=t_ms,
                op=op,
                rid=f"{rng.getrandbits(48):012x}",
                user_dn=dn,
                vo=vo,
                ip=ip,
                surl=surl,
                latency_ms=latency,
                outcome=outcome,
            )
        )

    start = workload.start_ms
    frontend_lines: list[tuple[int, str]] = []
    backend_lines: list[tuple[int, str]] = []
    for r in requests:
        fe = FrontendEvent(
            timestamp=start + r.t_ms,
            level=_FE_LEVEL[r.outcome],
            request_id=r.rid,
            user_dn=r.user_dn,
            fqans=_FQANS[r.vo],
            operation=r.op,
            surl=r.surl,
            message=f"client={r.ip} took={r.latency_ms!r}ms",
        )
        frontend_lines.append((r.t_ms, render_line(fe)))
        be = BackendEvent(
            timestamp=start + r.t_ms + int(round(r.latency_ms)),
            level=_BE_LEVEL[r.outcome],
            request_id=r.rid,
            user_dn=r.user_dn,
            operation=r.op,
            surls=[r.surl] if r.surl is not None else [],
            result=_RESULT[r.outcome],
        )
        backend_lines.append((be.timestamp - start, render_line(be)))
    for t_ms, ip, rid in debug_events:
        fe = FrontendEvent(
            timestamp=start + t_ms,
            level="DEBUG",
            request_id=rid,
            user_dn="",
            fqans=[],
            operation=DEBUG_OP,
            surl=None,
            message=f"client={ip} state dump",
        )
        frontend_lines.append((t_ms, render_line(fe)))
    frontend_lines.sort(key=lambda item: item[0])
    backend_lines.sort(key=lambda item: item[0])

    # Derived streams, all computed from the same request list.
    minute_requests = _bucketize(requests, 60_000, duration // 60)

    monitoring_lines = _monitoring_lines(workload, requests)
    heartbeat_lines = _heartbeat_lines(workload, requests, rng)
    metrics_lines, minute_metric_rows = _metrics_lines(workload, minute_requests)

    truth = _build_truth(workload, anomalies, requests, debug_events, minute_requests)
    truth["line_counts"] = {
        LogKind.FRONTEND.value: len(frontend_lines),
        LogKind.MONITORING.value: len(monitoring_lines),
        LogKind.BACKEND.value: len(backend_lines),
        LogKind.HEARTBEAT.value: len(heartbeat_lines),
        LogKind.BACKEND_METRICS.value: len(metrics_lines),
    }
    truth["metric_rows"] = minute_metric_rows

    os.makedirs(out_dir, exist_ok=True)
    _write_lines(out_dir, LogKind.FRONTEND, [line for _, line in frontend_lines])
    _write_lines(out_dir, LogKind.MONITORING, monitoring_lines)
    _write_lines(out_dir, LogKind.BACKEND, [line for _, line in backend_lines])
    _write_lines(out_dir, LogKind.HEARTBEAT, heartbeat_lines)
    _write_lines(out_dir, LogKind.BACKEND_METRICS, metrics_lines)
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as handle:
        json.dump(truth, handle, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
    return truth


def _write_lines(out_dir: str, kind: LogKind, lines: list[str]) -> None:
    path = os.path.join(out_dir, FILENAME_FOR_KIND[kind])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")


def _round_stats(group: list[_Request]) -> RoundStats:
    lats = [r.latency_ms for r in group]
    return RoundStats(
        performed=len(group),
        success=sum(1 for r in group if r.outcome == "success"),
        failed=sum(1 for r in group if r.outcome == "failure"),
        errored=sum(1 for r in group if r.outcome == "error"),
        avg_ms=_mean(lats),
        min_ms=min(lats) if lats else 0.0,
        max_ms=max(lats) if lats else 0.0,
    )


def _bucketize(requests: list[_Request], span_ms: int, buckets: int) -> list[list[_Request]]:
    out: list[list[_Request]] = [[] for _ in range(buckets)]
    for r in requests:
        out[r.t_ms // span_ms].append(r)
    return out


def _monitoring_lines(workload: WorkloadSpec, requests: list[_Request]) -> list[str]:
    round_ms = workload.monitoring_round * 1000
    rounds = workload.duration_seconds * 1000 // round_ms
    lines = []
    seen_sync: list[_Request] = []
    seen_async: list[_Request] = []
    for k, bucket in enumerate(_bucketize(requests, round_ms, rounds)):
        sync = [r for r in bucket if r.op not in ASYNC_OPS]
        async_ = [r for r in bucket if r.op in ASYNC_OPS]
        seen_sync.extend(sync)
        seen_async.extend(async_)
        event = MonitoringEvent(
            timestamp=workload.start_ms + (k + 1) * round_ms - 500,
            round_seconds=workload.monitoring_round,
            sync=_round_stats(sync),
            async_=_round_stats(async_),
            aggregate_sync=_round_stats(seen_sync),
            aggregate_async=_round_stats(seen_async),
        )
        lines.append(render_line(event))
    return lines


def _heartbeat_lines(
    workload: WorkloadSpec, requests: list[_Request], rng: random.Random
) -> list[str]:
    period_ms = workload.heartbeat_period * 1000
    beats = workload.duration_seconds * 1000 // period_ms
    heap = 2_500_000_000
    ptg_total = 0
    ptp_total = 0
    lines = []
    for k, in_beat in enumerate(_bucketize(requests, period_ms, beats)):
        hi = (k + 1) * period_ms
        ptg = [r for r in in_beat if r.op == "srmPrepareToGet"]
        ptp = [r for r in in_beat if r.op == "srmPrepareToPut"]
        sync_count = sum(1 for r in in_beat if r.op not in ASYNC_OPS)
        ptg_total += len(ptg)
        ptp_total += len(ptp)
        heap = min(4_000_000_000, max(500_000_000, heap + rng.randint(-150, 150) * 10**6))
        event = HeartbeatEvent(
            timestamp=workload.start_ms + hi - 500,
            seq=k + 1,
            lifetime_seconds=(k + 1) * workload.heartbeat_period,
            heap_free_bytes=heap,
            synch_last_beat=sync_count,
            ptg_total=ptg_total,
            ptp_total=ptp_total,
            ptg_last=BunchStats(
                count=len(ptg),
                ok=sum(1 for r in ptg if r.outcome == "success"),
                mean_duration_ms=_mean([r.latency_ms for r in ptg]),
            ),
            ptp_last=BunchStats(
                count=len(ptp),
                ok=sum(1 for r in ptp if r.outcome == "success"),
                mean_duration_ms=_mean([r.latency_ms for r in ptp]),
            ),
        )
        lines.append(render_line(event))
    return lines


def _metrics_lines(
    workload: WorkloadSpec, minute_requests: list[list[_Request]]
) -> tuple[list[str], list[dict]]:
    totals: dict[str, int] = {}
    lines = []
    rows = []
    for minute, bucket in enumerate(minute_requests):
        by_metric: dict[str, list[float]] = {}
        for r in bucket:
            metric = METRIC_NAME.get(r.op)
            if metric is None:
                continue
            by_metric.setdefault(metric, []).append(r.latency_ms)
        for metric in sorted(by_metric):
            samples = sorted(by_metric[metric])
            totals[metric] = totals.get(metric, 0) + len(samples)
            event = BackendMetricsEvent(
                timestamp=workload.start_ms + (minute + 1) * 60000 - 500,
                operation=metric,
                m1_count=len(samples),
                total_count=totals[metric],
                max_ms=samples[-1],
                min_ms=samples[0],
                mean_ms=_mean(samples),
                p95_ms=nearest_rank(samples, 0.95),
                p99_ms=nearest_rank(samples, 0.99),
            )
            lines.append(render_line(event))
            rows.append(
                {
                    "minute": minute,
                    "operation": metric,
                    "m1_count": len(samples),
                    "mean_ms": event.mean_ms,
                    "p95_ms": event.p95_ms,
                    "p99_ms": event.p99_ms,
                }
            )
    return lines, rows


def _affected_metric(spec: AnomalySpec) -> dict:
    if spec.kind == "latency_scale":
        return {
            "indices": "storm-backend-metrics-*",
            "filter": {"term": {"field": "action", "value": "synch.ls"}},
            "detector": {"kind": "mean", "field": "mean_ms"},
            "bucket_span_seconds": 60,
        }
    if spec.kind == "error_burst":
        return {
            "indices": "storm-frontend-*",
            "filter": {"term": {"field": "status", "value": "ERROR"}},
            "detector": {"kind": "count"},
            "bucket_span_seconds": 60,
        }
    return {
        "indices": "storm-frontend-*",
        "filter": {"match_all": {}},
        "detector": {"kind": "count"},
        "bucket_span_seconds": 60,
    }


def _build_truth(
    workload: WorkloadSpec,
    anomalies: list[AnomalySpec],
    requests: list[_Request],
    debug_events: list[tuple[int, str]],
    minute_requests: list[list[_Request]],
) -> dict:
    op_totals: dict[str, int] = {}
    for r in requests:
        op_totals[r.op] = op_totals.get(r.op, 0) + 1
    minutes = []
    for minute, bucket in enumerate(minute_requests):
        op_counts: dict[str, int] = {}
        samples: dict[str, list[float]] = {}
        outcomes = {"success": 0, "failure": 0, "error": 0}
        for r in bucket:
            op_counts[r.op] = op_counts.get(r.op, 0) + 1
            samples.setdefault(r.op, []).append(r.latency_ms)
            outcomes[r.outcome] += 1
        minutes.append(
            {
                "minute": minute,
                "start_ms": workload.start_ms + minute * 60000,
                "op_counts": op_counts,
                "outcome_counts": outcomes,
                "latency_samples_ms": samples,
            }
        )
    return {
        "seed": workload.seed,
        "start_ms": workload.start_ms,
        "duration_seconds": workload.duration_seconds,
        "heartbeat_period": workload.heartbeat_period,
        "monitoring_round": workload.monitoring_round,
        "error_rate": workload.error_rate,
        "request_count": len(requests),
        "debug_line_count": len(debug_events),
        "op_totals": op_totals,
        "anomalies": [
            {
                "kind": a.kind,
                "start_s": a.start_s,
                "end_s": a.end_s,
                "magnitude": a.magnitude,
                "affected_metric": _affected_metric(a),
            }
            for a in anomalies
        ],
        "minutes": minutes,
    }


def load_truth(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "truth.json"), encoding="utf-8") as handle:
        return json.load(handle)
