"""Bucketized univariate series over index query results.

A metric spec names the indices, a filter query, a detector (count or a
per-bucket reduction over one numeric field) and a bucket span. Buckets are
UTC-aligned half-open intervals [k*span, (k+1)*span). Empty buckets hold 0
for the count detector and stay absent (None) for field detectors: a missing
rate is meaningless, a missing event count is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

from . import index as index_store
from .index import MatchAll, Query, Store

DETECTORS = ("count", "mean", "max", "min", "sum")
GAP_POLICIES = ("skip", "zero", "interpolate")

# The most buckets a series or a forecast may hold, checked before any is
# allocated; a year of 60 s buckets is 525,600.
MAX_BUCKETS = 1_000_000


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class MetricSpec:
    indices: str
    filter: Query = field(default_factory=MatchAll)
    detector: str = "count"
    detector_field: str | None = None
    bucket_span_seconds: int = 60

    def __post_init__(self) -> None:
        if type(self.indices) is not str:
            raise MetricError(f"indices must be a string: {self.indices!r}")
        if self.detector_field is not None and type(self.detector_field) is not str:
            raise MetricError(f"detector field must be a string: {self.detector_field!r}")
        if self.detector not in DETECTORS:
            raise MetricError(f"unknown detector: {self.detector!r}")
        if self.detector != "count" and not self.detector_field:
            raise MetricError(f"detector {self.detector!r} needs a field")
        if self.bucket_span_seconds < 1:
            raise MetricError("bucket_span_seconds must be >= 1")


@dataclass
class MetricSeries:
    start_ms: int
    span_seconds: int
    values: list[float | None]
    sample_counts: list[int]

    def bucket_start(self, i: int) -> int:
        return self.start_ms + i * self.span_seconds * 1000

    def __len__(self) -> int:
        return len(self.values)


def metric_spec_from_json(obj: dict) -> MetricSpec:
    """Build a spec from its JSON object; a value of the wrong type, or an
    infinite span, raises MetricError."""
    try:
        detector = obj.get("detector", {"kind": "count"})
        if isinstance(detector, str):
            detector = {"kind": detector}
        return MetricSpec(
            indices=obj["indices"],
            filter=index_store.query_from_json(obj.get("filter", {"match_all": {}})),
            detector=detector.get("kind", "count"),
            detector_field=detector.get("field"),
            bucket_span_seconds=int(obj.get("bucket_span_seconds", 60)),
        )
    except (AttributeError, TypeError, OverflowError) as exc:
        raise MetricError(f"bad metric: {exc}") from exc


def build_series(store: Store, spec: MetricSpec, from_ms: int, to_ms: int) -> MetricSeries:
    """Bucketize all documents matching the metric spec within [from_ms, to_ms).

    Each matching document lands in exactly one bucket, so the sample counts
    total the filtered document count. Field detectors reduce over documents
    that carry the field; a non-numeric field value is an error.
    """
    if from_ms >= to_ms:
        raise MetricError("from must be before to")
    span_ms = spec.bucket_span_seconds * 1000
    start = from_ms - from_ms % span_ms
    n_buckets = (to_ms - start + span_ms - 1) // span_ms
    if n_buckets > MAX_BUCKETS:
        raise MetricError(f"[from, to) spans {n_buckets} buckets, more than {MAX_BUCKETS}")
    counts = [0] * n_buckets
    samples: list[list[float]] = [[] for _ in range(n_buckets)]

    fieldname = spec.detector_field
    fields = ["@timestamp"] if fieldname is None else ["@timestamp", fieldname]
    stamps, *detector = index_store.field_values(
        store, spec.indices, spec.filter, (from_ms, to_ms), *fields
    )
    for ts, value in zip(stamps, detector[0] if detector else repeat(None)):
        slot = (ts - start) // span_ms
        counts[slot] += 1
        if value is None:
            continue
        if type(value) is not int and type(value) is not float:
            raise MetricError(f"detector field {fieldname!r} is not numeric")
        samples[slot].append(float(value))

    values: list[float | None] = []
    for slot in range(n_buckets):
        if spec.detector == "count":
            values.append(float(counts[slot]))
            continue
        bucket = samples[slot]
        if not bucket:
            values.append(None)
        elif spec.detector == "mean":
            values.append(math.fsum(bucket) / len(bucket))
        elif spec.detector == "max":
            values.append(max(bucket))
        elif spec.detector == "min":
            values.append(min(bucket))
        else:
            values.append(math.fsum(bucket))
    return MetricSeries(
        start_ms=start,
        span_seconds=spec.bucket_span_seconds,
        values=values,
        sample_counts=counts,
    )


def gap_fill(series: MetricSeries, policy: str = "skip") -> MetricSeries:
    """Fill absent buckets: skip leaves them, zero substitutes 0.0,
    interpolate fills interior gaps linearly (leading/trailing stay absent)."""
    if policy not in GAP_POLICIES:
        raise MetricError(f"unknown gap policy: {policy!r}")
    values = list(series.values)
    if policy == "zero":
        values = [0.0 if v is None else v for v in values]
    elif policy == "interpolate":
        known = [i for i, v in enumerate(values) if v is not None]
        for left, right in zip(known, known[1:]):
            if right - left > 1:
                lo, hi = values[left], values[right]
                step = (hi - lo) / (right - left)
                for k in range(left + 1, right):
                    values[k] = lo + step * (k - left)
    return MetricSeries(
        start_ms=series.start_ms,
        span_seconds=series.span_seconds,
        values=values,
        sample_counts=list(series.sample_counts),
    )


def series_to_csv(series: MetricSeries) -> str:
    lines = ["bucket_start,value,sample_count"]
    for i, (value, count) in enumerate(zip(series.values, series.sample_counts)):
        rendered = "" if value is None else repr(value)
        lines.append(f"{series.bucket_start(i)},{rendered},{count}")
    return "\n".join(lines) + "\n"

