"""Expected answers by linear scan over the documents made in setup.

Nothing here calls into `stormwatch.index`: matching, sorting and every
aggregation are re-implemented as plain loops over a list of documents, so
a read answer that passed through the inverted index, the snapshot and the
CLI is checked against an independent computation. The documents come from
`pipeline.process` over the same lines the store ingested.

Query and aggregation specs are the documented JSON forms (docs/formats.md).
"""

from __future__ import annotations

import math
import re

from stormwatch.index import KEYWORD_FIELDS

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokens(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.lower()))


def _numeric(value) -> bool:
    return type(value) is int or type(value) is float


def matches(doc, q: dict) -> bool:
    """Does `doc` match the query in its JSON form?"""
    (kind, body), = q.items()
    fields = doc.fields
    if kind == "match_all":
        return True
    if kind == "term":
        field, value = body["field"], body["value"]
        if field == "id":
            return doc.id == value
        if type(value) is bool:
            return False
        got = fields.get(field)
        if _numeric(value):
            return _numeric(got) and float(got) == float(value)
        if not isinstance(value, str):
            return False
        if field in KEYWORD_FIELDS:
            return got == value
        if not isinstance(got, str):
            return False
        wanted = tokens(value)
        return bool(wanted) and wanted <= tokens(got)
    if kind == "and":
        return all(matches(doc, c) for c in body)
    if kind == "or":
        return any(matches(doc, c) for c in body)
    if kind == "not":
        return not matches(doc, body)
    if kind == "range":
        got = fields.get(body["field"])
        if not _numeric(got):
            return False
        value = float(got)
        lo, hi = body.get("min"), body.get("max")
        if lo is not None and (value < lo or (not body.get("include_min", True) and value == lo)):
            return False
        if hi is not None and (value > hi or (not body.get("include_max", True) and value == hi)):
            return False
        return True
    raise ValueError(f"unknown query kind {kind!r}")


def pattern_matches(pattern: str, index_name: str) -> bool:
    if pattern.endswith("*"):
        return index_name.startswith(pattern[:-1])
    return index_name == pattern


def select(by_index: dict[str, list], pattern: str, q: dict, time_range=None) -> list:
    """Matching documents in (@timestamp, id) order; time_range is [lo, hi).

    `by_index` maps index names to their documents.
    """
    lo, hi = time_range if time_range is not None else (None, None)
    out = []
    for name, docs in by_index.items():
        if pattern_matches(pattern, name):
            out.extend(doc for doc in docs if _in_range(doc, lo, hi) and matches(doc, q))
    out.sort(key=lambda d: (d.fields["@timestamp"], d.id))
    return out


def _in_range(doc, lo, hi) -> bool:
    ts = doc.fields["@timestamp"]
    return (lo is None or ts >= lo) and (hi is None or ts < hi)


def aggregate(docs, agg: dict):
    """Aggregate already-selected documents; same result shapes as the index."""
    (kind, body), = agg.items()
    if kind == "terms":
        counts: dict = {}
        for doc in docs:
            value = doc.fields.get(body["field"])
            if value is not None:
                counts[value] = counts.get(value, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return [list(kv) for kv in ranked[: int(body.get("top_n", 10))]]
    if kind == "date_histogram":
        span = int(body["interval_seconds"]) * 1000
        buckets: dict = {}
        for doc in docs:
            ts = doc.fields["@timestamp"]
            buckets[ts - ts % span] = buckets.get(ts - ts % span, 0) + 1
        return [list(kv) for kv in sorted(buckets.items())]
    if kind == "stats":
        values = [
            float(v) for doc in docs if (v := doc.fields.get(body["field"])) is not None
        ]
        if not values:
            return {"count": 0, "min": None, "max": None, "mean": None, "sum": 0.0}
        total = math.fsum(values)
        return {
            "count": len(values), "min": min(values), "max": max(values),
            "mean": total / len(values), "sum": total,
        }
    if kind == "geo_grid":
        cell = float(body["cell_degrees"])
        cells: dict = {}
        for doc in docs:
            lat, lon = doc.fields.get("geo_lat"), doc.fields.get("geo_lon")
            if lat is not None and lon is not None:
                key = (math.floor(lat / cell), math.floor(lon / cell))
                cells[key] = cells.get(key, 0) + 1
        ranked = sorted(cells.items(), key=lambda kv: (-kv[1], kv[0]))
        return [[la * cell, lo * cell, n] for (la, lo), n in ranked]
    raise ValueError(f"unknown aggregation kind {kind!r}")


def agg_rows(agg: dict, result) -> list[dict]:
    """The rows `stormwatch agg --format json-lines` prints for a result."""
    (kind, _body), = agg.items()
    if kind == "terms":
        return [{"value": v, "count": c} for v, c in result]
    if kind == "date_histogram":
        return [{"bucket_start": b, "count": c} for b, c in result]
    if kind == "stats":
        return [dict(result)]
    return [{"cell_lat": la, "cell_lon": lo, "count": c} for la, lo, c in result]


def series(by_index: dict[str, list], metric: dict, from_ms: int,
           to_ms: int) -> tuple[int, list, list]:
    """Bucketized metric values for an `ml` job: (start_ms, values, counts)."""
    span = int(metric.get("bucket_span_seconds", 60)) * 1000
    start = from_ms - from_ms % span
    n = (to_ms - start + span - 1) // span
    detector = metric.get("detector", {"kind": "count"})
    field = detector.get("field")
    counts = [0] * n
    samples: list[list[float]] = [[] for _ in range(n)]
    chosen = select(by_index, metric["indices"], metric.get("filter", {"match_all": {}}),
                    (from_ms, to_ms))
    for doc in chosen:
        slot = (doc.fields["@timestamp"] - start) // span
        counts[slot] += 1
        if field is not None and doc.fields.get(field) is not None:
            samples[slot].append(float(doc.fields[field]))
    reducers = {
        "mean": lambda b: math.fsum(b) / len(b),
        "max": max,
        "min": min,
        "sum": math.fsum,
    }
    if detector.get("kind", "count") == "count":
        values = [float(c) for c in counts]
    else:
        reduce = reducers[detector["kind"]]
        values = [reduce(b) if b else None for b in samples]
    return start, values, counts
