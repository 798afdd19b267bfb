"""Shared test utilities: random valid events, random queries, the
linear-scan search oracle the index is checked against, and a reader and
writer of snapshot segments that do not use the index module's."""

from __future__ import annotations

import json
import math
import random
import re
import zlib
from functools import lru_cache

from stormwatch import codecs as C
from stormwatch import index as IX

TEXT_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ._/-=@()"
TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._/-=@"

MAX_TS = 4_000_000_000_000  # ~2096


def rand_text(rng: random.Random, max_len: int = 24, chars: str = TEXT_CHARS) -> str:
    return "".join(rng.choice(chars) for _ in range(rng.randrange(0, max_len)))


def rand_token(rng: random.Random, max_len: int = 16) -> str:
    return "".join(rng.choice(TOKEN_CHARS) for _ in range(rng.randrange(1, max_len)))


def rand_float(rng: random.Random, lo: float = 0.0, hi: float = 1e6) -> float:
    return rng.uniform(lo, hi)


def random_frontend_event(rng: random.Random) -> C.FrontendEvent:
    return C.FrontendEvent(
        timestamp=rng.randrange(0, MAX_TS),
        level=rng.choice(C.FRONTEND_LEVELS),
        request_id=rand_token(rng),
        user_dn=rand_text(rng),
        fqans=[
            rand_token(rng, 12).replace(",", "-")
            for _ in range(rng.randrange(0, 4))
        ],
        operation=rand_token(rng),
        surl=None if rng.random() < 0.3 else "srm://" + rand_token(rng),
        message=rand_text(rng, 40),
    )


def random_backend_event(rng: random.Random) -> C.BackendEvent:
    return C.BackendEvent(
        timestamp=rng.randrange(0, MAX_TS),
        level=rng.choice(C.BACKEND_LEVELS),
        request_id=rand_token(rng),
        user_dn=None if rng.random() < 0.3 else "/" + rand_token(rng),
        operation=rand_token(rng),
        surls=[
            ("srm://" + rand_token(rng)).replace(";", "-")
            for _ in range(rng.randrange(0, 4))
        ],
        result=rand_token(rng),
    )


def _round_stats(rng: random.Random) -> C.RoundStats:
    performed = rng.randrange(0, 50)
    if performed == 0:
        return C.RoundStats(0, 0, 0, 0, 0.0, 0.0, 0.0)
    success = rng.randrange(0, performed + 1)
    failed = rng.randrange(0, performed - success + 1)
    errored = rng.randrange(0, performed - success - failed + 1)
    lats = sorted(rand_float(rng, 0.01, 5e4) for _ in range(3))
    return C.RoundStats(
        performed, success, failed, errored,
        avg_ms=lats[1], min_ms=lats[0], max_ms=lats[2],
    )


def random_monitoring_event(rng: random.Random) -> C.MonitoringEvent:
    return C.MonitoringEvent(
        timestamp=rng.randrange(0, MAX_TS),
        round_seconds=rng.choice((30, 60, 120)),
        sync=_round_stats(rng),
        async_=_round_stats(rng),
        aggregate_sync=_round_stats(rng),
        aggregate_async=_round_stats(rng),
    )


def _bunch(rng: random.Random) -> C.BunchStats:
    count = rng.randrange(0, 200)
    return C.BunchStats(
        count=count,
        ok=rng.randrange(0, count + 1),
        mean_duration_ms=rand_float(rng, 0.0, 1e4) if count else 0.0,
    )


def random_heartbeat_event(rng: random.Random) -> C.HeartbeatEvent:
    return C.HeartbeatEvent(
        timestamp=rng.randrange(0, MAX_TS),
        seq=rng.randrange(0, 10**6),
        lifetime_seconds=rng.randrange(0, 10**7),
        heap_free_bytes=rng.randrange(0, 2**40),
        synch_last_beat=rng.randrange(0, 10**5),
        ptg_total=rng.randrange(0, 10**8),
        ptp_total=rng.randrange(0, 10**8),
        ptg_last=_bunch(rng),
        ptp_last=_bunch(rng),
    )


def random_backend_metrics_event(rng: random.Random) -> C.BackendMetricsEvent:
    samples = sorted(rand_float(rng, 0.01, 5e4) for _ in range(rng.randrange(1, 8)))
    n = len(samples)
    m1 = rng.randrange(0, 5000)
    return C.BackendMetricsEvent(
        timestamp=rng.randrange(0, MAX_TS),
        operation="synch." + rand_token(rng, 10),
        m1_count=m1,
        total_count=m1 + rng.randrange(0, 10**7),
        max_ms=samples[-1],
        min_ms=samples[0],
        mean_ms=math.fsum(samples) / n,
        p95_ms=samples[max(0, math.ceil(0.95 * n) - 1)],
        p99_ms=samples[max(0, math.ceil(0.99 * n) - 1)],
    )


EVENT_GENERATORS = {
    C.LogKind.FRONTEND: random_frontend_event,
    C.LogKind.MONITORING: random_monitoring_event,
    C.LogKind.BACKEND: random_backend_event,
    C.LogKind.HEARTBEAT: random_heartbeat_event,
    C.LogKind.BACKEND_METRICS: random_backend_metrics_event,
}


# ---------------------------------------------------------------------------
# Linear-scan query oracle (independent of the inverted index)

_ORACLE_TOKEN_RE = re.compile(r"[a-z0-9]+")


@lru_cache(maxsize=None)
def oracle_tokens(text: str) -> frozenset[str]:
    """The tokens of a text; cached, since the oracle scans the same
    documents for every query."""
    return frozenset(_ORACLE_TOKEN_RE.findall(text.lower()))


def oracle_match(doc, q) -> bool:
    if isinstance(q, IX.MatchAll):
        return True
    if isinstance(q, IX.Term):
        value = q.value
        if q.field == "id":
            return doc.id == value
        if type(value) is bool:
            return False
        if type(value) is int or type(value) is float:
            got = doc.fields.get(q.field)
            if type(got) is not int and type(got) is not float:
                return False
            return float(got) == float(value)
        if not isinstance(value, str):
            return False
        got = doc.fields.get(q.field)
        if q.field in IX.KEYWORD_FIELDS:
            return got == value
        if not isinstance(got, str):
            return False
        wanted = oracle_tokens(value)
        return bool(wanted) and wanted.issubset(oracle_tokens(got))
    if isinstance(q, IX.And):
        return all(oracle_match(doc, c) for c in q.clauses)
    if isinstance(q, IX.Or):
        return any(oracle_match(doc, c) for c in q.clauses)
    if isinstance(q, IX.Not):
        return not oracle_match(doc, q.clause)
    if isinstance(q, IX.Range):
        got = doc.fields.get(q.field)
        if type(got) is not int and type(got) is not float:
            return False
        value = float(got)
        if q.min is not None and (value < q.min or (not q.include_min and value == q.min)):
            return False
        if q.max is not None and (value > q.max or (not q.include_max and value == q.max)):
            return False
        return True
    raise AssertionError(f"unknown query node {q!r}")


def oracle_search(docs, q, time_range=None):
    if time_range is not None:
        lo, hi = time_range
        q = IX.And((q, IX.Range("@timestamp", min=lo, max=hi, include_max=False)))
    hits = [d for d in docs if oracle_match(d, q)]
    hits.sort(key=lambda d: (d.fields["@timestamp"], d.id))
    return hits


def oracle_compile(q):
    """Compile a query into a plain predicate over documents (same semantics
    as oracle_match, but cheap enough for thousands of full scans)."""
    if isinstance(q, IX.MatchAll):
        return lambda d: True
    if isinstance(q, IX.Term):
        field, value = q.field, q.value
        if field == "id":
            return lambda d: d.id == value
        if type(value) is bool:
            return lambda d: False
        if type(value) is int or type(value) is float:
            target = float(value)

            def num_pred(d, field=field, target=target):
                got = d.fields.get(field)
                return (type(got) is int or type(got) is float) and float(got) == target

            return num_pred
        if not isinstance(value, str):
            return lambda d: False
        if field in IX.KEYWORD_FIELDS:
            return lambda d: d.fields.get(field) == value
        wanted = oracle_tokens(value)
        if not wanted:
            return lambda d: False

        def text_pred(d, field=field, wanted=wanted):
            got = d.fields.get(field)
            return isinstance(got, str) and wanted.issubset(oracle_tokens(got))

        return text_pred
    if isinstance(q, IX.And):
        subs = [oracle_compile(c) for c in q.clauses]
        return lambda d: all(s(d) for s in subs)
    if isinstance(q, IX.Or):
        subs = [oracle_compile(c) for c in q.clauses]
        return lambda d: any(s(d) for s in subs)
    if isinstance(q, IX.Not):
        sub = oracle_compile(q.clause)
        return lambda d: not sub(d)
    if isinstance(q, IX.Range):
        field, lo, hi = q.field, q.min, q.max
        inc_lo, inc_hi = q.include_min, q.include_max

        def range_pred(d):
            got = d.fields.get(field)
            if type(got) is not int and type(got) is not float:
                return False
            value = float(got)
            if lo is not None and (value < lo or (not inc_lo and value == lo)):
                return False
            if hi is not None and (value > hi or (not inc_hi and value == hi)):
                return False
            return True

        return range_pred
    raise AssertionError(f"unknown query node {q!r}")


def random_query(rng: random.Random, docs, depth: int = 0):
    """A random query whose leaves are drawn from real document values."""
    roll = rng.random()
    if depth < 2 and roll < 0.35:
        n = rng.randrange(2, 4)
        clauses = tuple(random_query(rng, docs, depth + 1) for _ in range(n))
        return IX.And(clauses) if rng.random() < 0.5 else IX.Or(clauses)
    if depth < 2 and roll < 0.45:
        return IX.Not(random_query(rng, docs, depth + 1))
    if roll < 0.55:
        doc = rng.choice(docs)
        ts = doc.fields["@timestamp"]
        width = rng.randrange(1, 600_000)
        return IX.Range(
            "@timestamp",
            min=ts - rng.randrange(0, width),
            max=ts + rng.randrange(0, width),
            include_min=rng.random() < 0.8,
            include_max=rng.random() < 0.5,
        )
    if roll < 0.62:
        field = rng.choice(("mean_ms", "offset", "sync_performed", "heap_free_bytes"))
        lo = rng.uniform(0, 100)
        return IX.Range(field, min=lo, max=lo + rng.uniform(1, 1e6))
    if roll < 0.67:
        return IX.MatchAll()
    doc = rng.choice(docs)
    candidates = [
        (k, v)
        for k, v in doc.fields.items()
        if isinstance(v, (str, int, float)) and not isinstance(v, bool)
    ]
    field, value = rng.choice(candidates)
    if isinstance(value, str) and field not in IX.KEYWORD_FIELDS:
        tokens = sorted(oracle_tokens(value))
        if tokens and rng.random() < 0.8:
            value = rng.choice(tokens)
    return IX.Term(field, value)


# ---------------------------------------------------------------------------
# Format-4 segments, read and written by hand (docs/formats.md)


def read_segment(path) -> list[tuple[list, list, list]]:
    """A segment's groups as `(keys, ids, lines)`, one line per key: a
    dictionary stream as `{"d": distinct values, "i": positions, "w": width}`,
    any other stream as its JSON array."""
    with open(path, "rb") as handle:
        data = handle.read()
    end = int.from_bytes(data[-8:], "little")

    def inflate(span):
        return zlib.decompress(data[span[0]:span[0] + span[1]])

    groups = []
    for group in json.loads(data[end:-8]):
        lines = []
        for span in group["columns"]:
            raw = inflate(span)
            if len(span) == 2:
                lines.append(json.loads(raw))
                continue
            text, _, packed = raw.partition(b"\n")
            width = span[2]
            lines.append({"d": json.loads(text), "w": width, "i": [
                int.from_bytes(packed[at:at + width], "little")
                for at in range(0, len(packed), width)]})
        groups.append((group["keys"], json.loads(inflate(group["ids"])), lines))
    return groups


def write_segment(path, groups, header_offset=None) -> None:
    """Write `(keys, ids, lines)` groups as a segment at `path` (a
    pathlib.Path). A line `{"d", "i", "w"}` is a dictionary stream with `"i"`
    packed `"w"` bytes to a position, a line `(inflated bytes, width)` a
    dictionary stream of those bytes, and a line of bytes a plain stream of
    them; any other line is its JSON array. `header_offset` replaces the
    header's true offset in the last 8 bytes."""
    out = bytearray()

    def put(raw, *width):
        stream = zlib.compress(raw)
        out.extend(stream)
        return [len(out) - len(stream), len(stream), *width]

    header = []
    for keys, ids, lines in groups:
        entry = {"keys": keys, "ids": put(json.dumps(ids).encode()), "columns": []}
        for line in lines:
            if isinstance(line, (bytes, tuple)):
                entry["columns"].append(put(*line) if isinstance(line, tuple) else put(line))
            elif isinstance(line, dict) and "w" in line:
                packed = b"".join(p.to_bytes(line["w"], "little") for p in line["i"])
                entry["columns"].append(
                    put(json.dumps(line["d"]).encode() + b"\n" + packed, line["w"]))
            else:
                entry["columns"].append(put(json.dumps(line).encode()))
        header.append(entry)
    offset = len(out) if header_offset is None else header_offset
    path.write_bytes(bytes(out) + json.dumps(header).encode() + offset.to_bytes(8, "little"))
