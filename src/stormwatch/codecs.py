"""Line grammars for the five grid-storage service log files.

`GRAMMARS` holds the one grammar per log kind, as a grok expression (see
:mod:`stormwatch.patterns`). `parse_line` matches it and builds a typed
event; the stock ingest pipeline matches the same expressions. Each kind
has a renderer that is the exact inverse of its parser:
`parse_line(kind, render_line(e))` equals `e` for every valid event. Field
ranges are validated on both paths, so events that violate their
invariants (e.g. ok > count) never round-trip silently.

The frontend grammar leaves the message body to a `MSG` pattern that each
user defines: here any text without a quote, in the stock pipeline
`client=<ip> <text>`.

Heartbeat and backend-metrics lines carry only a time of day; their parser
takes a :class:`~stormwatch.timeutil.DayContext` that supplies the calendar
date and handles midnight rollover.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass
from enum import Enum

from . import patterns
from .timeutil import (
    DayContext,
    format_iso8601_ms,
    format_time_of_day_ms,
    parse_iso8601_ms,
    parse_time_of_day_ms,
)


class LogKind(Enum):
    FRONTEND = "frontend"
    MONITORING = "monitoring"
    BACKEND = "backend"
    HEARTBEAT = "heartbeat"
    BACKEND_METRICS = "backend-metrics"


FRONTEND_LEVELS = ("ERROR", "WARNING", "INFO", "DEBUG")
BACKEND_LEVELS = ("FATAL", "ERROR", "INFO", "WARN", "DEBUG")

CANONICAL_FILENAMES = {
    "storm-frontend-server.log": LogKind.FRONTEND,
    "monitoring.log": LogKind.MONITORING,
    "storm-backend.log": LogKind.BACKEND,
    "heartbeat.log": LogKind.HEARTBEAT,
    "storm-backend-metrics.log": LogKind.BACKEND_METRICS,
}

FILENAME_FOR_KIND = {kind: name for name, kind in CANONICAL_FILENAMES.items()}


class UnknownLogKind(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, reason: str, line: str | None = None) -> None:
        super().__init__(reason if line is None else f"{reason}: {line!r}")
        self.reason = reason
        self.line = line


class GrammarMismatch(ParseError):
    pass


class FieldRange(ParseError):
    pass


@dataclass(slots=True)
class RoundStats:
    performed: int
    success: int
    failed: int
    errored: int
    avg_ms: float
    min_ms: float
    max_ms: float


@dataclass(slots=True)
class BunchStats:
    count: int
    ok: int
    mean_duration_ms: float


@dataclass(slots=True)
class FrontendEvent:
    timestamp: int
    level: str
    request_id: str
    user_dn: str
    fqans: list[str]
    operation: str
    surl: str | None
    message: str


@dataclass(slots=True)
class MonitoringEvent:
    timestamp: int
    round_seconds: int
    sync: RoundStats
    async_: RoundStats
    aggregate_sync: RoundStats
    aggregate_async: RoundStats


@dataclass(slots=True)
class BackendEvent:
    timestamp: int
    level: str
    request_id: str
    user_dn: str | None
    operation: str
    surls: list[str]
    result: str


@dataclass(slots=True)
class HeartbeatEvent:
    timestamp: int
    seq: int
    lifetime_seconds: int
    heap_free_bytes: int
    synch_last_beat: int
    ptg_total: int
    ptp_total: int
    ptg_last: BunchStats
    ptp_last: BunchStats


@dataclass(slots=True)
class BackendMetricsEvent:
    timestamp: int
    operation: str
    m1_count: int
    total_count: int
    max_ms: float
    min_ms: float
    mean_ms: float
    p95_ms: float
    p99_ms: float


Event = (
    FrontendEvent
    | MonitoringEvent
    | BackendEvent
    | HeartbeatEvent
    | BackendMetricsEvent
)

_ROTATION_RE = re.compile(r"^(?P<stem>.+?\.log)(?:\.\d+|[.-]\d{4}-\d{2}-\d{2})*$")

_SURL_CLAUSE_RE = re.compile(r" surl='([^']*)'")
_LIFETIME_RE = re.compile(r"(\d+):(\d{2})\.(\d{2})")

# Monitoring stat groups in line order: (label, field prefix).
_ROUNDS = (("Synch", "sync"), ("ASynch", "async"), ("AggSynch", "agg_sync"),
           ("AggASynch", "agg_async"))
_ROUND_FIELDS = ("performed", "success", "failed", "errored", "avg_ms", "min_ms", "max_ms")

# The one grammar per kind: grok expressions over the builtin pattern
# library plus `MSG`, the frontend message, which each user defines.
GRAMMARS: dict[LogKind, str] = {
    LogKind.FRONTEND: (
        "^%{ISO8601_TIMESTAMP:ts:text} \\[%{NOTSPACE:request_id}\\] %{LOGLEVEL:status:level}: "
        "%{NOTSPACE:action} user='%{DATA:user_dn}' fqans='%{DATA:fqans}'%{DATA:surl_clause} "
        "msg='%{MSG}'$"
    ),
    LogKind.MONITORING: (
        "^%{ISO8601_TIMESTAMP:ts:text} - Round\\(%{INT:round_seconds:int}s\\): "
        + " ".join(
            f"{label} \\(performed=%{{INT:{p}_performed:int}} ok=%{{INT:{p}_success:int}} "
            f"fail=%{{INT:{p}_failed:int}} error=%{{INT:{p}_errored:int}} "
            f"avg=%{{NUMBER:{p}_avg_ms:float}} min=%{{NUMBER:{p}_min_ms:float}} "
            f"max=%{{NUMBER:{p}_max_ms:float}}\\)"
            for label, p in _ROUNDS
        )
        + "$"
    ),
    LogKind.BACKEND: (
        "^%{ISO8601_TIMESTAMP:ts:text} - %{LOGLEVEL:status:level} \\[%{NOTSPACE:request_id}\\]: "
        "%{NOTSPACE:action} user='%{DATA:user_dn}' surls='%{DATA:surls}' "
        "result=%{NOTSPACE:result}$"
    ),
    LogKind.HEARTBEAT: (
        "^%{TIME:ts} - \\[#%{INT:seq:int} lifetime=%{NOTSPACE:lifetime}\\] "
        "Heap Free:%{INT:heap_free_bytes:int} SYNCH \\[%{INT:synch_last_beat:int}\\] "
        "ASynch \\[PTG:%{INT:ptg_total:int} PTP:%{INT:ptp_total:int}\\] "
        "Last:\\( \\[#PTG=%{INT:ptg_count:int} OK=%{INT:ptg_ok:int} "
        "M\\.Dur\\.=%{NUMBER:ptg_mean_duration_ms:float}\\] "
        "\\[#PTP=%{INT:ptp_count:int} OK=%{INT:ptp_ok:int} "
        "M\\.Dur\\.=%{NUMBER:ptp_mean_duration_ms:float}\\] \\)$"
    ),
    LogKind.BACKEND_METRICS: (
        "^%{TIME:ts} - %{NOTSPACE:action} \\[\\(m1_count=%{INT:m1_count:int}, "
        "count=%{INT:total_count:int}\\) \\(max=%{NUMBER:max_ms:float}, "
        "min=%{NUMBER:min_ms:float}, mean=%{NUMBER:mean_ms:float}, "
        "p95=%{NUMBER:p95_ms:float}, p99=%{NUMBER:p99_ms:float}\\) "
        "duration_units=milliseconds\\]$"
    ),
}

# A message may not contain a quote; matching that (not `DATA`) keeps a SURL
# that ends in " msg=" inside the surl clause.
_MSG_LIBRARY = "QUOTED [^']*\nMSG %{QUOTED:msg}"

# The characters each kind of field may not hold: control characters, the
# quote that delimits it, and a token's whitespace or a list's separator.
_QUOTED_BAD = re.compile(r"['\x00-\x1f]")
_TOKEN_BAD = re.compile(r"['\x00-\x1f\s]")
_FQAN_BAD = re.compile(r"[,'\x00-\x1f]")
_SURL_BAD = re.compile(r"[;'\x00-\x1f]")


def classify_file(path: str) -> LogKind:
    """Map a log file path to its kind, tolerating rotation suffixes."""
    base = os.path.basename(path)
    kind = CANONICAL_FILENAMES.get(base)
    if kind is not None:
        return kind
    m = _ROTATION_RE.match(base)
    if m is not None:
        kind = CANONICAL_FILENAMES.get(m.group("stem"))
        if kind is not None:
            return kind
    raise UnknownLogKind(f"not a recognized log file name: {base!r}")


def _check(condition: bool, reason: str) -> None:
    if not condition:
        raise FieldRange(reason)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _validate_quoted(text: str, what: str) -> None:
    _check(
        _QUOTED_BAD.search(text) is None,
        f"{what} may not contain quotes or control characters",
    )


def _validate_token(text: str, what: str) -> None:
    _check(bool(text), f"{what} must be non-empty")
    _check(
        _TOKEN_BAD.search(text) is None,
        f"{what} may not contain spaces, quotes or control characters",
    )


def _validate_round_stats(s: RoundStats, what: str) -> None:
    _check(
        s.performed >= 0 and s.success >= 0 and s.failed >= 0 and s.errored >= 0,
        f"{what}: negative count",
    )
    _check(
        s.success + s.failed + s.errored <= s.performed,
        f"{what}: outcome counts exceed performed",
    )
    _check(_finite(s.avg_ms, s.min_ms, s.max_ms), f"{what}: non-finite duration")
    if s.performed > 0:
        _check(s.min_ms <= s.avg_ms <= s.max_ms, f"{what}: expected min <= avg <= max")


def _validate_bunch(b: BunchStats, what: str) -> None:
    _check(b.count >= 0 and b.ok >= 0, f"{what}: negative count")
    _check(b.ok <= b.count, f"{what}: ok exceeds count")
    _check(_finite(b.mean_duration_ms) and b.mean_duration_ms >= 0, f"{what}: bad mean duration")


# Render uses calendar formatting, which caps out at year 9999.
_MAX_TIMESTAMP_MS = 253_402_300_800_000


def validate_event(event: Event) -> None:
    """Raise FieldRange if the event violates its declared invariants."""
    _check(0 <= event.timestamp < _MAX_TIMESTAMP_MS, "timestamp out of range")
    if isinstance(event, FrontendEvent):
        _check(event.level in FRONTEND_LEVELS, f"bad frontend level {event.level}")
        _validate_token(event.operation, "operation")
        _validate_token(event.request_id, "request_id")
        _validate_quoted(event.user_dn, "user_dn")
        for fqan in event.fqans:
            _check(bool(fqan), "empty fqan")
            _check(_FQAN_BAD.search(fqan) is None, "bad fqan")
        if event.surl is not None:
            _validate_quoted(event.surl, "surl")
        _validate_quoted(event.message, "message")
    elif isinstance(event, MonitoringEvent):
        _check(event.round_seconds > 0, "round_seconds must be positive")
        for name, stats in (
            ("Synch", event.sync),
            ("ASynch", event.async_),
            ("AggSynch", event.aggregate_sync),
            ("AggASynch", event.aggregate_async),
        ):
            _validate_round_stats(stats, name)
    elif isinstance(event, BackendEvent):
        _check(event.level in BACKEND_LEVELS, f"bad backend level {event.level}")
        _validate_token(event.operation, "operation")
        _validate_token(event.request_id, "request_id")
        if event.user_dn is not None:
            _check(bool(event.user_dn), "user_dn must be absent, not empty")
            _validate_quoted(event.user_dn, "user_dn")
        for surl in event.surls:
            _check(bool(surl), "empty surl")
            _check(_SURL_BAD.search(surl) is None, "bad surl")
        _validate_token(event.result, "result")
    elif isinstance(event, HeartbeatEvent):
        _check(event.seq >= 0, "negative seq")
        _check(event.lifetime_seconds >= 0, "negative lifetime")
        _check(event.heap_free_bytes >= 0, "negative heap size")
        _check(event.synch_last_beat >= 0, "negative synch count")
        _check(event.ptg_total >= 0 and event.ptp_total >= 0, "negative totals")
        _validate_bunch(event.ptg_last, "PTG")
        _validate_bunch(event.ptp_last, "PTP")
    elif isinstance(event, BackendMetricsEvent):
        _validate_token(event.operation, "operation")
        _check(event.m1_count >= 0, "negative m1_count")
        _check(event.m1_count <= event.total_count, "m1_count exceeds total")
        _check(
            _finite(event.max_ms, event.min_ms, event.mean_ms, event.p95_ms, event.p99_ms),
            "non-finite duration",
        )
        _check(event.min_ms <= event.mean_ms <= event.max_ms, "expected min <= mean <= max")
        _check(
            event.min_ms <= event.p95_ms <= event.p99_ms <= event.max_ms,
            "expected min <= p95 <= p99 <= max",
        )
    else:
        raise TypeError(f"unknown event type: {type(event).__name__}")


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_stats(s: RoundStats) -> str:
    return (
        f"(performed={s.performed} ok={s.success} fail={s.failed}"
        f" error={s.errored} avg={_fmt(s.avg_ms)} min={_fmt(s.min_ms)}"
        f" max={_fmt(s.max_ms)})"
    )


def render_line(event: Event) -> str:
    """Render a valid event as one log line (the inverse of parse_line)."""
    validate_event(event)
    if isinstance(event, FrontendEvent):
        surl = f" surl='{event.surl}'" if event.surl is not None else ""
        return (
            f"{format_iso8601_ms(event.timestamp)} [{event.request_id}]"
            f" {event.level}: {event.operation} user='{event.user_dn}'"
            f" fqans='{','.join(event.fqans)}'{surl} msg='{event.message}'"
        )
    if isinstance(event, MonitoringEvent):
        return (
            f"{format_iso8601_ms(event.timestamp)} - Round({event.round_seconds}s):"
            f" Synch {_fmt_stats(event.sync)} ASynch {_fmt_stats(event.async_)}"
            f" AggSynch {_fmt_stats(event.aggregate_sync)}"
            f" AggASynch {_fmt_stats(event.aggregate_async)}"
        )
    if isinstance(event, BackendEvent):
        return (
            f"{format_iso8601_ms(event.timestamp)} - {event.level}"
            f" [{event.request_id}]: {event.operation}"
            f" user='{event.user_dn or ''}' surls='{';'.join(event.surls)}'"
            f" result={event.result}"
        )
    if isinstance(event, HeartbeatEvent):
        hours, rest = divmod(event.lifetime_seconds, 3600)
        minutes, seconds = divmod(rest, 60)
        g, p = event.ptg_last, event.ptp_last
        return (
            f"{format_time_of_day_ms(event.timestamp)} - [#{event.seq}"
            f" lifetime={hours}:{minutes:02d}.{seconds:02d}]"
            f" Heap Free:{event.heap_free_bytes} SYNCH [{event.synch_last_beat}]"
            f" ASynch [PTG:{event.ptg_total} PTP:{event.ptp_total}]"
            f" Last:( [#PTG={g.count} OK={g.ok} M.Dur.={_fmt(g.mean_duration_ms)}]"
            f" [#PTP={p.count} OK={p.ok} M.Dur.={_fmt(p.mean_duration_ms)}] )"
        )
    if isinstance(event, BackendMetricsEvent):
        return (
            f"{format_time_of_day_ms(event.timestamp)} - {event.operation}"
            f" [(m1_count={event.m1_count}, count={event.total_count})"
            f" (max={_fmt(event.max_ms)}, min={_fmt(event.min_ms)},"
            f" mean={_fmt(event.mean_ms)}, p95={_fmt(event.p95_ms)},"
            f" p99={_fmt(event.p99_ms)}) duration_units=milliseconds]"
        )
    raise TypeError(f"unknown event type: {type(event).__name__}")


def _split_list(text: str, sep: str) -> list[str]:
    return text.split(sep) if text else []


# Compiled on first use: read-only commands never parse a line.
@functools.lru_cache(maxsize=len(LogKind))
def _grammar(kind: LogKind) -> patterns.CompiledPattern:
    if kind not in GRAMMARS:
        raise UnknownLogKind(f"unknown log kind: {kind}")
    return patterns.compile(patterns.load_library(_MSG_LIBRARY), GRAMMARS[kind])


def parse_line(kind: LogKind, line: str, day_context: DayContext | None = None) -> Event:
    """Parse one log line of the given kind into its typed event.

    The line must match `GRAMMARS[kind]`, with `MSG` standing for any text
    without a quote.
    `day_context` supplies the calendar date for kinds whose lines carry
    only a time of day (heartbeat, backend-metrics); when omitted, a fresh
    context anchored at the epoch is used.
    """
    f = patterns.match_line(_grammar(kind), line)
    if f is None:
        raise GrammarMismatch(f"{kind.value} grammar mismatch", line)
    if kind is LogKind.FRONTEND:
        surl = None
        if f["surl_clause"]:
            m = _SURL_CLAUSE_RE.fullmatch(f["surl_clause"])
            if m is None:
                raise GrammarMismatch("frontend grammar mismatch", line)
            surl = m.group(1)
        event: Event = FrontendEvent(
            timestamp=parse_iso8601_ms(f["ts"]),
            level=f["status"],
            request_id=f["request_id"],
            user_dn=f["user_dn"],
            fqans=_split_list(f["fqans"], ","),
            operation=f["action"],
            surl=surl,
            message=f["msg"],
        )
    elif kind is LogKind.MONITORING:
        stats = [RoundStats(*(f[f"{p}_{name}"] for name in _ROUND_FIELDS)) for _, p in _ROUNDS]
        event = MonitoringEvent(
            timestamp=parse_iso8601_ms(f["ts"]),
            round_seconds=f["round_seconds"],
            sync=stats[0],
            async_=stats[1],
            aggregate_sync=stats[2],
            aggregate_async=stats[3],
        )
    elif kind is LogKind.BACKEND:
        event = BackendEvent(
            timestamp=parse_iso8601_ms(f["ts"]),
            level=f["status"],
            request_id=f["request_id"],
            user_dn=f["user_dn"] or None,
            operation=f["action"],
            surls=_split_list(f["surls"], ";"),
            result=f["result"],
        )
    elif kind is LogKind.HEARTBEAT:
        m = _LIFETIME_RE.fullmatch(f["lifetime"])
        if m is None:
            raise GrammarMismatch("heartbeat grammar mismatch", line)
        hours, minutes, seconds = (int(g) for g in m.groups())
        ctx = day_context if day_context is not None else DayContext(0)
        event = HeartbeatEvent(
            timestamp=ctx.resolve(parse_time_of_day_ms(f["ts"])),
            seq=f["seq"],
            lifetime_seconds=hours * 3600 + minutes * 60 + seconds,
            heap_free_bytes=f["heap_free_bytes"],
            synch_last_beat=f["synch_last_beat"],
            ptg_total=f["ptg_total"],
            ptp_total=f["ptp_total"],
            ptg_last=BunchStats(f["ptg_count"], f["ptg_ok"], f["ptg_mean_duration_ms"]),
            ptp_last=BunchStats(f["ptp_count"], f["ptp_ok"], f["ptp_mean_duration_ms"]),
        )
    else:
        ctx = day_context if day_context is not None else DayContext(0)
        event = BackendMetricsEvent(
            timestamp=ctx.resolve(parse_time_of_day_ms(f["ts"])),
            operation=f["action"],
            m1_count=f["m1_count"],
            total_count=f["total_count"],
            max_ms=f["max_ms"],
            min_ms=f["min_ms"],
            mean_ms=f["mean_ms"],
            p95_ms=f["p95_ms"],
            p99_ms=f["p99_ms"],
        )
    try:
        validate_event(event)
    except FieldRange as exc:
        raise FieldRange(exc.reason, line) from None
    return event
