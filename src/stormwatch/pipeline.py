"""Filter pipeline: raw shipped records become the index's `Document`s.

A pipeline is an ordered stage list per log kind. Stages are grok (pattern
extraction), date (timestamp resolution), geo (coordinates from client IP),
mutate (rename/remove/add) and drop (predicate). Each stage is a function
that `load_pipeline` validates and builds once from its config entry. A
record that fails a stage becomes a DeadLetter carrying the stage name and
reason; a dropped record produces neither output and is counted by the
caller. Every surviving record is routed to the day-partitioned index named
after its kind and UTC day.
"""

from __future__ import annotations

import functools
import hashlib
import ipaddress
import json
import os
from collections.abc import Callable
from dataclasses import dataclass

from . import patterns
from .codecs import GRAMMARS, LogKind
from .index import Document
from .shipper import RawRecord
from .timeutil import (
    DayContext,
    day_name,
    parse_date_ms,
    parse_iso8601_ms,
    parse_time_of_day_ms,
)

DATE_FORMATS = ("iso8601", "time-of-day")

# Attached to every document by the shipper; grok captures may not shadow them.
RESERVED_FIELDS = frozenset({"message", "beat.name", "offset", "type", "kind", "source"})


class PipelineConfigError(ValueError):
    pass


@dataclass(slots=True)
class DeadLetter:
    raw: RawRecord
    stage: str
    reason: str


class GeoTable:
    """Static CIDR -> coordinates table with longest-prefix lookup over
    `(ip_network, lat, lon, label)` rows."""

    def __init__(self, rows: list[tuple]) -> None:
        # Longest prefix first: the first network holding an address is its
        # longest match.
        self.rows = tuple(sorted(rows, key=lambda row: -row[0].prefixlen))
        # Client pools repeat few distinct addresses; memoize resolved ones.
        self.lookup = functools.lru_cache(maxsize=100_000)(self._lookup)

    def _lookup(self, ip: str) -> tuple[float, float, str] | None:
        """Longest-prefix match; absent for private/reserved addresses."""
        try:
            addr = ipaddress.ip_address(ip)
        except ValueError:
            return None
        if not addr.is_global:
            return None
        for network, lat, lon, label in self.rows:
            if addr in network:
                return (lat, lon, label)
        return None


def load_geo_table(csv_text: str) -> GeoTable:
    """Parse `cidr,lat,lon,label` rows; networks are normalized (host bits
    masked) before the duplicate check."""
    rows = []
    for lineno, raw in enumerate(csv_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise PipelineConfigError(f"line {lineno}: expected cidr,lat,lon,label")
        try:
            net = ipaddress.ip_network(parts[0].strip(), strict=False)
            lat = float(parts[1])
            lon = float(parts[2])
        except ValueError as exc:
            raise PipelineConfigError(f"line {lineno}: {exc}") from exc
        if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
            raise PipelineConfigError(f"line {lineno}: coordinates out of range")
        rows.append((net, lat, lon, parts[3].strip()))
    seen = set()
    for net, _, _, _ in rows:
        if net in seen:
            raise PipelineConfigError(f"duplicate cidr at prefix /{net.prefixlen}")
        seen.add(net)
    return GeoTable(rows)


# A stage takes the document fields and the record. It returns None to pass
# the record on, DROP when it consumes the record, or a (stage, reason) pair
# that dead-letters it.
Stage = Callable[[dict, RawRecord], object]
DROP = object()


@dataclass
class Pipeline:
    routes: dict[LogKind, list[Stage]]
    # Rolling date state per (source file, date field), shared with the date
    # stages; records from one source must be processed in order by a single
    # worker (see the delivery contract).
    day_contexts: dict[tuple[str, str], DayContext]


def _typed(value, kind: type, what: str):
    """`value` when it has the JSON type `kind`; otherwise a config error."""
    if not isinstance(value, kind):
        names = {dict: "an object", list: "a list", str: "a string"}
        raise PipelineConfigError(f"{what} must be {names[kind]}")
    return value


def _build_stage(
    spec: dict,
    library: dict[str, str],
    geo_table: GeoTable,
    day_contexts: dict[tuple[str, str], DayContext],
    where: str,
) -> tuple[Stage, bool]:
    """Validate one stage config; return its function and whether it sets
    @timestamp."""
    stype = _typed(spec, dict, where).get("type")
    if stype == "grok":
        expr = spec.get("pattern")
        if not isinstance(expr, str) or not expr:
            raise PipelineConfigError(f"{where}: grok stage needs a pattern")
        try:
            compiled = patterns.compile(library, expr)
        except patterns.PatternError as exc:
            raise PipelineConfigError(f"{where}: {exc}") from exc
        names = {name for name, _ in compiled.captures}
        clash = RESERVED_FIELDS.intersection(names)
        if clash:
            raise PipelineConfigError(
                f"{where}: captures shadow shipping metadata: {sorted(clash)}"
            )

        def grok(fields: dict, record: RawRecord) -> object:
            captures = patterns.match_line(compiled, record.line)
            if captures is None:
                return ("grok", "pattern did not match")
            fields.update(captures)

        return grok, "@timestamp" in names
    if stype == "date":
        source = _typed(spec.get("source", "ts"), str, f"{where}: source")
        formats = tuple(_typed(spec.get("formats", ["iso8601"]), list, f"{where}: formats"))
        for fmt in formats:
            if fmt not in DATE_FORMATS:
                raise PipelineConfigError(f"{where}: unknown date format {fmt!r}")
        if not formats:
            raise PipelineConfigError(f"{where}: date stage needs formats")
        base = _typed(spec.get("base_date", "1970-01-01"), str, f"{where}: base_date")
        try:
            base_day_ms = parse_date_ms(base)
        except ValueError as exc:
            raise PipelineConfigError(f"{where}: bad base_date: {exc}") from exc

        def date(fields: dict, record: RawRecord) -> object:
            raw = fields.get(source)
            if not isinstance(raw, str):
                return ("date", f"missing date source field {source!r}")
            for fmt in formats:
                try:
                    if fmt == "iso8601":
                        fields["@timestamp"] = parse_iso8601_ms(raw)
                    else:
                        tod = parse_time_of_day_ms(raw)
                        key = (record.source, source)
                        ctx = day_contexts.get(key)
                        if ctx is None:
                            ctx = day_contexts[key] = DayContext(base_day_ms)
                        fields["@timestamp"] = ctx.resolve(tod)
                except ValueError as exc:
                    reason = str(exc)
                    continue
                del fields[source]
                return None
            return ("date", reason)  # formats is never empty

        return date, True
    if stype == "geo":
        source = spec.get("source")
        if not isinstance(source, str) or not source:
            raise PipelineConfigError(f"{where}: geo stage needs a source field")

        def geo(fields: dict, record: RawRecord) -> object:
            ip = fields.get(source)
            if isinstance(ip, str):
                hit = geo_table.lookup(ip)
                if hit is not None:
                    fields["geo_lat"], fields["geo_lon"], fields["geo_label"] = hit

        return geo, False
    if stype == "mutate":
        renames = tuple(_typed(spec.get("rename", {}), dict, f"{where}: rename").items())
        removes = tuple(_typed(spec.get("remove", []), list, f"{where}: remove"))
        adds = tuple(_typed(spec.get("add", {}), dict, f"{where}: add").items())
        for name in (*removes, *(new for _, new in renames)):
            _typed(name, str, f"{where}: each removed field and new name")

        def mutate(fields: dict, record: RawRecord) -> object:
            for old, new in renames:
                if old in fields:
                    fields[new] = fields.pop(old)
            for name in removes:
                fields.pop(name, None)
            for name, value in adds:
                fields[name] = value

        return mutate, False
    if stype == "drop":
        if "field" not in spec or "equals" not in spec:
            raise PipelineConfigError(f"{where}: drop stage needs field and equals")
        name, equals = _typed(spec["field"], str, f"{where}: field"), spec["equals"]

        def drop(fields: dict, record: RawRecord) -> object:
            return DROP if fields.get(name) == equals else None

        return drop, False
    raise PipelineConfigError(f"{where}: unknown stage type {stype!r}")


def load_pipeline(config_text: str) -> Pipeline:
    """Validate and build a pipeline from its JSON config document.

    Every grok pattern is compiled and the geo table loaded up front, so a
    bad stage fails here (with its route and index) and never at ingest
    time. Routes that never set @timestamp are rejected: timestamp
    resolution must precede index routing.
    """
    try:
        config = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise PipelineConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict) or "routes" not in config:
        raise PipelineConfigError("config must be an object with a routes key")

    library_doc = _typed(config.get("patterns", ""), str, "patterns")
    try:
        library = patterns.load_library(library_doc)
    except patterns.PatternError as exc:
        raise PipelineConfigError(f"patterns: {exc}") from exc

    geo_csv = _typed(config.get("geo_table_csv", default_geo_csv()), str, "geo_table_csv")
    geo_table = load_geo_table(geo_csv)

    pipeline = Pipeline(routes={}, day_contexts={})
    for kind_token, stage_specs in _typed(config["routes"], dict, "routes").items():
        try:
            kind = LogKind(kind_token)
        except ValueError as exc:
            raise PipelineConfigError(f"unknown route kind {kind_token!r}") from exc
        built = [
            _build_stage(spec, library, geo_table, pipeline.day_contexts,
                         f"route {kind_token} stage {i}")
            for i, spec in enumerate(_typed(stage_specs, list, f"route {kind_token}"))
        ]
        if not any(sets_timestamp for _, sets_timestamp in built):
            raise PipelineConfigError(
                f"route {kind_token}: no stage sets @timestamp before routing"
            )
        pipeline.routes[kind] = [stage for stage, _ in built]
    return pipeline


def record_id(record: RawRecord) -> str:
    key = f"{record.source}\x00{record.offset}\x00{record.line}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]


def process(pipeline: Pipeline, record: RawRecord) -> Document | DeadLetter | None:
    """Run one record through its route.

    Returns a Document, a DeadLetter, or None when a drop stage consumed the
    record. Re-processing the same record yields the same document id.
    Shipping metadata fields (message, beat.name, offset, type, kind,
    source) are reserved; grok captures may not reuse them.
    """
    route = pipeline.routes.get(record.kind)
    if route is None:
        return DeadLetter(record, "route", f"no route for kind {record.kind.value}")
    fields = {
        "message": record.line,
        "beat.name": record.beat_name,
        "offset": record.offset,
        "type": record.doc_type,
        "kind": record.kind.value,
        "source": record.source,
    }
    for stage in route:
        outcome = stage(fields, record)
        if outcome is not None:
            return None if outcome is DROP else DeadLetter(record, *outcome)
    timestamp = fields["@timestamp"]
    index_name = f"storm-{record.kind.value}-{day_name(timestamp)}"
    return Document(id=record_id(record), fields=fields, index_name=index_name)


def dead_letter_json(letter: DeadLetter) -> str:
    return json.dumps(
        {
            "source": letter.raw.source,
            "offset": letter.raw.offset,
            "line": letter.raw.line,
            "kind": letter.raw.kind.value,
            "stage": letter.stage,
            "reason": letter.reason,
        },
        sort_keys=True,
        ensure_ascii=False,
    )


def default_pipeline_config(base_date: str = "1970-01-01") -> dict:
    """The stock five-kind routing config.

    `base_date` anchors the calendar date of heartbeat and backend-metrics
    lines, whose bodies carry only a time of day.
    """
    iso_date = [{"type": "date", "source": "ts", "formats": ["iso8601"]}]
    tod_date = [
        {
            "type": "date",
            "source": "ts",
            "formats": ["time-of-day"],
            "base_date": base_date,
        }
    ]
    return {
        # The synthetic corpus's message convention, which the geo stage keys on.
        "patterns": "MSG client=%{IP:client_ip} %{DATA:msg}\n",
        "routes": {
            LogKind.FRONTEND.value: [
                {"type": "grok", "pattern": GRAMMARS[LogKind.FRONTEND]},
                *iso_date,
                {"type": "geo", "source": "client_ip"},
                {"type": "mutate", "remove": ["surl_clause"]},
                {"type": "drop", "field": "status", "equals": "DEBUG"},
            ],
            LogKind.MONITORING.value: [
                {"type": "grok", "pattern": GRAMMARS[LogKind.MONITORING]},
                *iso_date,
            ],
            LogKind.BACKEND.value: [
                {"type": "grok", "pattern": GRAMMARS[LogKind.BACKEND]},
                *iso_date,
            ],
            LogKind.HEARTBEAT.value: [
                {"type": "grok", "pattern": GRAMMARS[LogKind.HEARTBEAT]},
                *tod_date,
            ],
            LogKind.BACKEND_METRICS.value: [
                {"type": "grok", "pattern": GRAMMARS[LogKind.BACKEND_METRICS]},
                *tod_date,
            ],
        }
    }


def default_geo_csv() -> str:
    path = os.path.join(os.path.dirname(__file__), "data", "geo_sample.csv")
    with open(path, encoding="utf-8") as handle:
        return handle.read()
