"""Filter pipeline: raw shipped records become indexable documents.

A pipeline is an ordered stage list per log kind. Stages are grok (pattern
extraction), date (timestamp resolution), geo (coordinates from client IP),
mutate (rename/remove/add) and drop (predicate). A record that fails a stage
becomes a DeadLetter carrying the stage name and reason; a dropped record
produces neither output and is counted by the caller. Every surviving record
is routed to the day-partitioned index named after its kind and UTC day.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import os
from dataclasses import dataclass, field

from . import patterns
from .codecs import GRAMMARS, LogKind
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


class GeoTableError(ValueError):
    pass


@dataclass(slots=True)
class Document:
    id: str
    fields: dict[str, object]
    index_name: str


@dataclass(slots=True)
class DeadLetter:
    raw: RawRecord
    stage: str
    reason: str


@dataclass(frozen=True)
class GeoRow:
    version: int
    network: int
    prefixlen: int
    lat: float
    lon: float
    label: str


class GeoTable:
    """Static CIDR -> coordinates table with longest-prefix lookup."""

    def __init__(self, rows: list[GeoRow]) -> None:
        self.rows = tuple(rows)
        self._by_prefix: dict[tuple[int, int], dict[int, GeoRow]] = {}
        for row in rows:
            bucket = self._by_prefix.setdefault((row.version, row.prefixlen), {})
            if row.network in bucket:
                raise GeoTableError(f"duplicate cidr at prefix /{row.prefixlen}")
            bucket[row.network] = row
        self._prefixes: dict[int, list[int]] = {}
        for version, prefixlen in self._by_prefix:
            self._prefixes.setdefault(version, []).append(prefixlen)
        for lens in self._prefixes.values():
            lens.sort(reverse=True)
        # Client pools repeat few distinct addresses; memoize resolved ones.
        self._cache: dict[str, tuple[float, float, str] | None] = {}

    def lookup(self, ip: str) -> tuple[float, float, str] | None:
        """Longest-prefix match; absent for private/reserved addresses."""
        hit = self._cache.get(ip, -1)
        if hit != -1:
            return hit  # type: ignore[return-value]
        result = self._lookup(ip)
        if len(self._cache) > 100_000:
            self._cache.clear()
        self._cache[ip] = result
        return result

    def _lookup(self, ip: str) -> tuple[float, float, str] | None:
        try:
            addr = ipaddress.ip_address(ip)
        except ValueError:
            return None
        if not addr.is_global:
            return None
        value = int(addr)
        bits = addr.max_prefixlen
        for prefixlen in self._prefixes.get(addr.version, ()):
            network = value >> (bits - prefixlen) << (bits - prefixlen)
            row = self._by_prefix[(addr.version, prefixlen)].get(network)
            if row is not None:
                return (row.lat, row.lon, row.label)
        return None


def load_geo_table(csv_text: str) -> GeoTable:
    """Parse `cidr,lat,lon,label` rows; networks are normalized (host bits
    masked) before the duplicate check."""
    rows: list[GeoRow] = []
    for lineno, raw in enumerate(csv_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise GeoTableError(f"line {lineno}: expected cidr,lat,lon,label")
        try:
            net = ipaddress.ip_network(parts[0].strip(), strict=False)
            lat = float(parts[1])
            lon = float(parts[2])
        except ValueError as exc:
            raise GeoTableError(f"line {lineno}: {exc}") from exc
        if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
            raise GeoTableError(f"line {lineno}: coordinates out of range")
        rows.append(
            GeoRow(
                version=net.version,
                network=int(net.network_address),
                prefixlen=net.prefixlen,
                lat=lat,
                lon=lon,
                label=parts[3].strip(),
            )
        )
    return GeoTable(rows)


@dataclass(slots=True)
class GrokStage:
    pattern: patterns.CompiledPattern


@dataclass(slots=True)
class DateStage:
    source: str
    formats: tuple[str, ...]
    base_day_ms: int


@dataclass(slots=True)
class GeoStage:
    source: str
    table: GeoTable


@dataclass(slots=True)
class MutateStage:
    renames: tuple[tuple[str, str], ...]
    removes: tuple[str, ...]
    adds: tuple[tuple[str, object], ...]


@dataclass(slots=True)
class DropStage:
    field: str
    equals: object


Stage = GrokStage | DateStage | GeoStage | MutateStage | DropStage


@dataclass
class Pipeline:
    routes: dict[LogKind, list[Stage]]
    # Rolling date state per source file; records from one source must be
    # processed in order by a single worker (see the delivery contract).
    day_contexts: dict[tuple[str, str], DayContext] = field(default_factory=dict)

    def context_for(self, stage: DateStage, source: str) -> DayContext:
        key = (source, stage.source)
        ctx = self.day_contexts.get(key)
        if ctx is None:
            ctx = DayContext(stage.base_day_ms)
            self.day_contexts[key] = ctx
        return ctx


def _build_stage(
    spec: dict,
    library: patterns.PatternLibrary,
    geo_table: GeoTable,
    where: str,
) -> Stage:
    stype = spec.get("type")
    if stype == "grok":
        expr = spec.get("pattern")
        if not isinstance(expr, str) or not expr:
            raise PipelineConfigError(f"{where}: grok stage needs a pattern")
        try:
            compiled = patterns.compile(library, expr)
        except patterns.PatternError as exc:
            raise PipelineConfigError(f"{where}: {exc}") from exc
        clash = RESERVED_FIELDS.intersection(name for name, _ in compiled.captures)
        if clash:
            raise PipelineConfigError(
                f"{where}: captures shadow shipping metadata: {sorted(clash)}"
            )
        return GrokStage(pattern=compiled)
    if stype == "date":
        source = spec.get("source", "ts")
        formats = tuple(spec.get("formats", ["iso8601"]))
        for fmt in formats:
            if fmt not in DATE_FORMATS:
                raise PipelineConfigError(f"{where}: unknown date format {fmt!r}")
        if not formats:
            raise PipelineConfigError(f"{where}: date stage needs formats")
        base = spec.get("base_date", "1970-01-01")
        try:
            base_day_ms = parse_date_ms(base)
        except ValueError as exc:
            raise PipelineConfigError(f"{where}: bad base_date: {exc}") from exc
        return DateStage(source=source, formats=formats, base_day_ms=base_day_ms)
    if stype == "geo":
        source = spec.get("source")
        if not isinstance(source, str) or not source:
            raise PipelineConfigError(f"{where}: geo stage needs a source field")
        return GeoStage(source=source, table=geo_table)
    if stype == "mutate":
        return MutateStage(
            renames=tuple((k, v) for k, v in spec.get("rename", {}).items()),
            removes=tuple(spec.get("remove", [])),
            adds=tuple((k, v) for k, v in spec.get("add", {}).items()),
        )
    if stype == "drop":
        if "field" not in spec or "equals" not in spec:
            raise PipelineConfigError(f"{where}: drop stage needs field and equals")
        return DropStage(field=spec["field"], equals=spec["equals"])
    raise PipelineConfigError(f"{where}: unknown stage type {stype!r}")


def _route_sets_timestamp(stages: list[Stage]) -> bool:
    for stage in stages:
        if isinstance(stage, DateStage):
            return True
        if isinstance(stage, GrokStage):
            if any(name == "@timestamp" for name, _ in stage.pattern.captures):
                return True
    return False


def load_pipeline(config_text: str, geo_csv_text: str | None = None) -> Pipeline:
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

    library_doc = config.get("patterns", "")
    try:
        library = patterns.load_library(library_doc)
    except patterns.PatternError as exc:
        raise PipelineConfigError(f"patterns: {exc}") from exc

    if geo_csv_text is None:
        geo_csv_text = config.get("geo_table_csv", default_geo_csv())
    geo_table = load_geo_table(geo_csv_text)

    routes: dict[LogKind, list[Stage]] = {}
    for kind_token, stage_specs in config["routes"].items():
        try:
            kind = LogKind(kind_token)
        except ValueError as exc:
            raise PipelineConfigError(f"unknown route kind {kind_token!r}") from exc
        stages = [
            _build_stage(spec, library, geo_table, f"route {kind_token} stage {i}")
            for i, spec in enumerate(stage_specs)
        ]
        if not _route_sets_timestamp(stages):
            raise PipelineConfigError(
                f"route {kind_token}: no stage sets @timestamp before routing"
            )
        routes[kind] = stages
    return Pipeline(routes=routes)


def record_id(record: RawRecord) -> str:
    key = f"{record.source}\x00{record.offset}\x00{record.line}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]


def _apply_date(
    pipeline: Pipeline, stage: DateStage, fields: dict, source: str
) -> str | None:
    raw = fields.get(stage.source)
    if not isinstance(raw, str):
        return f"missing date source field {stage.source!r}"
    reason = None
    for fmt in stage.formats:
        try:
            if fmt == "iso8601":
                fields["@timestamp"] = parse_iso8601_ms(raw)
            else:
                tod = parse_time_of_day_ms(raw)
                fields["@timestamp"] = pipeline.context_for(stage, source).resolve(tod)
        except ValueError as exc:
            reason = str(exc)
            continue
        del fields[stage.source]
        return None
    return reason or "no date format matched"


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
    if route and type(route[0]) is GrokStage:
        # Common shape: grok leads, so its capture dict can seed the document.
        fields = patterns.match_line(route[0].pattern, record.line)
        if fields is None:
            return DeadLetter(record, "grok", "pattern did not match")
        rest = route[1:]
    else:
        fields = {}
        rest = route
    fields["message"] = record.line
    fields["beat.name"] = record.beat_name
    fields["offset"] = record.offset
    fields["type"] = record.doc_type
    fields["kind"] = record.kind.value
    fields["source"] = record.source
    for stage in rest:
        if isinstance(stage, GrokStage):
            result = patterns.match_line(stage.pattern, record.line)
            if result is None:
                return DeadLetter(record, "grok", "pattern did not match")
            fields.update(result)
        elif isinstance(stage, DateStage):
            failure = _apply_date(pipeline, stage, fields, record.source)
            if failure is not None:
                return DeadLetter(record, "date", failure)
        elif isinstance(stage, GeoStage):
            ip = fields.get(stage.source)
            if isinstance(ip, str):
                hit = stage.table.lookup(ip)
                if hit is not None:
                    fields["geo_lat"], fields["geo_lon"], fields["geo_label"] = hit
        elif isinstance(stage, MutateStage):
            for old, new in stage.renames:
                if old in fields:
                    fields[new] = fields.pop(old)
            for name in stage.removes:
                fields.pop(name, None)
            for name, value in stage.adds:
                fields[name] = value
        else:  # DropStage
            if fields.get(stage.field) == stage.equals:
                return None
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


def default_geo_csv_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "geo_sample.csv")


def default_geo_csv() -> str:
    with open(default_geo_csv_path(), encoding="utf-8") as handle:
        return handle.read()
