"""Filter pipeline: batches of shipped records become the index's groups.

A pipeline is an ordered stage list per log kind: grok (pattern
extraction), date (timestamp resolution), geo (coordinates from client IP),
mutate (rename/remove/add) and drop (predicate). `load_pipeline` validates
each config entry and builds it once as a function over a batch's rows of
one kind held as columns (`Rows`), as vectorized query engines run an
operator per batch. `process_batch` runs each kind's rows through its
stages and returns one index group per index and field names, the form
`index.write_groups` takes, so no line becomes a dict or a `Document`;
`process` is its one-record case. A row has a field exactly when the
field's column holds a value for it, and its fields come out in name
order, the order a saved segment keeps. A record that fails a stage
becomes a DeadLetter carrying the stage name and reason; a dropped record
produces neither and is counted. Every surviving record goes to the
day-partitioned index named after its kind and UTC day.
"""

from __future__ import annotations

import functools
import hashlib
import ipaddress
import json
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import attrgetter, eq, is_not, itemgetter

from . import index as index_store
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

# The shipping fields attached to every document; grok captures may not
# shadow them.
RESERVED_FIELDS = ("message", "beat.name", "offset", "type", "kind", "source")


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


ABSENT = object()  # a column's value for a row that lacks the field
DROP = object()
_STRINGS = frozenset({str})
_GEO_FIELDS = ("geo_lat", "geo_lon", "geo_label")


@dataclass(slots=True)
class Rows:
    """A batch's surviving rows of one log kind, as columns: each row's
    record, its place in the batch, and per field each row's value, ABSENT
    where the row lacks the field. A row has a field exactly when the
    field's column holds a value for it."""

    records: list[RawRecord]
    positions: list[int]
    columns: dict[str, list]

    def keep(self, mask: list[bool]) -> None:
        """Keep only the rows whose `mask` entry is true."""
        self.records, self.positions = (
            list(compress(rows, mask)) for rows in (self.records, self.positions))
        self.columns = {name: list(compress(column, mask)) for name, column in self.columns.items()}


# A stage returns, per row of `Rows` that it ends, DROP or the (stage,
# reason) that dead-letters it; every other row goes on to the next stage.
Stage = Callable[[Rows], dict]


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
        names = tuple(name for name, _ in compiled.captures)
        clash = set(names).intersection(RESERVED_FIELDS)
        if clash:
            raise PipelineConfigError(
                f"{where}: captures shadow shipping metadata: {sorted(clash)}"
            )

        def grok(rows: Rows) -> dict:
            values, failed = patterns.match_lines(compiled, [r.line for r in rows.records])
            rows.columns.update(zip(names, values))
            return dict.fromkeys(failed, ("grok", "pattern did not match"))

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

        def parse(raw, record: RawRecord) -> int | tuple[str, str]:
            """One row's timestamp, or the (stage, reason) that fails it."""
            if not isinstance(raw, str):
                return ("date", f"missing date source field {source!r}")
            for fmt in formats:
                try:
                    if fmt == "iso8601":
                        return parse_iso8601_ms(raw)
                    tod = parse_time_of_day_ms(raw)
                except ValueError as exc:
                    reason = str(exc)
                    continue
                key = (record.source, source)
                ctx = day_contexts.get(key)
                if ctx is None:
                    ctx = day_contexts[key] = DayContext(base_day_ms)
                return ctx.resolve(tod)
            return ("date", reason)  # formats is never empty

        def date(rows: Rows) -> dict:
            raws = rows.columns.pop(source, None) or [ABSENT] * len(rows.records)
            try:
                if formats != ("iso8601",) or set(map(type, raws)) != _STRINGS:
                    raise ValueError
                stamps = list(map(parse_iso8601_ms, raws))
            except ValueError:  # row by row, in order: a time of day resolves per source
                stamps = list(map(parse, raws, rows.records))
            rows.columns["@timestamp"] = stamps
            return {i: stamps[i] for i in compress(count(), map(isinstance, stamps, repeat(tuple)))}

        return date, True
    if stype == "geo":
        source = spec.get("source")
        if not isinstance(source, str) or not source:
            raise PipelineConfigError(f"{where}: geo stage needs a source field")

        def geo(rows: Rows) -> dict:
            ips = rows.columns.get(source, ())
            if set(map(type, ips)) == _STRINGS:
                hits = list(map(geo_table.lookup, ips))
            else:
                hits = [geo_table.lookup(ip) if isinstance(ip, str) else None for ip in ips]
            if any(hits):  # a row without a hit keeps what it had
                for k, name in enumerate(_GEO_FIELDS):
                    before = rows.columns.get(name) or repeat(ABSENT)
                    rows.columns[name] = [hit[k] if hit else old for hit, old in zip(hits, before)]
            return {}

        return geo, False
    if stype == "mutate":
        renames = tuple(_typed(spec.get("rename", {}), dict, f"{where}: rename").items())
        removes = tuple(_typed(spec.get("remove", []), list, f"{where}: remove"))
        adds = tuple(_typed(spec.get("add", {}), dict, f"{where}: add").items())
        for name in (*removes, *(new for _, new in renames)):
            _typed(name, str, f"{where}: each removed field and new name")

        def mutate(rows: Rows) -> dict:
            columns = rows.columns
            for old, new in renames:
                values = columns.pop(old, None)
                if values is None:
                    continue
                if ABSENT in values:  # a row without `old` keeps its `new`
                    before = columns.get(new) or repeat(ABSENT)
                    values = [b if v is ABSENT else v for v, b in zip(values, before)]
                columns[new] = values
            for name in removes:
                columns.pop(name, None)
            for name, value in adds:
                columns[name] = [value] * len(rows.records)
            return {}

        return mutate, False
    if stype == "drop":
        if "field" not in spec or "equals" not in spec:
            raise PipelineConfigError(f"{where}: drop stage needs field and equals")
        name, equals = _typed(spec["field"], str, f"{where}: field"), spec["equals"]

        def drop(rows: Rows) -> dict:
            values = rows.columns.get(name) or [None] * len(rows.records)
            if ABSENT in values:  # an absent field compares as None
                values = [None if value is ABSENT else value for value in values]
            return dict.fromkeys(compress(count(), map(eq, values, repeat(equals))), DROP)

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


def process_batch(
    pipeline: Pipeline, records: Sequence[RawRecord]
) -> tuple[list[index_store.Groups], list[DeadLetter], int]:
    """Run a batch of records through their routes, each stage over a
    kind's rows as columns. Returns the surviving records' index groups, in
    the form and order `index.group_rows` gives, their dead letters in
    record order and how many records drop stages consumed. Re-processing a
    record yields the same document id.
    """
    dead, dropped, tables = [], 0, []  # dead: (position, DeadLetter)
    kinds = list(map(attrgetter("kind"), records))
    for kind in dict.fromkeys(kinds):
        positions = [p for p, k in enumerate(kinds) if k is kind]
        chosen = list(map(records.__getitem__, positions))
        route = pipeline.routes.get(kind)
        if route is None:
            reason = f"no route for kind {kind.value}"
            dead += [(p, DeadLetter(r, "route", reason)) for p, r in zip(positions, chosen)]
            continue
        lines, sources, offsets, beats, types, _ = map(list, zip(*chosen))
        rows = Rows(chosen, positions, dict(zip(
            RESERVED_FIELDS, (lines, beats, offsets, types, [kind.value] * len(lines), sources))))
        for stage in route:
            ended = stage(rows)
            dropped += sum(outcome is DROP for outcome in ended.values())
            dead += [(rows.positions[i], DeadLetter(rows.records[i], *outcome))
                     for i, outcome in ended.items() if outcome is not DROP]
            if ended:
                rows.keep([i not in ended for i in range(len(rows.records))])
            if not rows.records:
                break
        else:
            stamps, prefix = rows.columns["@timestamp"], f"storm-{kind.value}-"
            first = day_name(min(stamps))
            names = ([prefix + first] * len(stamps) if first == day_name(max(stamps))
                     else [prefix + day_name(stamp) for stamp in stamps])
            tables.append((rows, names, list(map(record_id, rows.records))))
    dead.sort(key=itemgetter(0))
    return _group(tables), [letter for _, letter in dead], dropped


def _group(tables: list[tuple[Rows, list[str], list[str]]]) -> list[index_store.Groups]:
    """Each kind's rows, with their index names and ids, as index groups:
    one kind with distinct ids by columns, and several kinds or a replayed
    line row by row, in record order. A row's field names are the fields
    whose columns hold a value for it, in name order."""
    shaped = []
    for table, names, ids in tables:
        fields = sorted(table.columns)
        # Per row, whether each field that some row lacks holds a value;
        # the rows that share this mask share their field names.
        sparse = [field for field in fields if ABSENT in table.columns[field]]
        masks = list(zip(*(map(is_not, table.columns[field], repeat(ABSENT))
                           for field in sparse))) or [()] * len(ids)
        by_mask = {mask: tuple(field for field in fields
                               if field not in sparse or mask[sparse.index(field)])
                   for mask in set(masks)}
        shaped.append((table, names, ids, list(map(by_mask.__getitem__, masks))))
    if len(shaped) == 1 and len(set(shaped[0][2])) == len(shaped[0][2]):
        table, names, ids, shapes = shaped[0]
        keys = list(zip(names, shapes))
        if keys.count(keys[0]) == len(keys):
            return [{keys[0]: (ids, [table.columns[n] for n in keys[0][1]])}]
        buckets: dict[tuple, list[int]] = {}
        for i, key in enumerate(keys):
            buckets.setdefault(key, []).append(i)
        take = lambda column, picked: list(map(column.__getitem__, picked))
        return [{(name, shape): (take(ids, picked), [take(table.columns[n], picked) for n in shape])
                 for (name, shape), picked in buckets.items()}]
    rows = sorted((p, id_, name, shape, [table.columns[n][i] for n in shape])
                  for table, names, table_ids, shapes in shaped
                  for i, (p, id_, name, shape) in enumerate(
                      zip(table.positions, table_ids, names, shapes)))
    return index_store.group_rows(row[1:] for row in rows)


def process(pipeline: Pipeline, record: RawRecord) -> Document | DeadLetter | None:
    """The one-record case of `process_batch`: a Document, a DeadLetter, or
    None when a drop stage consumed the record."""
    writes, dead, _ = process_batch(pipeline, (record,))
    for (index_name, names), (ids, values) in writes[0].items():
        return Document(ids[0], dict(zip(names, map(itemgetter(0), values))), index_name)
    return dead[0] if dead else None


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
