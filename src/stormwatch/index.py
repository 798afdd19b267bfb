"""Day-partitioned inverted indices over documents.

Indices are named `storm-<kind>-YYYY.MM.DD` and each holds one in-memory
inverted index, its shard. A write only stores the document; the first query
that reads a field builds that field's index from the stored documents (text
fields tokenized on non-alphanumeric boundaries and lowercased, keyword
fields indexed verbatim, numeric fields sorted into columns), and the next
write drops it. A process that only writes, as ingest does, never builds
one. Queries are an AST of term/boolean/range nodes; results are exact and
sorted by (@timestamp, id). Aggregations recompute from the matching
documents, so they are exact at this scale. `Document` is the store's own
record type; the pipeline builds them, and this module imports no sibling.

Snapshots persist one directory per index: a manifest plus the segments it
lists. A segment is a zlib stream of column blocks (`_write_segment`), and
loading upserts its documents in order. The manifest is the commit point of
a save; `index_names` lists the indices on disk by their manifests alone.

A dated index holds only documents of its own UTC day (`index_document`
enforces it), so a time range prunes whole days: `load_store` skips the days
a range cannot match and so does the search over a loaded store. A store
that knows its `root` loads an index from disk the first time a document is
routed to it, so ingest reads only the days it writes, and a save removes
only the index directories that `delete_index` dropped.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import zlib
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import count
from operator import itemgetter

# Identifier-like fields are indexed verbatim (exact-match terms); free text
# is tokenized. DNs and client addresses are identifiers here.
KEYWORD_FIELDS = frozenset(
    {
        "id",
        "kind",
        "type",
        "status",
        "action",
        "result",
        "beat.name",
        "source",
        "request_id",
        "geo_label",
        "surl",
        "level",
        "client_ip",
        "user_dn",
    }
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_DATED_INDEX_RE = re.compile(r"-(\d{4})\.(\d{2})\.(\d{2})$")


class StoreError(Exception):
    pass


class MissingTimestamp(StoreError):
    pass


class UnknownIndex(StoreError):
    pass


class MalformedPattern(StoreError):
    pass


class AggregationError(StoreError):
    pass


@dataclass(slots=True)
class Document:
    """The store's record: an id, its fields and the index it belongs to."""
    id: str
    fields: dict[str, object]
    index_name: str


# ---------------------------------------------------------------------------
# Query and aggregation ASTs


@dataclass(frozen=True)
class Term:
    field: str
    value: object


@dataclass(frozen=True)
class And:
    clauses: tuple


@dataclass(frozen=True)
class Or:
    clauses: tuple


@dataclass(frozen=True)
class Not:
    clause: object


@dataclass(frozen=True)
class Range:
    field: str
    min: float | None = None
    max: float | None = None
    include_min: bool = True
    include_max: bool = True


@dataclass(frozen=True)
class MatchAll:
    pass


Query = Term | And | Or | Not | Range | MatchAll


@dataclass(frozen=True)
class TermsAgg:
    field: str
    top_n: int


@dataclass(frozen=True)
class DateHistogramAgg:
    interval_seconds: int


@dataclass(frozen=True)
class StatsAgg:
    field: str


@dataclass(frozen=True)
class GeoGridAgg:
    cell_degrees: float


Aggregation = TermsAgg | DateHistogramAgg | StatsAgg | GeoGridAgg


def query_from_json(obj: dict) -> Query:
    """Build a query from its documented JSON form."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"query node must be a single-key object: {obj!r}")
    kind, body = next(iter(obj.items()))
    if kind == "match_all":
        return MatchAll()
    if kind == "term":
        return Term(field=body["field"], value=body["value"])
    if kind == "and":
        return And(tuple(query_from_json(c) for c in body))
    if kind == "or":
        return Or(tuple(query_from_json(c) for c in body))
    if kind == "not":
        return Not(query_from_json(body))
    if kind == "range":
        return Range(
            field=body["field"],
            min=body.get("min"),
            max=body.get("max"),
            include_min=body.get("include_min", True),
            include_max=body.get("include_max", True),
        )
    raise ValueError(f"unknown query node kind: {kind!r}")


def aggregation_from_json(obj: dict) -> Aggregation:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"aggregation must be a single-key object: {obj!r}")
    kind, body = next(iter(obj.items()))
    if kind == "terms":
        return TermsAgg(field=body["field"], top_n=int(body.get("top_n", 10)))
    if kind == "date_histogram":
        return DateHistogramAgg(interval_seconds=int(body["interval_seconds"]))
    if kind == "stats":
        return StatsAgg(field=body["field"])
    if kind == "geo_grid":
        return GeoGridAgg(cell_degrees=float(body["cell_degrees"]))
    raise ValueError(f"unknown aggregation kind: {kind!r}")


# ---------------------------------------------------------------------------
# Shards and indices


# Maps ASCII non-alphanumerics to spaces; lowercased ASCII text then splits
# into exactly the [a-z0-9]+ runs the regex would find.
_ASCII_SEPARATORS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum()}
)


def tokenize(text: str) -> list[str]:
    lowered = text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(lowered)


# The document in a shard entry (see `Shard`).
_DOCUMENT = itemgetter(3)


class Shard:
    """One shard's documents and the field indexes its queries built.

    `entries` maps each live document's ordinal to its (@timestamp, id,
    index name, document) tuple, so that search sorts its hits as plain
    tuples and reads the documents off them; an id is unique within an index,
    so two tuples never compare their documents. A write only stores the
    document (`upsert`) and drops every built field index. The first query
    that reads a field builds its index from `entries`: `postings` for a term
    on a string (`_terms`), `ranges` for a range or a numeric term
    (`_column`). `Term("id", …)` reads `by_id`.
    """

    __slots__ = ("entries", "by_id", "postings", "ranges", "next_ord")

    def __init__(self) -> None:
        self.entries: dict[int, tuple] = {}
        self.by_id: dict[str, int] = {}
        self.postings: dict[str, dict[str, list[int]]] = {}
        self.ranges: dict[str, tuple[list[float], list[int], list[int]]] = {}
        self.next_ord = 0

    def upsert(self, doc: Document) -> None:
        """Store a document, replacing the one with its id."""
        self.postings.clear()
        self.ranges.clear()
        old = self.by_id.get(doc.id)
        if old is not None:
            del self.entries[old]
        ord_ = self.next_ord
        self.next_ord = ord_ + 1
        self.entries[ord_] = (doc.fields.get("@timestamp"), doc.id, doc.index_name, doc)
        self.by_id[doc.id] = ord_

    def evaluate(self, q: Query) -> set[int]:
        if isinstance(q, MatchAll):
            return set(self.entries)
        if isinstance(q, Term):
            return self._eval_term(q)
        if isinstance(q, And):
            result: set[int] | None = None
            for clause in q.clauses:
                hit = self.evaluate(clause)
                result = hit if result is None else result & hit
                if not result:
                    return set()
            return result if result is not None else set(self.entries)
        if isinstance(q, Or):
            result = set()
            for clause in q.clauses:
                result |= self.evaluate(clause)
            return result
        if isinstance(q, Not):
            return set(self.entries) - self.evaluate(q.clause)
        if isinstance(q, Range):
            return self._eval_range(q)
        raise StoreError(f"unknown query node: {q!r}")

    def _eval_range(self, q: Range) -> set[int]:
        values, ords, nan = self._column(q.field)
        lo, hi = q.min, q.max
        # A NaN value is in every range and a NaN bound excludes nothing,
        # as with the comparisons `value < lo` and `value == lo`.
        start, end = 0, len(values)
        if lo is not None and lo == lo:
            start = (bisect_left if q.include_min else bisect_right)(values, lo)
        if hi is not None and hi == hi:
            end = (bisect_right if q.include_max else bisect_left)(values, hi)
        hits = set(ords[start:end])
        hits.update(nan)
        return hits

    def _eval_term(self, q: Term) -> set[int]:
        value = q.value
        if q.field == "id":
            ord_ = self.by_id.get(value) if type(value) is str else None
            return set() if ord_ is None else {ord_}
        if type(value) is bool:
            return set()
        if type(value) is int or type(value) is float:
            target = float(value)
            if target != target:  # NaN equals no value
                return set()
            values, ords, _ = self._column(q.field)
            return set(ords[bisect_left(values, target):bisect_right(values, target)])
        if not isinstance(value, str):
            return set()
        terms = self._terms(q.field)
        if q.field in KEYWORD_FIELDS:
            return set(terms.get(value, ()))
        tokens = tokenize(value)
        if not tokens:
            return set()
        result: set[int] | None = None
        for token in tokens:
            hit = terms.get(token, ())
            result = set(hit) if result is None else result.intersection(hit)
            if not result:
                return set()
        return result or set()

    def _terms(self, field: str) -> dict[str, list[int]]:
        """The field's postings, built from `entries` on first use: a keyword
        field's string values verbatim, any other field's tokenized."""
        terms = self.postings.get(field)
        if terms is not None:
            return terms
        terms = self.postings[field] = {}
        keyword = field in KEYWORD_FIELDS
        for ord_, entry in self.entries.items():
            value = entry[3].fields.get(field)
            if type(value) is not str:
                continue
            for term in (value,) if keyword else set(tokenize(value)):
                try:
                    terms[term].append(ord_)
                except KeyError:
                    terms[term] = [ord_]
        return terms

    def _column(self, field: str) -> tuple[list[float], list[int], list[int]]:
        """The field's int and float values (bools are neither) in sorted
        order with their ordinals, and the ordinals of its NaN values; built
        from `entries` on first use."""
        column = self.ranges.get(field)
        if column is not None:
            return column
        pairs: list[tuple[float, int]] = []
        nan: list[int] = []
        for ord_, entry in self.entries.items():
            value = entry[3].fields.get(field)
            if type(value) is int or type(value) is float:
                if value == value:
                    pairs.append((float(value), ord_))
                else:
                    nan.append(ord_)
        pairs.sort()
        column = self.ranges[field] = ([v for v, _ in pairs], [o for _, o in pairs], nan)
        return column


class TimeIndex:
    def __init__(self, name: str) -> None:
        self.name = name
        # One shard, in a list because the benchmark's tracer iterates `shards`.
        self.shards = [Shard()]
        self.dirty = False

    @property
    def doc_count(self) -> int:
        return len(self.shards[0].by_id)

    def upsert(self, doc: Document) -> None:
        self.shards[0].upsert(doc)
        self.dirty = True


class Store:
    """A collection of day-partitioned indices, optionally disk-backed.

    With a `root`, an index missing from `indices` is loaded from that
    snapshot on its first write, unless this process deleted it (`deleted`).
    """

    def __init__(self, root: str | None = None) -> None:
        self.root = root
        self.indices: dict[str, TimeIndex] = {}
        self.deleted: set[str] = set()


_DAY_BOUNDS_CACHE: dict[str, tuple[int, int] | None] = {}


def _day_bounds(index_name: str) -> tuple[int, int] | None:
    """The [start, end) milliseconds of the UTC day a `-YYYY.MM.DD` name
    carries, or None for a name without a valid date suffix."""
    try:
        return _DAY_BOUNDS_CACHE[index_name]
    except KeyError:
        pass
    bounds = None
    m = _DATED_INDEX_RE.search(index_name)
    if m is not None:
        try:
            day = datetime(int(m[1]), int(m[2]), int(m[3]), tzinfo=timezone.utc)
            start = int(day.timestamp()) * 1000
            bounds = (start, start + 86_400_000)
        except ValueError:  # not a calendar day, such as 2024.02.30
            pass
    _DAY_BOUNDS_CACHE[index_name] = bounds
    return bounds


def _check_day(index_name: str, timestamp: int) -> bool:
    bounds = _day_bounds(index_name)
    return bounds is None or bounds[0] <= timestamp < bounds[1]


def _may_match(
    index_name: str, time_range: tuple[int | None, int | None] | None
) -> bool:
    """False only when the name's day lies outside the half-open range.

    A None bound is open, and a NaN bound compares False and so prunes
    nothing, as in `Range`.
    """
    if time_range is None:
        return True
    bounds = _day_bounds(index_name)
    if bounds is None:
        return True
    lo, hi = time_range
    return not ((lo is not None and lo >= bounds[1]) or (hi is not None and hi <= bounds[0]))


def index_document(store: Store, doc: Document) -> None:
    """Upsert one document into its index."""
    timestamp = doc.fields.get("@timestamp")
    if type(timestamp) is not int:
        raise MissingTimestamp(f"document {doc.id} has no @timestamp")
    if not _check_day(doc.index_name, timestamp):
        raise StoreError(
            f"document timestamp outside index day: {doc.index_name}"
        )
    index = store.indices.get(doc.index_name)
    if index is None:
        name = doc.index_name
        if store.root is not None and name not in store.deleted:
            index = load_store(store.root, name).indices.get(name)
        if index is None:
            index = TimeIndex(name)
        store.indices[name] = index
    index.upsert(doc)


def match_index_pattern(pattern: str, names: list[str]) -> list[str]:
    """Expand an index name pattern; `*` is allowed only as a final suffix."""
    star = pattern.find("*")
    if star == -1:
        return sorted(n for n in names if n == pattern)
    if star != len(pattern) - 1:
        raise MalformedPattern(f"'*' only supported as a suffix: {pattern!r}")
    prefix = pattern[:-1]
    return sorted(n for n in names if n.startswith(prefix))


def _matches(
    store: Store,
    indices: str,
    q: Query,
    time_range: tuple[int | None, int | None] | None,
) -> Iterator[tuple[Shard, set[int]]]:
    """The shard of each matching index with the ordinals it matches.

    Indices whose day lies outside `time_range` are skipped unread.
    """
    if time_range is not None:
        lo, hi = time_range
        clauses: list[Query] = [q]
        clauses.append(Range("@timestamp", min=lo, max=hi, include_max=False))
        q = And(tuple(clauses))
    for name in match_index_pattern(indices, list(store.indices)):
        if not _may_match(name, time_range):
            continue
        for shard in store.indices[name].shards:
            yield shard, shard.evaluate(q)


def _collect(
    store: Store,
    indices: str,
    q: Query,
    time_range: tuple[int | None, int | None] | None,
) -> list[Document]:
    docs: list[Document] = []
    for shard, hits in _matches(store, indices, q, time_range):
        docs.extend(map(_DOCUMENT, map(shard.entries.__getitem__, hits)))
    return docs


def search(
    store: Store,
    indices: str,
    q: Query,
    time_range: tuple[int | None, int | None] | None = None,
) -> list[Document]:
    """All matching documents, sorted by (@timestamp, id).

    `time_range` is (from_ms inclusive, to_ms exclusive); either bound may
    be None. Unknown fields match nothing rather than failing.
    """
    entries: list[tuple] = []
    for shard, hits in _matches(store, indices, q, time_range):
        entries.extend(map(shard.entries.__getitem__, hits))
    entries.sort()
    return list(map(_DOCUMENT, entries))


def aggregate(
    store: Store,
    indices: str,
    q: Query,
    agg: Aggregation,
    time_range: tuple[int | None, int | None] | None = None,
):
    """Exact aggregation over the query's result set."""
    docs = _collect(store, indices, q, time_range)
    if isinstance(agg, TermsAgg):
        if agg.top_n < 1:
            raise AggregationError("top_n must be >= 1")
        counts: dict[object, int] = {}
        for doc in docs:
            value = doc.fields.get(agg.field)
            if value is None:
                continue
            counts[value] = counts.get(value, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return ranked[: agg.top_n]
    if isinstance(agg, DateHistogramAgg):
        if agg.interval_seconds < 1:
            raise AggregationError("interval_seconds must be >= 1")
        span = agg.interval_seconds * 1000
        buckets: dict[int, int] = {}
        for doc in docs:
            ts = doc.fields["@timestamp"]
            start = ts - ts % span
            buckets[start] = buckets.get(start, 0) + 1
        return sorted(buckets.items())
    if isinstance(agg, StatsAgg):
        values = []
        for doc in docs:
            value = doc.fields.get(agg.field)
            if value is None:
                continue
            if type(value) is not int and type(value) is not float:
                raise AggregationError(f"stats on non-numeric field {agg.field!r}")
            values.append(float(value))
        if not values:
            return {"count": 0, "min": None, "max": None, "mean": None, "sum": 0.0}
        total = math.fsum(values)
        return {
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "mean": total / len(values),
            "sum": total,
        }
    if isinstance(agg, GeoGridAgg):
        cell = agg.cell_degrees
        if cell <= 0:
            raise AggregationError("cell_degrees must be positive")
        counts2: dict[tuple[int, int], int] = {}
        for doc in docs:
            lat = doc.fields.get("geo_lat")
            lon = doc.fields.get("geo_lon")
            if lat is None or lon is None:
                continue
            key = (math.floor(lat / cell), math.floor(lon / cell))
            counts2[key] = counts2.get(key, 0) + 1
        ranked2 = sorted(counts2.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(la * cell, lo * cell, n) for (la, lo), n in ranked2]
    raise StoreError(f"unknown aggregation: {agg!r}")


def delete_index(store: Store, name: str) -> None:
    """Drop an index; the next save removes its directory.

    A store with a `root` can also drop an index it has not loaded, by its
    manifest on disk.
    """
    if name in store.indices:
        del store.indices[name]
    elif (
        name in store.deleted
        or store.root is None
        or not os.path.isfile(os.path.join(store.root, name, _MANIFEST))
    ):
        raise UnknownIndex(f"no such index: {name}")
    store.deleted.add(name)


# ---------------------------------------------------------------------------
# Snapshots

# The manifest's `format`; the docs.jsonl layout that preceded it had none.
SNAPSHOT_FORMAT = 2
_MANIFEST = "manifest.json"
_MANIFEST_TMP = "manifest.json.tmp"
# A save encodes and compresses one block of this many documents at a time.
_BLOCK_DOCS = 4096
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def index_names(root: str) -> list[str]:
    """The sorted names of the index directories under `root` that have a
    manifest; reads no documents."""
    if not os.path.isdir(root):
        return []
    return sorted(
        name for name in os.listdir(root)
        if os.path.isfile(os.path.join(root, name, _MANIFEST))
    )


def _write_segment(shard: Shard, path: str) -> None:
    """Write the shard's documents as one zlib stream of column blocks, fsynced.

    A block holds up to `_BLOCK_DOCS` documents in ordinal order, grouped by
    their field names. Each group is a JSON line `[keys, ids]` with the keys
    sorted, then one JSON array per key: that field's values, in `ids` order.
    """
    entries = shard.entries
    ords = sorted(entries)
    deflate = zlib.compressobj(1)
    with open(path, "wb") as handle:
        for start in range(0, len(ords), _BLOCK_DOCS):
            groups: dict[tuple, list[Document]] = {}
            for ord_ in ords[start:start + _BLOCK_DOCS]:
                doc = entries[ord_][3]
                groups.setdefault(tuple(doc.fields), []).append(doc)
            for names, docs in groups.items():
                keys = sorted(names)
                columns = [[doc.fields[key] for doc in docs] for key in keys]
                for line in ([keys, [doc.id for doc in docs]], *columns):
                    handle.write(deflate.compress(f"{_encode(line)}\n".encode("utf-8")))
        handle.write(deflate.flush())
        handle.flush()
        os.fsync(handle.fileno())


def _segment_lines(path: str) -> Iterator[bytes]:
    """The JSON lines of a segment, inflated a chunk at a time."""
    inflate = zlib.decompressobj()
    tail = b""
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 16):
            lines = (tail + inflate.decompress(chunk)).split(b"\n")
            tail = lines.pop()
            yield from lines
    if tail or not inflate.eof:
        raise ValueError("truncated segment")


def _load_segment(shard: Shard, name: str, path: str) -> None:
    """Upsert a segment's documents into a shard, in the segment's order."""
    upsert = shard.upsert
    lines = _segment_lines(path)
    for header in lines:
        keys, ids = json.loads(header)
        columns = [json.loads(next(lines)) for _ in keys]
        rows = zip(*columns) if columns else [()] * len(ids)
        for id_, values in zip(ids, rows):
            upsert(Document(id_, dict(zip(keys, values)), name))


def _load_index(path: str, name: str) -> TimeIndex:
    index = TimeIndex(name)
    try:
        with open(os.path.join(path, _MANIFEST), encoding="utf-8") as handle:
            manifest = json.load(handle)
        if type(manifest) is not dict:
            raise ValueError("the manifest is not a JSON object")
        if manifest.get("format") != SNAPSHOT_FORMAT:
            raise StoreError(
                f"{name}: not a format-{SNAPSHOT_FORMAT} snapshot (the older docs.jsonl"
                " layout is not read); re-ingest its logs into a fresh store"
            )
        for segment in manifest["segments"]:
            _load_segment(index.shards[0], name, os.path.join(path, segment))
        doc_count = int(manifest["doc_count"])
    except (zlib.error, ValueError, KeyError, TypeError, StopIteration) as exc:
        raise StoreError(f"snapshot corrupt for {name}: {exc!r}") from exc
    if index.doc_count != doc_count:
        raise StoreError(f"snapshot corrupt for {name}: doc_count mismatch")
    return index


def save_store(store: Store, root: str) -> None:
    """Write every changed index as <root>/<name>/manifest.json plus one
    segment.

    Indices untouched since load are skipped. The only directories removed
    are those of indices `delete_index` dropped from this store, so saving a
    store that holds only some of the snapshot's indices keeps the others.
    An index is committed by its manifest: the segment is written under a
    new name and fsynced, then the manifest is replaced through a fsynced
    temp file, and only then are the superseded files deleted. A crash at
    any point leaves either the old or the new snapshot of the index.
    """
    os.makedirs(root, exist_ok=True)
    for name in store.deleted - store.indices.keys():
        path = os.path.join(root, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
    for name, index in store.indices.items():
        path = os.path.join(root, name)
        if not index.dirty and os.path.isdir(path):
            continue
        os.makedirs(path, exist_ok=True)
        present = set(os.listdir(path))
        segment = next(f"{g}.seg" for g in count(1) if f"{g}.seg" not in present)
        _write_segment(index.shards[0], os.path.join(path, segment))
        manifest = {
            "format": SNAPSHOT_FORMAT,
            "name": name,
            "doc_count": index.doc_count,
            "segments": [segment],
        }
        tmp = os.path.join(path, _MANIFEST_TMP)
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, os.path.join(path, _MANIFEST))
        # The rename must be durable before the files the old manifest names go.
        directory = os.open(path, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        for leaf in present - {_MANIFEST, _MANIFEST_TMP, segment}:
            os.remove(os.path.join(path, leaf))
        index.dirty = False


def load_store(
    root: str,
    pattern: str | None = None,
    time_range: tuple[int | None, int | None] | None = None,
) -> Store:
    """Load a snapshot's indices that match `pattern` and may hold documents
    in the half-open `time_range` (see `_may_match`); either may be None.

    The store keeps `root`, so a later write to an index left on disk loads
    that index first.
    """
    store = Store(root=root)
    names = index_names(root)
    if pattern is not None:
        names = match_index_pattern(pattern, names)
    for name in names:
        if _may_match(name, time_range):
            store.indices[name] = _load_index(os.path.join(root, name), name)
    return store
