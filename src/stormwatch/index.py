"""Day-partitioned inverted indices over documents held as columns.

Indices are named `storm-<kind>-YYYY.MM.DD` and each holds one in-memory
shard. A shard keeps its documents as columns, one list of values per field
indexed by ordinal, with each ordinal's id and field names (`Shard`). A
write takes groups keyed by index and field names, each holding its ids and
one list of values per field (`write_groups`; ingest passes the pipeline's
groups, and `index_documents` groups `Document`s), and appends each group
to the columns with one `Shard.extend`. A string field
whose values repeat keeps one object per distinct value in its column, as
Parquet's dictionary encoding stores each distinct value once. The first
query that reads a field builds that field's index from its column (text
fields tokenized on non-alphanumeric boundaries and lowercased, keyword
fields indexed verbatim, numeric fields sorted), and the next write drops
it. A process that only writes, as ingest does, never builds one. Queries
are an AST of term/boolean/range nodes; results are exact and sorted by
(@timestamp, id), and search builds a `Document` only for a hit it returns.
Aggregations and metric series read the matching documents' values
straight from the columns (`field_values`; a whole column when every
document of the shard matches), so they are exact. A terms or geo-grid
aggregation that matches a shard's every live document counts the shard's
values once, on first use, and keeps the counts until the next write, as
postings are kept (`Shard.count`); a filtered or partial-range one counts
its hits per call, as stats, date histograms and metric series read theirs.
The kernels run per document in C and in Python only per bucket or per
distinct value (`aggregate`). `Document` is the store's own record type,
which search returns and `index_documents` takes; this module imports no
sibling.

Snapshots persist one directory per index: a manifest plus the segments it
lists. A segment holds one zlib stream per group and field, a column's
repeated strings written once as a dictionary, and a header that places
each stream (`_write_segment`), as Parquet stores column chunks. A load
reads each segment once and decodes only the ids (`Shard.attach`); a
column is decoded on its first read (`Shard.column`), so a command decodes
the columns it uses, and a loaded column keeps one object per distinct
string of its group too. The manifest is the commit point of a save;
`index_names` lists the indices on disk by their manifests alone.

A dated index holds only documents of its own UTC day (`write_groups`
enforces it), so a time range prunes whole days: `load_store` skips the days
a range cannot match and so does the search over a loaded store, and an
index whose whole day the range covers is queried without it
(`_day_in_range`), which spares building a day-sized set of ordinals. A
store that knows its `root` loads an index from disk the first time a
write reaches it, so ingest reads only the days it writes, and a
save removes only the index directories that `delete_index` dropped.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Set
from datetime import datetime, timezone
from functools import lru_cache, partial
from itertools import count, repeat
from operator import is_not, itemgetter
from typing import NamedTuple

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
    """Data the store cannot read or accept."""


class UnknownIndex(ValueError):
    pass


class MalformedPattern(ValueError):
    pass


class AggregationError(ValueError):
    pass


class Document(NamedTuple):
    """The store's record: an id, its fields and the index it belongs to."""
    id: str
    fields: dict[str, object]
    index_name: str


# ---------------------------------------------------------------------------
# Query and aggregation ASTs


class Term(NamedTuple):
    field: str
    value: object


class And(NamedTuple):
    clauses: tuple


class Or(NamedTuple):
    clauses: tuple


class Not(NamedTuple):
    clause: object


class Range(NamedTuple):
    field: str
    min: float | None = None
    max: float | None = None
    include_min: bool = True
    include_max: bool = True


class MatchAll(NamedTuple):
    pass


Query = Term | And | Or | Not | Range | MatchAll


class TermsAgg(NamedTuple):
    field: str
    top_n: int


class DateHistogramAgg(NamedTuple):
    interval_seconds: int


class StatsAgg(NamedTuple):
    field: str


class GeoGridAgg(NamedTuple):
    cell_degrees: float


Aggregation = TermsAgg | DateHistogramAgg | StatsAgg | GeoGridAgg


def _field(body: dict) -> str:
    field = body["field"]
    if type(field) is not str:
        raise ValueError(f"field must be a string: {field!r}")
    return field


def _bound(body: dict, key: str) -> float | None:
    value = body.get(key)
    if value is not None and type(value) is not int and type(value) is not float:
        raise ValueError(f"{key} must be a number or null: {value!r}")
    return value


# The deepest a query may nest, counting the outermost node as level 1; no
# later stage recurses deeper than this.
MAX_QUERY_DEPTH = 100


def query_from_json(obj: dict, depth: int = 1) -> Query:
    """Build a query from its documented JSON form; a field that is not a
    string, a range bound that is neither a number nor null, or nesting
    deeper than `MAX_QUERY_DEPTH` is a ValueError. `depth` is the level of
    `obj` within the whole query."""
    if depth > MAX_QUERY_DEPTH:
        raise ValueError(f"query nests deeper than {MAX_QUERY_DEPTH} levels")
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"query node must be a single-key object: {obj!r}")
    kind, body = next(iter(obj.items()))
    if kind == "match_all":
        return MatchAll()
    if kind == "term":
        return Term(field=_field(body), value=body["value"])
    if kind == "and":
        return And(tuple(query_from_json(c, depth + 1) for c in body))
    if kind == "or":
        return Or(tuple(query_from_json(c, depth + 1) for c in body))
    if kind == "not":
        return Not(query_from_json(body, depth + 1))
    if kind == "range":
        return Range(
            field=_field(body),
            min=_bound(body, "min"),
            max=_bound(body, "max"),
            include_min=body.get("include_min", True),
            include_max=body.get("include_max", True),
        )
    raise ValueError(f"unknown query node kind: {kind!r}")


def aggregation_from_json(obj: dict) -> Aggregation:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"aggregation must be a single-key object: {obj!r}")
    kind, body = next(iter(obj.items()))
    if kind == "terms":
        return TermsAgg(field=_field(body), top_n=int(body.get("top_n", 10)))
    if kind == "date_histogram":
        return DateHistogramAgg(interval_seconds=int(body["interval_seconds"]))
    if kind == "stats":
        return StatsAgg(field=_field(body))
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


# The document in a search entry (see `Shard.entries`).
_DOCUMENT = itemgetter(3)


class Shard:
    """One shard's documents, held as columns, and the indexes its queries built.

    A write (`extend`) appends a group of documents that share their field
    names, each at the next ordinal: `ids[o]` is the document's id,
    `shapes[o]` its field names in their order (one tuple shared by the
    ordinals written or loaded together), and `columns[field][o]` each
    field's value, None where the shape lacks the field. `by_id` maps the
    id of each live document to its ordinal. Replacing a document sets its
    old ordinal to None in every column, so a column read whole holds live
    values only. A loaded shard (`attach`) keeps each field in `pending`,
    as compressed segment streams, until `column` first reads it; every
    read of a field goes through `column`, and a write, a save or a
    search that builds documents decodes them all first (`fill`).
    `memos` holds, per field that a batch write has seen, the dict through
    which `index_documents` passes the field's repeated strings so that
    the column keeps one object per distinct value, or None for a field
    whose values are not such strings; a save writes the fields that have
    a memo as dictionaries (`_write_segment`), and a load gives an empty
    memo to each field that arrives as a dictionary.

    A write drops everything built from the columns. The first query that
    reads a field builds its index from the field's column: `postings` for
    a term on a string (`_terms`), `ranges` for a range or a numeric term
    (`_column`). `Term("id", …)` reads `by_id`, and `MatchAll` and `Not` the
    frozen set of live ordinals, `live`. `counts` holds, per field (or pair
    of fields, for a geo grid), how often each value occurs in the shard,
    built by the first terms or geo-grid aggregation that matches the whole
    live set (`count`); it holds one entry per distinct value, as postings
    hold one per term. `entries` holds the (@timestamp, id,
    index name, document) tuple of each ordinal that search has returned, so
    that search sorts its hits as plain tuples and builds a hit's `Document`
    once; an id is unique within an index, so two tuples never compare their
    documents.
    """

    __slots__ = ("ids", "shapes", "columns", "pending", "by_id", "memos", "live",
                 "entries", "postings", "ranges", "counts")

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.shapes: list[tuple[str, ...]] = []
        self.columns: dict[str, list] = {}
        # Per field still in a segment's streams: (index name, first ordinal,
        # end ordinal, stream, position width) per group (see `attach`).
        self.pending: dict[str, list[tuple]] = {}
        self.by_id: dict[str, int] = {}
        self.memos: dict[str, dict[str, str] | None] = {}
        self.live: frozenset[int] | None = None
        self.entries: dict[int, tuple] = {}
        self.postings: dict[str, dict[str, list[int]]] = {}
        self.ranges: dict[str, tuple[list[float], list[int], list[int]]] = {}
        self.counts: dict[tuple[str, ...], Counter] = {}

    def _invalidate(self) -> None:
        self.live = None
        self.entries.clear()
        self.postings.clear()
        self.ranges.clear()
        self.counts.clear()

    def _drop(self, ord_: int) -> None:
        for name in self.shapes[ord_]:
            self.columns[name][ord_] = None

    def extend(self, names: tuple, ids: list[str], values: list[list]) -> None:
        """Append documents that share their field names: their ids and one
        list of values per name, each in `ids` order. A document replaces
        the one stored with its id. Ids that repeat within the group, or a
        list whose length differs from the ids', are a ValueError that
        leaves the shard as it was. Every pending column is decoded first."""
        n = len(ids)
        if any(len(column) != n for column in values):
            raise ValueError("a column's length differs from its ids'")
        self.fill()
        start = len(self.ids)
        ords = dict(zip(ids, range(start, start + n)))
        if len(ords) != n:
            raise ValueError("ids repeat within a group")
        self._invalidate()
        by_id = self.by_id
        for id_ in by_id.keys() & ords.keys():
            self._drop(by_id[id_])
        self.ids.extend(ids)
        self.shapes.extend(repeat(names, n))
        by_id.update(ords)
        columns = self.columns
        for name, group in zip(names, values):
            column = columns.get(name)
            if column is None:  # a new field: None for every earlier ordinal
                column = columns[name] = [None] * start
            column.extend(group)
        for column in columns.values():
            if len(column) == start:
                column.extend(repeat(None, n))

    def attach(self, source: str, names: tuple, ids: list[str], streams: list[tuple]) -> None:
        """Append a loaded group as `extend` does, but with each name's values
        still a segment stream, given as (compressed bytes, position width or
        None) and decoded when the column is first read (`column`). `source`
        names the index in a corrupt-snapshot error. Only a load calls it,
        on a shard whose columns are all pending."""
        n = len(ids)
        start = len(self.ids)
        ords = dict(zip(ids, range(start, start + n)))
        if len(ords) != n:
            raise ValueError("ids repeat within a group")
        self.ids.extend(ids)
        self.shapes.extend(repeat(names, n))
        # A replaced document's ordinal leaves `by_id`; `column` sets it to
        # None when it decodes the column.
        self.by_id.update(ords)
        for name, (stream, width) in zip(names, streams, strict=True):
            self.pending.setdefault(name, []).append((source, start, start + n, stream, width))
            if width is not None:  # a dictionary: the next save writes one again
                self.memos[name] = {}

    def column(self, field: str) -> list | None:
        """The field's column, or None when no document has the field. A
        pending column is decoded from its streams on this first read, its
        replaced ordinals set to None, and its compressed bytes dropped; a
        damaged stream is a StoreError that leaves it pending."""
        parts = self.pending.get(field)
        if parts is None:
            return self.columns.get(field)
        column = [None] * len(self.ids)
        for source, start, end, stream, width in parts:
            try:
                values = _decode_stream(stream, width)
                if len(values) != end - start:
                    raise ValueError("a column's length differs from its ids'")
            except (zlib.error, ValueError, IndexError) as exc:
                raise StoreError(
                    f"snapshot corrupt for {source}: column {field!r}: {exc!r}") from exc
            column[start:end] = values
        if len(self.by_id) < len(column):
            for ord_ in set(range(len(column))).difference(self.by_id.values()):
                column[ord_] = None
        self.columns[field] = column
        del self.pending[field]
        return column

    def fill(self) -> None:
        """Decode every pending column (see `column`)."""
        for field in [*self.pending]:
            self.column(field)

    def _live(self) -> frozenset[int]:
        if self.live is None:
            self.live = frozenset(self.by_id.values())
        return self.live

    def evaluate(self, q: Query) -> Set[int]:
        """The ordinals of the live documents that match; the caller must
        not change the set."""
        if isinstance(q, MatchAll):
            return self._live()
        if isinstance(q, Term):
            return self._eval_term(q)
        if isinstance(q, And):
            result: set[int] | None = None
            for clause in q.clauses:
                hit = self.evaluate(clause)
                result = hit if result is None else result & hit
                if not result:
                    return set()
            return result if result is not None else self._live()
        if isinstance(q, Or):
            result = set()
            for clause in q.clauses:
                result |= self.evaluate(clause)
            return result
        if isinstance(q, Not):
            return self._live() - self.evaluate(q.clause)
        if isinstance(q, Range):
            return self._eval_range(q)
        raise StoreError(f"unknown query node: {q!r}")

    def hit_entries(self, hits: Set[int], index_name: str) -> dict[int, tuple]:
        """`entries`, holding the tuple of every hit, which is built the first
        time the hit is asked for."""
        entries = self.entries
        if len(entries) < len(self.by_id):  # else every live document is built
            self.fill()
            ids, columns = self.ids, self.columns
            for ord_ in hits - entries.keys():
                fields = {name: columns[name][ord_] for name in self.shapes[ord_]}
                entries[ord_] = (fields.get("@timestamp"), ids[ord_], index_name,
                                 Document(ids[ord_], fields, index_name))
        return entries

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
            try:
                target = float(value)
            except OverflowError:  # an int beyond every float equals no value
                return set()
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
        """The field's postings, built from its column on first use: a
        keyword field's string values verbatim, any other field's tokenized."""
        terms = self.postings.get(field)
        if terms is not None:
            return terms
        terms = self.postings[field] = {}
        keyword = field in KEYWORD_FIELDS
        for ord_, value in enumerate(self.column(field) or ()):
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
        from its column on first use."""
        column = self.ranges.get(field)
        if column is not None:
            return column
        pairs: list[tuple[float, int]] = []
        nan: list[int] = []
        for ord_, value in enumerate(self.column(field) or ()):
            if type(value) is int or type(value) is float:
                if value == value:
                    pairs.append((float(value), ord_))
                else:
                    nan.append(ord_)
        pairs.sort()
        column = self.ranges[field] = ([v for v, _ in pairs], [o for _, o in pairs], nan)
        return column

    def count(self, hits: Set[int], *fields: str) -> Counter:
        """How often each value of the field occurs among the hits, or each
        tuple of the fields' values when there are several; None stands for
        a missing value. The count over the whole live set (`hits is live`)
        reads the columns whole, dead ordinals as None, and is kept in
        `counts` until the next write: the caller must not change it. Any
        other set of hits is counted per call. A list or object value, which
        does not hash, is an AggregationError that names its field."""
        whole = hits is self.live
        counts = self.counts.get(fields) if whole else None
        if counts is not None:
            return counts
        values = [
            repeat(None, len(hits)) if column is None
            else column if whole else map(column.__getitem__, hits)
            for column in map(self.column, fields)
        ]
        try:
            counts = Counter(values[0] if len(values) == 1 else zip(*values))
        except TypeError:
            if len(fields) > 1:  # the count of the field that holds it raises
                for field in fields:
                    self.count(hits, field)
            raise AggregationError(
                f"cannot count field {fields[0]!r}: it holds a list or object value") from None
        if whole:
            self.counts[fields] = counts
        return counts


class TimeIndex:
    def __init__(self, name: str) -> None:
        self.name = name
        # One shard, in a list because the benchmark's tracer iterates `shards`.
        self.shards = [Shard()]
        self.dirty = False

    @property
    def doc_count(self) -> int:
        return len(self.shards[0].by_id)


class Store:
    """A collection of day-partitioned indices, optionally disk-backed.

    With a `root`, an index missing from `indices` is loaded from that
    snapshot on its first write, unless this process deleted it (`deleted`).
    """

    def __init__(self, root: str | None = None) -> None:
        self.root = root
        self.indices: dict[str, TimeIndex] = {}
        self.deleted: set[str] = set()


@lru_cache(maxsize=None)
def _day_bounds(index_name: str) -> tuple[int, int] | None:
    """The [start, end) milliseconds of the UTC day a `-YYYY.MM.DD` name
    carries, or None for a name without a valid date suffix."""
    m = _DATED_INDEX_RE.search(index_name)
    if m is None:
        return None
    try:
        day = datetime(int(m[1]), int(m[2]), int(m[3]), tzinfo=timezone.utc)
    except ValueError:  # not a calendar day, such as 2024.02.30
        return None
    start = int(day.timestamp()) * 1000
    return (start, start + 86_400_000)


def _day_in_range(
    index_name: str, time_range: tuple[int | None, int | None] | None
) -> bool | None:
    """Where the name's UTC day lies against the half-open range: None when
    outside it, so the index is skipped unread; True when the whole day is
    inside it (or there is no range), so every document of the index is in
    it; False otherwise, including for a name without a date.

    A None bound is open, and a NaN bound compares False: it prunes no day
    and covers none, as in `Range`.
    """
    if time_range is None:
        return True
    bounds = _day_bounds(index_name)
    if bounds is None:
        return False
    (lo, hi), (start, end) = time_range, bounds
    if (lo is not None and lo >= end) or (hi is not None and hi <= start):
        return None
    return (lo is None or lo <= start) and (hi is None or hi >= end)


# (index name, field names) -> (ids, one list of values per name)
Groups = dict[tuple[str, tuple], tuple[list[str], list[list]]]


def group_rows(rows: Iterable[tuple[str, str, tuple, Iterable]]) -> list[Groups]:
    """Group (id, index name, field names, values) rows by index and field
    names, in order of first occurrence. A row whose id an earlier row of
    its groups holds starts the next groups, so that, written after them,
    it replaces the earlier one, as a stored id is replaced."""
    writes, groups, seen = [], {}, set()
    for id_, name, names, values in rows:
        if id_ in seen:
            writes.append(groups)
            groups, seen = {}, set()
        seen.add(id_)
        group = groups.get((name, names))
        if group is None:
            group = groups[name, names] = ([], [[] for _ in names])
        group[0].append(id_)
        any(map(list.append, group[1], values))
    writes.append(groups)
    return writes


def index_documents(store: Store, docs: Iterable[Document]) -> int:
    """Write a batch of documents to their indices, grouped by `group_rows`
    and written with `write_groups`; returns how many it took."""
    return sum(write_groups(store, groups) for groups in group_rows(
        (doc.id, doc.index_name, tuple(doc.fields), doc.fields.values()) for doc in docs))


def index_document(store: Store, doc: Document) -> None:
    """Write one document (see `index_documents`)."""
    index_documents(store, (doc,))


_STRINGS = frozenset({str})


def write_groups(store: Store, groups: Groups) -> int:
    """Append each group to its index with one `Shard.extend`; returns how
    many documents it wrote. A group's ids must not repeat. A group whose
    `@timestamp` values are not all ints inside its index's day is a
    StoreError before any group is written.

    A group's string column goes through its shard's memo for the field
    (`Shard.memos`), which the field's first group decides on: a memo when
    its values are all strings and at most half of them distinct, else
    None. A later group is shared only if its values are all strings too,
    so no value ever changes its type.
    """
    for (name, names), (ids, values) in groups.items():
        stamps = values[names.index("@timestamp")] if "@timestamp" in names else [None]
        if set(map(type, stamps)) != {int}:
            bad = next(i for i, stamp in zip(ids, stamps) if type(stamp) is not int)
            raise StoreError(f"document {bad} has no @timestamp")
        bounds = _day_bounds(name)
        if bounds is not None and not bounds[0] <= min(stamps) <= max(stamps) < bounds[1]:
            raise StoreError(f"document timestamp outside index day: {name}")
    for (name, names), (ids, values) in groups.items():
        index = store.indices.get(name)
        if index is None:
            if store.root is not None and name not in store.deleted:
                index = load_store(store.root, name).indices.get(name)
            if index is None:
                index = TimeIndex(name)
            store.indices[name] = index
        shard = index.shards[0]
        memos = shard.memos
        for field, column in zip(names, values):
            if field not in memos:
                strings = set(map(type, column)) == _STRINGS
                memos[field] = {} if strings and 2 * len(set(column)) <= len(column) else None
            memo = memos[field]
            if memo is not None and set(map(type, column)) == _STRINGS:
                column[:] = map(memo.setdefault, column, column)
        shard.extend(names, ids, values)
        index.dirty = True
    return sum(len(ids) for ids, _ in groups.values())


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
) -> Iterator[tuple[str, Shard, Set[int]]]:
    """The name and shard of each matching index with the ordinals it matches.

    Indices whose day lies outside `time_range` are skipped unread, and an
    index whose whole day lies inside it is queried without the time range:
    it matches every document there (see `_day_in_range`).
    """
    ranged = q
    if time_range is not None:
        lo, hi = time_range
        ranged = And((q, Range("@timestamp", min=lo, max=hi, include_max=False)))
    for name in match_index_pattern(indices, list(store.indices)):
        inside = _day_in_range(name, time_range)
        if inside is None:
            continue
        clause = q if inside else ranged
        for shard in store.indices[name].shards:
            yield name, shard, shard.evaluate(clause)


def field_values(
    store: Store,
    indices: str,
    q: Query,
    time_range: tuple[int | None, int | None] | None,
    *fields: str,
) -> list[list]:
    """Per field, its value in each matching document, None where the
    document lacks it, read from the columns. The lists run over the
    documents in one order, which is not search's. When every document of
    a shard matches and none was replaced, its columns are read whole."""
    values: list[list] = [[] for _ in fields]
    for _, shard, hits in _matches(store, indices, q, time_range):
        whole = hits is shard.live and len(hits) == len(shard.ids)
        for out, field in zip(values, fields):
            column = shard.column(field)
            if column is None:
                out.extend(repeat(None, len(hits)))
            elif whole:
                out.extend(column)
            else:
                out.extend(map(column.__getitem__, hits))
    return values


def _counts(
    store: Store,
    indices: str,
    q: Query,
    time_range: tuple[int | None, int | None] | None,
    *fields: str,
) -> Counter:
    """`Shard.count` of the fields, summed over the matching shards into a
    new Counter, so no call changes a shard's kept counts."""
    counts: Counter = Counter()
    for _, shard, hits in _matches(store, indices, q, time_range):
        counts.update(shard.count(hits, *fields))
    return counts


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
    for name, shard, hits in _matches(store, indices, q, time_range):
        entries.extend(map(shard.hit_entries(hits, name).__getitem__, hits))
    entries.sort()
    return list(map(_DOCUMENT, entries))


def aggregate(
    store: Store,
    indices: str,
    q: Query,
    agg: Aggregation,
    time_range: tuple[int | None, int | None] | None = None,
):
    """Exact aggregation over the query's result set. The work per document
    runs in C: a date histogram sorts the timestamps and bisects for the end
    of each non-empty bucket, a geo grid bins each distinct (lat, lon) pair
    once, and stats checks the value types once. A time range that covers
    an index's whole day is not applied to it (see `_matches`).

    Terms and geo grid sum per-shard counts (`Shard.count`). A shard whose
    every live document matches, as under `MatchAll` or a range covering
    its day, is counted on first use and its counts are kept until its next
    write; any other shard's hits are counted per call. A geo grid's
    coordinates must be finite ints or floats, and each distinct pair is
    checked once as it is binned; anything else is an AggregationError."""
    if isinstance(agg, TermsAgg):
        if agg.top_n < 1:
            raise AggregationError("top_n must be >= 1")
        counts = _counts(store, indices, q, time_range, agg.field)
        counts.pop(None, None)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return ranked[: agg.top_n]
    if isinstance(agg, DateHistogramAgg):
        if agg.interval_seconds < 1:
            raise AggregationError("interval_seconds must be >= 1")
        (stamps,) = field_values(store, indices, q, time_range, "@timestamp")
        stamps.sort()
        span = agg.interval_seconds * 1000
        buckets, start = [], 0
        while start < len(stamps):
            key = stamps[start] - stamps[start] % span
            end = bisect_left(stamps, key + span, start)
            buckets.append((key, end - start))
            start = end
        return buckets
    if isinstance(agg, StatsAgg):
        (column,) = field_values(store, indices, q, time_range, agg.field)
        present = list(filter(partial(is_not, None), column))
        if not {int, float}.issuperset(map(type, present)):  # a bool is neither
            raise AggregationError(f"stats on non-numeric field {agg.field!r}")
        if not present:
            return {"count": 0, "min": None, "max": None, "mean": None, "sum": 0.0}
        values = list(map(float, present))
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
        if not math.isfinite(cell):
            raise AggregationError("cell_degrees must be finite")
        cells: dict[tuple[int, int], int] = {}
        for (lat, lon), n in _counts(store, indices, q, time_range, "geo_lat", "geo_lon").items():
            if lat is None or lon is None:
                continue
            for field, value in (("geo_lat", lat), ("geo_lon", lon)):
                # A bool is neither an int nor a float here; NaN fails both bounds.
                if type(value) not in (int, float) or not -math.inf < value < math.inf:
                    raise AggregationError(
                        f"geo_grid on non-numeric or non-finite field {field!r}")
            try:
                key = (math.floor(lat / cell), math.floor(lon / cell))
            except OverflowError:  # a finite value over a cell too small for it
                raise AggregationError(f"geo_grid cells of {cell} degrees overflow") from None
            cells[key] = cells.get(key, 0) + n
        # Count descending, then cell ascending: a stable sort by count of
        # the cells in order ranks them in C.
        ranked2 = sorted(cells.items())
        ranked2.sort(key=itemgetter(1), reverse=True)
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

# The manifest's `format`. Formats 2 and 3 (one zlib stream of JSON lines per
# segment) and the docs.jsonl layout before them (no `format`) are not read.
SNAPSHOT_FORMAT = 4
_MANIFEST = "manifest.json"
_MANIFEST_TMP = "manifest.json.tmp"
# A save groups the documents of one block of this many at a time.
_BLOCK_DOCS = 4096
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
# The array type code of each width, in bytes, that a dictionary stream's
# positions may have; they are stored little-endian.
_WIDTH_CODES = {1: "B", 2: "H", 4: "I"}
_BIG_ENDIAN = sys.byteorder == "big"


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
    """Write the shard's live documents as a segment, fsynced: per group,
    one zlib stream (level 1) of its ids and one per field, then a header
    that gives each stream's place.

    A group is the documents of one shape within a block of up to
    `_BLOCK_DOCS` documents in ordinal order. Its ids stream is the JSON
    array of its ids. Each key of the shape, in sorted order, has a stream
    of that field's values in `ids` order: when the field has a memo
    (`Shard.memos`) and its values in the group are all strings, at most
    half of them distinct, a dictionary (the JSON array of the distinct
    values, a newline, and each document's position among them as an
    unsigned int of 1, 2 or 4 bytes, the fewest that hold every position);
    else the JSON array of the values. The header, a JSON array with one
    `{"keys", "ids", "columns"}` per group, gives each stream as
    `[offset, length]` and a dictionary's as `[offset, length, width]`, and
    the file's last 8 bytes give the header's offset, little-endian.
    """
    shard.fill()
    ords = sorted(shard.by_id.values())
    shapes, columns, memos = shard.shapes, shard.columns, shard.memos
    header: list[dict] = []
    with open(path, "wb") as handle:

        def put(data: bytes, *width: int) -> list[int]:
            offset = handle.tell()
            return [offset, handle.write(zlib.compress(data, 1)), *width]

        for start in range(0, len(ords), _BLOCK_DOCS):
            groups: dict[tuple, list[int]] = {}
            for ord_ in ords[start:start + _BLOCK_DOCS]:
                groups.setdefault(shapes[ord_], []).append(ord_)
            for names, group in groups.items():
                keys = sorted(names)
                ids = _encode([*map(shard.ids.__getitem__, group)]).encode()
                spans: list[list[int]] = []
                header.append({"keys": keys, "ids": put(ids), "columns": spans})
                for key in keys:
                    values = [*map(columns[key].__getitem__, group)]
                    dictionary = _dictionary(values) if memos.get(key) is not None else None
                    spans.append(put(*dictionary) if dictionary else put(_encode(values).encode()))
        handle.write(_encode(header).encode() + handle.tell().to_bytes(8, "little"))
        handle.flush()
        os.fsync(handle.fileno())


def _dictionary(values: list) -> tuple[bytes, int] | None:
    """The values as a dictionary stream's bytes, with the width of its
    positions (see `_write_segment`), or None unless they are all strings,
    at most half of them distinct."""
    if set(map(type, values)) != _STRINGS:
        return None
    distinct = [*dict.fromkeys(values)]
    if 2 * len(distinct) > len(values):
        return None
    width = 1 if len(distinct) <= 1 << 8 else 2 if len(distinct) <= 1 << 16 else 4
    where = dict(zip(distinct, count()))
    positions = array(_WIDTH_CODES[width], map(where.__getitem__, values))
    if _BIG_ENDIAN:
        positions.byteswap()
    return b"%s\n%s" % (_encode(distinct).encode(), positions.tobytes()), width


def _decode_stream(stream: bytes, width: int | None) -> list:
    """A column stream's values (see `_write_segment`), a dictionary's equal
    strings as one object. A damaged stream raises zlib.error, ValueError or
    IndexError."""
    raw = zlib.decompress(stream)
    if width is None:
        values = json.loads(raw)
        if type(values) is not list:
            raise ValueError("a value stream is not a JSON array")
        return values
    text, _, packed = raw.partition(b"\n")
    distinct = json.loads(text)
    if type(distinct) is not list:
        raise ValueError("a dictionary's values are not a JSON array")
    positions = array(_WIDTH_CODES[width])
    positions.frombytes(packed)
    if _BIG_ENDIAN:
        positions.byteswap()
    return [*map(distinct.__getitem__, positions)]


def _load_segment(shard: Shard, path: str, name: str) -> None:
    """Append a segment's groups to a shard in the segment's order, reading
    the file once: each group's ids are decoded now and its columns when
    first read (`Shard.attach`). A stream that the header places outside
    the file before the header, or a width that is not 1, 2 or 4, raises
    ValueError here."""
    with open(path, "rb") as handle:
        data = handle.read()
    end = int.from_bytes(data[-8:], "little")
    if end > len(data) - 8:
        raise ValueError(f"the header offset {end} lies past the end of the segment")
    for group in json.loads(data[end:-8]):
        streams = []
        for span in (group["ids"], *group["columns"]):
            offset, length, *width = span
            if (type(offset) is not int or type(length) is not int
                    or not 0 <= offset <= offset + length <= end
                    or width not in ([], [1], [2], [4])):
                raise ValueError(f"a stream outside the segment: {span!r}")
            streams.append((data[offset:offset + length], *(width or [None])))
        (ids, _), *columns = streams
        ids = json.loads(zlib.decompress(ids))
        if type(ids) is not list or type(group["keys"]) is not list:
            raise ValueError("a group's ids or keys are not a JSON array")
        shard.attach(name, tuple(group["keys"]), ids, columns)


def _load_index(path: str, name: str) -> TimeIndex:
    index = TimeIndex(name)
    try:
        with open(os.path.join(path, _MANIFEST), encoding="utf-8") as handle:
            manifest = json.load(handle)
        if type(manifest) is not dict:
            raise ValueError("the manifest is not a JSON object")
        if manifest.get("format") != SNAPSHOT_FORMAT:
            raise StoreError(
                f"{name}: not a format-{SNAPSHOT_FORMAT} snapshot (formats 2 and 3 and the"
                " older docs.jsonl layout are not read); re-ingest its logs into a fresh store"
            )
        for segment in manifest["segments"]:
            _load_segment(index.shards[0], os.path.join(path, segment), name)
        doc_count = int(manifest["doc_count"])
    except (zlib.error, ValueError, KeyError, IndexError, TypeError) as exc:
        raise StoreError(f"snapshot corrupt for {name}: {exc!r}") from exc
    if index.doc_count != doc_count:
        raise StoreError(f"snapshot corrupt for {name}: doc_count mismatch")
    return index


def _fsync_directory(path: str) -> None:
    directory = os.open(path, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save_store(store: Store, root: str) -> None:
    """Write every changed index as <root>/<name>/manifest.json plus one
    segment.

    Indices untouched since load are skipped. The only directories removed
    are those of indices `delete_index` dropped from this store, so saving a
    store that holds only some of the snapshot's indices keeps the others.
    An index is committed by its manifest: the segment is written under a
    new name and fsynced, then the manifest is replaced through a fsynced
    temp file, and only then are the superseded files deleted. A crash at
    any point leaves either the old or the new snapshot of the index, and a
    deleted index loses its manifest before its other files.
    """
    os.makedirs(root, exist_ok=True)
    for name in store.deleted - store.indices.keys():
        path = os.path.join(root, name)
        # The manifest goes first, durably: a crash while the rest is
        # removed leaves a directory that no read takes for an index.
        if os.path.isfile(os.path.join(path, _MANIFEST)):
            os.remove(os.path.join(path, _MANIFEST))
            _fsync_directory(path)
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
        _fsync_directory(path)
        for leaf in present - {_MANIFEST, _MANIFEST_TMP, segment}:
            os.remove(os.path.join(path, leaf))
        index.dirty = False


def load_store(
    root: str,
    pattern: str | None = None,
    time_range: tuple[int | None, int | None] | None = None,
) -> Store:
    """Load a snapshot's indices that match `pattern` and may hold documents
    in the half-open `time_range` (see `_day_in_range`); either may be None.

    The store keeps `root`, so a later write to an index left on disk loads
    that index first.
    """
    store = Store(root=root)
    names = index_names(root)
    if pattern is not None:
        names = match_index_pattern(pattern, names)
    for name in names:
        if _day_in_range(name, time_range) is not None:
            store.indices[name] = _load_index(os.path.join(root, name), name)
    return store
