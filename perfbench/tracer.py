"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the stormwatch modules by replacing
module (or class) attributes, so every call made through the attribute
records a span: (name, start, end, parent span index, request id). Spans
are kept in a list in memory and written once, with `marshal`, when the
traced process ends. Counts that belong to a layer (lines tailed, grok
misses, documents loaded, ...) are recorded by the same wrappers.

Self time is derived afterwards: a span's duration minus the durations of
its direct children. Because every span of a process nests inside the root
span, the self times of all spans add up to the root's duration.
"""

from __future__ import annotations

import marshal
import os
import time
from collections import defaultdict

# Index of the "no parent" slot; real spans have indices >= 0.
NO_PARENT = -1


class Tracer:
    def __init__(self, request_id: int = 0) -> None:
        self.request_id = request_id
        self.spans: list = []
        self.stack: list[int] = [NO_PARENT]
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span called `name`."""
        spans = self.spans
        index = len(spans)
        spans.append(None)  # reserve the slot so children can point at it
        parent = self.stack[-1]
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            spans[index] = (name, start, end, parent, self.request_id)

    def wrap(
        self, owner, attr: str, name: str, before=None, after=None, namer=None,
        observe_span: bool = False,
    ):
        """Replace `owner.attr` with a spanning wrapper; returns an undo callable.

        `before(args)` runs outside the span and returns a state passed to
        `after(args, result, state)`, which also runs outside the span.
        `namer(args)` picks the span name per call. With `observe_span`, the
        observers run inside a `trace.observe` span so that their cost (a
        walk over the store, say) stays out of the enclosing layer's self
        time; cheap counters run without one.
        """
        original = getattr(owner, attr)
        tracer = self

        def observe(fn, *args):
            if observe_span:
                return tracer.span("trace.observe", fn, *args)
            return fn(*args)

        def traced(*args, **kwargs):
            state = observe(before, args) if before else None
            label = namer(args) if namer else name
            result = tracer.span(label, original, *args, **kwargs)
            if after is not None:
                observe(after, args, result, state)
            return result

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, original)

    def dump(self, path: str, extra: dict | None = None) -> None:
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "gauges": dict(self.gauges),
            "extra": extra or {},
        }
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            marshal.dump(payload, handle)
        os.replace(tmp, path)


def load(path: str) -> dict:
    with open(path, "rb") as handle:
        return marshal.load(handle)


def self_times(spans) -> tuple[dict[str, float], dict[str, float], dict[tuple[str, str], float]]:
    """Busy (inclusive) and self (exclusive) seconds per span name.

    Also returns busy seconds per (name, parent name), which separates, for
    example, `Shard.upsert` under `load_store` from the same call under
    `index_document`.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _req in spans:
        if parent != NO_PARENT:
            child[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    by_parent: dict[tuple[str, str], float] = defaultdict(float)
    for i, (name, start, end, parent, _req) in enumerate(spans):
        duration = end - start
        busy[name] += duration
        own[name] += duration - child[i]
        parent_name = spans[parent][0] if parent != NO_PARENT else ""
        by_parent[(name, parent_name)] += duration
    return dict(busy), dict(own), dict(by_parent)


# ---------------------------------------------------------------------------
# The stormwatch layers a traced run wraps


def _tail_after(tracer: Tracer):
    def after(args, result, _state):
        registry, path = args[0], args[1]
        batch, new_registry = result
        old = registry.entries.get(path)
        new = new_registry.entries.get(path)
        start = old.offset if old is not None and old.identity == new.identity else 0
        tracer.counts["shipper.tail_once.lines"] += len(batch.records)
        tracer.counts["shipper.tail_once.bytes"] += new.offset - start
    return after


def _count(tracer: Tracer, key: str):
    def after(_args, _result, _state):
        tracer.counts[key] += 1
    return after


def _match_after(tracer: Tracer):
    counts = tracer.counts

    def after(_args, result, _state):
        counts["patterns.match_line.calls"] += 1
        if result is None:
            counts["patterns.match_line.misses"] += 1
    return after


def _process_after(tracer: Tracer, pipeline_mod):
    counts = tracer.counts
    document, dead = pipeline_mod.Document, pipeline_mod.DeadLetter

    def after(_args, result, _state):
        counts["pipeline.process.records"] += 1
        if result is None:
            counts["pipeline.process.dropped"] += 1
        elif type(result) is document:
            counts["pipeline.process.documents"] += 1
        elif type(result) is dead:
            counts["pipeline.process.dead_letters"] += 1
    return after


def _store_terms(store) -> tuple[int, int]:
    """Postings entries and term-dictionary entries, summed over shards.

    Reads the in-memory layout of `index.Shard`; a store that no longer
    keeps `postings` per shard reports zeros rather than failing the run.
    """
    entries = terms = 0
    for index in store.indices.values():
        for shard in index.shards:
            for field_terms in getattr(shard, "postings", {}).values():
                terms += len(field_terms)
                for ords in field_terms.values():
                    entries += len(ords)
    return entries, terms


def _save_before(tracer: Tracer):
    def before(args):
        store, root = args[0], args[1]
        entries, terms = _store_terms(store)
        tracer.gauges["index.postings_entries"] = entries
        tracer.gauges["index.distinct_terms"] = terms
        return [
            name
            for name, index in store.indices.items()
            if getattr(index, "dirty", True) or not os.path.isdir(os.path.join(root, name))
        ]
    return before


def _save_after(tracer: Tracer):
    def after(args, _result, written):
        root = args[1]
        size = 0
        for name in written:
            for directory, _dirs, files in os.walk(os.path.join(root, name)):
                size += sum(os.path.getsize(os.path.join(directory, f)) for f in files)
        tracer.counts["index.save_store.bytes_written"] += size
        tracer.counts["index.save_store.indices_written"] += len(written)
    return after


def _load_after(tracer: Tracer):
    def after(_args, store, _state):
        tracer.counts["index.load_store.docs_loaded"] += sum(
            index.doc_count for index in store.indices.values()
        )
    return after


def _examined(index_mod, store, pattern) -> int:
    names = index_mod.match_index_pattern(pattern, list(store.indices))
    return sum(store.indices[name].doc_count for name in names)


def _search_before(tracer: Tracer, index_mod):
    def before(args):
        examined = _examined(index_mod, args[0], args[1])
        tracer.counts["index.docs_examined"] += examined
        return examined
    return before


def _search_after(tracer: Tracer):
    def after(_args, result, examined):
        tracer.counts["index.search.examined"] += examined
        tracer.counts["index.search.returned"] += len(result)
    return after


def _detect_after(tracer: Tracer):
    def after(args, _result, _state):
        tracer.counts["anomaly.detect.buckets"] += len(args[0].values)
    return after


def install(tracer: Tracer):
    """Wrap every traced stormwatch layer; returns a callable that undoes it.

    A layer the program no longer has is skipped, so its metrics read 0.
    """
    from stormwatch import anomaly, index, metrics, patterns, pipeline, shipper

    route_names: dict = {}

    def route_name(args) -> str:
        kind = args[1].kind
        name = route_names.get(kind)
        if name is None:
            name = route_names[kind] = f"pipeline.process.{kind.value}"
        return name

    layers = [
        (shipper, "tail_once", dict(after=_tail_after(tracer))),
        (shipper, "checkpoint", dict(after=_count(tracer, "shipper.checkpoint.calls"))),
        (patterns, "match_line", dict(after=_match_after(tracer))),
        (pipeline, "process", dict(after=_process_after(tracer, pipeline), namer=route_name)),
        (index, "index_document", {}),
        (getattr(index, "Shard", None), "upsert", {}),
        (index, "save_store", dict(before=_save_before(tracer), after=_save_after(tracer),
                                   observe_span=True)),
        (index, "load_store", dict(after=_load_after(tracer), observe_span=True)),
        (index, "search", dict(before=_search_before(tracer, index),
                               after=_search_after(tracer), observe_span=True)),
        (index, "aggregate", dict(before=_search_before(tracer, index), observe_span=True)),
        (metrics, "build_series", {}),
        (anomaly, "detect", dict(after=_detect_after(tracer))),
        (anomaly, "forecast", {}),
    ]
    undo = []
    for owner, attr, options in layers:
        if owner is not None and callable(getattr(owner, attr, None)):
            prefix = owner.__name__
            if isinstance(owner, type):
                prefix = f"{owner.__module__}.{prefix}"
            prefix = prefix.removeprefix("stormwatch.")
            undo.append(tracer.wrap(owner, attr, f"{prefix}.{attr}", **options))

    def uninstall() -> None:
        for step in reversed(undo):
            step()
    return uninstall
