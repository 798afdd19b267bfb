"""File tailer: reads new complete lines and tracks offsets.

Delivery is at-least-once: the registry is checkpointed atomically after
the shipped records have been saved downstream, so a crash replays at most
the records shipped since the last checkpoint. Downstream document ids are derived from
(source, offset, line), which makes the replay idempotent.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from typing import NamedTuple

from .codecs import LogKind, classify_file
from .index import StoreError


class RegistryCorrupt(StoreError):
    pass


@dataclass(frozen=True)
class RegistryEntry:
    offset: int
    identity: tuple[int, int]
    last_read: int


@dataclass(frozen=True)
class TailRegistry:
    entries: dict[str, RegistryEntry] = field(default_factory=dict)


class RawRecord(NamedTuple):
    line: str
    source: str
    offset: int
    beat_name: str
    doc_type: str
    kind: LogKind


@dataclass(frozen=True)
class Batch:
    records: tuple[RawRecord, ...]


def resume_offset(registry: TailRegistry, path: str, st: os.stat_result) -> int:
    """The offset a poll of `path`, whose `os.stat` is `st`, reads from: its
    registry offset, or 0 when the file is new, rotated (another identity)
    or truncated (shorter than the offset)."""
    entry = registry.entries.get(path)
    if entry is None or entry.identity != (st.st_dev, st.st_ino) or st.st_size < entry.offset:
        return 0
    return entry.offset


def tail_once(
    registry: TailRegistry,
    path: str,
    max_records: int,
    beat_name: str = "beat-local",
) -> tuple[Batch, TailRegistry]:
    """Read up to `max_records` new complete lines from `path`.

    A partial trailing line stays unread. Rotation (changed file identity)
    or truncation (size below the stored offset) resets the offset to zero
    so the replacement file ships from its start.
    """
    st = os.stat(path)
    identity = (st.st_dev, st.st_ino)
    entry = registry.entries.get(path)
    offset = resume_offset(registry, path, st)

    kind = classify_file(path)
    with open(path, "rb") as handle:
        handle.seek(offset)
        raw = list(islice(handle, max(max_records, 0)))
    if raw and not raw[-1].endswith(b"\n"):
        raw.pop()  # a partial last line stays unread
    # Each line's offset, then the end of the last line.
    starts = list(accumulate(map(len, raw), initial=offset))
    # "\n" never continues a UTF-8 sequence, so decoding the batch at once
    # replaces the same bytes as decoding each line on its own.
    lines = b"".join(raw).decode("utf-8", errors="replace").split("\n")
    lines.pop()  # the empty text after the last "\n"
    records = tuple(map(RawRecord, lines, repeat(path), starts, repeat(beat_name),
                        repeat("log"), repeat(kind)))

    new_entry = RegistryEntry(
        offset=starts[-1],
        identity=identity,
        last_read=int(time.time() * 1000),
    )
    entries = dict(registry.entries)
    if records or entry is None or entry.identity != identity or entry.offset != new_entry.offset:
        entries[path] = new_entry
        new_registry = TailRegistry(entries)
    else:
        new_registry = registry
    return Batch(records=records), new_registry


def checkpoint(registry: TailRegistry, store: str) -> None:
    """Persist the registry atomically (write-temp, fsync, rename).

    The temp file is named for this process, so two processes that
    checkpoint one registry never rename each other's half-written file.
    """
    payload = {
        path: {
            "offset": e.offset,
            "device": e.identity[0],
            "inode": e.identity[1],
            "last_read": e.last_read,
        }
        for path, e in sorted(registry.entries.items())
    }
    tmp = f"{store}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=0, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, store)


def load_registry(store: str) -> TailRegistry:
    """Load a checkpointed registry; a missing file is an empty registry."""
    if not os.path.exists(store):
        return TailRegistry()
    try:
        with open(store, encoding="utf-8") as handle:
            payload = json.load(handle)
        entries = {
            path: RegistryEntry(
                offset=int(item["offset"]),
                identity=(int(item["device"]), int(item["inode"])),
                last_read=int(item["last_read"]),
            )
            for path, item in payload.items()
        }
    except (AttributeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise RegistryCorrupt(f"cannot load registry {store!r}: {exc}") from exc
    return TailRegistry(entries)


class Shipper:
    """Stateful wrapper owning one registry."""

    def __init__(
        self,
        registry_path: str,
        beat_name: str = "beat-local",
        batch_size: int = 2000,
    ) -> None:
        self.registry_path = registry_path
        self.beat_name = beat_name
        self.batch_size = batch_size
        self.registry = load_registry(registry_path)

    def poll(self, path: str) -> Batch:
        batch, self.registry = tail_once(
            self.registry, path, self.batch_size, beat_name=self.beat_name
        )
        return batch

    def checkpoint(self) -> None:
        checkpoint(self.registry, self.registry_path)
