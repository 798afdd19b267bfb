"""UTC time helpers shared across the package.

All timestamps are integer epoch milliseconds, all calendar arithmetic is UTC.
"""

from __future__ import annotations

import functools
import re
from datetime import datetime, timezone

MS_PER_SECOND = 1000
MS_PER_MINUTE = 60_000
MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000

_ISO_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})[T ]"
    r"(\d{2}):(\d{2}):(\d{2})(?:[.,](\d{1,9}))?"
    r"(Z|[+-]\d{2}:?\d{2})?$"
)
_TOD_RE = re.compile(r"(\d{2}):(\d{2}):(\d{2})\.(\d{3})$")

# Log streams repeat the same second thousands of times; cache the calendar
# part (up to seconds, UTC) to skip datetime construction on the hot path.
@functools.lru_cache(maxsize=1_000_000)
def _seconds_utc(prefix: str) -> int:
    dt = datetime(
        int(prefix[0:4]),
        int(prefix[5:7]),
        int(prefix[8:10]),
        int(prefix[11:13]),
        int(prefix[14:16]),
        int(prefix[17:19]),
        tzinfo=timezone.utc,
    )
    return int(dt.timestamp())


def parse_iso8601_ms(text: str) -> int:
    """Parse an ISO-8601 timestamp into epoch milliseconds.

    A missing timezone designator means UTC. Sub-second digits beyond
    milliseconds are truncated.
    """
    # Fast path for the canonical render format YYYY-MM-DDTHH:MM:SS.mmmZ.
    if len(text) == 24 and text.endswith("Z") and text[19] == ".":
        try:
            return _seconds_utc(text[:19]) * MS_PER_SECOND + int(text[20:23])
        except ValueError:
            pass
    m = _ISO_RE.match(text)
    if m is None:
        raise ValueError(f"not an ISO-8601 timestamp: {text!r}")
    frac = m.group(7)
    ms = int(frac.ljust(3, "0")[:3]) if frac else 0
    epoch_ms = _seconds_utc(text[:19]) * MS_PER_SECOND + ms
    tz = m.group(8)
    if tz and tz != "Z":
        sign = 1 if tz[0] == "+" else -1
        off_h = int(tz[1:3])
        off_m = int(tz[-2:])
        epoch_ms -= sign * (off_h * MS_PER_HOUR + off_m * MS_PER_MINUTE)
    return epoch_ms


def format_iso8601_ms(epoch_ms: int) -> str:
    """Render epoch milliseconds as `YYYY-MM-DDTHH:MM:SS.mmmZ`."""
    dt = datetime.fromtimestamp(epoch_ms // MS_PER_SECOND, tz=timezone.utc)
    return f"{dt.strftime('%Y-%m-%dT%H:%M:%S')}.{epoch_ms % MS_PER_SECOND:03d}Z"


def parse_time_of_day_ms(text: str) -> int:
    """Parse `HH:MM:SS.mmm` into milliseconds since midnight."""
    m = _TOD_RE.match(text)
    if m is None:
        raise ValueError(f"not a HH:MM:SS.mmm time of day: {text!r}")
    hour, minute, second, ms = (int(g) for g in m.groups())
    if hour > 23 or minute > 59 or second > 59:
        raise ValueError(f"time of day out of range: {text!r}")
    return ((hour * 60 + minute) * 60 + second) * MS_PER_SECOND + ms


def format_time_of_day_ms(epoch_ms: int) -> str:
    """Render the UTC time-of-day part of an epoch as `HH:MM:SS.mmm`."""
    day_ms = epoch_ms % MS_PER_DAY
    hour, rest = divmod(day_ms, MS_PER_HOUR)
    minute, rest = divmod(rest, MS_PER_MINUTE)
    second, ms = divmod(rest, MS_PER_SECOND)
    return f"{hour:02d}:{minute:02d}:{second:02d}.{ms:03d}"


def day_start_ms(epoch_ms: int) -> int:
    return epoch_ms - epoch_ms % MS_PER_DAY


def day_name(epoch_ms: int) -> str:
    """UTC day of an epoch, formatted `YYYY.MM.DD` (index name convention)."""
    return _day_name(epoch_ms - epoch_ms % MS_PER_DAY)


@functools.lru_cache(maxsize=None)
def _day_name(day_ms: int) -> str:
    return datetime.fromtimestamp(day_ms // MS_PER_SECOND, tz=timezone.utc).strftime("%Y.%m.%d")


def parse_date_ms(text: str) -> int:
    """Parse `YYYY-MM-DD` into the epoch milliseconds of UTC midnight."""
    dt = datetime.strptime(text, "%Y-%m-%d").replace(tzinfo=timezone.utc)
    return int(dt.timestamp()) * MS_PER_SECOND


class DayContext:
    """Rolling date resolver for log lines that carry only a time of day.

    Tracks the current UTC day per stream; when the time of day jumps
    backwards by more than 12 hours the date advances one day (midnight
    rollover). Monotonic streams therefore resolve deterministically from
    the configured base date.
    """

    __slots__ = ("day_ms", "last_ms")

    def __init__(self, base_day_ms: int) -> None:
        self.day_ms = day_start_ms(base_day_ms)
        self.last_ms: int | None = None

    def resolve(self, time_of_day_ms: int) -> int:
        candidate = self.day_ms + time_of_day_ms
        if self.last_ms is not None and candidate < self.last_ms - 12 * MS_PER_HOUR:
            self.day_ms += MS_PER_DAY
            candidate += MS_PER_DAY
        self.last_ms = candidate
        return candidate
