"""Named, composable text-extraction patterns with typed captures.

A pattern expression is a regular expression in which `%{NAME}`,
`%{NAME:field}` or `%{NAME:field:type}` references expand to the named
body of a library (a `dict` of name -> body). Compilation expands references
transitively and records the captures in left-to-right order; matching
converts every captured string to its declared semantic type, and a single
failed conversion fails the whole match (no partial results).
"""

from __future__ import annotations

import ipaddress
import math
import re
import sys
from dataclasses import dataclass, field

from .timeutil import parse_iso8601_ms

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

LOG_LEVELS = ("FATAL", "ERROR", "WARN", "WARNING", "INFO", "DEBUG")

CAPTURE_TYPES = ("int", "float", "text", "ip", "timestamp", "level")

# Order matters inside alternations: longer literals first (WARNING before WARN).
BUILTIN_PATTERNS = {
    "INT": r"[+-]?\d+",
    "NUMBER": r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?",
    "WORD": r"\b\w+\b",
    "NOTSPACE": r"\S+",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
    "IP": (
        r"(?<!\d)(?:(?:25[0-5]|2[0-4]\d|[01]?\d?\d)\.){3}"
        r"(?:25[0-5]|2[0-4]\d|[01]?\d?\d)(?!\d)"
    ),
    "ISO8601_TIMESTAMP": (
        r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}"
        r"(?:[.,]\d{1,9})?(?:Z|[+-]\d{2}:?\d{2})?"
    ),
    "TIME": r"\d{2}:\d{2}:\d{2}\.\d{3}",
    "LOGLEVEL": r"(?:FATAL|ERROR|WARNING|WARN|INFO|DEBUG)",
}

# Typed builtins: `%{INT:n}` captures an int64 without a `:int` suffix.
DEFAULT_CAPTURE_TYPES = {
    "INT": "int",
    "NUMBER": "float",
    "IP": "ip",
    "ISO8601_TIMESTAMP": "timestamp",
    "LOGLEVEL": "level",
}

_NAME_RE = re.compile(r"[A-Z][A-Z0-9_]*$")
_FIELD_RE = re.compile(r"[A-Za-z_@][A-Za-z0-9_.@]*$")
_REF_RE = re.compile(r"%\{([^}]*)\}")
_IPV4_STRICT_RE = re.compile(
    r"(?:(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\.){3}(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)$"
)


class PatternError(ValueError):
    """A pattern definition or compilation failure."""


def load_library(document: str) -> dict[str, str]:
    """Parse a pattern definition document into a library: the builtins
    plus its definitions, as name -> body.

    Format: one `NAME body` definition per line; `#` starts a comment line;
    blank lines are ignored. Definitions may not shadow builtins or repeat
    a name.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, body = line.partition(" ")
        body = body.strip()
        if not sep or not body:
            raise PatternError(f"line {lineno}: malformed definition: {raw!r}")
        if not _NAME_RE.match(name):
            raise PatternError(f"line {lineno}: invalid pattern name: {name!r}")
        if name in BUILTIN_PATTERNS:
            raise PatternError(f"line {lineno}: builtin shadowed: {name}")
        if name in entries:
            raise PatternError(f"line {lineno}: duplicate name: {name}")
        entries[name] = body
    return {**BUILTIN_PATTERNS, **entries}


@dataclass(frozen=True)
class CompiledPattern:
    """A fully expanded pattern: its regex plus ordered typed captures."""

    regex: re.Pattern
    captures: tuple[tuple[str, str], ...]
    # Regex group number per capture (bodies may contain bare groups, so
    # positions are resolved through groupindex, not assumed sequential).
    group_numbers: tuple[int, ...] = field(repr=False, compare=False, default=())


def _parse_reference(token: str) -> tuple[str, str | None, str]:
    parts = token.split(":")
    if len(parts) == 1:
        name, fieldname, ftype = parts[0], None, "text"
    elif len(parts) == 2:
        # Untyped captures inherit the referenced builtin's semantic type.
        name, fieldname = parts
        ftype = DEFAULT_CAPTURE_TYPES.get(name, "text")
    elif len(parts) == 3:
        name, fieldname, ftype = parts[0], parts[1], parts[2]
    else:
        raise PatternError(f"malformed reference: %{{{token}}}")
    if not _NAME_RE.match(name):
        raise PatternError(f"invalid pattern name in reference: %{{{token}}}")
    if fieldname is not None and not _FIELD_RE.match(fieldname):
        raise PatternError(f"invalid capture field in reference: %{{{token}}}")
    if ftype not in CAPTURE_TYPES:
        raise PatternError(f"unknown capture type in reference: %{{{token}}}")
    return name, fieldname, ftype


def compile(library: dict[str, str], expr: str) -> CompiledPattern:
    """Expand all `%{...}` references in `expr` and compile the result.

    Expansion is iterative (an explicit frame stack), so deep but acyclic
    reference chains compile without recursion limits. Raises on unknown
    names, reference cycles and duplicate capture fields.
    """
    out: list[str] = []
    captures: list[tuple[str, str]] = []
    seen_fields: set[str] = set()
    # Frame: [body, position, pattern name or None, text appended on exit].
    frames: list[list] = [[expr, 0, None, ""]]
    active: set[str] = set()
    max_depth = 1

    while frames:
        max_depth = max(max_depth, len(frames))
        frame = frames[-1]
        body, pos = frame[0], frame[1]
        m = _REF_RE.search(body, pos)
        if m is None:
            out.append(body[pos:])
            out.append(frame[3])
            if frame[2] is not None:
                active.discard(frame[2])
            frames.pop()
            continue
        out.append(body[pos : m.start()])
        frame[1] = m.end()
        name, fieldname, ftype = _parse_reference(m.group(1))
        sub = library.get(name)
        if sub is None:
            raise PatternError(f"unknown sub-pattern: {name}")
        if name in active:
            raise PatternError(f"cyclic reference through: {name}")
        if fieldname is None:
            out.append("(?:")
        else:
            if fieldname in seen_fields:
                raise PatternError(f"duplicate capture field: {fieldname}")
            seen_fields.add(fieldname)
            captures.append((fieldname, ftype))
            out.append(f"(?P<c{len(captures) - 1}>")
        active.add(name)
        frames.append([sub, 0, name, ")"])

    source = "".join(out)
    # sre's parser recurses per nested group; deep reference chains expand to
    # deep group nesting, so give it headroom proportional to the expansion.
    old_limit = sys.getrecursionlimit()
    needed = max_depth * 10 + 1000
    try:
        if needed > old_limit:
            sys.setrecursionlimit(needed)
        regex = re.compile(source)
    except re.error as exc:
        raise PatternError(f"invalid expanded expression: {exc}") from exc
    finally:
        sys.setrecursionlimit(old_limit)
    numbers = tuple(regex.groupindex[f"c{i}"] for i in range(len(captures)))
    return CompiledPattern(regex=regex, captures=tuple(captures), group_numbers=numbers)


def _convert(raw: str, ftype: str):
    if ftype == "text":
        return raw
    if ftype == "int":
        value = int(raw)
        if not INT64_MIN <= value <= INT64_MAX:
            return None
        return value
    if ftype == "float":
        value = float(raw)
        if not math.isfinite(value):
            return None
        return value
    if ftype == "ip":
        if _IPV4_STRICT_RE.match(raw):
            return raw  # already canonical dotted quad
        return str(ipaddress.ip_address(raw))
    if ftype == "timestamp":
        return parse_iso8601_ms(raw)
    if ftype == "level":
        upper = raw.upper()
        if upper not in LOG_LEVELS:
            return None
        return upper
    raise PatternError(f"unknown capture type: {ftype}")


MatchResult = dict[str, object]


def match_line(pattern: CompiledPattern, line: str) -> MatchResult | None:
    """Match `line` against a compiled pattern.

    Returns the typed field map, or None when the pattern does not match,
    any declared capture is missing, or any typed conversion fails.
    Non-matching is a value, never an error. Patterns match anywhere in
    the line unless the expression was anchored explicitly.
    """
    m = pattern.regex.search(line)
    if m is None:
        return None
    if not pattern.captures:
        return {}
    raws = m.group(*pattern.group_numbers)
    if len(pattern.captures) == 1:
        raws = (raws,)
    fields: MatchResult = {}
    for (fieldname, ftype), raw in zip(pattern.captures, raws):
        if raw is None:
            return None
        if ftype == "text":
            fields[fieldname] = raw
            continue
        try:
            value = _convert(raw, ftype)
        except (ValueError, OverflowError):
            return None
        if value is None:
            return None
        fields[fieldname] = value
    return fields
