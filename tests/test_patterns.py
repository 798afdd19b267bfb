import random
import re

import pytest
from hypothesis import given, strategies as st

from stormwatch import patterns as P


class TestLoadLibrary:
    def test_single_definition(self):
        lib = P.load_library("STATUS INFO|WARN|ERROR")
        assert "STATUS" in lib
        assert lib["STATUS"] == "INFO|WARN|ERROR"

    def test_empty_document_has_only_builtins(self):
        lib = P.load_library("")
        assert sorted(lib) == sorted(P.BUILTIN_PATTERNS)

    def test_builtin_shadowing_rejected(self):
        with pytest.raises(P.PatternError, match="builtin shadowed"):
            P.load_library("IP foo")

    def test_duplicate_name_rejected_with_line_number(self):
        with pytest.raises(P.PatternError, match="line 3"):
            P.load_library("A x\n# comment\nA y")

    def test_malformed_line_rejected(self):
        with pytest.raises(P.PatternError, match="malformed"):
            P.load_library("LONELY")

    def test_comments_and_blanks_ignored(self):
        lib = P.load_library("# header\n\nA x\n   \n# tail\n")
        assert "A" in lib


class TestCompile:
    def test_single_builtin_capture(self):
        pat = P.compile(P.load_library(""), "%{IP:client}")
        assert pat.captures == (("client", "ip"),)

    def test_unknown_subpattern(self):
        with pytest.raises(P.PatternError, match="^unknown sub-pattern: NOPE$"):
            P.compile(P.load_library(""), "%{NOPE}")

    def test_self_reference_cycle(self):
        lib = P.load_library("A %{A}x")
        with pytest.raises(P.PatternError, match="^cyclic reference through: A$"):
            P.compile(lib, "%{A}")

    def test_mutual_cycle(self):
        lib = P.load_library("A %{B}\nB %{A}")
        with pytest.raises(P.PatternError, match="^cyclic reference through: A$"):
            P.compile(lib, "%{A}")

    def test_duplicate_capture_field(self):
        with pytest.raises(P.PatternError, match="^duplicate capture field: x$"):
            P.compile(P.load_library(""), "%{INT:x} %{INT:x}")

    def test_capture_order_left_to_right(self):
        pat = P.compile(P.load_library(""), "%{INT:a}:%{WORD:b}:%{INT:c:int}")
        assert [name for name, _ in pat.captures] == ["a", "b", "c"]

    def test_same_name_twice_without_field_is_fine(self):
        pat = P.compile(P.load_library(""), "%{INT} %{INT}")
        assert pat.captures == ()

    def test_bad_type_rejected(self):
        with pytest.raises(P.PatternError):
            P.compile(P.load_library(""), "%{INT:x:bignum}")

    def test_deterministic(self):
        lib = P.load_library("A %{INT:n}x")
        first = P.compile(lib, "%{A} %{WORD:w}")
        second = P.compile(lib, "%{A} %{WORD:w}")
        assert first.regex.pattern == second.regex.pattern
        assert first.captures == second.captures

    def test_thousand_deep_chain_terminates(self):
        doc = "P0 z\n" + "\n".join(f"P{i} %{{P{i-1}}}a" for i in range(1, 1000))
        lib = P.load_library(doc)
        pat = P.compile(lib, "%{P999:v}")
        result = P.match_line(pat, "z" + "a" * 999)
        assert result is not None and len(result["v"]) == 1000


class TestMatchLine:
    def test_int_conversion(self):
        pat = P.compile(P.load_library(""), "%{INT:ok:int}")
        assert P.match_line(pat, "10") == {"ok": 10}

    def test_non_match_is_none(self):
        pat = P.compile(P.load_library(""), "^%{IP:client}$")
        assert P.match_line(pat, "not-an-ip") is None

    def test_int64_overflow_fails_match(self):
        pat = P.compile(P.load_library(""), "%{INT:n:int}")
        assert P.match_line(pat, "99999999999999999999") is None
        assert P.match_line(pat, str(2**63 - 1)) == {"n": 2**63 - 1}
        assert P.match_line(pat, str(-(2**63))) == {"n": -(2**63)}

    def test_float_and_level_and_timestamp(self):
        pat = P.compile(
            P.load_library(""),
            "^%{ISO8601_TIMESTAMP:ts:timestamp} %{LOGLEVEL:lv:level} %{NUMBER:x:float}$",
        )
        got = P.match_line(pat, "2024-03-01T00:00:01.500Z INFO 2.5e-1")
        assert got == {"ts": 1709251201500, "lv": "INFO", "x": 0.25}

    def test_ip_validation(self):
        pat = P.compile(P.load_library(""), "^%{NOTSPACE:ip:ip}$")
        assert P.match_line(pat, "10.1.2.3") == {"ip": "10.1.2.3"}
        assert P.match_line(pat, "999.1.2.3") is None

    def test_anchoring_is_explicit(self):
        lib = P.load_library("")
        assert P.match_line(P.compile(lib, "%{INT:n:int}"), "abc 42 def") == {"n": 42}
        assert P.match_line(P.compile(lib, "^%{INT:n:int}"), "abc 42") is None

    def test_all_or_nothing_optional_group(self):
        # A declared capture inside an optional group fails the whole match
        # when the group does not participate.
        lib = P.load_library("")
        pat = P.compile(lib, "a(?: %{INT:n:int})?")
        assert P.match_line(pat, "a 5") == {"n": 5}
        assert P.match_line(pat, "a") is None


def _oracle_expand(library: dict[str, str], expr: str) -> str:
    """Independent hand-expansion: a reference becomes a group of its body."""

    def repl(m: re.Match) -> str:
        token = m.group(1)
        parts = token.split(":")
        body = _oracle_expand(library, library[parts[0]])
        if len(parts) == 1:
            return f"(?:{body})"
        return f"(?P<{parts[1]}>{body})"

    return re.sub(r"%\{([^}]*)\}", repl, expr)


def _random_library(rng: random.Random, size: int) -> dict[str, str]:
    lines = []
    for i in range(size):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            if i > 0 and rng.random() < 0.5:
                parts.append("%{L" + str(rng.randrange(0, i)) + "}")
            else:
                literal = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 4)))
                parts.append(literal if rng.random() < 0.7 else f"(?:{literal}|x)")
        lines.append(f"L{i} " + "".join(parts))
    return P.load_library("\n".join(lines))


def test_expansion_oracle_random_compositions():
    rng = random.Random(2024)
    for trial in range(20):
        lib = _random_library(rng, rng.randrange(2, 6))
        names = [n for n in sorted(lib) if n.startswith("L")]
        expr_parts = []
        for fieldnum in range(rng.randrange(1, 4)):
            name = rng.choice(names)
            if rng.random() < 0.6:
                expr_parts.append("%{" + name + f":f{fieldnum}}}")
            else:
                expr_parts.append("%{" + name + "}")
            if rng.random() < 0.5:
                expr_parts.append(rng.choice("abcd"))
        expr = "".join(expr_parts)
        compiled = P.compile(lib, expr)
        oracle = re.compile(_oracle_expand(lib, expr))
        for _ in range(80):
            line = "".join(rng.choice("abcdx") for _ in range(rng.randrange(0, 14)))
            got = P.match_line(compiled, line)
            m = oracle.search(line)
            if m is None or any(v is None for v in m.groupdict().values()):
                assert got is None, (expr, line)
            else:
                assert got == m.groupdict(), (expr, line)


@given(st.text(alphabet="ab x.:", max_size=30))
def test_match_is_pure(line):
    pat = P.compile(P.load_library(""), "%{WORD:w} %{INT:n:int}")
    assert P.match_line(pat, line) == P.match_line(pat, line)


@given(st.text(alphabet="abc 0123.", max_size=40))
def test_all_or_nothing_property(line):
    pat = P.compile(P.load_library(""), "%{WORD:w}\\s+%{INT:n:int}")
    result = P.match_line(pat, line)
    assert result is None or set(result) == {"w", "n"}
