import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import EVENT_GENERATORS
from stormwatch import codecs as C
from stormwatch.timeutil import DayContext, day_start_ms

KIND_FOR_EVENT = {
    C.FrontendEvent: C.LogKind.FRONTEND,
    C.MonitoringEvent: C.LogKind.MONITORING,
    C.BackendEvent: C.LogKind.BACKEND,
    C.HeartbeatEvent: C.LogKind.HEARTBEAT,
    C.BackendMetricsEvent: C.LogKind.BACKEND_METRICS,
}


def roundtrip(event):
    kind = KIND_FOR_EVENT[type(event)]
    line = C.render_line(event)
    ctx = DayContext(day_start_ms(event.timestamp))
    return C.parse_line(kind, line, ctx)


class TestClassifyFile:
    @pytest.mark.parametrize(
        "path,kind",
        [
            ("/var/log/storm/heartbeat.log", C.LogKind.HEARTBEAT),
            ("/var/log/storm/storm-frontend-server.log", C.LogKind.FRONTEND),
            ("monitoring.log", C.LogKind.MONITORING),
            ("storm-backend.log", C.LogKind.BACKEND),
            ("storm-backend-metrics.log", C.LogKind.BACKEND_METRICS),
            ("heartbeat.log.3", C.LogKind.HEARTBEAT),
            ("storm-backend.log.12", C.LogKind.BACKEND),
            ("monitoring.log-2024-03-01", C.LogKind.MONITORING),
            ("storm-backend-metrics.log.2024-03-01.5", C.LogKind.BACKEND_METRICS),
        ],
    )
    def test_known_names(self, path, kind):
        assert C.classify_file(path) is kind

    def test_unknown_name(self):
        with pytest.raises(C.UnknownLogKind):
            C.classify_file("syslog")


class TestHeartbeatFidelity:
    LINE = (
        "12:00:00.000 - [#1 lifetime=0:01.00] Heap Free:2000000000 SYNCH [5]"
        " ASynch [PTG:10 PTP:3] Last:( [#PTG=10 OK=10 M.Dur.=150.0]"
        " [#PTP=0 OK=0 M.Dur.=0.0] )"
    )

    def test_prose_values_parse_exactly(self):
        event = C.parse_line(C.LogKind.HEARTBEAT, self.LINE)
        assert event.ptg_last == C.BunchStats(count=10, ok=10, mean_duration_ms=150.0)
        assert event.ptp_last == C.BunchStats(count=0, ok=0, mean_duration_ms=0.0)
        assert event.heap_free_bytes == 2_000_000_000
        assert event.lifetime_seconds == 60

    def test_render_carries_prose_tokens(self):
        event = C.parse_line(C.LogKind.HEARTBEAT, self.LINE)
        line = C.render_line(event)
        assert "OK=10" in line and "M.Dur.=150.0" in line


class TestInvariants:
    def test_ok_exceeding_count_rejected_on_render(self):
        event = C.HeartbeatEvent(
            0, 1, 60, 1, 0, 0, 0, C.BunchStats(5, 9, 1.0), C.BunchStats(0, 0, 0.0)
        )
        with pytest.raises(C.FieldRange):
            C.render_line(event)

    def test_ok_exceeding_count_rejected_on_parse(self):
        line = (
            "12:00:00.000 - [#1 lifetime=0:01.00] Heap Free:1 SYNCH [0]"
            " ASynch [PTG:0 PTP:0] Last:( [#PTG=5 OK=9 M.Dur.=1.0]"
            " [#PTP=0 OK=0 M.Dur.=0.0] )"
        )
        with pytest.raises(C.FieldRange):
            C.parse_line(C.LogKind.HEARTBEAT, line)

    def test_metrics_percentile_ordering_enforced(self):
        line = (
            "12:00:00.000 - synch.ls [(m1_count=1, count=1)"
            " (max=10.0, min=1.0, mean=5.0, p95=9.0, p99=8.0)"
            " duration_units=milliseconds]"
        )
        with pytest.raises(C.FieldRange):
            C.parse_line(C.LogKind.BACKEND_METRICS, line)

    def test_monitoring_outcomes_bounded(self):
        stats = C.RoundStats(2, 2, 1, 0, 1.0, 1.0, 1.0)
        event = C.MonitoringEvent(0, 60, stats, stats, stats, stats)
        with pytest.raises(C.FieldRange):
            C.render_line(event)

    def test_level_sets_per_kind(self):
        fe = C.FrontendEvent(0, "FATAL", "r", "", [], "op", None, "m")
        with pytest.raises(C.FieldRange):
            C.render_line(fe)
        be = C.BackendEvent(0, "WARNING", "r", None, "op", [], "R")
        with pytest.raises(C.FieldRange):
            C.render_line(be)

    def test_newline_in_field_rejected(self):
        fe = C.FrontendEvent(0, "INFO", "r", "a\nb", [], "op", None, "m")
        with pytest.raises(C.FieldRange):
            C.render_line(fe)

    def test_grok_typed_values_are_judged_by_validation(self):
        line = TestHeartbeatFidelity.LINE
        with pytest.raises(C.FieldRange):  # signed INT parses; a negative seq is invalid
            C.parse_line(C.LogKind.HEARTBEAT, line.replace("[#1 ", "[#-1 "))
        with pytest.raises(C.GrammarMismatch):  # outside int64
            C.parse_line(C.LogKind.HEARTBEAT, line.replace("[#1 ", f"[#{2**63} "))
        with pytest.raises(C.GrammarMismatch):  # non-finite float
            C.parse_line(C.LogKind.HEARTBEAT, line.replace("M.Dur.=150.0", "M.Dur.=1e999"))
        frontend = "2024-03-01T12:00:00.123Z [r1] INFO: op user='u' fqans='' msg='m'"
        with pytest.raises(C.FieldRange):  # DATA takes a quote; a quoted DN is invalid
            C.parse_line(C.LogKind.FRONTEND, frontend.replace("user='u'", "user='u'x'"))
        with pytest.raises(C.FieldRange):  # NOTSPACE takes a quote; the operation may not
            C.parse_line(C.LogKind.FRONTEND, frontend.replace(" op ", " o'p "))
        # NOTSPACE takes a ']', so a request id may end in one.
        event = C.parse_line(C.LogKind.FRONTEND, frontend.replace("[r1]", "[a]]"))
        assert event.request_id == "a]"
        assert C.render_line(event) == frontend.replace("[r1]", "[a]]")

    def test_surl_clause_and_lifetime_text_keep_their_shapes(self):
        frontend = "2024-03-01T12:00:00.123Z [r] INFO: op user='' fqans='' junk msg='m'"
        with pytest.raises(C.GrammarMismatch):
            C.parse_line(C.LogKind.FRONTEND, frontend)
        heartbeat = TestHeartbeatFidelity.LINE.replace("lifetime=0:01.00", "lifetime=1m")
        with pytest.raises(C.GrammarMismatch):
            C.parse_line(C.LogKind.HEARTBEAT, heartbeat)

    def test_garbage_line_is_grammar_mismatch(self):
        with pytest.raises(C.GrammarMismatch) as err:
            C.parse_line(C.LogKind.BACKEND, "garbage")
        assert err.value.line == "garbage"


class TestCharacterRules:
    """Each field rule is a compiled character class; it must reject exactly
    the characters that the per-character predicates it replaced rejected."""

    # The reference: the predicates the codec ran once per character.
    REFERENCE = {
        "_QUOTED_BAD": lambda c: c == "'" or ord(c) < 0x20,
        "_TOKEN_BAD": lambda c: c == "'" or ord(c) < 0x20 or c.isspace(),
        "_FQAN_BAD": lambda c: c == "," or c == "'" or ord(c) < 0x20,
        "_SURL_BAD": lambda c: c == ";" or c == "'" or ord(c) < 0x20,
    }

    @pytest.mark.parametrize("rule", sorted(REFERENCE))
    def test_class_rejects_what_the_reference_rejects(self, rule):
        every = "".join(map(chr, range(0x110000)))
        got = [m.start() for m in getattr(C, rule).finditer(every)]
        expected = [i for i, c in enumerate(every) if self.REFERENCE[rule](c)]
        assert got == expected

    @pytest.mark.parametrize(
        "event,message",
        [
            (C.FrontendEvent(0, "INFO", "r", "u'", [], "op", None, "m"),
             "user_dn may not contain quotes or control characters"),
            (C.FrontendEvent(0, "INFO", "r", "u", [], "o\u2003p", None, "m"),
             "operation may not contain spaces, quotes or control characters"),
            (C.FrontendEvent(0, "INFO", "r", "u", ["/a", "/b,c"], "op", None, "m"),
             "bad fqan"),
            (C.BackendEvent(0, "INFO", "r", None, "op", ["srm://a;b"], "R"), "bad surl"),
        ],
    )
    def test_messages_unchanged(self, event, message):
        with pytest.raises(C.FieldRange, match=f"^{message}$"):
            C.render_line(event)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", list(C.LogKind), ids=lambda k: k.value)
    def test_seeded_random_events(self, kind):
        rng = random.Random(hash(kind.value) & 0xFFFF)
        gen = EVENT_GENERATORS[kind]
        for _ in range(300):
            event = gen(rng)
            assert roundtrip(event) == event

    def test_empty_bunch_round_trips(self):
        event = C.HeartbeatEvent(
            60_000, 1, 60, 0, 0, 0, 0, C.BunchStats(0, 0, 0.0), C.BunchStats(0, 0, 0.0)
        )
        assert roundtrip(event) == event

    def test_backend_without_user_or_surls(self):
        event = C.BackendEvent(5, "DEBUG", "rid", None, "srmPing", [], "SRM_SUCCESS")
        assert roundtrip(event) == event

    def test_frontend_empty_surl_distinct_from_absent(self):
        base = C.FrontendEvent(5, "INFO", "rid", "", [], "op", None, "m")
        with_empty = dataclasses.replace(base, surl="")
        assert roundtrip(base).surl is None
        assert roundtrip(with_empty).surl == ""

    def test_frontend_surl_ending_like_the_msg_clause(self):
        event = C.FrontendEvent(5, "INFO", "rid", "", [], "op", "srm://a msg=", "m")
        assert roundtrip(event) == event


@settings(max_examples=150, deadline=None)
@given(
    ts=st.integers(min_value=0, max_value=4_000_000_000_000),
    level=st.sampled_from(C.FRONTEND_LEVELS),
    rid=st.text(alphabet="abcdef0123456789", min_size=1, max_size=12),
    dn=st.text(alphabet="/=. abcdefXYZ", max_size=30),
    op=st.text(alphabet="abcdefSRM.", min_size=1, max_size=16),
    msg=st.text(alphabet="abc def0123.=", max_size=40),
)
def test_frontend_round_trip_property(ts, level, rid, dn, op, msg):
    event = C.FrontendEvent(ts, level, rid, dn, ["/vo"], op, None, msg)
    assert roundtrip(event) == event


class TestMidnightRollover:
    def test_date_advances_when_time_jumps_back(self):
        ctx = DayContext(0)
        late = C.parse_line(
            C.LogKind.BACKEND_METRICS,
            "23:59:00.000 - synch.ls [(m1_count=1, count=1)"
            " (max=1.0, min=1.0, mean=1.0, p95=1.0, p99=1.0) duration_units=milliseconds]",
            ctx,
        )
        early = C.parse_line(
            C.LogKind.BACKEND_METRICS,
            "00:01:00.000 - synch.ls [(m1_count=1, count=2)"
            " (max=1.0, min=1.0, mean=1.0, p95=1.0, p99=1.0) duration_units=milliseconds]",
            ctx,
        )
        assert early.timestamp - late.timestamp == 2 * 60_000

    def test_small_backwards_jitter_keeps_date(self):
        ctx = DayContext(0)
        first = C.parse_line(
            C.LogKind.BACKEND_METRICS,
            "12:00:00.000 - synch.ls [(m1_count=1, count=1)"
            " (max=1.0, min=1.0, mean=1.0, p95=1.0, p99=1.0) duration_units=milliseconds]",
            ctx,
        )
        second = C.parse_line(
            C.LogKind.BACKEND_METRICS,
            "11:59:00.000 - synch.ls [(m1_count=1, count=2)"
            " (max=1.0, min=1.0, mean=1.0, p95=1.0, p99=1.0) duration_units=milliseconds]",
            ctx,
        )
        assert first.timestamp - second.timestamp == 60_000


def test_generated_stream_counters_monotone(small_corpus):
    ctx = DayContext(small_corpus["truth"]["start_ms"])
    path = f"{small_corpus['dir']}/heartbeat.log"
    previous = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = C.parse_line(C.LogKind.HEARTBEAT, line.rstrip("\n"), ctx)
            if previous is not None:
                assert event.ptg_total >= previous.ptg_total
                assert event.ptp_total >= previous.ptp_total
            previous = event


def test_generated_metrics_statistics_sane(small_corpus):
    ctx = DayContext(small_corpus["truth"]["start_ms"])
    path = f"{small_corpus['dir']}/storm-backend-metrics.log"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = C.parse_line(C.LogKind.BACKEND_METRICS, line.rstrip("\n"), ctx)
            assert event.min_ms <= event.mean_ms <= event.max_ms
            assert event.p95_ms <= event.p99_ms
