import ipaddress
import json
import random
import re

import pytest

from stormwatch import codecs as C
from stormwatch import index as IX
from stormwatch import pipeline as PL
from stormwatch.codecs import LogKind
from stormwatch.shipper import RawRecord
from stormwatch.timeutil import DayContext, day_start_ms, format_iso8601_ms, parse_date_ms

BASE = "2024-03-01"


@pytest.fixture(scope="module")
def default_pipeline():
    return PL.load_pipeline(json.dumps(PL.default_pipeline_config(BASE)))


def frontend_record(line, offset=0, source="storm-frontend-server.log"):
    return RawRecord(line, source, offset, "fe01", "log", LogKind.FRONTEND)


GOOD_FRONTEND = (
    "2024-03-01T12:00:00.123Z [a1b2] INFO: srmLs user='/CN=u'"
    " fqans='/atlas' surl='srm://x/y' msg='client=131.154.10.2 took=1.5ms'"
)


class TestLoadPipeline:
    def test_single_grok_stage(self):
        config = {
            "routes": {
                "frontend": [
                    {"type": "grok", "pattern": "%{IP:client_ip} %{ISO8601_TIMESTAMP:ts:text}"},
                    {"type": "date", "source": "ts", "formats": ["iso8601"]},
                ]
            }
        }
        pipe = PL.load_pipeline(json.dumps(config))
        assert len(pipe.routes[LogKind.FRONTEND]) == 2

    def test_unknown_pattern_names_stage(self):
        config = {
            "routes": {
                "frontend": [
                    {"type": "grok", "pattern": "%{NOPE:x}"},
                    {"type": "date", "source": "ts"},
                ]
            }
        }
        with pytest.raises(PL.PipelineConfigError, match="route frontend stage 0"):
            PL.load_pipeline(json.dumps(config))

    def test_route_without_timestamp_rejected(self):
        config = {"routes": {"backend": [{"type": "grok", "pattern": "%{INT:n}"}]}}
        with pytest.raises(PL.PipelineConfigError, match="@timestamp"):
            PL.load_pipeline(json.dumps(config))

    def test_grok_typed_timestamp_counts_as_date(self):
        config = {
            "routes": {
                "backend": [{"type": "grok", "pattern": "%{ISO8601_TIMESTAMP:@timestamp}"}]
            }
        }
        pipe = PL.load_pipeline(json.dumps(config))
        assert LogKind.BACKEND in pipe.routes

    def test_reserved_capture_rejected(self):
        config = {
            "routes": {
                "backend": [
                    {"type": "grok", "pattern": "%{WORD:kind}"},
                    {"type": "date", "source": "ts"},
                ]
            }
        }
        with pytest.raises(PL.PipelineConfigError, match="shadow"):
            PL.load_pipeline(json.dumps(config))

    def test_unknown_stage_type(self):
        config = {"routes": {"backend": [{"type": "lowercase"}]}}
        with pytest.raises(PL.PipelineConfigError, match="stage 0"):
            PL.load_pipeline(json.dumps(config))

    def test_unknown_kind(self):
        config = {"routes": {"nginx": []}}
        with pytest.raises(PL.PipelineConfigError, match="nginx"):
            PL.load_pipeline(json.dumps(config))

    def test_default_config_loads(self, default_pipeline):
        assert set(default_pipeline.routes) == set(LogKind)

    @pytest.mark.parametrize(
        "stage,message",
        [
            ({"type": "grok"}, "grok stage needs a pattern"),
            ({"type": "date", "formats": ["rfc822"]}, "unknown date format 'rfc822'"),
            ({"type": "date", "formats": []}, "date stage needs formats"),
            ({"type": "date", "base_date": "03/01/2024"}, "bad base_date"),
            ({"type": "geo"}, "geo stage needs a source field"),
            ({"type": "drop", "field": "status"}, "drop stage needs field and equals"),
            ({"type": "date", "formats": "iso8601"}, "formats must be a list"),
            ({"type": "mutate", "rename": ["a"]}, "rename must be an object"),
            ({"type": "mutate", "add": [["a", 1]]}, "add must be an object"),
            ({"type": "mutate", "remove": "a"}, "remove must be a list"),
            ({"type": "mutate", "remove": [["a"]]}, "each removed field and new name must be"),
            ({"type": "mutate", "rename": {"a": 1}}, "each removed field and new name must be"),
            ({"type": "date", "source": ["ts"]}, "source must be a string"),
            ({"type": "date", "base_date": 20240301}, "base_date must be a string"),
            ({"type": "drop", "field": ["status"], "equals": 1}, "field must be a string"),
        ],
    )
    def test_bad_stage_names_route_and_index(self, stage, message):
        config = {"routes": {"backend": [{"type": "date", "source": "ts"}, stage]}}
        with pytest.raises(PL.PipelineConfigError, match=f"route backend stage 1: {message}"):
            PL.load_pipeline(json.dumps(config))

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"routes": []}, "routes must be an object"),
            ({"routes": {"backend": {"type": "grok"}}}, "route backend must be a list"),
            ({"routes": {"backend": ["grok"]}}, "route backend stage 0 must be an object"),
            ({"routes": {}, "patterns": 5}, "patterns must be a string"),
            ({"routes": {}, "geo_table_csv": ["10.0.0.0/8"]}, "geo_table_csv must be a string"),
        ],
    )
    def test_wrongly_typed_config_is_config_error(self, config, message):
        with pytest.raises(PL.PipelineConfigError, match=f"^{message}$"):
            PL.load_pipeline(json.dumps(config))


# A user route that reaches every stage option the stock config leaves alone.
CUSTOM_CONFIG = {
    "routes": {
        "backend": [
            {"type": "grok", "pattern": "^%{NOTSPACE:ts} %{WORD:level} n=%{INT:n}"},
            {"type": "grok", "pattern": "user=%{WORD:user} host=%{WORD:host}"},
            {"type": "date", "source": "ts", "formats": ["time-of-day", "iso8601"],
             "base_date": BASE},
            {"type": "mutate", "rename": {"level": "status", "absent": "never"},
             "remove": ["host", "absent"], "add": {"site": "cnaf", "tier": 1}},
            {"type": "drop", "field": "status", "equals": "TRACE"},
            {"type": "drop", "field": "n", "equals": 0},
        ],
        "heartbeat": [{"type": "date", "source": "ts", "formats": ["iso8601"]}],
    }
}


class TestCustomRoute:
    @pytest.fixture
    def pipe(self):
        return PL.load_pipeline(json.dumps(CUSTOM_CONFIG))

    @staticmethod
    def run(pipe, line, source="storm-backend.log", offset=0, kind=LogKind.BACKEND):
        return PL.process(pipe, RawRecord(line, source, offset, "be01", "log", kind))

    def test_second_grok_merges_and_mutate_applies(self, pipe):
        line = "12:00:00.250 INFO n=7 user=alice host=db1"
        doc = self.run(pipe, line, offset=42)
        assert doc.fields == {
            "@timestamp": parse_date_ms(BASE) + 12 * 3_600_000 + 250,
            "status": "INFO", "n": 7, "user": "alice", "site": "cnaf", "tier": 1,
            "message": line, "beat.name": "be01", "offset": 42, "type": "log",
            "kind": "backend", "source": "storm-backend.log",
        }
        assert doc.index_name == "storm-backend-2024.03.01"

    def test_second_grok_miss_is_a_grok_dead_letter(self, pipe):
        out = self.run(pipe, "12:00:00.250 INFO n=7 user=alice")
        assert (out.stage, out.reason) == ("grok", "pattern did not match")

    def test_date_formats_tried_in_order(self, pipe):
        doc = self.run(pipe, "2024-03-05T10:00:00.000Z INFO n=1 user=a host=b")
        assert doc.index_name == "storm-backend-2024.03.05"
        assert "ts" not in doc.fields

    def test_last_date_error_is_the_reason(self, pipe):
        out = self.run(pipe, "garbage INFO n=1 user=a host=b")
        assert isinstance(out, PL.DeadLetter)
        assert (out.stage, out.reason) == ("date", "not an ISO-8601 timestamp: 'garbage'")

    def test_drop_on_string_and_on_int(self, pipe):
        assert self.run(pipe, "12:00:00.000 TRACE n=3 user=a host=b") is None
        assert self.run(pipe, "12:00:00.000 INFO n=0 user=a host=b") is None
        assert isinstance(self.run(pipe, "12:00:00.000 INFO n=1 user=a host=b"), PL.Document)

    def test_route_without_grok_has_no_date_source(self, pipe):
        out = self.run(pipe, "anything", source="heartbeat.log", kind=LogKind.HEARTBEAT)
        assert (out.stage, out.reason) == ("date", "missing date source field 'ts'")

    def test_kind_without_route(self, pipe):
        out = self.run(pipe, "anything", source="monitoring.log", kind=LogKind.MONITORING)
        assert (out.stage, out.reason) == ("route", "no route for kind monitoring")

    def test_interleaved_sources_roll_over_midnight_apart(self, pipe):
        steps = [
            ("a.log", "23:59:00.000", "2024.03.01"),
            ("b.log", "23:58:00.000", "2024.03.01"),
            ("a.log", "00:01:00.000", "2024.03.02"),
            ("b.log", "23:59:30.000", "2024.03.01"),
            ("b.log", "00:02:00.000", "2024.03.02"),
            ("a.log", "23:00:00.000", "2024.03.02"),
        ]
        for offset, (source, tod, day) in enumerate(steps):
            doc = self.run(pipe, f"{tod} INFO n=1 user=a host=b", source=source, offset=offset)
            assert doc.index_name == f"storm-backend-{day}", (source, tod)
        assert {key[0] for key in pipe.day_contexts} == {"a.log", "b.log"}


class TestProcess:
    def test_backend_info_document(self, default_pipeline):
        line = (
            "2024-03-01T12:00:00.500Z - INFO [a1]: srmReleaseFiles"
            " user='/CN=u' surls='srm://s/a' result=SRM_SUCCESS"
        )
        record = RawRecord(line, "storm-backend.log", 0, "be01", "log", LogKind.BACKEND)
        doc = PL.process(default_pipeline, record)
        assert doc.fields["status"] == "INFO"
        assert doc.fields["action"] == "srmReleaseFiles"
        assert doc.fields["message"] == line
        assert doc.index_name == "storm-backend-2024.03.01"

    def test_unparseable_body_becomes_dead_letter(self, default_pipeline):
        out = PL.process(default_pipeline, frontend_record("garbage"))
        assert isinstance(out, PL.DeadLetter)
        assert out.stage == "grok"
        assert out.raw.line == "garbage"

    def test_reserved_client_ip_gets_no_geo_point(self, default_pipeline):
        line = GOOD_FRONTEND.replace("131.154.10.2", "127.0.0.1")
        doc = PL.process(default_pipeline, frontend_record(line))
        assert "geo_lat" not in doc.fields
        assert doc.fields["client_ip"] == "127.0.0.1"

    def test_public_client_ip_gets_geo_point(self, default_pipeline):
        doc = PL.process(default_pipeline, frontend_record(GOOD_FRONTEND))
        assert doc.fields["geo_label"] == "bologna-tier1"
        assert doc.fields["geo_lat"] == 44.49

    def test_debug_lines_are_dropped(self, default_pipeline):
        line = (
            "2024-03-01T12:00:00.123Z [x1] DEBUG: internal.state user=''"
            " fqans='' msg='client=10.0.0.1 state dump'"
        )
        assert PL.process(default_pipeline, frontend_record(line)) is None

    def test_mutate_removed_scratch_field(self, default_pipeline):
        doc = PL.process(default_pipeline, frontend_record(GOOD_FRONTEND))
        assert "surl_clause" not in doc.fields
        assert "ts" not in doc.fields

    def test_idempotent_ids(self, default_pipeline):
        record = frontend_record(GOOD_FRONTEND, offset=1234)
        first = PL.process(default_pipeline, record)
        second = PL.process(default_pipeline, record)
        assert first.id == second.id
        shifted = frontend_record(GOOD_FRONTEND, offset=1235)
        assert PL.process(default_pipeline, shifted).id != first.id

    def test_routing_is_pure_function_of_kind_and_day(self, default_pipeline):
        doc = PL.process(default_pipeline, frontend_record(GOOD_FRONTEND))
        assert doc.index_name == "storm-frontend-2024.03.01"
        next_day = GOOD_FRONTEND.replace("2024-03-01T", "2024-03-02T")
        doc2 = PL.process(default_pipeline, frontend_record(next_day))
        assert doc2.index_name == "storm-frontend-2024.03.02"

    def test_conservation_over_mixed_input(self, default_pipeline):
        lines = [GOOD_FRONTEND, "garbage", GOOD_FRONTEND.replace("INFO", "DEBUG")]
        documents = letters = dropped = 0
        for offset, line in enumerate(lines * 40):
            out = PL.process(default_pipeline, frontend_record(line, offset=offset))
            if out is None:
                dropped += 1
            elif isinstance(out, PL.DeadLetter):
                letters += 1
            else:
                documents += 1
        assert documents + letters + dropped == 120
        assert documents == letters == dropped == 40

    def test_time_of_day_route_uses_base_date(self, default_pipeline):
        line = (
            "12:01:00.000 - synch.ls [(m1_count=1, count=1) (max=1.0, min=1.0,"
            " mean=1.0, p95=1.0, p99=1.0) duration_units=milliseconds]"
        )
        record = RawRecord(line, "storm-backend-metrics.log", 0, "be01", "log",
                           LogKind.BACKEND_METRICS)
        doc = PL.process(default_pipeline, record)
        assert doc.index_name == "storm-backend-metrics-2024.03.01"

    def test_midnight_rollover_advances_index_day(self):
        pipe = PL.load_pipeline(json.dumps(PL.default_pipeline_config(BASE)))
        template = (
            "{tod} - synch.ls [(m1_count=1, count={n}) (max=1.0, min=1.0,"
            " mean=1.0, p95=1.0, p99=1.0) duration_units=milliseconds]"
        )
        source = "storm-backend-metrics.log"
        late = RawRecord(template.format(tod="23:59:00.000", n=1), source, 0,
                         "b", "log", LogKind.BACKEND_METRICS)
        early = RawRecord(template.format(tod="00:01:00.000", n=2), source, 120,
                          "b", "log", LogKind.BACKEND_METRICS)
        assert PL.process(pipe, late).index_name == "storm-backend-metrics-2024.03.01"
        assert PL.process(pipe, early).index_name == "storm-backend-metrics-2024.03.02"

    def test_dead_letter_json_round_trips(self, default_pipeline):
        letter = PL.process(default_pipeline, frontend_record("junk", offset=9))
        payload = json.loads(PL.dead_letter_json(letter))
        assert payload["offset"] == 9
        assert payload["stage"] == "grok"
        assert payload["line"] == "junk"


def test_pipeline_builds_the_store_record_type():
    assert PL.Document is IX.Document


class TestGeoTable:
    def test_duplicate_cidr_rejected(self):
        with pytest.raises(PL.PipelineConfigError, match="duplicate"):
            PL.load_geo_table("1.2.3.0/24,1,2,a\n1.2.3.0/24,3,4,b\n")

    def test_bad_row_rejected_with_line(self):
        with pytest.raises(PL.PipelineConfigError, match="line 2"):
            PL.load_geo_table("1.2.3.0/24,1,2,a\nnot-a-cidr,1,2,b\n")

    def test_coordinates_validated(self):
        with pytest.raises(PL.PipelineConfigError, match="range"):
            PL.load_geo_table("1.2.3.0/24,91.0,0.0,x\n")

    def test_single_block_lookup(self):
        table = PL.load_geo_table("93.184.0.0/16,1.5,2.5,edge\n")
        assert table.lookup("93.184.216.34") == (1.5, 2.5, "edge")

    def test_private_absent(self):
        table = PL.load_geo_table("10.0.0.0/8,1.0,1.0,wrong\n")
        assert table.lookup("10.0.0.1") is None

    def test_longest_prefix_wins(self):
        table = PL.load_geo_table(
            "131.154.0.0/16,1.0,1.0,wide\n131.154.128.0/17,2.0,2.0,narrow\n"
        )
        assert table.lookup("131.154.200.1")[2] == "narrow"
        assert table.lookup("131.154.10.1")[2] == "wide"

    def test_mixed_ipv4_and_ipv6_rows(self):
        table = PL.load_geo_table(
            "131.154.0.0/16,44.49,11.34,bologna-v4\n"
            "2001:1458::/32,46.23,6.05,geneva-v6\n"
            "2a00:1450::/32,1.0,1.0,wide-v6\n"
            "2a00:1450:4000::/37,2.0,2.0,narrow-v6\n"
            "2001:db8::/32,3.0,3.0,documentation\n"
            "fc00::/7,4.0,4.0,unique-local\n"
            "fe80::/10,5.0,5.0,link-local\n"
        )
        assert table.lookup("2001:1458:201::1") == (46.23, 6.05, "geneva-v6")
        assert table.lookup("2a00:1450:4001::5")[2] == "narrow-v6"
        assert table.lookup("2a00:1450:8000::1")[2] == "wide-v6"
        assert table.lookup("131.154.1.1")[2] == "bologna-v4"
        for ip in ("2001:db8::1", "fc00::1", "fe80::1", "::1"):  # not global
            assert table.lookup(ip) is None, ip

    def test_ipv4_and_ipv6_never_cross_match(self):
        any_v4 = PL.load_geo_table("0.0.0.0/0,1.0,1.0,any-v4\n")
        assert any_v4.lookup("2001:1458:201::1") is None
        assert any_v4.lookup("131.154.1.1")[2] == "any-v4"
        # ::/96 holds the v6 address with the same integer as 131.154.1.1.
        any_v6 = PL.load_geo_table("::/0,2.0,2.0,any-v6\n::/96,3.0,3.0,low-v6\n")
        assert any_v6.lookup("131.154.1.1") is None
        assert any_v6.lookup("2001:1458:201::1")[2] == "any-v6"

    def test_brute_force_oracle_over_random_ips(self):
        table = PL.load_geo_table(PL.default_geo_csv())
        # The oracle reads the packaged CSV itself and matches with bit masks.
        blocks = []
        for line in PL.default_geo_csv().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            cidr, lat, lon, label = line.split(",")
            base, bits = cidr.split("/")
            shift = 32 - int(bits)
            value = int(ipaddress.IPv4Address(base)) >> shift
            blocks.append((shift, value, (float(lat), float(lon), label.strip())))
        rng = random.Random(404)
        candidates = []
        for _ in range(6000):
            candidates.append(str(ipaddress.ip_address(rng.getrandbits(32))))
        for shift, value, _ in blocks:  # force coverage of every configured block
            base = value << shift
            for _ in range(30):
                candidates.append(str(ipaddress.ip_address(base + rng.getrandbits(10))))
        for ip in candidates:
            addr = ipaddress.ip_address(ip)
            hits = [(shift, row) for shift, value, row in blocks if int(addr) >> shift == value]
            if addr.is_global and hits:
                expected = min(hits)[1]  # the smallest shift is the longest prefix
            else:
                expected = None
            assert table.lookup(ip) == expected, ip


# ---------------------------------------------------------------------------
# One grammar per kind: the stock pipeline's documents and `codecs.parse_line`
# agree under one field map. This map is the document schema.

SHIPPING_FIELDS = {"message", "beat.name", "offset", "type", "kind", "source"}
ROUND_STAT_FIELDS = ("performed", "success", "failed", "errored", "avg_ms", "min_ms", "max_ms")


def assert_document_maps_event(fields, event, line):
    """Check one document against the event parsed from the same line."""
    assert fields["message"] == line
    doc = {
        name: value for name, value in fields.items()
        if name not in SHIPPING_FIELDS and not name.startswith("geo_")
    }
    expected = {"@timestamp": event.timestamp}
    if isinstance(event, C.FrontendEvent):
        # `msg='client=<ip> <text>'` is the synthetic corpus's convention.
        assert f"client={doc.pop('client_ip')} {doc.pop('msg')}" == event.message
        # `surl` is missing here: see test_frontend_document_keeps_surl.
        expected.update(
            status=event.level, action=event.operation, request_id=event.request_id,
            user_dn=event.user_dn, fqans=",".join(event.fqans),
        )
    elif isinstance(event, C.MonitoringEvent):
        expected["round_seconds"] = event.round_seconds
        for prefix, stats in (
            ("sync", event.sync), ("async", event.async_),
            ("agg_sync", event.aggregate_sync), ("agg_async", event.aggregate_async),
        ):
            expected.update(
                {f"{prefix}_{name}": getattr(stats, name) for name in ROUND_STAT_FIELDS}
            )
    elif isinstance(event, C.BackendEvent):
        expected.update(
            status=event.level, action=event.operation, request_id=event.request_id,
            user_dn=event.user_dn or "", surls=";".join(event.surls), result=event.result,
        )
    elif isinstance(event, C.HeartbeatEvent):
        hours, minutes, seconds = re.fullmatch(
            r"(\d+):(\d{2})\.(\d{2})", doc.pop("lifetime")
        ).groups()
        assert int(hours) * 3600 + int(minutes) * 60 + int(seconds) == event.lifetime_seconds
        expected.update(
            seq=event.seq, heap_free_bytes=event.heap_free_bytes,
            synch_last_beat=event.synch_last_beat,
            ptg_total=event.ptg_total, ptp_total=event.ptp_total,
        )
        for prefix, bunch in (("ptg", event.ptg_last), ("ptp", event.ptp_last)):
            expected.update({
                f"{prefix}_count": bunch.count, f"{prefix}_ok": bunch.ok,
                f"{prefix}_mean_duration_ms": bunch.mean_duration_ms,
            })
    else:
        expected.update(
            action=event.operation, m1_count=event.m1_count, total_count=event.total_count,
            max_ms=event.max_ms, min_ms=event.min_ms, mean_ms=event.mean_ms,
            p95_ms=event.p95_ms, p99_ms=event.p99_ms,
        )
    assert doc == expected


def check_line(pipe, ctx, kind, line, offset):
    """Parse `line` both ways, check the map and return the event."""
    event = C.parse_line(kind, line, ctx)
    record = RawRecord(line, C.FILENAME_FOR_KIND[kind], offset, "host", "log", kind)
    out = PL.process(pipe, record)
    if kind is LogKind.FRONTEND and event.level == "DEBUG":
        assert out is None
    else:
        assert isinstance(out, PL.Document), line
        assert_document_maps_event(out.fields, event, line)
    return event


def test_stock_documents_agree_with_codec_events(small_corpus):
    start = small_corpus["truth"]["start_ms"]
    pipe = PL.load_pipeline(json.dumps(PL.default_pipeline_config(format_iso8601_ms(start)[:10])))
    for kind in LogKind:
        ctx = DayContext(day_start_ms(start))
        with open(f"{small_corpus['dir']}/{C.FILENAME_FOR_KIND[kind]}", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines
        for offset, line in enumerate(lines):
            assert C.render_line(check_line(pipe, ctx, kind, line, offset)) == line


@pytest.mark.parametrize(
    "kind,line",
    [
        (LogKind.FRONTEND, GOOD_FRONTEND.replace("T12:", " 12:")),
        (LogKind.BACKEND, (
            "2024-03-01T13:00:00.500+01:00 - WARN [b7]: srmPing user=''"
            " surls='' result=SRM_SUCCESS"
        )),
        (LogKind.FRONTEND, (
            "2024-03-01T12:00:00.123Z [x1] ERROR: srmLs user='' fqans=''"
            " msg='client=131.154.10.2 took=1.5ms'"
        )),
    ],
    ids=["iso-space-separator", "iso-offset", "frontend-no-surl-empty-user"],
)
def test_non_canonical_lines_agree(default_pipeline, kind, line):
    check_line(default_pipeline, DayContext(0), kind, line, 0)


def test_stock_grok_stages_use_the_codec_grammars():
    routes = PL.default_pipeline_config(BASE)["routes"]
    assert set(routes) == {kind.value for kind in C.GRAMMARS}
    for kind_token, stages in routes.items():
        groks = [stage["pattern"] for stage in stages if stage["type"] == "grok"]
        assert groks == [C.GRAMMARS[LogKind(kind_token)]]


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the stock frontend route drops the SURL with `surl_clause`;"
    " ROADMAP item 6 keeps it with a post-grok step that takes `surl_clause[7:-1]`",
)
def test_frontend_document_keeps_surl(default_pipeline):
    doc = PL.process(default_pipeline, frontend_record(GOOD_FRONTEND))
    assert doc.fields.get("surl") == "srm://x/y"
