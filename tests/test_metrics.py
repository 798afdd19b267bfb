import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stormwatch import index as IX
from stormwatch import metrics as M
from stormwatch.pipeline import Document

BASE_TS = 1709251200000
INDEX = "storm-backend-metrics-2024.03.01"


def store_with(values_by_ts):
    store = IX.Store()
    for i, (ts, value) in enumerate(values_by_ts):
        fields = {"@timestamp": ts, "kind": "backend-metrics", "action": "synch.ls"}
        if value is not None:
            fields["mean_ms"] = value
        IX.index_document(store, Document(id=f"m{i}", fields=fields, index_name=INDEX))
    return store


class TestMetricSpec:
    def test_field_detector_requires_field(self):
        with pytest.raises(M.MetricError):
            M.MetricSpec(indices="storm-*", detector="mean")

    def test_span_must_be_positive(self):
        with pytest.raises(M.MetricError):
            M.MetricSpec(indices="storm-*", bucket_span_seconds=0)

    def test_json_round_trip(self):
        spec = M.MetricSpec(
            indices="storm-backend-metrics-*",
            filter=IX.Term("action", "synch.ls"),
            detector="mean",
            detector_field="mean_ms",
            bucket_span_seconds=120,
        )
        obj = {
            "indices": "storm-backend-metrics-*",
            "filter": {"term": {"field": "action", "value": "synch.ls"}},
            "detector": {"kind": "mean", "field": "mean_ms"},
            "bucket_span_seconds": 120,
        }
        assert M.metric_spec_from_json(obj) == spec

    @pytest.mark.parametrize(
        "obj",
        [
            "storm-*",
            {"indices": "storm-*", "bucket_span_seconds": None},
            {"indices": "storm-*", "detector": ["mean"]},
        ],
    )
    def test_wrongly_typed_json_is_metric_error(self, obj):
        with pytest.raises(M.MetricError, match="bad metric"):
            M.metric_spec_from_json(obj)


class TestBuildSeries:
    def test_count_of_three_in_one_bucket(self):
        store = store_with([(BASE_TS + i * 1000, 1.0) for i in range(3)])
        spec = M.MetricSpec(indices="storm-*")
        series = M.build_series(store, spec, BASE_TS, BASE_TS + 60_000)
        assert series.values == [3.0]
        assert series.sample_counts == [3]

    def test_mean_of_two_values(self):
        store = store_with([(BASE_TS, 100.0), (BASE_TS + 1000, 200.0)])
        spec = M.MetricSpec(indices="storm-*", detector="mean", detector_field="mean_ms")
        series = M.build_series(store, spec, BASE_TS, BASE_TS + 60_000)
        assert series.values == [150.0]

    def test_empty_bucket_semantics(self):
        store = store_with([(BASE_TS, 5.0), (BASE_TS + 120_000, 7.0)])
        count_spec = M.MetricSpec(indices="storm-*")
        counts = M.build_series(store, count_spec, BASE_TS, BASE_TS + 180_000)
        assert counts.values == [1.0, 0.0, 1.0]
        mean_spec = M.MetricSpec(indices="storm-*", detector="mean", detector_field="mean_ms")
        means = M.build_series(store, mean_spec, BASE_TS, BASE_TS + 180_000)
        assert means.values == [5.0, None, 7.0]

    def test_start_alignment_and_bucket_count(self):
        store = store_with([(BASE_TS + 90_000, 1.0)])
        spec = M.MetricSpec(indices="storm-*")
        series = M.build_series(store, spec, BASE_TS + 30_000, BASE_TS + 150_000)
        assert series.start_ms == BASE_TS
        assert len(series) == 3
        assert series.start_ms % (spec.bucket_span_seconds * 1000) == 0

    def test_bad_range_rejected(self):
        with pytest.raises(M.MetricError):
            M.build_series(IX.Store(), M.MetricSpec(indices="*"), 10, 10)

    def test_non_numeric_detector_field_rejected(self):
        store = store_with([(BASE_TS, 1.0)])
        spec = M.MetricSpec(indices="storm-*", detector="mean", detector_field="action")
        with pytest.raises(M.MetricError):
            M.build_series(store, spec, BASE_TS, BASE_TS + 60_000)

    def test_group_by_oracle_on_random_corpus(self):
        rng = random.Random(17)
        rows = [
            (BASE_TS + rng.randrange(0, 1800) * 1000, rng.uniform(1, 500))
            for _ in range(2500)
        ]
        store = store_with(rows)
        for detector, field in (
            ("count", None), ("mean", "mean_ms"), ("max", "mean_ms"),
            ("min", "mean_ms"), ("sum", "mean_ms"),
        ):
            spec = M.MetricSpec(
                indices="storm-*", detector=detector, detector_field=field,
                bucket_span_seconds=60,
            )
            series = M.build_series(store, spec, BASE_TS, BASE_TS + 1_800_000)
            groups: dict[int, list[float]] = {}
            for ts, value in rows:
                groups.setdefault((ts - BASE_TS) // 60_000, []).append(value)
            for slot in range(len(series)):
                bucket = groups.get(slot, [])
                assert series.sample_counts[slot] == len(bucket)
                if detector == "count":
                    assert series.values[slot] == float(len(bucket))
                elif not bucket:
                    assert series.values[slot] is None
                elif detector == "mean":
                    assert series.values[slot] == math.fsum(bucket) / len(bucket)
                elif detector == "max":
                    assert series.values[slot] == max(bucket)
                elif detector == "min":
                    assert series.values[slot] == min(bucket)
                else:
                    assert series.values[slot] == math.fsum(bucket)
            assert sum(series.sample_counts) == len(rows)

    def test_filter_is_applied(self):
        store = IX.Store()
        for i, status in enumerate(["INFO", "ERROR", "INFO"]):
            doc = Document(
                id=f"s{i}",
                fields={"@timestamp": BASE_TS + i, "status": status, "kind": "backend"},
                index_name="storm-backend-2024.03.01",
            )
            IX.index_document(store, doc)
        spec = M.MetricSpec(indices="storm-backend-*", filter=IX.Term("status", "INFO"))
        series = M.build_series(store, spec, BASE_TS, BASE_TS + 60_000)
        assert series.values == [2.0]


class TestGapFill:
    def _series(self, values):
        return M.MetricSeries(
            start_ms=BASE_TS, span_seconds=60, values=values,
            sample_counts=[0 if v is None else 1 for v in values],
        )

    def test_interpolate_midpoint(self):
        filled = M.gap_fill(self._series([1.0, None, 3.0]), "interpolate")
        assert filled.values == [1.0, 2.0, 3.0]

    def test_interpolate_leaves_edges_absent(self):
        filled = M.gap_fill(self._series([None, 2.0, None]), "interpolate")
        assert filled.values == [None, 2.0, None]

    def test_interpolate_long_gap(self):
        filled = M.gap_fill(self._series([0.0, None, None, None, 8.0]), "interpolate")
        assert filled.values == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_zero_policy(self):
        series = self._series([1.0, None, 3.0])
        filled = M.gap_fill(series, "zero")
        assert filled.values == [1.0, 0.0, 3.0]
        assert filled.sample_counts == series.sample_counts

    def test_skip_policy_is_identity(self):
        series = self._series([None, 1.0, None])
        assert M.gap_fill(series, "skip").values == series.values

    def test_unknown_policy(self):
        with pytest.raises(M.MetricError):
            M.gap_fill(self._series([1.0]), "extrapolate")


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3599),
            st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_detector_algebra(rows):
    docs = [(BASE_TS + offset * 1000, value) for offset, value in rows]
    store = store_with(docs)
    mean_spec = M.MetricSpec(indices="storm-*", detector="mean", detector_field="mean_ms")
    sum_spec = M.MetricSpec(indices="storm-*", detector="sum", detector_field="mean_ms")
    means = M.build_series(store, mean_spec, BASE_TS, BASE_TS + 3_600_000)
    sums = M.build_series(store, sum_spec, BASE_TS, BASE_TS + 3_600_000)
    for mean, total, count in zip(means.values, sums.values, means.sample_counts):
        if mean is None:
            assert total is None
        else:
            assert math.isclose(total, mean * count, rel_tol=1e-9)


def test_csv_export_shape():
    series = M.MetricSeries(BASE_TS, 60, [1.5, None], [3, 0])
    text = M.series_to_csv(series)
    lines = text.strip().splitlines()
    assert lines[0] == "bucket_start,value,sample_count"
    assert lines[1] == f"{BASE_TS},1.5,3"
    assert lines[2] == f"{BASE_TS + 60_000},,0"
