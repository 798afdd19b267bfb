import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stormwatch import anomaly as A
from stormwatch.metrics import MetricSeries


def series_of(values, span=60):
    return MetricSeries(
        start_ms=0, span_seconds=span, values=list(values),
        sample_counts=[0 if v is None else 1 for v in values],
    )


def gaussian_series(rng, n, mu, sigma):
    return series_of([rng.gauss(mu, sigma) for _ in range(n)])


class TestErfc:
    def test_agrees_with_platform_erfc(self):
        worst = 0.0
        for i in range(0, 8001):
            z = i / 1000.0
            x = z / math.sqrt(2.0)
            reference = math.erfc(x)
            got = A.erfc(x)
            rel = abs(got - reference) / reference
            worst = max(worst, rel)
        assert worst <= 1e-6, worst

    def test_negative_arguments(self):
        for x in (-4.0, -1.2, -0.3):
            assert abs(A.erfc(x) - math.erfc(x)) < 1e-12

    def test_extremes(self):
        assert A.erfc(0.0) == 1.0
        assert A.erfc(30.0) == 0.0
        assert A.erfc(-30.0) == 2.0

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            A.erfc(float("nan"))


class TestScoreCalibration:
    def test_z3_anchor(self):
        p = A.gaussian_tail_probability(3.0)
        assert math.isclose(p, 2.6998e-3, rel_tol=1e-4)
        score = A.severity_score(p)
        assert abs(score - 25.7) <= 0.5
        assert A.level_for_score(score) == "warning"

    def test_z5_anchor(self):
        p = A.gaussian_tail_probability(5.0)
        assert math.isclose(p, 5.733e-7, rel_tol=1e-4)
        score = A.severity_score(p)
        assert abs(score - 62.4) <= 0.5
        assert A.level_for_score(score) == "major"

    def test_center_scores_zero(self):
        model = _warm_model(value=10.0)
        tail_p, score, level = A.score_point(model, model.mean)
        assert tail_p == 1.0 and score == 0.0 and level is None

    def test_level_cutpoints(self):
        assert A.level_for_score(4.99) is None
        assert A.level_for_score(5.0) == "low"
        assert A.level_for_score(24.99) == "low"
        assert A.level_for_score(25.0) == "warning"
        assert A.level_for_score(50.0) == "major"
        assert A.level_for_score(75.0) == "critical"
        assert A.level_for_score(100.0) == "critical"

    def test_score_during_warmup_is_error(self):
        model = A.BaselineModel()
        model = A.update(model, 1.0)
        with pytest.raises(A.WarmupError):
            A.score_point(model, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0, max_value=12), st.floats(min_value=0, max_value=12))
    def test_monotone_symmetric_severity(self, z1, z2):
        s1 = A.severity_score(A.gaussian_tail_probability(z1))
        s2 = A.severity_score(A.gaussian_tail_probability(z2))
        if z1 < z2:
            assert s1 <= s2
        assert s1 == A.severity_score(A.gaussian_tail_probability(-z1))


def _warm_model(value=10.0, n=30, sigma=1.0, seed=3):
    rng = random.Random(seed)
    model = A.BaselineModel()
    for _ in range(n):
        model = A.update(model, rng.gauss(value, sigma))
    return model


class TestUpdate:
    def test_first_observation_initializes(self):
        model = A.update(A.BaselineModel(), 42.0)
        assert model.mean == 42.0
        assert model.variance == 0.0
        assert model.observed == 1
        assert model.sigma == max(1e-9, 1e-6 * 42.0)

    def test_constant_stream_fixed_point(self):
        model = A.BaselineModel()
        for _ in range(100):
            model = A.update(model, 7.5)
        assert model.mean == 7.5
        assert model.sigma == max(1e-9, 1e-6 * 7.5)

    def test_non_finite_rejected(self):
        model = _warm_model()
        with pytest.raises(ValueError):
            A.update(model, float("nan"))
        with pytest.raises(ValueError):
            A.update(model, float("inf"))

    def test_statistical_convergence(self):
        rng = random.Random(42)
        model = A.BaselineModel()
        for _ in range(5000):
            model = A.update(model, rng.gauss(100.0, 5.0))
        assert abs(model.mean - 100.0) < 1.0
        assert 4.0 <= model.sigma <= 6.0

    def test_extreme_outlier_barely_moves_mean(self):
        model = _warm_model(value=10.0, n=100)
        x = model.mean + 20.0 * model.sigma
        moved = abs(A.update(model, x).mean - model.mean)
        assert moved <= model.decay * abs(x - model.mean) * 0.05

    def test_update_is_pure(self):
        model = _warm_model()
        before = (model.mean, model.variance, model.observed)
        A.update(model, 123.0)
        assert (model.mean, model.variance, model.observed) == before


class TestDetect:
    def test_warmup_silence(self):
        rng = random.Random(1)
        series = gaussian_series(rng, 200, 50, 3)
        series.values[5] = 500.0  # in-warmup outlier must not be recorded
        result = A.detect(series)
        warmup = A.DetectorParams().warmup_buckets
        assert all(r.bucket_start // 60_000 >= warmup for r in result.records)

    def test_stationary_false_positive_fraction(self):
        rng = random.Random(7)
        series = gaussian_series(rng, 2020, 50, 3)
        result = A.detect(series)
        loud = [r for r in result.records if r.score >= 25]
        assert len(loud) / 2000 <= 0.01

    def test_bound_coverage_three_sigma(self):
        rng = random.Random(11)
        n = 10_020
        series = gaussian_series(rng, n, 50, 3)
        result = A.detect(series)
        warmup = A.DetectorParams().warmup_buckets
        outside = total = 0
        for i in range(warmup, n):
            lower, upper = result.bounds[i]
            total += 1
            if not lower <= series.values[i] <= upper:
                outside += 1
        assert 0.001 <= outside / total <= 0.01

    def test_order_of_magnitude_step_detected_fast(self):
        rng = random.Random(5)
        values = [rng.gauss(20, 0.8) for _ in range(60)]
        values += [rng.gauss(200, 8) for _ in range(40)]
        result = A.detect(series_of(values))
        criticals = [r for r in result.records if r.level == "critical"]
        assert criticals
        first_bucket = criticals[0].bucket_start // 60_000
        assert 60 <= first_bucket < 63
        in_window = [
            r for r in result.records
            if r.bucket_start // 60_000 >= 60
            and r.level in ("warning", "major", "critical")
        ]
        assert len(in_window) >= 0.8 * 40

    def test_all_absent_series_is_inert(self):
        result = A.detect(series_of([None] * 50))
        assert result.records == []
        assert result.model.observed == 0
        assert all(b is None for b in result.bounds)

    def test_absent_buckets_skip_scoring_and_update(self):
        rng = random.Random(9)
        values = [rng.gauss(10, 1) for _ in range(50)]
        with_gaps = list(values)
        for i in range(25, 30):
            with_gaps[i] = None
        dense_model = A.detect(series_of(values[:25] + values[30:])).model
        gappy_model = A.detect(series_of(with_gaps)).model
        assert gappy_model.mean == dense_model.mean
        assert gappy_model.observed == dense_model.observed

    def test_records_carry_pre_update_bounds(self):
        rng = random.Random(13)
        values = [rng.gauss(30, 2) for _ in range(40)] + [400.0]
        result = A.detect(series_of(values))
        record = result.records[-1]
        assert record.actual == 400.0
        assert record.upper < 400.0
        assert record.lower <= record.typical <= record.upper
        assert record.level == "critical"

    def test_bounds_reflect_k_parameter(self):
        rng = random.Random(21)
        series = gaussian_series(rng, 100, 50, 3)
        wide = A.detect(series, A.DetectorParams(k_bound=5.0))
        narrow = A.detect(series, A.DetectorParams(k_bound=2.0))
        for w, n in zip(wide.bounds[1:], narrow.bounds[1:]):
            assert w[1] - w[0] > n[1] - n[0]


class TestForecast:
    def test_flat_prediction_and_first_band(self):
        model = _warm_model(value=20.0, n=200)
        points = A.forecast(model, horizon_buckets=5, start_ms=0, span_seconds=60)
        assert len(points) == 5
        assert {p.predicted for p in points} == {model.mean}
        expected_half = model.k_bound * model.sigma * math.sqrt(1.05)
        assert math.isclose(points[0].upper - points[0].predicted, expected_half)

    def test_band_width_non_decreasing(self):
        model = _warm_model()
        points = A.forecast(model, horizon_buckets=100)
        widths = [p.upper - p.lower for p in points]
        assert widths == sorted(widths)
        assert widths[99] > widths[0]

    def test_bucket_starts_follow_span(self):
        model = _warm_model()
        points = A.forecast(model, 3, start_ms=1_000_000, span_seconds=30)
        assert [p.bucket_start for p in points] == [1_000_000, 1_030_000, 1_060_000]

    def test_horizon_and_warmup_validation(self):
        model = _warm_model()
        with pytest.raises(ValueError):
            A.forecast(model, 0)
        fresh = A.update(A.BaselineModel(), 1.0)
        with pytest.raises(A.WarmupError):
            A.forecast(fresh, 5)

    def test_absorbed_step_forecasts_new_level(self):
        rng = random.Random(33)
        pre = [rng.gauss(10.0, 3.0) for _ in range(60)]
        post = [rng.gauss(19.0, 3.0) for _ in range(400)]
        result = A.detect(series_of(pre + post))
        post_mean = sum(post) / len(post)
        forecast = A.forecast(result.model, 1)[0].predicted
        assert abs(forecast - post_mean) / post_mean < 0.10


class TestCsvWriters:
    def test_records_csv_columns(self):
        record = A.AnomalyRecord(60_000, 9.0, 5.0, 2.0, 8.0, 1e-4, 40.0, "warning")
        text = A.records_to_csv([record])
        lines = text.strip().splitlines()
        assert lines[0] == "bucket_start,actual,typical,lower,upper,score,level"
        assert lines[1].startswith("60000,9.0,5.0,2.0,8.0,40.0")
        assert lines[1].endswith("warning")

    def test_bounds_csv_has_row_per_bucket(self):
        rng = random.Random(2)
        series = gaussian_series(rng, 30, 10, 1)
        result = A.detect(series)
        lines = A.bounds_to_csv(result).strip().splitlines()
        assert len(lines) == 31

    def test_forecast_csv(self):
        model = _warm_model()
        text = A.forecast_to_csv(A.forecast(model, 2))
        assert text.splitlines()[0] == "bucket_start,predicted,lower,upper"
        assert len(text.strip().splitlines()) == 3
