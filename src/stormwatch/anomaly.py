"""Online univariate anomaly detection over a metric series.

The baseline is an exponentially weighted Gaussian: mean and variance decay
with factor `alpha` per bucket. Each bucket is scored against the model
*before* it updates the model: the two-sided Gaussian tail probability of
its deviation maps to a 0-100 severity (-10*log10(p), clamped), and the
severity maps to an alert level. Updates down-weight anomalous points by
w = 1 - score/100, so isolated outliers barely move the baseline while a
sustained moderate shift retrains it.

The forecast extrapolates a flat line at the current mean; the uncertainty
band grows with the horizon as sigma * sqrt(1 + beta*h).

The Gaussian tail comes from the platform's `math.erfc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .metrics import MAX_BUCKETS, MetricSeries

_SQRT_HALF = math.sqrt(0.5)

SIGMA_FLOOR_ABS = 1e-9
SIGMA_FLOOR_REL = 1e-6

# Severity cut-points: low [5,25) warning [25,50) major [50,75) critical [75,100].
LEVEL_CUTPOINTS = (5.0, 25.0, 50.0, 75.0)
LEVEL_NAMES = ("low", "warning", "major", "critical")


class WarmupError(ValueError):
    pass


def erfc(x: float) -> float:
    """Complementary error function; NaN is an error, not a NaN result."""
    if x != x:
        raise ValueError("erfc of NaN")
    return math.erfc(x)


def gaussian_tail_probability(z: float) -> float:
    """Two-sided tail P(|Z| >= z) for a standard normal deviate."""
    return erfc(abs(z) * _SQRT_HALF)


def severity_score(tail_p: float) -> float:
    if tail_p <= 0.0:
        return 100.0
    return max(0.0, min(100.0, -10.0 * math.log10(tail_p)))


def level_for_score(score: float, cutpoints=LEVEL_CUTPOINTS) -> str | None:
    """Alert level for a severity score; None below the record threshold."""
    if score < cutpoints[0]:
        return None
    for name, cut in zip(reversed(LEVEL_NAMES), reversed(cutpoints)):
        if score >= cut:
            return name
    return None


@dataclass
class BaselineModel:
    """Exponentially weighted Gaussian baseline."""

    decay: float = 0.02
    warmup_buckets: int = 20
    k_bound: float = 3.0
    mean: float = 0.0
    variance: float = 0.0
    observed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if self.warmup_buckets < 1:
            raise ValueError("warmup_buckets must be >= 1")
        if self.k_bound <= 0.0:
            raise ValueError("k_bound must be positive")

    @property
    def sigma(self) -> float:
        floor = max(SIGMA_FLOOR_ABS, SIGMA_FLOOR_REL * abs(self.mean))
        return max(math.sqrt(max(self.variance, 0.0)), floor)

    @property
    def in_warmup(self) -> bool:
        return self.observed < self.warmup_buckets

    def bounds(self) -> tuple[float, float]:
        half = self.k_bound * self.sigma
        return (self.mean - half, self.mean + half)


def score_point(model: BaselineModel, x: float) -> tuple[float, float, str | None]:
    """(tail probability, severity score, level) of `x` under the model.

    Only defined past warmup; severity is symmetric in the deviation and
    monotone in |x - mean|.
    """
    if model.in_warmup:
        raise WarmupError(
            f"model has seen {model.observed} of {model.warmup_buckets} warmup buckets"
        )
    z = abs(x - model.mean) / model.sigma
    tail_p = gaussian_tail_probability(z)
    score = severity_score(tail_p)
    return tail_p, score, level_for_score(score)


def update(model: BaselineModel, x: float) -> BaselineModel:
    """Absorb one observation, returning the updated model.

    The new point is weighted by w = 1 - score/100 (scored against the
    pre-update state; w = 1 during warmup), then folded into the decayed
    mean and variance.
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite observation: {x!r}")
    if model.observed == 0:
        return BaselineModel(
            decay=model.decay,
            warmup_buckets=model.warmup_buckets,
            k_bound=model.k_bound,
            mean=x,
            variance=0.0,
            observed=1,
        )
    if model.in_warmup:
        weight = 1.0
    else:
        _, score, _ = score_point(model, x)
        weight = 1.0 - score / 100.0
    a = model.decay * weight
    delta = x - model.mean
    return BaselineModel(
        decay=model.decay,
        warmup_buckets=model.warmup_buckets,
        k_bound=model.k_bound,
        mean=model.mean + a * delta,
        variance=(1.0 - a) * (model.variance + a * delta * delta),
        observed=model.observed + 1,
    )


@dataclass(frozen=True)
class AnomalyRecord:
    bucket_start: int
    actual: float
    typical: float
    lower: float
    upper: float
    tail_p: float
    score: float
    level: str


@dataclass(frozen=True)
class ForecastPoint:
    bucket_start: int
    predicted: float
    lower: float
    upper: float


@dataclass
class DetectorParams:
    decay: float = 0.02
    warmup_buckets: int = 20
    k_bound: float = 3.0
    level_cutpoints: tuple[float, float, float, float] = LEVEL_CUTPOINTS

    def new_model(self) -> BaselineModel:
        return BaselineModel(
            decay=self.decay,
            warmup_buckets=self.warmup_buckets,
            k_bound=self.k_bound,
        )


@dataclass
class DetectionResult:
    bounds: list[tuple[float, float] | None]
    records: list[AnomalyRecord]
    model: BaselineModel
    series: MetricSeries = field(repr=False)


def detect(series: MetricSeries, params: DetectorParams | None = None) -> DetectionResult:
    """Sequential pass over a series: score, record, then update per bucket.

    Bounds are the pre-update model band at every bucket (None until the
    model has seen a point). Absent buckets neither score nor update.
    Records exist only past warmup and at severity >= the lowest cut-point.
    """
    if params is None:
        params = DetectorParams()
    model = params.new_model()
    bounds: list[tuple[float, float] | None] = []
    records: list[AnomalyRecord] = []
    for i, x in enumerate(series.values):
        bounds.append(model.bounds() if model.observed > 0 else None)
        if x is None:
            continue
        if not model.in_warmup:
            tail_p, score, _ = score_point(model, x)
            level = level_for_score(score, params.level_cutpoints)
            if level is not None:
                lower, upper = model.bounds()
                records.append(
                    AnomalyRecord(
                        bucket_start=series.bucket_start(i),
                        actual=x,
                        typical=model.mean,
                        lower=lower,
                        upper=upper,
                        tail_p=tail_p,
                        score=score,
                        level=level,
                    )
                )
        model = update(model, x)
    return DetectionResult(bounds=bounds, records=records, model=model, series=series)


def forecast(
    model: BaselineModel,
    horizon_buckets: int,
    start_ms: int = 0,
    span_seconds: int = 60,
    beta: float = 0.05,
) -> list[ForecastPoint]:
    """Flat forecast at the trained mean with a widening uncertainty band.

    Point h (1-based) has band half-width k_bound * sigma * sqrt(1 + beta*h),
    so the band is non-decreasing in the horizon while the prediction stays
    constant: only the average behaviour of the model extrapolates.
    """
    if model.in_warmup:
        raise WarmupError("forecast requires a model past warmup")
    if not 1 <= horizon_buckets <= MAX_BUCKETS:
        raise ValueError(f"horizon must be within [1, {MAX_BUCKETS}]")
    span_ms = span_seconds * 1000
    points = []
    for h in range(1, horizon_buckets + 1):
        half = model.k_bound * model.sigma * math.sqrt(1.0 + beta * h)
        points.append(
            ForecastPoint(
                bucket_start=start_ms + (h - 1) * span_ms,
                predicted=model.mean,
                lower=model.mean - half,
                upper=model.mean + half,
            )
        )
    return points


def records_to_csv(records: list[AnomalyRecord]) -> str:
    lines = ["bucket_start,actual,typical,lower,upper,score,level"]
    for r in records:
        lines.append(
            f"{r.bucket_start},{r.actual!r},{r.typical!r},"
            f"{r.lower!r},{r.upper!r},{r.score!r},{r.level}"
        )
    return "\n".join(lines) + "\n"


def bounds_to_csv(result: DetectionResult) -> str:
    lines = ["bucket_start,value,lower,upper"]
    for i, band in enumerate(result.bounds):
        value = result.series.values[i]
        cells = [
            str(result.series.bucket_start(i)),
            "" if value is None else repr(value),
            "" if band is None else repr(band[0]),
            "" if band is None else repr(band[1]),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def forecast_to_csv(points: list[ForecastPoint]) -> str:
    lines = ["bucket_start,predicted,lower,upper"]
    for p in points:
        lines.append(f"{p.bucket_start},{p.predicted!r},{p.lower!r},{p.upper!r}")
    return "\n".join(lines) + "\n"
