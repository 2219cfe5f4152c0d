"""Order statistics and tolerance checks used by the benchmark.

Everything here is pure arithmetic on plain lists, so the rules the
benchmark reports by (which percentile a sample supports, how a Monte-Carlo
rate is compared with its analytic value) are unit-tested on their own.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (0 < q <= 100) of *values*.

    ``inf`` entries (failed or refused requests) sort last, so they count
    as exceeding every finite limit.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie strictly beyond the nearest-rank
    percentile *q*."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supports_percentile(count: int, q: float) -> bool:
    """Whether *count* samples leave at least :data:`MIN_BEYOND` beyond
    percentile *q*."""
    return count > 0 and samples_beyond(count, q) >= MIN_BEYOND


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the steadiness
    measure the benchmark is tuned against)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def finite_or(value: float, fallback: float) -> float:
    """*value*, or *fallback* when it is not finite (JSON has no inf)."""
    return value if math.isfinite(value) else fallback


# ------------------------------------------------------ Monte-Carlo checks


def rate_tolerance(
    probabilities: Sequence[float], trials: int, z: float = 4.5
) -> float:
    """Allowed |observed - expected| for the mean of per-pair delivery
    rates, each estimated from *trials* Bernoulli trials.

    Pairs share each trial's failure sample, so their estimates are
    correlated; the standard deviation of the mean is bounded by the mean
    of the per-pair standard deviations (the perfectly correlated case),
    which is what this uses. The tolerance never depends on the RNG
    stream, so a correct sampler drawing different numbers passes.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not probabilities:
        return 0.0
    sd = sum(
        math.sqrt(max(p * (1.0 - p), 0.0) / trials) for p in probabilities
    ) / len(probabilities)
    # Half a trial of slack keeps the check meaningful when every pair is
    # certain (p in {0, 1}), where the binomial deviation is exactly 0.
    return z * sd + 0.5 / trials


def rate_matches(
    observed: float,
    probabilities: Sequence[float],
    trials: int,
    z: float = 4.5,
) -> Tuple[bool, float, float]:
    """``(ok, expected, tolerance)`` for an observed mean delivery rate
    against the analytic per-pair success probabilities."""
    expected = (
        sum(probabilities) / len(probabilities) if probabilities else 0.0
    )
    tolerance = rate_tolerance(probabilities, trials, z)
    return abs(observed - expected) <= tolerance, expected, tolerance


def not_below(
    higher: float, lower: float, trials_high: int, trials_low: int,
    z: float = 4.5,
) -> bool:
    """Whether a rate that should dominate (*higher*) is not
    significantly below another, each a mean of rates from independent
    samples of the given trial counts."""
    slack = z * math.sqrt(0.25 / trials_high + 0.25 / trials_low)
    return higher >= lower - slack


def wilson_upper(successes: int, trials: int, z: float) -> float:
    """Upper end of the Wilson score interval for ``successes/trials``."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(
        p * (1.0 - p) / trials + z * z / (4 * trials * trials)
    ) / denom
    return min(1.0, center + half)


def binomial_cdf(count: int, trials: int, p: float) -> float:
    """``P(X <= count)`` for ``X ~ Binomial(trials, p)``."""
    if count < 0:
        return 0.0
    if count >= trials or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(trials + 1)
    return min(1.0, sum(
        math.exp(
            log_n - math.lgamma(c + 1) - math.lgamma(trials - c + 1)
            + c * log_p + (trials - c) * log_q
        )
        for c in range(count + 1)
    ))


def wilson_flag_risk(
    p: float, trials: int, requirement: float, z: float
) -> float:
    """Chance that a pair delivering with true probability *p* is flagged
    as below *requirement* because its Wilson upper bound (from *trials*
    trials) falls under it — the false-alarm rate of that rule."""
    below = [
        c for c in range(trials + 1)
        if wilson_upper(c, trials, z) < requirement
    ]
    return binomial_cdf(below[-1], trials, p) if below else 0.0


def flags_allowed(risks: Sequence[float], alpha: float = 1e-6) -> int:
    """The most independent false alarms, with per-item chances *risks*,
    that chance alone explains: the smallest count exceeded with
    probability at most *alpha* (exact Poisson-binomial tail)."""
    dist = [1.0]
    for r in risks:
        dist = [
            (dist[j] if j < len(dist) else 0.0) * (1.0 - r)
            + (dist[j - 1] * r if j > 0 else 0.0)
            for j in range(len(dist) + 1)
        ]
    tail = 1.0
    for count, mass in enumerate(dist):
        tail -= mass
        if tail <= alpha:
            return count
    return len(dist) - 1


def timing_summary(
    latencies_ms: Sequence[float], q_high: float = 95.0
) -> Dict[str, Optional[float]]:
    """Median and the *q_high* percentile with the sample count, and
    whether the sample supports that percentile."""
    count = len(latencies_ms)
    return {
        "count": count,
        "p50": percentile(latencies_ms, 50.0) if count else None,
        "high": percentile(latencies_ms, q_high) if count else None,
        "supported": supports_percentile(count, q_high),
    }
