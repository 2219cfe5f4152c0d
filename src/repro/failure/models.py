"""Link-failure models and the probability <-> length transform.

Section III of the paper maps each edge's failure probability ``p`` to a
length ``l = -ln(1 - p)``, under which a path's failure probability is
``1 - exp(-sum of lengths)``. Section VII-A3 sets each edge's failure
probability "proportional to the geographical distance between the two
endpoints"; the model classes here implement that and two alternatives used in
tests and examples.
"""

from __future__ import annotations

import math
from typing import Iterable, Protocol

from repro.util.validation import check_fraction, check_nonnegative


def failure_to_length(p: float) -> float:
    """Edge length ``-ln(1 - p)`` for failure probability ``p`` in [0, 1).

    ``p = 0`` (a perfectly reliable link, e.g. a shortcut edge) maps to
    length 0, exactly as the paper requires.
    """
    p = check_fraction(p, "failure probability")
    # log1p(-p) is numerically stable for small p.
    return -math.log1p(-p)


def length_to_failure(length: float) -> float:
    """Failure probability ``1 - exp(-length)`` for a length ``>= 0``."""
    length = check_nonnegative(length, "length")
    return -math.expm1(-length)


def satisfaction_limit(d_threshold: float) -> float:
    """Largest path length that still meets the requirement *d_threshold*.

    A small tolerance absorbs floating-point rounding, so a pair whose
    path length equals ``d_t`` in exact arithmetic counts as satisfied.
    Every satisfaction check in the library compares against this value.
    """
    return d_threshold + (1e-12 + 1e-9 * max(d_threshold, 0.0))


def path_failure_probability(edge_failures: Iterable[float]) -> float:
    """Failure probability of a path, Eq. (1): ``1 - prod(1 - p_i)``."""
    survival = 1.0
    for p in edge_failures:
        survival *= 1.0 - check_fraction(p, "edge failure probability")
    return 1.0 - survival


def path_length_from_failures(edge_failures: Iterable[float]) -> float:
    """Total path length ``sum(-ln(1 - p_i))`` — Eq. (1) in length space."""
    return sum(failure_to_length(p) for p in edge_failures)


class LinkFailureModel(Protocol):
    """Maps a geographical distance to a link failure probability."""

    def failure_probability(self, distance: float) -> float:
        """Failure probability of a link spanning *distance*."""
        ...


class ConstantFailure:
    """Every link fails with the same probability, regardless of distance."""

    def __init__(self, probability: float) -> None:
        self.probability = check_fraction(probability, "probability")

    def failure_probability(self, distance: float) -> float:
        check_nonnegative(distance, "distance")
        return self.probability

    def __repr__(self) -> str:
        return f"ConstantFailure({self.probability})"


class DistanceProportionalFailure:
    """Failure probability proportional to link distance (paper §VII-A3).

    ``p = min(coefficient * distance, cap)`` where *cap* keeps the value
    inside [0, 1). With links limited to a connectivity radius ``R``,
    ``coefficient = p_max / R`` gives failure probabilities in ``[0, p_max]``.
    """

    def __init__(self, coefficient: float, cap: float = 0.999) -> None:
        self.coefficient = check_nonnegative(coefficient, "coefficient")
        self.cap = check_fraction(cap, "cap")

    @classmethod
    def for_radius(
        cls, radius: float, max_probability: float
    ) -> "DistanceProportionalFailure":
        """Model where a link at exactly *radius* fails with
        *max_probability*."""
        radius = check_nonnegative(radius, "radius")
        max_probability = check_fraction(max_probability, "max_probability")
        if radius == 0:
            raise ValueError("radius must be > 0")
        return cls(max_probability / radius, cap=max(max_probability, 0.0))

    def failure_probability(self, distance: float) -> float:
        distance = check_nonnegative(distance, "distance")
        return min(self.coefficient * distance, self.cap)

    def __repr__(self) -> str:
        return (
            f"DistanceProportionalFailure(coefficient={self.coefficient}, "
            f"cap={self.cap})"
        )


#: Largest representable failure probability strictly below 1; models clamp
#: here so derived edge lengths stay finite even at extreme distances.
MAX_FAILURE_PROBABILITY = math.nextafter(1.0, 0.0)


class ExponentialDistanceFailure:
    """Failure probability ``1 - exp(-rate * distance)``.

    Under this model the derived edge length is exactly ``rate * distance``,
    i.e. path length equals geographical route length scaled by *rate* — handy
    in tests because distances become geometrically interpretable. The value
    is clamped just below 1 so it always remains a valid edge probability.
    """

    def __init__(self, rate: float) -> None:
        self.rate = check_nonnegative(rate, "rate")

    def failure_probability(self, distance: float) -> float:
        distance = check_nonnegative(distance, "distance")
        return min(
            -math.expm1(-self.rate * distance), MAX_FAILURE_PROBABILITY
        )

    def __repr__(self) -> str:
        return f"ExponentialDistanceFailure(rate={self.rate})"
