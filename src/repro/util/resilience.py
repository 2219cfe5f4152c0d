"""Retry and backoff schedule for fault-tolerant execution.

The experiment layer fans independent tasks across worker processes; a
crashed or hung worker must not take the campaign down with it. The
process fan-out (:func:`repro.experiments.parallel.fanout`) is the one
place a task is retried or timed out, because only a worker process can
be killed. This module provides its schedule:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  **deterministic** jitter. The jitter for attempt ``a`` of task ``key`` is
  drawn from an RNG derived via :func:`~repro.util.rng.ensure_rng` /
  :func:`~repro.util.rng.spawn_rng` from ``(key, a)`` alone, so two runs of
  the same campaign back off identically — reproducibility extends to the
  failure path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.exceptions import ValidationError
from repro.util.rng import ensure_rng, spawn_rng
from repro.util.validation import (
    check_nonnegative,
    check_positive_int,
    check_probability,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry schedule with exponential backoff and deterministic
    jitter.

    Attributes:
        attempts: total attempts per task (1 = no retry).
        base_delay: delay before the first retry, seconds.
        factor: multiplicative backoff per further retry.
        max_delay: cap on the un-jittered delay.
        jitter: fraction of the delay randomized symmetrically around it
            (0.25 means the actual delay is within ±25% of nominal). The
            randomness is a pure function of ``(key, attempt)``, never of
            shared mutable state.
    """

    attempts: int = 1
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        check_positive_int(self.attempts, "attempts")
        check_nonnegative(self.base_delay, "base_delay")
        if self.factor < 1.0:
            raise ValidationError(
                f"factor must be >= 1, got {self.factor!r}"
            )
        check_nonnegative(self.max_delay, "max_delay")
        check_probability(self.jitter, "jitter")

    def delay(self, attempt: int, key: Any = None) -> float:
        """Backoff delay after failed attempt number *attempt* (1-based)."""
        check_positive_int(attempt, "attempt")
        nominal = min(
            self.base_delay * self.factor ** (attempt - 1), self.max_delay
        )
        if self.jitter == 0.0 or nominal == 0.0:
            return nominal
        # Deterministic jitter: derive a child stream from (key, attempt)
        # alone so the schedule is reproducible across runs and processes.
        rng = spawn_rng(ensure_rng((repr(key), attempt)), "retry-jitter")
        return nominal * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def delays(self, key: Any = None) -> Iterator[float]:
        """The full backoff schedule (one delay per possible retry)."""
        for attempt in range(1, self.attempts):
            yield self.delay(attempt, key)


#: Policy used when callers ask for "n retries" without tuning knobs.
def policy_for_retries(retries: int) -> RetryPolicy:
    """A :class:`RetryPolicy` granting *retries* extra attempts."""
    if retries < 0:
        raise ValidationError(f"retries must be >= 0, got {retries!r}")
    return RetryPolicy(attempts=retries + 1)
