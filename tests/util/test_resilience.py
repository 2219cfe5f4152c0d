"""Tests for repro.util.resilience: the deterministic backoff schedule."""

import pytest

from repro.exceptions import ValidationError
from repro.util.resilience import RetryPolicy, policy_for_retries


class TestRetryPolicy:
    def test_defaults_mean_single_attempt(self):
        assert RetryPolicy().attempts == 1
        assert list(RetryPolicy().delays("key")) == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValidationError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, factor=2.0, max_delay=0.3,
            jitter=0.0,
        )
        assert list(policy.delays("k")) == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy(attempts=4, base_delay=0.1, jitter=0.25)
        first = list(policy.delays(("fig1", "quick", 1)))
        second = list(policy.delays(("fig1", "quick", 1)))
        assert first == second  # pure function of (key, attempt)
        other = list(policy.delays(("fig2", "quick", 1)))
        assert first != other  # distinct keys decorrelate

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(attempts=2, base_delay=1.0, jitter=0.25)
        for key in range(50):
            delay = policy.delay(1, key)
            assert 0.75 <= delay <= 1.25

    def test_policy_for_retries(self):
        assert policy_for_retries(0).attempts == 1
        assert policy_for_retries(3).attempts == 4
        with pytest.raises(ValidationError):
            policy_for_retries(-1)
