"""Backoff growth, deterministic jitter, and the isolation hookup."""

import time

import pytest

from repro.resilience.backoff import DEFAULT_BACKOFF, BackoffPolicy
from repro.resilience.errors import ConfigError
from repro.resilience.isolation import run_isolated


# Run in a forked subprocess: must be module-level.
def _flaky_cell(marker):
    import os

    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("seen")
        raise RuntimeError("transient wobble")
    return "recovered"


class TestRawDelay:
    def test_exponential_growth(self):
        policy = BackoffPolicy(base=0.1, multiplier=2.0, max_delay=10.0,
                               jitter=0.0)
        assert [policy.raw_delay(a) for a in (1, 2, 3)] == [0.1, 0.2, 0.4]

    def test_cap_applies(self):
        policy = BackoffPolicy(base=1.0, multiplier=10.0, max_delay=2.0)
        assert policy.raw_delay(5) == 2.0

    def test_attempts_are_one_based(self):
        with pytest.raises(ConfigError):
            DEFAULT_BACKOFF.raw_delay(0)


class TestJitter:
    def test_deterministic_per_token(self):
        policy = BackoffPolicy()
        assert policy.delay(2, "cellA") == policy.delay(2, "cellA")

    def test_tokens_decorrelate(self):
        policy = BackoffPolicy()
        delays = {policy.delay(1, f"cell{i}") for i in range(8)}
        assert len(delays) == 8

    def test_jitter_only_shrinks(self):
        policy = BackoffPolicy(base=1.0, jitter=0.5, max_delay=10.0)
        for attempt in range(1, 5):
            raw = policy.raw_delay(attempt)
            jittered = policy.delay(attempt, "t")
            assert raw / 2 <= jittered <= raw

    def test_zero_jitter_is_raw(self):
        policy = BackoffPolicy(jitter=0.0)
        assert policy.delay(3, "anything") == policy.raw_delay(3)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": -0.1},
            {"multiplier": 0.5},
            {"max_delay": -1.0},
            {"jitter": 1.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BackoffPolicy(**kwargs)


class TestIsolationIntegration:
    def test_transient_retry_sleeps_backoff(self, tmp_path):
        # A tiny but non-zero backoff: the retried run must take at
        # least the deterministic delay for attempt 1.
        policy = BackoffPolicy(base=0.2, multiplier=1.0, max_delay=0.2,
                               jitter=0.0)
        marker = str(tmp_path / "marker")
        start = time.monotonic()
        status = run_isolated(
            "flaky", _flaky_cell, args=(marker,), retries=1,
            backoff=policy,
        )
        elapsed = time.monotonic() - start
        assert status.ok
        assert status.attempts == 2
        assert elapsed >= 0.2

    def test_backoff_none_skips_sleeping(self, tmp_path):
        marker = str(tmp_path / "marker")
        status = run_isolated(
            "flaky", _flaky_cell, args=(marker,), retries=1,
            backoff=None,
        )
        assert status.ok
        assert status.attempts == 2
