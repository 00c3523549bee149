"""Shared retry-delay primitive.

Every retry loop in the stack — the crash-isolated cell runner and
the serving simulator's per-request retries — prices its delays
through one :class:`BackoffPolicy`: exponential growth from ``base``
by ``multiplier``, capped at ``max_delay``, with **deterministic
seeded jitter**.  Jitter is derived from a caller
token (a cell name, a request id) rather than a live RNG, so the same
failure sequence always produces the same delay sequence — retries
are replayable, which is what makes chaos runs assertable in CI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.resilience.errors import ConfigError

__all__ = ["BackoffPolicy", "DEFAULT_BACKOFF"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic seeded jitter.

    Attributes:
        base: delay before the first retry, in seconds (real or
            simulated — the policy is unit-agnostic).
        multiplier: growth factor per additional attempt.
        max_delay: cap applied to the raw (pre-jitter) delay.
        jitter: fraction of the raw delay randomized *downward*; the
            jittered delay lies in ``(raw * (1 - jitter), raw]``.
            Zero disables jitter entirely.
    """

    base: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ConfigError("base", self.base, "must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigError(
                "multiplier", self.multiplier, "must be >= 1"
            )
        if self.max_delay < 0:
            raise ConfigError("max_delay", self.max_delay, "must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter", self.jitter, "must be in [0, 1]")

    def raw_delay(self, attempt: int) -> float:
        """The un-jittered delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigError("attempt", attempt, "attempts are 1-based")
        return min(
            self.base * self.multiplier ** (attempt - 1), self.max_delay
        )

    def delay(self, attempt: int, token: str = "") -> float:
        """Jittered delay before retry ``attempt`` (1-based).

        The jitter draw is seeded from ``(token, attempt)`` — not from
        process state — so the same token replays the same delays in
        any process.  Distinct tokens decorrelate retry storms.
        """
        raw = self.raw_delay(attempt)
        if not self.jitter or raw <= 0:
            return raw
        draw = random.Random(f"{token}#{attempt}").random()
        return raw * (1.0 - self.jitter * draw)


#: The stack-wide default: fast first retry, bounded tail.
DEFAULT_BACKOFF = BackoffPolicy()
