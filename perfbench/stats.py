"""Order statistics with an explicit sample-count rule for tails."""

from __future__ import annotations

import math

MIN_BEYOND = 10


class TooFewSamplesError(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def percentile(samples: list[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-quantile, refused unless min_beyond samples lie above it.

    With 200 samples the 0.95 quantile is the 190th smallest, and 10 lie
    beyond it; with 199 only 9 would, so the call raises.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise TooFewSamplesError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it, {min_beyond} needed"
        )
    return sorted(samples)[rank - 1]
