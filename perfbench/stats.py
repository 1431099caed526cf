"""Order statistics for benchmark samples.

A timing is reported as a median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it, always with the
sample count: a p90 over 30 samples rests on three values and moves with
every outlier, so :func:`percentile` refuses it.
"""

from __future__ import annotations

import math

#: Samples a tail percentile needs strictly beyond it.
MIN_BEYOND = 10


class TooFewSamplesError(ValueError):
    """A percentile was asked of fewer samples than it can rest on."""


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    The median (``q == 50``) needs one sample.  Any higher percentile
    needs ``MIN_BEYOND`` samples beyond it, i.e. ``n * (1 - q/100) >=
    MIN_BEYOND``; fewer raise :class:`TooFewSamplesError`.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise TooFewSamplesError("no samples")
    if q > 50 and n * (100 - q) / 100 < MIN_BEYOND:
        raise TooFewSamplesError(
            f"p{q:g} of {n} samples has {n * (100 - q) / 100:g} beyond it; "
            f"needs >= {MIN_BEYOND} (>= {tail_sample_floor(q)} samples)"
        )
    rank = (n - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def tail_sample_floor(q: float) -> int:
    """The fewest samples :func:`percentile` accepts for ``q``."""
    return math.ceil(MIN_BEYOND * 100 / (100 - q) - 1e-9)


def summarize(samples, tail: float | None = None) -> dict:
    """``{"n", "p50"}`` plus ``"p<tail>"`` when the tail is supported."""
    summary = {"n": len(samples), "p50": percentile(samples, 50)}
    if tail is not None:
        summary[f"p{tail:g}"] = percentile(samples, tail)
    return summary
