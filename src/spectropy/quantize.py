"""Quantization of PSD traces into discrete level sequences."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyTraceError
from .trace import LevelDistribution, PsdTrace, QuantizedTrace

# Largest alphabet a quantizer accepts; q sizes the bin-edge and level-count arrays.
MAX_Q = 2**16


class Strategy(Enum):
    """How bin edges are placed over the value range."""

    EQUAL_WIDTH = "equal-width"
    EQUAL_FREQUENCY = "equal-frequency"


@dataclass(frozen=True)
class QuantizationConfig:
    """Alphabet size, binning strategy and value range for a quantizer.

    ``value_range=None`` means each band is binned over its own observed
    min/max; an explicit ``(lo, hi)`` pins the range instead (only
    meaningful for equal-width binning, quantiles always come from the
    data itself).
    """

    q: int
    strategy: Strategy = Strategy.EQUAL_WIDTH
    value_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.q <= MAX_Q:
            raise ValueError(f"q must lie in [1, {MAX_Q}], got {self.q}")
        if self.value_range is not None:
            lo, hi = self.value_range
            if not lo < hi:
                raise ValueError(f"explicit range needs lo < hi, got ({lo}, {hi})")


def quantize(trace: PsdTrace, cfg: QuantizationConfig) -> QuantizedTrace:
    """Map each sample to a level in {0, ..., q-1}.

    A value equal to an interior edge goes to the upper bin, and the
    range maximum lands in the top bin, so the mapping is total and
    monotone for any finite input.  A degenerate band (observed max equal
    to min, with no explicit range to spread it) maps everything to level
    0 with no edges.
    """
    arr = np.asarray(trace.samples, dtype=np.float64)
    q = cfg.q

    if cfg.strategy is Strategy.EQUAL_WIDTH:
        if cfg.value_range is not None:
            lo, hi = cfg.value_range
        else:
            lo, hi = float(arr.min()), float(arr.max())
            if hi == lo:
                return QuantizedTrace(trace.band, (0,) * len(arr), q)
        edges = lo + np.arange(1, q) * ((hi - lo) / q)
    else:
        if float(arr.min()) == float(arr.max()):
            return QuantizedTrace(trace.band, (0,) * len(arr), q)
        # Tied data can repeat a quantile; collapsing duplicates keeps the
        # edges strictly increasing and simply leaves some levels unused.
        edges = np.unique(np.quantile(arr, np.arange(1, q) / q))

    levels = np.searchsorted(edges, arr, side="right")
    return QuantizedTrace(trace.band, tuple(int(v) for v in levels), q, tuple(float(e) for e in edges))


def level_distribution(qt: QuantizedTrace) -> LevelDistribution:
    """Empirical frequency of each level, including never-seen ones."""
    n = len(qt.levels)
    if n == 0:
        raise EmptyTraceError("cannot build a distribution from an empty trace")
    counts = np.bincount(np.asarray(qt.levels, dtype=np.int64), minlength=qt.q)
    return LevelDistribution(tuple(counts / n))
