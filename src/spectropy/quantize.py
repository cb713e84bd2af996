"""Quantization of PSD traces into discrete level sequences."""

from __future__ import annotations

from enum import Enum

from .errors import EmptyTraceError
from .trace import LevelDistribution, PsdTrace, QuantizedTrace, _value_type

# Largest alphabet a quantizer accepts; q sizes the bin-edge and level-count arrays.
MAX_Q = 2**16


class Strategy(Enum):
    """How bin edges are placed between a band's own min and max."""

    EQUAL_WIDTH = "equal-width"
    EQUAL_FREQUENCY = "equal-frequency"


@_value_type
class QuantizationConfig:
    """Alphabet size and binning strategy; each band is binned over its own min/max."""

    q: int
    strategy: Strategy = Strategy.EQUAL_WIDTH

    def __post_init__(self) -> None:
        if not 1 <= self.q <= MAX_Q:
            raise ValueError(f"q must lie in [1, {MAX_Q}], got {self.q}")


def quantize(trace: PsdTrace, cfg: QuantizationConfig) -> QuantizedTrace:
    """Map each sample to a level in {0, ..., q-1}.

    A value equal to an interior edge goes to the upper bin, and the
    band maximum lands in the top bin, so the mapping is total and
    monotone for any finite input.  A degenerate band (max equal to min)
    maps everything to level 0.
    """
    import numpy as np

    arr = np.asarray(trace.samples, dtype=np.float64)
    q = cfg.q
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return QuantizedTrace(trace.band, (0,) * len(arr), q)
    if cfg.strategy is Strategy.EQUAL_WIDTH:
        edges = lo + np.arange(1, q) * ((hi - lo) / q)
    else:
        # Tied data can repeat a quantile; collapsing duplicates keeps the
        # edges strictly increasing and simply leaves some levels unused.
        edges = np.unique(np.quantile(arr, np.arange(1, q) / q))
    return QuantizedTrace(trace.band, np.searchsorted(edges, arr, side="right"), q)


def level_distribution(qt: QuantizedTrace) -> LevelDistribution:
    """Empirical frequency of each level, including never-seen ones."""
    import numpy as np

    n = len(qt.levels)
    if n == 0:
        raise EmptyTraceError("cannot build a distribution from an empty trace")
    counts = np.bincount(np.asarray(qt.levels, dtype=np.int64), minlength=qt.q)
    return LevelDistribution(tuple(counts / n))
