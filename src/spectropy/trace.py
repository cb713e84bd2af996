"""Immutable value types shared by every analysis stage.

Everything here is a frozen dataclass holding plain tuples: equality is
structural, instances are safe to share across threads, and each type
checks its invariants when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTraceError, NonFiniteSampleError


@dataclass(frozen=True)
class BandMetadata:
    """Identity of one frequency band (nominally a 200 kHz channel)."""

    center_freq_hz: float
    label: str = ""
    service: str | None = None

    def __post_init__(self) -> None:
        if not self.center_freq_hz > 0:
            raise ValueError(f"center_freq_hz must be positive, got {self.center_freq_hz}")

    @property
    def center_freq_mhz(self) -> float:
        return self.center_freq_hz / 1e6


@dataclass(frozen=True)
class PsdTrace:
    """Time-ordered PSD samples (dBm per channel bandwidth) for one band.

    A trace is never empty and holds only finite samples.
    """

    band: BandMetadata
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", tuple(arr.tolist()))
        if not self.samples:
            raise EmptyTraceError("trace has no samples")
        finite = np.isfinite(arr)
        if not finite.all():
            index = int(np.argmin(finite))
            raise NonFiniteSampleError(index, self.samples[index])

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class QuantizedTrace:
    """Integer level sequence over the alphabet {0, ..., q-1}.

    ``q`` is carried explicitly rather than inferred from ``max(levels)``
    so an all-constant trace keeps its intended alphabet size.
    """

    band: BandMetadata
    levels: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.levels)
        if arr.dtype.kind == "f" and not (np.isfinite(arr) & (arr == np.trunc(arr))).all():
            raise ValueError("levels must be integers")
        arr = arr.astype(np.int64, copy=False)
        object.__setattr__(self, "levels", tuple(arr.tolist()))
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if arr.size and (arr.min() < 0 or arr.max() > self.q - 1):
            raise ValueError(f"levels must lie in [0, {self.q - 1}]")

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class LevelDistribution:
    """Empirical level frequencies p_0..p_{q-1}, summing to one."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", tuple(float(p) for p in self.probabilities))
        if not self.probabilities:
            raise ValueError("distribution needs at least one probability")
        p = np.asarray(self.probabilities, dtype=np.float64)
        if (p < 0).any() or (p > 1).any():
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")

    @property
    def q(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class EntropyReport:
    """The three entropy measures (bits) for one quantized band."""

    e_rand: float
    e_unc: float
    e_actual: float
    n: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1 or self.n < 1:
            raise ValueError("q and n must be positive")
        if self.e_rand != math.log2(self.q):
            raise ValueError(f"e_rand must equal log2(q)={math.log2(self.q)}, got {self.e_rand}")
        if not 0.0 <= self.e_unc <= self.e_rand:
            raise ValueError(f"e_unc={self.e_unc} outside [0, {self.e_rand}]")
        if self.e_actual < 0.0:
            raise ValueError(f"e_actual must be non-negative, got {self.e_actual}")


@dataclass(frozen=True)
class PredictabilityReport:
    """Upper-bound predictability for one band plus solver diagnostics.

    ``entropy_used`` is the entropy actually inverted after clamping to
    [0, log2 q]; ``clamped`` records whether the raw input fell outside
    that range (estimator noise on short traces can push it past log2 q).
    """

    pi_max: float
    entropy_used: float
    clamped: bool
    iterations: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.q > 1 and not (1.0 / self.q <= self.pi_max <= 1.0):
            raise ValueError(f"pi_max={self.pi_max} outside [1/{self.q}, 1]")
        if self.q == 1 and self.pi_max != 1.0:
            raise ValueError("pi_max must be 1 for a single-level alphabet")
