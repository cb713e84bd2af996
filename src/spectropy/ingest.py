"""File ingestion, block averaging and duty-cycle statistics.

The CSV contract: the first non-comment line lists band center
frequencies in MHz, every following line is one time slot of PSD values
in dBm with the same field count, ``#`` lines are skipped, decimal point
is ``.``, LF or CRLF both accepted, and the file is UTF-8 text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockLargerThanTraceError,
    EmptyTraceError,
    NonFiniteValueError,
    ParseError,
    RaggedRowError,
)
from .trace import BandMetadata, PsdTrace


@dataclass(frozen=True, eq=False)
class SpectrumMatrix:
    """Time-by-band grid of PSD values (dBm), rows in acquisition order."""

    bands: tuple[BandMetadata, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        if rows.shape[1] != len(self.bands):
            raise ValueError(
                f"row width {rows.shape[1]} does not match {len(self.bands)} bands"
            )

    @property
    def n_slots(self) -> int:
        return self.rows.shape[0]

    def band_trace(self, index: int) -> PsdTrace:
        return PsdTrace(band=self.bands[index], samples=self.rows[:, index])


@dataclass(frozen=True)
class DutyCycleReport:
    """Fraction of time slots above a detection threshold, per band."""

    per_band: tuple[tuple[BandMetadata, float], ...]

    def __post_init__(self) -> None:
        for band, dc in self.per_band:
            if not 0.0 <= dc <= 1.0:
                raise ValueError(f"duty cycle {dc} for {band.label!r} outside [0, 1]")


def load_matrix(path, service_map: dict[str, tuple[float, float]] | None = None) -> SpectrumMatrix:
    """Parse a PSD trace CSV into a SpectrumMatrix.

    Line numbers in errors are 1-based and count comment lines too.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.object is all of it
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None

    header: list[str] | None = None
    bands: list[BandMetadata] = []
    data: list[list[float]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split(",")
        if header is None:
            header = fields
            for tok in fields:
                try:
                    mhz = float(tok)
                except ValueError:
                    raise ParseError(lineno, f"bad frequency {tok!r} in header") from None
                if not math.isfinite(mhz) or mhz <= 0:
                    raise ParseError(lineno, f"frequency {tok!r} must be positive and finite")
                service = None
                if service_map is not None:
                    service = service_for_frequency(mhz, service_map)
                bands.append(
                    BandMetadata(center_freq_hz=mhz * 1e6, label=f"{tok.strip()} MHz", service=service)
                )
            continue
        if len(fields) != len(header):
            raise RaggedRowError(lineno, len(header), len(fields))
        row = []
        for col, tok in enumerate(fields, start=1):
            try:
                v = float(tok)
            except ValueError:
                raise ParseError(lineno, f"bad value {tok!r} in column {col}") from None
            if not math.isfinite(v):
                raise NonFiniteValueError(lineno, col)
            row.append(v)
        data.append(row)

    if header is None:
        raise EmptyTraceError(f"{path}: file has no header line")
    if not data:
        raise EmptyTraceError(f"{path}: file has no data rows")
    return SpectrumMatrix(bands=tuple(bands), rows=np.asarray(data, dtype=np.float64))


def block_average(matrix: SpectrumMatrix, block: int, domain: str = "linear") -> SpectrumMatrix:
    """Average consecutive blocks of time slots, dropping a partial tail.

    The default averages in linear power (each dBm value converted to mW,
    block-averaged, converted back), which is the physically meaningful
    mean; ``domain="db"`` averages the dB values directly for sensitivity
    studies.  A block whose mean power underflows to zero averages to
    -inf dBm, which ``band_trace`` then rejects as a non-finite sample.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if domain not in ("linear", "db"):
        raise ValueError(f"domain must be 'linear' or 'db', got {domain!r}")
    if block == 1:
        return matrix
    n_blocks = matrix.n_slots // block
    if n_blocks == 0:
        raise BlockLargerThanTraceError(
            f"block {block} larger than the {matrix.n_slots}-slot trace"
        )
    rows = matrix.rows[: n_blocks * block].reshape(n_blocks, block, -1)
    if domain == "linear":
        with np.errstate(divide="ignore"):
            averaged = 10.0 * np.log10(np.power(10.0, rows / 10.0).mean(axis=1))
    else:
        averaged = rows.mean(axis=1)
    return SpectrumMatrix(bands=matrix.bands, rows=averaged)


def duty_cycle(matrix: SpectrumMatrix, threshold_dbm: float) -> DutyCycleReport:
    """Per-band fraction of slots strictly above the threshold.

    Strict comparison: a sample exactly at the threshold counts as idle.
    """
    if matrix.n_slots == 0:
        raise EmptyTraceError("matrix has no time slots")
    frac = (matrix.rows > threshold_dbm).mean(axis=0)
    return DutyCycleReport(tuple((band, float(dc)) for band, dc in zip(matrix.bands, frac)))


def load_service_map(path) -> dict[str, tuple[float, float]]:
    """Read a sidecar JSON mapping service names to [lo_mhz, hi_mhz]."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ParseError(1, f"{path}: not a JSON service map ({exc})") from None
    if not isinstance(raw, dict):
        raise ParseError(1, f"{path}: service map must be a JSON object")
    out: dict[str, tuple[float, float]] = {}
    for name, span in raw.items():
        try:
            lo, hi = float(span[0]), float(span[1])
        except (TypeError, ValueError, OverflowError, IndexError, KeyError):
            raise ParseError(1, f"{path}: service {name!r} must map to [lo_mhz, hi_mhz]") from None
        if not lo < hi:
            raise ParseError(1, f"{path}: service {name!r} range must have lo < hi")
        out[name] = (lo, hi)
    return out


def service_for_frequency(center_mhz: float, service_map: dict[str, tuple[float, float]]) -> str | None:
    """First service whose range covers the frequency, else None."""
    for name, (lo, hi) in service_map.items():
        if lo <= center_mhz <= hi:
            return name
    return None
