"""File ingestion, block averaging and duty-cycle statistics.

The CSV contract: the first non-comment line lists band center
frequencies in MHz, every following line is one time slot of PSD values
in dBm with the same field count, ``#`` lines and blank lines are
skipped, decimal point is ``.``, LF, CRLF and a bare CR each end a line,
and the file is UTF-8 text, with or without a leading byte-order mark.
Plain ASCII is read by numpy's parser; anything else (or anything numpy
rejects, such as a comment or whitespace-only line among the rows) is
read by the line reader, with the same errors.  Both read one
universal-newline text stream over the file and hold the matrix plus
one read buffer: the line reader puts every value into one flat buffer
that becomes the matrix without a copy.  Block averaging in linear
power converts one bounded stretch of blocks to mW at a time.
"""

from __future__ import annotations

import io
import json
import math
import re
import warnings
from array import array
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


# numpy's float parser agrees with float() on these bytes, and the text stream turns every CR into a line end
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\x0b\x0c\r"
_ESCAPED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, as errors="surrogateescape" decodes it
_READ_BLOCK = 1 << 16  # bytes read at a time by the plain-bytes check
_STRETCH = 1 << 16  # values block_average holds in mW at a time
AVG_DOMAINS = ("linear", "db")  # what block_average's domain may be


def load_matrix(path, service_map: dict[str, tuple[float, float]] | None = None) -> SpectrumMatrix:
    """Parse a PSD trace CSV into a SpectrumMatrix.

    Line numbers in errors are 1-based and count comment lines too.
    """
    with open(path, "rb") as fh:
        if not any(block.translate(None, _PLAIN_BYTES) for block in iter(lambda: fh.read(_READ_BLOCK), b"")):
            fh.seek(0)
            lines = io.TextIOWrapper(fh, encoding="ascii", newline=None)  # LF, CRLF and a bare CR end a line
            try:
                lineno, line = next(_content_lines(lines))
                bands = parse_header(line.rstrip("\n"), lineno, service_map)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # loadtxt warns, and returns no rows, on an empty body
                    rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
                if rows.shape[1] == len(bands) and len(rows) and np.isfinite(rows).all():
                    return SpectrumMatrix(bands=bands, rows=rows)
            except (StopIteration, ValueError, Warning):
                pass
    return _scan_matrix(path, service_map)


def _content_lines(lines):
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii() and (bad := _ESCAPED.search(line)):
            raise ParseError(lineno, f"not UTF-8 text (byte {ord(bad[0]) - 0xDC00:#04x} at character {bad.end()})")
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def parse_header(line: str, lineno: int, service_map=None) -> tuple[BandMetadata, ...]:
    """Bands of a header line, whose frequencies in MHz must be positive and finite in Hz."""
    bands = []
    for tok in line.split(","):
        try:
            mhz = float(tok)
        except ValueError:
            raise ParseError(lineno, f"bad frequency {tok!r} in header") from None
        if not 0 < mhz * 1e6 < math.inf:
            raise ParseError(lineno, f"frequency {tok!r} must be positive and finite in Hz")
        service = None if service_map is None else service_for_frequency(mhz, service_map)
        bands.append(BandMetadata(center_freq_hz=mhz * 1e6, label=f"{tok.strip()} MHz", service=service))
    return tuple(bands)


def _scan_matrix(path, service_map=None) -> SpectrumMatrix:
    """Parse the file line by line, raising every load error with its line number."""
    bands: tuple[BandMetadata, ...] | None = None
    data = array("d")
    # universal newlines end a line at LF, CRLF and a bare CR; a leading BOM is dropped
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as lines:
        for lineno, line in _content_lines(lines):
            line = line.rstrip("\n")
            if bands is None:
                bands = parse_header(line, lineno, service_map)
                continue
            fields = line.split(",")
            if len(fields) != len(bands):
                raise RaggedRowError(lineno, len(bands), len(fields))
            for col, tok in enumerate(fields, start=1):
                try:
                    v = float(tok)
                except ValueError:
                    raise ParseError(lineno, f"bad value {tok!r} in column {col}") from None
                if not math.isfinite(v):
                    raise NonFiniteValueError(lineno, col)
                data.append(v)

    if bands is None:
        raise EmptyTraceError(f"{path}: file has no header line")
    if not data:
        raise EmptyTraceError(f"{path}: file has no data rows")
    return SpectrumMatrix(bands=bands, rows=np.frombuffer(data).reshape(-1, len(bands)))


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
    if domain not in AVG_DOMAINS:
        raise ValueError(f"domain must be one of {AVG_DOMAINS}, got {domain!r}")
    if block == 1:
        return matrix
    n_blocks = matrix.n_slots // block
    if n_blocks == 0:
        raise BlockLargerThanTraceError(
            f"block {block} larger than the {matrix.n_slots}-slot trace"
        )
    rows = matrix.rows[: n_blocks * block].reshape(n_blocks, block, -1)
    if domain == "db":
        return SpectrumMatrix(bands=matrix.bands, rows=rows.mean(axis=1))
    averaged = np.empty((n_blocks, rows.shape[2]))
    step = max(1, _STRETCH // (block * rows.shape[2]))
    for lo in range(0, n_blocks, step):  # each block mean reduces its own slice, as in one whole-matrix call
        mw = rows[lo : lo + step] / 10.0
        np.power(10.0, mw, out=mw)
        mw.mean(axis=1, out=averaged[lo : lo + step])
    with np.errstate(divide="ignore"):
        averaged = 10.0 * np.log10(averaged)
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
