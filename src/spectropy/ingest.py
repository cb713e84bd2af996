"""File ingestion, block averaging and duty-cycle statistics.

The CSV contract: the first non-comment line lists band center
frequencies in MHz, every following line is one time slot of PSD values
in dBm with the same field count, ``#`` lines and blank lines are
skipped, decimal point is ``.``, LF, CRLF and a bare CR each end a line,
and the file is UTF-8 text, with or without a leading byte-order mark.
Whitespace is what ``str.strip()`` removes, around a value as on a
blank line.  ``load_matrix`` opens one universal-newline text stream
over the file, finds the header and hands the rest to numpy's parser.
A file numpy rejects (a comment or whitespace-only line among the rows,
say) is read again by the line reader, which raises every error with
its line number.  A load holds the matrix plus one read buffer: the
line reader puts every value into one flat buffer that becomes the
matrix without a copy.  A load that block-averages (``analyze`` and
``duty-cycle`` with ``--block N``) reads one stretch of blocks at a
time, on numpy's path and the line reader's alike, and keeps only their
means, so it holds one stretch of raw rows plus the averaged matrix.
Block averaging in linear power converts one bounded stretch of blocks
to mW at a time.  numpy is imported by the functions that build arrays,
so the service-map reader and the header parser load without it.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from array import array
from typing import TYPE_CHECKING

from .errors import (
    BlockLargerThanTraceError,
    EmptyTraceError,
    NonFiniteSampleError,
    NonFiniteValueError,
    ParseError,
    RaggedRowError,
)
from .trace import BandMetadata, PsdTrace, _value_type

if TYPE_CHECKING:
    import numpy as np


@_value_type(eq=False)
class SpectrumMatrix:
    """Time-by-band grid of PSD values (dBm), rows in acquisition order."""

    bands: tuple[BandMetadata, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

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


_ESCAPED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, as errors="surrogateescape" decodes it
_STRETCH = 1 << 16  # values block_average holds in mW at a time
AVG_DOMAINS = ("linear", "db")  # what block_average's domain may be


def load_matrix(
    path, service_map: dict[str, tuple[float, float]] | None = None, block: int = 1, avg_domain: str = "linear"
) -> SpectrumMatrix:
    """Parse a PSD trace CSV into a SpectrumMatrix, block-averaged as by ``block_average``.

    A load holds the matrix plus one read buffer.  With ``block`` > 1
    either parser reads one stretch of blocks at a time and keeps only
    the block means, so the load holds one stretch of raw rows plus the
    averaged matrix.  A bad block or domain is reported once the whole
    file has been read.  Line numbers in errors are 1-based and count
    comment lines too.
    """
    import numpy as np

    # universal newlines end a line at LF, CRLF and a bare CR; a leading BOM is dropped
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as lines:
        try:
            lineno, line = next(_content_lines(lines))
            bands = parse_header(line.rstrip("\n"), lineno, service_map)
            chunk = _read_rows(block, len(bands), avg_domain)
            parts = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns, and returns no rows, on an empty body
                warnings.filterwarnings("ignore", "Input line", UserWarning)  # with max_rows, on a blank line
                while not parts or len(rows) == chunk:
                    try:
                        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=chunk)
                    except UserWarning:
                        if parts:
                            break  # the last read ended at the last row
                        raise
                    if rows.shape[1] != len(bands) or not np.isfinite(rows).all():
                        raise ValueError("left to the line reader")
                    parts.append(rows if chunk is None else _block_means(rows, block, avg_domain))
        except (StopIteration, ValueError, Warning):
            parts = []
    if not parts:
        return _scan_matrix(path, service_map, block, avg_domain)
    if chunk is None or not len(parts[0]):  # one read holds every row, and block_average checks the block
        return block_average(SpectrumMatrix(bands=bands, rows=rows), block, avg_domain)
    return SpectrumMatrix(bands=bands, rows=np.concatenate(parts))


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
            mhz = float(tok.strip())
        except ValueError:
            raise ParseError(lineno, f"bad frequency {tok!r} in header") from None
        if not 0 < mhz * 1e6 < math.inf:
            raise ParseError(lineno, f"frequency {tok!r} must be positive and finite in Hz")
        service = None if service_map is None else service_for_frequency(mhz, service_map)
        bands.append(BandMetadata(center_freq_hz=mhz * 1e6, label=f"{tok.strip()} MHz", service=service))
    return tuple(bands)


def _scan_matrix(path, service_map=None, block: int = 1, domain: str = "linear") -> SpectrumMatrix:
    """Parse the file line by line, raising every load error with its line number; averaged as ``load_matrix`` averages."""
    import numpy as np

    bands: tuple[BandMetadata, ...] | None = None
    data = array("d")
    parts = []  # the block means of each whole stretch read so far
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as lines:  # the stream load_matrix reads
        for lineno, line in _content_lines(lines):
            line = line.rstrip("\n")
            if bands is None:
                bands = parse_header(line, lineno, service_map)
                chunk = _read_rows(block, len(bands), domain)
                stretch_values = chunk and chunk * len(bands)
                continue
            fields = line.split(",")
            if len(fields) != len(bands):
                raise RaggedRowError(lineno, len(bands), len(fields))
            for col, tok in enumerate(fields, start=1):
                try:
                    v = float(tok)
                except ValueError:  # float() keeps some of what str.strip() removes, such as \x1c-\x1f
                    try:
                        v = float(tok.strip())
                    except ValueError:
                        raise ParseError(lineno, f"bad value {tok!r} in column {col}") from None
                if not math.isfinite(v):
                    raise NonFiniteValueError(lineno, col)
                data.append(v)
            if len(data) == stretch_values:
                parts.append(_block_means(np.frombuffer(data).reshape(chunk, -1), block, domain))
                data = array("d")

    if bands is None:
        raise EmptyTraceError(f"{path}: file has no header line")
    if not (data or parts):
        raise EmptyTraceError(f"{path}: file has no data rows")
    rows = np.frombuffer(data).reshape(-1, len(bands))
    if not parts:  # every row is held, and block_average checks the block
        return block_average(SpectrumMatrix(bands=bands, rows=rows), block, domain)
    return SpectrumMatrix(bands=bands, rows=np.concatenate([*parts, _block_means(rows, block, domain)]))


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
    if matrix.n_slots < block:
        raise BlockLargerThanTraceError(
            f"block {block} larger than the {matrix.n_slots}-slot trace"
        )
    return SpectrumMatrix(bands=matrix.bands, rows=_block_means(matrix.rows, block, domain))


def _stretch(block: int, width: int) -> int:
    """Blocks of ``block`` rows of ``width`` values in a stretch: as many as ``_STRETCH`` values hold, at least one."""
    return max(1, _STRETCH // (block * width))


def _read_rows(block: int, width: int, domain: str) -> int | None:
    """Rows a load reads and averages at a time: one stretch of blocks; None (every row at once)
    at block 1 and for a block or domain that ``block_average`` refuses."""
    return block * _stretch(block, width) if block > 1 and domain in AVG_DOMAINS else None


def _block_means(rows: np.ndarray, block: int, domain: str) -> np.ndarray:
    """Means of the whole blocks of ``rows``, a partial tail dropped; in linear power, one stretch at a time.

    A mean past the float range is -inf or +inf dBm, without a numpy warning.
    """
    import numpy as np

    n_blocks = len(rows) // block
    blocks = rows[: n_blocks * block].reshape(n_blocks, block, rows.shape[1])
    with np.errstate(over="ignore", divide="ignore"):
        if domain == "db":
            return blocks.mean(axis=1)
        averaged = np.empty((n_blocks, rows.shape[1]))
        step = _stretch(block, rows.shape[1])
        for lo in range(0, n_blocks, step):  # each block mean reduces its own slice, as in one whole-matrix call
            mw = blocks[lo : lo + step] / 10.0
            np.power(10.0, mw, out=mw)
            mw.mean(axis=1, out=averaged[lo : lo + step])
        return 10.0 * np.log10(averaged)


def duty_cycle(matrix: SpectrumMatrix, threshold_dbm: float) -> tuple[float, ...]:
    """Per-band fraction of slots strictly above the threshold, in ``matrix.bands`` order.

    Strict comparison: a sample exactly at the threshold counts as idle.
    A non-finite sample, such as a block mean past the float range, is
    rejected as ``band_trace`` rejects it.
    """
    import numpy as np

    if matrix.n_slots == 0:  # the mean of no slots would be NaN, with a RuntimeWarning
        raise EmptyTraceError("matrix has no time slots")
    if not np.isfinite(matrix.rows).all():
        slot, band = np.argwhere(~np.isfinite(matrix.rows))[0]
        raise NonFiniteSampleError(int(slot), float(matrix.rows[slot, band]))
    return tuple((matrix.rows > threshold_dbm).mean(axis=0).tolist())


# Python types that a JSON value of each kind parses to; true and false parse to bool, not int
_JSON_KINDS = {"number": (int, float), "integer": (int,), "boolean": (bool,), "string": (str,), "array": (list,)}


def json_value(value, kind: str, name: str):
    """``value``, parsed from JSON, if it is a JSON value of ``kind``; else a TypeError that calls it ``name``."""
    if type(value) not in _JSON_KINDS[kind]:
        raise TypeError(f"{name} must be a JSON {kind}, got {value!r}")
    return value


def json_constant(token: str):
    """``parse_constant`` for ``json.load``: Python reads NaN, Infinity and -Infinity, which JSON does not have."""
    raise ValueError(f"{token} is not a JSON number")


def load_service_map(path) -> dict[str, tuple[float, float]]:
    """Read a sidecar JSON mapping service names to [lo_mhz, hi_mhz]."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=json_constant)
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ParseError(1, f"{path}: not a JSON service map ({exc})") from None
    if not isinstance(raw, dict):
        raise ParseError(1, f"{path}: service map must be a JSON object")
    out: dict[str, tuple[float, float]] = {}
    for name, span in raw.items():
        try:  # unpacking more or fewer than two bounds raises ValueError
            lo, hi = (float(json_value(v, "number", "bound")) for v in json_value(span, "array", "span"))
        except (TypeError, ValueError, OverflowError):
            raise ParseError(1, f"{path}: service {name!r} must map to [lo_mhz, hi_mhz], two JSON numbers") from None
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
