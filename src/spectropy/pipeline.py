"""Batch orchestration: matrix in, per-band entropy and predictability out.

Per-band work is independent.  With ``jobs > 1`` it fans out across
worker processes (not threads: the match-length parse is pure Python and
would serialize on the interpreter lock), at most one per band, per CPU
the process may run on and per ``_SLOTS_PER_WORKER`` averaged slots, so
that small inputs run in-process.  Each worker takes a band's metadata
and float column and quantizes and analyzes it whole.  Results are
reassembled in band order regardless of completion order, so output is
deterministic for any job count.  The process pool is imported only when
one is built, so every other run starts without ``multiprocessing``.
"""

from __future__ import annotations

import itertools
import os

from .entropy import entropy_report
from .ingest import SpectrumMatrix, block_average
from .predictability import band_predictability
from .quantize import QuantizationConfig, quantize
from .trace import BandMetadata, EntropyReport, PredictabilityReport, PsdTrace, QuantizedTrace, _value_type

# On a 2-CPU host, importing the process pool took about 15-20 ms and starting
# two workers, mapping once and stopping them 11-17 ms; serial analysis
# took 0.5-1.4 us per slot.  A second worker saves at most half the serial
# time, so it pays only from about 45,000-110,000 slots on.
_SLOTS_PER_WORKER = 50_000


@_value_type
class BandAnalysis:
    """Everything the analyze pipeline produces for one band."""

    band: BandMetadata
    entropy: EntropyReport
    predictability: PredictabilityReport


def analyze_quantized(qt: QuantizedTrace) -> BandAnalysis:
    return BandAnalysis(
        band=qt.band,
        entropy=entropy_report(qt),
        predictability=band_predictability(qt),
    )


def _analyze_column(band: BandMetadata, samples, cfg: QuantizationConfig) -> BandAnalysis:
    return analyze_quantized(quantize(PsdTrace(band=band, samples=samples), cfg))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def analyze_matrix(
    matrix: SpectrumMatrix,
    cfg: QuantizationConfig,
    block: int = 1,
    avg_domain: str = "linear",
    jobs: int = 1,
) -> list[BandAnalysis]:
    """Run block-average, quantize, entropy and Fano inversion per band.

    ``jobs`` is an upper bound on worker processes; see the module
    docstring for how many run.  Returns one BandAnalysis per band,
    ordered by center frequency (ties keep input order).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    m = block_average(matrix, block, domain=avg_domain)
    order = sorted(range(len(m.bands)), key=lambda i: m.bands[i].center_freq_hz)
    workers = min(jobs, len(order), _usable_cpus(), len(order) * m.n_slots // _SLOTS_PER_WORKER)
    if workers <= 1:
        # one band at a time, so only one band's levels are alive
        return [analyze_quantized(quantize(m.band_trace(i), cfg)) for i in order]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(order) // (workers * 4))
        bands = [m.bands[i] for i in order]
        columns = [m.rows[:, i] for i in order]
        return list(pool.map(_analyze_column, bands, columns, itertools.repeat(cfg), chunksize=chunk))
