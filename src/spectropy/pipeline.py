"""Batch orchestration: matrix in, per-band entropy and predictability out.

Per-band work is independent, so it fans out across worker processes
when ``jobs > 1``, at most one per band and per CPU (processes, not
threads: the match-length parse is pure Python and would serialize on
the interpreter lock).  Results are reassembled in band order regardless
of completion order, so output is deterministic for any job count.  The
process pool is imported only when one is built, so every other run
starts without ``multiprocessing``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .entropy import entropy_report
from .ingest import SpectrumMatrix, block_average
from .predictability import band_predictability
from .quantize import QuantizationConfig, quantize
from .trace import BandMetadata, EntropyReport, PredictabilityReport, QuantizedTrace


@dataclass(frozen=True)
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


def analyze_matrix(
    matrix: SpectrumMatrix,
    cfg: QuantizationConfig,
    block: int = 1,
    avg_domain: str = "linear",
    jobs: int = 1,
) -> list[BandAnalysis]:
    """Run block-average, quantize, entropy and Fano inversion per band.

    Returns one BandAnalysis per band, ordered by center frequency
    (ties keep input order).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    m = block_average(matrix, block, domain=avg_domain)
    order = sorted(range(len(m.bands)), key=lambda i: m.bands[i].center_freq_hz)
    quantized = [quantize(m.band_trace(i), cfg) for i in order]
    workers = min(jobs, len(quantized), os.cpu_count() or 1)
    if workers <= 1:
        return [analyze_quantized(qt) for qt in quantized]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(quantized) // (workers * 4))
        return list(pool.map(analyze_quantized, quantized, chunksize=chunk))
