"""Output checks for the benchmark's CLI runs.

On a workload's default seed every analyze, duty-cycle and cdf CSV must
match the SHA-256 digest recorded in ``digests.json``.  On any other seed
the outputs are recomputed instead: duty cycles and CDFs in full, and the
analyze rows of a few bands with an independent match-length parse.
``synth`` output must always equal the benchmark's own Gaussian bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Workload, csv_text, freqs_mhz, gen_gaussian, read_matrix

DEFAULT_SEED = 0
DIGESTS = json.loads(Path(__file__).with_name("digests.json").read_text(encoding="utf-8"))
THRESHOLDS = (-107.0, -114.0)  # the CLI's default duty-cycle thresholds
Q = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fmt(x: float) -> str:
    return "%.10g" % x


def _freq_field(mhz: float) -> str:
    # The CLI parses the header token, stores Hz and prints MHz again.
    return _fmt(float(_fmt(mhz)) * 1e6 / 1e6)


def match_lengths(levels) -> np.ndarray:
    """Match lengths by their definition, one vectorised pass per shift.

    ``lambda_i - 1`` is the longest prefix of the suffix at ``i`` that
    occurs at some ``j < i`` and ends before ``i``: for shift ``d = i - j``
    that is the common prefix of the suffixes at ``i`` and ``j``, capped at
    ``d``.  O(n^2) numpy work whatever the input, so unlike ``lz_parse``
    it stays affordable on constant and periodic bands.
    """
    s = np.asarray(levels)
    n = s.size
    best = np.zeros(n, dtype=np.int64)
    for d in range(1, n):
        m = n - d
        pos = np.arange(m)
        mismatch = np.where(s[d:] != s[:m], pos, m)
        run = np.minimum.accumulate(mismatch[::-1])[::-1] - pos
        np.maximum(best[d:], np.minimum(run, d), out=best[d:])
    return best + 1


def spot_bands(bands: int) -> list[int]:
    """First, middle and second-to-last band: on sparse-occupancy that is
    one idle, one constant and one beacon band."""
    return sorted({0, bands // 2, max(0, bands - 2)})


def analyze_rows(rows: np.ndarray, block: int, bands: list[int]) -> dict[int, str]:
    """Expected ``analyze --q 8`` CSV rows for the given band indices."""
    from spectropy import (
        BandMetadata,
        QuantizationConfig,
        SpectrumMatrix,
        block_average,
        level_distribution,
        max_predictability,
        quantize,
        shannon_entropy,
    )

    meta = tuple(BandMetadata(center_freq_hz=float(_fmt(f)) * 1e6) for f in freqs_mhz(rows.shape[1]))
    matrix = block_average(SpectrumMatrix(meta, rows), block)
    out = {}
    for i in bands:
        qt = quantize(matrix.band_trace(i), QuantizationConfig(q=Q))
        n = len(qt.levels)
        e_actual = n * math.log2(n) / int(match_lengths(qt.levels).sum())
        p = max_predictability(e_actual, Q)
        out[i] = ",".join(
            [
                _freq_field(freqs_mhz(rows.shape[1])[i]),
                _fmt(math.log2(Q)),
                _fmt(shannon_entropy(level_distribution(qt))),
                _fmt(e_actual),
                _fmt(p.pi_max),
                "true" if p.clamped else "false",
                str(n),
            ]
        )
    return out


def duty_cycle_text(rows: np.ndarray) -> str:
    """Expected ``duty-cycle`` CSV with the default thresholds."""
    fracs = [(rows > t).mean(axis=0) for t in THRESHOLDS]
    lines = ["freq_mhz," + ",".join(f"duty_cycle_{_fmt(t)}" for t in THRESHOLDS)]
    for k, f in enumerate(freqs_mhz(rows.shape[1])):
        lines.append(",".join([_freq_field(f)] + [_fmt(float(fr[k])) for fr in fracs]))
    return "\n".join(lines) + "\n"


def cdf_text(analyze_csv: str, services: dict[str, list[float]]) -> str:
    """Expected ``cdf`` CSV for an analyze report and a service map."""
    groups: dict[str, list[float]] = {}
    for line in analyze_csv.splitlines()[1:]:
        fields = line.split(",")
        freq, pi = float(fields[0]), float(fields[4])
        name = next((s for s, (lo, hi) in services.items() if lo <= freq <= hi), "unassigned")
        groups.setdefault(name, []).append(pi)
    lines = ["service,pi_max,cum_fraction"]
    for name, pis in sorted(groups.items()):
        pis.sort()
        lines.extend(f"{name},{_fmt(pi)},{_fmt((k + 1) / len(pis))}" for k, pi in enumerate(pis))
    return "\n".join(lines) + "\n"


class Expected:
    """Judges each CLI output of one workload and seed; caches verdicts."""

    def __init__(self, workload: Workload, seed: int, paths: dict[str, str], digests=None):
        if digests is None and seed == DEFAULT_SEED:
            digests = DIGESTS.get(workload.name)
        self.workload = workload
        self.seed = seed
        self.paths = paths
        self.digests = digests
        self._rows = None
        self._verdicts: dict[tuple, bool] = {}

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = read_matrix(self.paths["input"])
        return self._rows

    def ok(self, kind: str, code: int | None, output: str, analyze_output: str = "") -> bool:
        """Whether a command exited 0 and wrote the correct ``output``.

        ``kind`` is one of setup, analyze, duty-cycle, cdf and synth; a
        cdf verdict depends on the analyze CSV it was computed from.
        """
        if code != 0:
            return False
        try:
            data = Path(output).read_bytes()
            analyze_csv = Path(analyze_output).read_bytes() if kind == "cdf" else b""
        except OSError:
            return False
        key = (kind, sha256(data), sha256(analyze_csv))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._judge(kind, data, analyze_csv)
            except (ValueError, IndexError):  # undecodable or malformed CSV
                self._verdicts[key] = False
        return self._verdicts[key]

    def _judge(self, kind: str, data: bytes, analyze_csv: bytes) -> bool:
        if kind == "synth":
            w = self.workload
            return data == csv_text(gen_gaussian(w.bands, w.slots, self.seed)).encode()
        if kind == "setup":
            return _rows_match(data, analyze_rows(read_matrix(self.paths["setup"]), 1, [0, 1]), 2)
        if self.digests is not None:
            return sha256(data) == self.digests[kind]
        if kind == "analyze":
            w = self.workload
            return _rows_match(data, analyze_rows(self.rows, w.block, spot_bands(w.bands)), w.bands)
        if kind == "duty-cycle":
            return data.decode() == duty_cycle_text(self.rows)
        if kind == "cdf":
            services = json.loads(Path(self.paths["services"]).read_text(encoding="utf-8"))
            return data.decode() == cdf_text(analyze_csv.decode(), services)
        raise KeyError(f"unknown output kind {kind!r}")


def _rows_match(data: bytes, expected: dict[int, str], n_bands: int) -> bool:
    lines = data.decode().splitlines()
    if len(lines) != n_bands + 1 or lines[0] != "freq_mhz,e_rand,e_unc,e_actual,pi_max,clamped,n":
        return False
    return all(lines[i + 1] == row for i, row in expected.items())
