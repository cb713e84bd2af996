"""Seeded input generators for the benchmark workloads.

Written with numpy alone, never with ``spectropy.synth``, so that a
change to the program's own generators cannot change what the benchmark
measures.  Band ``k`` draws from ``default_rng(seed + k)``, the same
convention as ``spectropy synth``; the ``gaussian-week`` CSV is
byte-identical to ``spectropy synth --model gaussian`` with the same
shape and seed, which the benchmark checks on every run.

Every value is written with ``%.10g``, so the program reads the rounded
values; ``read_matrix`` gives the matrix exactly as the program sees it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

START_MHZ = 614.1
STEP_MHZ = 0.2
SLOTS_PER_WEEK = 3360  # one week of 180 s slots


def gen_gaussian(bands: int, slots: int, seed: int) -> np.ndarray:
    """The paper's noise floor: every band i.i.d. N(-100, 5) dBm."""
    cols = [np.random.default_rng(seed + k).normal(-100.0, 5.0, size=slots) for k in range(bands)]
    return np.column_stack(cols)


def _idle_band(n: int, rng: np.random.Generator, quarter: int) -> np.ndarray:
    # One -60 dBm spike on an N(-110, 0.5) floor.  The spike's position
    # sets the band's parse cost within a factor of two, so it lands at a
    # seeded slot near the middle of its own quarter of the trace: the
    # four idle bands cover early, middle and late spikes, and the seed
    # barely moves the workload's cost.
    x = rng.normal(-110.0, 0.5, size=n)
    middle = (2 * quarter + 1) * n // 8
    x[rng.integers(middle - n // 64, middle + n // 64 + 1)] = -60.0
    return x


def _beacon_band(n: int, rng: np.random.Generator) -> np.ndarray:
    # -70 dBm in 2 of every 12 slots on the same idle floor.
    x = rng.normal(-110.0, 0.5, size=n)
    phase = int(rng.integers(12))
    x[(np.arange(n) - phase) % 12 < 2] = -70.0
    return x


def gen_sparse(bands: int, slots: int, seed: int) -> np.ndarray:
    """Under-used spectrum: 4 idle-with-spike, 2 constant, 2 beacon bands."""
    if bands != 8:
        raise ValueError("sparse-occupancy has exactly 8 bands")
    cols = []
    for k in range(bands):
        rng = np.random.default_rng(seed + k)
        if k < 4:
            cols.append(_idle_band(slots, rng, k))
        elif k < 6:
            cols.append(np.full(slots, -110.0))
        else:
            cols.append(_beacon_band(slots, rng))
    return np.column_stack(cols)


def _on_off_states(n: int, rng: np.random.Generator, p_on: float, p_off: float) -> np.ndarray:
    # Two-state Markov chain built from geometric sojourns: off runs end
    # with probability p_on per slot, on runs with p_off.  Every run lasts
    # at least one slot, so n // 2 + 1 pairs always cover n slots.
    pairs = n // 2 + 1
    runs = np.empty(2 * pairs, dtype=np.int64)
    runs[0::2] = rng.geometric(p_on, size=pairs)
    runs[1::2] = rng.geometric(p_off, size=pairs)
    return np.repeat(np.arange(2 * pairs) % 2 == 1, runs)[:n]


def gen_campaign(bands: int, slots: int, seed: int) -> np.ndarray:
    """Long campaign: N(-100, 5) floor with Markov on/off N(-70, 2) users.

    Duty cycle and burst length vary across bands so the campaign mixes
    nearly idle and busy channels.
    """
    cols = []
    for k in range(bands):
        rng = np.random.default_rng(seed + k)
        p_on = 0.002 + 0.018 * (k % 8) / 7
        p_off = 0.01 + 0.04 * (k // 8 % 4) / 3
        on = _on_off_states(slots, rng, p_on, p_off)
        floor = rng.normal(-100.0, 5.0, size=slots)
        busy = rng.normal(-70.0, 2.0, size=slots)
        cols.append(np.where(on, busy, floor))
    return np.column_stack(cols)


@dataclass(frozen=True)
class Workload:
    name: str
    bands: int
    slots: int
    block: int  # analyze --block
    generate: Callable[[int, int, int], np.ndarray]

    def matrix(self, seed: int) -> np.ndarray:
        return self.generate(self.bands, self.slots, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gaussian-week", 32, SLOTS_PER_WEEK, 1, gen_gaussian),
        Workload("sparse-occupancy", 8, SLOTS_PER_WEEK // 2, 1, gen_sparse),
        Workload("long-campaign", 16, 50_000, 20, gen_campaign),
    )
}


def freqs_mhz(bands: int) -> list[float]:
    return [START_MHZ + k * STEP_MHZ for k in range(bands)]


def csv_text(matrix: np.ndarray) -> str:
    """The matrix as a trace CSV, formatted exactly like ``spectropy synth``."""
    header = ",".join("%.10g" % f for f in freqs_mhz(matrix.shape[1]))
    row_fmt = ",".join(["%.10g"] * matrix.shape[1])
    lines = [header]
    lines.extend(row_fmt % tuple(row) for row in matrix.tolist())
    return "\n".join(lines) + "\n"


def read_matrix(path) -> np.ndarray:
    """The values of a trace CSV as the program parses them (slots x bands)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def service_map(bands: int) -> dict[str, list[float]]:
    """Two services over the first two thirds of the bands; the rest unassigned."""
    f = freqs_mhz(bands)
    third = max(1, bands // 3)
    return {
        "TV-low": [f[0] - 0.05, f[third - 1] + 0.05],
        "TV-high": [f[third] - 0.05, f[2 * third - 1] + 0.05],
    }


def write_inputs(workload: Workload, seed: int, directory) -> dict[str, str]:
    """Write the workload CSV, its service map and the tiny setup CSV."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "input": directory / "input.csv",
        "services": directory / "services.json",
        "setup": directory / "setup.csv",
    }
    paths["input"].write_text(csv_text(workload.matrix(seed)), encoding="utf-8")
    paths["services"].write_text(json.dumps(service_map(workload.bands)), encoding="utf-8")
    paths["setup"].write_text(csv_text(gen_gaussian(2, 16, seed)), encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}
