#!/usr/bin/env python3
"""Benchmark of the spectropy command line on three seeded workloads.

    python3 perfbench/run.py --workload gaussian-week --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports and runs the program from
``src/``.  Inputs are generated from ``--seed`` and written once per run.

``--trace 0`` times real ``python -m spectropy`` processes and prints the
end-to-end metrics.  The load is a closed loop with one client: one CLI
process at a time, and the only parallelism is ``analyze --jobs 2``.
``--trace 1`` runs the in-process traced pass (see ``tracing.py``) and
prints the per-layer metrics.  Either way rounds repeat until the next
one would end after ``--seconds``, every output is checked, and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from checks import Expected
from tracing import EXACT, traced_round
from tracing import UNITS as LAYER_UNITS
from workloads import WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REPEAT_UNTIL_S = 0.5
MAX_REPS = 2
REFERENCE = Path(__file__).with_name("reference.py")
# Median wall time of the reference job on the machine that defined the
# benchmark (see the machine line of a run): the host speed every timing
# is scaled to.
REFERENCE_S = 0.2

E2E_UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "analyze_par_s": "s",
    "duty_cycle_s": "s",
    "cdf_s": "s",
    "synth_s": "s",
    "peak_rss_mb": "MB",
}
TIMINGS = [name for name, unit in E2E_UNITS.items() if unit == "s"]


@dataclass(frozen=True)
class Command:
    metric: str  # the end-to-end metric that times it
    kind: str  # which output check applies
    argv: tuple[str, ...]
    output: str


def build_commands(workload, seed: int, paths: dict[str, str], out: Path) -> dict[str, Command]:
    """The CLI commands of one workload, keyed by the metric that times them."""

    def cmd(metric, kind, name, *argv):
        output = str(out / name)
        return Command(metric, kind, (*argv, "--output", output), output)

    analyze = ("analyze", paths["input"], "--q", "8")
    if workload.block > 1:
        analyze += ("--block", str(workload.block))
    cmds = (
        cmd("setup_s", "setup", "setup_out.csv", "analyze", paths["setup"], "--jobs", "2"),
        cmd("analyze_s", "analyze", "analyze.csv", *analyze, "--jobs", "1"),
        cmd("analyze_par_s", "analyze", "analyze_par.csv", *analyze, "--jobs", "2"),
        cmd("duty_cycle_s", "duty-cycle", "duty.csv", "duty-cycle", paths["input"]),
        cmd("cdf_s", "cdf", "cdf.csv", "cdf", str(out / "analyze.json"), "--service-map", paths["services"]),
        cmd(
            "synth_s", "synth", "synth.csv", "synth", "--model", "gaussian",
            "--n", str(workload.slots), "--bands", str(workload.bands), "--seed", str(seed),
        ),
    )
    return {c.metric: c for c in cmds}


class Launcher:
    """Runs CLI commands through ``launcher.py``; see there for why."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def run(self, argv, cwd: Path) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one Python process;
        ``argv`` follows the interpreter."""
        self._proc.stdin.write(json.dumps({"argv": list(argv), "cwd": str(cwd)}) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return reply["seconds"], reply["maxrss_mb"], reply["code"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


class Tally:
    """Operations attempted and failed; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# FAILED: {what}", file=sys.stderr)


def cli_round(launcher, cmds, expected, tally: Tally, samples: dict, cwd: Path) -> None:
    """Up to ``MAX_REPS`` passes over the workload's CLI commands.

    The first pass runs every command; later passes repeat the commands
    that have taken less than ``REPEAT_UNTIL_S`` so far, so that a cheap
    command's median rests on several readings spread over the round.
    Each command of the first pass is preceded by the reference job,
    which gauges the host.
    """
    analyze = cmds["analyze_s"]
    spent = dict.fromkeys(cmds, 0.0)
    for rep in range(MAX_REPS):
        for metric, cmd in cmds.items():
            if spent[metric] >= REPEAT_UNTIL_S:
                continue
            if rep == 0:
                seconds, _, code = launcher.run([str(REFERENCE)], cwd)
                samples["reference"].append(seconds)
                tally.record(code == 0, "reference job")
            seconds, rss_mb, code = launcher.run(["-m", "spectropy", *cmd.argv], cwd)
            spent[metric] += seconds
            samples[metric].append(seconds)
            if metric == "analyze_s":
                samples["peak_rss_mb"].append(rss_mb)
            ok = expected.ok(cmd.kind, code, cmd.output, analyze.output)
            if metric == "analyze_par_s":
                ok = ok and _same_bytes(cmd.output, analyze.output)
            tally.record(ok, " ".join(cmd.argv))


def _same_bytes(a: str, b: str) -> bool:
    try:
        return Path(a).read_bytes() == Path(b).read_bytes()
    except OSError:
        return False


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def host_factor(samples: dict[str, list[float]]) -> float:
    """How much slower than the reference speed the host ran this run."""
    return statistics.median(samples["reference"]) / REFERENCE_S


def summarize(samples: dict[str, list[float]]) -> dict[str, float]:
    """Median of each timing divided by the run's host factor; peak RSS
    is the largest reading.

    The host's speed drifts by 10 to 20 % over minutes and moves every
    timing of a run together.  The reference job, timed in the same
    passes, moves with it, so the ratio keeps what the program costs and
    drops what the host did.  A change to the program moves a metric by
    exactly as much as it moves the raw median.
    """
    host = host_factor(samples)
    out = {name: statistics.median(samples[name]) / host for name in TIMINGS if name in samples}
    if "peak_rss_mb" in samples:
        out["peak_rss_mb"] = max(samples["peak_rss_mb"])
    return out


def repeat(seconds: float, one_round) -> int:
    """Call ``one_round(i)`` until the next call would end after
    ``seconds``, judged by the longest round so far; return the count."""
    start, longest, rounds = time.perf_counter(), 0.0, 0
    while True:
        t = time.perf_counter()
        one_round(rounds)
        rounds += 1
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - start + longest > seconds:
            return rounds


def measure_cli(args, workload, paths: dict, out: Path, tally: Tally) -> tuple[dict, int]:
    """End-to-end metrics from real CLI processes, and the round count."""
    expected = Expected(workload, args.seed, paths)
    cmds = build_commands(workload, args.seed, paths, out)
    samples: dict[str, list[float]] = defaultdict(list)
    with contextlib.closing(Launcher()) as launcher:
        launcher.run(["-m", "spectropy", "--version"], out)  # untimed: compiles bytecode, warms the file cache
        rounds = repeat(args.seconds, lambda _: cli_round(launcher, cmds, expected, tally, samples, out))
    raw = {name: round(statistics.median(samples[name]), 4) for name in TIMINGS}
    print(f"# host factor {host_factor(samples):.4f} (reference job median / {REFERENCE_S} s); raw medians: {raw}")
    return summarize(samples), rounds


def measure_traced(args, workload, paths: dict, out: Path, tally: Tally) -> tuple[dict, int]:
    """Per-layer metrics from the in-process traced pass, and the round count."""
    expected = Expected(workload, args.seed, paths)
    cmds = build_commands(workload, args.seed, paths, out)
    per_round, spans = [], []

    def one_round(i):
        metrics, round_spans = traced_round(i, cmds, expected, tally, paths["input"], workload.block)
        per_round.append(metrics)
        spans.extend(round_spans)

    rounds = repeat(args.seconds, one_round)
    write_spans(spans, WORK / f"spans-{workload.name}.json")
    values = {}
    if tally.failed == 0:
        for name in LAYER_UNITS:
            readings = [m[name] for m in per_round]
            if name not in EXACT:
                values[name] = statistics.median(readings)
                continue
            if len(set(readings)) > 1:
                tally.record(False, f"{name} did not repeat: {readings}")
            values[name] = readings[0]
    return values, rounds


def write_spans(spans, path: Path) -> None:
    rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run} for s in spans]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spectropy" / "__init__.py").is_file():
        print(f"error: no spectropy sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spectropy

    if Path(spectropy.__file__).resolve().parent != SRC / "spectropy":
        print(f"error: imported spectropy from {spectropy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    tally = Tally()
    try:
        paths = write_inputs(workload, args.seed, out)
        measure = measure_traced if args.trace else measure_cli
        values, rounds = measure(args, workload, paths, out, tally)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    print(f"# machine: {json.dumps(machine_info())}")
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} rounds={rounds}")
    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'error_rate':32s} {rate:14.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    correct = tally.attempted > 0 and tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
