"""The traced pass: spans around the calls into each spectropy layer.

The spans are recorded by the benchmark, not by the program.  Each public
entry point in ``ENTRY_POINTS`` is replaced, in the namespace its caller
looks it up in (``spectropy.pipeline.quantize``, not only
``spectropy.quantize.quantize``), by a wrapper that records one span per
call.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import pickle
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

PARSE = "entropy.lz_parse_fast"
BAND = "pipeline.analyze_quantized"
TRACED = ("analyze_s", "duty_cycle_s", "cdf_s")  # the commands run traced, analyze first

# (span name, module, attribute path): one line per place a caller looks
# an entry point up.  Results are kept only where a metric reads them.
ENTRY_POINTS = (
    ("cli.main", "spectropy.cli", "main"),
    ("ingest.load_matrix", "spectropy.cli", "load_matrix"),
    ("ingest.load_service_map", "spectropy.cli", "load_service_map"),
    ("ingest.block_average", "spectropy.cli", "block_average"),
    ("ingest.block_average", "spectropy.pipeline", "block_average"),
    ("ingest.duty_cycle", "spectropy.cli", "duty_cycle"),
    ("pipeline.analyze_matrix", "spectropy.cli", "analyze_matrix"),
    ("trace.band_trace", "spectropy.ingest", "SpectrumMatrix.band_trace"),
    ("quantize.quantize", "spectropy.pipeline", "quantize"),
    (BAND, "spectropy.pipeline", "analyze_quantized"),
    ("entropy.entropy_report", "spectropy.pipeline", "entropy_report"),
    ("predictability.band_predictability", "spectropy.pipeline", "band_predictability"),
    (PARSE, "spectropy.entropy", "lz_parse_fast"),
    ("predictability.max_predictability", "spectropy.predictability", "max_predictability"),
    ("predictability.predictability_cdf", "spectropy.cli", "predictability_cdf"),
)
KEEP_RESULT = {"pipeline.analyze_matrix", "quantize.quantize", BAND, PARSE, "predictability.max_predictability"}

UNITS = {
    "ingest.load_s": "s",
    "ingest.load_mb_per_s": "MB/s",
    "ingest.input_bytes": "bytes",
    "ingest.block_average_s": "s",
    "ingest.duty_cycle_s": "s",
    "trace.band_trace_s": "s",
    "quantize.quantize_s": "s",
    "entropy.parse_s": "s",
    "entropy.parse_calls": "count",
    "entropy.sum_lambda": "count",
    "entropy.max_lambda": "count",
    "entropy.parse_ns_per_lambda": "ns",
    "entropy.parse_band_ms_p50": "ms",
    "entropy.parse_band_ms_tail": "ms",
    "entropy.report_self_s": "s",
    "predictability.band_self_s": "s",
    "predictability.fano_s": "s",
    "predictability.bisect_iters": "count",
    "predictability.cdf_s": "s",
    "pipeline.analyze_s": "s",
    "pipeline.self_s": "s",
    "pipeline.ipc_bytes": "bytes",
    "pipeline.par_speedup": "ratio",
    "pipeline.trace_overhead_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
}
# Counts that depend only on the inputs, so they must repeat exactly.
EXACT = {
    "ingest.input_bytes",
    "entropy.parse_calls",
    "entropy.sum_lambda",
    "entropy.max_lambda",
    "predictability.bisect_iters",
    "pipeline.ipc_bytes",
    "cli.report_bytes",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    result: object = None

    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of one run id; nesting follows the call stack."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                span.result = result
            return result

        return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every entry point through ``tracer`` for the ``with`` body."""
    saved = []
    try:
        for name, module, path in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children[i]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration() - covered)
    return out


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten values beyond it; the
    maximum when that percentile would not lie above the median, that is
    with twenty values or fewer."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 20 else ordered[-1]


def _enclosing(spans: list[Span], i: int, name: str) -> int | None:
    p = spans[i].parent
    while p is not None and spans[p].name != name:
        p = spans[p].parent
    return p


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced round."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def busy(name):
        return sum(spans[i].duration() for i in by_name[name])

    def self_of(*names):
        return sum(selfs[i] for name in names for i in by_name[name])

    parses = by_name[PARSE]
    sum_lambda = sum(spans[i].result.total() for i in parses)
    band_ms: dict[int | None, float] = defaultdict(float)
    for i in parses:
        band_ms[_enclosing(spans, i, BAND)] += spans[i].duration() * 1e3
    ipc = sum(len(pickle.dumps(spans[i].result)) for i in by_name["quantize.quantize"] + by_name[BAND])
    return {
        "ingest.load_s": busy("ingest.load_matrix"),
        "ingest.block_average_s": busy("ingest.block_average"),
        "ingest.duty_cycle_s": busy("ingest.duty_cycle"),
        "trace.band_trace_s": busy("trace.band_trace"),
        "quantize.quantize_s": busy("quantize.quantize"),
        "entropy.parse_s": busy(PARSE),
        "entropy.parse_calls": len(parses),
        "entropy.sum_lambda": sum_lambda,
        "entropy.max_lambda": max(max(spans[i].result.lambdas) for i in parses),
        "entropy.parse_ns_per_lambda": busy(PARSE) * 1e9 / sum_lambda,
        "entropy.parse_band_ms_p50": statistics.median(band_ms.values()),
        "entropy.parse_band_ms_tail": tail(list(band_ms.values())),
        "entropy.report_self_s": self_of("entropy.entropy_report"),
        "predictability.band_self_s": self_of("predictability.band_predictability"),
        "predictability.fano_s": busy("predictability.max_predictability"),
        "predictability.bisect_iters": sum(
            spans[i].result.iterations for i in by_name["predictability.max_predictability"]
        ),
        "predictability.cdf_s": busy("predictability.predictability_cdf"),
        "pipeline.analyze_s": busy("pipeline.analyze_matrix"),
        "pipeline.self_s": self_of("pipeline.analyze_matrix", BAND),
        "pipeline.ipc_bytes": ipc,
        "cli.main_s": busy("cli.main"),
        "cli.self_s": self_of("cli.main"),
    }


def traced_round(run: int, commands: dict, expected, tally, input_path: str, block: int):
    """One untraced in-process analyze pair plus one traced CLI pass.

    ``commands`` maps end-to-end metric names to CLI commands; the pass
    runs those named in ``TRACED``.  Every operation goes into ``tally``.
    Returns the round's metrics (none if an operation failed) and its spans.
    """
    from spectropy import QuantizationConfig, analyze_matrix, cli, load_matrix

    traced = [commands[m] for m in TRACED]
    tracer = Tracer(run)
    failed_before = tally.failed
    try:
        matrix = load_matrix(input_path)
        cfg = QuantizationConfig(q=8)
        t0 = time.perf_counter()
        serial = analyze_matrix(matrix, cfg, block=block, jobs=1)
        t1 = time.perf_counter()
        parallel = analyze_matrix(matrix, cfg, block=block, jobs=2)
        t2 = time.perf_counter()
        del matrix
        with patched(tracer):
            for cmd in traced:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(list(cmd.argv))
                tally.record(expected.ok(cmd.kind, code, cmd.output, traced[0].output), " ".join(cmd.argv))
    except Exception:  # a broken program must not end the run unreported
        traceback.print_exc()
        tally.record(False, "traced round raised")
        return {}, tracer.spans
    spans = tracer.spans
    results = [s.result for s in spans if s.name == "pipeline.analyze_matrix"]
    tally.record(serial == parallel, "in-process analyze_matrix: jobs=2 differs from jobs=1")
    tally.record(results == [serial], "traced analyze_matrix differs from the untraced one")
    if tally.failed > failed_before:
        return {}, spans

    metrics = layer_metrics(spans)
    loads = sum(s.name == "ingest.load_matrix" for s in spans)
    metrics["ingest.input_bytes"] = loads * Path(input_path).stat().st_size
    metrics["ingest.load_mb_per_s"] = metrics["ingest.input_bytes"] / 1e6 / metrics["ingest.load_s"]
    metrics["pipeline.par_speedup"] = (t1 - t0) / (t2 - t1)
    metrics["pipeline.trace_overhead_s"] = metrics["pipeline.analyze_s"] - (t1 - t0)
    metrics["cli.report_bytes"] = sum(
        p.stat().st_size for cmd in traced for p in (Path(cmd.output), Path(cmd.output).with_suffix(".json"))
    )
    for s in spans:
        s.result = None
    return metrics, spans
