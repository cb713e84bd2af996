"""Command-line front end for batch spectrum-trace analytics.

Subcommands:
    duty-cycle   per-band occupancy fractions under detection thresholds
    analyze      per-band entropy measures and predictability bounds
    cdf          cross-band predictability CDFs grouped by service
    synth        synthetic trace CSVs from the bundled generators

Every report is written twice: a CSV for plotting pipelines and a JSON
document carrying the full run manifest.  CSV bodies contain no
timestamps, so re-running a command with the same parameters (or with
``analyze --from-manifest``) reproduces them byte for byte.  Both files
are written to temporary names before either is renamed, the CSV last,
so a failing run leaves no partial file and no new CSV by an old JSON.
The pipeline and the generators are imported by the commands that run
them, so ``cdf`` and ``--version`` start without numpy.

Exit codes: 0 success, 2 malformed or degenerate input, 3 bad flags or
parameters.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import tempfile
from array import array
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    InputDataError,
    NonFiniteSampleError,
    ParseError,
    SpectropyError,
    error_name,
)
from .ingest import (
    AVG_DOMAINS,
    block_average,  # no caller here: perfbench/tracing.py patches this name until ROADMAP item 13 cuts that tie
    duty_cycle,
    json_constant,
    json_value,
    load_matrix,
    load_service_map,
    parse_header,
    service_for_frequency,
)
from .quantize import MAX_Q, QuantizationConfig, Strategy
from .trace import PredictabilityReport
from .predictability import predictability_cdf

SCHEMA = "spectropy-report/1"
UNASSIGNED_SERVICE = "unassigned"


def analyze_matrix(*args, **kwargs):
    """``pipeline.analyze_matrix``, imported when an analyze runs: the pipeline loads numpy."""
    from . import pipeline

    return pipeline.analyze_matrix(*args, **kwargs)


def _fmt(x: float) -> str:
    return format(x, ".10g")


def _atomic_write(files: dict[Path, Iterable[str]]) -> None:
    """Write the text pieces of every file to a temporary name beside it, then rename
    them in order; a failure before the last rename leaves the last file untouched.
    Each file gets the mode ``open(path, "w")`` would give a new file."""
    umask = os.umask(0)
    os.umask(umask)
    temps: dict[Path, str] = {}
    try:
        for path, pieces in files.items():
            fd, temps[path] = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
            os.chmod(temps[path], 0o666 & ~umask)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _write_report(output: Path, record: dict, lines: list[str], body: dict, summary: str) -> int:
    """Write the CSV ``lines`` and a JSON report of ``body`` whose manifest is the command's parameter
    ``record`` less its None values, with the tool version, the time and the working directory (where
    relative paths in the record start) after ``command`` and ``inputs``."""
    stamped = {
        "command": record["command"],
        "inputs": record["inputs"],
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "working_dir": os.getcwd(),
        **record,
    }
    report = {"schema": SCHEMA, "manifest": {k: v for k, v in stamped.items() if v is not None}, **body}
    json_path = output.with_suffix(".json")
    # the CSV goes last: a failure before its rename keeps the old pair
    _atomic_write({json_path: [json.dumps(report, indent=2), "\n"], output: ["\n".join(lines), "\n"]})
    print(f"wrote {output} and {json_path} ({summary})")
    return 0


def _service_map(record: dict):
    return load_service_map(record["service_map"]) if record["service_map"] else None


def _report_path(text: str) -> Path:
    # the JSON report goes to the CSV path with a .json suffix, so the two must differ
    path = Path(text)
    if path.suffix == ".json":
        raise argparse.ArgumentTypeError(f"{text!r} is where the JSON report goes; give the CSV path")
    return path


def _finite_float(text: str) -> float:
    # a NaN or infinite threshold would put NaN/Infinity, which is not JSON, into the report
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value + 0.0  # -0.0 (from "-0" or an underflow like -1e-400) names its column 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -107 and -107.5 as negative numbers, not -1.07e2 or -.5e1;
        # no flag starts with a digit or a dot, so any such word is a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with code 2 on usage errors; the toolkit reserves 2
    # for input data, so route usage problems through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


def cmd_duty_cycle(args) -> int:
    thresholds = args.threshold if args.threshold else [-107.0, -114.0]
    named: dict[str, float] = {}
    for t in thresholds:
        column = f"duty_cycle_{_fmt(t)}"
        if column in named:
            raise ConfigError(f"thresholds {named[column]!r} and {t!r} both name the column {column}")
        named[column] = t
    record = {
        "command": "duty-cycle", "inputs": [args.input], "block": args.block, "avg_domain": args.avg_domain,
        "thresholds": thresholds, "service_map": args.service_map or None,
    }
    # the load averages the blocks, as analyze's does; block 1 gives the raw duty cycle
    matrix = load_matrix(args.input, service_map=_service_map(record), block=args.block, avg_domain=args.avg_domain)
    reports = [duty_cycle(matrix, t) for t in thresholds]

    bands = sorted(enumerate(matrix.bands), key=lambda ib: ib[1].center_freq_hz)
    bands_json = [
        {"freq_mhz": band.center_freq_mhz, "label": band.label, "service": band.service,
         "duty_cycles": [rep[i] for rep in reports]}
        for i, band in bands
    ]
    lines = ["freq_mhz," + ",".join(named)]
    lines += [",".join(map(_fmt, [b["freq_mhz"], *b["duty_cycles"]])) for b in bands_json]
    body = {"thresholds": thresholds, "bands": bands_json}
    return _write_report(args.output, record, lines, body, f"{len(bands_json)} bands")


ANALYZE_COLUMNS = ("freq_mhz", "e_rand", "e_unc", "e_actual", "pi_max", "clamped", "n")
# the analysis flags a manifest records, with the defaults cmd_analyze fills in
ANALYZE_DEFAULTS = {"q": 8, "strategy": Strategy.EQUAL_WIDTH.value, "block": 1, "avg_domain": "linear", "jobs": 1}


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, int) else _fmt(value)


def _analyze_record_from_manifest(path) -> dict:
    """The parameter record an analyze report was written with, checked before any file is opened."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=json_constant)
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ParseError(1, f"{path}: not a JSON manifest ({exc})") from None
    manifest = doc.get("manifest", doc) if isinstance(doc, dict) else doc
    try:
        if manifest["command"] != "analyze":
            raise ParseError(1, f"{path}: manifest is for {manifest['command']!r}, not analyze")
        # relative paths name files in the directory the report was written from; a report
        # without that record is read from the current directory
        working_dir = os.fspath(manifest.get("working_dir", ""))
        inputs = json_value(manifest["inputs"], "array", "inputs")
        record = {
            "command": "analyze",
            "inputs": [os.path.join(working_dir, json_value(inputs[0], "string", "inputs[0]"))],
            "q": json_value(manifest["q"], "integer", "q"),
            "strategy": Strategy(manifest["strategy"]).value,
            "block": json_value(manifest["block"], "integer", "block"),
            "avg_domain": manifest["avg_domain"],
            "jobs": json_value(manifest.get("jobs", 1), "integer", "jobs"),
            "service_map": manifest.get("service_map"),
        }
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(1, f"{path}: not a usable analyze manifest ({exc})") from None
    if not 1 <= record["q"] <= MAX_Q:
        problem = f"q {record['q']} outside [1, {MAX_Q}]"
    elif record["avg_domain"] not in AVG_DOMAINS:
        problem = f"avg_domain {record['avg_domain']!r} is not one of {AVG_DOMAINS}"
    elif min(record["block"], record["jobs"]) < 1:
        problem = f"block {record['block']} or jobs {record['jobs']} below 1"
    elif not isinstance(record["service_map"], (str, type(None))):  # open(0) would read stdin
        problem = f"service_map {record['service_map']!r} is not a path"
    else:
        if record["service_map"]:
            record["service_map"] = os.path.join(working_dir, record["service_map"])
        return record
    raise ParseError(1, f"{path}: not a usable analyze manifest ({problem})")


def cmd_analyze(args) -> int:
    given = {name: value for name in ANALYZE_DEFAULTS if (value := getattr(args, name)) is not None}
    if args.from_manifest:
        if args.input is not None:
            raise ConfigError("give either an input file or --from-manifest, not both")
        if given:
            flags = ", ".join(f"--{name.replace('_', '-')}" for name in given)
            raise ConfigError(f"{flags} cannot be given with --from-manifest, which records them")
        record = _analyze_record_from_manifest(args.from_manifest)
        record["service_map"] = args.service_map or record["service_map"]
    elif args.input is None:
        raise ConfigError("an input file is required (or use --from-manifest)")
    else:
        record = {
            "command": "analyze", "inputs": [args.input], **ANALYZE_DEFAULTS, **given,
            "service_map": args.service_map or None,
        }

    try:  # the load averages the blocks, so that only the averaged matrix is held
        matrix = load_matrix(record["inputs"][0], service_map=_service_map(record),
                             block=record["block"], avg_domain=record["avg_domain"])
    except (ConfigError, ValueError):
        QuantizationConfig(q=record["q"])  # a bad q is reported ahead of a bad block
        raise
    cfg = QuantizationConfig(q=record["q"], strategy=Strategy(record["strategy"]))
    results = analyze_matrix(matrix, cfg, block=1, jobs=record["jobs"])
    bands_json = [
        {
            "freq_mhz": r.band.center_freq_mhz,
            "label": r.band.label,
            "service": r.band.service,
            **vars(r.entropy),
            **vars(r.predictability),
        }
        for r in results
    ]
    lines = [",".join(ANALYZE_COLUMNS)] + [",".join(_csv_cell(b[c]) for c in ANALYZE_COLUMNS) for b in bands_json]
    return _write_report(args.output, record, lines, {"bands": bands_json}, f"{len(results)} bands")


def cmd_cdf(args) -> int:
    record = {"command": "cdf", "inputs": args.inputs, "service_map": args.service_map or None}
    service_map = _service_map(record)
    groups: dict[str, list[tuple[str, PredictabilityReport]]] = {}
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh, parse_constant=json_constant)
            bands = list(doc["bands"])
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: also invalid JSON, not UTF-8
            raise ParseError(1, f"{path}: not an analyze JSON report ({exc})") from None
        for b in bands:
            try:
                rep = PredictabilityReport(
                    pi_max=float(json_value(b["pi_max"], "number", "pi_max")),
                    entropy_used=float(json_value(b["entropy_used"], "number", "entropy_used")),
                    clamped=json_value(b["clamped"], "boolean", "clamped"),
                    iterations=json_value(b["iterations"], "integer", "iterations"),
                    q=json_value(b["q"], "integer", "q"),
                )
                freq_mhz = float(json_value(b["freq_mhz"], "number", "freq_mhz"))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(1, f"{path}: malformed band entry ({exc})") from None
            if service_map is not None:
                service = service_for_frequency(freq_mhz, service_map)
            else:
                service = b.get("service")
                if not isinstance(service, (str, type(None))):
                    raise ParseError(1, f"{path}: malformed band entry (service {service!r})")
            groups.setdefault(service or UNASSIGNED_SERVICE, []).append((path, rep))

    cdfs = {}
    for name, entries in sorted(groups.items()):
        files_by_q: dict[int, dict[str, None]] = {}
        for path, rep in entries:
            files_by_q.setdefault(rep.q, {})[path] = None
        if len(files_by_q) > 1:
            where = "; ".join(f"q={q} in {', '.join(files)}" for q, files in sorted(files_by_q.items()))
            raise InputDataError(f"service {name!r} mixes alphabet sizes ({where})")
        cdfs[name] = predictability_cdf([rep for _, rep in entries], name)
    lines = ["service,pi_max,cum_fraction"]
    services_json = {}
    for name, cdf in cdfs.items():
        for pi, frac in cdf.points:
            lines.append(f"{name},{_fmt(pi)},{_fmt(frac)}")
        services_json[name] = {"q": cdf.q, "points": [[pi, frac] for pi, frac in cdf.points]}
    return _write_report(args.output, record, lines, {"services": services_json}, f"{len(cdfs)} services")


def _parse_pattern(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"pattern must be comma-separated integers, got {text!r}") from None


def cmd_synth(args) -> int:
    from .synth import MarkovSpec, _gaussian_samples, gen_iid_uniform, gen_markov, gen_periodic, markov_spec_from_json

    if args.bands < 1:
        raise ConfigError(f"--bands must be >= 1, got {args.bands}")
    flag, size = ("--repeats", args.repeats) if args.model == "periodic" else ("--n", args.n)
    if size < 1:
        raise ConfigError(f"{flag} must be >= 1, got {size}")
    if args.model == "iid" and args.q < 1:
        raise ConfigError(f"--q must be >= 1, got {args.q}")
    if args.model == "gaussian" and not math.isfinite(args.mean_dbm):
        raise ConfigError(f"--mean-dbm must be finite, got {args.mean_dbm}")
    if args.model == "gaussian" and not (math.isfinite(args.sigma_db) and args.sigma_db > 0):
        raise ConfigError(f"--sigma-db must be positive and finite, got {args.sigma_db}")
    try:
        header = [_fmt(args.start_mhz + k * args.step_mhz) for k in range(args.bands)]
        try:  # checked as written, since rounding can overflow
            parse_header(",".join(header), 1)
        except ParseError as exc:  # load_matrix would reject the file
            raise ConfigError(f"band {exc.reason}") from None
        try:
            if args.model == "markov":
                if not args.spec:
                    raise ConfigError("--spec is required for the markov model")
                spec = markov_spec_from_json(args.spec)
                columns = [gen_markov(MarkovSpec(spec.transition, spec.initial, spec.seed + k), args.n).levels
                           for k in range(args.bands)]
            elif args.model == "periodic":
                if not args.pattern:
                    raise ConfigError("--pattern is required for the periodic model")
                try:
                    columns = [gen_periodic(_parse_pattern(args.pattern), args.repeats).levels] * args.bands
                except OverflowError:  # the band is longer than an index can count, or a level is past int64
                    if args.repeats > sys.maxsize:
                        raise ConfigError(f"--repeats {args.repeats} is too large for the length of a band") from None
                    raise ConfigError(f"--pattern {args.pattern} has a level too large for a 64-bit integer") from None
            elif args.model == "gaussian":
                try:
                    draws = (_gaussian_samples(args.n, args.mean_dbm, args.sigma_db, args.seed + k)
                             for k in range(args.bands))
                    # array("d") holds 8 bytes a sample, where a tuple of Python floats takes 32
                    columns = [array("d", draw.tobytes()) for draw in draws]
                except ValueError as exc:
                    if not isinstance(exc.__cause__, NonFiniteSampleError):
                        raise
                    # a draw past the float range
                    flags = f"--mean-dbm {args.mean_dbm} and --sigma-db {args.sigma_db}"
                    raise ConfigError(f"{flags} draw a {exc.__cause__}") from None
            else:
                columns = [gen_iid_uniform(args.q, args.n, args.seed + k).levels for k in range(args.bands)]
        except MemoryError:  # numpy's failed allocations are MemoryErrors too
            raise ConfigError(f"{flag} {size} is too large: the samples of a band do not fit in memory") from None

        # "%.10g" % x is _fmt(x); rows are formatted one at a time as they are written
        row_fmt = ",".join(["%.10g" if args.model == "gaussian" else "%d"] * args.bands) + "\n"
        rows = (row_fmt % row for row in zip(*columns))
        _atomic_write({args.output: itertools.chain([",".join(header) + "\n"], rows)})
    except MemoryError:  # the header and every row hold one cell per band
        raise ConfigError(f"--bands {args.bands} is too large: the header or a row does not fit in memory") from None
    print(f"wrote {args.output} ({args.bands} bands x {len(columns[0])} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spectropy", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"spectropy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    dc = sub.add_parser("duty-cycle", help="per-band occupancy under detection thresholds")
    dc.add_argument("input", help="PSD trace CSV")
    dc.add_argument("--threshold", type=_finite_float, action="append", metavar="DBM",
                    help="detection threshold in dBm, repeatable (default: -107 and -114)")
    dc.add_argument("--block", type=int, default=1,
                    help="block-average factor (default 1, the raw samples); duty cycle is taken after averaging")
    dc.add_argument("--avg-domain", choices=AVG_DOMAINS, default="linear")
    dc.add_argument("--service-map", help="service-map JSON sidecar")
    dc.add_argument("--output", required=True, type=_report_path, help="output CSV path (JSON written beside it)")
    dc.set_defaults(func=cmd_duty_cycle)

    an = sub.add_parser("analyze", help="entropy and predictability bound per band")
    an.add_argument("input", nargs="?", help="PSD trace CSV")
    # the analysis flags default to None, so that --from-manifest can tell a given one
    an.add_argument("--q", type=int, help=f"number of quantization levels, 1 to {MAX_Q} (default 8)")
    an.add_argument("--strategy", choices=[s.value for s in Strategy], help="quantization bins (default equal-width)")
    an.add_argument("--block", type=int, help="block-average factor (default 1)")
    an.add_argument("--avg-domain", choices=AVG_DOMAINS, help="block-average domain (default linear)")
    an.add_argument("--jobs", type=int,
                    help="upper bound on worker processes (default 1): at most one runs per band, per usable CPU"
                         " and per 50,000 slots after averaging, so small inputs run in-process")
    an.add_argument("--service-map", help="service-map JSON sidecar")
    an.add_argument("--from-manifest", metavar="REPORT_JSON",
                    help="re-run with the parameters (service map included, unless --service-map is given)"
                         " recorded in a previous analyze report; the other analysis flags may not be given")
    an.add_argument("--output", required=True, type=_report_path, help="output CSV path (JSON written beside it)")
    an.set_defaults(func=cmd_analyze)

    cd = sub.add_parser("cdf", help="per-service predictability CDFs from analyze reports")
    cd.add_argument("inputs", nargs="+", help="analyze JSON report(s)")
    cd.add_argument("--service-map", help="service-map JSON (else services stored in the reports)")
    cd.add_argument("--output", required=True, type=_report_path, help="output CSV path (JSON written beside it)")
    cd.set_defaults(func=cmd_cdf)

    sy = sub.add_parser("synth", help="write a synthetic PSD/level trace CSV")
    sy.add_argument("--model", choices=["gaussian", "iid", "markov", "periodic"], required=True)
    sy.add_argument("--n", type=int, default=3360, help="samples per band (default 3360; not for periodic)")
    sy.add_argument("--seed", type=int, default=0,
                    help="base seed; band k uses seed+k (markov uses the spec's seed+k, periodic none)")
    sy.add_argument("--bands", type=int, default=1, help="number of bands (default 1)")
    sy.add_argument("--q", type=int, default=8, help="alphabet size for the iid model")
    sy.add_argument("--mean-dbm", type=float, default=-100.0)
    sy.add_argument("--sigma-db", type=float, default=5.0)
    sy.add_argument("--spec", help="MarkovSpec JSON (matrix, initial, seed)")
    sy.add_argument("--pattern", help="comma-separated levels for the periodic model")
    sy.add_argument("--repeats", type=int, default=1, help="periodic length is pattern x repeats (default 1)")
    sy.add_argument("--start-mhz", type=float, default=614.1, help="first band center (default 614.1)")
    sy.add_argument("--step-mhz", type=float, default=0.2, help="band spacing (default 0.2)")
    sy.add_argument("--output", required=True, type=Path, help="output CSV path")
    sy.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputDataError as exc:
        print(f"error: {error_name(exc)}: {exc}", file=sys.stderr)
        return 2
    except (SpectropyError, ValueError) as exc:
        print(f"error: {error_name(exc)}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
