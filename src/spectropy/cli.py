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

Exit codes: 0 success, 2 malformed or degenerate input, 3 bad flags or
parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    InputDataError,
    ParseError,
    SpectropyError,
    error_name,
)
from .ingest import (
    AVG_DOMAINS,
    block_average,
    duty_cycle,
    load_matrix,
    load_service_map,
    parse_header,
    service_for_frequency,
)
from .pipeline import analyze_matrix
from .quantize import MAX_Q, QuantizationConfig, Strategy
from .synth import (
    gen_gaussian_psd,
    gen_iid_uniform,
    gen_markov,
    gen_periodic,
    markov_spec_from_json,
)
from .trace import PredictabilityReport
from .predictability import predictability_cdf

SCHEMA = "spectropy-report/1"
UNASSIGNED_SERVICE = "unassigned"


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
    ``record`` less its None values, with the tool version and time after ``command`` and ``inputs``."""
    stamped = {
        "command": record["command"],
        "inputs": record["inputs"],
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
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
        "thresholds": thresholds, "dc_before_average": args.before_average, "service_map": args.service_map or None,
    }
    matrix = load_matrix(args.input, service_map=_service_map(record))
    # block 1 gives back the matrix itself, and a block below 1 is rejected
    stage_matrix = matrix if args.before_average else block_average(matrix, args.block, domain=args.avg_domain)
    reports = [duty_cycle(stage_matrix, t) for t in thresholds]

    bands = sorted(enumerate(matrix.bands), key=lambda ib: ib[1].center_freq_hz)
    bands_json = [
        {"freq_mhz": band.center_freq_mhz, "label": band.label, "service": band.service,
         "duty_cycles": [rep.per_band[i][1] for rep in reports]}
        for i, band in bands
    ]
    lines = ["freq_mhz," + ",".join(named)]
    lines += [",".join(map(_fmt, [b["freq_mhz"], *b["duty_cycles"]])) for b in bands_json]
    body = {"thresholds": thresholds, "bands": bands_json}
    return _write_report(args.output, record, lines, body, f"{len(bands_json)} bands")


ANALYZE_COLUMNS = ("freq_mhz", "e_rand", "e_unc", "e_actual", "pi_max", "clamped", "n")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, int) else _fmt(value)


def _analyze_record_from_manifest(path) -> dict:
    """The parameter record an analyze report was written with, checked before any file is opened."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ParseError(1, f"{path}: not a JSON manifest ({exc})") from None
    manifest = doc.get("manifest", doc) if isinstance(doc, dict) else doc
    try:
        if manifest["command"] != "analyze":
            raise ParseError(1, f"{path}: manifest is for {manifest['command']!r}, not analyze")
        record = {
            "command": "analyze",
            "inputs": [os.fspath(manifest["inputs"][0])],
            "q": int(manifest["q"]),
            "strategy": Strategy(manifest["strategy"]).value,
            "block": int(manifest["block"]),
            "avg_domain": manifest["avg_domain"],
            "jobs": int(manifest.get("jobs", 1)),
            "service_map": manifest.get("service_map"),
        }
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
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
        return record
    raise ParseError(1, f"{path}: not a usable analyze manifest ({problem})")


def cmd_analyze(args) -> int:
    if args.from_manifest:
        if args.input is not None:
            raise ConfigError("give either an input file or --from-manifest, not both")
        record = _analyze_record_from_manifest(args.from_manifest)
        record["service_map"] = args.service_map or record["service_map"]
    elif args.input is None:
        raise ConfigError("an input file is required (or use --from-manifest)")
    else:
        record = {
            "command": "analyze", "inputs": [args.input], "q": args.q, "strategy": args.strategy,
            "block": args.block, "avg_domain": args.avg_domain, "jobs": args.jobs,
            "service_map": args.service_map or None,
        }

    matrix = load_matrix(record["inputs"][0], service_map=_service_map(record))
    cfg = QuantizationConfig(q=record["q"], strategy=Strategy(record["strategy"]))
    results = analyze_matrix(matrix, cfg, block=record["block"], avg_domain=record["avg_domain"], jobs=record["jobs"])
    bands_json = [
        {
            "freq_mhz": r.band.center_freq_mhz,
            "label": r.band.label,
            "service": r.band.service,
            **dataclasses.asdict(r.entropy),
            **dataclasses.asdict(r.predictability),
        }
        for r in results
    ]
    lines = [",".join(ANALYZE_COLUMNS)] + [",".join(_csv_cell(b[c]) for c in ANALYZE_COLUMNS) for b in bands_json]
    return _write_report(args.output, record, lines, {"bands": bands_json}, f"{len(results)} bands")


def cmd_cdf(args) -> int:
    record = {"command": "cdf", "inputs": args.inputs, "service_map": args.service_map or None}
    service_map = _service_map(record)
    groups: dict[str, list[PredictabilityReport]] = {}
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            bands = list(doc["bands"])
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
            raise ParseError(1, f"{path}: not an analyze JSON report ({exc})") from None
        for b in bands:
            try:
                rep = PredictabilityReport(
                    pi_max=float(b["pi_max"]),
                    entropy_used=float(b["entropy_used"]),
                    clamped=bool(b["clamped"]),
                    iterations=int(b["iterations"]),
                    q=int(b["q"]),
                )
                freq_mhz = float(b["freq_mhz"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(1, f"{path}: malformed band entry ({exc})") from None
            if service_map is not None:
                service = service_for_frequency(freq_mhz, service_map)
            else:
                service = b.get("service")
                if not isinstance(service, (str, type(None))):
                    raise ParseError(1, f"{path}: malformed band entry (service {service!r})")
            groups.setdefault(service or UNASSIGNED_SERVICE, []).append(rep)

    cdfs = {name: predictability_cdf(reps, name) for name, reps in sorted(groups.items())}
    lines = ["service,pi_max,cum_fraction"]
    services_json = {}
    for name, cdf in cdfs.items():
        for pi, frac in cdf.points:
            lines.append(f"{name},{_fmt(pi)},{_fmt(frac)}")
        services_json[name] = {"q": cdf.q, "points": [[pi, frac] for pi, frac in cdf.points]}
    return _write_report(args.output, record, lines, {"services": services_json}, f"{len(cdfs)} services")


def _parse_pattern(text: str) -> tuple[int, ...]:
    try:
        pattern = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"pattern must be comma-separated integers, got {text!r}") from None
    if not pattern:
        raise ConfigError("pattern must be non-empty")
    return pattern


def cmd_synth(args) -> int:
    if args.bands < 1:
        raise ConfigError(f"--bands must be >= 1, got {args.bands}")
    header = [_fmt(args.start_mhz + k * args.step_mhz) for k in range(args.bands)]
    try:  # checked as written, since rounding can overflow
        parse_header(",".join(header), 1)
    except ParseError as exc:  # load_matrix would reject the file
        raise ConfigError(f"band {exc.reason}") from None
    if args.model == "markov":
        if not args.spec:
            raise ConfigError("--spec is required for the markov model")
        spec = markov_spec_from_json(args.spec)
        columns = [gen_markov(dataclasses.replace(spec, seed=spec.seed + k), args.n).levels for k in range(args.bands)]
    elif args.model == "periodic":
        if not args.pattern:
            raise ConfigError("--pattern is required for the periodic model")
        columns = [gen_periodic(_parse_pattern(args.pattern), args.repeats).levels] * args.bands
    elif args.model == "gaussian":
        columns = [
            gen_gaussian_psd(args.n, args.mean_dbm, args.sigma_db, args.seed + k).samples for k in range(args.bands)
        ]
    else:
        columns = [gen_iid_uniform(args.q, args.n, args.seed + k).levels for k in range(args.bands)]

    # "%.10g" % x is _fmt(x); rows are formatted one at a time as they are written
    row_fmt = ",".join(["%.10g" if args.model == "gaussian" else "%d"] * args.bands) + "\n"
    rows = (row_fmt % row for row in zip(*columns))
    _atomic_write({args.output: itertools.chain([",".join(header) + "\n"], rows)})
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
                    help="block-average factor (default 1); recorded but unused with --before-average")
    dc.add_argument("--avg-domain", choices=AVG_DOMAINS, default="linear")
    dc.add_argument("--before-average", action="store_true",
                    help="compute duty cycle on raw samples instead of after block averaging")
    dc.add_argument("--service-map", help="service-map JSON sidecar")
    dc.add_argument("--output", required=True, type=_report_path, help="output CSV path (JSON written beside it)")
    dc.set_defaults(func=cmd_duty_cycle)

    an = sub.add_parser("analyze", help="entropy and predictability bound per band")
    an.add_argument("input", nargs="?", help="PSD trace CSV")
    an.add_argument("--q", type=int, default=8, help=f"number of quantization levels, 1 to {MAX_Q} (default 8)")
    an.add_argument("--strategy", choices=[s.value for s in Strategy], default=Strategy.EQUAL_WIDTH.value)
    an.add_argument("--block", type=int, default=1, help="block-average factor (default 1)")
    an.add_argument("--avg-domain", choices=AVG_DOMAINS, default="linear")
    an.add_argument("--jobs", type=int, default=1,
                    help="worker processes for per-band analysis (at most one per band and CPU)")
    an.add_argument("--service-map", help="service-map JSON sidecar")
    an.add_argument("--from-manifest", metavar="REPORT_JSON",
                    help="re-run with the parameters (service map included, unless --service-map is given)"
                         " recorded in a previous analyze report")
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
