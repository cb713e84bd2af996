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
import json
import math
import os
import sys
import tempfile
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
    block_average,
    duty_cycle,
    load_matrix,
    load_service_map,
    service_for_frequency,
)
from .pipeline import analyze_matrix
from .quantize import MAX_Q, QuantizationConfig, Strategy
from .synth import (
    MarkovSpec,
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


def _atomic_write(files: dict[Path, str]) -> None:
    """Write every file to a temporary name beside it, then rename them in
    order; a failure before the last rename leaves the last file untouched.
    Each file gets the mode ``open(path, "w")`` would give a new file."""
    umask = os.umask(0)
    os.umask(umask)
    temps: dict[Path, str] = {}
    try:
        for path, text in files.items():
            fd, temps[path] = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.chmod(temps[path], 0o666 & ~umask)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _write_report(args, command: str, inputs, lines: list[str], body: dict, summary: str, **params) -> int:
    """Write the CSV ``lines`` and a JSON report with the run manifest and ``body``."""
    manifest = {
        "command": command,
        "inputs": inputs,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **params,
        "service_map": args.service_map or None,
    }
    report = {"schema": SCHEMA, "manifest": {k: v for k, v in manifest.items() if v is not None}, **body}
    json_path = args.output.with_suffix(".json")
    # the CSV goes last: a failure before its rename keeps the old pair
    _atomic_write({json_path: json.dumps(report, indent=2) + "\n", args.output: "\n".join(lines) + "\n"})
    print(f"wrote {args.output} and {json_path} ({summary})")
    return 0


def _report_path(text: str) -> Path:
    # the JSON report goes to the CSV path with a .json suffix, so the two must differ
    path = Path(text)
    if path.suffix == ".json":
        raise argparse.ArgumentTypeError(f"{text!r} is where the JSON report goes; give the CSV path")
    return path


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the toolkit reserves 2
    # for input data, so route usage problems through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


def cmd_duty_cycle(args) -> int:
    service_map = load_service_map(args.service_map) if args.service_map else None
    matrix = load_matrix(args.input, service_map=service_map)
    thresholds = args.threshold if args.threshold else [-107.0, -114.0]
    stage_matrix = matrix
    if args.block > 1 and not args.before_average:
        stage_matrix = block_average(matrix, args.block, domain=args.avg_domain)
    reports = [duty_cycle(stage_matrix, t) for t in thresholds]

    order = sorted(range(len(matrix.bands)), key=lambda i: matrix.bands[i].center_freq_hz)
    lines = ["freq_mhz," + ",".join(f"duty_cycle_{_fmt(t)}" for t in thresholds)]
    bands_json = []
    for i in order:
        band = stage_matrix.bands[i]
        dcs = [rep.per_band[i][1] for rep in reports]
        lines.append(",".join([_fmt(band.center_freq_mhz)] + [_fmt(v) for v in dcs]))
        bands_json.append(
            {
                "freq_mhz": band.center_freq_mhz,
                "label": band.label,
                "service": band.service,
                "duty_cycles": dcs,
            }
        )
    return _write_report(
        args, "duty-cycle", [args.input], lines, {"thresholds": thresholds, "bands": bands_json},
        f"{len(order)} bands", block=args.block, avg_domain=args.avg_domain,
        thresholds=thresholds, dc_before_average=args.before_average,
    )


def _analyze_params_from_manifest(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ParseError(1, f"{path}: not a JSON manifest ({exc})") from None
    manifest = doc.get("manifest", doc) if isinstance(doc, dict) else doc
    try:
        if manifest["command"] != "analyze":
            raise ParseError(1, f"{path}: manifest is for {manifest['command']!r}, not analyze")
        params = {
            "input": os.fspath(manifest["inputs"][0]),
            "q": int(manifest["q"]),
            "strategy": manifest["strategy"],
            "block": int(manifest["block"]),
            "avg_domain": manifest["avg_domain"],
            "jobs": int(manifest.get("jobs", 1)),
        }
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(1, f"{path}: not a usable analyze manifest ({exc})") from None
    if not 1 <= params["q"] <= MAX_Q:
        raise ParseError(1, f"{path}: not a usable analyze manifest (q {params['q']} outside [1, {MAX_Q}])")
    return params


def cmd_analyze(args) -> int:
    if args.from_manifest:
        if args.input is not None:
            raise ConfigError("give either an input file or --from-manifest, not both")
        params = _analyze_params_from_manifest(args.from_manifest)
    else:
        if args.input is None:
            raise ConfigError("an input file is required (or use --from-manifest)")
        params = {
            "input": args.input,
            "q": args.q,
            "strategy": args.strategy,
            "block": args.block,
            "avg_domain": args.avg_domain,
            "jobs": args.jobs,
        }

    input_path = params.pop("input")
    service_map = load_service_map(args.service_map) if args.service_map else None
    matrix = load_matrix(input_path, service_map=service_map)
    cfg = QuantizationConfig(q=params["q"], strategy=Strategy(params["strategy"]))
    results = analyze_matrix(
        matrix,
        cfg,
        block=params["block"],
        avg_domain=params["avg_domain"],
        jobs=params["jobs"],
    )

    lines = ["freq_mhz,e_rand,e_unc,e_actual,pi_max,clamped,n"]
    bands_json = []
    for r in results:
        e, p = r.entropy, r.predictability
        lines.append(
            ",".join(
                [
                    _fmt(r.band.center_freq_mhz),
                    _fmt(e.e_rand),
                    _fmt(e.e_unc),
                    _fmt(e.e_actual),
                    _fmt(p.pi_max),
                    "true" if p.clamped else "false",
                    str(e.n),
                ]
            )
        )
        bands_json.append(
            {
                "freq_mhz": r.band.center_freq_mhz,
                "label": r.band.label,
                "service": r.band.service,
                **dataclasses.asdict(e),
                **dataclasses.asdict(p),
            }
        )
    return _write_report(
        args, "analyze", [input_path], lines, {"bands": bands_json}, f"{len(results)} bands", **params
    )


def cmd_cdf(args) -> int:
    service_map = load_service_map(args.service_map) if args.service_map else None
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
    return _write_report(args, "cdf", args.inputs, lines, {"services": services_json}, f"{len(cdfs)} services")


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
    for tok in header:
        # checked as written, since rounding can overflow; load_matrix rejects the same tokens
        if not 0 < float(tok) < math.inf:
            raise ConfigError(f"band frequency {tok} MHz must be positive and finite")
    n = args.n
    columns: list[list[str]] = []
    for k in range(args.bands):
        seed = args.seed + k
        if args.model == "gaussian":
            trace = gen_gaussian_psd(n, args.mean_dbm, args.sigma_db, seed)
            columns.append([_fmt(v) for v in trace.samples])
        elif args.model == "iid":
            qt = gen_iid_uniform(args.q, n, seed)
            columns.append([str(v) for v in qt.levels])
        elif args.model == "markov":
            if not args.spec:
                raise ConfigError("--spec is required for the markov model")
            spec = markov_spec_from_json(args.spec)
            spec = MarkovSpec(spec.transition, spec.initial, spec.seed + k)
            qt = gen_markov(spec, n)
            columns.append([str(v) for v in qt.levels])
        else:
            if not args.pattern:
                raise ConfigError("--pattern is required for the periodic model")
            qt = gen_periodic(_parse_pattern(args.pattern), args.repeats)
            columns.append([str(v) for v in qt.levels])
            n = len(qt.levels)

    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(row))
    _atomic_write({args.output: "\n".join(lines) + "\n"})
    print(f"wrote {args.output} ({args.bands} bands x {len(columns[0])} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spectropy", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"spectropy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    dc = sub.add_parser("duty-cycle", help="per-band occupancy under detection thresholds")
    dc.add_argument("input", help="PSD trace CSV")
    dc.add_argument("--threshold", type=float, action="append", metavar="DBM",
                    help="detection threshold in dBm, repeatable (default: -107 and -114)")
    dc.add_argument("--block", type=int, default=1, help="block-average factor (default 1)")
    dc.add_argument("--avg-domain", choices=["linear", "db"], default="linear")
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
    an.add_argument("--avg-domain", choices=["linear", "db"], default="linear")
    an.add_argument("--jobs", type=int, default=1,
                    help="worker processes for per-band analysis (at most one per band and CPU)")
    an.add_argument("--service-map", help="service-map JSON sidecar")
    an.add_argument("--from-manifest", metavar="REPORT_JSON",
                    help="re-run with the parameters recorded in a previous analyze report")
    an.add_argument("--output", required=True, type=_report_path, help="output CSV path (JSON written beside it)")
    an.set_defaults(func=cmd_analyze)

    cd = sub.add_parser("cdf", help="per-service predictability CDFs from analyze reports")
    cd.add_argument("inputs", nargs="+", help="analyze JSON report(s)")
    cd.add_argument("--service-map", help="service-map JSON (else services stored in the reports)")
    cd.add_argument("--output", required=True, type=_report_path, help="output CSV path (JSON written beside it)")
    cd.set_defaults(func=cmd_cdf)

    sy = sub.add_parser("synth", help="write a synthetic PSD/level trace CSV")
    sy.add_argument("--model", choices=["gaussian", "iid", "markov", "periodic"], required=True)
    sy.add_argument("--n", type=int, default=3360, help="samples per band (default 3360)")
    sy.add_argument("--seed", type=int, default=0, help="base seed; band k uses seed+k")
    sy.add_argument("--bands", type=int, default=1, help="number of bands (default 1)")
    sy.add_argument("--q", type=int, default=8, help="alphabet size for the iid model")
    sy.add_argument("--mean-dbm", type=float, default=-100.0)
    sy.add_argument("--sigma-db", type=float, default=5.0)
    sy.add_argument("--spec", help="MarkovSpec JSON (matrix, initial, seed)")
    sy.add_argument("--pattern", help="comma-separated levels for the periodic model")
    sy.add_argument("--repeats", type=int, default=1)
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
