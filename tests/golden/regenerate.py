"""Write the golden corpus: small trace inputs and the CSVs the CLI makes of them.

Run from the repository root with ``PYTHONPATH=src python tests/golden/regenerate.py``.
It rewrites ``inputs/`` from fixed seeds of Python's ``random`` (so the inputs do not
depend on the numpy version) and then every file of ``expected/``.  Each expected file
holds one section per command: a ``$ `` line, the command run in a directory holding
the inputs, and then the lines of the CSV that the command writes to its ``--output``.
``tests/test_golden.py`` replays the sections and compares the bytes.  Only regenerate
when a change of output is intended, and say in the change which files moved and why.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shlex
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from spectropy.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
HEADER = (
    "# spectropy golden corpus, written by tests/golden/regenerate.py: each '$ ' line is a command\n"
    "# run in a directory holding tests/golden/inputs, followed by the CSV it writes to its --output.\n"
)
SERVICE_MAP = {"TV": [600.0, 730.0], "LTE": [730.0, 800.0]}


def _gaussian(rng: random.Random) -> list[list[str]]:
    return [["%.10g" % rng.gauss(-100.0, 5.0) for _ in range(2)] for _ in range(240)]


def _levels(rng: random.Random) -> list[list[str]]:
    # an i.i.d. uniform band over 8 levels beside a sticky 3-state Markov chain
    stay = 0.85
    state, rows = 0, []
    for _ in range(400):
        if rng.random() >= stay:
            state = (state + rng.randrange(1, 3)) % 3
        rows.append([str(rng.randrange(8)), str(state)])
    return rows


def _beacon(rng: random.Random) -> list[list[str]]:
    # an exact beacon every 10 slots, and a 7-slot beacon over a noisy floor
    return [
        ["-60" if t % 10 == 0 else "-110", "-60" if t % 7 == 0 else "%.4g" % rng.gauss(-110.0, 0.5)]
        for t in range(420)
    ]


def _idle_spike(rng: random.Random) -> list[list[str]]:
    return [
        ["-60" if t == 123 else "%.6g" % rng.gauss(-110.0, 0.5), "-60" if t == 301 else "-110"]
        for t in range(400)
    ]


def _constant(rng: random.Random) -> list[list[str]]:
    return [["-100", "-87.5"] for _ in range(200)]


def _wide(rng: random.Random) -> list[list[str]]:
    # a quiet floor with 24 rare levels spread over 48 dB: at q = 64 the band has more than
    # 16 distinct symbols and too little entropy for refinement, so the automaton keeps a dict
    spikes = dict(zip(rng.sample(range(600), 24), range(1, 25)))
    return [["%g" % (-110.0 + 2.0 * spikes[t]) if t in spikes else "-110"] for t in range(600)]


def _export(rng: random.Random) -> list[list[str]]:
    # cells padded as spreadsheets and instrument logs pad them: a no-break space before, a \x1c after
    return [["\xa0%.6g" % rng.gauss(-100.0, 5.0), "%.6g\x1c" % rng.gauss(-105.0, 3.0)] for _ in range(300)]


def _gaps(rng: random.Random) -> list[list[str]]:
    # a comment line and a whitespace-only line among the rows, which numpy's parser declines,
    # so the line reader reads and averages this file
    rows = [["%.6g" % rng.gauss(-100.0, 5.0), "%.6g" % rng.gauss(-108.0, 4.0)] for _ in range(250)]
    rows.insert(200, [" \t"])
    rows.insert(100, ["# scan resumed after a gain change"])
    return rows


# input name -> (band centres in MHz, generator, seed)
TRACES = {
    "gaussian": (("614.1", "614.3"), _gaussian, 1),
    "levels": (("700.1", "700.3"), _levels, 2),
    "beacon": (("720.1", "720.3"), _beacon, 3),
    "idle_spike": (("740.1", "740.3"), _idle_spike, 4),
    "constant": (("760.1", "760.3"), _constant, 5),
    "wide": (("780.1",), _wide, 6),
    "export": (("\xa0800.1", "800.3\x1c"), _export, 7),
    "gaps": (("820.1", "820.3"), _gaps, 8),
}
# inputs written as a spreadsheet's "CSV UTF-8" export or an instrument log: a byte-order mark,
# a non-ASCII note above the header and CRLF line ends
EXPORT_HEAD = {"export": "\ufeff# RBW 200 kHz, \u0394t 180 s"}


def write_inputs(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, (freqs, make, seed) in TRACES.items():
        rows = make(random.Random(seed))
        head, end = (EXPORT_HEAD[name] + "\r\n", "\r\n") if name in EXPORT_HEAD else ("", "\n")
        text = head + "".join(",".join(row) + end for row in [freqs, *rows])
        (directory / f"{name}.csv").write_text(text, encoding="utf-8", newline="")
    (directory / "services.json").write_text(json.dumps(SERVICE_MAP) + "\n", encoding="utf-8", newline="")


def commands() -> dict[str, list[str]]:
    """Expected file name -> the command lines whose CSVs it holds, in order."""
    out: dict[str, list[str]] = {}
    for name in TRACES:
        lines = [
            f"analyze {name}.csv --q {q} --strategy {strategy} --block {block} --avg-domain {domain} --output out.csv"
            for q, strategy, block, domain in itertools.product(
                (1, 2, 8, 64), ("equal-width", "equal-frequency"), (1, 3), ("linear", "db")
            )
        ]
        lines += [
            f"duty-cycle {name}.csv --block {block} --avg-domain {domain} --output out.csv"
            for block, domain in itertools.product((1, 3), ("linear", "db"))
        ]
        out[f"{name}.txt"] = lines
    out["cdf.txt"] = [
        "analyze gaussian.csv --output gaussian-report.csv",
        "analyze idle_spike.csv --output idle-report.csv",
        "cdf gaussian-report.json idle-report.json --output cdf.csv",
        "cdf gaussian-report.json idle-report.json --service-map services.json --output cdf.csv",
        "analyze beacon.csv --q 2 --service-map services.json --output beacon-report.csv",
        "analyze idle_spike.csv --q 2 --service-map services.json --output idle2-report.csv",
        "cdf beacon-report.json idle2-report.json --output cdf.csv",
    ]
    return out


def run(line: str) -> bytes:
    """The CSV bytes that one command line writes, run in the current directory."""
    argv = shlex.split(line)
    with redirect_stdout(StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"{line!r} exited {code}")
    return Path(argv[argv.index("--output") + 1]).read_bytes()


def parse_expected(text: str) -> list[tuple[int, str, list[str]]]:
    """(line number of the '$ ' line, command line, CSV lines) of each section of an expected file."""
    sections: list[tuple[int, str, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("$ "):
            sections.append((lineno, line[2:], []))
        elif sections:
            sections[-1][2].append(line)
    return sections


def main() -> int:
    write_inputs(INPUTS)
    EXPECTED.mkdir(exist_ok=True)
    for stale in EXPECTED.glob("*.txt"):
        stale.unlink()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for path in INPUTS.iterdir():
            shutil.copy(path, work)
        os.chdir(work)
        try:
            for name, lines in commands().items():
                body = "".join(f"$ {line}\n" + run(line).decode("utf-8") for line in lines)
                (EXPECTED / name).write_text(HEADER + body, encoding="utf-8", newline="")
        finally:
            os.chdir(here)
    print(f"wrote {len(TRACES) + 1} inputs to {INPUTS} and {len(commands())} files to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
