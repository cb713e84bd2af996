"""A whole-pipeline reference: each band in plain Python, checked against ``analyze_matrix`` and the analyze CSV.

The reference follows the definitions the README and the docstrings give, one stage at a time:
block means (README, "Analysis conventions"), bin edges as ``quantize`` states them with levels
from ``bisect.bisect_right``, ``e_unc`` from the level counts, ``e_actual = n log2 n / sum(lambda)``
from the naive ``lz_parse``, and ``pi_max`` by bisection on ``fano_rhs``, clamped as
``max_predictability`` documents.

How closely each field must agree:

* Block means: exactly at block 1 and in the dB domain, whose quarter-dB values sum exactly in any
  order; to a few ulps in linear power, where the mW conversion and its logarithm round in the libm's
  own way.  The later stages start from the library's block means, so that a mean within an ulp of a
  bin edge cannot put a level on either side.
* ``e_rand``, ``e_actual``, ``pi_max``, ``clamped`` and ``n``: bit for bit (the same formulas on the
  same levels).
* ``e_unc``: to a few ulps, since numpy sums the terms in another order; to its 10 digits in the CSV.
"""

import bisect
import math
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from spectropy import QuantizationConfig, Strategy, analyze_matrix, block_average, pipeline
from spectropy.cli import _fmt, main
from spectropy.entropy import lz_parse
from spectropy.predictability import BISECTION_TOL, fano_rhs
from tests.test_ingest import matrix_of
from tests.test_pipeline import FakePool

FREQS_MHZ = (614.1, 614.3, 614.5)
GRID = st.integers(-480, -160).map(lambda k: k / 4)  # -120 to -40 dBm in quarter dB


def block_means(column: list[float], block: int, domain: str) -> list[float]:
    """The mean of each whole block of ``block`` slots, a partial tail dropped: of the dB values, or in mW."""
    whole = range(0, len(column) - block + 1, block)
    if domain == "db":
        return [sum(column[lo : lo + block]) / block for lo in whole]
    return [10 * math.log10(sum(10 ** (v / 10) for v in column[lo : lo + block]) / block) for lo in whole]


def quantile(ordered: list[float], p: float) -> float:
    """Linear interpolation between the order statistics around (n - 1) p, from the nearer one."""
    h = (len(ordered) - 1) * p
    i = math.floor(h)
    t = h - i
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def levels_of(values: list[float], q: int, strategy: Strategy) -> list[int]:
    """Levels over the band's own min and max: a value on an interior edge goes to the upper bin."""
    lo, hi = min(values), max(values)
    if lo == hi:
        return [0] * len(values)
    if strategy is Strategy.EQUAL_WIDTH:
        edges = [lo + k * ((hi - lo) / q) for k in range(1, q)]
    else:  # a repeated quantile is one edge, which leaves a level unused
        edges = sorted({quantile(sorted(values), k / q) for k in range(1, q)})
    return [bisect.bisect_right(edges, v) for v in values]


def fano_inverse(e: float, q: int) -> tuple[float, bool]:
    """pi_max and whether ``e`` was clamped: 1 at or below 0 bits, 1/q at or above log2 q, else bisection."""
    if e <= 0:
        return 1.0, e < 0
    if e >= math.log2(q):
        return 1 / q, e > math.log2(q)
    lo, hi = 1 / q, 1.0
    while hi - lo > BISECTION_TOL:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if fano_rhs(mid, q) > e else (lo, mid)
    return (lo + hi) / 2, False


def reference_band(means: list[float], q: int, strategy: Strategy) -> dict:
    levels = levels_of(means, q, strategy)
    n = len(levels)
    e_actual = n * math.log2(n) / sum(lz_parse(levels).lambdas)
    pi_max, clamped = fano_inverse(e_actual, q)
    return {
        "e_rand": math.log2(q),
        "e_unc": -sum(c / n * math.log2(c / n) for c in Counter(levels).values()),
        "e_actual": e_actual,
        "pi_max": pi_max,
        "clamped": clamped,
        "n": n,
    }


def close_ulps(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-14, abs_tol=1e-15)


@st.composite
def columns(draw, n: int, q: int) -> list[float]:
    kind = draw(st.sampled_from(["constant", "few", "any", "edges"]))
    if kind == "constant":
        return [draw(GRID)] * n
    if kind == "few":  # ties, which repeat equal-frequency quantiles
        pool = draw(st.lists(GRID, min_size=2, max_size=4))
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if kind == "any":
        return draw(st.lists(GRID, min_size=n, max_size=n))
    # every point lies on an equal-width edge of q bins, and the band's min and max are among them
    lo, step = draw(GRID), draw(st.integers(1, 3)) / 4
    points = [lo + j * step for j in range(q + 1)]
    column = draw(st.lists(st.sampled_from(points), min_size=n, max_size=n))
    first, last = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    column[first], column[last] = points[0], points[-1]
    return column


@st.composite
def cases(draw):
    q = draw(st.sampled_from([1, 2, 8, 64]))
    block = draw(st.integers(1, 4))
    n = draw(st.integers(2 * block, 40))  # at least the 2 averaged slots analyze needs; blocks need not divide n
    cols = [draw(columns(n, q)) for _ in range(draw(st.integers(1, len(FREQS_MHZ))))]
    return [list(row) for row in zip(*cols)], q, block


def analyze_csv(rows: list[list[float]], argv: list[str]) -> list[dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        trace, out = Path(tmp) / "t.csv", Path(tmp) / "an.csv"
        header = ",".join(map(str, FREQS_MHZ[: len(rows[0])]))
        trace.write_text("\n".join([header] + [",".join("%.17g" % v for v in row) for row in rows]) + "\n")
        with redirect_stdout(StringIO()):
            assert main(["analyze", str(trace), *argv, "--output", str(out)]) == 0
        names, *lines = out.read_text(encoding="utf-8").splitlines()
    return [dict(zip(names.split(","), line.split(","))) for line in lines]


@settings(max_examples=150, deadline=None)
@given(case=cases(), strategy=st.sampled_from(Strategy), domain=st.sampled_from(["linear", "db"]))
def test_pipeline_matches_the_plain_python_reference(case, strategy, domain):
    rows, q, block = case
    matrix = matrix_of(rows, FREQS_MHZ[: len(rows[0])])
    averaged = block_average(matrix, block, domain)
    refs = []
    for i in range(len(matrix.bands)):
        means = averaged.rows[:, i].tolist()
        by_definition = block_means([row[i] for row in rows], block, domain)
        if block == 1 or domain == "db":
            assert means == by_definition
        else:
            assert len(means) == len(by_definition) and all(map(close_ulps, means, by_definition))
        refs.append(reference_band(means, q, strategy))

    cfg = QuantizationConfig(q=q, strategy=strategy)
    serial = analyze_matrix(matrix, cfg, block=block, avg_domain=domain, jobs=1)
    with mock.patch("concurrent.futures.ProcessPoolExecutor", FakePool), \
            mock.patch.object(pipeline, "_SLOTS_PER_WORKER", 1), mock.patch.object(pipeline, "_usable_cpus", lambda: 2):
        pooled = analyze_matrix(matrix, cfg, block=block, avg_domain=domain, jobs=2)
    for results in (serial, pooled):
        for r, ref in zip(results, refs, strict=True):
            got = {**vars(r.entropy), **vars(r.predictability)}
            assert {k: got[k] for k in ref if k != "e_unc"} == {k: v for k, v in ref.items() if k != "e_unc"}
            assert close_ulps(got["e_unc"], ref["e_unc"])

    argv = ["--q", str(q), "--strategy", strategy.value, "--block", str(block), "--avg-domain", domain]
    for cells, ref in zip(analyze_csv(rows, argv), refs, strict=True):
        assert [cells[k] for k in ("e_rand", "e_actual", "pi_max", "n")] == [
            _fmt(ref["e_rand"]), _fmt(ref["e_actual"]), _fmt(ref["pi_max"]), str(ref["n"])
        ]
        assert cells["clamped"] == ("true" if ref["clamped"] else "false")
        assert math.isclose(float(cells["e_unc"]), ref["e_unc"], rel_tol=1e-9, abs_tol=1e-12)
