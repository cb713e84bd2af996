"""Tests of the benchmark's own logic, at tiny sizes.

    python -m pytest perfbench/tests -q
"""

import contextlib
import importlib
import random
from collections import defaultdict
from pathlib import Path

import pytest

import run
from checks import Expected, cdf_text, match_lengths
from spectropy import cli, lz_parse
from tracing import UNITS, Span, self_times, tail, traced_round
from workloads import (
    Workload,
    csv_text,
    gen_campaign,
    gen_gaussian,
    gen_sparse,
    read_matrix,
    write_inputs,
)

TINY = Workload("tiny", 3, 40, 1, gen_gaussian)


@pytest.mark.parametrize(
    "generate, bands, slots",
    [(gen_gaussian, 3, 40), (gen_sparse, 8, 48), (gen_campaign, 4, 200)],
)
def test_generator_same_seed_same_bytes(generate, bands, slots):
    first = csv_text(generate(bands, slots, 11))
    assert csv_text(generate(bands, slots, 11)) == first
    assert csv_text(generate(bands, slots, 12)) != first


def test_gaussian_input_equals_synth_output(tmp_path):
    out = tmp_path / "synth.csv"
    argv = ["synth", "--model", "gaussian", "--n", "40", "--bands", "3", "--seed", "4", "--output", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text(encoding="utf-8") == csv_text(gen_gaussian(3, 40, 4))


def test_read_matrix_sees_the_written_values(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(csv_text(gen_campaign(4, 200, 3)), encoding="utf-8")
    rows = read_matrix(path)
    assert rows.shape == (200, 4)
    assert csv_text(rows) == path.read_text(encoding="utf-8")


def test_sparse_bands_have_their_shapes():
    m = gen_sparse(8, 48, 5)
    idle = m[:, :4]
    assert ((idle == -60.0).sum(axis=0) == 1).all()
    for k in range(4):  # each spike sits near the middle of its own quarter
        assert k * 12 < int((idle[:, k] == -60.0).argmax()) < (k + 1) * 12
    assert (m[:, 4:6] == -110.0).all()
    assert ((m[:, 6:] == -70.0).sum(axis=0) == 8).all()


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, run=0)


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 4.0, parent=0),  # overlaps a: counted once
        _span("c", 9.0, 12.0, parent=0),  # runs past its parent: clipped
        _span("grandchild", 1.5, 2.5, parent=1),  # not a child of root
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 2.0 - 1.0, 2.0, 3.0, 1.0])


def test_tail_keeps_ten_values_beyond_it():
    assert tail(list(range(1, 129))) == 118
    assert tail(list(range(1, 33))) == 22
    assert tail(list(range(1, 17))) == 16  # ordered[-11] would sit below the median
    assert tail([3.0, 1.0, 2.0]) == 3.0


def test_match_lengths_equal_lz_parse():
    rng = random.Random(5)
    cases = [[0] * 30, [0, 1] * 20, [0] * 15 + [7] + [0] * 15, [0] * 10 + [7, 7] + [0] * 10]
    cases += [[rng.randrange(q) for _ in range(rng.randint(1, 60))] for q in (1, 2, 3, 8) for _ in range(50)]
    for levels in cases:
        assert list(match_lengths(levels)) == list(lz_parse(levels).lambdas), levels


def test_cdf_text_groups_bands_by_service():
    analyze_csv = (
        "freq_mhz,e_rand,e_unc,e_actual,pi_max,clamped,n\n"
        "614.1,3,2,2,0.5,false,10\n"
        "614.3,3,2,2,0.25,false,10\n"
        "614.5,3,2,2,0.75,false,10\n"
    )
    services = {"TV": [614.0, 614.2], "ISM": [614.2, 614.4]}
    assert cdf_text(analyze_csv, services) == (
        "service,pi_max,cum_fraction\n"
        "ISM,0.25,1\n"
        "TV,0.5,1\n"
        "unassigned,0.75,1\n"
    )


def _round(tmp_path, paths, digests=None):
    cmds = run.build_commands(TINY, 4, paths, tmp_path)
    expected = Expected(TINY, 4, paths, digests=digests)
    tally, samples = run.Tally(), defaultdict(list)
    with contextlib.closing(run.Launcher()) as launcher:
        run.cli_round(launcher, cmds, expected, tally, samples, tmp_path)
    return tally, samples


def test_clean_round_has_no_failures(tmp_path):
    tally, samples = _round(tmp_path, write_inputs(TINY, 4, tmp_path))
    assert tally.failed == 0
    assert tally.attempted == sum(len(v) for k, v in samples.items() if k != "peak_rss_mb")
    assert set(samples) == set(run.E2E_UNITS) | {"reference"}


def test_timings_are_scaled_by_the_reference_job():
    samples = {
        "reference": [2 * run.REFERENCE_S, 2 * run.REFERENCE_S, 9.0],  # the host ran at half speed
        "analyze_s": [3.0, 4.0, 30.0],
        "peak_rss_mb": [50.0, 70.0, 60.0],
    }
    assert run.summarize(samples) == pytest.approx({"analyze_s": 2.0, "peak_rss_mb": 70.0})


def test_missing_input_fails_its_operations_and_the_run_goes_on(tmp_path):
    paths = write_inputs(TINY, 4, tmp_path)
    paths["input"] = str(tmp_path / "missing.csv")
    tally, samples = _round(tmp_path, paths)
    broken = ("analyze_s", "analyze_par_s", "duty_cycle_s", "cdf_s")
    assert tally.failed == sum(len(samples[m]) for m in broken)
    assert samples["setup_s"] and samples["synth_s"]  # later commands still ran
    assert tally.attempted > tally.failed


def test_digest_mismatch_fails(tmp_path):
    paths = write_inputs(TINY, 4, tmp_path)
    wrong = {"analyze": "0" * 64, "duty-cycle": "0" * 64, "cdf": "0" * 64}
    tally, samples = _round(tmp_path, paths, digests=wrong)
    mismatched = ("analyze_s", "analyze_par_s", "duty_cycle_s", "cdf_s")
    assert tally.failed == sum(len(samples[m]) for m in mismatched)


def test_traced_round_counts_two_parses_per_band_and_unpatches(tmp_path):
    from spectropy import pipeline

    paths = write_inputs(TINY, 4, tmp_path)
    cmds = run.build_commands(TINY, 4, paths, tmp_path)
    tally = run.Tally()
    metrics, spans = traced_round(0, cmds, Expected(TINY, 4, paths), tally, paths["input"], 1)
    assert (tally.attempted, tally.failed) == (5, 0)
    assert set(metrics) == set(UNITS)
    assert metrics["entropy.parse_calls"] == 2 * TINY.bands
    assert {s.name for s in spans} >= {"cli.main", "quantize.quantize", "entropy.lz_parse_fast"}
    assert pipeline.quantize is importlib.import_module("spectropy.quantize").quantize


def test_recorded_digests_cover_every_workload():
    from checks import DIGESTS
    from workloads import WORKLOADS

    assert set(DIGESTS) == set(WORKLOADS)
    for digests in DIGESTS.values():
        assert set(digests) == {"analyze", "duty-cycle", "cdf"}


def test_benchmark_json_matches_the_metrics():
    import json

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
