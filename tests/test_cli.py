import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectropy
from spectropy.cli import main
from spectropy.quantize import MAX_Q
from spectropy.synth import gen_gaussian_psd, gen_iid_uniform
from tests.conftest import write_text


# one valid band entry of an analyze JSON report
BAND_ENTRY = {
    "freq_mhz": 614.1, "service": "TV", "pi_max": 0.5, "entropy_used": 1.0, "clamped": False, "iterations": 30, "q": 8,
}


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@pytest.fixture
def small_csv(tmp_path):
    return write_text(
        tmp_path / "small.csv",
        "614.1,614.3\n-100,-120\n-110,-120\n-100,-120\n-120,-120\n",
    )


class TestDutyCycleCommand:
    def test_two_threshold_columns(self, small_csv, tmp_path, capsys):
        out = tmp_path / "dc.csv"
        assert run_cli("duty-cycle", small_csv, "--threshold", "-107", "--threshold", "-114", "--output", out) == 0
        header, rows = read_csv_rows(out)
        assert header == ["freq_mhz", "duty_cycle_-107", "duty_cycle_-114"]
        assert rows[0] == {"freq_mhz": "614.1", "duty_cycle_-107": "0.5", "duty_cycle_-114": "0.75"}
        assert (tmp_path / "dc.json").exists()

    def test_default_thresholds_are_both_classics(self, small_csv, tmp_path):
        out = tmp_path / "dc.csv"
        run_cli("duty-cycle", small_csv, "--output", out)
        header, _ = read_csv_rows(out)
        assert header == ["freq_mhz", "duty_cycle_-107", "duty_cycle_-114"]

    def test_empty_file_exit_2(self, tmp_path, capsys):
        empty = write_text(tmp_path / "empty.csv", "")
        code = run_cli("duty-cycle", empty, "--output", tmp_path / "x.csv")
        assert code == 2
        assert "EmptyTrace" in capsys.readouterr().err

    def test_quiet_band_is_all_zeros(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "614.1\n-120\n-120\n-120\n")
        out = tmp_path / "dc.csv"
        run_cli("duty-cycle", path, "--threshold", "-114", "--output", out)
        _, rows = read_csv_rows(out)
        assert rows[0]["duty_cycle_-114"] == "0"

    def test_frequency_infinite_in_hz_exit_2(self, tmp_path, capsys):
        path = write_text(tmp_path / "t.csv", "# scanner export\n1e303,614.1\n-100,-100\n")
        assert run_cli("duty-cycle", path, "--output", tmp_path / "dc.csv") == 2
        assert "Parse: line 2: frequency '1e303' must be positive and finite in Hz" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("flag", [["--threshold", "nan"], ["--threshold", "inf"], ["--threshold", "1e999"],
                                      ["--threshold=-inf"], ["--threshold", "north"]],
                             ids=["nan", "inf", "overflow", "minus-inf", "word"])
    def test_non_finite_threshold_exit_3(self, small_csv, tmp_path, capsys, flag):
        out = tmp_path / "dc.csv"
        assert run_cli("duty-cycle", small_csv, *flag, "--output", out) == 3
        assert "argument --threshold: must be a finite number" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize(
        "second, shown",
        [("-107", "-107.0"), ("-107.00000000001", "-107.00000000001")],
        ids=["repeated", "same-10-digits"],
    )
    def test_thresholds_naming_one_column_exit_3(self, small_csv, tmp_path, capsys, second, shown):
        out = tmp_path / "dc.csv"
        assert run_cli("duty-cycle", small_csv, "--threshold", "-107", "--threshold", second, "--output", out) == 3
        err = capsys.readouterr().err
        assert f"thresholds -107.0 and {shown} both name the column duty_cycle_-107" in err
        assert not out.exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("flag", [["--threshold=-1e-400"], ["--threshold=-0"]], ids=["underflow", "minus-zero"])
    def test_zero_threshold_names_column_0(self, small_csv, tmp_path, flag):
        out = tmp_path / "dc.csv"
        assert run_cli("duty-cycle", small_csv, *flag, "--output", out) == 0
        header, _ = read_csv_rows(out)
        assert header == ["freq_mhz", "duty_cycle_0"]
        doc = json.loads(out.with_suffix(".json").read_text())
        # only the thresholds: the input path and the timestamp may hold "-0" themselves
        assert json.dumps(doc["thresholds"]) == json.dumps(doc["manifest"]["thresholds"]) == "[0.0]"

    def test_before_average_flag(self, tmp_path):
        # one loud sample then quiet: averaging smears it below threshold
        path = write_text(tmp_path / "t.csv", "614.1\n-90\n-140\n-140\n-140\n")
        raw = tmp_path / "raw.csv"
        avg = tmp_path / "avg.csv"
        run_cli("duty-cycle", path, "--threshold", "-107", "--block", "4", "--before-average", "--output", raw)
        run_cli("duty-cycle", path, "--threshold", "-107", "--block", "4", "--output", avg)
        assert read_csv_rows(raw)[1][0]["duty_cycle_-107"] == "0.25"
        assert read_csv_rows(avg)[1][0]["duty_cycle_-107"] == "1"

    @pytest.mark.parametrize("block", ["0", "-3"])
    def test_block_below_1_exit_3(self, small_csv, tmp_path, capsys, block):
        assert run_cli("duty-cycle", small_csv, "--block", block, "--output", tmp_path / "dc.csv") == 3
        assert f"block must be >= 1, got {block}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv"]


class TestAnalyzeCommand:
    def test_periodic_input_highly_predictable(self, tmp_path):
        trace = tmp_path / "tr.csv"
        run_cli("synth", "--model", "periodic", "--pattern", "0,1,2,3,4,5,6,7",
                "--repeats", "420", "--bands", "3", "--output", trace)
        out = tmp_path / "an.csv"
        assert run_cli("analyze", trace, "--q", "8", "--output", out) == 0
        header, rows = read_csv_rows(out)
        assert header == ["freq_mhz", "e_rand", "e_unc", "e_actual", "pi_max", "clamped", "n"]
        assert len(rows) == 3
        for row in rows:
            assert row["e_rand"] == "3"
            assert float(row["pi_max"]) > 0.99

    def test_rows_sorted_by_frequency(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "614.5,614.1\n-100,-90\n-101,-91\n-102,-92\n")
        out = tmp_path / "an.csv"
        run_cli("analyze", path, "--output", out)
        _, rows = read_csv_rows(out)
        assert [r["freq_mhz"] for r in rows] == ["614.1", "614.5"]

    def test_aggressive_block_exit_3(self, tmp_path, capsys):
        path = write_text(tmp_path / "t.csv", "614.1\n" + "\n".join(["-100"] * 8) + "\n")
        code = run_cli("analyze", path, "--block", "8", "--output", tmp_path / "x.csv")
        assert code == 3
        assert "SequenceTooShort" in capsys.readouterr().err

    def test_block_larger_than_trace_exit_3(self, tmp_path, capsys):
        path = write_text(tmp_path / "t.csv", "614.1\n-100\n-101\n")
        assert run_cli("analyze", path, "--block", "99", "--output", tmp_path / "x.csv") == 3
        assert "BlockLargerThanTrace" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        trace = tmp_path / "tr.csv"
        run_cli("synth", "--model", "gaussian", "--n", "400", "--bands", "4", "--seed", "5", "--output", trace)
        out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
        run_cli("analyze", trace, "--q", "8", "--output", out1)
        run_cli("analyze", trace, "--q", "8", "--output", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_from_manifest_reproduces(self, tmp_path):
        trace = tmp_path / "tr.csv"
        run_cli("synth", "--model", "gaussian", "--n", "300", "--bands", "3", "--seed", "2", "--output", trace)
        out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
        run_cli("analyze", trace, "--q", "6", "--strategy", "equal-frequency", "--block", "2", "--output", out1)
        assert run_cli("analyze", "--from-manifest", tmp_path / "a1.json", "--output", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a2.json").read_text())["manifest"]
        assert manifest["q"] == 6 and manifest["strategy"] == "equal-frequency"

    def test_from_manifest_reproduces_every_recorded_parameter(self, tmp_path):
        trace = write_text(tmp_path / "t.csv", "614.1,2450.0\n" + "-100,-90\n-101,-95\n-103,-91\n-99,-92\n" * 3)
        smap = write_text(tmp_path / "s.json", '{"TV": [614.0, 698.0]}')
        run_cli("analyze", trace, "--q", "5", "--strategy", "equal-frequency", "--block", "2", "--avg-domain", "db",
                "--jobs", "2", "--service-map", smap, "--output", tmp_path / "a1.csv")
        assert run_cli("analyze", "--from-manifest", tmp_path / "a1.json", "--output", tmp_path / "a2.csv") == 0
        first, again = (json.loads((tmp_path / f"{name}.json").read_text()) for name in ("a1", "a2"))
        stamps = {"command", "inputs", "tool_version", "created_utc"}
        recorded = {k: v for k, v in first["manifest"].items() if k not in stamps}
        assert recorded == {
            "q": 5, "strategy": "equal-frequency", "block": 2, "avg_domain": "db", "jobs": 2, "service_map": str(smap),
        }
        assert list(again["manifest"]) == list(first["manifest"])
        assert {k: again["manifest"][k] for k in recorded} == recorded
        assert [b["service"] for b in again["bands"]] == [b["service"] for b in first["bands"]] == ["TV", None]

    def test_cdf_of_a_from_manifest_rerun_matches_the_original(self, tmp_path):
        trace = tmp_path / "tr.csv"
        run_cli("synth", "--model", "gaussian", "--n", "200", "--bands", "4", "--start-mhz", "614.1",
                "--step-mhz", "0.5", "--output", trace)
        smap = write_text(tmp_path / "s.json", '{"TV": [614.0, 614.7], "ISM": [614.8, 616.0]}')
        run_cli("analyze", trace, "--service-map", smap, "--output", tmp_path / "a1.csv")
        run_cli("analyze", "--from-manifest", tmp_path / "a1.json", "--output", tmp_path / "a2.csv")
        for name in ("a1", "a2"):
            assert run_cli("cdf", tmp_path / f"{name}.json", "--output", tmp_path / f"cdf_{name}.csv") == 0
        assert (tmp_path / "cdf_a1.csv").read_bytes() == (tmp_path / "cdf_a2.csv").read_bytes()
        assert {r["service"] for r in read_csv_rows(tmp_path / "cdf_a2.csv")[1]} == {"TV", "ISM"}

    def test_command_line_service_map_overrides_the_recorded_one(self, tmp_path):
        trace = write_text(tmp_path / "t.csv", "614.1\n-100\n-101\n-103\n")
        tv = write_text(tmp_path / "tv.json", '{"TV": [614.0, 698.0]}')
        ism = write_text(tmp_path / "ism.json", '{"ISM": [600.0, 700.0]}')
        run_cli("analyze", trace, "--service-map", tv, "--output", tmp_path / "a1.csv")
        assert run_cli("analyze", "--from-manifest", tmp_path / "a1.json", "--service-map", ism,
                       "--output", tmp_path / "a2.csv") == 0
        doc = json.loads((tmp_path / "a2.json").read_text())
        assert doc["manifest"]["service_map"] == str(ism)
        assert [b["service"] for b in doc["bands"]] == ["ISM"]

    @pytest.mark.parametrize("service_map", [0, 1, [], {"TV": [614.0, 698.0]}, True])
    def test_manifest_service_map_not_a_path_exit_2(self, small_csv, tmp_path, service_map):
        manifest = write_text(tmp_path / "m.json", json.dumps({
            "command": "analyze", "inputs": [str(small_csv)], "q": 8, "strategy": "equal-width", "block": 1,
            "avg_domain": "linear", "service_map": service_map,
        }))
        # a valid service map on stdin: opening the number 0 would read it and succeed
        proc = run_module("analyze", "--from-manifest", str(manifest), "--output", str(tmp_path / "an.csv"),
                          input='{"TV": [614.0, 698.0]}')
        assert proc.returncode == 2
        assert f"{manifest}: not a usable analyze manifest (service_map {service_map!r} is not a path)" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "small.csv"]

    def test_manifest_embedded_in_report(self, small_csv, tmp_path):
        out = tmp_path / "an.csv"
        run_cli("analyze", small_csv, "--output", out)
        doc = json.loads((tmp_path / "an.json").read_text())
        assert doc["schema"] == "spectropy-report/1"
        assert doc["manifest"]["command"] == "analyze"
        assert doc["manifest"]["inputs"] == [str(small_csv)]

    def test_input_and_manifest_conflict(self, small_csv, tmp_path, capsys):
        assert run_cli("analyze", small_csv, "--from-manifest", "x.json",
                       "--output", tmp_path / "o.csv") == 3

    def test_unknown_flag_exit_3(self, small_csv, tmp_path, capsys):
        assert run_cli("analyze", small_csv, "--nope", "--output", tmp_path / "o.csv") == 3

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_bytes(b"600.1,600.3\n-100,\xff\n")
        out = tmp_path / "an.csv"
        assert run_cli("analyze", path, "--output", out) == 2
        assert "line 2: not UTF-8 text" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    @pytest.mark.parametrize(
        "content",
        [
            b"[1, 2]",
            b'"str"',
            b"{not json",
            b'{"manifest": {}}\xff',
            b'{"command": "analyze", "inputs": ["t.csv"], "q": 1e999, "strategy": "equal-width", "block": 1}',
            b'{"command": "analyze", "inputs": ["t.csv"], "q": 8, "strategy": "bogus", "block": 1, "avg_domain": "db"}',
            b'{"command": "analyze", "inputs": ["t.csv"], "q": 8, "strategy": "equal-width", "block": 1,'
            b' "avg_domain": "bogus"}',
            b'{"command": "analyze", "inputs": ["t.csv"], "q": 8, "strategy": "equal-width", "block": 0,'
            b' "avg_domain": "db"}',
            b'{"command": "analyze", "inputs": ["t.csv"], "q": 8, "strategy": "equal-width", "block": 1,'
            b' "avg_domain": "db", "jobs": 0}',
        ],
    )
    def test_unusable_manifest_exit_2(self, tmp_path, capsys, content):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(content)
        assert run_cli("analyze", "--from-manifest", manifest, "--output", tmp_path / "an.csv") == 2
        assert f"Parse: line 1: {manifest}: not a " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    @pytest.mark.parametrize(
        "content",
        [
            b"{not json",
            b'{"TV": [614.0, 698.0]}\xff',
            b'{"TV": {"lo": 1}}',
            pytest.param(b'{"TV": [1' + b"0" * 400 + b", 2]}", id="span-overflows"),
        ],
    )
    def test_bad_service_map_exit_2(self, small_csv, tmp_path, capsys, content):
        smap = tmp_path / "s.json"
        smap.write_bytes(content)
        assert run_cli("analyze", small_csv, "--service-map", smap, "--output", tmp_path / "an.csv") == 2
        assert f"Parse: line 1: {smap}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "small.csv"]

    def test_failed_json_write_keeps_old_csv(self, small_csv, tmp_path, capsys):
        # the CSV is renamed last, so a JSON that cannot be written keeps the old pair
        out = tmp_path / "an.csv"
        out.write_bytes(b"old,csv\n")
        (tmp_path / "an.json").mkdir()
        assert run_cli("analyze", small_csv, "--output", out) == 2
        assert out.read_bytes() == b"old,csv\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["an.csv", "an.json", "small.csv"]

    def test_failed_run_leaves_no_output(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "an.csv"
        assert run_cli("analyze", missing, "--output", out) == 2
        assert not out.exists() and not (tmp_path / "an.json").exists()

    def test_band_json_keys(self, small_csv, tmp_path):
        run_cli("analyze", small_csv, "--output", tmp_path / "an.csv")
        band = json.loads((tmp_path / "an.json").read_text())["bands"][0]
        assert list(band) == [
            "freq_mhz", "label", "service", "e_rand", "e_unc", "e_actual", "n", "q",
            "pi_max", "entropy_used", "clamped", "iterations",
        ]

    @pytest.mark.parametrize("q", [MAX_Q + 1, 2_000_000_000])
    def test_q_above_max_exit_3(self, small_csv, tmp_path, capsys, q):
        assert run_cli("analyze", small_csv, "--q", q, "--output", tmp_path / "an.csv") == 3
        assert f"q must lie in [1, {MAX_Q}]" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv"]

    @pytest.mark.parametrize("q", [0, MAX_Q + 1, 2**31])
    def test_manifest_q_out_of_range_exit_2(self, small_csv, tmp_path, capsys, q):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "command": "analyze", "inputs": [str(small_csv)], "q": q, "strategy": "equal-width", "block": 1,
            "avg_domain": "linear",
        }))
        assert run_cli("analyze", "--from-manifest", manifest, "--output", tmp_path / "an.csv") == 2
        assert f"Parse: line 1: {manifest}: not a usable analyze manifest (q {q} outside" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "small.csv"]

    @pytest.mark.filterwarnings("error")
    def test_underflowing_block_average_exit_2(self, tmp_path, capsys):
        # 10**-400 mW underflows to 0, whose log is -inf dBm: a non-finite sample, not a numpy warning
        path = write_text(tmp_path / "t.csv", "614.1\n" + "-4000\n" * 4)
        assert run_cli("analyze", path, "--block", "2", "--output", tmp_path / "an.csv") == 2
        assert "NonFiniteSample" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


class TestCdfCommand:
    def fake_report(self, tmp_path, name, entries):
        bands = [
            {
                "freq_mhz": f,
                "label": f"{f} MHz",
                "service": svc,
                "pi_max": pi,
                "entropy_used": 1.0,
                "clamped": False,
                "iterations": 30,
                "q": 8,
            }
            for f, svc, pi in entries
        ]
        doc = {"schema": "spectropy-report/1", "manifest": {"command": "analyze"}, "bands": bands}
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_two_band_service(self, tmp_path):
        rep = self.fake_report(tmp_path, "an.json", [(614.1, "TV", 0.8), (614.3, "TV", 0.9)])
        out = tmp_path / "cdf.csv"
        assert run_cli("cdf", rep, "--output", out) == 0
        header, rows = read_csv_rows(out)
        assert header == ["service", "pi_max", "cum_fraction"]
        assert [(r["pi_max"], r["cum_fraction"]) for r in rows] == [("0.8", "0.5"), ("0.9", "1")]

    def test_unmapped_bands_grouped_unassigned(self, tmp_path):
        rep = self.fake_report(tmp_path, "an.json", [(614.1, None, 0.7)])
        out = tmp_path / "cdf.csv"
        run_cli("cdf", rep, "--output", out)
        _, rows = read_csv_rows(out)
        assert rows[0]["service"] == "unassigned"

    def test_service_map_overrides(self, tmp_path):
        rep = self.fake_report(tmp_path, "an.json", [(614.1, None, 0.7), (2450.0, None, 0.9)])
        smap = write_text(tmp_path / "s.json", '{"TV": [614.0, 698.0], "ISM": [2400.1, 2483.3]}')
        out = tmp_path / "cdf.csv"
        run_cli("cdf", rep, "--service-map", smap, "--output", out)
        _, rows = read_csv_rows(out)
        assert sorted({r["service"] for r in rows}) == ["ISM", "TV"]

    def test_cdf_minimum_matches_band_minimum(self, tmp_path, rng):
        pis = rng.uniform(0.2, 1.0, 50)
        entries = [(614.1 + 0.2 * i, "TV", float(p)) for i, p in enumerate(pis)]
        rep = self.fake_report(tmp_path, "an.json", entries)
        out = tmp_path / "cdf.csv"
        run_cli("cdf", rep, "--output", out)
        _, rows = read_csv_rows(out)
        assert float(rows[0]["pi_max"]) == pytest.approx(float(pis.min()), abs=1e-9)

    def test_malformed_report_exit_2(self, tmp_path, capsys):
        bad = write_text(tmp_path / "bad.json", "{not json")
        assert run_cli("cdf", bad, "--output", tmp_path / "o.csv") == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"bands": 5},
            {"bands": [{**BAND_ENTRY, "service": [1]}]},
            {"bands": [{**BAND_ENTRY, "pi_max": 10**400}]},
        ],
        ids=["bands-not-a-list", "service-not-a-string", "pi-max-overflows"],
    )
    def test_report_of_wrong_shape_exit_2(self, tmp_path, capsys, doc):
        bad = write_text(tmp_path / "bad.json", json.dumps(doc))
        assert run_cli("cdf", bad, "--output", tmp_path / "o.csv") == 2
        assert f"Parse: line 1: {bad}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_non_utf8_report_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"bands": []}\xff')
        assert run_cli("cdf", bad, "--output", tmp_path / "o.csv") == 2
        assert "not an analyze JSON report" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_services_flow_from_analyze_reports(self, tmp_path):
        # services attached at analyze time survive into the cdf grouping
        trace = write_text(tmp_path / "t.csv", "614.1,2450.0\n-100,-90\n-101,-91\n-102,-92\n")
        smap = write_text(tmp_path / "s.json", '{"TV": [614.0, 698.0], "ISM": [2400.1, 2483.3]}')
        run_cli("analyze", trace, "--service-map", smap, "--output", tmp_path / "an.csv")
        out = tmp_path / "cdf.csv"
        run_cli("cdf", tmp_path / "an.json", "--output", out)
        _, rows = read_csv_rows(out)
        assert sorted({r["service"] for r in rows}) == ["ISM", "TV"]


class TestSynthCommand:
    def test_gaussian_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("synth", "--model", "gaussian", "--n", "3360", "--seed", "7", "--output", a)
        run_cli("synth", "--model", "gaussian", "--n", "3360", "--seed", "7", "--output", b)
        assert a.read_bytes() == b.read_bytes()

    def test_rows_hold_generator_values(self, tmp_path):
        run_cli("synth", "--model", "gaussian", "--n", "500", "--bands", "3", "--seed", "4",
                "--output", tmp_path / "g.csv")
        run_cli("synth", "--model", "iid", "--q", "5", "--n", "500", "--bands", "2", "--output", tmp_path / "i.csv")
        gaussian = [gen_gaussian_psd(500, seed=4 + k).samples for k in range(3)]
        iid = [gen_iid_uniform(5, 500, k).levels for k in range(2)]
        assert (tmp_path / "g.csv").read_text().splitlines()[1:] == [
            ",".join(format(v, ".10g") for v in row) for row in zip(*gaussian)
        ]
        assert (tmp_path / "i.csv").read_text().splitlines()[1:] == [",".join(map(str, row)) for row in zip(*iid)]

    def test_write_holds_less_than_the_text(self, tmp_path, capsys):
        # the generators' samples are Python floats in tuples, 32 bytes each; writing the CSV must not
        # hold another copy of its text on top of them
        out = tmp_path / "g.csv"
        tracemalloc.start()
        try:
            assert run_cli("synth", "--model", "gaussian", "--n", "20000", "--bands", "16", "--output", out) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000 * 16 * 32 + out.stat().st_size

    def test_bad_markov_spec_exit_3(self, tmp_path, capsys):
        spec = write_text(
            tmp_path / "chain.json",
            '{"matrix": [[0.9, 0.2], [0.1, 0.9]], "initial": [0.5, 0.5], "seed": 1}',
        )
        code = run_cli("synth", "--model", "markov", "--spec", spec, "--n", "100",
                       "--output", tmp_path / "o.csv")
        assert code == 3
        assert "InvalidStochasticMatrix" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["matrix", "initial", "seed"])
    def test_markov_spec_missing_key_exit_3(self, tmp_path, capsys, key):
        doc = {"matrix": [[0.9, 0.1], [0.1, 0.9]], "initial": [0.5, 0.5], "seed": 1}
        del doc[key]
        spec = write_text(tmp_path / "chain.json", json.dumps(doc))
        out = tmp_path / "o.csv"
        code = run_cli("synth", "--model", "markov", "--spec", spec, "--n", "100", "--output", out)
        assert code == 3
        assert f"Config: {spec}: Markov spec has no {key!r} key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"[1, 2]",
            b'{"matrix": 5, "initial": [1], "seed": 1}',
            b'{"matrix": [[1.0]], "initial": [1.0], "seed": "x"}',
            b'{"matrix": [[1.0]], "initial": [1.0], "seed": 1e999}',
            b"{not json",
            b'{"seed": 1}\xff',
        ],
    )
    def test_malformed_markov_spec_exit_3(self, tmp_path, capsys, content):
        spec = tmp_path / "chain.json"
        spec.write_bytes(content)
        out = tmp_path / "o.csv"
        code = run_cli("synth", "--model", "markov", "--spec", spec, "--n", "100", "--output", out)
        assert code == 3
        assert f"Config: {spec}: malformed Markov spec" in capsys.readouterr().err
        assert not out.exists()

    def test_periodic_row_arithmetic(self, tmp_path):
        out = tmp_path / "p.csv"
        run_cli("synth", "--model", "periodic", "--pattern", "0,1,2,3,4,5,6,7",
                "--repeats", "420", "--output", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3360

    def test_markov_trace_generated(self, tmp_path):
        spec = write_text(
            tmp_path / "chain.json",
            '{"matrix": [[0.9, 0.1], [0.1, 0.9]], "initial": [0.5, 0.5], "seed": 1}',
        )
        out = tmp_path / "m.csv"
        assert run_cli("synth", "--model", "markov", "--spec", spec, "--n", "500",
                       "--bands", "2", "--output", out) == 0
        header, rows = read_csv_rows(out)
        assert len(header) == 2 and len(rows) == 500

    def test_iid_levels_within_alphabet(self, tmp_path):
        out = tmp_path / "i.csv"
        run_cli("synth", "--model", "iid", "--q", "4", "--n", "200", "--output", out)
        _, rows = read_csv_rows(out)
        assert {int(r["614.1"]) for r in rows} <= {0, 1, 2, 3}

    @pytest.mark.parametrize("bands", ["0", "-2"])
    def test_no_bands_exit_3(self, tmp_path, capsys, bands):
        out = tmp_path / "o.csv"
        assert run_cli("synth", "--model", "gaussian", "--n", "10", "--bands", bands, "--output", out) == 3
        assert "--bands must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--start-mhz", "1", "--step-mhz", "-1", "--bands", "2"],  # second band at 0 MHz
            ["--start-mhz", "1e308", "--step-mhz", "1e308", "--bands", "2"],  # overflows to inf
            ["--start-mhz", "nan"],
            ["--start-mhz", "1.7976931348623157e308"],  # written as 1.797693135e+308, which reads back as inf
            ["--start-mhz", "1e303"],  # finite in MHz, inf in Hz
        ],
    )
    def test_frequency_the_loader_rejects_exit_3(self, tmp_path, capsys, flags):
        out = tmp_path / "o.csv"
        assert run_cli("synth", "--model", "gaussian", "--n", "10", *flags, "--output", out) == 3
        assert "must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask-022", "umask-027"])
def test_outputs_get_the_mode_of_a_plain_write(tmp_path, umask, mode):
    trace, out = tmp_path / "g.csv", tmp_path / "a.csv"
    old = os.umask(umask)
    try:
        assert run_cli("synth", "--model", "gaussian", "--n", "50", "--output", trace) == 0
        assert run_cli("analyze", trace, "--output", out) == 0
    finally:
        os.umask(old)
    assert {p.name: p.stat().st_mode & 0o777 for p in (trace, out, out.with_suffix(".json"))} == {
        "g.csv": mode, "a.csv": mode, "a.json": mode,
    }


def json_values(numbers):
    return st.recursive(
        st.none() | st.booleans() | numbers | st.text(max_size=8),
        lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=12,
    )


JSON_VALUES = json_values(st.integers() | st.floats())
# Manifest fields size allocations (q levels) and loops, so their numbers stay small;
# q alone also takes values at and past MAX_Q, which must be rejected before any allocation.
SMALL_JSON_VALUES = json_values(st.integers(-2, 12) | st.floats(-20, 20))
TRACE_TEXTS = st.lists(
    st.lists(st.floats(-130, -40) | st.sampled_from(["nan", "", "x", "1e999"]), min_size=1, max_size=3),
    min_size=1,
    max_size=12,
).map(lambda rows: "\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def one_field_replaced(valid: dict, values):
    return st.tuples(st.sampled_from(sorted(valid)), values).map(lambda kv: {**valid, kv[0]: kv[1]})


def fuzzed_documents(trace_path: str):
    # arbitrary JSON, or an analyze manifest or report with one field replaced; jobs stays unset (1)
    manifest = {
        "command": "analyze", "inputs": [trace_path], "q": 8, "strategy": "equal-width", "block": 1, "avg_domain": "db",
    }
    report = st.lists(one_field_replaced(BAND_ENTRY, JSON_VALUES), max_size=3).map(lambda bands: {"bands": bands})
    large_q = st.sampled_from([MAX_Q, MAX_Q + 1, 2**31]).map(lambda q: {**manifest, "q": q})
    return JSON_VALUES | one_field_replaced(manifest, SMALL_JSON_VALUES) | large_q | report


class TestInputFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        trace=st.binary(max_size=200) | TRACE_TEXTS.map(str.encode),
        service_map=JSON_VALUES | st.dictionaries(st.text(max_size=4), st.lists(JSON_VALUES, max_size=3)),
        data=st.data(),
    )
    def test_any_input_exits_0_2_or_3_and_failures_write_nothing(self, trace, service_map, data):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "trace.csv").write_bytes(trace)
            (d / "smap.json").write_text(json.dumps(service_map), encoding="utf-8")
            doc = data.draw(fuzzed_documents(str(d / "trace.csv")), label="document")
            (d / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
            commands = [
                ["duty-cycle", d / "trace.csv", "--service-map", d / "smap.json", "--output", d / "dc.csv"],
                ["analyze", d / "trace.csv", "--service-map", d / "smap.json", "--output", d / "an.csv"],
                ["analyze", "--from-manifest", d / "doc.json", "--output", d / "re.csv"],
                ["cdf", d / "doc.json", "--output", d / "cdf.csv"],
                ["cdf", d / "doc.json", "--service-map", d / "smap.json", "--output", d / "cdf.csv"],
            ]
            for argv in commands:
                before = sorted(d.iterdir())
                code = run_cli(*argv)
                assert code in (0, 2, 3), argv
                if code != 0:
                    assert sorted(d.iterdir()) == before, argv


@pytest.mark.parametrize("command", ["duty-cycle", "analyze", "cdf"])
def test_json_output_path_exit_3(tmp_path, capsys, command):
    # the JSON report would overwrite the CSV; rejected before the (missing) input is read
    assert run_cli(command, tmp_path / "missing", "--output", tmp_path / "o.json") == 3
    assert "--output: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def run_module(*argv, input=None):
    # the child imports the spectropy this process imported, installed or not
    path = [str(Path(spectropy.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, "-m", "spectropy", *argv], capture_output=True, text=True, env=env, input=input
    )


class TestModuleInvocation:
    def test_runs_as_module_with_exit_codes(self, tmp_path):
        empty = write_text(tmp_path / "empty.csv", "")
        proc = run_module("duty-cycle", str(empty), "--output", str(tmp_path / "o.csv"))
        assert proc.returncode == 2
        assert "EmptyTrace" in proc.stderr

    def test_version_flag(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert "spectropy" in proc.stdout
