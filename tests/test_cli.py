import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectropy import block_average, cli, duty_cycle, ingest, load_matrix
from spectropy.cli import _fmt, main
from spectropy.quantize import MAX_Q
from spectropy.synth import gen_gaussian_psd, gen_iid_uniform
from tests.conftest import run_python, write_text
from tests.test_ingest import spy_scans, write_campaign


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

    def test_block_1_is_the_raw_duty_cycle(self, tmp_path):
        # one loud sample then quiet: averaging in linear power keeps the block above threshold
        path = write_text(tmp_path / "t.csv", "614.1\n-90\n-140\n-140\n-140\n")
        raw = tmp_path / "raw.csv"
        avg = tmp_path / "avg.csv"
        assert run_cli("duty-cycle", path, "--threshold", "-107", "--block", "1", "--output", raw) == 0
        assert run_cli("duty-cycle", path, "--threshold", "-107", "--block", "4", "--output", avg) == 0
        assert read_csv_rows(raw)[1][0]["duty_cycle_-107"] == "0.25"
        assert read_csv_rows(avg)[1][0]["duty_cycle_-107"] == "1"

    @pytest.mark.parametrize("block", ["0", "-3"])
    def test_block_below_1_exit_3(self, small_csv, tmp_path, capsys, block):
        assert run_cli("duty-cycle", small_csv, "--block", block, "--output", tmp_path / "dc.csv") == 3
        assert f"block must be >= 1, got {block}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv"]

    def test_missing_file_wins_over_a_bad_block(self, tmp_path, capsys):
        assert run_cli("duty-cycle", tmp_path / "absent.csv", "--block", "0", "--output", tmp_path / "dc.csv") == 2
        assert "absent.csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_block_larger_than_trace_exit_3(self, small_csv, tmp_path, capsys):
        assert run_cli("duty-cycle", small_csv, "--block", "5", "--output", tmp_path / "dc.csv") == 3
        assert "BlockLargerThanTrace: block 5 larger than the 4-slot trace" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv"]

    def test_block_and_domain_go_to_the_load(self, small_csv, tmp_path, monkeypatch):
        load, calls = cli.load_matrix, []
        monkeypatch.setattr(cli, "load_matrix", lambda *a, **kw: calls.append(kw) or load(*a, **kw))
        out = tmp_path / "dc.csv"
        assert run_cli("duty-cycle", small_csv, "--block", "2", "--avg-domain", "db", "--output", out) == 0
        assert [(kw["block"], kw["avg_domain"]) for kw in calls] == [(2, "db")]

    @pytest.mark.parametrize("domain", ["linear", "db"])
    @pytest.mark.parametrize("gap", ["", "# gap\n"], ids=["numpy", "line-reader"])
    def test_averaged_load_gives_the_duty_cycle_of_the_block_means(self, tmp_path, rng, monkeypatch, domain, gap):
        # a stretch of 4 values holds one block of 2 slots of 3 bands, so the load takes a read per block
        rows = [",".join(f"{v:.17g}" for v in row) + "\n" for row in rng.normal(-110.0, 6.0, size=(31, 3))]
        path = write_text(tmp_path / "t.csv", "614.1,614.3,614.5\n" + "".join(rows[:9] + [gap] + rows[9:]))
        monkeypatch.setattr(ingest, "_STRETCH", 4)
        scanned = spy_scans(monkeypatch)
        out = tmp_path / "dc.csv"
        argv = ["--threshold", "-107", "--threshold", "-112", "--block", "2", "--avg-domain", domain]
        assert run_cli("duty-cycle", path, *argv, "--output", out) == 0
        assert bool(scanned) == bool(gap)
        averaged = block_average(load_matrix(path), 2, domain)
        reports = [duty_cycle(averaged, t) for t in (-107.0, -112.0)]
        expected = ["freq_mhz,duty_cycle_-107,duty_cycle_-112"]
        expected += [",".join(map(_fmt, [b.center_freq_mhz, *(r[i] for r in reports)])) for i, b in enumerate(averaged.bands)]
        assert out.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("gap", ["", "# gap"], ids=["numpy", "line-reader"])
    def test_averaged_load_memory_bound(self, tmp_path, rng, gap):
        # 16 bands x 50,000 slots at block 20: the load holds one stretch of raw rows and the block means
        path = write_campaign(tmp_path / "campaign.csv", rng, "\n", gap)
        tracemalloc.start()
        try:
            assert run_cli("duty-cycle", path, "--block", "20", "--output", tmp_path / "dc.csv") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * 50_000 * 16 * 8

    @pytest.mark.parametrize("written, plain", [("-1.07e2", "-107"), ("-.5e1", "-5")])
    def test_negative_threshold_with_exponent(self, small_csv, tmp_path, written, plain):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("duty-cycle", small_csv, "--threshold", written, "--output", a) == 0
        assert run_cli("duty-cycle", small_csv, "--threshold", plain, "--output", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mistyped_flag_before_a_negative_number_exit_3(self, small_csv, tmp_path, capsys):
        assert run_cli("duty-cycle", small_csv, "--thresold", "-1.07e2", "--output", tmp_path / "dc.csv") == 3
        assert "unrecognized arguments: --thresold -1.07e2" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv"]

    def test_before_average_is_not_an_option(self, small_csv, tmp_path, capsys):
        # --block 1 gives the duty cycle before averaging
        assert run_cli("duty-cycle", small_csv, "--before-average", "--output", tmp_path / "dc.csv") == 3
        assert "unrecognized arguments: --before-average" in capsys.readouterr().err
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

    def test_block_larger_than_trace_exit_3(self, tmp_path, capsys, monkeypatch):
        path = write_text(tmp_path / "t.csv", "614.1\n-100\n-101\n")
        scan, scanned = ingest._scan_matrix, []
        monkeypatch.setattr(ingest, "_scan_matrix", lambda *a: scanned.append(a) or scan(*a))
        assert run_cli("analyze", path, "--block", "99", "--output", tmp_path / "x.csv") == 3
        assert "BlockLargerThanTrace: block 99 larger than the 2-slot trace" in capsys.readouterr().err
        assert not scanned  # the file is read once

    def test_bad_value_in_the_dropped_tail_exit_2(self, tmp_path, capsys):
        # the partial block at the end is averaged away, but still read and checked
        path = write_text(tmp_path / "t.csv", "614.1\n-100\n-101\n-102\n-103\nbogus\n")
        assert run_cli("analyze", path, "--block", "2", "--output", tmp_path / "x.csv") == 2
        assert "Parse: line 6: bad value 'bogus' in column 1" in capsys.readouterr().err

    def test_comment_after_the_first_read_gives_the_same_report(self, tmp_path, monkeypatch):
        # 16 bands at block 20 read 4,080 rows at a time; a comment at row 4,500 sends the file to the line reader
        trace = tmp_path / "tr.csv"
        run_cli("synth", "--model", "gaussian", "--n", "5000", "--bands", "16", "--output", trace)
        lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
        commented = write_text(tmp_path / "commented.csv", "".join(lines[:4501] + ["# gap\n"] + lines[4501:]))
        scan, scanned = ingest._scan_matrix, []
        monkeypatch.setattr(ingest, "_scan_matrix", lambda *a: scanned.append(a) or scan(*a))
        outs = tmp_path / "plain.csv", tmp_path / "commented_out.csv"
        assert run_cli("analyze", trace, "--block", "20", "--output", outs[0]) == 0
        assert not scanned
        assert run_cli("analyze", commented, "--block", "20", "--output", outs[1]) == 0
        assert scanned
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_file_wins_over_a_bad_block(self, tmp_path, capsys):
        assert run_cli("analyze", tmp_path / "absent.csv", "--block", "0", "--output", tmp_path / "x.csv") == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_bad_q_wins_over_a_bad_block(self, small_csv, tmp_path, capsys):
        assert run_cli("analyze", small_csv, "--q", "0", "--block", "0", "--output", tmp_path / "x.csv") == 3
        assert f"q must lie in [1, {MAX_Q}], got 0" in capsys.readouterr().err

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
        stamps = {"command", "inputs", "tool_version", "created_utc", "working_dir"}
        assert first["manifest"]["working_dir"] == again["manifest"]["working_dir"] == os.getcwd()
        recorded = {k: v for k, v in first["manifest"].items() if k not in stamps}
        assert recorded == {
            "q": 5, "strategy": "equal-frequency", "block": 2, "avg_domain": "db", "jobs": 2, "service_map": str(smap),
        }
        assert list(again["manifest"]) == list(first["manifest"])
        assert {k: again["manifest"][k] for k in recorded} == recorded
        assert [b["service"] for b in again["bands"]] == [b["service"] for b in first["bands"]] == ["TV", None]

    def test_from_manifest_reads_relative_paths_where_the_report_was_written(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        write_text(sub / "t.csv", "614.1,2450.0\n" + "-100,-90\n-101,-95\n-103,-91\n-99,-92\n" * 3)
        write_text(sub / "s.json", '{"TV": [614.0, 698.0]}')
        monkeypatch.chdir(sub)
        assert run_cli("analyze", "t.csv", "--service-map", "s.json", "--output", "a.csv") == 0
        monkeypatch.chdir(tmp_path)
        assert run_cli("analyze", "--from-manifest", Path("sub", "a.json"), "--output", "b.csv") == 0
        assert (tmp_path / "b.csv").read_bytes() == (sub / "a.csv").read_bytes()
        again = json.loads((tmp_path / "b.json").read_text())
        assert [b["service"] for b in again["bands"]] == ["TV", None]
        # the re-run's own manifest names the same files from wherever it is read
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run_cli("analyze", "--from-manifest", tmp_path / "b.json", "--output", "c.csv") == 0
        assert (tmp_path / "elsewhere" / "c.csv").read_bytes() == (sub / "a.csv").read_bytes()

    def test_manifest_without_working_dir_reads_from_the_current_directory(self, tmp_path, monkeypatch):
        write_text(tmp_path / "t.csv", "614.1\n-100\n-101\n-103\n-99\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli("analyze", "t.csv", "--output", "a.csv") == 0
        doc = json.loads((tmp_path / "a.json").read_text())
        del doc["manifest"]["working_dir"]  # as written before the key existed
        write_text(tmp_path / "old.json", json.dumps(doc))
        assert run_cli("analyze", "--from-manifest", "old.json", "--output", "b.csv") == 0
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        assert json.loads((tmp_path / "b.json").read_text())["manifest"]["inputs"] == ["t.csv"]

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

    @pytest.mark.parametrize("flag, value", [
        ("--q", "2"), ("--strategy", "equal-frequency"), ("--block", "3"), ("--avg-domain", "db"), ("--jobs", "1"),
    ])
    def test_analysis_flag_with_manifest_exit_3(self, small_csv, tmp_path, capsys, flag, value):
        assert run_cli("analyze", small_csv, "--output", tmp_path / "a.csv") == 0
        before = sorted(p.name for p in tmp_path.iterdir())
        # the value is the recorded one or a new one: either way the flag would be dropped
        assert run_cli("analyze", "--from-manifest", tmp_path / "a.json", flag, value,
                       "--output", tmp_path / "b.csv") == 3
        assert f"{flag} cannot be given with --from-manifest" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_unknown_flag_exit_3(self, small_csv, tmp_path, capsys):
        assert run_cli("analyze", small_csv, "--nope", "--output", tmp_path / "o.csv") == 3

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_bytes(b"600.1,600.3\n-100,\xff\n")
        out = tmp_path / "an.csv"
        assert run_cli("analyze", path, "--output", out) == 2
        assert "line 2: not UTF-8 text" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_information_separator_inside_a_value_exit_2(self, tmp_path, capsys):
        # \x1c-\x1f around a value is whitespace, as on a blank line; inside one it is a bad value
        path = write_text(tmp_path / "t.csv", "600.1,600.3\n-100,-1\x1c00\n")
        assert run_cli("analyze", path, "--output", tmp_path / "an.csv") == 2
        assert capsys.readouterr().err == "error: Parse: line 2: bad value '-1\\x1c00' in column 2\n"
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
            # JSON values of the wrong type, which ran as q 8, q 1, jobs 1, an input named "t" and block 1
            b'{"command": "analyze", "inputs": ["t.csv"], "q": 8.9, "strategy": "equal-width", "block": 1,'
            b' "avg_domain": "db"}',
            b'{"command": "analyze", "inputs": ["t.csv"], "q": true, "strategy": "equal-width", "block": 1,'
            b' "avg_domain": "db"}',
            b'{"command": "analyze", "inputs": ["t.csv"], "q": 8, "strategy": "equal-width", "block": 1,'
            b' "avg_domain": "db", "jobs": 1.7}',
            b'{"command": "analyze", "inputs": "t.csv", "q": 8, "strategy": "equal-width", "block": 1,'
            b' "avg_domain": "db"}',
            b'{"command": "analyze", "inputs": ["t.csv"], "q": 8, "strategy": "equal-width", "block": "1",'
            b' "avg_domain": "db"}',
            # tokens that are not JSON, even in a report's band entries
            b'{"manifest": {"command": "analyze", "inputs": ["t.csv"], "q": 8, "strategy": "equal-width",'
            b' "block": 1, "avg_domain": "db"}, "bands": [{"e_actual": NaN}]}',
            b'{"command": "analyze", "inputs": ["t.csv"], "q": 8, "strategy": "equal-width", "block": 1,'
            b' "avg_domain": "db", "created_utc": -Infinity}',
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
            # a span is exactly two JSON numbers; the first four mapped TV to 1-700, 614-698, 614-698 and 1-9 MHz
            b'{"TV": [true, "700"]}',
            b'{"TV": ["614", "698"]}',
            b'{"TV": [614, 698, 5]}',
            b'{"TV": "19"}',
            b'{"TV": [614]}',
            # Python's json reads these tokens, which are not JSON; the first put every band in TV
            b'{"TV": [-Infinity, Infinity]}',
            b'{"TV": [NaN, 698.0]}',
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
            # json.dumps writes these as NaN and Infinity, which are not JSON
            {"bands": [{**BAND_ENTRY, "entropy_used": float("nan")}]},
            {"bands": [{**BAND_ENTRY, "freq_mhz": float("inf")}]},
        ],
        ids=["bands-not-a-list", "service-not-a-string", "pi-max-overflows", "nan", "infinity"],
    )
    def test_report_of_wrong_shape_exit_2(self, tmp_path, capsys, doc):
        bad = write_text(tmp_path / "bad.json", json.dumps(doc))
        assert run_cli("cdf", bad, "--output", tmp_path / "o.csv") == 2
        assert f"Parse: line 1: {bad}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize(
        "field, value",
        [("q", 8.9), ("q", True), ("iterations", 3.7), ("clamped", "false"), ("clamped", 0),
         ("pi_max", "0.5"), ("entropy_used", "1.0"), ("freq_mhz", False)],
    )
    def test_band_field_of_wrong_json_type_exit_2(self, tmp_path, capsys, field, value):
        # read as given, these would group a "q": 8.9 band as q = 8 or a "clamped": "false" band as clamped
        bad = write_text(tmp_path / "bad.json", json.dumps({"bands": [{**BAND_ENTRY, field: value}]}))
        assert run_cli("cdf", bad, "--output", tmp_path / "o.csv") == 2
        assert f"Parse: line 1: {bad}: malformed band entry ({field} must be a JSON " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_reports_of_different_q_exit_2(self, tmp_path, capsys):
        # the fault is in the reports, not in the parameters
        a = write_text(tmp_path / "a.json", json.dumps({"bands": [BAND_ENTRY]}))
        a4 = write_text(tmp_path / "a4.json", json.dumps({"bands": [{**BAND_ENTRY, "q": 4, "pi_max": 0.5}]}))
        assert run_cli("cdf", a, a4, "--output", tmp_path / "o.csv") == 2
        assert f"service 'TV' mixes alphabet sizes (q=4 in {a4}; q=8 in {a})" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "a4.json"]

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

    def test_negative_mean_with_exponent(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("synth", "--model", "gaussian", "--n", "50", "--mean-dbm", "-1e2", "--output", a) == 0
        assert run_cli("synth", "--model", "gaussian", "--n", "50", "--mean-dbm", "-100", "--output", b) == 0
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
        # the samples are held as C doubles, 8 bytes each, and rows are formatted one at a time as they are
        # written: the peak stays below twice the samples, so it holds neither the samples as Python floats
        # (32 bytes each) nor a copy of the text
        out = tmp_path / "g.csv"
        tracemalloc.start()
        try:
            assert run_cli("synth", "--model", "gaussian", "--n", "20000", "--bands", "16", "--output", out) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 20_000 * 16 * 8

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
            # the seed is a JSON integer and every probability a JSON number
            b'{"matrix": [[1.0]], "initial": [1.0], "seed": 3.7}',
            b'{"matrix": [[1.0]], "initial": [1.0], "seed": true}',
            b'{"matrix": [[true]], "initial": [1.0], "seed": 1}',
            b'{"matrix": [[0, 1], [1, false]], "initial": [0.5, 0.5], "seed": 1}',
            b'{"matrix": [[1.0]], "initial": [true], "seed": 1}',
            b'{"matrix": [["1.0"]], "initial": [1.0], "seed": 1}',
            # tokens that are not JSON; the first two wrote a trace
            b'{"matrix": [[NaN, NaN], [0.5, 0.5]], "initial": [0.5, 0.5], "seed": 1}',
            b'{"matrix": [[1.0]], "initial": [NaN], "seed": 1}',
            b'{"matrix": [[Infinity]], "initial": [1.0], "seed": 1}',
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
        "flags, message",
        [
            (["--model", "gaussian", "--n", "0"], "--n must be >= 1, got 0"),
            (["--model", "iid", "--n", "0"], "--n must be >= 1, got 0"),
            (["--model", "markov", "--spec", "{spec}", "--n", "0"], "--n must be >= 1, got 0"),
            (["--model", "periodic", "--pattern", "0,1", "--repeats", "0"], "--repeats must be >= 1, got 0"),
            (["--model", "iid", "--q", "0"], "--q must be >= 1, got 0"),
            (["--model", "gaussian", "--sigma-db", "0"], "--sigma-db must be positive and finite, got 0.0"),
            (["--model", "gaussian", "--sigma-db", "-1"], "--sigma-db must be positive and finite, got -1.0"),
            (["--model", "gaussian", "--mean-dbm", "nan"], "--mean-dbm must be finite, got nan"),
        ],
        ids=["gaussian-n", "iid-n", "markov-n", "periodic-repeats", "iid-q", "sigma-0", "sigma-negative", "mean-nan"],
    )
    def test_parameter_out_of_range_names_its_flag_exit_3(self, tmp_path, capsys, flags, message):
        spec = write_text(tmp_path / "chain.json", '{"matrix": [[1]], "initial": [1], "seed": 1}')
        flags = [flag.format(spec=spec) for flag in flags]
        assert run_cli("synth", *flags, "--output", tmp_path / "o.csv") == 3
        assert capsys.readouterr().err == f"error: Config: {message}\n"
        assert sorted(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize(
        "flags, size",
        [
            (["--model", "iid", "--n", "10000000000000"], "--n 10000000000000"),
            (["--model", "periodic", "--pattern", "1,2", "--repeats", "100000000000000"], "--repeats 100000000000000"),
        ],
        ids=["iid", "periodic"],
    )
    def test_size_beyond_memory_exit_3(self, tmp_path, flags, size):
        # in a child whose address space is capped at 2 GiB, so that no allocation of that size can succeed
        script = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from spectropy.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = run_python("-c", script, "synth", *flags, "--output", str(tmp_path / "o.csv"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == f"error: Config: {size} is too large: the samples of a band do not fit in memory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--pattern", "0,1", "--repeats", "100000000000000000000"],
             "--repeats 100000000000000000000 is too large for the length of a band"),
            (["--pattern", "0,99999999999999999999999", "--repeats", "2"],
             "--pattern 0,99999999999999999999999 has a level too large for a 64-bit integer"),
        ],
        ids=["repeats-beyond-an-index", "level-beyond-int64"],
    )
    def test_periodic_number_beyond_its_type_exit_3(self, tmp_path, capsys, flags, message):
        assert run_cli("synth", "--model", "periodic", *flags, "--output", tmp_path / "o.csv") == 3
        assert capsys.readouterr().err == f"error: Config: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_gaussian_draw_beyond_the_float_range_exit_3(self, tmp_path, capsys):
        # the parameters are finite, but a draw from N(-100, 1e308) overflows to -inf or inf
        out = tmp_path / "o.csv"
        assert run_cli("synth", "--model", "gaussian", "--n", "1000", "--sigma-db", "1e308", "--output", out) == 3
        assert capsys.readouterr().err.startswith(
            "error: Config: --mean-dbm -100.0 and --sigma-db 1e+308 draw a non-finite sample at index "
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["header", "rows"])
    def test_bands_beyond_memory_exit_3(self, tmp_path, capsys, monkeypatch, where):
        # In a child capped at 2 GiB, --n 1 --bands 100000000 runs out of memory in the header
        # after about 20 s; the same MemoryError is raised here where the header or a row is built.
        import spectropy.cli as cli

        def no_memory(*args):
            raise MemoryError

        def write_header_only(files):
            def pieces(it):
                yield next(it)
                raise MemoryError

            real_write({path: pieces(iter(p)) for path, p in files.items()})

        real_write = cli._atomic_write
        if where == "header":
            monkeypatch.setattr(cli, "_fmt", no_memory)
        else:
            monkeypatch.setattr(cli, "_atomic_write", write_header_only)
        out = tmp_path / "o.csv"
        assert run_cli("synth", "--model", "gaussian", "--n", "1", "--bands", "100", "--output", out) == 3
        assert capsys.readouterr().err == (
            "error: Config: --bands 100 is too large: the header or a row does not fit in memory\n"
        )
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze"], "an input file is required (or use --from-manifest)"),
        (["synth", "--model", "periodic", "--pattern", "1,x"], "pattern must be comma-separated integers, got '1,x'"),
        (["synth", "--model", "markov"], "--spec is required for the markov model"),
        (["synth", "--model", "periodic"], "--pattern is required for the periodic model"),
    ],
    ids=["analyze-without-input", "pattern-not-integers", "markov-without-spec", "periodic-without-pattern"],
)
def test_missing_or_malformed_required_value_exit_3(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--output", tmp_path / "x.csv") == 3
    assert capsys.readouterr().err == f"error: Config: {message}\n"
    assert list(tmp_path.iterdir()) == []


def run_module(*argv, input=None):
    return run_python("-m", "spectropy", *argv, input=input)


@pytest.mark.parametrize("command", ["analyze", "duty-cycle"])
@pytest.mark.parametrize("dbm, shown", [("-4000", "-inf"), ("1e303", "inf")], ids=["underflow", "overflow"])
def test_underflowing_block_average_exit_2(tmp_path, command, dbm, shown):
    # 10**-400 mW underflows to 0, whose log is -inf dBm, and 10**1e302 mW overflows to +inf dBm:
    # a non-finite sample, not a numpy warning
    path = write_text(tmp_path / "t.csv", "614.1\n" + f"{dbm}\n" * 4)
    proc = run_module(command, str(path), "--block", "2", "--output", str(tmp_path / "out.csv"))
    assert proc.returncode == 2
    assert proc.stderr == f"error: NonFiniteSample: non-finite sample at index 0 ({shown})\n"  # no RuntimeWarning
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


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

    @pytest.mark.parametrize(
        "command, unused",
        [
            # numpy imports inspect itself, so only the commands without numpy can start without it
            (["--version"], ["numpy", "concurrent.futures.process", "dataclasses", "inspect"]),
            (["cdf", "{dir}/an.json", "--output", "{dir}/cdf.csv"],
             ["numpy", "concurrent.futures.process", "dataclasses", "inspect"]),
            (["duty-cycle", "{dir}/t.csv", "--output", "{dir}/dc.csv"], ["concurrent.futures.process", "dataclasses"]),
            (["synth", "--model", "iid", "--n", "20", "--output", "{dir}/s.csv"],
             ["concurrent.futures.process", "dataclasses"]),
            (["analyze", "{dir}/t.csv", "--jobs", "1", "--output", "{dir}/an2.csv"],
             ["concurrent.futures.process", "dataclasses"]),
            # 8 slots are far too few to pay for a pool
            (["analyze", "{dir}/t.csv", "--jobs", "2", "--output", "{dir}/an2.csv"],
             ["concurrent.futures.process", "dataclasses"]),
        ],
        ids=["version", "cdf", "duty-cycle", "synth", "analyze-jobs-1", "analyze-jobs-2"],
    )
    def test_commands_start_without_modules_they_do_not_use(self, tmp_path, command, unused):
        trace = write_text(tmp_path / "t.csv", "614.1,614.3\n-100,-120\n-110,-121\n-100,-119\n")
        assert run_cli("analyze", trace, "--output", tmp_path / "an.csv") == 0
        argv = [arg.format(dir=tmp_path) for arg in command]
        # runs `python -m spectropy` in the child, then reports which of `unused` it loaded
        script = (
            "import runpy, sys\n"
            f"sys.argv = ['spectropy', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('spectropy', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code in (0, None), exc.code\n"
            f"print(sorted(set({unused!r}) & set(sys.modules)))\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
