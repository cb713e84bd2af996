import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectropy import (
    BlockLargerThanTraceError,
    EmptyTraceError,
    NonFiniteValueError,
    ParseError,
    RaggedRowError,
    SpectrumMatrix,
    SpectropyError,
    block_average,
    duty_cycle,
    load_matrix,
    load_service_map,
    service_for_frequency,
)
from spectropy import ingest
from spectropy.ingest import AVG_DOMAINS, _scan_matrix
from tests.conftest import write_text
from tests.test_trace import make_band


def matrix_of(rows, freqs_mhz=None):
    rows = np.asarray(rows, dtype=np.float64)
    if freqs_mhz is None:
        freqs_mhz = [614.1 + 0.2 * i for i in range(rows.shape[1])]
    bands = tuple(make_band(center_freq_hz=f * 1e6, label=f"{f} MHz") for f in freqs_mhz)
    return SpectrumMatrix(bands=bands, rows=rows)


def spy_scans(monkeypatch):
    """The calls the line reader gets from here on."""
    scanned = []
    monkeypatch.setattr(ingest, "_scan_matrix", lambda *a: scanned.append(a) or _scan_matrix(*a))
    return scanned


def write_exact(path, rows, blank_every=0):
    """A trace CSV whose values read back bit for bit, with a blank line after every ``blank_every`` rows."""
    step = blank_every or len(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"{614.1 + 0.2 * k:.10g}" for k in range(rows.shape[1])) + "\n")
        for lo in range(0, len(rows), step):
            np.savetxt(fh, rows[lo : lo + step], fmt="%.17g", delimiter=",")
            fh.write("\n" if blank_every else "")
    return path


class TestLoadMatrix:
    def test_well_formed(self, tmp_path):
        path = write_text(
            tmp_path / "t.csv",
            "614.1,614.3,614.5\n-100,-101,-102\n-103,-104,-105\n-106,-107,-108\n-109,-110,-111\n",
        )
        m = load_matrix(path)
        assert m.rows.shape == (4, 3)
        assert m.rows[0, 1] == -101.0

    def test_header_mhz_to_hz(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "614.1,614.3\n-100,-100\n")
        m = load_matrix(path)
        assert m.bands[0].center_freq_hz == pytest.approx(614.1e6, rel=1e-12)
        assert m.bands[1].center_freq_hz == pytest.approx(614.3e6, rel=1e-12)

    def test_comments_blank_lines_and_crlf(self, tmp_path):
        path = write_text(
            tmp_path / "t.csv",
            "# generated by a scanner\r\n614.1,614.3\r\n\r\n-100,-101\r\n# middle comment\n-102,-103\r\n",
        )
        m = load_matrix(path)
        assert m.rows.shape == (2, 2)

    def test_ragged_row_reports_line(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "614.1,614.3,614.5\n-100,-101\n")
        with pytest.raises(RaggedRowError) as err:
            load_matrix(path)
        assert err.value.line == 2

    def test_bad_token_is_parse_error(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "614.1\n-100\nbogus\n")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert err.value.line == 3

    def test_nan_cell_reports_position(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "614.1,614.3\n-100,nan\n")
        with pytest.raises(NonFiniteValueError) as err:
            load_matrix(path)
        assert (err.value.line, err.value.col) == (2, 2)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyTraceError):
            load_matrix(write_text(tmp_path / "t.csv", ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyTraceError):
            load_matrix(write_text(tmp_path / "t.csv", "614.1,614.3\n"))

    def test_bad_header_frequency(self, tmp_path):
        with pytest.raises(ParseError):
            load_matrix(write_text(tmp_path / "t.csv", "614.1,north\n-100,-100\n"))

    def test_service_map_applied(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "614.1,2400.5\n-100,-100\n")
        m = load_matrix(path, service_map={"TV": (614.0, 698.0), "ISM": (2400.1, 2483.3)})
        assert [b.service for b in m.bands] == ["TV", "ISM"]

    @pytest.mark.parametrize("raw, line", [
        (b"614.1\r-100\r\r\n\xff\n", 4),
        (b"614.1\n-100\n# dwell 5 \xb5s\n-101\n", 3),
        (b"614.1\n-100\n-1\xff2\n-101\n", 3),
    ], ids=["bare-cr", "comment", "data"])
    def test_non_utf8_byte_reports_its_line(self, tmp_path, raw, line):
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: not UTF-8 text")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "614.1,614.3\n-100,-101\n-102.5,-103\n"
        plain = load_matrix(write_text(tmp_path / "plain.csv", text))
        marked = load_matrix(write_text(tmp_path / "bom.csv", "\ufeff" + text))
        assert marked.bands == plain.bands
        assert np.array_equal(marked.rows, plain.rows)


PLAIN_VALUES = st.floats(-150, -40).map("{:.10g}".format) | st.integers(-150, 0).map(str)
# tokens on which numpy's parser and float() may disagree, and tokens every loader must reject
ODD_VALUES = st.sampled_from([
    "1_0", "-1_00.5", "\u0661\u0660", "1e303", "0", "-614.1", "", "1.5#x", "#1", "-100 # note", "0x10", "1e",
    ".5", "+.5e1", "1.", "north", "-1\udcb5",  # a Latin-1 byte, which is not UTF-8
])
NON_FINITE = st.sampled_from(["inf", "-inf", "Infinity", "+iNF", "nan", "NaN", "-nan", "1e999", "-1e999"])
PADDING = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\xa0", "\u2009", "\u3000", "\x85"])
EXTRA_LINES = st.sampled_from([
    "", " \t", "\x0c", "# comment", "  # indented, 1,2", "#614.1", "# RBW 200 kHz, \u0394t 180 s", "# dwell 5 \u00b5s",
])


@st.composite
def trace_files(draw):
    """A well-formed trace CSV, then up to four edits that may make it odd or malformed, with or without a BOM.

    The text is written with errors="surrogateescape", so "\\udcb5" stands for the undecodable byte 0xb5."""
    width = draw(st.integers(1, 3))
    lines = [draw(st.lists(st.floats(1, 6000).map("{:.10g}".format), min_size=width, max_size=width))]
    lines += draw(st.lists(st.lists(PLAIN_VALUES, min_size=width, max_size=width), min_size=1, max_size=5))
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.integers(0, len(lines) - 1))
        cells = lines[row]
        col = draw(st.integers(0, max(len(cells) - 1, 0)))
        edit = draw(st.sampled_from(["token", "non-finite", "pad", "separator", "ragged", "line", "end"]))
        if edit == "line":
            lines.insert(row, [draw(EXTRA_LINES)])
            ends.insert(row, "\n")
        elif edit == "end":
            ends[row] = draw(st.sampled_from(["\r\n", "\r"]))
        elif edit == "ragged" and (draw(st.booleans()) or not cells):
            cells.insert(col, draw(PLAIN_VALUES))
        elif edit == "ragged":
            cells.pop(col)
        elif cells:
            if edit in ("token", "non-finite"):
                cells[col] = draw(ODD_VALUES if edit == "token" else NON_FINITE)
            elif edit == "pad":
                cells[col] = draw(PADDING) + cells[col] + draw(PADDING)
            else:
                cells[col] += draw(st.sampled_from(["\x1c", "\x1d", "\x1e", "\x1f"]))
    if not draw(st.booleans()):
        ends[-1] = ""
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(",".join(cells) + end for cells, end in zip(lines, ends))


def load_outcome(load):
    try:
        m = load()
    except SpectropyError as exc:
        return type(exc), str(exc)
    return m.bands, m.rows.shape, m.rows.tobytes()


def write_campaign(path, rng, line_end, gap=""):
    """The shape and number format of the benchmark's long-campaign trace: 16 bands x 50,000 slots in %.10g,
    with a ``gap`` line, if any, after row 1000."""
    rows = rng.normal(-100.0, 5.0, size=(50_000, 16))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"{614.1 + 0.2 * k:.10g}" for k in range(16)) + line_end)
        np.savetxt(fh, rows[:1000], fmt="%.10g", delimiter=",", newline=line_end)
        if gap:
            fh.write(gap + line_end)
        np.savetxt(fh, rows[1000:], fmt="%.10g", delimiter=",", newline=line_end)
    return path


class TestNumpyReader:
    @settings(max_examples=300, deadline=None)
    @given(text=trace_files())
    @example(text="614.1\n1.5\x1c\n")
    @example(text="614.1,614.3\n-100,-101 # note\n")
    @example(text="614.1\n1e999\n")
    @example(text="# c\r614.1,614.3\n-100,-101\n")
    @example(text="# c\r\n614.1,614.3\r\n-100,-101\r\n\r\n-102,-103\r\n")
    @example(text="614.1,614.3\r-100,-101\r# gap\r-102,-103\r")
    @example(text="614.1,614.3\r-100,-101\r \t\r-102,-103")
    def test_matches_line_scanner(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            fast = load_outcome(lambda: load_matrix(path))
            assert fast == load_outcome(lambda: _scan_matrix(path))

    @settings(max_examples=300, deadline=None)
    @given(text=trace_files(), block=st.integers(2, 3), domain=st.sampled_from(AVG_DOMAINS))
    @example(text="614.1\n-100\n-101\n-102\n-103\n\n", block=2, domain="linear")
    @example(text="614.1\n-100\n\n-101\n-102\nbogus\n", block=2, domain="db")
    @example(text="1\n1e303\n-40", block=2, domain="linear")  # 10**1e302 mW overflows to +inf dBm, with no warning
    def test_blocked_load_matches_line_scanner(self, text, block, domain):
        # a stretch of one or two blocks, so that these short files take several reads
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_STRETCH", 4):
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            fast = load_outcome(lambda: load_matrix(path, block=block, avg_domain=domain))
            assert fast == load_outcome(lambda: block_average(_scan_matrix(path), block, domain))

    def test_loadtxt_takes_max_rows_data_rows_from_a_stream(self, tmp_path):
        # load_matrix reads a block-averaged body in reads of max_rows rows from its open text stream
        path = write_text(tmp_path / "t.csv", "1,2\n\n3,4\n5,6\n\n7,8\n")
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as lines:
            with pytest.warns(UserWarning, match="Input line"):  # the warning load_matrix lets pass
                first = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=2)
            assert next(lines) == "5,6\n"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rest = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=2)
        assert first.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert rest.tolist() == [[7.0, 8.0]]

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "bare-cr"])
    def test_long_campaign_memory_bound(self, tmp_path, rng, monkeypatch, line_end):
        path = write_campaign(tmp_path / "campaign.csv", rng, line_end)
        scanned = spy_scans(monkeypatch)
        tracemalloc.start()
        try:
            m = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not scanned
        assert peak < 1.5 * m.rows.nbytes
        assert np.array_equal(m.rows, _scan_matrix(path).rows)

    @pytest.mark.parametrize("gap", ["# gap", "# dwell 5 \u00b5s", " \t"],
                             ids=["comment", "non-ascii-comment", "whitespace-only"])
    def test_line_reader_memory_bound(self, tmp_path, rng, monkeypatch, gap):
        # files numpy's path declines are read once, into one flat buffer of values
        path = write_campaign(tmp_path / "campaign.csv", rng, "\n", gap)
        scanned = spy_scans(monkeypatch)
        tracemalloc.start()
        try:
            m = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scanned
        assert m.rows.shape == (50_000, 16)
        assert peak < 1.5 * m.rows.nbytes

    @pytest.mark.parametrize("head", ["\ufeff", "# RBW 200 kHz, \u0394t 180 s\r\n"], ids=["bom", "non-ascii-comment"])
    def test_export_heads_take_numpys_path(self, tmp_path, monkeypatch, head):
        path = tmp_path / "t.csv"
        path.write_bytes((head + "614.1,614.3\r\n-100,-101.5\r\n-102,-103\r\n").encode())
        scanned = spy_scans(monkeypatch)
        m = load_matrix(path)
        assert not scanned
        assert load_outcome(lambda: m) == load_outcome(lambda: _scan_matrix(path))

    def test_information_separators_pad_like_whitespace(self, tmp_path):
        # str.strip() removes \x1c-\x1f, as numpy's parser does around a value; float() alone keeps them
        path = write_text(tmp_path / "t.csv", "\x1c614.1\x1f,614.3\n-100\x1c,\x1d-101.5\x1e\n\x1c\n")
        m = load_matrix(path)
        assert m.rows.tolist() == [[-100.0, -101.5]]
        assert [b.label for b in m.bands] == ["614.1 MHz", "614.3 MHz"]
        assert load_outcome(lambda: m) == load_outcome(lambda: _scan_matrix(path))

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"])
    def test_line_end_across_text_chunks(self, tmp_path, monkeypatch, line_end):
        # the comment's CR is the last byte of the first chunk the text stream decodes, so the decoder
        # must hold it until the next chunk shows whether an LF follows
        chunk = io.TextIOWrapper(io.BytesIO())._CHUNK_SIZE
        path = tmp_path / "t.csv"
        path.write_bytes(("#" * (chunk - 1) + line_end + "614.1,614.3\r\n-100,-101\r\n").encode())
        scanned = spy_scans(monkeypatch)
        m = load_matrix(path)
        assert m.rows.tolist() == [[-100.0, -101.0]]
        assert [b.label for b in m.bands] == ["614.1 MHz", "614.3 MHz"]
        assert not scanned


class TestBlockAverage:
    def test_block_one_is_identity(self):
        m = matrix_of([[-100.0, -101.0], [-102.0, -103.0]])
        out = block_average(m, 1)
        assert np.array_equal(out.rows, m.rows)

    def test_constant_block_round_trip(self):
        m = matrix_of([[-110.0], [-110.0]])
        out = block_average(m, 2)
        assert abs(out.rows[0, 0] - (-110.0)) < 1e-9

    def test_linear_domain_hand_value(self):
        # mean of 1e-10 mW and 1e-11 mW is 5.5e-11 mW = -102.5963731 dBm
        m = matrix_of([[-100.0], [-110.0]])
        out = block_average(m, 2)
        oracle = 10 * math.log10((10**-10.0 + 10**-11.0) / 2)
        assert abs(out.rows[0, 0] - oracle) < 1e-9
        assert abs(out.rows[0, 0] - (-102.6)) < 0.1

    def test_db_domain_plain_mean(self):
        m = matrix_of([[-100.0], [-110.0]])
        out = block_average(m, 2, domain="db")
        assert out.rows[0, 0] == -105.0

    def test_partial_tail_dropped(self):
        m = matrix_of([[v] for v in [-100.0, -100.0, -100.0, -100.0, -100.0]])
        out = block_average(m, 2)
        assert out.n_slots == 2

    @pytest.mark.parametrize(
        "n_slots, n_bands, block, blank_every",
        [
            (50_013, 16, 20, 0),  # 204 blocks a stretch; 2500 blocks are no multiple of it; a 13-slot tail
            (20_003, 16, 5000, 0),  # one block is larger than a stretch
            (70_001, 1, 7, 0),  # one band: numpy sums each block pairwise
            (140_001, 1, 70_000, 0),
            (8_160, 16, 20, 0),  # two whole reads of one stretch, then an empty one
            (8_160, 16, 20, 1_020),  # blank lines among the rows, at the ends of reads and after the last row
        ],
    )
    def test_matches_one_shot_mean(self, tmp_path, rng, monkeypatch, n_slots, n_bands, block, blank_every):
        m = matrix_of(rng.normal(-100.0, 20.0, size=(n_slots, n_bands)))
        rows = m.rows[: n_slots // block * block].reshape(n_slots // block, block, n_bands)
        assert np.array_equal(block_average(m, block).rows, 10 * np.log10(np.power(10, rows / 10).mean(axis=1)))
        assert np.array_equal(block_average(m, block, domain="db").rows, rows.mean(axis=1))
        # the load averages each read as block_average averages the whole matrix
        path = write_exact(tmp_path / "t.csv", m.rows, blank_every)
        scanned = spy_scans(monkeypatch)
        full = load_matrix(path)
        assert np.array_equal(full.rows, m.rows)
        for domain in AVG_DOMAINS:
            averaged = load_matrix(path, block=block, avg_domain=domain)
            assert np.array_equal(averaged.rows, block_average(full, block, domain).rows)
            assert averaged.bands == full.bands
        assert not scanned

    @pytest.mark.parametrize("domain", AVG_DOMAINS)
    def test_load_with_fewer_rows_than_a_block(self, tmp_path, rng, monkeypatch, domain):
        path = write_exact(tmp_path / "t.csv", rng.normal(-100.0, 20.0, size=(19, 3)))
        scanned = spy_scans(monkeypatch)
        with pytest.raises(BlockLargerThanTraceError, match="block 20 larger than the 19-slot trace"):
            load_matrix(path, block=20, avg_domain=domain)
        assert not scanned

    def test_linear_domain_memory_bound(self, rng):
        m = matrix_of(rng.normal(-100.0, 5.0, size=(50_000, 16)))
        tracemalloc.start()
        try:
            out = block_average(m, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.rows.shape == (2500, 16)
        assert peak < 0.5 * m.rows.nbytes

    @pytest.mark.parametrize("domain", AVG_DOMAINS)
    @pytest.mark.parametrize("gap", ["", "# gap"], ids=["numpy", "line-reader"])
    def test_blocked_load_memory_bound(self, tmp_path, rng, monkeypatch, gap, domain):
        # either parser holds one stretch of raw rows and the block means, never the full-resolution matrix
        path = write_campaign(tmp_path / "campaign.csv", rng, "\n", gap)
        scanned = spy_scans(monkeypatch)
        tracemalloc.start()
        try:
            out = load_matrix(path, block=20, avg_domain=domain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(scanned) == bool(gap)
        assert out.rows.shape == (2500, 16)
        assert peak < 0.3 * 50_000 * 16 * 8
        assert np.array_equal(out.rows, block_average(_scan_matrix(path), 20, domain).rows)

    def test_block_larger_than_trace(self):
        m = matrix_of([[-100.0]] * 3)
        with pytest.raises(BlockLargerThanTraceError):
            block_average(m, 4)

    def test_invalid_args(self):
        m = matrix_of([[-100.0]] * 3)
        with pytest.raises(ValueError):
            block_average(m, 0)
        with pytest.raises(ValueError):
            block_average(m, 2, domain="log")


class TestDutyCycle:
    def test_all_below_threshold(self):
        rep = duty_cycle(matrix_of([[-120.0, -120.0]] * 5), -114.0)
        assert rep == (0.0, 0.0)
        assert all(type(dc) is float for dc in rep)

    def test_all_above_threshold(self):
        assert duty_cycle(matrix_of([[-90.0]] * 5), -107.0) == (1.0,)

    def test_direct_count(self):
        assert duty_cycle(matrix_of([[-100.0], [-110.0], [-100.0], [-120.0]]), -107.0) == (0.5,)

    def test_sample_at_threshold_counts_idle(self):
        assert duty_cycle(matrix_of([[-107.0], [-106.9]]), -107.0) == (0.5,)

    def test_no_slots_raises(self):
        # the mean over no slots would be NaN, with a RuntimeWarning
        with pytest.raises(EmptyTraceError):
            duty_cycle(matrix_of(np.empty((0, 1))), -107.0)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.floats(min_value=-140, max_value=-80, allow_nan=False), min_size=2, max_size=2),
            min_size=1,
            max_size=30,
        ),
        t1=st.floats(min_value=-120, max_value=-100),
        delta=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_monotone_in_threshold(self, rows, t1, delta):
        m = matrix_of(rows)
        high = duty_cycle(m, t1)
        low = duty_cycle(m, t1 - delta)
        assert len(high) == len(low) == 2
        assert all(dc_high <= dc_low for dc_high, dc_low in zip(high, low))


class TestServiceMap:
    def test_load_and_lookup(self, tmp_path):
        path = write_text(
            tmp_path / "services.json",
            '{"TV": [614.0, 698.0], "ISM": [2400.1, 2483.3]}',
        )
        smap = load_service_map(path)
        assert service_for_frequency(614.1, smap) == "TV"
        assert service_for_frequency(2450.0, smap) == "ISM"
        assert service_for_frequency(100.0, smap) is None

    def test_bad_shapes_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_service_map(write_text(tmp_path / "a.json", '["TV"]'))
        with pytest.raises(ParseError):
            load_service_map(write_text(tmp_path / "b.json", '{"TV": [5]}'))
        with pytest.raises(ParseError):
            load_service_map(write_text(tmp_path / "c.json", '{"TV": [9, 2]}'))
