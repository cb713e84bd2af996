import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectropy import (
    BlockLargerThanTraceError,
    EmptyTraceError,
    NonFiniteValueError,
    ParseError,
    RaggedRowError,
    SpectrumMatrix,
    block_average,
    duty_cycle,
    load_matrix,
    load_service_map,
    service_for_frequency,
)
from tests.conftest import write_text
from tests.test_trace import make_band


def matrix_of(rows, freqs_mhz=None):
    rows = np.asarray(rows, dtype=np.float64)
    if freqs_mhz is None:
        freqs_mhz = [614.1 + 0.2 * i for i in range(rows.shape[1])]
    bands = tuple(make_band(center_freq_hz=f * 1e6, label=f"{f} MHz") for f in freqs_mhz)
    return SpectrumMatrix(bands=bands, rows=rows)


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
        assert [dc for _, dc in rep.per_band] == [0.0, 0.0]

    def test_all_above_threshold(self):
        rep = duty_cycle(matrix_of([[-90.0]] * 5), -107.0)
        assert rep.per_band[0][1] == 1.0

    def test_direct_count(self):
        rep = duty_cycle(matrix_of([[-100.0], [-110.0], [-100.0], [-120.0]]), -107.0)
        assert rep.per_band[0][1] == 0.5

    def test_sample_at_threshold_counts_idle(self):
        rep = duty_cycle(matrix_of([[-107.0], [-106.9]]), -107.0)
        assert rep.per_band[0][1] == 0.5

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
        for (_, dc_high), (_, dc_low) in zip(high.per_band, low.per_band):
            assert dc_high <= dc_low


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
