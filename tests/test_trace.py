import math

import numpy as np
import pytest

from spectropy import (
    BandMetadata,
    EmptyTraceError,
    EntropyReport,
    LevelDistribution,
    NonFiniteSampleError,
    PredictabilityReport,
    PsdTrace,
    QuantizedTrace,
)


def make_band(**kw):
    defaults = dict(center_freq_hz=614.1e6, label="614.1 MHz")
    defaults.update(kw)
    return BandMetadata(**defaults)


class TestBandMetadata:
    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            BandMetadata(center_freq_hz=0.0)

    def test_nan_frequency_rejected(self):
        with pytest.raises(ValueError):
            BandMetadata(center_freq_hz=float("nan"))

    def test_mhz_property(self):
        assert make_band().center_freq_mhz == pytest.approx(614.1, rel=1e-12)


class TestValidateTrace:
    def test_full_week_trace_accepted(self, rng):
        samples = rng.normal(-100, 5, 3360)
        assert PsdTrace(make_band(), samples).samples == tuple(samples)

    def test_empty_rejected(self):
        with pytest.raises(EmptyTraceError):
            PsdTrace(make_band(), ())

    def test_nan_reports_index(self):
        samples = [-100.0] * 10
        samples[5] = float("nan")
        with pytest.raises(NonFiniteSampleError) as err:
            PsdTrace(make_band(), tuple(samples))
        assert err.value.index == 5

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteSampleError) as err:
            PsdTrace(make_band(), (-100.0, float("inf")))
        assert err.value.index == 1
        assert err.value.value == float("inf")


class TestStructuralValue:
    def test_equality_is_structural(self):
        a = PsdTrace(make_band(), (-100.0, -110.25))
        b = PsdTrace(make_band(), (-100.0, -110.25))
        assert a == b and a is not b

    def test_samples_coerced_to_floats(self):
        trace = PsdTrace(make_band(), (np.float64(-100), -101))
        assert all(type(v) is float for v in trace.samples)


class TestQuantizedTrace:
    def test_levels_must_fit_alphabet(self):
        with pytest.raises(ValueError):
            QuantizedTrace(make_band(), (0, 8), 8)
        with pytest.raises(ValueError):
            QuantizedTrace(make_band(), (-1,), 8)

    @pytest.mark.parametrize("levels", [(0.5, 1.7, 1.2), (0, 1.5), (float("nan"),), (float("inf"),)])
    def test_non_integral_levels_rejected(self, levels):
        # a cast to int64 would truncate 0.5, 1.7, 1.2 to 0, 1, 1
        with pytest.raises(ValueError, match="levels must be integers"):
            QuantizedTrace(make_band(), levels, 2)

    def test_integral_levels_of_any_type_become_ints(self):
        for levels in [(0.0, 1.0, 1.0), np.array([0, 1, 1], dtype=np.uint8), [0, 1, 1], np.array([0.0, 1.0, 1.0])]:
            qt = QuantizedTrace(make_band(), levels, 2)
            assert qt.levels == (0, 1, 1) and all(type(v) is int for v in qt.levels)

    def test_q_carried_not_inferred(self):
        qt = QuantizedTrace(make_band(), (0, 0, 0), 8)
        assert qt.q == 8

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            QuantizedTrace(make_band(), (), 0)


class TestLevelDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LevelDistribution((0.5, 0.4))

    def test_probabilities_in_unit_interval(self):
        with pytest.raises(ValueError):
            LevelDistribution((1.5, -0.5))

    def test_q_is_length(self):
        assert LevelDistribution((0.25, 0.75)).q == 2


class TestReports:
    def test_entropy_report_pins_e_rand(self):
        with pytest.raises(ValueError):
            EntropyReport(e_rand=2.9, e_unc=1.0, e_actual=0.5, n=10, q=8)
        rep = EntropyReport(e_rand=3.0, e_unc=1.0, e_actual=0.5, n=10, q=8)
        assert rep.e_rand == math.log2(8)

    def test_entropy_report_bounds(self):
        with pytest.raises(ValueError):
            EntropyReport(e_rand=3.0, e_unc=3.5, e_actual=0.5, n=10, q=8)
        with pytest.raises(ValueError):
            EntropyReport(e_rand=3.0, e_unc=1.0, e_actual=-0.1, n=10, q=8)

    def test_predictability_report_range(self):
        with pytest.raises(ValueError):
            PredictabilityReport(pi_max=0.1, entropy_used=1.0, clamped=False, iterations=0, q=8)
        ok = PredictabilityReport(pi_max=0.5, entropy_used=1.0, clamped=False, iterations=10, q=8)
        assert ok.pi_max == 0.5
