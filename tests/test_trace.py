import math
import pickle

import numpy as np
import pytest

from spectropy import (
    BandAnalysis,
    BandMetadata,
    CdfReport,
    EmptyTraceError,
    EntropyReport,
    LevelDistribution,
    LzParse,
    MarkovSpec,
    NonFiniteSampleError,
    PredictabilityReport,
    PsdTrace,
    QuantizationConfig,
    QuantizedTrace,
    SpectrumMatrix,
    Strategy,
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


_BAND = make_band(service="tv")
_ENTROPY = dict(e_rand=1.0, e_unc=0.8, e_actual=0.5, n=10, q=2)
_PREDICTABILITY = dict(pi_max=0.9, entropy_used=0.4, clamped=False, iterations=30, q=2)
# valid keyword arguments for each value type, in field order
VALUE_TYPE_FIELDS = {
    BandMetadata: dict(center_freq_hz=614.1e6, label="614.1 MHz", service="tv"),
    PsdTrace: dict(band=_BAND, samples=(-100.0, -101.5)),
    QuantizedTrace: dict(band=_BAND, levels=(0, 1, 1), q=2),
    LevelDistribution: dict(probabilities=(0.25, 0.75)),
    EntropyReport: _ENTROPY,
    PredictabilityReport: _PREDICTABILITY,
    SpectrumMatrix: dict(bands=(_BAND,), rows=np.array([[-100.0], [-101.5]])),
    QuantizationConfig: dict(q=8, strategy=Strategy.EQUAL_FREQUENCY),
    CdfReport: dict(points=((0.5, 0.5), (0.9, 1.0)), service="tv", q=2),
    LzParse: dict(lambdas=(1, 2, 2)),
    BandAnalysis: dict(
        band=_BAND, entropy=EntropyReport(**_ENTROPY), predictability=PredictabilityReport(**_PREDICTABILITY)
    ),
    MarkovSpec: dict(transition=((0.9, 0.1), (0.2, 0.8)), initial=(0.5, 0.5), seed=1),
}


@pytest.mark.parametrize("cls", VALUE_TYPE_FIELDS, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    """What a frozen dataclass gave each type: construction, immutability, equality, repr, pickling."""
    fields = VALUE_TYPE_FIELDS[cls]
    names = list(fields)
    value = cls(**fields)
    # the fields, in order, are the instance's whole state: the analyze JSON lists them in this order
    assert list(vars(value)) == names
    assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={getattr(value, n)!r}' for n in names)})"

    with pytest.raises(TypeError, match="missing"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(**fields, colour="red")
    with pytest.raises(TypeError, match="multiple values"):
        cls(fields[names[0]], **fields)
    with pytest.raises(TypeError, match="arguments"):
        cls(*fields.values(), None)
    with pytest.raises(AttributeError):
        setattr(value, names[0], fields[names[0]])
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    with pytest.raises(AttributeError):
        value.colour = "red"
    assert list(vars(value)) == names

    twin = cls(*fields.values())
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and repr(copy) == repr(value)
    assert value.__eq__(fields[names[0]]) is NotImplemented
    if cls is SpectrumMatrix:  # compared by identity: the rows are an array
        assert value == value and value != twin and value != copy
        assert hash(value) == object.__hash__(value)
    else:
        assert value == twin == copy and value is not twin
        assert hash(value) == hash(twin) == hash(copy)
        assert value != fields


def test_value_type_defaults():
    band = BandMetadata(1e9)
    assert (band.label, band.service) == ("", None)
    assert BandMetadata.label == ""
    assert QuantizationConfig(8).strategy is Strategy.EQUAL_WIDTH
    assert QuantizationConfig(8) == QuantizationConfig(q=8, strategy=Strategy.EQUAL_WIDTH)


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

    def test_nan_rejected(self):
        # shannon_entropy gave -0.0 bits for it
        with pytest.raises(ValueError):
            LevelDistribution((math.nan,))

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

    def test_entropy_report_rejects_nan(self):
        with pytest.raises(ValueError):
            EntropyReport(e_rand=3.0, e_unc=1.0, e_actual=math.nan, n=10, q=8)

    def test_predictability_report_range(self):
        with pytest.raises(ValueError):
            PredictabilityReport(pi_max=0.1, entropy_used=1.0, clamped=False, iterations=0, q=8)
        ok = PredictabilityReport(pi_max=0.5, entropy_used=1.0, clamped=False, iterations=10, q=8)
        assert ok.pi_max == 0.5
        with pytest.raises(ValueError):  # a single-level alphabet is always predicted
            PredictabilityReport(pi_max=0.9, entropy_used=0.0, clamped=False, iterations=0, q=1)
