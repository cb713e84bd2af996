import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectropy import (
    EmptyTraceError,
    PsdTrace,
    QuantizationConfig,
    Strategy,
    level_distribution,
    quantize,
)
from spectropy.quantize import MAX_Q
from tests.test_trace import make_band


def trace_of(values):
    return PsdTrace(make_band(), tuple(float(v) for v in values))


class TestEqualWidth:
    def test_constant_trace_degenerates_to_level_zero(self):
        qt = quantize(trace_of([-100.0] * 50), QuantizationConfig(q=8))
        assert set(qt.levels) == {0}
        assert qt.q == 8

    def test_own_range_identity_mapping(self):
        # range (0, 8) gives edges at 1..7; the maximum 8 joins 7 in the top bin
        qt = quantize(trace_of(range(9)), QuantizationConfig(q=8))
        assert qt.levels == (0, 1, 2, 3, 4, 5, 6, 7, 7)

    def test_interior_edge_goes_to_upper_bin(self):
        # edges at 1..7 for the band's range (0, 8); a value exactly on an edge belongs above it
        qt = quantize(trace_of([0.0, 2.0, 1.999999, 7.0, 8.0]), QuantizationConfig(q=8))
        assert qt.levels == (0, 2, 1, 7, 7)

    def test_range_maximum_lands_in_top_bin(self):
        qt = quantize(trace_of([0.0, 5.0, 10.0]), QuantizationConfig(q=4))
        assert qt.levels[-1] == 3

    def test_q1_always_level_zero(self):
        qt = quantize(trace_of([-120.0, -90.0, -100.0]), QuantizationConfig(q=1))
        assert qt.levels == (0, 0, 0)

    def test_gaussian_mass_concentrates_in_middle_bins(self, rng):
        samples = rng.standard_normal(10_000)
        qt = quantize(trace_of(samples), QuantizationConfig(q=8))
        dist = level_distribution(qt)
        middle = sum(dist.probabilities[3:5])
        edges = dist.probabilities[0] + dist.probabilities[7]
        assert middle > edges


class TestEqualFrequency:
    def test_balanced_masses_on_continuous_data(self, rng):
        samples = rng.normal(-100, 5, 8_000)
        cfg = QuantizationConfig(q=8, strategy=Strategy.EQUAL_FREQUENCY)
        dist = level_distribution(quantize(trace_of(samples), cfg))
        assert max(dist.probabilities) < 0.2  # near 1/8 each

    def test_tied_data_collapses_duplicate_edges(self):
        cfg = QuantizationConfig(q=4, strategy=Strategy.EQUAL_FREQUENCY)
        # quantiles 0, 0, 0.25 collapse to two edges, so levels 0 and 3 go unused
        qt = quantize(trace_of([0.0, 0.0, 0.0, 1.0]), cfg)
        assert qt.levels == (1, 1, 1, 2)

    def test_constant_trace_degenerates(self):
        cfg = QuantizationConfig(q=8, strategy=Strategy.EQUAL_FREQUENCY)
        qt = quantize(trace_of([5.0] * 10), cfg)
        assert set(qt.levels) == {0}


class TestConfigValidation:
    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            QuantizationConfig(q=0)

    def test_q_bounded_by_max_q(self):
        assert QuantizationConfig(q=MAX_Q).q == MAX_Q
        with pytest.raises(ValueError):
            QuantizationConfig(q=MAX_Q + 1)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-200.0, max_value=0.0, allow_nan=False), min_size=1, max_size=60
    ),
    q=st.integers(min_value=1, max_value=16),
    strategy=st.sampled_from(list(Strategy)),
)
def test_quantize_is_monotone_and_in_range(values, q, strategy):
    qt = quantize(trace_of(values), QuantizationConfig(q=q, strategy=strategy))
    assert all(0 <= lv <= q - 1 for lv in qt.levels)
    order = np.argsort(values, kind="stable")
    sorted_levels = np.asarray(qt.levels)[order]
    assert (np.diff(sorted_levels) >= 0).all()


@settings(max_examples=150, deadline=None)
@given(
    base=st.lists(st.integers(min_value=-64, max_value=64), min_size=2, max_size=40),
    scale=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    shift=st.integers(min_value=-64, max_value=64),
    q=st.integers(min_value=1, max_value=8),
)
def test_equal_width_affine_invariance_exact(base, scale, shift, q):
    # integer samples that are multiples of q keep every edge computation
    # exact in floating point, so the invariance can be asserted exactly
    values = [float(v * q) for v in base]
    mapped = [scale * v + shift for v in values]
    cfg = QuantizationConfig(q=q)
    assert quantize(trace_of(values), cfg).levels == quantize(trace_of(mapped), cfg).levels


class TestLevelDistributionOp:
    def test_direct_count(self):
        qt = _qt([0, 0, 1, 1], 2)
        assert level_distribution(qt).probabilities == (0.5, 0.5)

    def test_point_mass(self):
        dist = level_distribution(_qt([3, 3, 3], 8))
        assert dist.probabilities[3] == 1.0
        assert sum(dist.probabilities) == 1.0

    def test_zero_count_levels_included(self):
        dist = level_distribution(_qt([0, 1, 1, 3], 4))
        assert dist.probabilities == (0.25, 0.5, 0.0, 0.25)

    def test_empty_rejected(self):
        with pytest.raises(EmptyTraceError):
            level_distribution(_qt([], 4))


def _qt(levels, q):
    from spectropy import QuantizedTrace

    return QuantizedTrace(make_band(), tuple(levels), q)
