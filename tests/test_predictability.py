import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectropy import (
    CdfReport,
    DomainError,
    EmptyInputError,
    PredictabilityReport,
    band_predictability,
    fano_rhs,
    gen_periodic,
    max_predictability,
    predictability_cdf,
)


def report_with_pi(pi, q=8):
    e = fano_rhs(pi, q) if pi < 1.0 else 0.0
    return PredictabilityReport(pi_max=pi, entropy_used=e, clamped=False, iterations=0, q=q)


class TestFanoRhs:
    def test_perfect_predictability_is_zero_entropy(self):
        for q in (2, 8, 64):
            assert fano_rhs(1.0, q) == 0.0

    def test_chance_level_recovers_log2_q(self):
        # H_b(1/8) + (7/8) log2 7 = 0.5436 + 2.4564 = 3.0
        assert fano_rhs(1.0 / 8.0, 8) == pytest.approx(3.0, abs=1e-12)
        for q in range(2, 65):
            assert fano_rhs(1.0 / q, q) == pytest.approx(math.log2(q), abs=1e-12)

    def test_hand_evaluated_point(self):
        # H_b(0.75) = 0.8112781245, 0.25*log2(7) = 0.7018387305
        assert fano_rhs(0.75, 8) == pytest.approx(1.513, abs=1e-3)
        assert fano_rhs(0.75, 8) == pytest.approx(0.8112781244591328 + 0.701838730514401, abs=1e-12)

    def test_strictly_decreasing_on_grid(self):
        for q in (2, 8, 64):
            grid = np.linspace(1.0 / q, 1.0, 10_000)
            vals = np.array([fano_rhs(p, q) for p in grid])
            assert (np.diff(vals) < 0).all()

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fano_rhs(0.05, 8)  # below 1/q
        with pytest.raises(DomainError):
            fano_rhs(1.01, 8)
        with pytest.raises(DomainError):
            fano_rhs(0.5, 1)


class TestMaxPredictability:
    def test_zero_entropy_fully_predictable(self):
        rep = max_predictability(0.0, 8)
        assert rep.pi_max == 1.0 and not rep.clamped

    def test_maximal_entropy_chance_level(self):
        rep = max_predictability(3.0, 8)
        assert rep.pi_max == 0.125 and not rep.clamped

    def test_interior_solve_against_grid_scan(self):
        # independent oracle: scan pi with step 1e-6 for the crossing
        e = 1.5
        grid = np.arange(0.125, 1.0 + 1e-6, 1e-6)
        vals = [fano_rhs(min(p, 1.0), 8) for p in grid]
        k = next(i for i, v in enumerate(vals) if v < e)
        oracle = grid[k]
        rep = max_predictability(e, 8)
        assert rep.pi_max == pytest.approx(oracle, abs=2e-6)
        assert rep.pi_max == pytest.approx(0.752, abs=1e-3)

    def test_negative_entropy_clamps_to_one(self):
        rep = max_predictability(-0.25, 8)
        assert rep.pi_max == 1.0 and rep.clamped and rep.entropy_used == 0.0

    def test_excess_entropy_clamps_to_chance(self):
        rep = max_predictability(3.2, 8)
        assert rep.pi_max == 0.125 and rep.clamped and rep.entropy_used == 3.0

    @pytest.mark.parametrize(("q", "e"), [
        (q, e)
        for q in (1, 2, 8)
        for e in sorted({-0.25, 0.0, 0.5 * math.log2(q), math.log2(q), math.log2(q) + 0.2})
    ])
    def test_clamps_to_zero_and_log2_q(self, q, e):
        # at q = 1 the range [0, log2 q] is the single point 0, so any positive entropy is clamped
        rep = max_predictability(e, q)
        assert rep.entropy_used == min(max(e, 0.0), math.log2(q))
        assert rep.clamped == (e != rep.entropy_used)
        if q == 1:
            assert rep.pi_max == 1.0 and rep.iterations == 0

    def test_q2_uses_degenerate_log_term(self):
        # log2(q-1) = 0, pure binary entropy inversion
        rep = max_predictability(0.469, 2)
        assert fano_rhs(rep.pi_max, 2) == pytest.approx(0.469, abs=1e-9)

    def test_non_finite_entropy_rejected(self):
        with pytest.raises(DomainError):
            max_predictability(float("nan"), 8)

    def test_iteration_count_reported(self):
        assert 20 <= max_predictability(1.5, 8).iterations <= 60

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.integers(min_value=2, max_value=64),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip(self, q, t):
        pi = 1.0 / q + t * (1.0 - 1.0 / q)
        rep = max_predictability(fano_rhs(pi, q), q)
        assert abs(rep.pi_max - pi) <= 1e-8

    @settings(max_examples=100, deadline=None)
    @given(
        q=st.integers(min_value=2, max_value=64),
        e1=st.floats(min_value=0.0, max_value=6.0),
        e2=st.floats(min_value=0.0, max_value=6.0),
    )
    def test_monotone_in_entropy(self, q, e1, e2):
        lo, hi = sorted((e1, e2))
        assert max_predictability(lo, q).pi_max >= max_predictability(hi, q).pi_max


class TestBandPredictability:
    def test_periodic_cycle_highly_predictable(self):
        qt = gen_periodic(range(8), 1000)
        assert band_predictability(qt).pi_max > 0.99

    def test_matches_manual_composition(self):
        from spectropy import lz_entropy_estimate

        qt = gen_periodic([0, 1, 2], 100)
        manual = max_predictability(lz_entropy_estimate(qt.levels), qt.q)
        assert band_predictability(qt) == manual


class TestPredictabilityCdf:
    def test_singleton(self):
        cdf = predictability_cdf([report_with_pi(0.9)], "TV")
        assert cdf.points == ((0.9, 1.0),)
        assert cdf.service == "TV" and cdf.q == 8

    def test_two_point(self):
        cdf = predictability_cdf([report_with_pi(0.9), report_with_pi(0.8)], "s")
        assert cdf.points == ((0.8, 0.5), (0.9, 1.0))

    def test_left_endpoint_is_minimum(self, rng):
        reports = [report_with_pi(float(p)) for p in rng.uniform(0.125, 1.0, 100)]
        cdf = predictability_cdf(reports, "synthetic")
        assert cdf.points[0][0] == min(r.pi_max for r in reports)
        assert cdf.points[-1][1] == 1.0
        fracs = [f for _, f in cdf.points]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            predictability_cdf([], "TV")

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(ValueError):
            predictability_cdf([report_with_pi(0.5, q=8), report_with_pi(0.9, q=2)], "TV")


class TestCdfReport:
    def test_fractions_must_end_at_one(self):
        with pytest.raises(ValueError):
            CdfReport(points=((0.5, 0.5),), service="s", q=8)

    def test_values_must_be_sorted(self):
        with pytest.raises(ValueError):
            CdfReport(points=((0.9, 0.5), (0.8, 1.0)), service="s", q=8)
