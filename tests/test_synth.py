import json
import math

import numpy as np
import pytest

from spectropy import (
    InvalidStochasticMatrixError,
    MarkovSpec,
    NotIrreducibleError,
    binary_symmetric_spec,
    gen_gaussian_psd,
    gen_iid_uniform,
    gen_markov,
    gen_periodic,
    lz_entropy_estimate,
    markov_entropy_rate,
    markov_spec_from_json,
    shannon_entropy,
    stationary_distribution,
)
from spectropy.trace import LevelDistribution


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestIidUniform:
    def test_single_symbol_all_zeros(self):
        assert set(gen_iid_uniform(1, 100, seed=3).levels) == {0}

    def test_deterministic_given_seed(self):
        a = gen_iid_uniform(8, 5000, seed=42)
        b = gen_iid_uniform(8, 5000, seed=42)
        assert a.levels == b.levels
        assert a.levels != gen_iid_uniform(8, 5000, seed=43).levels

    def test_law_of_large_numbers(self):
        qt = gen_iid_uniform(8, 100_000, seed=0)
        counts = np.bincount(qt.levels, minlength=8) / len(qt.levels)
        assert np.abs(counts - 0.125).max() < 0.01

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_iid_uniform(0, 5, seed=0)
        with pytest.raises(ValueError):
            gen_iid_uniform(2, 0, seed=0)


class TestGenMarkov:
    def test_identity_matrix_freezes_initial_draw(self):
        spec = MarkovSpec(((1.0, 0.0), (0.0, 1.0)), (0.3, 0.7), seed=5)
        levels = gen_markov(spec, 500).levels
        assert len(set(levels)) == 1

    def test_period_two_permutation_alternates(self):
        spec = MarkovSpec(((0.0, 1.0), (1.0, 0.0)), (1.0, 0.0), seed=1)
        levels = gen_markov(spec, 8).levels
        assert levels == (0, 1, 0, 1, 0, 1, 0, 1)

    def test_flip_frequency_matches_spec(self):
        qt = gen_markov(binary_symmetric_spec(0.1, seed=0), 100_000)
        arr = np.asarray(qt.levels)
        flips = (arr[1:] != arr[:-1]).mean()
        assert abs(flips - 0.1) < 0.01

    @pytest.mark.parametrize(
        "transition, initial",
        [
            (((0.9, 0.1), (0.4, 0.6)), (0.5, 0.5)),
            (((0.0, 1.0, 0.0), (0.25, 0.0, 0.75), (0.5, 0.5, 0.0)), (0.0, 0.0, 1.0)),
            (((0.2, 0.0, 0.0, 0.8), (0.0, 0.0, 1.0, 0.0), (0.1, 0.2, 0.3, 0.4), (0.0, 0.7, 0.0, 0.3)),
             (0.25, 0.0, 0.5, 0.25)),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_matches_searchsorted_reference(self, transition, initial, seed):
        spec = MarkovSpec(transition, initial, seed)
        u = np.random.default_rng(seed).random(5000)
        cum_rows = np.cumsum(np.asarray(transition), axis=1)
        state = min(int(np.searchsorted(np.cumsum(initial), u[0], side="right")), spec.q - 1)
        expected = [state]
        for x in u[1:]:
            state = min(int(np.searchsorted(cum_rows[state], x, side="right")), spec.q - 1)
            expected.append(state)
        assert gen_markov(spec, 5000).levels == tuple(expected)

    def test_deterministic_given_seed(self):
        spec = binary_symmetric_spec(0.3, seed=9)
        assert gen_markov(spec, 2000).levels == gen_markov(spec, 2000).levels

    def test_rejects_bad_matrices(self):
        with pytest.raises(InvalidStochasticMatrixError):
            MarkovSpec(((0.5, 0.4), (0.5, 0.5)), (0.5, 0.5), seed=0)
        with pytest.raises(InvalidStochasticMatrixError):
            MarkovSpec(((1.1, -0.1), (0.5, 0.5)), (0.5, 0.5), seed=0)
        with pytest.raises(InvalidStochasticMatrixError):
            MarkovSpec(((0.5, 0.5), (0.5, 0.5)), (0.5, 0.4), seed=0)
        with pytest.raises(InvalidStochasticMatrixError):
            MarkovSpec(((0.5, 0.5),), (1.0,), seed=0)

    @pytest.mark.parametrize(
        "transition, initial",
        [(((math.nan, math.nan), (0.5, 0.5)), (0.5, 0.5)), (((0.5, 0.5), (0.5, 0.5)), (math.nan, 1.0))],
        ids=["matrix", "initial"],
    )
    def test_rejects_nan(self, transition, initial):
        # markov_entropy_rate raised numpy's LinAlgError on the first
        with pytest.raises(InvalidStochasticMatrixError):
            MarkovSpec(transition, initial, seed=1)


class TestStationaryAndEntropyRate:
    def test_deterministic_cycle_has_zero_rate(self):
        spec = MarkovSpec(
            ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)), (1.0, 0.0, 0.0), seed=0
        )
        assert markov_entropy_rate(spec) == 0.0

    def test_iid_rows_degenerate_to_shannon(self):
        p = (0.1, 0.2, 0.3, 0.4)
        spec = MarkovSpec((p, p, p, p), p, seed=0)
        expected = shannon_entropy(LevelDistribution(p))
        assert abs(markov_entropy_rate(spec) - expected) <= 1e-10

    def test_binary_symmetric_flip_rate(self):
        spec = binary_symmetric_spec(0.1, seed=0)
        assert markov_entropy_rate(spec) == pytest.approx(binary_entropy(0.1), abs=1e-12)
        assert markov_entropy_rate(spec) == pytest.approx(0.469, abs=1e-3)

    def test_two_state_asymmetric_stationary(self):
        # p01=0.2, p10=0.4 -> stationary (2/3, 1/3)
        spec = MarkovSpec(((0.8, 0.2), (0.4, 0.6)), (0.5, 0.5), seed=0)
        pi = stationary_distribution(spec)
        assert pi == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_identity_not_irreducible(self):
        spec = MarkovSpec(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5), seed=0)
        with pytest.raises(NotIrreducibleError):
            markov_entropy_rate(spec)

    def test_single_state_chain(self):
        spec = MarkovSpec(((1.0,),), (1.0,), seed=0)
        assert markov_entropy_rate(spec) == 0.0


class TestGaussianPsd:
    def test_sample_mean_within_clt_bound(self):
        n, mean, sigma = 3360, -100.0, 5.0
        trace = gen_gaussian_psd(n, mean, sigma, seed=0)
        assert abs(np.mean(trace.samples) - mean) < 5 * sigma / math.sqrt(n)

    def test_deterministic_given_seed(self):
        assert gen_gaussian_psd(100, seed=7) == gen_gaussian_psd(100, seed=7)

    def test_week_scale_length(self):
        assert len(gen_gaussian_psd(3360, seed=0)) == 3360

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gen_gaussian_psd(10, sigma_db=0.0, seed=0)
        with pytest.raises(ValueError):
            gen_gaussian_psd(10, mean_dbm=float("inf"), seed=0)
        # finite parameters whose draws overflow the float range are a parameter fault, not bad data
        with pytest.raises(ValueError, match=r"^mean_dbm -100.0 and sigma_db 1e\+308 draw a non-finite sample at index"):
            gen_gaussian_psd(1000, -100.0, 1e308)


class TestPeriodic:
    def test_single_level_pattern(self):
        assert gen_periodic([0], 5).levels == (0, 0, 0, 0, 0)

    def test_cycle_length_arithmetic(self):
        qt = gen_periodic(range(8), 1000)
        assert len(qt.levels) == 8000
        assert qt.q == 8

    def test_low_entropy_estimate(self):
        assert lz_entropy_estimate(gen_periodic(range(8), 1000).levels) < 0.1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_periodic([], 3)
        with pytest.raises(ValueError):
            gen_periodic([0, 1], 0)


class TestMarkovSpecJson:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(
            json.dumps(
                {"matrix": [[0.9, 0.1], [0.1, 0.9]], "initial": [0.5, 0.5], "seed": 11}
            ),
            encoding="utf-8",
        )
        spec = markov_spec_from_json(path)
        assert spec == binary_symmetric_spec(0.1, seed=11)
