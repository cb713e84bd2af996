import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectropy.entropy as entropy_module
from spectropy import (
    BlockTooLongError,
    EmptySequenceError,
    LevelDistribution,
    PsdTrace,
    QuantizationConfig,
    SequenceTooShortError,
    block_entropy_rate,
    entropy_report,
    gen_iid_uniform,
    gen_markov,
    gen_periodic,
    binary_symmetric_spec,
    level_distribution,
    lz_entropy_estimate,
    lz_parse,
    lz_parse_fast,
    quantize,
    random_entropy,
    shannon_entropy,
)
from tests.conftest import HOUSE_SEED
from tests.test_quantize import _qt
from tests.test_trace import make_band


def tiny_reference_lambdas(seq):
    """Transparent re-derivation of the match-length statistics.

    For each position, the longest prefix of the remaining suffix that
    occurs as a contiguous run entirely before that position, plus one.
    Written with plain index loops so it can be eyeballed against the
    definition; used to anchor lz_parse itself on small inputs.
    """
    seq = list(seq)
    n = len(seq)
    out = []
    for i in range(n):
        best = 0
        for length in range(1, n - i + 1):
            found = False
            for j in range(0, i - length + 1):
                if seq[j : j + length] == seq[i : i + length]:
                    found = True
                    break
            if found:
                best = length
            else:
                break
        out.append(best + 1)
    return tuple(out)


def fibonacci_word(n):
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def thue_morse_word(n):
    return [bin(k).count("1") % 2 for k in range(n)]


def adversarial_sequences(seed=0):
    """(name, sequence) pairs of the low-entropy shapes real idle,
    constant and periodic bands take, where a match-length parse that
    carries its match from one position to the next is most likely to
    slip: long matches, overlapping periodic matches and runs that end."""
    rng = np.random.default_rng(seed)
    cases = [(f"constant n={n}", [0] * n) for n in (1, 2, 3, 7, 64, 500, 1500)]
    for p in range(1, 17):
        cases.append((f"k % {p}", [k % p for k in range(40 * p + 3)]))
        block = rng.integers(0, 3, p).tolist()
        cases.append((f"random block of {p} repeated", block * (600 // p) + block[: p // 2]))
    cases.append(("fibonacci word", fibonacci_word(1000)))
    cases.append(("thue-morse word", thue_morse_word(1024)))
    bursts = [0] * 1200
    for start in rng.integers(0, 1190, 12):
        width = int(rng.integers(1, 9))
        bursts[start : start + width] = [1] * width
    cases.append(("sparse bursts", bursts))
    for at in (0, 1, 250, 499, 999):
        run = [0] * 1000
        run[at] = 1
        cases.append((f"long run with one change at {at}", run))
    for p_other in (0.002, 0.01, 0.05):
        idle = np.where(rng.random(1500) < p_other, rng.integers(1, 8, 1500), 0)
        cases.append((f"idle-like, {p_other:.1%} other levels", idle.tolist()))
    return cases


def _runs(draw_runs, repeats):
    seq = [symbol for symbol, length in draw_runs for _ in range(length)]
    return (seq * repeats)[:400]


# Low-entropy sequences: run-length encoded over a small alphabet, the
# whole run list optionally repeated so periodic structure appears too.
low_entropy_sequences = st.builds(
    _runs,
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 40)), min_size=1, max_size=12),
    st.integers(1, 8),
)


class TestLzParseOracle:
    def test_all_distinct_symbols(self):
        assert lz_parse("abc").lambdas == tiny_reference_lambdas("abc") == (1, 1, 1)

    def test_constant_run(self):
        # oracle-computed; note the final position is capped by its own
        # suffix length (whole suffix seen before reads as length + 1)
        assert lz_parse("aaaa").lambdas == tiny_reference_lambdas("aaaa") == (1, 2, 3, 2)

    def test_alternating_pair(self):
        assert lz_parse("abab").lambdas == tiny_reference_lambdas("abab") == (1, 1, 3, 2)

    def test_matches_tiny_reference_on_random_input(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            q = int(rng.integers(1, 6))
            seq = rng.integers(0, q, n).tolist()
            assert lz_parse(seq).lambdas == tiny_reference_lambdas(seq)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            lz_parse([])

    def test_large_alphabet_path(self):
        # symbols above the byte range exercise the generic search
        seq = [10_000, 20_000, 10_000, 20_000, 10_000]
        assert lz_parse(seq).lambdas == tiny_reference_lambdas(seq)
        assert lz_parse(seq).lambdas == lz_parse([0, 1, 0, 1, 0]).lambdas


class TestLzParseFastDifferential:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=300))
    @example([0] * 200)
    @example([0, 1, 2, 3, 4, 5, 6, 7] * 25)
    @example([0, 0, 1, 0, 0, 1, 0])
    def test_agrees_with_reference(self, seq):
        assert lz_parse_fast(seq).lambdas == lz_parse(seq).lambdas

    @settings(max_examples=300, deadline=None)
    @given(low_entropy_sequences)
    def test_agrees_with_reference_on_low_entropy_input(self, seq):
        assert lz_parse_fast(seq).lambdas == lz_parse(seq).lambdas

    @pytest.mark.parametrize("seq", [pytest.param(seq, id=name) for name, seq in adversarial_sequences()])
    def test_agrees_with_reference_on_adversarial_input(self, seq):
        assert lz_parse_fast(seq).lambdas == lz_parse(seq).lambdas

    def test_binary_and_wide_alphabets(self, rng):
        for q in (1, 2, 3, 16, 64):
            seq = rng.integers(0, q, 700).tolist()
            assert lz_parse_fast(seq).lambdas == lz_parse(seq).lambdas

    @pytest.mark.parametrize("sigma", [16, 17, 255, 256, 300])
    def test_alphabets_either_side_of_the_flat_table_limit(self, sigma):
        # Small alphabets index a flat transition list and large ones a
        # dict.  Every symbol occurs, and repeated blocks make the
        # automaton clone.
        rng = np.random.default_rng(sigma)
        block = rng.integers(0, sigma, 40).tolist()
        seq = rng.permutation(sigma).tolist() + block + rng.integers(0, sigma, 300).tolist() + block * 3
        assert len(set(seq)) == sigma
        assert lz_parse_fast(seq).lambdas == lz_parse(seq).lambdas

    def test_all_distinct_symbols_parse_in_bounded_memory(self):
        # sigma = n here, so a table of (2n + 1) * sigma slots would need
        # about 400 MB; the edges themselves number about 2n.
        tracemalloc.start()
        try:
            lams = lz_parse_fast(list(range(5000))).lambdas
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lams == (1,) * 5000
        assert peak < 32e6, f"peak {peak / 1e6:.0f} MB"

    @pytest.mark.parametrize(
        "seq",
        [
            "abab",
            "abracadabra",
            [-1, -2, -1, -2, -1, 0, -2],
            [10**12, 5, 10**12, 5, 10**12, 10**12],
            [0.5, 1.5, 0.5, 0.5, 1.5, 0.5, 2.25],
            list(np.array([3, 7, 3, 7, 3, 9], dtype=np.int64)),
        ],
        ids=["str", "str-long", "negative", "1e12", "float", "numpy-int64"],
    )
    def test_agrees_with_reference_on_any_hashable_symbols(self, seq):
        assert lz_parse_fast(seq).lambdas == lz_parse(seq).lambdas

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            lz_parse_fast([])


class TestLzParseFastWorstCase:
    """Constant and periodic inputs have match lengths near n/2, so a
    parse that restarts its match at every position costs O(n^2) steps
    on them (about 300 s at n = 100,000).  The expected lambdas follow
    from the definition: at i the earliest past occurrence of the
    suffix's first symbol is at i mod p, which allows a match of length
    i - i mod p, capped by the n - i symbols left."""

    BUDGET_S = 5.0

    @pytest.mark.parametrize("period", [1, 8])
    def test_long_periodic_input_parses_in_linear_time(self, period):
        n = 100_000
        seq = list(range(period)) * (n // period)
        t0 = time.perf_counter()
        lams = lz_parse_fast(seq).lambdas
        elapsed = time.perf_counter() - t0
        expected = np.minimum(n - np.arange(n), np.arange(n) - np.arange(n) % period) + 1
        assert np.array_equal(lams, expected)
        assert elapsed < self.BUDGET_S, f"{elapsed:.1f}s for n={n}, period {period}"


def refine_uncapped(seq):
    """The class-refinement stage alone, with its round cap and work
    budget lifted so that it never hands over to the automaton."""
    n = len(seq)
    lams = entropy_module._refine(np.array(seq, dtype=np.int64), max(seq) + 1, n + 1, n * (n + 1))
    return tuple(lams.tolist())


def refine_cost(seq):
    """(rounds, work): the least round cap and the least work budget
    under which class refinement finishes on ``seq``."""
    arr, sigma, n = np.array(seq, dtype=np.int64), max(seq) + 1, len(seq)

    def least(finishes, hi):
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if finishes(mid) else (mid + 1, hi)
        return lo

    rounds = least(lambda r: entropy_module._refine(arr, sigma, r, n * (n + 1)) is not None, n + 1)
    work = least(lambda b: entropy_module._refine(arr, sigma, n + 1, b) is not None, n * (n + 1))
    return rounds, work


def ones_at_random(n, k):
    seq = np.zeros(n, dtype=np.int64)
    seq[np.random.default_rng(HOUSE_SEED).permutation(n)[:k]] = 1
    return seq.tolist()


def noise_with_repeat(length, n=2000):
    """i.i.d. uniform over 8 levels, with a copy of an early stretch of
    ``length`` symbols planted 500 symbols before the end."""
    seq = np.random.default_rng(HOUSE_SEED).integers(0, 8, n)
    seq[n - 500 : n - 500 + length] = seq[200 : 200 + length]
    return seq.tolist()


def quantized_band(samples, q=8):
    return quantize(PsdTrace(make_band(), samples), QuantizationConfig(q=q)).levels


@pytest.fixture
def stages(monkeypatch):
    """Records which parse stages lz_parse_fast runs, in order."""
    calls = []
    for name in ("_refine", "_automaton"):
        stage = getattr(entropy_module, name)

        def spy(*args, _name=name, _stage=stage):
            calls.append(_name)
            return _stage(*args)

        monkeypatch.setattr(entropy_module, name, spy)
    return calls


class TestLzParseFastRefinement:
    """lz_parse_fast settles match lengths by class refinement and hands
    low-entropy bands to the automaton: before any round when log2(n)
    over the symbol entropy exceeds 12, or once refinement passes 24
    rounds or 16 n positions of work."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=300))
    @example([0] * 50)
    @example([0, 1, 2, 3] * 30)
    @example([1, 0, 0, 1, 0, 0, 1, 0, 1])
    def test_refinement_alone_agrees_with_reference(self, seq):
        assert refine_uncapped(seq) == lz_parse(seq).lambdas

    @settings(max_examples=300, deadline=None)
    @given(low_entropy_sequences)
    def test_refinement_alone_agrees_with_reference_on_low_entropy_input(self, seq):
        assert refine_uncapped(seq) == lz_parse(seq).lambdas

    @pytest.mark.parametrize("seq", [pytest.param(seq, id=name) for name, seq in adversarial_sequences()])
    def test_refinement_alone_agrees_with_reference_on_adversarial_input(self, seq):
        assert refine_uncapped(seq) == lz_parse(seq).lambdas

    @pytest.mark.parametrize(
        "seq, expected",
        [
            pytest.param(ones_at_random(1024, 270), ["_automaton"], id="pre-check-H1-0.8322"),
            pytest.param(ones_at_random(1024, 271), ["_refine", "_automaton"], id="pre-check-H1-0.8337"),
            pytest.param(noise_with_repeat(23), ["_refine"], id="24-rounds"),
            pytest.param(noise_with_repeat(24), ["_refine", "_automaton"], id="25-rounds"),
            pytest.param([k % 4 for k in range(42)], ["_refine"], id="work-16n-minus-5"),
            pytest.param([k % 4 for k in range(43)], ["_refine", "_automaton"], id="work-16n-plus-5"),
        ],
    )
    def test_cases_either_side_of_each_limit_agree_with_reference(self, stages, seq, expected):
        assert lz_parse_fast(seq).lambdas == lz_parse(seq).lambdas
        assert stages == expected

    def test_limit_cases_sit_where_their_names_say(self):
        # The pre-check refines iff H1 * 24 > 2 log2(n) = 20 bits at n = 1024.
        for k, h1 in ((270, 0.8322), (271, 0.8337)):
            p = k / 1024
            assert -(p * math.log2(p) + (1 - p) * math.log2(1 - p)) == pytest.approx(h1, abs=1e-4)
        assert refine_cost(noise_with_repeat(23))[0] == 24
        assert refine_cost(noise_with_repeat(24))[0] == 25
        assert refine_cost([k % 4 for k in range(42)]) == (21, 16 * 42 - 5)
        assert refine_cost([k % 4 for k in range(43)]) == (21, 16 * 43 + 5)

    def test_noise_floor_band_needs_no_automaton(self, monkeypatch):
        # A week of 180 s slots of N(-100, 5) dBm at q = 8, the paper's
        # baseline band: refinement must finish on its own, or the
        # speed-up is gone.
        levels = quantized_band(np.random.default_rng(HOUSE_SEED).normal(-100.0, 5.0, 3360))

        def no_automaton(*args):
            raise AssertionError("the noise-floor band fell back to the automaton")

        monkeypatch.setattr(entropy_module, "_automaton", no_automaton)
        assert lz_parse_fast(levels).lambdas == lz_parse(levels).lambdas

    @pytest.mark.parametrize("shape", ["constant", "idle-with-spike", "beacon-period-12"])
    def test_low_entropy_bands_go_straight_to_the_automaton(self, stages, shape):
        n = 3360
        rng = np.random.default_rng(HOUSE_SEED)
        samples = np.full(n, -110.0) if shape == "constant" else rng.normal(-110.0, 0.5, n)
        if shape == "idle-with-spike":
            samples[n // 3] = -60.0
        elif shape == "beacon-period-12":
            samples[np.arange(n) % 12 < 2] = -70.0
        lz_parse_fast(quantized_band(samples))
        assert stages == ["_automaton"]

    def test_wide_alphabet_refines_in_bounded_memory(self, monkeypatch):
        # 4,000 symbols, 5 of each: a dense table of (label, symbol) pairs
        # would have about 4,000 x 4,000 slots, 128 MB of int64.
        seq = np.random.default_rng(HOUSE_SEED).permutation(np.repeat(np.arange(4000), 5)).tolist()

        def no_automaton(*args):
            raise AssertionError("the wide-alphabet input fell back to the automaton")

        monkeypatch.setattr(entropy_module, "_automaton", no_automaton)
        tracemalloc.start()
        try:
            lams = lz_parse_fast(seq).lambdas
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.0f} MB"
        assert lams == lz_parse(seq).lambdas


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200))
def test_parse_invariants(seq):
    lams = lz_parse_fast(seq).lambdas
    n = len(seq)
    assert lams[0] == 1
    assert all(1 <= lam <= n - i + 2 for i, lam in enumerate(lams, start=1))


class TestRandomEntropy:
    def test_eight_levels_is_three_bits(self):
        assert random_entropy(8) == 3.0

    def test_single_symbol_is_zero(self):
        assert random_entropy(1) == 0.0

    def test_non_power_of_two(self):
        assert random_entropy(7) == pytest.approx(2.807354922, abs=1e-9)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            random_entropy(0)


class TestShannonEntropy:
    def test_uniform_is_log2_q(self):
        assert shannon_entropy(LevelDistribution((0.125,) * 8)) == 3.0

    def test_point_mass_is_zero(self):
        assert shannon_entropy(LevelDistribution((0.0, 1.0, 0.0))) == 0.0

    def test_hand_summed_mixture(self):
        # 0.5*1 + 0.25*2 + 0.25*2
        assert shannon_entropy(LevelDistribution((0.5, 0.25, 0.25))) == 1.5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=12))
    def test_bounded_by_log2_q(self, counts):
        total = sum(counts)
        if total == 0:
            counts[0] = 1
            total = 1
        dist = LevelDistribution(tuple(c / total for c in counts))
        h = shannon_entropy(dist)
        assert 0.0 <= h <= math.log2(dist.q)


class TestLzEntropyEstimate:
    def test_formula_matches_reference_parse(self, rng):
        seq = rng.integers(0, 4, 500).tolist()
        n = len(seq)
        expected = n * math.log2(n) / sum(lz_parse(seq).lambdas)
        assert lz_entropy_estimate(seq) == expected

    def test_constant_sequence_near_zero(self):
        levels = [0] * 1000
        est = lz_entropy_estimate(levels)
        assert 0.0 < est < 0.05

    def test_too_short(self):
        with pytest.raises(SequenceTooShortError):
            lz_entropy_estimate([3])

    def test_never_negative(self, rng):
        for n in (2, 3, 10, 101):
            seq = rng.integers(0, 3, n).tolist()
            assert lz_entropy_estimate(seq) >= 0.0


class TestBlockEntropyRate:
    def test_k1_equals_shannon_of_level_distribution(self, rng):
        qt = _qt(rng.integers(0, 6, 400).tolist(), 6)
        assert block_entropy_rate(qt.levels, 1) == pytest.approx(
            shannon_entropy(level_distribution(qt)), abs=1e-12
        )

    def test_period_two_hand_count(self):
        # odd length makes the two windows "01" and "10" exactly equally
        # frequent (500 each over 1000 overlapping windows) -> H_2/2 = 0.5
        seq = [0, 1] * 500 + [0]
        assert block_entropy_rate(seq, 2) == pytest.approx(0.5, abs=1e-12)

    def test_period_two_even_length_hand_count(self):
        # even length leaves 500 "01" vs 499 "10"; pin the exact hand value
        seq = [0, 1] * 500
        p = np.array([500 / 999, 499 / 999])
        expected = float(-(p * np.log2(p)).sum()) / 2
        assert block_entropy_rate(seq, 2) == pytest.approx(expected, abs=1e-12)

    def test_iid_binary_block4(self):
        qt = gen_iid_uniform(2, 100_000, seed=0)
        assert block_entropy_rate(qt.levels, 4) == pytest.approx(1.0, abs=0.05)

    def test_non_increasing_in_k_for_synthetic_sources(self):
        iid = gen_iid_uniform(4, 50_000, seed=1).levels
        markov = gen_markov(binary_symmetric_spec(0.2, seed=1), 50_000).levels
        for levels in (iid, markov):
            rates = [block_entropy_rate(levels, k) for k in (1, 2, 3, 4)]
            for a, b in zip(rates, rates[1:]):
                assert b <= a + 0.02

    def test_window_longer_than_sequence(self):
        with pytest.raises(BlockTooLongError):
            block_entropy_rate([0, 1], 3)

    def test_wide_window_falls_back_to_exact_counting(self):
        # 100 distinct symbols with k=10 overflows base**k, forcing the
        # tuple-counting path; all windows distinct -> H_k = log2(m)
        seq = list(range(100))
        assert block_entropy_rate(seq, 10) == pytest.approx(math.log2(91) / 10, abs=1e-12)

    @pytest.mark.parametrize("q, k", [(2, 62), (2, 63), (2, 130), (3, 80), (7, 30)])
    def test_wide_window_matches_tuple_count(self, rng, q, k):
        # windows of one, two and three int64 codes, each boundary included
        seq = rng.integers(0, q, 3000).tolist()
        m = len(seq) - k + 1
        p = np.array(list(Counter(tuple(seq[i : i + k]) for i in range(m)).values())) / m
        assert block_entropy_rate(seq, k) == pytest.approx(float(-(p * np.log2(p)).sum()) / k, abs=1e-12)

    def test_wide_window_memory_bound(self, rng):
        # binary k=64 windows take two codes each; a copy of every window would be 64 x 8 B per window
        seq = rng.integers(0, 2, 50_000).tolist()
        tracemalloc.start()
        try:
            block_entropy_rate(seq, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * len(seq)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            block_entropy_rate([], 1)


class TestEntropyReport:
    def test_constant_trace(self):
        rep = entropy_report(_qt([0] * 2000, 8))
        assert rep.e_rand == 3.0
        assert rep.e_unc == 0.0
        assert rep.e_actual < 0.05

    def test_periodic_cycle(self):
        rep = entropy_report(gen_periodic(range(8), 1000))
        assert rep.e_rand == 3.0
        assert rep.e_unc == 3.0  # equal counts, exactly
        assert rep.e_actual < 0.1

    def test_iid_uniform_shannon_near_three_bits(self):
        rep = entropy_report(gen_iid_uniform(8, 100_000, seed=0))
        assert rep.e_rand == 3.0
        assert rep.e_unc == pytest.approx(3.0, abs=0.001)
        assert rep.n == 100_000

    def test_short_trace_propagates(self):
        with pytest.raises(SequenceTooShortError):
            entropy_report(_qt([0], 8))
