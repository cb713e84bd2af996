"""The three entropy measures over quantized level sequences.

``random_entropy`` and ``shannon_entropy`` ignore temporal order; the
match-length estimator (``lz_parse``, ``lz_parse_fast``,
``lz_entropy_estimate``) captures it.  ``lz_parse`` is the deliberately
naive quadratic reference and ``lz_parse_fast`` must return bit-identical
output, so the whole correctness burden sits on the simple code and the
fast path is validated purely by differential testing.

``lz_parse_fast`` has two stages.  Class refinement settles the match
lengths of noisy bands in a few rounds of numpy work.  Bands whose
symbol entropy is too low for it to pay (constant, idle, beacon), and
bands on which it overruns its round cap or its work budget of a fixed
multiple of n (long periodic stretches), go to a suffix automaton on
integer states and flat lists, with a dict in place of the flat table
for large alphabets.  Both stages are O(n) in time and memory on every
input and alphabet, apart from a sort of the labels when refinement
meets a wide alphabet.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockTooLongError,
    EmptySequenceError,
    EmptyTraceError,
    SequenceTooShortError,
)
from .quantize import level_distribution
from .trace import EntropyReport, LevelDistribution, QuantizedTrace


@dataclass(frozen=True)
class LzParse:
    """Per-position match-length statistics of a level sequence.

    ``lambdas[i]`` is one more than the length of the longest prefix of
    the suffix starting at position i that occurs as a contiguous run
    fully inside the strict past (positions before i).  Equivalently it
    is the length of the shortest string starting at i never seen before,
    read as "whole suffix plus one" when even the full suffix occurred.
    """

    lambdas: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.lambdas)
        if n == 0:
            raise ValueError("parse of an empty sequence is undefined")
        arr = np.asarray(self.lambdas, dtype=np.int64)
        if self.lambdas[0] != 1:
            raise ValueError("first match length must be 1 (empty past)")
        if (arr < 1).any() or (arr + np.arange(n) > n + 1).any():
            raise ValueError("match lengths violate their positional bounds")

    def total(self) -> int:
        return int(sum(self.lambdas))


def _symbol_ids(levels) -> list[int]:
    # Match lengths depend only on the equality structure, so any symbols
    # can be relabeled by first occurrence.
    ids: dict = {}
    return [ids.setdefault(v, len(ids)) for v in levels]


def lz_parse(levels) -> LzParse:
    """Reference match-length parse (quadratic; prefer lz_parse_fast for
    long traces).

    For each position the candidate prefix is grown one symbol at a time
    and searched for in the strict past, which is as close to the
    definition as code gets.  The search runs on a string with one
    character per relabelled symbol, so ids must stay below 0x110000.
    """
    seq = _symbol_ids(levels)
    n = len(seq)
    if n == 0:
        raise EmptySequenceError("cannot parse an empty sequence")

    text = "".join(map(chr, seq))
    lambdas = []
    for i in range(n):
        past = text[:i]
        length = 0
        while i + length < n and past.find(text[i : i + length + 1]) != -1:
            length += 1
        lambdas.append(length + 1)
    return LzParse(tuple(lambdas))


_FLAT_MAX_SIGMA = 16
# Class refinement hands a band to the automaton past this many rounds,
# or once its working sets sum to more than _REFINE_WORK * n positions.
_REFINE_MAX_ROUNDS = 24
_REFINE_WORK = 16
_TABLE_PER_POSITION = 4


def lz_parse_fast(levels) -> LzParse:
    """Match-length parse in two stages, bit-identical to ``lz_parse``.

    The first stage, ``_refine``, settles every lambda in numpy rounds,
    one symbol of match length per round.  It is skipped when log2(n)
    over the symbol entropy H1 exceeds half of ``_REFINE_MAX_ROUNDS``,
    as on constant, idle and beacon bands, whose matches run long; it
    gives up after ``_REFINE_MAX_ROUNDS`` rounds, or once its working
    sets sum to more than ``_REFINE_WORK * n`` positions, as on periodic
    stretches.  Then the second stage, the suffix automaton
    ``_automaton``, parses the whole band.  Each stage does O(n) work and
    holds O(n) memory on every input and alphabet, so the parse does too
    (refinement sorts its labels, O(n log n), only on wide alphabets).
    """
    seq = _symbol_ids(levels)
    n = len(seq)
    if n == 0:
        raise EmptySequenceError("cannot parse an empty sequence")

    arr = np.fromiter(seq, dtype=np.int64, count=n)
    counts = np.bincount(arr).tolist()
    h1 = math.log2(n) - sum(c * math.log2(c) for c in counts) / n  # bits per symbol
    if h1 * _REFINE_MAX_ROUNDS > 2 * math.log2(n):
        lambdas = _refine(arr, len(counts), _REFINE_MAX_ROUNDS, _REFINE_WORK * n)
        if lambdas is not None:
            return LzParse(tuple(lambdas.tolist()))
    return LzParse(tuple(_automaton(seq, len(counts))))


def _refine(arr: np.ndarray, sigma: int, max_rounds: int, budget: int) -> np.ndarray | None:
    """Match lengths of ``arr`` (symbols 0..sigma-1) by class refinement,
    or None past ``max_rounds`` rounds or ``budget`` positions of work.

    This is Karp, Miller & Rosenberg's renaming, one symbol per round,
    applied to the longest previous non-overlapping factor (Crochemore &
    Tischler, IPL 111, 2011).  Round l labels the length-l factor at each
    working position.  Position i has a past match of length l iff the
    first position f with its label has f + l <= i.  A position whose
    match fails settles at lambda = l, and one whose factor reaches the
    end settles at n - i + 1.  A label keeps all its positions in the
    working set while some position passed with it, since only a passing
    position needs a witness in the next round; every other position
    leaves.  Labels index a dense table of first positions while
    (label, symbol) pairs number at most ``_TABLE_PER_POSITION`` per
    working position; past that, ``np.unique`` relabels the pairs.
    """
    n = len(arr)
    lambdas = np.empty(n, dtype=np.int64)
    pos = np.arange(n)
    key = arr
    nkeys = sigma
    alive = np.ones(n, dtype=bool)  # matched its first l - 1 symbols
    work = 0
    for length in range(1, max_rounds + 1):
        work += len(pos)
        if work > budget:
            return None
        first = np.full(nkeys, n)
        np.minimum.at(first, key, pos)
        passed = first[key] + length <= pos
        lambdas[pos[alive & ~passed]] = length
        passed &= alive
        if not passed.any():
            return lambdas
        kept = np.zeros(nkeys, dtype=bool)
        kept[key[passed]] = True
        keep = kept[key]
        labels = np.cumsum(kept) - 1
        pos, alive, key = pos[keep], passed[keep], labels[key[keep]]
        if pos[-1] + length == n:  # the last position's factor cannot grow
            if alive[-1]:
                lambdas[pos[-1]] = length + 1
            pos, alive, key = pos[:-1], alive[:-1], key[:-1]
        key = key * sigma + arr[pos + length]
        nkeys = (int(labels[-1]) + 1) * sigma
        if nkeys > _TABLE_PER_POSITION * len(pos):
            pairs, key = np.unique(key, return_inverse=True)
            nkeys = len(pairs)
    return None


def _automaton(seq: list[int], sigma: int) -> list[int]:
    """Match lengths of ``seq`` (symbols 0..sigma-1) via an online suffix
    automaton on integer states.

    At position i the automaton indexes exactly the factors of the strict
    past, so the longest past match is a walk along the suffix;
    afterwards the automaton is extended by one symbol.  The match is
    carried across positions, as in matching statistics:
    lambda_{i+1} >= lambda_i - 1, so the walk resumes where it stopped
    once one suffix link has dropped the match's first symbol, and every
    input costs O(n) amortised steps.

    States index the lists ``link`` and ``max_len``, and the edge of
    state s on symbol c is ``nxt[s * sigma + c]``, 0 when absent, since
    no edge enters the root.  Up to ``_FLAT_MAX_SIGMA`` symbols ``nxt`` is a flat list of
    (2n + 1) * sigma slots and a clone copies one sigma-slice.  Past that
    the list would need more memory than a dict of the edges, so ``nxt``
    is a dict and ``symbols`` lists each state's edges for its clones.
    """
    n = len(seq)
    flat = sigma <= _FLAT_MAX_SIGMA
    nxt = [0] * ((2 * n + 1) * sigma) if flat else defaultdict(int)
    symbols = defaultdict(list)
    link = [-1]
    max_len = [0]
    last = 0
    lambdas = [0] * n
    # (node, length): the state reached by the current match seq[i:i+length]
    node = 0
    length = 0
    for i in range(n):
        while i + length < n:
            t = nxt[node * sigma + seq[i + length]]
            if not t:
                break
            node = t
            length += 1
        lambdas[i] = length + 1

        c = seq[i]
        cur = len(max_len)
        max_len.append(i + 1)
        link.append(0)
        p = last
        while p >= 0 and not nxt[p * sigma + c]:
            nxt[p * sigma + c] = cur
            if not flat:
                symbols[p].append(c)
            p = link[p]
        if p >= 0:
            q = nxt[p * sigma + c]
            if max_len[q] == max_len[p] + 1:
                link[cur] = q
            else:
                clone = len(max_len)
                max_len.append(max_len[p] + 1)
                link.append(link[q])
                if flat:
                    nxt[clone * sigma : clone * sigma + sigma] = nxt[q * sigma : q * sigma + sigma]
                else:
                    symbols[clone] = symbols[q][:]
                    for d in symbols[q]:
                        nxt[clone * sigma + d] = nxt[q * sigma + d]
                while p >= 0 and nxt[p * sigma + c] == q:
                    nxt[p * sigma + c] = clone
                    p = link[p]
                link[q] = link[cur] = clone
                # the match's state q may have lost its short strings to the clone
                if node == q and length <= max_len[clone]:
                    node = clone
        last = cur
        # drop the match's first symbol: what is left is a match at i+1
        if length:
            length -= 1
            if length <= max_len[link[node]]:
                node = link[node]
    return lambdas


def random_entropy(q: int) -> float:
    """Entropy in bits if all q levels were equiprobable and independent."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return math.log2(q)


def shannon_entropy(dist: LevelDistribution) -> float:
    """Entropy in bits of a level distribution, with 0*log(0) read as 0."""
    p = np.asarray(dist.probabilities, dtype=np.float64)
    nz = p[p > 0]
    h = float(-(nz * np.log2(nz)).sum())
    # A uniform distribution can land a few ulp past log2(q); the true
    # value never does, so cap it rather than leak an impossible report.
    return min(h, math.log2(dist.q))


def lz_entropy_estimate(levels) -> float:
    """Entropy-rate estimate in bits per symbol from match lengths.

    Converges to the source entropy rate for long stationary ergodic
    sequences, but undershoots at finite n: the mean match length carries
    an O(1) additive term against a log(n) signal, so the bias shrinks
    only like 1/log(n) (about -0.153 bits on i.i.d. uniform q=8 input at
    n=1e5).  On short noisy traces it can exceed log2(q), which
    downstream clamps.
    """
    n = len(levels)
    if n < 2:
        raise SequenceTooShortError(f"need at least 2 symbols, got {n}")
    return n * math.log2(n) / lz_parse_fast(levels).total()


def block_entropy_rate(levels, k: int) -> float:
    """Entropy of overlapping length-k windows divided by k (bits/symbol).

    A plug-in cross-check for the match-length estimator at small k;
    meaningful only while the window alphabet stays well below n.  k=1
    reproduces the Shannon entropy of the level distribution.
    """
    n = len(levels)
    if n == 0:
        raise EmptySequenceError("cannot compute block entropy of an empty sequence")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise BlockTooLongError(f"window length {k} exceeds sequence length {n}")

    arr = np.asarray(_symbol_ids(levels), dtype=np.int64)
    base = int(arr.max()) + 1
    m = n - k + 1
    if base == 1:
        return 0.0
    width = int(62 // math.log2(base))  # symbols one int64 code holds: base**width <= 2**62
    codes = np.zeros((-(-k // width), m), dtype=np.int64)  # one row of codes per width symbols of a window
    for j in range(k):
        codes[j // width] *= base
        codes[j // width] += arr[j : j + m]
    if len(codes) == 1:
        _, counts = np.unique(codes[0], return_counts=True)
    else:  # count the distinct code tuples, m x len(codes) int64s
        _, counts = np.unique(codes.T, axis=0, return_counts=True)
    p = counts / m
    return float(-(p * np.log2(p)).sum()) / k


def entropy_report(qt: QuantizedTrace) -> EntropyReport:
    """Bundle the random, Shannon and estimated actual entropies."""
    n = len(qt.levels)
    if n == 0:
        raise EmptyTraceError("cannot analyze an empty trace")
    return EntropyReport(
        e_rand=random_entropy(qt.q),
        e_unc=shannon_entropy(level_distribution(qt)),
        e_actual=lz_entropy_estimate(qt.levels),
        n=n,
        q=qt.q,
    )
