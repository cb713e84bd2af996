"""The three entropy measures over quantized level sequences.

``random_entropy`` and ``shannon_entropy`` ignore temporal order; the
match-length estimator (``lz_parse``, ``lz_parse_fast``,
``lz_entropy_estimate``) captures it.  ``lz_parse`` is the deliberately
naive quadratic reference and ``lz_parse_fast`` must return bit-identical
output, so the whole correctness burden sits on the simple code and the
fast path is validated purely by differential testing.

``lz_parse_fast`` has three stages: a parse per run for bands of few
runs, class refinement in numpy rounds within a work budget of a fixed
multiple of n positions, and a suffix automaton on integer states for
the rest.  Each is O(n) in time and memory.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np

from .errors import EmptySequenceError, SequenceTooShortError
from .quantize import level_distribution
from .trace import EntropyReport, LevelDistribution, QuantizedTrace, _value_type


@_value_type
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
        arr = np.asarray(self.lambdas, dtype=np.int64)
        n = len(arr)
        if n == 0 or arr[0] != 1:
            raise ValueError("a parse starts with match length 1 (empty past)")
        if (arr < 1).any() or (arr + np.arange(n) > n + 1).any():
            raise ValueError("match lengths violate their positional bounds")
        object.__setattr__(self, "lambdas", tuple(arr.tolist()))

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
    return LzParse(lambdas)


_FLAT_MAX_SIGMA = 16
_MAX_RUNS = 32
_PRECHECK_ROUNDS = 12
_REFINE_WORK = 16
_TABLE_PER_POSITION = 4


def lz_parse_fast(levels) -> LzParse:
    """Match-length parse in three stages, bit-identical to ``lz_parse``.

    Each stage returns the lambdas as an int64 array or declines the band
    with None.  ``_runs`` parses a band of at most ``_MAX_RUNS`` runs, as
    constant and idle bands are.  ``_refine`` settles every lambda in
    numpy rounds, one symbol of match length per round.  It is skipped
    when log2(n) over the symbol entropy H1 exceeds ``_PRECHECK_ROUNDS``,
    as on beacon bands, whose matches run long; it gives up once its
    working sets sum to more than ``_REFINE_WORK * n`` positions, as on
    periodic stretches.  Then the suffix automaton ``_automaton`` parses
    the band.  Each stage does O(n) work and holds O(n) memory on every
    input and alphabet (refinement sorts its labels, O(n log n), only on
    wide alphabets).
    """
    seq = _symbol_ids(levels)
    n = len(seq)
    if n == 0:
        raise EmptySequenceError("cannot parse an empty sequence")

    arr = np.fromiter(seq, dtype=np.int64, count=n)
    counts = np.bincount(arr).tolist()
    sigma = len(counts)
    h1 = math.log2(n) - sum(c * math.log2(c) for c in counts) / n  # bits per symbol
    lambdas = _runs(arr, sigma)
    if lambdas is None and h1 * _PRECHECK_ROUNDS > math.log2(n):
        lambdas = _refine(arr, sigma, _REFINE_WORK * n)
    return LzParse(_automaton(seq, sigma) if lambdas is None else lambdas)


def _runs(arr: np.ndarray, sigma: int) -> np.ndarray | None:
    """Match lengths of ``arr`` (symbols 0..sigma-1) from its r runs, or
    None when r > ``_MAX_RUNS``, in O(r^2 + r n) steps (Policriti & Prezza,
    DCC 2016).  At offset o of run t (symbol c, start s_t, length l_t) the
    tail is T = l_t - o.  A match of c alone is min(T, max(o, the longest
    earlier run of c)).  A longer one starts T before the end of an
    earlier run u of c with l_u >= T and runs on for E(u + 1, t + 1)
    symbols, the common prefix of the suffixes at those runs' starts,
    clipped to s_{t+1} - s_{u+1} to end before the position.
    """
    change = arr[1:] != arr[:-1]
    if np.count_nonzero(change) + 1 > _MAX_RUNS:
        return None
    starts = [0, *(np.flatnonzero(change) + 1).tolist(), len(arr)]
    sym, lens = arr[starts[:-1]].tolist(), np.diff(starts).tolist()
    r = len(sym)
    # E(a, b), a < b - 1: the lengths of equal runs, then the shorter of a pair of one symbol
    ext = [[0] * (r + 1) for _ in range(r + 1)]
    for a in range(r - 3, -1, -1):
        for b in range(a + 2, r):
            if sym[a] == sym[b]:
                ext[a][b] = lens[a] + ext[a + 1][b + 1] if lens[a] == lens[b] else min(lens[a], lens[b])
    lambdas = np.empty(len(arr), dtype=np.int64)
    longest = [0] * sigma  # the longest run of each symbol so far
    for t, (c, length, s) in enumerate(zip(sym, lens, starts)):
        tail = np.arange(length, 0, -1)
        best = np.minimum(tail, np.maximum(length - tail, longest[c]))
        for u in range(t - 1):
            e = ext[u + 1][t + 1]  # 0 after the last run
            if e and sym[u] == c:  # else the match is c alone, covered above
                k = min(lens[u], length)  # the offsets with T <= l_u
                reach = np.minimum(tail[-k:] + e, starts[t + 1] - starts[u + 1])
                np.maximum(best[-k:], reach, out=best[-k:])
        lambdas[s : s + length] = best + 1
        longest[c] = max(longest[c], length)
    return lambdas


def _refine(arr: np.ndarray, sigma: int, budget: int) -> np.ndarray | None:
    """Match lengths of ``arr`` (symbols 0..sigma-1) by class refinement,
    or None once its working sets sum to more than ``budget`` positions.

    This is Karp, Miller & Rosenberg's renaming, one symbol per round,
    applied to the longest previous non-overlapping factor (Crochemore &
    Tischler, IPL 111, 2011).  Round l labels the length-l factor at each
    working position.  Position i has a past match of length l iff the
    first position f with its label has f + l <= i.  A position whose
    match fails settles at lambda = l, and one whose factor reaches the
    end settles at n - i + 1.  A label keeps all its positions in the
    working set while some position passed with it, since only a passing
    position needs a witness in the next round; every other position
    leaves.  A position alive at round R keeps R - l + 1 positions alive
    at each round l, since lambda_{i+1} >= lambda_i - 1, so the budget
    alone bounds the rounds by sqrt(2 * budget).  Labels index a dense
    table of first positions while (label, symbol) pairs number at most
    ``_TABLE_PER_POSITION`` per working position; past that,
    ``np.unique`` relabels the pairs.
    """
    n = len(arr)
    lambdas = np.empty(n, dtype=np.int64)
    pos = np.arange(n)
    key = arr
    nkeys = sigma
    alive = np.ones(n, dtype=bool)  # matched its first l - 1 symbols
    work = 0
    for length in itertools.count(1):
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


def _automaton(seq: list[int], sigma: int) -> np.ndarray:
    """Match lengths of ``seq`` (symbols 0..sigma-1) via an online suffix
    automaton on integer states.

    At position i the automaton indexes exactly the factors of the strict
    past, so the longest past match is a walk along the suffix;
    afterwards the automaton is extended by one symbol.  The match is
    carried across positions, as in matching statistics:
    lambda_{i+1} >= lambda_i - 1, so the walk resumes where it stopped
    once one suffix link has dropped the match's first symbol, and every
    input costs O(n) amortised steps.

    States index the lists ``link`` and ``max_len``, allocated once at
    the 2n + 1 states the automaton can reach, and the edge of state s on
    symbol c is ``nxt[s * sigma + c]``, 0 when absent, since no edge
    enters the root.  Up to ``_FLAT_MAX_SIGMA`` symbols ``nxt`` is a flat list of
    (2n + 1) * sigma slots and a clone copies one sigma-slice.  Past that
    the list would need more memory than a dict of the edges, so ``nxt``
    is a dict and ``symbols`` lists each state's edges for its clones.
    """
    n = len(seq)
    flat = sigma <= _FLAT_MAX_SIGMA
    nxt = [0] * ((2 * n + 1) * sigma) if flat else defaultdict(int)
    symbols = defaultdict(list)
    link = [0] * (2 * n + 1)
    link[0] = -1
    max_len = [0] * (2 * n + 1)
    size = 1  # states in use
    last = 0
    lambdas = [0] * n  # a list, whose item stores cost less than an array's
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
        cur = size
        size += 1
        max_len[cur] = i + 1  # link[cur] stays 0, the root, unless set below
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
                clone = size
                size += 1
                max_len[clone] = max_len[p] + 1
                link[clone] = link[q]
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
    return np.fromiter(lambdas, dtype=np.int64, count=n)


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


def entropy_report(qt: QuantizedTrace) -> EntropyReport:
    """Bundle the random, Shannon and estimated actual entropies."""
    return EntropyReport(
        e_rand=random_entropy(qt.q),
        e_unc=shannon_entropy(level_distribution(qt)),
        e_actual=lz_entropy_estimate(qt.levels),
        n=len(qt.levels),
        q=qt.q,
    )
