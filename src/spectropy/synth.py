"""Synthetic sources with analytically known entropy rates.

These exist to validate the estimator: i.i.d. uniform sequences converge
to log2(q) bits, Markov chains to the stationary-weighted row entropy,
and periodic patterns to zero.  All generators draw from numpy's PCG64
via ``default_rng(seed)``, so identical (spec, seed, n) always reproduce
identical output; independent streams should use distinct seeds.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right

import numpy as np

from .errors import ConfigError, InvalidStochasticMatrixError, NonFiniteSampleError, NotIrreducibleError
from .ingest import json_constant, json_value
from .trace import BandMetadata, PsdTrace, QuantizedTrace, _value_type

_STOCHASTIC_TOL = 1e-12
_STATIONARY_TOL = 1e-10


def _default_band(label: str) -> BandMetadata:
    return BandMetadata(center_freq_hz=1e9, label=label)


@_value_type
class MarkovSpec:
    """Transition matrix, initial distribution and seed of a finite chain."""

    transition: tuple[tuple[float, ...], ...]
    initial: tuple[float, ...]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "transition", tuple(tuple(float(x) for x in row) for row in self.transition)
        )
        object.__setattr__(self, "initial", tuple(float(x) for x in self.initial))
        p = np.asarray(self.transition, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
            raise InvalidStochasticMatrixError("transition matrix must be square and non-empty")
        if not (p >= 0).all():  # each check is written so that NaN fails it
            raise InvalidStochasticMatrixError("transition probabilities must be non-negative")
        if not (np.abs(p.sum(axis=1) - 1.0) <= _STOCHASTIC_TOL).all():
            raise InvalidStochasticMatrixError("every transition row must sum to 1")
        init = np.asarray(self.initial, dtype=np.float64)
        if init.shape != (p.shape[0],):
            raise InvalidStochasticMatrixError("initial distribution length must match the matrix")
        if not ((init >= 0).all() and abs(float(init.sum()) - 1.0) <= _STOCHASTIC_TOL):
            raise InvalidStochasticMatrixError("initial distribution must be a probability vector")

    @property
    def q(self) -> int:
        return len(self.initial)


def markov_spec_from_json(path) -> MarkovSpec:
    """Read a MarkovSpec from a JSON file with keys matrix, initial, seed."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh, parse_constant=json_constant)
        return MarkovSpec(
            transition=tuple(tuple(json_value(x, "number", "matrix entry") for x in row) for row in d["matrix"]),
            initial=tuple(json_value(x, "number", "initial entry") for x in d["initial"]),
            seed=json_value(d["seed"], "integer", "seed"),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: Markov spec has no {exc} key") from None
    except (TypeError, ValueError, OverflowError) as exc:  # ValueError: also invalid JSON, not UTF-8
        raise ConfigError(f"{path}: malformed Markov spec ({exc})") from None


def binary_symmetric_spec(flip_prob: float, seed: int) -> MarkovSpec:
    """Two-state chain that flips with the given probability each step."""
    if not 0.0 <= flip_prob <= 1.0:
        raise InvalidStochasticMatrixError(f"flip probability {flip_prob} outside [0, 1]")
    stay = 1.0 - flip_prob
    return MarkovSpec(
        transition=((stay, flip_prob), (flip_prob, stay)),
        initial=(0.5, 0.5),
        seed=seed,
    )


def gen_iid_uniform(q: int, n: int, seed: int) -> QuantizedTrace:
    """n i.i.d. draws uniform on {0..q-1}; entropy rate log2(q)."""
    if q < 1 or n < 1:
        raise ValueError("q and n must be >= 1")
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, q, size=n)
    return QuantizedTrace(_default_band(f"iid-uniform(q={q},seed={seed})"), levels, q)


def gen_markov(spec: MarkovSpec, n: int) -> QuantizedTrace:
    """Sample n steps of the chain, first state from the initial law."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(spec.seed)
    cum_rows = np.cumsum(np.asarray(spec.transition, dtype=np.float64), axis=1).tolist()
    cum_init = np.cumsum(np.asarray(spec.initial, dtype=np.float64)).tolist()
    u = rng.random(n).tolist()
    q = spec.q
    state = min(bisect_right(cum_init, u[0]), q - 1)
    levels = [state]
    for x in u[1:]:
        state = min(bisect_right(cum_rows[state], x), q - 1)
        levels.append(state)
    return QuantizedTrace(_default_band(f"markov(q={q},seed={spec.seed})"), levels, q)


def stationary_distribution(spec: MarkovSpec) -> np.ndarray:
    """Unique stationary distribution of the chain, or NotIrreducible.

    Solves pi P = pi with the normalization sum(pi)=1 by a direct linear
    least-squares solve; uniqueness requires rank(P - I) = q - 1, checked
    through the singular values of P^T - I.
    """
    p = np.asarray(spec.transition, dtype=np.float64)
    q = p.shape[0]
    if q == 1:
        return np.ones(1)
    a = p.T - np.eye(q)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-2] <= _STATIONARY_TOL:
        raise NotIrreducibleError("chain has no unique stationary distribution")
    system = np.vstack([a, np.ones((1, q))])
    rhs = np.zeros(q + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def markov_entropy_rate(spec: MarkovSpec) -> float:
    """Entropy rate in bits/symbol: stationary-weighted row entropies."""
    p = np.asarray(spec.transition, dtype=np.float64)
    pi = stationary_distribution(spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return float(-(pi @ plogp.sum(axis=1)))


def _gaussian_samples(n: int, mean_dbm: float, sigma_db: float, seed: int) -> np.ndarray:
    """n i.i.d. N(mean_dbm, sigma_db^2) draws as a float64 array, all of them finite.

    Every fault is one of the parameters: a ValueError, whose ``__cause__`` is a
    NonFiniteSampleError when a draw overflows the float range.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(mean_dbm) and math.isfinite(sigma_db) and sigma_db > 0):
        raise ValueError(f"need a finite mean_dbm and a positive finite sigma_db, got {mean_dbm}, {sigma_db}")
    samples = np.random.default_rng(seed).normal(mean_dbm, sigma_db, size=n)
    finite = np.isfinite(samples)
    if not finite.all():
        index = int(np.argmin(finite))
        cause = NonFiniteSampleError(index, float(samples[index]))
        raise ValueError(f"mean_dbm {mean_dbm} and sigma_db {sigma_db} draw a {cause}") from cause
    return samples


def gen_gaussian_psd(
    n: int,
    mean_dbm: float = -100.0,
    sigma_db: float = 5.0,
    seed: int = 0,
) -> PsdTrace:
    """n i.i.d. normal PSD samples as a trace (the noise-floor baseline)."""
    band = _default_band(f"gaussian(mean={mean_dbm},sigma={sigma_db},seed={seed})")
    return PsdTrace(band=band, samples=_gaussian_samples(n, mean_dbm, sigma_db, seed))


def gen_periodic(pattern, repeats: int) -> QuantizedTrace:
    """The pattern repeated ``repeats`` times over q = max(pattern) + 1 levels; entropy rate zero."""
    pattern = tuple(int(v) for v in pattern)
    if not pattern:
        raise ValueError("pattern must be non-empty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if min(pattern) < 0:
        raise ValueError("pattern levels must be non-negative")
    return QuantizedTrace(_default_band(f"periodic(p={len(pattern)})"), pattern * repeats, max(pattern) + 1)
