"""Fano-bound inversion: from entropy rate to maximum predictability.

For a band evolving over q levels with entropy rate e, the probability
that any predictor names the next level correctly is bounded by the
unique pi in [1/q, 1] solving

    e = H_b(pi) + (1 - pi) * log2(q - 1)

where H_b is the binary entropy.  The right-hand side is continuous and
strictly decreasing in pi on that interval, so bisection inverts it
unconditionally.
"""

from __future__ import annotations

import math

from .errors import DomainError, EmptyInputError
from .trace import PredictabilityReport, QuantizedTrace, _value_type

BISECTION_TOL = 1e-10


@_value_type
class CdfReport:
    """Empirical CDF of per-band predictability bounds for one service."""

    points: tuple[tuple[float, float], ...]
    service: str
    q: int

    def __post_init__(self) -> None:
        pis = [p for p, _ in self.points]
        fracs = [f for _, f in self.points]
        if not self.points:
            raise ValueError("a CDF needs at least one point")
        if any(b < a for a, b in zip(pis, pis[1:])):
            raise ValueError("pi_max values must be non-decreasing")
        if any(b < a for a, b in zip(fracs, fracs[1:])) or fracs[-1] != 1.0:
            raise ValueError("cumulative fractions must be non-decreasing and end at 1")


def fano_rhs(pi: float, q: int) -> float:
    """Entropy value whose Fano inversion equals ``pi``, in bits."""
    if q < 2:
        raise DomainError(f"Fano bound needs q >= 2, got {q}")
    if not 1.0 / q <= pi <= 1.0:
        raise DomainError(f"pi={pi} outside [1/{q}, 1]")
    h = 0.0
    if 0.0 < pi < 1.0:
        h = -(pi * math.log2(pi) + (1.0 - pi) * math.log2(1.0 - pi))
    return h + (1.0 - pi) * math.log2(q - 1)


def max_predictability(e_actual: float, q: int) -> PredictabilityReport:
    """Invert the Fano bound, clamping out-of-range entropies.

    Clamping (rather than erroring) keeps batch runs total: the
    match-length estimator can slightly exceed log2(q) on short or noisy
    traces, and such inputs simply pin pi_max at 1/q with the ``clamped``
    flag set.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if not math.isfinite(e_actual):
        raise DomainError(f"entropy must be finite, got {e_actual}")
    cap = math.log2(q)
    if e_actual <= 0.0:
        return PredictabilityReport(1.0, 0.0, e_actual < 0.0, 0, q)
    if e_actual >= cap:
        return PredictabilityReport(1.0 / q, cap, e_actual > cap, 0, q)

    lo, hi = 1.0 / q, 1.0
    iterations = 0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if fano_rhs(mid, q) > e_actual:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return PredictabilityReport(0.5 * (lo + hi), e_actual, False, iterations, q)


def band_predictability(qt: QuantizedTrace) -> PredictabilityReport:
    """Predictability bound of one band from its level sequence."""
    from .entropy import lz_entropy_estimate

    return max_predictability(lz_entropy_estimate(qt.levels), qt.q)


def predictability_cdf(reports: list[PredictabilityReport], service: str) -> CdfReport:
    """Empirical CDF over the pi_max values of a service's bands."""
    if not reports:
        raise EmptyInputError(f"no predictability reports for service {service!r}")
    qs = {r.q for r in reports}
    if len(qs) > 1:
        raise ValueError(f"mixed alphabet sizes in one CDF: {sorted(qs)}")
    n = len(reports)
    pis = sorted(r.pi_max for r in reports)
    points = tuple((pi, (k + 1) / n) for k, pi in enumerate(pis))
    return CdfReport(points=points, service=service, q=qs.pop())
