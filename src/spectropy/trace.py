"""Immutable value types shared by every analysis stage.

Every value type of the package, here and in the other modules, is a
plain class that ``_value_type`` gives what a frozen dataclass would: a
constructor over its annotated fields, read-only attributes, structural
equality and hashing, and a field-by-field repr.  The types hold plain
tuples, so instances are safe to share across threads, and each type
checks its invariants when it is built.  numpy is imported where a check
builds an array, and ``dataclasses`` (with the ``inspect`` it imports)
nowhere, so a command that only reads reports starts without either.
"""

from __future__ import annotations

import math
from operator import attrgetter

from .errors import EmptyTraceError, NonFiniteSampleError


def _value_type(cls=None, *, eq: bool = True):
    """Class decorator: ``cls`` as ``@dataclass(frozen=True, eq=eq)`` would make it.

    The fields are the class's annotations, in order; a class attribute of
    the same name is the field's default.  ``__init__`` takes them by
    position or keyword, stores them and calls ``__post_init__`` if the
    class has one, which may normalise a field with ``object.__setattr__``.
    Instances refuse attribute assignment and deletion, hold their fields
    and nothing else in ``vars()`` (so they pickle as a dataclass does),
    compare and hash by their fields when ``eq`` is set, and otherwise by
    identity.
    """
    if cls is None:
        return lambda c: _value_type(c, eq=eq)
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    key = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        fields = self.__dict__
        fields.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                fields[name] = kwargs[name]
            elif name in defaults:
                fields[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {cls.__name__}")

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    cls.__init__, cls.__setattr__, cls.__delattr__, cls.__repr__ = __init__, __setattr__, __delattr__, __repr__
    if eq:
        cls.__eq__, cls.__hash__ = __eq__, __hash__
    return cls


@_value_type
class BandMetadata:
    """Identity of one frequency band (nominally a 200 kHz channel)."""

    center_freq_hz: float
    label: str = ""
    service: str | None = None

    def __post_init__(self) -> None:
        if not self.center_freq_hz > 0:
            raise ValueError(f"center_freq_hz must be positive, got {self.center_freq_hz}")

    @property
    def center_freq_mhz(self) -> float:
        return self.center_freq_hz / 1e6


@_value_type
class PsdTrace:
    """Time-ordered PSD samples (dBm per channel bandwidth) for one band.

    A trace is never empty and holds only finite samples.
    """

    band: BandMetadata
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", tuple(arr.tolist()))
        if not self.samples:
            raise EmptyTraceError("trace has no samples")
        finite = np.isfinite(arr)
        if not finite.all():
            index = int(np.argmin(finite))
            raise NonFiniteSampleError(index, self.samples[index])

    def __len__(self) -> int:
        return len(self.samples)


@_value_type
class QuantizedTrace:
    """Integer level sequence over the alphabet {0, ..., q-1}.

    ``q`` is carried explicitly rather than inferred from ``max(levels)``
    so an all-constant trace keeps its intended alphabet size.
    """

    band: BandMetadata
    levels: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.asarray(self.levels)
        if arr.dtype.kind == "f" and not (np.isfinite(arr) & (arr == np.trunc(arr))).all():
            raise ValueError("levels must be integers")
        arr = arr.astype(np.int64, copy=False)
        object.__setattr__(self, "levels", tuple(arr.tolist()))
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if arr.size and (arr.min() < 0 or arr.max() > self.q - 1):
            raise ValueError(f"levels must lie in [0, {self.q - 1}]")


@_value_type
class LevelDistribution:
    """Empirical level frequencies p_0..p_{q-1}, summing to one."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        import numpy as np

        object.__setattr__(self, "probabilities", tuple(float(p) for p in self.probabilities))
        if not self.probabilities:
            raise ValueError("distribution needs at least one probability")
        p = np.asarray(self.probabilities, dtype=np.float64)
        if not ((p >= 0) & (p <= 1)).all():  # NaN fails this
            raise ValueError("probabilities must lie in [0, 1]")
        if not abs(float(p.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")

    @property
    def q(self) -> int:
        return len(self.probabilities)


@_value_type
class EntropyReport:
    """The three entropy measures (bits) for one quantized band."""

    e_rand: float
    e_unc: float
    e_actual: float
    n: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1 or self.n < 1:
            raise ValueError("q and n must be positive")
        if self.e_rand != math.log2(self.q):
            raise ValueError(f"e_rand must equal log2(q)={math.log2(self.q)}, got {self.e_rand}")
        if not 0.0 <= self.e_unc <= self.e_rand:
            raise ValueError(f"e_unc={self.e_unc} outside [0, {self.e_rand}]")
        if not self.e_actual >= 0.0:  # NaN fails this
            raise ValueError(f"e_actual must be non-negative, got {self.e_actual}")


@_value_type
class PredictabilityReport:
    """Upper-bound predictability for one band plus solver diagnostics.

    ``entropy_used`` is the entropy actually inverted after clamping to
    [0, log2 q]; ``clamped`` records whether the raw input fell outside
    that range (estimator noise on short traces can push it past log2 q).
    """

    pi_max: float
    entropy_used: float
    clamped: bool
    iterations: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if not 1.0 / self.q <= self.pi_max <= 1.0:
            raise ValueError(f"pi_max={self.pi_max} outside [1/{self.q}, 1]")
