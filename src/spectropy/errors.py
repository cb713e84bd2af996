"""Toolkit exception hierarchy.

Errors are split by how the command line maps them to exit codes:
malformed or degenerate input data (exit 2) versus configuration and
usage mistakes (exit 3).
"""


class SpectropyError(Exception):
    """Base class for every error raised by this package."""


class InputDataError(SpectropyError):
    """The data being analyzed is malformed or degenerate (CLI exit 2)."""


class ConfigError(SpectropyError):
    """The requested parameters or usage are invalid (CLI exit 3)."""


class EmptyTraceError(InputDataError):
    """A trace or matrix contains no samples."""


class NonFiniteSampleError(InputDataError):
    """A trace contains a NaN or infinite sample."""

    def __init__(self, index: int, value: float | None = None):
        self.index = index
        self.value = value
        detail = f"non-finite sample at index {index}"
        if value is not None:
            detail += f" ({value!r})"
        super().__init__(detail)


class ParseError(InputDataError):
    """A line of an input file could not be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class RaggedRowError(InputDataError):
    """A CSV row has a different field count than the header."""

    def __init__(self, line: int, expected: int, got: int):
        self.line = line
        self.expected = expected
        self.got = got
        super().__init__(f"line {line}: expected {expected} fields, got {got}")


class NonFiniteValueError(InputDataError):
    """A CSV cell holds a NaN or infinite value."""

    def __init__(self, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: non-finite value")


class EmptySequenceError(InputDataError):
    """An operation needing symbols was given an empty sequence."""


class EmptyInputError(InputDataError):
    """An aggregation was given nothing to aggregate."""


class BlockLargerThanTraceError(ConfigError):
    """Block averaging would leave zero output rows."""


class SequenceTooShortError(ConfigError):
    """The sequence is shorter than the operation's minimum length."""


class DomainError(ConfigError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidStochasticMatrixError(ConfigError):
    """A transition matrix is not row-stochastic."""


class NotIrreducibleError(ConfigError):
    """A chain has no unique stationary distribution."""


def error_name(exc: BaseException) -> str:
    """Short error name used in CLI diagnostics, e.g. 'EmptyTrace'."""
    name = type(exc).__name__
    return name[:-5] if name.endswith("Error") else name
