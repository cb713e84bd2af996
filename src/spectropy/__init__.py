"""Entropy and predictability-bound analytics for radio-spectrum traces.

Quantizes per-band power measurements into discrete levels, estimates
random / Shannon / actual (match-length) entropies, and inverts the Fano
bound into a per-band ceiling on next-state prediction accuracy, with
duty-cycle and cross-band CDF reporting around it.

The modules imported here load numpy only where they build arrays.  The
names of ``entropy``, ``synth`` and ``pipeline``, which import numpy
(and the whole analysis chain) at import time, resolve on first use, so
a command that builds no array (``cdf``, ``--version``) starts without
numpy.  ``quantize`` stays eager: importing the submodule later would
bind it over the function of the same name.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

from .errors import (
    BlockLargerThanTraceError,
    ConfigError,
    DomainError,
    EmptyInputError,
    EmptySequenceError,
    EmptyTraceError,
    InputDataError,
    InvalidStochasticMatrixError,
    NonFiniteSampleError,
    NonFiniteValueError,
    NotIrreducibleError,
    ParseError,
    RaggedRowError,
    SequenceTooShortError,
    SpectropyError,
)
from .trace import (
    BandMetadata,
    EntropyReport,
    LevelDistribution,
    PredictabilityReport,
    PsdTrace,
    QuantizedTrace,
)
from .ingest import (
    SpectrumMatrix,
    block_average,
    duty_cycle,
    load_matrix,
    load_service_map,
    service_for_frequency,
)
from .quantize import QuantizationConfig, Strategy, level_distribution, quantize
from .predictability import (
    CdfReport,
    band_predictability,
    fano_rhs,
    max_predictability,
    predictability_cdf,
)

_LAZY_MODULES = {
    "entropy": (
        "LzParse",
        "entropy_report",
        "lz_entropy_estimate",
        "lz_parse",
        "lz_parse_fast",
        "random_entropy",
        "shannon_entropy",
    ),
    "synth": (
        "MarkovSpec",
        "binary_symmetric_spec",
        "gen_gaussian_psd",
        "gen_iid_uniform",
        "gen_markov",
        "gen_periodic",
        "markov_entropy_rate",
        "markov_spec_from_json",
        "stationary_distribution",
    ),
    "pipeline": ("BandAnalysis", "analyze_matrix"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

# every public name, the submodules included; a star import loads the lazy ones
__all__ = sorted({n for n in globals() if not n.startswith("_")} | set(_LAZY) | set(_LAZY_MODULES))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:  # an AttributeError lets `from spectropy import <submodule>` import it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
