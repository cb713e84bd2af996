"""Entropy and predictability-bound analytics for radio-spectrum traces.

Quantizes per-band power measurements into discrete levels, estimates
random / Shannon / actual (match-length) entropies, and inverts the Fano
bound into a per-band ceiling on next-state prediction accuracy, with
duty-cycle and cross-band CDF reporting around it.
"""

__version__ = "0.1.0"

from .errors import (
    BlockLargerThanTraceError,
    BlockTooLongError,
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
    DutyCycleReport,
    SpectrumMatrix,
    block_average,
    duty_cycle,
    load_matrix,
    load_service_map,
    service_for_frequency,
)
from .quantize import QuantizationConfig, Strategy, level_distribution, quantize
from .entropy import (
    LzParse,
    block_entropy_rate,
    entropy_report,
    lz_entropy_estimate,
    lz_parse,
    lz_parse_fast,
    random_entropy,
    shannon_entropy,
)
from .predictability import (
    CdfReport,
    band_predictability,
    fano_rhs,
    max_predictability,
    predictability_cdf,
)
from .synth import (
    MarkovSpec,
    binary_symmetric_spec,
    gen_gaussian_psd,
    gen_iid_uniform,
    gen_markov,
    gen_periodic,
    markov_entropy_rate,
    markov_spec_from_json,
    stationary_distribution,
)
from .pipeline import BandAnalysis, analyze_matrix
