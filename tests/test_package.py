import json

import spectropy
from tests.conftest import run_python

# every public name the package bound when its __init__ imported each module eagerly
PUBLIC_NAMES = [
    "BandAnalysis", "BandMetadata", "BlockLargerThanTraceError", "CdfReport", "ConfigError",
    "DomainError", "EmptyInputError", "EmptySequenceError", "EmptyTraceError", "EntropyReport",
    "InputDataError", "InvalidStochasticMatrixError", "LevelDistribution", "LzParse", "MarkovSpec",
    "NonFiniteSampleError", "NonFiniteValueError", "NotIrreducibleError", "ParseError", "PredictabilityReport",
    "PsdTrace", "QuantizationConfig", "QuantizedTrace", "RaggedRowError", "SequenceTooShortError", "SpectropyError",
    "SpectrumMatrix", "Strategy", "analyze_matrix", "band_predictability", "binary_symmetric_spec", "block_average",
    "duty_cycle", "entropy", "entropy_report", "errors", "fano_rhs", "gen_gaussian_psd",
    "gen_iid_uniform", "gen_markov", "gen_periodic", "ingest", "level_distribution", "load_matrix",
    "load_service_map", "lz_entropy_estimate", "lz_parse", "lz_parse_fast", "markov_entropy_rate",
    "markov_spec_from_json", "max_predictability", "pipeline", "predictability", "predictability_cdf", "quantize",
    "random_entropy", "service_for_frequency", "shannon_entropy", "stationary_distribution", "synth", "trace",
]
SUBMODULES = ["entropy", "errors", "ingest", "pipeline", "predictability", "synth", "trace"]


def in_fresh_interpreter(code: str):
    # a new process, where no earlier import has loaded the lazy modules; code prints one JSON value
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_lists_every_public_name():
    assert sorted(spectropy.__all__) == sorted(PUBLIC_NAMES)


def test_every_name_imports_from_the_package():
    code = "import json\nfor name in %r:\n    exec(f'from spectropy import {name}', {})\nprint(json.dumps('ok'))"
    assert in_fresh_interpreter(code % PUBLIC_NAMES) == "ok"


def test_star_import_binds_every_name():
    code = (
        "import json, types\nfrom spectropy import *\n"
        "print(json.dumps({k: isinstance(v, types.ModuleType) for k, v in dict(globals()).items() if k[0] != '_'}))"
    )
    bound = in_fresh_interpreter(code)
    assert sorted(bound) == sorted(PUBLIC_NAMES + ["json", "types"])
    assert sorted(name for name, is_module in bound.items() if is_module) == sorted(SUBMODULES + ["json", "types"])


def test_lazy_names_are_the_defining_modules_objects():
    from spectropy import analyze_matrix, entropy, entropy_report, gen_markov, pipeline, synth

    assert analyze_matrix is pipeline.analyze_matrix
    assert entropy_report is entropy.entropy_report
    assert gen_markov is synth.gen_markov


def test_unknown_name_is_an_attribute_error():
    code = "import json, spectropy\ntry:\n    spectropy.no_such_name\nexcept AttributeError as e:\n    print(json.dumps(str(e)))"
    assert in_fresh_interpreter(code) == "module 'spectropy' has no attribute 'no_such_name'"


def test_quantize_stays_the_function_after_the_cli_imports():
    # the cli imports the quantize submodule; a first import of it would bind the module over the function
    code = (
        "import json, spectropy, spectropy.cli, spectropy.pipeline\nfrom spectropy import quantize\n"
        "print(json.dumps([callable(spectropy.quantize), quantize is spectropy.quantize]))"
    )
    assert in_fresh_interpreter(code) == [True, True]


def test_submodule_import_gives_the_module():
    code = "import json\nfrom spectropy import pipeline\nprint(json.dumps([pipeline.__name__, pipeline.analyze_matrix.__module__]))"
    assert in_fresh_interpreter(code) == ["spectropy.pipeline", "spectropy.pipeline"]
