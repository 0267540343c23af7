"""The benchmark calls and wraps matchstudy functions by name.

``bench/spans.py`` lists them in ``WRAPPED`` and reads call arguments by
parameter name in ``HOOKS``; ``bench/child.py`` calls the pipeline stages
with the config alone. ``bench/test_bench.py`` is not collected with this
suite, so this guard checks here that every listed name still exists and
still takes the parameters its hook reads, and that every stage the
benchmark calls still takes a config alone.
"""
import importlib
import importlib.util
import inspect
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")

# Parameters each hook reads from the bound call; every other hook reads ``sets``.
HOOK_PARAMETERS = {"matching.match_bucket": {"treated_ids", "control_ids", "k"}}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _wrapped(layer):
    module, attr = {name: (m, a) for m, a, name in spans.WRAPPED}[layer]
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in spans.WRAPPED])
def test_wrapped_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("layer", sorted(spans.HOOKS))
def test_hooked_function_takes_the_parameters_its_hook_reads(layer):
    parameters = inspect.signature(_wrapped(layer)).parameters
    assert HOOK_PARAMETERS.get(layer, {"sets"}) <= set(parameters)


@pytest.mark.parametrize("name", ["stage_simulate", "stage_propensity", "stage_match", "stage_balance", "run_pipeline"])
def test_stage_the_benchmark_calls_takes_a_config_alone(name):
    from matchstudy import pipeline

    inspect.signature(getattr(pipeline, name)).bind("cfg")
