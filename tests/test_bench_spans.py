"""The traced benchmark wraps matchstudy functions by name.

``bench/spans.py`` lists them in ``WRAPPED`` and reads call arguments by
parameter name in ``HOOKS``. ``bench/test_bench.py`` is not collected with
this suite, so this guard checks here that every listed name still exists
and still takes the parameters its hook reads.
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
