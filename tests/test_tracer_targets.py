"""Every function the benchmark's tracer wraps still exists in the package,
and still takes every argument the tracer reads.

perfbench/tracer.py looks each (layer, function) of its TARGETS up as
guidedretrain.<layer>.<function> and reports a name it cannot find, or an
argument the function no longer takes, as absent, leaving out the metrics
derived from it. A refactor that drops or moves such a name fails here
instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_to_a_callable():
    tracer = tracer_module()
    missing = [f"{layer}.{function}" for layer, function in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{layer}"),
                                       function, None))]
    assert len(tracer.TARGETS) > 0
    assert missing == []


def test_every_tracer_fact_names_a_parameter_of_its_target():
    # a fact whose parameter is gone is reported absent, and the metrics
    # derived from it (retrain.c*_s, metrics.*_s, ...) drop out of the benchmark
    tracer = tracer_module()
    unnamed = []
    for (layer, function), facts in tracer.TARGETS.items():
        target = getattr(importlib.import_module(f"{tracer.PACKAGE}.{layer}"), function)
        parameters = inspect.signature(target).parameters
        unnamed += [f"{layer}.{function}: {key} reads {fact[1]!r}"
                    for key, fact in facts.items() if fact[1] not in parameters]
    assert sum(len(facts) for facts in tracer.TARGETS.values()) > 0
    assert unnamed == []
