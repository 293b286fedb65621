"""Every function the benchmark's tracer wraps still exists in the package.

perfbench/tracer.py looks each (layer, function) of its TARGETS up as
guidedretrain.<layer>.<function> and reports a name it cannot find as
absent, leaving out the metrics derived from it. A refactor that drops or
moves such a name fails here instead.
"""

import importlib
import importlib.util
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
