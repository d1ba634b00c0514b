"""perfbench's tracer wraps specload functions at their module bindings,
looked up by name.  A function it names that no longer exists makes a
traced benchmark run fail, so each one is checked here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.INSTRUMENTED
    for module_name, attribute, _, _ in tracer.INSTRUMENTED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"
