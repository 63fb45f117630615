"""The benchmark's tracer wraps flagforms functions by name; a rename in the
library must not leave one of those names dangling."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_flagforms_function():
    spans = _spans_module()
    assert spans.TRACED
    for name in spans.TRACED:
        module, attr = name.split(".")
        assert module in spans.MODULES, name
        target = getattr(importlib.import_module(f"flagforms.{module}"), attr, None)
        assert callable(target), name
