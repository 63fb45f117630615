"""The benchmark's tracer wraps flagforms functions by name; a rename in the
library must not leave one of those names dangling.  Every library cache is
bounded, so a run report can read the ``cache_info()`` of each."""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
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


def test_no_two_traced_names_share_a_function():
    # Tracer.install rebinds by identity: a shared function would be
    # wrapped twice and its calls counted under both names
    spans = _spans_module()
    targets = {}
    for name in spans.TRACED:
        module, attr = name.split(".")
        target = getattr(importlib.import_module(f"flagforms.{module}"), attr)
        assert id(target) not in targets, (name, targets.get(id(target)))
        targets[id(target)] = name


def test_chern_forms_takes_one_wedge_determinant():
    # installing the tracer rebinds module attributes, so it runs in a
    # process of its own
    script = f"""
import importlib.util, json
from flagforms import formlab
spec = importlib.util.spec_from_file_location("perfbench_spans", {str(SPANS)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
tracer.on = True
C = formlab.griffiths_sample(3, 4, terms=4, seed=1)
formlab.chern_forms(formlab.base_curvature_matrix(C))
print(json.dumps(tracer.summary()))
"""
    src = str(SPANS.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True, timeout=120
    )
    layers = json.loads(done.stdout)
    assert layers["formlab.wedge_det.calls"] == layers["formlab.chern_forms.calls"] == 1


def test_every_library_cache_is_bounded():
    # formlab's byte-bounded caches are _ByteLRU instances, which have no
    # cache_info(); every other cache is a functools cache
    import flagforms

    for info in pkgutil.iter_modules(flagforms.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"flagforms.{info.name}")
        for name, value in vars(module).items():
            assert not (name.endswith("_CACHE") and isinstance(value, (dict, list))), (info.name, name)
            if hasattr(value, "cache_info"):
                assert value.cache_info().maxsize is not None, (info.name, name)
