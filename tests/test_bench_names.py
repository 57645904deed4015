"""The benchmark's tracer names plrs functions by attribute path; a rename
in the package must show up here, not as a silent gap in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_the_package():
    tracer = _tracer()
    for layer, path, _hot in (*tracer.TRACED, tracer.CONSTRUCTOR):
        target = importlib.import_module(f"plrs.{layer}")
        for part in path.split("."):
            target = getattr(target, part)
        assert callable(target), f"{layer}.{path}"
