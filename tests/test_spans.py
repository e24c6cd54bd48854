"""The functions the benchmark's span tracer wraps (`SPANS` in
`perfbench/spans.py`) exist on the package under those names.

The tracer replaces each one at its module attribute and counts the
calls its wrapper sees, so a name that no longer resolves, or that the
code no longer calls, reads 0 calls in every run.  Which solver names a
solve reaches is pinned in test_solver.py.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

_SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_names() -> tuple[tuple[str, str], ...]:
    spec = importlib.util.spec_from_file_location("_perfbench_spans",
                                                  _SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_span_names_a_package_function():
    spans = _traced_names()
    assert ("solver", "refine_layer") in spans
    unresolved = [
        f"{module}.{name}" for module, name in spans
        if not inspect.isfunction(getattr(
            importlib.import_module(f"scenescale.{module}"), name, None))]
    assert unresolved == []
