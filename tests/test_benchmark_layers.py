"""The benchmark's traced layers name functions that exist in the package.

`perfbench/tracing.py` wraps each `module.function` in its `LAYERS` table
when a run is traced, so a renamed or deleted function would otherwise
only show up as a crash of a traced benchmark run. The table is read
from the source, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no LAYERS table")


def test_every_traced_function_resolves():
    qualnames = [qual for quals in traced_layers().values() for qual in quals]
    assert qualnames
    unresolved = []
    for qual in qualnames:
        modname, fname = qual.split(".")
        if not callable(getattr(importlib.import_module(f"normfusion.{modname}"), fname, None)):
            unresolved.append(qual)
    assert unresolved == []
