"""README.md's test references resolve: each names a test file, class or function that exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# `tests/<file>.py`, then any `::Name` parts, each with an optional `[...]` parameter id
REFERENCE = re.compile(r"tests/\w+\.py(?:::\w+(?:\[[^\]`]*\])?)*")


def _defined(body, name):
    """The class or function `name` defined directly in `body`, or None."""
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return next((node for node in body if isinstance(node, kinds) and node.name == name), None)


def _resolves(reference: str) -> bool:
    path, *names = re.sub(r"\[[^\]]*\]", "", reference).split("::")
    if not (ROOT / path).is_file():
        return False
    node = ast.parse((ROOT / path).read_text())
    for name in names:
        if (node := _defined(getattr(node, "body", []), name)) is None:
            return False
    return True


def test_readme_test_references_resolve():
    references = REFERENCE.findall((ROOT / "README.md").read_text())
    assert references, "README.md names no test"
    assert [r for r in references if not _resolves(r)] == []


def test_an_unresolved_reference_is_caught():
    assert _resolves("tests/test_readme.py::test_readme_test_references_resolve[x]")
    assert not _resolves("tests/test_readme.py::test_that_does_not_exist")
    assert not _resolves("tests/no_such_file.py")
