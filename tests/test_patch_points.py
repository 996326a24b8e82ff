"""Every span perfbench times names a function the package still has.

perfbench/tracing.py wraps the module attributes in its PATCH_POINTS for
the length of a traced solve; a name that moved or was renamed only nulls
that span's metrics there.  The tuple is read from the file as a literal,
so nothing under perfbench/ is imported or run.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _patch_points() -> tuple[tuple[str, str, str], ...]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PATCH_POINTS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCH_POINTS assignment in {TRACING}")


@pytest.mark.parametrize("module, attribute, span", _patch_points(),
                         ids=lambda value: value)
def test_patch_point_resolves(module, attribute, span):
    target = getattr(importlib.import_module(module), attribute, None)
    assert callable(target), f"{span}: {module}.{attribute} is gone"
