"""Every per-layer row the benchmark traces must name a public function of its layer.

The tracer in ``perfbench/layertrace.py`` wraps the public functions of each
``prodform.<layer>`` module: names without a leading underscore that are
functions defined in that module. A row ``<layer>.<fn>.s`` or
``<layer>.<fn>.calls`` whose function fails that rule is reported absent, so
deleting or renaming a traced function fails here, not only in a traced run.
"""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _traced_rows() -> list[str]:
    """``LAYER_TIMES`` and ``LAYER_COUNTS`` as written in the benchmark script, without importing it."""
    rows: dict[str, tuple[str, ...]] = {}
    for node in ast.parse(_RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("LAYER_TIMES", "LAYER_COUNTS"):
                rows[target.id] = ast.literal_eval(node.value)
    assert set(rows) == {"LAYER_TIMES", "LAYER_COUNTS"}, f"not found in {_RUN.name}"
    return [row for name in ("LAYER_TIMES", "LAYER_COUNTS") for row in rows[name]]


_FUNCTION_ROWS = [row for row in _traced_rows() if row.count(".") == 2]


def test_rows_are_read():
    assert len(_FUNCTION_ROWS) >= 10
    assert all(row.endswith((".s", ".calls")) for row in _FUNCTION_ROWS)


@pytest.mark.parametrize("row", _FUNCTION_ROWS)
def test_traced_row_names_a_public_function(row: str):
    layer, name, _ = row.split(".")
    module = importlib.import_module(f"prodform.{layer}")
    fn = getattr(module, name, None)
    assert not name.startswith("_"), f"{row}: private functions are not traced"
    assert inspect.isfunction(fn), f"{row}: prodform.{layer} has no function {name}"
    assert fn.__module__ == module.__name__, f"{row}: {name} is defined in {fn.__module__}"
