"""Every per-layer row the benchmark traces must name a public function of its layer.

The tracer in ``perfbench/layertrace.py`` wraps the public functions of each
``prodform.<layer>`` module: names without a leading underscore that are
functions defined in that module. A row ``<layer>.<fn>.s`` or
``<layer>.<fn>.calls`` whose function fails that rule is reported absent, so
deleting or renaming a traced function fails here, not only in a traced run.
"""
from __future__ import annotations

import importlib
import inspect

import pytest

from util import traced_rows

_FUNCTION_ROWS = [row for row in traced_rows() if row.count(".") == 2]


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
