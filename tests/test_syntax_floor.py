"""Every Python file parses with the grammar of Python 3.10.

``pyproject.toml`` promises ``requires-python = ">=3.10"``. The suite usually
runs on a newer interpreter, which accepts syntax that 3.10 rejects, such as
``except*``; ``feature_version`` makes the parser reject it here too.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_the_guard_finds_files():
    assert {p.relative_to(ROOT).parts[0] for p in FILES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_as_python_3_10(path: Path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_guard_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
