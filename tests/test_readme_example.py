"""README's "Library example" block must run as printed against the current API."""
from __future__ import annotations

import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = _README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library example'"
    exec(compile(match.group(1), "README.md:Library example", "exec"), {})
    # The three-node chain relates two pairs, one line each: "a b lhs | rhs".
    assert capsys.readouterr().out.splitlines() == [
        "0 1 q(0,1) | (q(1,0) + q(1,2))",
        "1 2 q(1,2) | q(2,0)",
    ]
