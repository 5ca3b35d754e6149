"""README's "Library example" block must run as printed against the current API."""
from __future__ import annotations

from util import readme_library_example


def test_readme_library_example_runs(capsys):
    exec(compile(readme_library_example(), "README.md:Library example", "exec"), {})
    # The three-node chain relates two pairs, one line each: "a b lhs | rhs".
    assert capsys.readouterr().out.splitlines() == [
        "0 1 q(0,1) | (q(1,0) + q(1,2))",
        "1 2 q(1,2) | q(2,0)",
    ]
