"""README's shell and "Library example" blocks must run as printed against the current API."""
from __future__ import annotations

from prodform import cli

from util import readme_library_example, readme_shell_commands


def test_readme_library_example_runs(capsys):
    exec(compile(readme_library_example(), "README.md:Library example", "exec"), {})
    # The three-node chain relates two pairs, one line each: "a b lhs | rhs".
    assert capsys.readouterr().out.splitlines() == [
        "0 1 q(0,1) | (q(1,0) + q(1,2))",
        "1 2 q(1,2) | q(2,0)",
    ]


def test_readme_shell_block_runs_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_shell_commands()
    assert len(commands) == 11
    for argv in commands:
        # README: the negative control exits 1 when the swap breaks the relation.
        expected = cli.EXIT_FAILURE if argv[0] == "verify" and "--fault" in argv else cli.EXIT_OK
        assert cli.main(argv) == expected, (argv, capsys.readouterr().err)
