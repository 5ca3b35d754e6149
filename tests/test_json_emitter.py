"""The report emitter ``cli._json_text`` writes exactly what ``json.dumps(indent=2)`` writes.

Every command's JSON goes through it, so the comparison runs on the payload of
every JSON-writing command, captured on its way to ``_write_json``, and on a
seeded generator of JSON values with awkward strings, floats and nesting.
"""
from __future__ import annotations

import json
import math
import random
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest

from prodform import Family, FormalChain, cli
from prodform.graph_core import DirectedGraph

from util import random_strongly_connected

# Appended to node indices so that labels stay unique but need escaping.
LABEL_SUFFIXES = ("", '"q', "\\", "\t", "é", "\U0001f600", "/", "\x7f")

STRINGS = (
    "",
    'say "hi"',
    "back\\slash",
    "\x00\x01\x1f\b\f\n\r\t",
    "naïve ∑  ",
    "\U0001f600 astral \U00010348",
    "\ud800 lone surrogate",
    "bar1",
)


class Tagged(float):
    """A ``float`` subclass whose own ``repr`` is not a JSON number."""

    def __repr__(self) -> str:
        return f"Tagged({float.__repr__(self)})"


FLOATS = (
    -0.0,
    5e-324,
    1e16,
    1e-300,
    0.1,
    math.nan,
    math.inf,
    -math.inf,
    Tagged(0.1),
    Tagged(-2.5e-7),
    Tagged(math.nan),
)


class Level(IntEnum):
    FIRST = 1
    SECOND = 2


def _check(payload: object) -> None:
    assert cli._json_text(payload) == json.dumps(payload, indent=2)


def _payloads(monkeypatch, argv: list[str]) -> list[object]:
    """The objects a CLI call hands to ``_write_json``, in order."""
    seen: list[object] = []
    monkeypatch.setattr(cli, "_write_json", lambda payload, path: seen.append(payload))
    cli.main(argv)
    return seen


def _write_document(tmp_path, c: FormalChain, name: str) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(cli.emit_document(c, name).to_json()), encoding="utf-8")
    return str(path)


def _check_every_command(monkeypatch, path: str) -> int:
    """Compare the emitter on every JSON command's payload; return how many were seen."""
    out = str(path) + ".report.json"
    argvs = [["analyze", path, "--max-level", level, "--out", out] for level in ("1", "2", "6")]
    argvs += [
        ["verify", path, "--seeds", "2", "--out", out],
        ["verify", path, "--seeds", "1", "--fault", "--out", out],
        ["oracle", path, "--mode", "cuts", "--out", out],
        ["oracle", path, "--mode", "broad", "--out", out],
    ]
    seen = 0
    for argv in argvs:
        for payload in _payloads(monkeypatch, argv):
            _check(payload)
            seen += 1
    return seen


@pytest.mark.parametrize("family", sorted(f.value for f in Family))
def test_emitter_matches_json_dumps_on_family_reports(tmp_path, monkeypatch, family: str):
    out = str(tmp_path / "doc.json")
    (document,) = _payloads(monkeypatch, ["generate", family, "--out", out])
    _check(document)
    (tmp_path / "doc.json").write_text(json.dumps(document), encoding="utf-8")
    # analyze x3, verify, oracle cuts and broad; the fault control needs a relation.
    assert _check_every_command(monkeypatch, out) >= 6


def test_emitter_matches_json_dumps_on_random_chain_reports(tmp_path, monkeypatch):
    seen = 0
    for seed in range(50):
        rng = random.Random(seed)
        g = random_strongly_connected(rng, rng.randint(5, 12))
        labels = [f"{v}{LABEL_SUFFIXES[v % len(LABEL_SUFFIXES)]}" for v in range(g.n)]
        c = FormalChain(DirectedGraph(labels, list(g.edge_list)))
        seen += _check_every_command(monkeypatch, _write_document(tmp_path, c, f"random \"{seed}\""))
    assert seen >= 50 * 6


@pytest.mark.parametrize("mode", ["cuts", "broad"])
def test_emitter_matches_json_dumps_on_random_oracle_reports(monkeypatch, mode: str):
    argv = ["oracle", "random", "--mode", mode, "--nodes", "6", "--samples", "20", "--seed", "3"]
    (payload,) = _payloads(monkeypatch, argv)
    _check(payload)


def _random_value(rng: random.Random, depth: int) -> object:
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return rng.choice(STRINGS)
    if kind == 1:
        return rng.choice(FLOATS + (rng.uniform(-1e6, 1e6),))
    if kind == 2:
        return rng.choice((0, -1, 2**64 + 1, -(3**45), rng.randrange(-1000, 1000)))
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return rng.choice(tuple(Level))
    if kind == 5:
        return rng.choice(([], {}, (), [[]], {"": {}}, [(), {}]))
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {rng.choice(STRINGS) + str(k): item for k, item in enumerate(items)}


def test_emitter_matches_json_dumps_on_random_values():
    rng = random.Random(20260)
    for _ in range(2000):
        _check(_random_value(rng, 0))


@pytest.mark.parametrize(
    "payload",
    [{1: "a"}, {"a": {("x",): 1}}, [{None: 0}], {1.5: 2}],
    ids=["int-key", "tuple-key", "none-key", "float-key"],
)
def test_emitter_rejects_a_key_that_is_not_a_string(payload):
    with pytest.raises(TypeError):
        cli._json_text(payload)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", object(), Decimal(3), Fraction(1, 3)],
    ids=["set", "bytes", "object", "decimal", "fraction"],
)
def test_emitter_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps([value], indent=2)
    with pytest.raises(TypeError):
        cli._json_text([value])
