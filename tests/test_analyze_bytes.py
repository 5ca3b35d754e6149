"""Byte-identity guard: ``analyze --max-level 6`` output is pinned by its sha256.

The digests were recorded before the analysis pipeline moved from the command
line into the library. Any change to what ``analyze`` prints, down to key order
and whitespace, changes a digest. A deliberate change of the report must
record new digests and say why.
"""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from prodform import Family, FormalChain, cli

from util import random_strongly_connected

FAMILY_DIGESTS = {
    "batchv1": "6243a1076ab6cba08f3c72b1f380325276d70cd53ba4e661bc43bf37b2408df5",
    "batchv2": "81647c3f9ca323bfb837113e9cdbd142009d11a3248a57fc9ae2804204c88b33",
    "bd": "b56c048f9bd901a7d58de5f4c082ba9c04a2b418eac6dd39708d7cce519deb21",
    "ladder": "d5ce1d836fff4880311f6eea2cc4b4f3b969c1d9992fc42cf663f4b965c8e501",
    "msj": "1a3c4cfd8de1ab25f42508a3de9c36934352b5314942a212f12a7776ab383877",
    "oneway": "96a58fcbee25f789992e18b2d3682fac2a9682eeb95039204394f06c71f42255",
    "onewayplus": "9b464b6cf5d64cb4f42b21c01ba003efe62ab12d36eff7af7b15c8808b1ef9b0",
    "qbd": "b1a35b00e32e7c51bd0aa79fc671c7ac68467081921f3ffb74984f2e31e22738",
    "ring": "61055841880bdd91eac56af71876efd5eb16e761b6ca6f99441889d617be0cbf",
    "tree": "f141156c52dddcf06226a47168c4310ee32b1d40e3f33f5f8c1fadc33effba92",
    "twoway": "373c41b9c2d5fe9a124445a22f7921d41789759db621e1df0dc12dcfab8fba99",
}

# Larger sizes whose lanes run past the first byte: oneway n = 70 spans 9
# bytes of lanes, qbd 16x5 (80 nodes) 10. Recorded before cut sides were read
# as byte columns of the lane states.
SIZED = {
    "oneway-70": ("oneway", "--n", "70"),
    "qbd-16x5": ("qbd", "--blocks", "16", "--blocksize", "5"),
}
SIZED_DIGESTS = {
    "oneway-70": "91bd5f1afd21c7af525dd65e1b1ab4adbdc2f3c8d18d0d90fb48bb50caec82fa",
    "qbd-16x5": "30b05f548aea93a5e4871122cedc580ffad7e3e39e7691cbacf01440ecdc6774",
}

# random_strongly_connected(random.Random(seed), 6..10 nodes), named random-<seed>.
RANDOM_DIGESTS = [
    "848989546c8876f9d37f9b7041ad8929efb7837736e509fd7651eff0bba08367",
    "519ebb5c5bdc261c62ae226c3c1c79a774277e867d0bc61ef902962b4f5d4c5d",
    "9be26936b03a7de23102e719dcec7241f225e74322ee4f02be5ff764eea15b8f",
    "5c6724960c90275157d421830177ec2823bbfd07055baec3be9f0c388f9c9dc7",
    "593a8c080ecddb52f2024ce9fb8c0737d9f57d096fdc63f97e4df95de6618a6c",
    "4b60568f2519b07939994603f338d7b2297f10fc2ecc2d49eb17a72397b57f4c",
    "13e667b43623fc7dd0a2b8e51894e179f648b79d05a6a9c6bf91d7d4eca27e87",
    "d5f1619deeabd3667d728fae171624f9b6019c8004780d209ea83745c776f4a8",
]


def _analyze_digest(path: str, capsys) -> str:
    capsys.readouterr()
    assert cli.main(["analyze", path, "--max-level", "6"]) == cli.EXIT_OK
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_family_is_pinned():
    assert sorted(FAMILY_DIGESTS) == sorted(f.value for f in Family)


@pytest.mark.parametrize("family", sorted(FAMILY_DIGESTS))
def test_family_analyze_bytes(family: str, tmp_path, capsys):
    path = str(tmp_path / f"{family}.json")
    assert cli.main(["generate", family, "--out", path]) == cli.EXIT_OK
    assert _analyze_digest(path, capsys) == FAMILY_DIGESTS[family]


@pytest.mark.parametrize("name", sorted(SIZED))
def test_sized_chain_analyze_bytes(name: str, tmp_path, capsys):
    path = str(tmp_path / f"{name}.json")
    assert cli.main(["generate", *SIZED[name], "--out", path]) == cli.EXIT_OK
    assert _analyze_digest(path, capsys) == SIZED_DIGESTS[name]


@pytest.mark.parametrize("seed", range(len(RANDOM_DIGESTS)))
def test_random_chain_analyze_bytes(seed: int, tmp_path, capsys):
    rng = random.Random(seed)
    g = random_strongly_connected(rng, rng.randint(6, 10))
    doc = cli.emit_document(FormalChain(g), f"random-{seed}")
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc.to_json()))
    assert _analyze_digest(str(path), capsys) == RANDOM_DIGESTS[seed]
