"""Byte-identity guard: ``analyze --max-level 6`` output is pinned by its sha256.

Any change to what ``analyze`` prints, down to key order and whitespace,
changes a digest. A deliberate change of the report must record new digests
and say why.

The report writes each distinct factor once, in a top-level ``factors`` table
that the relation rows index, and a hyperedge lists only ``cut_a``, since side
B is every other node. The digests were re-recorded for that change. The
``*_INLINED`` digests are those of the report written before it: putting the
table entries back into the rows, adding ``cut_b`` back as the sorted
complement of ``cut_a`` and dropping ``factors`` must give those bytes again,
so the table loses no fact of the report.
"""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from prodform import Family, FormalChain, cli

from util import random_strongly_connected

FAMILY_DIGESTS = {
    "batchv1": "d88c30628767b37349be1e120b4c46a77cb65bfe01fec2e844aeec0726995aeb",
    "batchv2": "2d43c1aa39738be98f581178811f318be5f927b8a981546c40bfff08bd3f0f04",
    "bd": "6bd6a6e612f8d4bd212e34d683db26c4db93c83e5afeda1a9e9d9d8bb963861b",
    "ladder": "0f0f21bc343124106d5b125e2e49c389e7c6902cfeb7eecccb0ab40ec914d224",
    "msj": "5be9ab56a535a89afe2a5262aacd0a55313b20010287fbb40ba02638546b1159",
    "oneway": "bcfbc459e7275fd19506ce0b9088c9a95dbaaeabe1c25aa27cb32146fa9225af",
    "onewayplus": "827c62bea0647ab007496a4cff270298e024220684df1231fab0f865228874ca",
    "qbd": "4e483067d3e20acdaa65f744d2fc2f6755d32c738c289142fca313c33728bc57",
    "ring": "eb55346bd001a33a609856aeb7fc46ab2365e3c306c822eef8684d13c9b62096",
    "tree": "a9400ecaa9b1ff9c6db7658b40d46f18d5f18045ab71191930bc697bc6e45d93",
    "twoway": "a5961c0e5574593da3d768598fb25b409212f7e6f27bfecd463db5a7d2ccb701",
}
FAMILY_INLINED_DIGESTS = {
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

# Larger chains. oneway n = 70 and qbd 16x5 (80 nodes) run level 1 over
# many lanes and have no level 2. The two batch-deep chains have 81 nodes
# and read their hyperedge cut sides from the lane states: batchv1 x3 has
# 26 hyperedges over 27 components at level 2, and batchv2 five levels of
# one hyperedge each.
SIZED = {
    "oneway-70": ("oneway", "--n", "70"),
    "qbd-16x5": ("qbd", "--blocks", "16", "--blocksize", "5"),
    "batchv1-x3-40": ("batchv1", "--multiple", "3", "--truncate", "40"),
    "batchv2-40": ("batchv2", "--truncate", "40"),
}
SIZED_DIGESTS = {
    "oneway-70": "5b8deb4adae1ffa6aa96c10fd65a13727f09c56fb80c0976d5bfdec1e069f8c1",
    "qbd-16x5": "cd11d69ae491483e29670120b706cc6f070bbbc41f18a8695d841a2285273064",
    "batchv1-x3-40": "228755a2296addea36f93fe40f11e90e1b9212f0d97944a36400012641979577",
    "batchv2-40": "c6ab736f06d5658d98db78919e97e497c2f8924c9a50f0b724d8fb3aecc80116",
}
SIZED_INLINED_DIGESTS = {
    "oneway-70": "91bd5f1afd21c7af525dd65e1b1ab4adbdc2f3c8d18d0d90fb48bb50caec82fa",
    "qbd-16x5": "30b05f548aea93a5e4871122cedc580ffad7e3e39e7691cbacf01440ecdc6774",
    "batchv1-x3-40": "e5fdb0dada73dbd4d74ae739e39c89f6f32621f536efcf25337eed485575eeda",
    "batchv2-40": "2c20fb6d92ee4246f547f13ca0068b710dfb268f13b3087cd9fc5bc019026418",
}

# random_strongly_connected(random.Random(seed), 6..10 nodes), named random-<seed>.
RANDOM_DIGESTS = [
    "5bc9b7d24206456c408a847de1e295cf7b57c022d1c1d9a712746f84eaaf1473",
    "a55f4ea87f93f97c26971aa160c7107cf0dd9f9e4d80d0b917ca3c8832fbf171",
    "fe8d7fd58e2c4ab46ff67f34ec43540e30973287c41528da66202b9fd8806ae2",
    "679096f8b493d0886786c54c1855ccce619b0ca8ee9e924af760fe6380fdf245",
    "1d2bf6c49577cebec1d47efc49716482a36a9c818c39175803f2cb5ee1bab52d",
    "6be63cc3ead05998bba80c707ef32ce70c585cc1643a484d366471964f23e8a6",
    "d8ca9f1533e71e0f805d12cb8f6f68f25cddd6e95eb9fdfbba1cd58fe8748132",
    "e6810432fdb393f1310fbedd49946f4ec8c8f249e1a7f9699584c214766ee975",
]
RANDOM_INLINED_DIGESTS = [
    "848989546c8876f9d37f9b7041ad8929efb7837736e509fd7651eff0bba08367",
    "519ebb5c5bdc261c62ae226c3c1c79a774277e867d0bc61ef902962b4f5d4c5d",
    "9be26936b03a7de23102e719dcec7241f225e74322ee4f02be5ff764eea15b8f",
    "5c6724960c90275157d421830177ec2823bbfd07055baec3be9f0c388f9c9dc7",
    "593a8c080ecddb52f2024ce9fb8c0737d9f57d096fdc63f97e4df95de6618a6c",
    "4b60568f2519b07939994603f338d7b2297f10fc2ecc2d49eb17a72397b57f4c",
    "13e667b43623fc7dd0a2b8e51894e179f648b79d05a6a9c6bf91d7d4eca27e87",
    "d5f1619deeabd3667d728fae171624f9b6019c8004780d209ea83745c776f4a8",
]


def _inlined(text: str) -> str:
    """The report as written before the factor table: factors in place, ``cut_b`` listed."""
    report = json.loads(text)
    factors = report.pop("factors")
    levels = report["levels"]
    for row in report["first_level"]["relations"] + [r for lv in levels for r in lv.get("relations", [])]:
        row["lhs_factor"] = factors[row["lhs_factor"]]
        row["rhs_factor"] = factors[row["rhs_factor"]]
    for h in (h for lv in levels for h in lv["hyperedges"]):
        h["cut_b"] = sorted(set(report["nodes"]) - set(h["cut_a"]))
    return json.dumps(report, indent=2) + "\n"


def _analyze_digests(path: str, capsys) -> tuple[str, str]:
    """The sha256 of the ``analyze`` report and of the report re-inlined."""
    capsys.readouterr()
    assert cli.main(["analyze", path, "--max-level", "6"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in (text, _inlined(text)))


def test_every_family_is_pinned():
    assert sorted(FAMILY_DIGESTS) == sorted(FAMILY_INLINED_DIGESTS) == sorted(f.value for f in Family)


@pytest.mark.parametrize("family", sorted(FAMILY_DIGESTS))
def test_family_analyze_bytes(family: str, tmp_path, capsys):
    path = str(tmp_path / f"{family}.json")
    assert cli.main(["generate", family, "--out", path]) == cli.EXIT_OK
    assert _analyze_digests(path, capsys) == (FAMILY_DIGESTS[family], FAMILY_INLINED_DIGESTS[family])


@pytest.mark.parametrize("name", sorted(SIZED))
def test_sized_chain_analyze_bytes(name: str, tmp_path, capsys):
    path = str(tmp_path / f"{name}.json")
    assert cli.main(["generate", *SIZED[name], "--out", path]) == cli.EXIT_OK
    assert _analyze_digests(path, capsys) == (SIZED_DIGESTS[name], SIZED_INLINED_DIGESTS[name])


@pytest.mark.parametrize("seed", range(len(RANDOM_DIGESTS)))
def test_random_chain_analyze_bytes(seed: int, tmp_path, capsys):
    rng = random.Random(seed)
    g = random_strongly_connected(rng, rng.randint(6, 10))
    doc = cli.emit_document(FormalChain(g), f"random-{seed}")
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc.to_json()))
    assert _analyze_digests(str(path), capsys) == (RANDOM_DIGESTS[seed], RANDOM_INLINED_DIGESTS[seed])
