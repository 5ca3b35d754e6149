"""Byte-identity guard: ``generate --with-fixtures`` output is pinned by its sha256.

Each case pins two files: the graph document and the ``.fixtures.json`` next to
it. The digests were recorded before the family parameters moved into one
table in ``prodform.models``. Any change to what ``generate`` writes, down to
key order and whitespace, changes a digest. A deliberate change of either file
must record new digests and say why.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from prodform import Family, cli
from prodform.models import parameter_names

# (family, flags) -> (document digest, fixtures digest)
DIGESTS = {
    ("batchv1", ()): (
        "545f6ad35138465f00a81fb80b02f96229671a67acc7a2d15ba27350ffba5f65",
        "ce2160fcb3c9fd140795bd565e9cf142a1e93fc008093d38bbdca8c920bb07a6",
    ),
    ("batchv2", ()): (
        "22b91a6024e91d613218285ca8b652378bbc862b6fa291a96cc509b16000da5b",
        "ec619badf77ce1aba704afb0faf314185bd3625acb3e8e35055399001debd51a",
    ),
    ("bd", ()): (
        "0914792f7a74f6d0709e7da3f093994c881e625586b3620c819ea234666674be",
        "dc434429bc21db6eaa4a46afec40f7322e7360d92d6e9298183af4a73a823cc2",
    ),
    ("ladder", ()): (
        "c18519bfa293d190a0040979d08c94ed44a0cb5ae65cefe20042df757502bd6d",
        "144889f640b7421d3496977608b1b2c3cdec92de01e026afb16a898ccc306028",
    ),
    ("msj", ()): (
        "0aa4a8adc743c098c3052303bc7a97ab7d265230ff2afee6a97bd795103e61cc",
        "61412acefb89739f4db25f9c313324228611cba7dae3162040585f53fcdb4ab7",
    ),
    ("oneway", ()): (
        "ffe9d744b334bb3cfb85f8bcdd19525460edd69b6086283540160098717bdeaa",
        "4c848db32231e84eaaf505c1989bd18595d1e794c6bd21be2e7aa883ba5f1f0e",
    ),
    ("onewayplus", ()): (
        "ebca4a925c0ffbd5981bc5592edc2ffb2aa41f66e6aa62c6c80522e8249363c4",
        "a6369231b1189e9fc7a055191ea5d46bef5d3cd4cf2ef8aecbf2e0c14addd2fd",
    ),
    ("qbd", ()): (
        "528993d0c918417d084fc8b1a8f007b1b4a0e460388cd46c11afefd263e54676",
        "6801be8c07c64d3b7091d014eac7016ac7c7afa25e1f1b29b80cdfd6f88bdf9d",
    ),
    ("ring", ()): (
        "54f3975413a60a7f8a02fa9de8e0461a9afa6f9de04700414de0528319b2ee1f",
        "1006a547f51100ad63985d4655a2cf03f3effbe50b52cc55f3b80f3283448045",
    ),
    ("tree", ()): (
        "9f0d3ac48c294be903bfc49c8f70d0348bf2bda11e827ad998ceffc9f1ea2c3a",
        "6801be8c07c64d3b7091d014eac7016ac7c7afa25e1f1b29b80cdfd6f88bdf9d",
    ),
    ("twoway", ()): (
        "6652808e2e24b9f77be40fb6935690e75dbe11a6091eda40cfaf7f7fabbb4a3d",
        "3b240f2446de03b83fe96218d5ec9d42e1d07fff4b1cc2dd8ec2e69a8759db7a",
    ),
    # Off its default size the multiserver chain keeps a composed closed form.
    ("msj", ("--c1", "2", "--c2", "5", "--servers", "12")): (
        "a55e4983a7b3056d295f827cd318a757c1cc1c055f8e8188d5b7a4a415dd3a1b",
        "2cc6c847834b1bd65ae01f55661383557b812b06c10d10d6801be8e8393d88c1",
    ),
}

# Families whose fixtures are pinned only at their default parameters.
UNPINNED = [
    (
        "onewayplus",
        ("--n", "6", "--k", "4"),
        "53c9f28ca80389d4a8b4156077ece358f93180d1551320a95a9e615176292f22",
    ),
    (
        "batchv1",
        ("--multiple", "2", "--truncate", "5"),
        "c0bd4d33bfe4a6c9c23045d2d01d37dbb4d2595c433665a29f6d291b0c3698f5",
    ),
    (
        "batchv2",
        ("--truncate", "4"),
        "0b94a4b33eb7021d29700cba9360039fa811e5c811ccc72f25f65b9ae50b2255",
    ),
]

# Every family's parameters at their defaults, spelled as command-line flags.
DEFAULT_FLAGS = {
    "batchv1": {"--multiple": "3", "--truncate": "8"},
    "batchv2": {"--truncate": "6"},
    "bd": {"--n": "6"},
    "ladder": {},
    "msj": {"--c1": "3", "--c2": "10", "--servers": "30"},
    "oneway": {"--n": "5"},
    "onewayplus": {"--n": "5", "--k": "3"},
    "qbd": {"--blocks": "3", "--blocksize": "3"},
    "ring": {},
    "tree": {"--n": "7"},
    "twoway": {"--n": "5"},
}


def _generate(tmp_path, family: str, flags: tuple[str, ...]) -> tuple[bytes, bytes]:
    path = tmp_path / "doc.json"
    argv = ["generate", family, *flags, "--out", str(path), "--with-fixtures"]
    assert cli.main(argv) == cli.EXIT_OK
    return path.read_bytes(), Path(f"{path}.fixtures.json").read_bytes()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_family_is_pinned_at_its_default():
    families = sorted(f.value for f in Family)
    assert sorted(family for family, flags in DIGESTS if not flags) == families
    assert sorted(DEFAULT_FLAGS) == families


@pytest.mark.parametrize(
    "family, flags", sorted(DIGESTS), ids=[" ".join((f, *flags)) for f, flags in sorted(DIGESTS)]
)
def test_generate_with_fixtures_bytes(family: str, flags: tuple[str, ...], tmp_path):
    doc, fixtures = _generate(tmp_path, family, flags)
    assert (_sha(doc), _sha(fixtures)) == DIGESTS[(family, flags)]


@pytest.mark.parametrize("family, flags, digest", UNPINNED, ids=[c[0] for c in UNPINNED])
def test_non_default_parameters_print_unpinned(family: str, flags, digest: str, tmp_path):
    doc, fixtures = _generate(tmp_path, family, flags)
    assert _sha(doc) == digest
    assert fixtures == b'{\n  "pinned": false\n}\n'


@pytest.mark.parametrize(
    "family, flag",
    [(family, flag) for family in sorted(DEFAULT_FLAGS) for flag in DEFAULT_FLAGS[family]],
)
def test_passing_a_default_equals_leaving_it_out(family: str, flag: str, tmp_path):
    bare = _generate(tmp_path, family, ())
    assert _generate(tmp_path, family, (flag, DEFAULT_FLAGS[family][flag])) == bare


def test_default_flags_cover_every_parameter():
    flags = {flag for family in DEFAULT_FLAGS.values() for flag in family}
    names = {"truncation" if flag == "--truncate" else flag[2:] for flag in flags}
    assert names == set(parameter_names())
