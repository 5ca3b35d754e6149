"""Byte-identity guard: the document ``generate`` writes is pinned by its sha256.

The digests were recorded before the family parameters moved into one table in
``prodform.models``. Any change to what ``generate`` writes, down to key order
and whitespace, changes a digest. A deliberate change must record new digests
and say why.
"""
from __future__ import annotations

import hashlib

import pytest

from prodform import Family, cli
from prodform.models import parameter_names

# (family, flags) -> document digest
DIGESTS = {
    ("batchv1", ()): "545f6ad35138465f00a81fb80b02f96229671a67acc7a2d15ba27350ffba5f65",
    ("batchv2", ()): "22b91a6024e91d613218285ca8b652378bbc862b6fa291a96cc509b16000da5b",
    ("bd", ()): "0914792f7a74f6d0709e7da3f093994c881e625586b3620c819ea234666674be",
    ("ladder", ()): "c18519bfa293d190a0040979d08c94ed44a0cb5ae65cefe20042df757502bd6d",
    ("msj", ()): "0aa4a8adc743c098c3052303bc7a97ab7d265230ff2afee6a97bd795103e61cc",
    ("oneway", ()): "ffe9d744b334bb3cfb85f8bcdd19525460edd69b6086283540160098717bdeaa",
    ("onewayplus", ()): "ebca4a925c0ffbd5981bc5592edc2ffb2aa41f66e6aa62c6c80522e8249363c4",
    ("qbd", ()): "528993d0c918417d084fc8b1a8f007b1b4a0e460388cd46c11afefd263e54676",
    ("ring", ()): "54f3975413a60a7f8a02fa9de8e0461a9afa6f9de04700414de0528319b2ee1f",
    ("tree", ()): "9f0d3ac48c294be903bfc49c8f70d0348bf2bda11e827ad998ceffc9f1ea2c3a",
    ("twoway", ()): "6652808e2e24b9f77be40fb6935690e75dbe11a6091eda40cfaf7f7fabbb4a3d",
    # The multiserver chain off its default size.
    ("msj", ("--c1", "2", "--c2", "5", "--servers", "12")):
        "a55e4983a7b3056d295f827cd318a757c1cc1c055f8e8188d5b7a4a415dd3a1b",
}

# Parameters off a family's default; ``expected_fixtures`` pins nothing for these
# (``tests/test_models.py``), but their documents are pinned all the same.
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


def _generate(tmp_path, family: str, flags: tuple[str, ...]) -> bytes:
    path = tmp_path / "doc.json"
    assert cli.main(["generate", family, *flags, "--out", str(path)]) == cli.EXIT_OK
    return path.read_bytes()


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
    assert _sha(_generate(tmp_path, family, flags)) == DIGESTS[(family, flags)]


@pytest.mark.parametrize("family, flags, digest", UNPINNED, ids=[c[0] for c in UNPINNED])
def test_non_default_parameters_print_unpinned(family: str, flags, digest: str, tmp_path):
    assert _sha(_generate(tmp_path, family, flags)) == digest


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
