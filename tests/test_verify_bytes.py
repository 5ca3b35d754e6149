"""Byte-identity guard: ``verify`` reports are pinned by their sha256 and exit code.

Three runs are pinned per chain: ``--seeds 3``, ``--seeds 1 --fault`` and
``--seeds 2 --fault 7``. The chains are every family at its default size and
the eight seeded random chains of ``test_analyze_bytes.py``, and its four
larger ``SIZED`` chains. Its two batch-deep chains check 26 and 5 cuts of
level 2 and up; their digests were recorded before a cut side was read by a
walk over the lane states, and held after. The digests were re-recorded when ``verify`` stopped
writing a row per level-1 cut, since such a cut's balance is its relation,
and began naming each cut row of level 2 and up by its level and sources
instead of side A's labels. The 12 that held are the runs with no cut row:
the empty fault runs, ``twoway`` and three random chains. Any change to what ``verify`` prints, down to key order, float digits and
whitespace, changes a digest. A deliberate change of the report must record
new digests and say why.
"""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from prodform import Family, FormalChain, cli

from util import random_strongly_connected
from test_analyze_bytes import SIZED

RUNS = {
    "seeds3": ("--seeds", "3"),
    "fault": ("--seeds", "1", "--fault"),
    "fault7": ("--seeds", "2", "--fault", "7"),
}

# chain -> run -> (exit code, stdout sha256). twoway, random-0, random-6 and
# random-7 have no relation to fault, so their fault runs exit 2 and print nothing.
DIGESTS: dict[str, dict[str, tuple[int, str]]] = {
    "batchv1": {
        "fault": (1, "90bbfedc7cb2a4443b2ed34b5a5099d1047e196729495ba9344b50f9878235a0"),
        "fault7": (1, "86febaead318a08d8e2ca149ed6f763e6d8d1548bfe7cb9080f3a0630f649fd5"),
        "seeds3": (0, "929e815386e269bec4392ec804fb111b8a32e3312937caabb4e5d57dc2d369fe"),
    },
    "batchv2": {
        "fault": (1, "cb72e69e49feaeb36126f9fe77a7546e4ec9ed97f22e6baf617c39743b2a61f8"),
        "fault7": (1, "ecea0557b22f60dfc367fcd92f319493e0a5e4388610953519fceeb23ab90082"),
        "seeds3": (0, "8ee33e2e4afcc6b0dc0e0ffd3ddf10723662daacda520d335132e31794eaae1d"),
    },
    "bd": {
        "fault": (1, "2dd5738acd05b694f2fefd2371c70ae379cc3d6ce9e2a871a8bf8c3b78bf9b2a"),
        "fault7": (1, "c5407ecbd92feccd7e3fb2c1d4ebb611cbe0d5f44bc2cb0d78353ec26b6c0479"),
        "seeds3": (0, "26cbfae6136fa5f7573e3afe0a4a234605e9b783d174795145ebed549cded480"),
    },
    "ladder": {
        "fault": (1, "ac71723ea57861f171b76dd7c0b444f2578a4126a0b24e69e440c2b502d33bef"),
        "fault7": (1, "de08d4070f3b5a677f7eeec02ed239c7811c3f051a38fc258fe30ed491b3329b"),
        "seeds3": (0, "5909d0cb71f7e0bbad6b5eaeedf06038bb39cb1497bec9a7896f7724c60397cd"),
    },
    "msj": {
        "fault": (1, "74a88101fdd05c1591f49eb2f2e211710b1aee2b5128d84a1ecbe7e51c993c49"),
        "fault7": (1, "5239a38f0fcdeaff88a82ca24aa0d13a71ecbd3ff4f6ef9d53d0e0c31ceea7c5"),
        "seeds3": (0, "9acdde6105c8ca2c7ceadb1dd51f845a62e6e4910e7abe636ff152604a57bd33"),
    },
    "oneway": {
        "fault": (1, "6442f2a5752088a07b2d6e363909bbde9bdcff37606ed78929e9547584aa9b3d"),
        "fault7": (1, "a77aae22cfd54df8605b45002bf56ec50de343675fb52fd41fb272a230b8bfdf"),
        "seeds3": (0, "ac573561f92fe0261e164e5fd748257198b950f58d21362a922a089a2b889e05"),
    },
    "onewayplus": {
        "fault": (1, "865e9e7b0c6ec578ac4d20a3ba77e69470bfa9eccc624d91e9e436c2778b92fd"),
        "fault7": (1, "13e438bbd54ec6961423f36801a21864eaad12c5281d456a1307595b37b080dc"),
        "seeds3": (0, "7cbc9040c4b77f81bdc210a737a61df8522810b420d8261e4fd679deae393141"),
    },
    "qbd": {
        "fault": (1, "e94c905bd7b1d3a5866f84b6176f8b7b8708ad0e240f4481f833e4ff58f18aa1"),
        "fault7": (1, "ab426a76915cf5204760e2f2135307981b10c1949186e945b7ba7bb5a20d22df"),
        "seeds3": (0, "bbcbd2b1d38b14983653cf3e527954bafda6a7245dcf1712705f68fbf13b6a35"),
    },
    "ring": {
        "fault": (1, "a29aec570709b495a1fe6943479c4fbfe0d03b7e6201c75c745460b3024ab0bc"),
        "fault7": (1, "23a5caa56a35d6d1e86854f2e6c4ee2bac0fc3acc1d46ef3ae611e3b0b4386c7"),
        "seeds3": (0, "4b1e2e8b38845427c48335e8956f8807327b009dc4863860399b6232cf54f100"),
    },
    "tree": {
        "fault": (1, "4124d6c72be40c6bb6afe5e735dac346a4eeacd42f1aa099e7c3a438c330a3e5"),
        "fault7": (1, "c9394392e71cbb004c9940904a4baac4505fc9ae6808c8559320c1b7c062b944"),
        "seeds3": (0, "4b51dab13c8701aed013a0bedfe0668467b34f537add6f0e977691072613af7e"),
    },
    "twoway": {
        "fault": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "fault7": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "seeds3": (0, "b1f8a4e4793174b6c2ba24d13048f49e7d0897ec03ece85930214a3a4eba78f1"),
    },
    "oneway-70": {
        "fault": (1, "e00da4e0886b001219b9c2a8010e1a7288c05627903b6126dd8d8e00f0041e74"),
        "fault7": (1, "670efc2952fafa35d1f0feb86f030a10c7d6d6c053af371843e287e9a9361652"),
        "seeds3": (0, "f47c225b7ec03466029daecad8707216f18e250b45123017439c8f040e6065f8"),
    },
    "qbd-16x5": {
        "fault": (1, "e4d23e09f028093cc2317fe9f8b328f537094b4427b0a38192f8bcdb9109967f"),
        "fault7": (1, "8b2d9a5b3ac7b2833670e53a0ad670b001bae973d5622617a4973702197e0f65"),
        "seeds3": (0, "51a4dd0c78212c00720df162a1543043af1bc44613ffc1172375049d7b2b03da"),
    },
    "batchv1-x3-40": {
        "fault": (1, "6d001052893623bec00e865eeff9bd7cadbd24a0dae0efbd9f98eb1f7d62a19a"),
        "fault7": (1, "f42e5feeed73081280e33a27a8a1e674515a69ad44df13e3211a27647d1455ec"),
        "seeds3": (0, "f9a384bf2413e0944eca0acfdb91a7e460dfd86551743025cd34ae8e7ce94d8a"),
    },
    "batchv2-40": {
        "fault": (1, "a14e74824087b22f8e0afe4a48cb716065b1e87400d1b10e63f3695784cc70a9"),
        "fault7": (1, "8b3e031ca6a424e094c60f39833f32036597de4b52c32b10d58c9a7407c44797"),
        "seeds3": (0, "0a7921a1e1aad593b7a5129f6d62de515346e2527229eb583e0cd5d14474f665"),
    },
    "random-0": {
        "fault": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "fault7": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "seeds3": (0, "f74f840694014e0047e60c7816754c6d2a8c612253d34f2ffd475cf5397d512a"),
    },
    "random-1": {
        "fault": (1, "c8fa290339d56c38a34a62d5b17414406df690d7ad918a61bc5b960e720e3f73"),
        "fault7": (1, "84a8592e8e893dbd27866000220bd5b98aa132e9e8386c2f9e4453db1566ad26"),
        "seeds3": (0, "61339e561e4f305f71b8df5f88419b6da1823da0f23dd7682f205c69f18595a5"),
    },
    "random-2": {
        "fault": (1, "7deb4523b9603d48df3f9b2ad0c1491884056097214705f0ed50277849988b23"),
        "fault7": (1, "384bd54bbf5ae62c5803c73cd6adb38a1d09a4187943e796e999184bef74ec25"),
        "seeds3": (0, "05e56aa7ff73bd194f2215f3d4efb5d03e0906c813ce867a2b68590680bf68a0"),
    },
    "random-3": {
        "fault": (1, "718bb7583b6078bb46c80a410452aa6ff21c7df99ccba7f288cea840d35d469a"),
        "fault7": (1, "6e4fe699dd085de1eb056f7627571c7db95f898b46e47a874c3dc0f48de1ac38"),
        "seeds3": (0, "c37b9d385b4cf1f9b51e6435576a9f055c6708c2f75c418c56cd52f4e3cb724f"),
    },
    "random-4": {
        "fault": (1, "a63eff678b3557768daeb5f0bff544ec770e94064cdedd41fe9a7c2f075309e7"),
        "fault7": (1, "9a9d5c0b3a8b58cf478580f94d52aa58e79147927c6b4c16d4c659890d021a3b"),
        "seeds3": (0, "2f6707438d13e36c36957f6baa634b4594f899b019998fe5f572b6916f18d22d"),
    },
    "random-5": {
        "fault": (1, "92271513ec3b55d6039c172ee3a8dbb18e79db2f56a89c19edba852188afb0f0"),
        "fault7": (1, "73b7c0fd37176f53f85126aae8c29efcff52a8a6962a32b44363b37f2b8685a4"),
        "seeds3": (0, "166d84ae7d92e597b494f95be8346da9a29e6aa046e1687cb1f12fabfa2fba37"),
    },
    "random-6": {
        "fault": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "fault7": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "seeds3": (0, "01f746e7a1a0d2b69b3d39d986c4924f17b5ad37ee3590b0ee518963a60c85e6"),
    },
    "random-7": {
        "fault": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "fault7": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "seeds3": (0, "c631e91c3dd1491abbad13665838b86e3c5f9832c3d27445e1745b902f8e86bf"),
    },
}


def _verify(path: str, run: str, capsys) -> tuple[int, str]:
    capsys.readouterr()
    rc = cli.main(["verify", path, *RUNS[run]])
    return rc, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _family_path(family: str, tmp_path) -> str:
    path = str(tmp_path / f"{family}.json")
    assert cli.main(["generate", family, "--out", path]) == cli.EXIT_OK
    return path


def _random_path(seed: int, tmp_path) -> str:
    rng = random.Random(seed)
    g = random_strongly_connected(rng, rng.randint(6, 10))
    doc = cli.emit_document(FormalChain(g), f"random-{seed}")
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc.to_json()))
    return str(path)


FAMILIES = sorted(f.value for f in Family)
RANDOM_SEEDS = range(8)


def test_every_family_and_run_is_pinned():
    expected = FAMILIES + list(SIZED) + [f"random-{s}" for s in RANDOM_SEEDS]
    assert sorted(DIGESTS) == sorted(expected)
    assert all(sorted(runs) == sorted(RUNS) for runs in DIGESTS.values())


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("family", FAMILIES)
def test_family_verify_bytes(family: str, run: str, tmp_path, capsys):
    assert _verify(_family_path(family, tmp_path), run, capsys) == DIGESTS[family][run]


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("name", sorted(SIZED))
def test_sized_chain_verify_bytes(name: str, run: str, tmp_path, capsys):
    path = str(tmp_path / f"{name}.json")
    assert cli.main(["generate", *SIZED[name], "--out", path]) == cli.EXIT_OK
    assert _verify(path, run, capsys) == DIGESTS[name][run]


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_chain_verify_bytes(seed: int, run: str, tmp_path, capsys):
    assert _verify(_random_path(seed, tmp_path), run, capsys) == DIGESTS[f"random-{seed}"][run]
