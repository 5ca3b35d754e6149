"""Byte-identity guard: ``verify`` reports are pinned by their sha256 and exit code.

Three runs are pinned per chain: ``--seeds 3``, ``--seeds 1 --fault`` and
``--seeds 2 --fault 7``. The chains are every family at its default size and
the eight seeded random chains of ``test_analyze_bytes.py``, and its two
larger ``SIZED`` chains. The digests were recorded before relations shared
their factors, the ``SIZED`` ones before cut sides were read as byte columns.
Any change to what ``verify`` prints, down to key order, float digits and
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
        "fault": (1, "a4b287522d55b0b4fce504a220a35d0f13f12627f718b4357b140f2f26bccd5c"),
        "fault7": (1, "6e4065cc7f51b5d9191202aefd5fc87a81062e70287dcb43e965449fb25ca696"),
        "seeds3": (0, "167a61591e458240e89053114347cca2a035c9385bb9ba9cbd00ff99a1c1561c"),
    },
    "batchv2": {
        "fault": (1, "5edb189594ba4e19ca5beeac7c4757e52bcca17354af984c5da46ec312ca52c8"),
        "fault7": (1, "d29a9372df1fae39b52d1152bfa0963f4548533cf636955907cc7841da10d833"),
        "seeds3": (0, "7f61326c1b63637383ed1e14c660a96272e4789b3dd31bdfd5f5fa583060a150"),
    },
    "bd": {
        "fault": (1, "bae59bfcae51cf1f3dcb5c9d6ff5e2631e49a13668fd57c9d1874dd55a1a8ef8"),
        "fault7": (1, "ba19a64da1f777d593b182a6cfd9fe2f7156b039ba9d919470b02b45b59b267b"),
        "seeds3": (0, "56d380782a3854dbd2f82b598839c50fd8ed5103e0792fd9de4fa46ccc3d52a6"),
    },
    "ladder": {
        "fault": (1, "a330810e7e76a7dbe0126af35325208240d7ce94949f37b93f63925739a93996"),
        "fault7": (1, "67d20061af7da91e2f235813f1ba969cd0d1f43b0809802e016dda310b11fcff"),
        "seeds3": (0, "84635c76729eddbb9f26571737f536ea8ae71b229206741e9faf52b3318fb9a3"),
    },
    "msj": {
        "fault": (1, "a2d3cf4429d51413db37eddd3d295ac3b1e4cad542a36f311fd85919033d8702"),
        "fault7": (1, "878ee854481e7ccbcf6684eda05f80de005ded247fe1d9b9b1350c7b7f118d00"),
        "seeds3": (0, "06ecadca73f64b26bb776779191b410c5093844cdfa36b9222a43a6aa8efee29"),
    },
    "oneway": {
        "fault": (1, "5ac2853d7db6aafe7d1b0f66e018f0f01a06385b4ba89e4588cf87c8a432d7d3"),
        "fault7": (1, "3cd53842f9e90620680224c4c02a4ed8fafb564fc9081e38fc5f2f0598dde117"),
        "seeds3": (0, "655097c51dd539751f88a89da598c146189cbd3772ff7acbe422b06373165b5f"),
    },
    "onewayplus": {
        "fault": (1, "8c993404da00d33282b6b92efee55ad6d30483e7b095cb916bca42bf90751990"),
        "fault7": (1, "8b452d2cf354b96ed7d7d0d361c1b4ec75aec605da6752457ad33b4a1eeaabfd"),
        "seeds3": (0, "727be43249f1c5715286ea8802cf082079016f78ed2f1b7816cd75396c4ab403"),
    },
    "qbd": {
        "fault": (1, "879ca46f13c18c57950d6b255269bd0c88f4e79769e8cfef954901200ab02e25"),
        "fault7": (1, "ff2c0856784af35eed8f3e130a952677e6667b6015c50d0a42db4479d50f7671"),
        "seeds3": (0, "2784b540b9e37db07c6cf5d7d834c2b079d9d9ffe49fdc2969d9720b35d61522"),
    },
    "ring": {
        "fault": (1, "1114d72d142ce3d767624bdc916b187f50416d06970ebfb343ed1726356f8893"),
        "fault7": (1, "29012f9003e836415b56275edcb4f544505e79d0c7ae994c17e7e38a801117a9"),
        "seeds3": (0, "b28d1b7d504a2d2d67f37a28da79b5ce8aa1232ee8fb95c1a17c3b8be327ea3b"),
    },
    "tree": {
        "fault": (1, "6211ac05f16fd25babd497fd1930f50ac1e333942eb8cb5017f0ae9840fcc65c"),
        "fault7": (1, "5733fcced4e86b77bc8008bdb555b3cea91dc68ba98888e4a2ba26ca13a65f16"),
        "seeds3": (0, "62edbd720fc8b69da9ce0a3b3925f664301c8fbd9c0747ae743670ef7cf231e8"),
    },
    "twoway": {
        "fault": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "fault7": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "seeds3": (0, "b1f8a4e4793174b6c2ba24d13048f49e7d0897ec03ece85930214a3a4eba78f1"),
    },
    "oneway-70": {
        "fault": (1, "3072fa6dc108ce5b04210fe0d149400b6b499ca321f22cb716ef62b528c8d70e"),
        "fault7": (1, "ef37678d8839cbdf0417b08bb5ef0642eeef86d32e6f965c1684fc427e1d5976"),
        "seeds3": (0, "44d76e2e17002da973400631f2702fe67678afae30ddc82e44b573f4b947d9ae"),
    },
    "qbd-16x5": {
        "fault": (1, "1d15b38a92dfe543e18063083ec0f5a3b305a55dbf656cce0cb93473f5cc1c20"),
        "fault7": (1, "82ea0905a3e97c931ac9842bc007443084437266944cfd5c734a60628e532885"),
        "seeds3": (0, "557410ef5edf1d8e295342d3075d7b02b19f4f713ec4eef2b2d8c622b37eb602"),
    },
    "random-0": {
        "fault": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "fault7": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "seeds3": (0, "f74f840694014e0047e60c7816754c6d2a8c612253d34f2ffd475cf5397d512a"),
    },
    "random-1": {
        "fault": (1, "da24591d5955bbed927c99ffe6808cede2e5ee11b6f20b9e281df1d8dc9b0720"),
        "fault7": (1, "dac95469ae547eb3c8861f5667f56612fed952c19b77cd170e0cf952640770ba"),
        "seeds3": (0, "5a89e781aa964b459cb4bceebd0aeeabad9f363329f22e8456eeaac40e81b7ce"),
    },
    "random-2": {
        "fault": (1, "da50291b2b2ada052a4b416823d76857c851bafef0f7fc0cdfc4f35a1258f464"),
        "fault7": (1, "8638b3069e9d33e32c960dbdeed684e8663fac85dcec239241f53fcad0062185"),
        "seeds3": (0, "08805a5cce71f1e1f0c7f66c77f0a8315f0b8aa05e1f1f58ed1f9902f5205d3f"),
    },
    "random-3": {
        "fault": (1, "87652fec39207ec8847c28e0e850904374aba3d95dc5aa6c086bf421f51d4459"),
        "fault7": (1, "c86156b6d5d09ff91fa3a412efbf9ceadadc72eb0f68c1d35d378197953e4449"),
        "seeds3": (0, "cda6896909ac997b35b90095d7f3dd75024b9b69e67bb762a7248c2eb20e5cfe"),
    },
    "random-4": {
        "fault": (1, "0f61c0f07f03798430541cf35e68aee43f8356567b941c904854b68412afc21e"),
        "fault7": (1, "3ff9d80b10e0259c5d73b76cec7c98edac93042d178ad64791bf36d45f55a3f2"),
        "seeds3": (0, "b29eda64bed1182f77bc37c6961a0568864597edb12ae1b516588e0710c10834"),
    },
    "random-5": {
        "fault": (1, "c88d2121eb063489aad41a6df8b6f278d87db3f2e2fb5ec4cb6c3d7c7365e2af"),
        "fault7": (1, "37e251f7052edd0a8c0d701db636dcc5d6bd936ebc877326f9065d0a04bae71d"),
        "seeds3": (0, "5370970b2e9241aba1e176b0dc26bc2fa305e61d256bb768ad0868a15c454eaf"),
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
