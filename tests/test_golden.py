"""Golden digests: the canonical artifacts of every preset, byte for byte.

The sha256 of each preset's canonical ``report.json`` and
``trajectory.json`` (as ``scripts/run_presets.py --out`` writes them) is
pinned, so a change that should leave outputs alone is checked to do so.
A change that moves an output on purpose updates the digests here and says
why.
"""

import hashlib

import pytest

from billiardknots.pipeline import RealizationSpec, realize
from billiardknots.presets import PRESETS
from billiardknots.serialization import write_artifacts

GOLDEN = {
    "unknot": (
        "d184bc0e6e0d0446a5fe5726c8ef431d1e44ac6d21933810d55b31ec2898efa9",
        "4058d80a3e2a33108958d1e93c1da8b41184f06b3f3d31c38857add517321e04",
    ),
    "trefoil": (
        "80f012867d13691fe44ef101827925c1eda1b60907f7d0625d21e9adbbf5fadc",
        "a64e4fc358294c28bc97e5d724a07417b681a13cb5c4ba7564366730d8baac08",
    ),
    "figure-eight": (
        "f83ab8c10b83310aebe7fd9f7233e22900d3de1db3bcc54bde5165fd044364a0",
        "4b051ad7b8d741ab9c5ad432302f5feda9fb95dfe7bb95b515a260bad4269377",
    ),
    "torus-2-5": (
        "04b7e2233189cebcea42378a8132c25c513e0d252425f1ffcdb647ed5ff56d5c",
        "29d8327a439ee840ccabf93cce372d2c916b97d730eb2ec35ed8be4c30cca05a",
    ),
    "torus-3-7": (
        "4be6622881dca8188d825bf1e173efb2dd706066acb01e85bb78f4ea7ad64a05",
        "1a19bf6e29a9632c65bb9e0ec6b4cb9c157053477179521845c5756c6ec03158",
    ),
    "star-10-3": (
        "4a9de2344efbf5718af3b1739891dc4dd23a2cf94ca55423d9b251c7140cc0ce",
        "d7a4ead6d4e0f4f69336d2ff110f267708c3c527a520c26581c9bf1a8842389e",
    ),
    "star-10-2": (
        "792dd22e52c6660659e621a740658e6f16547dd74ce3badd4fbb3bfbde06d512",
        "25bc7bf59c6f3440fcdfb3b5894f8ac7f33a81a3aad8b0445b4c1c936add39d8",
    ),
    "star-9-3": (
        "798145518d2595773df2bd7b06e697ba168f6c44931c37f785aabff1b8148458",
        "4e22d062cfbc14e6a07028a0f3eae76a7cd731077f81f8066940e7440e2276da",
    ),
    "hopf": (
        "7d5ff8dbae30231d09c9afb1c8f4b17fab906e7e61aaa4083ea9b99611ddf99a",
        "2d64c348a42e9e2fd1c20df0df4107eb697e0bd5d75826a9f11f23355c74d9ee",
    ),
}


def test_every_preset_has_a_golden_digest():
    assert sorted(GOLDEN) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_artifacts_match_golden_digests(name, tmp_path):
    result = realize(RealizationSpec(pattern=PRESETS[name], preset=name))
    paths = write_artifacts(result, tmp_path, canonical=True)
    digests = tuple(
        hashlib.sha256(paths[kind].read_bytes()).hexdigest() for kind in ("report", "trajectory")
    )
    assert digests == GOLDEN[name]
