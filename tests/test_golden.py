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
        "bcfc2bf1b5b4e0b36a0bc91e6f99511e31fb0529a370470ecedf88a2059699e7",
    ),
    "trefoil": (
        "80f012867d13691fe44ef101827925c1eda1b60907f7d0625d21e9adbbf5fadc",
        "6e37d8d2df360aad9c90c274c92ec103f004d198993f5857432b666ebc1a70fd",
    ),
    "figure-eight": (
        "f83ab8c10b83310aebe7fd9f7233e22900d3de1db3bcc54bde5165fd044364a0",
        "936ff9597cec5916d41437473b7b7d5a90c116b80dd713835e3508c60f1d86a1",
    ),
    "torus-2-5": (
        "04b7e2233189cebcea42378a8132c25c513e0d252425f1ffcdb647ed5ff56d5c",
        "c8f40d6401a2f1cfd2d2e6d60526b527d60b670aeee91ec441aa9d753e26f666",
    ),
    "torus-3-7": (
        "4be6622881dca8188d825bf1e173efb2dd706066acb01e85bb78f4ea7ad64a05",
        "f8989fc00f9c0f83fb81d3d4d510f5c21c046fe652edff03ca00d61d2269661c",
    ),
    "star-10-3": (
        "4a9de2344efbf5718af3b1739891dc4dd23a2cf94ca55423d9b251c7140cc0ce",
        "c7a684fe88d50fb989cd4e6968922279b403ceacfe3ef157db244bec0ff7a37d",
    ),
    "star-10-2": (
        "792dd22e52c6660659e621a740658e6f16547dd74ce3badd4fbb3bfbde06d512",
        "b03e126ce4f294de82f6250cbab81c0d84ffd71c4e3a0d795f99ba15e05eae8b",
    ),
    "star-9-3": (
        "798145518d2595773df2bd7b06e697ba168f6c44931c37f785aabff1b8148458",
        "f563b4851e4d38d0be40a7c45963676f2b64341265728b4fafb0d1da78e07e58",
    ),
    "hopf": (
        "7d5ff8dbae30231d09c9afb1c8f4b17fab906e7e61aaa4083ea9b99611ddf99a",
        "1fcc927c0bac0f35ed8f60ace39fecdaa1b3703b04a4e6725a823377bacb24f2",
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
