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
        "2618b64bb3c5a5570dccbffac1099b0472c355b7fd9c29bb0320fc4e9f830b7a",
    ),
    "trefoil": (
        "80f012867d13691fe44ef101827925c1eda1b60907f7d0625d21e9adbbf5fadc",
        "3cd57f43d0989594284bbb0203fa0de85871eec0940a648c4542998b8e6ae765",
    ),
    "figure-eight": (
        "f83ab8c10b83310aebe7fd9f7233e22900d3de1db3bcc54bde5165fd044364a0",
        "e17db2e62b434b7b5b925c90972f801e583594c71899eacd84c7f11f16efb0a7",
    ),
    "torus-2-5": (
        "04b7e2233189cebcea42378a8132c25c513e0d252425f1ffcdb647ed5ff56d5c",
        "fc9b7fa486d3baf6faf170bea0a318fe84725fe99c3585d90022a0da714502bf",
    ),
    "torus-3-7": (
        "4be6622881dca8188d825bf1e173efb2dd706066acb01e85bb78f4ea7ad64a05",
        "12dd2e8af57dc24ea6fbb63e8c0a510f066d275d755213451846223b293c1cf2",
    ),
    "star-10-3": (
        "4a9de2344efbf5718af3b1739891dc4dd23a2cf94ca55423d9b251c7140cc0ce",
        "4128de71e0284a68eea56792929bbf6bbba4f82482bd8e39fad7ac8a162cdea6",
    ),
    "star-10-2": (
        "792dd22e52c6660659e621a740658e6f16547dd74ce3badd4fbb3bfbde06d512",
        "92309675f5e8d18aeaf4c7a51c2252e4c93bc216a9cfd522d15a81a6c45f412a",
    ),
    "star-9-3": (
        "798145518d2595773df2bd7b06e697ba168f6c44931c37f785aabff1b8148458",
        "e38413964f124388a067eced9cf608a33378017b31da803940f714d233007e5d",
    ),
    "hopf": (
        "7d5ff8dbae30231d09c9afb1c8f4b17fab906e7e61aaa4083ea9b99611ddf99a",
        "529b592de14a59d9aa28a9d3d890e20a02818e01f8f1f524e40fa24aa44b7b31",
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
