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
        "e0652a1dd0686e603505ea3fde1e62e1a1e350ba098f00515ae5ca29d21b8893",
    ),
    "trefoil": (
        "80f012867d13691fe44ef101827925c1eda1b60907f7d0625d21e9adbbf5fadc",
        "9194763c308ad110f3f0005a559cdd94ddb57a4985492cea91e0d25928ca7d37",
    ),
    "figure-eight": (
        "f83ab8c10b83310aebe7fd9f7233e22900d3de1db3bcc54bde5165fd044364a0",
        "70ea04fc3d13ea462b33cd6e948d23140715a31d50a94cdf94b71af49821b496",
    ),
    "torus-2-5": (
        "04b7e2233189cebcea42378a8132c25c513e0d252425f1ffcdb647ed5ff56d5c",
        "3f805fca704d5f9f862b16d7c207638691a38b2a0db5d0a78d9ed871573e4252",
    ),
    "torus-3-7": (
        "4be6622881dca8188d825bf1e173efb2dd706066acb01e85bb78f4ea7ad64a05",
        "e5776cd3b84e0785640ce02525f3d66bdd4f8ecc63c666ba05d42d64fba41647",
    ),
    "star-10-3": (
        "4a9de2344efbf5718af3b1739891dc4dd23a2cf94ca55423d9b251c7140cc0ce",
        "29e6f60cc8913bcc4a84a76b218550fb5a5d9cc713e783e383f6cb3b9ce891dc",
    ),
    "star-10-2": (
        "792dd22e52c6660659e621a740658e6f16547dd74ce3badd4fbb3bfbde06d512",
        "908394685aa3fd382837d66d0914129b010e8885f6dbe2336166c264d008dee7",
    ),
    "star-9-3": (
        "798145518d2595773df2bd7b06e697ba168f6c44931c37f785aabff1b8148458",
        "0876b2ba5d0e4afaf77b3084fac76e5aa193f9687864cc66e4a9aa0c4dbf9dd6",
    ),
    "hopf": (
        "7d5ff8dbae30231d09c9afb1c8f4b17fab906e7e61aaa4083ea9b99611ddf99a",
        "9348df9865b3ae9fbd0875800239daf49ad96d3e5ac2c81af321624492769968",
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
