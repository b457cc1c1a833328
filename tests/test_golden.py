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
        "e84dc3a1589bcbd49ca3acc5712f5387bd739ab849d08d16f4644bc9e96db004",
        "947c5ff367e1cc29cbad1a62c151716977c361ce3189da68f27235537dd7b399",
    ),
    "trefoil": (
        "3d3c13c9fd04b011d49eab07c0c5ce823c6bf2c4f8be23213d60b9b22b3db38f",
        "131c50ff605abdc62bc8e575ddae626de7d9091418b43609c32a8df844fc0e86",
    ),
    "figure-eight": (
        "7011d984ee2dbfa65149ffa32ba2dc3961171b427d5a2927b5f928654ab0e8cb",
        "7af4aae5a57fe9e530397c3b773c4558f05ce67896bcc90b70c12093dd7a5f31",
    ),
    "torus-2-5": (
        "1072a86ee6dd9a2df46252e793f447ac48353dfad717409dda6a557a8ae5fa93",
        "2e4b317a3bc7bd6c888a44edc8df6d4f2bfa46a2cb1e0f88e61e9de6c43d1d62",
    ),
    "torus-3-7": (
        "7cd41eb5e50a1368a7ad14c387096e8195c2332ddf22d318780e19856bc281ee",
        "158dc9b4d746c34ccbe1aecab731ab1f7ce79419ae8414878b378b5947fc9deb",
    ),
    "star-10-3": (
        "76a60c4f3dc10ef785b21340e608fdb3d3ae9a199d9525ca7796cafb39d5412b",
        "68cf99c525ead24c73cc1a80010aa33f5a9eb7f14b16a7c2521d1be09caa65e7",
    ),
    "star-10-2": (
        "ea85761e44af64eb61c3ffcadcff35de42d36d23a1a733b743e37c70c5d2f454",
        "f462ab7d2d6a86f7f82009ca47265f341e357138d9e76c341959676c72867885",
    ),
    "star-9-3": (
        "17ed0f07031388c917a26892dd98e6dd6ef37cfb91a420ff8fba31966df6a3e0",
        "589c75b3507a12c0d0b976a25f4e5744a093e00916dc962a66eca6c7350430a5",
    ),
    "hopf": (
        "0277e3cb02ad5449a7ceb4ceced8a8846a12f82989909931567ff6c525c6a1ca",
        "abe2e0562f3a1fb0c6699cfc2204ca92e846c0d2e0ea8a4d964dfddadbd9f92c",
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
