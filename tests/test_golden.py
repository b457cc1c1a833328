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
        "4058d80a3e2a33108958d1e93c1da8b41184f06b3f3d31c38857add517321e04",
    ),
    "trefoil": (
        "3d3c13c9fd04b011d49eab07c0c5ce823c6bf2c4f8be23213d60b9b22b3db38f",
        "a64e4fc358294c28bc97e5d724a07417b681a13cb5c4ba7564366730d8baac08",
    ),
    "figure-eight": (
        "7011d984ee2dbfa65149ffa32ba2dc3961171b427d5a2927b5f928654ab0e8cb",
        "4b051ad7b8d741ab9c5ad432302f5feda9fb95dfe7bb95b515a260bad4269377",
    ),
    "torus-2-5": (
        "1072a86ee6dd9a2df46252e793f447ac48353dfad717409dda6a557a8ae5fa93",
        "29d8327a439ee840ccabf93cce372d2c916b97d730eb2ec35ed8be4c30cca05a",
    ),
    "torus-3-7": (
        "7cd41eb5e50a1368a7ad14c387096e8195c2332ddf22d318780e19856bc281ee",
        "1a19bf6e29a9632c65bb9e0ec6b4cb9c157053477179521845c5756c6ec03158",
    ),
    "star-10-3": (
        "76a60c4f3dc10ef785b21340e608fdb3d3ae9a199d9525ca7796cafb39d5412b",
        "d7a4ead6d4e0f4f69336d2ff110f267708c3c527a520c26581c9bf1a8842389e",
    ),
    "star-10-2": (
        "ea85761e44af64eb61c3ffcadcff35de42d36d23a1a733b743e37c70c5d2f454",
        "25bc7bf59c6f3440fcdfb3b5894f8ac7f33a81a3aad8b0445b4c1c936add39d8",
    ),
    "star-9-3": (
        "17ed0f07031388c917a26892dd98e6dd6ef37cfb91a420ff8fba31966df6a3e0",
        "4e22d062cfbc14e6a07028a0f3eae76a7cd731077f81f8066940e7440e2276da",
    ),
    "hopf": (
        "0277e3cb02ad5449a7ceb4ceced8a8846a12f82989909931567ff6c525c6a1ca",
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
