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
        "69190a1351bcf16dffda9d10b896549d8508632dc97b67b41c27e047cd280e6c",
    ),
    "trefoil": (
        "3d3c13c9fd04b011d49eab07c0c5ce823c6bf2c4f8be23213d60b9b22b3db38f",
        "0a01163ec3de8e8ba1e180b0822b2e7859b62e070304835b73308820d872eb22",
    ),
    "figure-eight": (
        "7011d984ee2dbfa65149ffa32ba2dc3961171b427d5a2927b5f928654ab0e8cb",
        "5bbcd10dccdb41bf9a082d6aa740ff3cf073543f68a3f9dab0229b21836ab3e5",
    ),
    "torus-2-5": (
        "1072a86ee6dd9a2df46252e793f447ac48353dfad717409dda6a557a8ae5fa93",
        "fab4ad5935ed22a79a620ee24ac9d9dc93846231bb74a112df4f4fd7974b3cd8",
    ),
    "torus-3-7": (
        "7cd41eb5e50a1368a7ad14c387096e8195c2332ddf22d318780e19856bc281ee",
        "49a6c6bf9c0610c443f54f6e3924fdf401547d68e799b05b216c8b7c947d5414",
    ),
    "star-10-3": (
        "76a60c4f3dc10ef785b21340e608fdb3d3ae9a199d9525ca7796cafb39d5412b",
        "a0819acf40c5000a08f425a8955ca292cce9aaa508baeb71dbe740b94a3b4540",
    ),
    "star-10-2": (
        "ea85761e44af64eb61c3ffcadcff35de42d36d23a1a733b743e37c70c5d2f454",
        "8a4a25e12b1fc98edbf09234e94bf86f98f206b1493613f66110bf6ae757cae4",
    ),
    "star-9-3": (
        "17ed0f07031388c917a26892dd98e6dd6ef37cfb91a420ff8fba31966df6a3e0",
        "713c1bb409f1e14a3043450eba684e4cd9bc8813d1b7cb276dc7623d9c4ab06b",
    ),
    "hopf": (
        "0277e3cb02ad5449a7ceb4ceced8a8846a12f82989909931567ff6c525c6a1ca",
        "94e36a4961b8e48616a62ce35d98343decf7ac370ed54fae28b61b5e73f7c85b",
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
