"""Golden digests: the canonical artifacts of every preset, byte for byte.

The sha256 of each of the six canonical artifacts of every preset
(``report.json``, ``trajectory.json``, ``table.json``, ``diagram.json``,
``diagram.svg`` and ``prism.obj``, as ``scripts/run_presets.py --out``
writes them) is pinned, so a change that should leave outputs alone is
checked to do so.  A change that moves an output on purpose updates the
digests here and says why.
"""

import hashlib

import pytest

from billiardknots.pipeline import RealizationSpec, realize
from billiardknots.presets import PRESETS
from billiardknots.serialization import write_artifacts

# the order of the digests in each GOLDEN entry
KINDS = ("report", "trajectory", "table", "diagram", "diagram_svg", "mesh")

GOLDEN = {
    "unknot": (
        "d184bc0e6e0d0446a5fe5726c8ef431d1e44ac6d21933810d55b31ec2898efa9",
        "2618b64bb3c5a5570dccbffac1099b0472c355b7fd9c29bb0320fc4e9f830b7a",
        "206e808a5b6dbed0815cd2335d4bccf1dd9025c520b3ec7e0a0a09db8eac64d7",
        "e0e4b03fde1cac57c3bdfe791560542f869373547435f9f56a1bf584c0078982",
        "d13720fb56faa3abee8da526d75a2b8012cbde7998ad90ab7a2d0f3789d2f3c2",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "trefoil": (
        "80f012867d13691fe44ef101827925c1eda1b60907f7d0625d21e9adbbf5fadc",
        "3cd57f43d0989594284bbb0203fa0de85871eec0940a648c4542998b8e6ae765",
        "206e808a5b6dbed0815cd2335d4bccf1dd9025c520b3ec7e0a0a09db8eac64d7",
        "84f6e1a9f2abb852e7ac78207c3a15344a093e283ed44ecfbff3999a4bc84a95",
        "c287e3405a6813ceb6e38298710ce49b9e698b0bc6424f0c29da15211bc21af9",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "figure-eight": (
        "f83ab8c10b83310aebe7fd9f7233e22900d3de1db3bcc54bde5165fd044364a0",
        "e17db2e62b434b7b5b925c90972f801e583594c71899eacd84c7f11f16efb0a7",
        "fce1a07b187e33c0fd194feff73975b9d63d9d54ded68ef22922362d40535fd3",
        "05279b6a420d0db6c87f9c6532c35b4a7d2a1724399453395f68489e8ea5089f",
        "40c5f6e4ef4b9c1a8108fefb9f77dfce974560ebf7e09f502bebdc8d53232716",
        "daca5f1e1c481a9f1877bb2ef3aca0ff1c1433f09db828b745cd0a447522941d",
    ),
    "torus-2-5": (
        "04b7e2233189cebcea42378a8132c25c513e0d252425f1ffcdb647ed5ff56d5c",
        "fc9b7fa486d3baf6faf170bea0a318fe84725fe99c3585d90022a0da714502bf",
        "206e808a5b6dbed0815cd2335d4bccf1dd9025c520b3ec7e0a0a09db8eac64d7",
        "20118111f0bc4ede34dd8fb102490f38e9393ea3368cf9ab2ff9165b3b1d8cc1",
        "5fc475e0478f1bd469997094d5b8e8c3bcea3fdf57fe4066357d6f090a243c8a",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "torus-3-7": (
        "4be6622881dca8188d825bf1e173efb2dd706066acb01e85bb78f4ea7ad64a05",
        "12dd2e8af57dc24ea6fbb63e8c0a510f066d275d755213451846223b293c1cf2",
        "b099e37fbdd47817cd5710b2ee0c95a335bfda9dc412e44a526b396cedd1a30b",
        "79767cdc28eeef9df351a7410918c339973f9835225becfacef50c12ffc9262d",
        "8666158cb4d7ab06fcbefd6c5e3a792b268323b73c4bca2e473e59fdb9a6282f",
        "2fb1e1d5007458346fe3d1c4cbdc2765ba851fd00e964e7347ad9ffff9dd198e",
    ),
    "star-10-3": (
        "4a9de2344efbf5718af3b1739891dc4dd23a2cf94ca55423d9b251c7140cc0ce",
        "4128de71e0284a68eea56792929bbf6bbba4f82482bd8e39fad7ac8a162cdea6",
        "fb68894052178b2b6b47f2c9cff8c5e9f079995c5f2f1d8edd29832fae78d587",
        "7fee423495cd6fd0e87de38f7adbf1a1a1414c2b9aac95f16a2da5a862cbd31f",
        "313c4c894612b10fad367ed9b196abf874e21b1b5f41ed7517cd6d23af5ebc0d",
        "86c45d461fba12d8894b27d89ca9c6bf7787b02b29dabf388209774c5a551016",
    ),
    "star-10-2": (
        "792dd22e52c6660659e621a740658e6f16547dd74ce3badd4fbb3bfbde06d512",
        "92309675f5e8d18aeaf4c7a51c2252e4c93bc216a9cfd522d15a81a6c45f412a",
        "c47880b7cc6cd76633292dee5c0f79c9c23f764ac2b135ed4de51cd9c548e73a",
        "06fdcf0eb4e03aeb16d786a959f959b4597c02518714558e0cf20457bdf87d2d",
        "0f259c9bfaefd0cccf01f9c648e25a7fa5007d08f0d2ed28db735757c78327d4",
        "0fb95466f85900cf6691c99a4ae738e8b8a667613522526df7db4aeee45bd8a1",
    ),
    "star-9-3": (
        "798145518d2595773df2bd7b06e697ba168f6c44931c37f785aabff1b8148458",
        "e38413964f124388a067eced9cf608a33378017b31da803940f714d233007e5d",
        "7177d7f1ebf26388bd70d49d1ea91e196963e414c33bedd63ece5982d1feac72",
        "e14fc0d8785d947525c502a83925b50aa8aa83b58fbe46f6075b331fa53eaf30",
        "97ef63760636705d8060dc10138fa309b25eb9d2c98d682960dc6ffaa6cf6364",
        "8ac1ca356621fceae5ee3c6a3d70babe97e12c27644321098e591a8fc43e8b0d",
    ),
    "hopf": (
        "7d5ff8dbae30231d09c9afb1c8f4b17fab906e7e61aaa4083ea9b99611ddf99a",
        "529b592de14a59d9aa28a9d3d890e20a02818e01f8f1f524e40fa24aa44b7b31",
        "8f6d8088b8aeee014685656bc8ef13b0eeaa5487d341b595e099ff72fca7bbd4",
        "fa54d5e984082f2aea2e2d59d234d46fb9fae6ca316884247678d9d587b8b952",
        "cdf8ff08462284cbc8ca7b83cb3e89d63bd4eeea75c75ac6e414194fe0699df5",
        "e8055bd1912fd9f9de6681eb66f59c6fc4faf610504e69fbea09f2574be9739b",
    ),
}


def test_every_preset_has_a_golden_digest():
    assert sorted(GOLDEN) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_artifacts_match_golden_digests(name, tmp_path):
    result = realize(RealizationSpec(pattern=PRESETS[name], preset=name))
    paths = write_artifacts(result, tmp_path, canonical=True)
    digests = tuple(hashlib.sha256(paths[kind].read_bytes()).hexdigest() for kind in KINDS)
    assert digests == GOLDEN[name]
