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
        "3c608029bb865d55996671d61de61ddcef16ccb341f5c5e97a1f7ad23d213f2c",
        "8455d01940c25d049889a3df05128441e9ba860138e259a8aeebc65dccaa16b4",
        "20037db45decc05feaf085d438f7b8846c97dafa7079b700e8201bc71659f7df",
        "e0e4b03fde1cac57c3bdfe791560542f869373547435f9f56a1bf584c0078982",
        "d13720fb56faa3abee8da526d75a2b8012cbde7998ad90ab7a2d0f3789d2f3c2",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "trefoil": (
        "f1e83d43cd550e9c89a9062aa79804b9336e5a31276c2d97681288f509644a09",
        "27eef837af94aacce1cc412b24ab99d3baf3432376a76e190733450ec01759f5",
        "20037db45decc05feaf085d438f7b8846c97dafa7079b700e8201bc71659f7df",
        "84f6e1a9f2abb852e7ac78207c3a15344a093e283ed44ecfbff3999a4bc84a95",
        "c287e3405a6813ceb6e38298710ce49b9e698b0bc6424f0c29da15211bc21af9",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "figure-eight": (
        "87a39ccbb06b3cba67992ec151e7e910ed3d26b7ea4cb91d6635b2c0d3622403",
        "421dab3ef96d938fe392f34509c48fcabab64fcea2bc8794393e2d0e9e1707c5",
        "b10b3055beaa2174b5eb02f6e1f9b87b56ffc402a362b41959d37a3478256ffb",
        "05279b6a420d0db6c87f9c6532c35b4a7d2a1724399453395f68489e8ea5089f",
        "40c5f6e4ef4b9c1a8108fefb9f77dfce974560ebf7e09f502bebdc8d53232716",
        "daca5f1e1c481a9f1877bb2ef3aca0ff1c1433f09db828b745cd0a447522941d",
    ),
    "torus-2-5": (
        "cd2a9b54095faf769e5ba939b9d011d31d7e4b379ce70a2eca1301a34c9e68dd",
        "12043086f9079f3dc12e8fa35509b9aff24714d87d5d9c17e1a2e82b3e75f474",
        "20037db45decc05feaf085d438f7b8846c97dafa7079b700e8201bc71659f7df",
        "20118111f0bc4ede34dd8fb102490f38e9393ea3368cf9ab2ff9165b3b1d8cc1",
        "5fc475e0478f1bd469997094d5b8e8c3bcea3fdf57fe4066357d6f090a243c8a",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "torus-3-7": (
        "4c555dbcdf959de9ffd714c7afecf3e4513770a44d628ee94949f6c9fb18a320",
        "33fb291f23f722db2b47d7ea6c94cca8e6d71e041713841b94e26e9316589f0f",
        "49bfa9caff6344a60458d9cb83464f231d96122cc80365adf83ca5be141a66ba",
        "79767cdc28eeef9df351a7410918c339973f9835225becfacef50c12ffc9262d",
        "8666158cb4d7ab06fcbefd6c5e3a792b268323b73c4bca2e473e59fdb9a6282f",
        "2fb1e1d5007458346fe3d1c4cbdc2765ba851fd00e964e7347ad9ffff9dd198e",
    ),
    "star-10-3": (
        "b1b0fbf41bc73f7e2e6d0ea6e1710d6298b3867f27f34e48d796a1966d925524",
        "c3d19a8ce82973e7e1366072a6058d32bbeb7577b73f872f2769c2680d4fd2c1",
        "0d33f9af472d46f81552e83670e6c08aeaba131a3a2785ac190c28889e915e9a",
        "7fee423495cd6fd0e87de38f7adbf1a1a1414c2b9aac95f16a2da5a862cbd31f",
        "313c4c894612b10fad367ed9b196abf874e21b1b5f41ed7517cd6d23af5ebc0d",
        "86c45d461fba12d8894b27d89ca9c6bf7787b02b29dabf388209774c5a551016",
    ),
    "star-10-2": (
        "9b5db602b5cd7a263f8d5dfc952c8506e5e74372b400a8c50884951eba3bf099",
        "32393476ba28ddf7f1b59204c703d0437d7f56d1bc5c05f33c7e3aa829eb9280",
        "3985012826f8c7ea9973c4c25ca19b51cdc0c2ed6d147cc8a85975cb9f1823ad",
        "06fdcf0eb4e03aeb16d786a959f959b4597c02518714558e0cf20457bdf87d2d",
        "0f259c9bfaefd0cccf01f9c648e25a7fa5007d08f0d2ed28db735757c78327d4",
        "0fb95466f85900cf6691c99a4ae738e8b8a667613522526df7db4aeee45bd8a1",
    ),
    "star-9-3": (
        "746b3ab13c155bb5f344dcc39a63b422878a911ab74249f8642e371de2d4b333",
        "7c601b18ed6976f02349e5787a2d7a9cdc36a31ec5e938c1dc874bfd98361bcb",
        "0c21b061513b13fc9f6d5aa29d097c7a2c46c6b40ae0ce15e05f3ba569a866f7",
        "e14fc0d8785d947525c502a83925b50aa8aa83b58fbe46f6075b331fa53eaf30",
        "97ef63760636705d8060dc10138fa309b25eb9d2c98d682960dc6ffaa6cf6364",
        "8ac1ca356621fceae5ee3c6a3d70babe97e12c27644321098e591a8fc43e8b0d",
    ),
    "hopf": (
        "8ffe5aeeda77598b6756a7eecc588cb9bcaf24dd9c970ddec6703c4e85326de7",
        "4239a77fb4f24928d6aa90be38f5e64e8424a0c6b408536d450f879810caeb6a",
        "4b9ed53d396c9d181c93c05192af18db96d330ed737086e665c062963b4dbfcd",
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
