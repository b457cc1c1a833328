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

from billiardknots.billiards import verify_reflection
from billiardknots.pipeline import REFLECTION_TOL, RealizationSpec, realize
from billiardknots.presets import PRESETS
from billiardknots.serialization import write_artifacts

# the order of the digests in each GOLDEN entry
KINDS = ("report", "trajectory", "table", "diagram", "diagram_svg", "mesh")

GOLDEN = {
    "unknot": (
        "3c608029bb865d55996671d61de61ddcef16ccb341f5c5e97a1f7ad23d213f2c",
        "8455d01940c25d049889a3df05128441e9ba860138e259a8aeebc65dccaa16b4",
        "bc8df555c81eb36faebc564908452a38761db10f90d278c93ea2df29712d2971",
        "59c0e692761b4b1976b9c29839f6c44c479232a6b2ae2bc9aadfeba81e783a3b",
        "d13720fb56faa3abee8da526d75a2b8012cbde7998ad90ab7a2d0f3789d2f3c2",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "trefoil": (
        "f1e83d43cd550e9c89a9062aa79804b9336e5a31276c2d97681288f509644a09",
        "27eef837af94aacce1cc412b24ab99d3baf3432376a76e190733450ec01759f5",
        "bc8df555c81eb36faebc564908452a38761db10f90d278c93ea2df29712d2971",
        "20092e17b3ed1bd4543efa7e717d4bd7ab36dd65e1e538a4e593fa8e4c9eead2",
        "c287e3405a6813ceb6e38298710ce49b9e698b0bc6424f0c29da15211bc21af9",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "figure-eight": (
        "87a39ccbb06b3cba67992ec151e7e910ed3d26b7ea4cb91d6635b2c0d3622403",
        "421dab3ef96d938fe392f34509c48fcabab64fcea2bc8794393e2d0e9e1707c5",
        "291149f0f7b7cf10c1a760a544357cd93b37aad2f5d2c6774295197da531c469",
        "326e735d36e1961645cc05694b3e9e6ca86617121a16458d99514dd4647e6c60",
        "40c5f6e4ef4b9c1a8108fefb9f77dfce974560ebf7e09f502bebdc8d53232716",
        "daca5f1e1c481a9f1877bb2ef3aca0ff1c1433f09db828b745cd0a447522941d",
    ),
    "torus-2-5": (
        "cd2a9b54095faf769e5ba939b9d011d31d7e4b379ce70a2eca1301a34c9e68dd",
        "12043086f9079f3dc12e8fa35509b9aff24714d87d5d9c17e1a2e82b3e75f474",
        "bc8df555c81eb36faebc564908452a38761db10f90d278c93ea2df29712d2971",
        "5158e1e251a57219db521b1dda95bdb03679c2d73153dc6d6a689e2024cbfcea",
        "5fc475e0478f1bd469997094d5b8e8c3bcea3fdf57fe4066357d6f090a243c8a",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "torus-3-7": (
        "4c555dbcdf959de9ffd714c7afecf3e4513770a44d628ee94949f6c9fb18a320",
        "33fb291f23f722db2b47d7ea6c94cca8e6d71e041713841b94e26e9316589f0f",
        "1455cbebee9ab7d20acad9bc49283601dddc04b190f02ca43a509f7362a8fe18",
        "76d4bbcaa7623b5bde6e9c493de126c6cd85d25fc282104f39dda47cd23b7eac",
        "8666158cb4d7ab06fcbefd6c5e3a792b268323b73c4bca2e473e59fdb9a6282f",
        "2fb1e1d5007458346fe3d1c4cbdc2765ba851fd00e964e7347ad9ffff9dd198e",
    ),
    "star-10-3": (
        "b1b0fbf41bc73f7e2e6d0ea6e1710d6298b3867f27f34e48d796a1966d925524",
        "c3d19a8ce82973e7e1366072a6058d32bbeb7577b73f872f2769c2680d4fd2c1",
        "056c88cfea2b016ffc74f0127ff31ff8195436cf546d88ddc8d507995dee75a7",
        "8a12e52b4f7b93dc60d20bfb35940e4bd0e5e2d5af0ae94868400caf988d051a",
        "313c4c894612b10fad367ed9b196abf874e21b1b5f41ed7517cd6d23af5ebc0d",
        "86c45d461fba12d8894b27d89ca9c6bf7787b02b29dabf388209774c5a551016",
    ),
    "star-10-2": (
        "9b5db602b5cd7a263f8d5dfc952c8506e5e74372b400a8c50884951eba3bf099",
        "32393476ba28ddf7f1b59204c703d0437d7f56d1bc5c05f33c7e3aa829eb9280",
        "68b0169a656cc8bd8585f80deb0505b960076f0ef6a2570016f79c2ed05b13b1",
        "e81fc647f480ce1b24425567c8b6c033f0831a2c70d26eb92c6b4d4681d8c625",
        "0f259c9bfaefd0cccf01f9c648e25a7fa5007d08f0d2ed28db735757c78327d4",
        "0fb95466f85900cf6691c99a4ae738e8b8a667613522526df7db4aeee45bd8a1",
    ),
    "star-9-3": (
        "746b3ab13c155bb5f344dcc39a63b422878a911ab74249f8642e371de2d4b333",
        "7c601b18ed6976f02349e5787a2d7a9cdc36a31ec5e938c1dc874bfd98361bcb",
        "3b7f004be170ab71fb7eac67f682a111bf9cd30138a075414d723bc9b6dbf046",
        "00c0565a574b4331469a6257537a29f165654d597784be87de2bb1eee02867ce",
        "97ef63760636705d8060dc10138fa309b25eb9d2c98d682960dc6ffaa6cf6364",
        "8ac1ca356621fceae5ee3c6a3d70babe97e12c27644321098e591a8fc43e8b0d",
    ),
    "hopf": (
        "8ffe5aeeda77598b6756a7eecc588cb9bcaf24dd9c970ddec6703c4e85326de7",
        "4239a77fb4f24928d6aa90be38f5e64e8424a0c6b408536d450f879810caeb6a",
        "52d1d03344a11c16e20206526e5561c947a9e1ac2ca5c8089e1545830dcf1a03",
        "fe41e044bf89ecf18d881ea7d93f35f63da7afb8eac082f4301308dfb619c5fd",
        "cdf8ff08462284cbc8ca7b83cb3e89d63bd4eeea75c75ac6e414194fe0699df5",
        "e8055bd1912fd9f9de6681eb66f59c6fc4faf610504e69fbea09f2574be9739b",
    ),
}


def test_every_preset_has_a_golden_digest():
    assert sorted(GOLDEN) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_artifacts_match_golden_digests(name, tmp_path):
    result = realize(RealizationSpec(pattern=PRESETS[name], preset=name))
    # realize checks only the column shape and the walk bound; this compares the columns too
    assert verify_reflection(result.trajectory, result.arcs, REFLECTION_TOL).passed
    paths = write_artifacts(result, tmp_path, canonical=True)
    digests = tuple(hashlib.sha256(paths[kind].read_bytes()).hexdigest() for kind in KINDS)
    assert digests == GOLDEN[name]
