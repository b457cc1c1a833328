"""Golden digests: the canonical artifacts of every preset, byte for byte.

The sha256 of each of the six canonical artifacts of every preset
(``report.json``, ``trajectory.json``, ``table.json``, ``diagram.json``,
``diagram.svg`` and ``prism.obj``, as ``scripts/run_presets.py --out``
writes them) is pinned, so a change that should leave outputs alone is
checked to do so.  A change that moves an output on purpose updates the
digests here and says why.  The presets cover only the signed figure of
a few stars, so the sha256 of ``star_svg`` is also pinned, plain and
signed, for the torus star {p/q} of every q = 2..5 and p = 2q+1 .. 2q+6.
"""

import hashlib

import pytest

from billiardknots.billiards import verify_reflection
from billiardknots.braids import toric_pattern
from billiardknots.pipeline import REFLECTION_TOL, RealizationSpec, realize
from billiardknots.presets import PRESETS
from billiardknots.serialization import star_svg, write_artifacts
from billiardknots.stars import build_star, over_flags_from_signs

# the order of the digests in each GOLDEN entry
KINDS = ("report", "trajectory", "table", "diagram", "diagram_svg", "mesh")

GOLDEN = {
    "unknot": (
        "3c608029bb865d55996671d61de61ddcef16ccb341f5c5e97a1f7ad23d213f2c",
        "8455d01940c25d049889a3df05128441e9ba860138e259a8aeebc65dccaa16b4",
        "bc8df555c81eb36faebc564908452a38761db10f90d278c93ea2df29712d2971",
        "9e515de235f7dc813449c07563a07971dbad93f7feecb29238c9920cad3c736e",
        "d13720fb56faa3abee8da526d75a2b8012cbde7998ad90ab7a2d0f3789d2f3c2",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "trefoil": (
        "f1e83d43cd550e9c89a9062aa79804b9336e5a31276c2d97681288f509644a09",
        "27eef837af94aacce1cc412b24ab99d3baf3432376a76e190733450ec01759f5",
        "bc8df555c81eb36faebc564908452a38761db10f90d278c93ea2df29712d2971",
        "d10751bdaa43fd4401737b33487f06809e89e4cfffcd8b948ab3620dae5ca045",
        "c287e3405a6813ceb6e38298710ce49b9e698b0bc6424f0c29da15211bc21af9",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "figure-eight": (
        "87a39ccbb06b3cba67992ec151e7e910ed3d26b7ea4cb91d6635b2c0d3622403",
        "421dab3ef96d938fe392f34509c48fcabab64fcea2bc8794393e2d0e9e1707c5",
        "291149f0f7b7cf10c1a760a544357cd93b37aad2f5d2c6774295197da531c469",
        "1895b144b155c03dd64aa61191ede29d50e11a2d7550a3bc9a91903374229109",
        "40c5f6e4ef4b9c1a8108fefb9f77dfce974560ebf7e09f502bebdc8d53232716",
        "daca5f1e1c481a9f1877bb2ef3aca0ff1c1433f09db828b745cd0a447522941d",
    ),
    "torus-2-5": (
        "cd2a9b54095faf769e5ba939b9d011d31d7e4b379ce70a2eca1301a34c9e68dd",
        "12043086f9079f3dc12e8fa35509b9aff24714d87d5d9c17e1a2e82b3e75f474",
        "bc8df555c81eb36faebc564908452a38761db10f90d278c93ea2df29712d2971",
        "5ed2cd2a4b38acf3a34672108bfa7c8b2aa3502bced6dab9afb018bdb4e920e7",
        "5fc475e0478f1bd469997094d5b8e8c3bcea3fdf57fe4066357d6f090a243c8a",
        "6dd8ca6f620238a2c8d3df09b180661a391f100c6caf8227372e9044d309007c",
    ),
    "torus-3-7": (
        "4c555dbcdf959de9ffd714c7afecf3e4513770a44d628ee94949f6c9fb18a320",
        "33fb291f23f722db2b47d7ea6c94cca8e6d71e041713841b94e26e9316589f0f",
        "1455cbebee9ab7d20acad9bc49283601dddc04b190f02ca43a509f7362a8fe18",
        "5b1cecc22cd58b5ad657a5538369cda314583774585709cb401120672a4f9784",
        "8666158cb4d7ab06fcbefd6c5e3a792b268323b73c4bca2e473e59fdb9a6282f",
        "2fb1e1d5007458346fe3d1c4cbdc2765ba851fd00e964e7347ad9ffff9dd198e",
    ),
    "star-10-3": (
        "b1b0fbf41bc73f7e2e6d0ea6e1710d6298b3867f27f34e48d796a1966d925524",
        "c3d19a8ce82973e7e1366072a6058d32bbeb7577b73f872f2769c2680d4fd2c1",
        "056c88cfea2b016ffc74f0127ff31ff8195436cf546d88ddc8d507995dee75a7",
        "e2ed0fac8d0b3e41019226715b4519bb2b5bae789fe6f776855f326735ae3544",
        "313c4c894612b10fad367ed9b196abf874e21b1b5f41ed7517cd6d23af5ebc0d",
        "86c45d461fba12d8894b27d89ca9c6bf7787b02b29dabf388209774c5a551016",
    ),
    "star-10-2": (
        "9b5db602b5cd7a263f8d5dfc952c8506e5e74372b400a8c50884951eba3bf099",
        "32393476ba28ddf7f1b59204c703d0437d7f56d1bc5c05f33c7e3aa829eb9280",
        "68b0169a656cc8bd8585f80deb0505b960076f0ef6a2570016f79c2ed05b13b1",
        "88b188d266b923fbd010e527fcc1ef2bdd599f79e11da93fc6a363165d8ecb71",
        "0f259c9bfaefd0cccf01f9c648e25a7fa5007d08f0d2ed28db735757c78327d4",
        "0fb95466f85900cf6691c99a4ae738e8b8a667613522526df7db4aeee45bd8a1",
    ),
    "star-9-3": (
        "746b3ab13c155bb5f344dcc39a63b422878a911ab74249f8642e371de2d4b333",
        "7c601b18ed6976f02349e5787a2d7a9cdc36a31ec5e938c1dc874bfd98361bcb",
        "3b7f004be170ab71fb7eac67f682a111bf9cd30138a075414d723bc9b6dbf046",
        "f494729d100a0f3931c283a35e2b521b02a3e14e7e0ed5a8c8c5ab8d5af56a70",
        "97ef63760636705d8060dc10138fa309b25eb9d2c98d682960dc6ffaa6cf6364",
        "8ac1ca356621fceae5ee3c6a3d70babe97e12c27644321098e591a8fc43e8b0d",
    ),
    "hopf": (
        "8ffe5aeeda77598b6756a7eecc588cb9bcaf24dd9c970ddec6703c4e85326de7",
        "4239a77fb4f24928d6aa90be38f5e64e8424a0c6b408536d450f879810caeb6a",
        "52d1d03344a11c16e20206526e5561c947a9e1ac2ca5c8089e1545830dcf1a03",
        "ba232f430c00fe424748f622916bc8ce7a28bcdf4b7ae90431195d5bdab24048",
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


# (strands q, repetitions p) -> sha256 of star_svg, (plain, signed)
SVG_GOLDEN = {
    (2, 5): (
        "f025b88d487044c62f7814e1368658249a696e220069d56aeca0b24c53e86143",
        "5fc475e0478f1bd469997094d5b8e8c3bcea3fdf57fe4066357d6f090a243c8a",
    ),
    (2, 6): (
        "c42ef9f6b68558bfd3497fd071dc4ffa78b90b27f41912434063d2ce7e8dc520",
        "b647953e663cee64d0a48a1bc9445a6fc757868d57dbba47d8a95d71bf7a7d05",
    ),
    (2, 7): (
        "c0b03e64e372c5ef74d95a68369742671edbe4ea35af3e30209a9e2fa18ae608",
        "74110e126a7b59c93d6e9db279e76a3d5f3fe83b60244ba4b80528c158c08cb7",
    ),
    (2, 8): (
        "c7623eb23ae2f32e2c764607aa1d36caae1bf25dda1c1a39ef0db8d2a758c7e2",
        "f1da4a491df62d94bb6195c70e5bbeafb2d3fdad9711a786f1c874df444db949",
    ),
    (2, 9): (
        "96e8cb829486cc04b4e213930534ed42930032fe0304c47075d7be522002d151",
        "af9fe9c78a792ebe9f580cac66816ac69ae3ecd59bc358ecc03be11efc11319f",
    ),
    (2, 10): (
        "be1c5cd25b5fafa910ae0995b763bbc9b3162f58231f67122f9d99d285cd1c2f",
        "0f259c9bfaefd0cccf01f9c648e25a7fa5007d08f0d2ed28db735757c78327d4",
    ),
    (3, 7): (
        "6700df199575838c44eb74c8699ac912bda1c48fe633c33edbf9ac9d188659bf",
        "8666158cb4d7ab06fcbefd6c5e3a792b268323b73c4bca2e473e59fdb9a6282f",
    ),
    (3, 8): (
        "f8d51b39779c16c09760c56fb8113c574b700d86e55006271a8b9c5a1e2a521e",
        "ed9fbb62cc433bbe4e559a224a0656bd3ecc6393fc79ee28cfa4275b9eb7e788",
    ),
    (3, 9): (
        "84ed72fb10096a5297e9f32f89ca3274fdaf546d7b7e4894bb589cddd198e173",
        "97ef63760636705d8060dc10138fa309b25eb9d2c98d682960dc6ffaa6cf6364",
    ),
    (3, 10): (
        "92ffa3ccfc10e51acba440348007825234f931214984412a25770369befdbe5d",
        "313c4c894612b10fad367ed9b196abf874e21b1b5f41ed7517cd6d23af5ebc0d",
    ),
    (3, 11): (
        "d91025250b2a90cd8da75970636039a7d0169e5511ff2f20a930d54a322b7227",
        "21ba0c99e9f98b8fd9e88bdd00c1a4c79847aab94b856b3c686cdaef7a809f75",
    ),
    (3, 12): (
        "69b5988007b3b1cce5fff29860047f3b648264193f12238b5c7ddd750d01d14a",
        "24801fa6ff1037f9a879d4f972fd8648737b7c6dabd9d645705842b39a6be227",
    ),
    (4, 9): (
        "945aa9990ea29d8531d6f4cda3cf245c2e2ca0866e5d32b5e76ea836e1ef39f9",
        "80a8f11593ce92f15122b28b458d041e8971d45e352d9f11e72617a969cb50b5",
    ),
    (4, 10): (
        "641d2ac143aeccf2cf679ae5aa9ad5c2864a64dad8ab7b1f964bbce1554420da",
        "b1b652727d36084628749fc90df87336f5a8a38eda9bbe124cfa4af9df884a2d",
    ),
    (4, 11): (
        "b32e8c0e03ccf3d73c96755b258a6c60370cc173edc100cb237b130dfd4d97b8",
        "ab8a29d002881e0cee3338df44db934831773513fc4bd1c5bd224f48125380a8",
    ),
    (4, 12): (
        "0b74ec90d8f4d17925d0632535889735b0b96cf4dc7ec26d566c926b80f19537",
        "ca20133b1332362eff0494d40f31167830469363c43b7f44f48ef98755ea6091",
    ),
    (4, 13): (
        "7fb1863ba6b1eb44140c88abfea49350bb53f51aba214428277d9429004872d1",
        "dab7ce7235e751111d32b2fc84c280ca7cef02433744af02d1969018e1e2c5ca",
    ),
    (4, 14): (
        "2c306dbeb64f458413191680124807d92cc1440371df11770b78a2c2ca0fe322",
        "007dd9528eb4a08787b88252a6632c5820ace017db24d8c0c5bc38404e4ec823",
    ),
    (5, 11): (
        "68785e97e1f8ec9a950e6b6afc446fd8c7c933e7741622ba8b89a2b033743136",
        "bbcacbfb1b577e3a7e716971fdf91b54f32ccf615e1534b2121e942d638b39f7",
    ),
    (5, 12): (
        "564fdbf093aaf455f117919aebe2022c76b3a0001f2595f3b64ca0f10207fc29",
        "0064e5578e66201b4ddbecf603cb05bfa0e1834058e0dbb55884974982334e88",
    ),
    (5, 13): (
        "df04949f4a8a65b5bab8152301fe66a47c219fc6fd4cf484051c21f16d2c99b3",
        "a04b01baf2c817b9356852c822af3dc4ba87b253912b8d9a314ece3b76d55b16",
    ),
    (5, 14): (
        "cbdf229df359fb9cbf35a6bae8b46351d8162ac9e5952f52b6f6ccf27b23168c",
        "a906d22d7bcd552740dd4e445bddad270d1f8ad74bc49fdf5481ced6e58ff144",
    ),
    (5, 15): (
        "5803548b5fd157bc4e6ca1bb7dd6b9895f8e6fe1d7cdf9fd29eaf1710aa9bfec",
        "3a793f8138c0fe754eba92ee397ad78806449ed6397f0cffa0f7d1d361ad9b10",
    ),
    (5, 16): (
        "2790e5ba574f8a1eb926af348fd80f63998d9f797deeb4a499f8966c5c651b91",
        "76c8052943e0778ef3598bb9d02f6c6a82b237b2f72782ff30909ab3e65396ed",
    ),
}


@pytest.mark.parametrize("q,p", sorted(SVG_GOLDEN))
def test_star_svg_matches_golden_digests(q, p):
    star = build_star(toric_pattern(q, p))
    figures = (star_svg(star), star_svg(star, over_flags_from_signs(star)))
    assert tuple(hashlib.sha256(svg.encode()).hexdigest() for svg in figures) == SVG_GOLDEN[(q, p)]
