import pytest

from billiardknots.pipeline import RealizationSpec, realize
from billiardknots.presets import PRESETS


def _run(preset_name, **kw):
    spec = RealizationSpec(pattern=PRESETS[preset_name], preset=preset_name, **kw)
    return realize(spec)


@pytest.fixture(scope="session")
def torus25_result():
    return _run("torus-2-5")


@pytest.fixture(scope="session")
def trefoil_result():
    return _run("trefoil")


@pytest.fixture(scope="session")
def figure_eight_result():
    return _run("figure-eight")


@pytest.fixture(scope="session")
def hopf_result():
    return _run("hopf")
