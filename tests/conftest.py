import pytest

from billiardknots import invariants
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


@pytest.fixture
def bracket_calls(monkeypatch):
    """The codes ``invariants.kauffman_bracket`` is called on, in order."""
    calls = []
    bracket = invariants.kauffman_bracket
    monkeypatch.setattr(invariants, "kauffman_bracket", lambda pd: calls.append(pd) or bracket(pd))
    return calls
