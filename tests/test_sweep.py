"""A seeded slice of the random-pattern robustness sweep.

Mixed-sign quasitoric patterns drawn from one fixed generator: q = 2 with
p in 5..8 (an even p is a 2-component link) and q = 3 with p = 7, the
smallest star that needs no padding, so the slice stays within a few
seconds.  Every input must realize with ``passed=True`` at f_max 3000.
"""

import random

import pytest

from billiardknots.billiards import verify_reflection
from billiardknots.braids import QuasitoricPattern, component_count
from billiardknots.pipeline import REFLECTION_TOL, RealizationSpec, realize

SWEEP_SEED = 1
F_MAX = 3000


def sweep_slice() -> list[QuasitoricPattern]:
    rng = random.Random(SWEEP_SEED)
    patterns = []
    for q in (2, 2, 3, 2, 2, 3, 2, 2):
        p = rng.randint(5, 8) if q == 2 else 7
        while True:
            signs = tuple(tuple(rng.choice((1, -1)) for _ in range(q - 1)) for _ in range(p))
            if len({s for row in signs for s in row}) == 2:
                break
        patterns.append(QuasitoricPattern(q, p, signs))
    return patterns


def test_slice_has_knots_and_links():
    counts = {component_count(p) for p in sweep_slice()}
    assert {1, 2} <= counts


@pytest.mark.parametrize("index", range(8))
def test_random_pattern_realizes(index):
    pattern = sweep_slice()[index]
    result = realize(RealizationSpec(pattern=pattern, f_max=F_MAX))
    assert result.passed, (pattern, [(h.frequency, h.phase) for h in result.heights])
    assert verify_reflection(result.trajectory, result.arcs, REFLECTION_TOL).passed
