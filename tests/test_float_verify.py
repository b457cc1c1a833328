"""``verify`` decided in float64: the float arc table's bound, and a
passing report checked without any working-precision arc or mirror.

``perturbation.float_arc_table`` claims each float arc is within delta_c
of ``arc_length_table``'s at the working precision; the bound test checks
that claim at 53, 192 and 1024 bits on the presets, the sweep slice of
``test_sweep`` and seeded random stars with up to 61 vertices per
component, and prints the largest ratio of a difference to delta_c.
"""

import random
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest

from billiardknots import serialization
from billiardknots.braids import QuasitoricPattern, pad_to_min_repetitions
from billiardknots.perturbation import arc_length_table, float_arc_table, perturb
from billiardknots.pipeline import RealizationSpec, perturb_stage, realize
from billiardknots.presets import PRESETS
from billiardknots.serialization import verify_artifacts, write_artifacts
from billiardknots.stars import build_star
from test_sweep import F_MAX, sweep_slice

PRECISIONS = (53, 192, 1024)


def _random_polygons(count: int, seed: int):
    """Seeded polygons near random mixed-sign stars {p/q}: {61/2} and {59/3}
    (one component of 61 and of 59 vertices), then q = 2..4 and p up to 61,
    each at a delta drawn from 1/10 to 1/10^4."""
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        q = (2, 3)[len(polys)] if len(polys) < 2 else rng.randint(2, 4)
        p = (61, 59)[len(polys)] if len(polys) < 2 else rng.randint(2 * q + 1, 61)
        signs = tuple(tuple(rng.choice((1, -1)) for _ in range(q - 1)) for _ in range(p))
        star = build_star(QuasitoricPattern(q, p, signs))
        delta = Fraction(1, 10 ** rng.randint(1, 4))
        poly = perturb(star, delta, [rng.uniform(-1, 1) for _ in range(2 * p)])
        if poly is not None:
            polys.append(poly)
    return polys


def _polygons():
    star_polys = [
        perturb_stage(build_star(pad_to_min_repetitions(pattern)), Fraction(1, 1000), 42)[0]
        for pattern in [PRESETS[name] for name in sorted(PRESETS)] + sweep_slice()
    ]
    return star_polys + _random_polygons(12, 4001)


def test_float_arc_table_stays_within_its_bound(capsys):
    """Every float arc, vertex and passage alike, is within delta_c of the
    working-precision one, and so is the working-precision arc rounded to
    float64; the passages come in the same order.  The largest ratio of a
    difference to delta_c is printed."""
    worst = 0.0
    sizes = set()
    for poly in _polygons():
        sizes.update(len(comp.vertices) for comp in poly.components)
        for prec in PRECISIONS:
            table = arc_length_table(poly, prec)
            floats, deltas = float_arc_table(poly, prec)
            for ci, delta in enumerate(deltas):
                pairs = list(zip(floats.vertex_arcs[ci], table.vertex_arcs[ci]))
                assert [(ps.crossing, ps.is_a_side) for ps in floats.passages[ci]] == [
                    (ps.crossing, ps.is_a_side) for ps in table.passages[ci]
                ]
                pairs += [(a.arc, b.arc) for a, b in zip(floats.passages[ci], table.passages[ci])]
                with mp.workprec(2 * max(PRECISIONS)):
                    gap = max(abs(mp.mpf(t) - t_p) for t, t_p in pairs)
                rounded = max(abs(t - float(t_p)) for t, t_p in pairs)
                worst = max(worst, float(gap) / delta, rounded / delta)
                assert gap <= delta and rounded <= delta, (prec, ci, float(gap), rounded, delta)
    assert max(sizes) == 61
    with capsys.disabled():
        print(f"\nfloat arc table: largest difference / delta_c = {worst:.3g}")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The written reports of every preset and sweep-slice input."""
    root = tmp_path_factory.mktemp("float-verify")
    specs = [RealizationSpec(pattern=PRESETS[name], preset=name) for name in sorted(PRESETS)]
    specs += [RealizationSpec(pattern=pattern, f_max=F_MAX) for pattern in sweep_slice()]
    return [
        write_artifacts(realize(spec), root / str(i), canonical=True)["report"]
        for i, spec in enumerate(specs)
    ]


def test_a_passing_verify_computes_no_working_precision_arc_or_bisector(reports, monkeypatch):
    """Every preset and sweep report passes with the arc table and the
    working-precision mirrors broken: float64 decides them all."""

    def broken(*args, **kwargs):
        raise AssertionError("verify left float64")

    monkeypatch.setattr(serialization, "arc_length_table", broken)
    monkeypatch.setattr(serialization, "polygon_mirrors", broken)
    assert all(verify_artifacts(report).passed for report in reports)


def test_forcing_the_float_decision_off_changes_no_verdict(reports):
    """With the float64 decision forced off, every preset and sweep report
    gets the same checks from the working-precision path."""
    verdicts = [verify_artifacts(report).checks for report in reports]
    with mock.patch.object(serialization, "_passes_in_float64", lambda *args: False):
        assert [verify_artifacts(report).checks for report in reports] == verdicts
