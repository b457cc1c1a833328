import random
from fractions import Fraction

import mpmath as mp
import pytest

from billiardknots.braids import QuasitoricPattern
from billiardknots.errors import DomainError, PrecisionError
from billiardknots.perturbation import (
    arc_length_table,
    _rational_near,
    _star_chord_geometry,
    independence_check,
    layout_from_lines,
    perturb,
    to_mpf,
)
from billiardknots.pipeline import (
    INDEPENDENCE_MAX_COEFF,
    INDEPENDENCE_TOL,
    RealizationSpec,
    perturb_stage,
    realize,
)
from billiardknots.presets import PRESETS
from billiardknots.serialization import report_json
from billiardknots.stars import ArcTable, Passage, build_star
from diagram_helpers import star_arc_table
import layout_oracle
from layout_oracle import crossing_abscissa, line_intersection
from mirror_room_oracle import all_vertices


def test_crossing_abscissa_formula():
    # slopes (0, 1), intercepts (0, 1): x_{0,1} = (0 - 1)/(1 - 0) = -1
    assert crossing_abscissa((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))) == -1
    assert crossing_abscissa((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))) == 1
    with pytest.raises(DomainError):
        crossing_abscissa((Fraction(2), Fraction(1)), (Fraction(2), Fraction(5)))


def test_line_intersection_point():
    x, y = line_intersection((Fraction(0), Fraction(2)), (Fraction(1), Fraction(0)))
    assert (x, y) == (2, 2)


def assert_same_layout(star, lines):
    """The integer layout equals the Fraction oracle's, None or a layout;
    returns whether there was one."""
    got = layout_from_lines(star, lines)
    assert got == layout_oracle.layout_from_lines(star, lines)
    return got is not None


def test_integer_layout_matches_the_fraction_layout_on_random_lines():
    """Lines drawn as ``perturb`` draws them; the large deltas often break
    the combinatorics, so both outcomes are compared."""
    outcomes = set()
    for p, q in [(5, 2), (7, 3), (10, 3), (12, 2), (9, 4)]:
        star = build_star(p, q)
        slopes, intercepts = _star_chord_geometry(star)
        for delta in (Fraction(1, 1000), Fraction(1, 30), Fraction(1, 4), Fraction(1, 2)):
            rng = random.Random(p * 1000 + q * 100 + delta.denominator)
            for _ in range(6):
                lines = [
                    (_rational_near(a, delta, rng.uniform(-1, 1)), _rational_near(b, delta, rng.uniform(-1, 1)))
                    for a, b in zip(slopes, intercepts)
                ]
                outcomes.add((delta, assert_same_layout(star, lines)))
    assert {(Fraction(1, 1000), True), (Fraction(1, 2), True), (Fraction(1, 2), False)} <= outcomes


def stored_lines(star, denominator):
    """The star's own lines, rounded as a report could store them."""
    slopes, intercepts = _star_chord_geometry(star)
    return [
        (Fraction(round(float(a) * denominator), denominator), Fraction(round(float(b) * denominator), denominator))
        for a, b in zip(slopes, intercepts)
    ]


def test_integer_layout_matches_on_parallel_lines():
    star = build_star(10, 3)
    lines = stored_lines(star, 1000)
    assert assert_same_layout(star, lines)
    # chords 0 and 5 of {10/3} are parallel, and neither cross nor meet
    parallel = list(lines)
    parallel[5] = (lines[0][0], lines[5][1])
    assert assert_same_layout(star, parallel)
    # chords 0 and 3 are consecutive: parallel lines leave no corner
    first, second = star.components[0][:2]
    parallel = list(lines)
    parallel[second] = (lines[first][0], lines[second][1])
    assert layout_from_lines(star, parallel) is None
    assert not assert_same_layout(star, parallel)


@pytest.mark.parametrize("p,q", [(7, 2), (7, 3)])
def test_integer_layout_matches_with_a_line_through_a_corner(p, q):
    """At each crossing, chord_a's line moved through either end of chord_b's
    segment: the crossing lands on a corner, which is not strictly inside."""
    star = build_star(p, q)
    lines = stored_lines(star, 1000)
    layout = layout_from_lines(star, lines)
    assert layout is not None
    components, crossings = layout
    for pc in crossings:
        chord_a = star.crossings[pc.index].chord_a
        ci, i = pc.b_place
        vertices = components[ci].vertices
        for x, y in (vertices[i], vertices[(i + 1) % len(vertices)]):
            moved = list(lines)
            moved[chord_a] = (lines[chord_a][0], y - lines[chord_a][0] * x)
            assert not assert_same_layout(star, moved)


def test_integer_layout_matches_with_two_crossings_swapped():
    """Chord 0's line of {7/3}, raised by 17/125, passes the crossing of
    chords 1 and 6: along chord 0 the crossings with 6 and 1 swap, and
    nothing else changes.  The lines have the "num/den" form a report
    stores; 1/1000 less and the star's order still holds, and through that
    crossing the two tie."""
    star = build_star(7, 3)
    stored = [
        ["-167/1000", "181/500"], ["449/500", "299/1000"], ["-17", "-3789/1000"],
        ["-353/500", "-34/125"], ["291/1000", "-29/125"], ["304/125", "-117/200"],
        ["-899/500", "229/500"],
    ]
    lines = [(Fraction(a), Fraction(b)) for a, b in stored]
    # the segment runs towards smaller x; the star meets 5, 6, 1, 2 along it
    xs = [crossing_abscissa(lines[0], lines[other]) for other in (5, 6, 1, 2)]
    assert xs[0] > xs[2] > xs[1] > xs[3]
    assert not assert_same_layout(star, lines)
    lower = list(lines)
    lower[0] = (lines[0][0], lines[0][1] - Fraction(1, 1000))
    assert assert_same_layout(star, lower)
    # in between, through the crossing of chords 1 and 6, the crossings tie
    x, y = line_intersection(lines[1], lines[6])
    through = list(lines)
    through[0] = (lines[0][0], y - lines[0][0] * x)
    assert lower[0][1] < through[0][1] < lines[0][1]
    assert not assert_same_layout(star, through)


def test_perturb_preserves_pentagram_combinatorics():
    star = build_star(5, 2)
    poly = perturb_stage(star, Fraction(1, 1000), 42)[0]
    assert len(poly.components) == 1
    assert len(poly.components[0].vertices) == 5
    assert len(poly.crossings) == 5
    # same crossing chord-pairs as the star, recomputed by exact arithmetic
    star_pairs = {(c.chord_a, c.chord_b) for c in star.crossings}
    poly_pairs = set()
    chord_of = {}
    for comp in poly.components:
        for i, ch in enumerate(comp.chord_ids):
            chord_of[ch] = i
    star_by_index = {c.index: c for c in star.crossings}
    for pc in poly.crossings:
        sc = star_by_index[pc.index]
        poly_pairs.add((sc.chord_a, sc.chord_b))
    assert poly_pairs == star_pairs


def test_perturb_bigger_star_same_orders():
    star = build_star(10, 3)
    poly = perturb_stage(star, Fraction(1, 1000), 7)[0]
    assert len(poly.crossings) == 20
    assert poly.delta == Fraction(1, 1000)


def test_perturb_zero_draws_identity():
    """Zero draws put every line at ``_rational_near(chord, delta, 0)``: the
    star chord's own slope and intercept on the denominator grid."""
    star = build_star(5, 2)
    delta = Fraction(1, 10**6)
    poly = perturb(star, delta, [0.0] * 10)
    assert len(poly.crossings) == 5
    slopes, intercepts = _star_chord_geometry(star)
    with mp.workprec(star.prec_bits):
        expected = [(_rational_near(a, delta, 0), _rational_near(b, delta, 0)) for a, b in zip(slopes, intercepts)]
    (comp,) = poly.components
    assert list(comp.lines) == [expected[ch] for ch in comp.chord_ids]


def test_perturb_is_none_when_two_lines_share_a_slope():
    """Draw 0 for chord 0's slope and the draw that moves chord 1's slope
    onto it: the two lines are parallel, so there is no polygon."""
    star = build_star(5, 2)
    delta = Fraction(10)
    slopes, _ = _star_chord_geometry(star)
    draws = [0.0] * 10
    draws[2] = float((slopes[0] - slopes[1]) / 10)
    with mp.workprec(star.prec_bits):
        assert _rational_near(slopes[0], delta, 0) == _rational_near(slopes[1], delta, draws[2])
    assert perturb(star, delta, draws) is None


def test_perturb_rejects_bad_delta():
    star = build_star(5, 2)
    with pytest.raises(DomainError):
        perturb(star, Fraction(0), [0.0] * 10)
    with pytest.raises(DomainError):
        perturb(star, Fraction(-1, 2), [0.0] * 10)


@pytest.mark.parametrize("count", [0, 9, 11, 20])
def test_perturb_rejects_the_wrong_number_of_draws(count):
    with pytest.raises(DomainError, match=f"expected 10 draws, got {count}"):
        perturb(build_star(5, 2), Fraction(1, 1000), [0.0] * count)


def test_perturb_deterministic():
    star = build_star(5, 2)
    p1 = perturb_stage(star, Fraction(1, 1000), 42)[0]
    p2 = perturb_stage(star, Fraction(1, 1000), 42)[0]
    assert p1.components[0].lines == p2.components[0].lines
    p3 = perturb_stage(star, Fraction(1, 1000), 43)[0]
    assert p1.components[0].lines != p3.components[0].lines


@pytest.mark.parametrize("p,q,seed", [(5, 2, 0), (7, 2, 3), (7, 3, 5), (9, 4, 9), (40, 3, 11)])
def test_perturb_halving_always_lands(p, q, seed):
    star = build_star(p, q)
    poly = perturb_stage(star, Fraction(1, 100), seed)[0]
    assert len(poly.crossings) == p * (q - 1)


def test_arc_table_basic():
    star = build_star(5, 2)
    poly = perturb_stage(star, Fraction(1, 1000), 42)[0]
    table = arc_length_table(poly, prec_bits=256)
    (passages,) = table.passages
    assert len(passages) == 10
    arcs = [ps.arc for ps in passages]
    assert all(0 < a < 1 for a in arcs)
    for a1, a2 in zip(arcs, arcs[1:]):
        assert float(a2 - a1) > 1e-9
    assert table.vertex_arcs[0][0] == 0


def test_arc_lengths_match_planar_distance():
    """|l_{i,j}| from the slope formula equals the planar distance to P_{i,j}."""
    star = build_star(7, 3, prec_bits=128)
    poly = perturb_stage(star, Fraction(1, 500), 3)[0]
    with mp.workprec(128):
        for pc in poly.crossings:
            for place in (pc.a_place, pc.b_place):
                ci, i = place
                comp = poly.components[ci]
                a, _ = comp.lines[i]
                v = comp.vertices[i]
                dx = pc.point[0] - v[0]
                dy = pc.point[1] - v[1]
                formula = mp.sqrt(1 + (mp.mpf(a.numerator) / a.denominator) ** 2) * abs(
                    mp.mpf(dx.numerator) / dx.denominator
                )
                direct = mp.hypot(
                    mp.mpf(dx.numerator) / dx.denominator,
                    mp.mpf(dy.numerator) / dy.denominator,
                )
                assert mp.almosteq(formula, direct, rel_eps=mp.mpf("1e-20"))


def test_to_mpf_rounds_a_rational_once():
    """At 53 bits, to_mpf of a vertex coordinate is the correctly rounded
    float; rounding the numerator first and then the quotient is not."""
    coords = [
        c
        for name in sorted(PRESETS)
        for vertex in all_vertices(realize(RealizationSpec(pattern=PRESETS[name], preset=name)).poly)
        for c in vertex
    ]
    assert len(coords) == 130
    with mp.workprec(53):
        assert [float(to_mpf(c)) for c in coords] == [float(c) for c in coords]


def _toy_table(arcs, prec_bits=256):
    with mp.workprec(prec_bits):
        passages = tuple(
            Passage(i, mp.mpf(a.numerator) / a.denominator if isinstance(a, Fraction) else mp.mpf(a), True)
            for i, a in enumerate(arcs)
        )
    return ArcTable(
        prec_bits=prec_bits,
        passages=(passages,),
        vertex_arcs=((mp.mpf(0),),),
        total_lengths=(mp.mpf(1),),
    )


def test_independence_constructed_rational_relation():
    table = _toy_table([Fraction(1, 4), Fraction(1, 2)])
    res = independence_check(table, max_coeff=10, tol=1e-12)
    assert not res.passed
    assert res.component == 0 and res.residual == 0
    lam = res.witness
    assert any(lam)
    assert max(abs(c) for c in lam) <= 10
    value = lam[0] + lam[1] * Fraction(1, 4) + lam[2] * Fraction(1, 2)
    assert value == 0


def test_independence_third_with_coeff_bound_three():
    table = _toy_table([Fraction(1, 3)])
    res = independence_check(table, max_coeff=3, tol=1e-12)
    assert not res.passed
    lam = res.witness
    assert lam[0] + lam[1] * Fraction(1, 3) == 0
    assert max(abs(c) for c in lam) <= 3


def test_independence_perturbed_pentagram_passes():
    star = build_star(5, 2, prec_bits=256)
    poly = perturb_stage(star, Fraction(1, 1000), 42)[0]
    table = arc_length_table(poly, prec_bits=256)
    assert independence_check(table, max_coeff=10, tol=1e-12).passed


def test_independence_unperturbed_pentagram_fails_exactly():
    star = build_star(5, 2, prec_bits=256)
    table = star_arc_table(star)
    res = independence_check(table, max_coeff=10, tol=1e-12)
    assert not res.passed
    assert res.witness is not None
    # the witness must be a genuine relation, far below the tolerance
    assert float(res.residual) < 1e-24


def test_independence_precision_guard():
    star = build_star(5, 2, prec_bits=64)
    table = star_arc_table(star)
    with pytest.raises(PrecisionError):
        independence_check(table, max_coeff=10, tol=1e-12)


def test_independence_screens_a_hit_above_max_coeff():
    # PSLQ finds 1 - 3 * (1/3) = 0, whose coefficient 3 exceeds max_coeff 2
    table = _toy_table([Fraction(1, 3)])
    with mp.workprec(table.prec_bits):
        assert mp.pslq([mp.mpf(1), table.passages[0][0].arc], tol=mp.mpf(1e-12)) == [1, -3]
    res = independence_check(table, max_coeff=2, tol=1e-12)
    assert res.passed and res.witness is None and res.residual is None


def test_independence_run_record_in_report(hopf_result):
    record = hopf_result.independence
    assert record.passed
    assert (record.component, record.witness, record.residual) == (None, None, None)
    assert "independence" not in report_json(hopf_result, canonical=True)


def _recorded_pslq(monkeypatch) -> list:
    """Route ``mp.pslq`` through a recorder: each call appends its vector,
    keyword arguments and returned relation."""
    calls = []
    pslq = mp.pslq

    def recorded(vector, **kwargs):
        relation = pslq(vector, **kwargs)
        calls.append((list(vector), kwargs, relation))
        return relation

    monkeypatch.setattr(mp, "pslq", recorded)
    return calls


def _expected_pslq_arguments(vector) -> dict:
    return {
        "tol": mp.mpf(INDEPENDENCE_TOL),
        "maxcoeff": max(1000, 100 * INDEPENDENCE_MAX_COEFF),
        "maxsteps": 2000 + 20 * len(vector) ** 2,
    }


# the benchmark's mixed-sign knot random-2-13-0: signs and perturbation seed
RANDOM_2_13_0 = (QuasitoricPattern(2, 13, tuple((s,) for s in (
    1, -1, 1, -1, 1, 1, 1, -1, 1, -1, -1, -1, 1))), 1885846324)


@pytest.mark.parametrize("name", ["torus-3-7", "random-2-13-0"])
def test_pslq_kernel_matches_mpmath_on_pipeline_arcs(name, monkeypatch):
    """On these pipeline arcs mpmath's PSLQ does find a relation at the
    check's tolerance, and the check screens it out: its coefficients
    exceed the bound or its residual exceeds tol^2."""
    pattern, seed = (PRESETS[name], 42) if name in PRESETS else RANDOM_2_13_0
    arcs = realize(RealizationSpec(pattern=pattern, seed=seed)).arcs
    calls = _recorded_pslq(monkeypatch)
    result = independence_check(arcs, INDEPENDENCE_MAX_COEFF, INDEPENDENCE_TOL)
    ((vector, kwargs, relation),) = calls
    assert len(vector) in (27, 29)
    assert kwargs == _expected_pslq_arguments(vector)
    assert relation is not None
    with mp.workprec(arcs.prec_bits):
        residual = abs(mp.fsum(c * v for c, v in zip(relation, vector)))
    assert max(map(abs, relation)) > INDEPENDENCE_MAX_COEFF or residual > mp.mpf(INDEPENDENCE_TOL) ** 2
    assert result.passed and result.witness is None


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_pslq_kernel_matches_the_reference_loop_on_preset_arcs(name, monkeypatch):
    """Every component vector of every preset, from the arc table ``realize``
    builds, goes to ``mp.pslq`` once, as (1, t_1, t_2, ...) with the check's
    tolerance, coefficient cap and step cap, and no relation it returns
    survives the screen."""
    arcs = realize(RealizationSpec(pattern=PRESETS[name], preset=name)).arcs
    calls = _recorded_pslq(monkeypatch)
    assert independence_check(arcs, INDEPENDENCE_MAX_COEFF, INDEPENDENCE_TOL).passed
    assert [vector for vector, _, _ in calls] == [
        [mp.mpf(1)] + [ps.arc for ps in passages] for passages in arcs.passages
    ]
    for vector, kwargs, relation in calls:
        assert kwargs == _expected_pslq_arguments(vector)
        if relation is not None and max(map(abs, relation)) <= INDEPENDENCE_MAX_COEFF:
            with mp.workprec(arcs.prec_bits):
                residual = abs(mp.fsum(c * v for c, v in zip(relation, vector)))
            assert residual > mp.mpf(INDEPENDENCE_TOL) ** 2
