import math
import random
from itertools import combinations

import mpmath as mp
import pytest

from billiardknots.braids import QuasitoricPattern, toric_pattern
from billiardknots.errors import DomainError
from billiardknots.stars import build_star, over_flags_from_signs

from billiardknots import stars

from diagram_helpers import chords_cross, diagram_jones, passage_arcs, pattern_jones, star_arc_table
from star_oracle import (
    closed_form_geometry, component_passages, oracle_geometry, passage_order, segment_orders,
)


def segments_intersect(p1, p2, p3, p4):
    """Brute-force open-segment intersection test (float oracle)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return d1 * d2 < 0 and d3 * d4 < 0


def brute_force_crossings(p, q):
    verts = [
        (math.cos(2 * math.pi * k / p), math.sin(2 * math.pi * k / p)) for k in range(p)
    ]
    count = 0
    pairs = set()
    for c1, c2 in combinations(range(p), 2):
        a1, a2 = verts[c1], verts[(c1 + q) % p]
        b1, b2 = verts[c2], verts[(c2 + q) % p]
        if segments_intersect(a1, a2, b1, b2):
            count += 1
            pairs.add((c1, c2))
    return count, pairs


@pytest.mark.parametrize(
    "p,q,crossings,components",
    [(5, 2, 5, 1), (10, 3, 20, 1), (9, 3, 18, 3), (10, 2, 10, 2)],
)
def test_build_star_counts(p, q, crossings, components):
    d = build_star(toric_pattern(q, p))
    assert len(d.chords) == p
    assert len(d.crossings) == crossings
    assert len(d.components) == components
    brute_count, _ = brute_force_crossings(p, q)
    assert brute_count == crossings


@pytest.mark.parametrize("p,q", [(4, 2), (6, 3), (5, 3), (2, 2)])
def test_build_star_regime_error(p, q):
    with pytest.raises(DomainError):
        build_star(toric_pattern(q, p))


def test_crossing_predicate_matches_geometry():
    for q in range(2, 6):
        for p in range(2 * q + 1, 41):
            _, brute_pairs = brute_force_crossings(p, q)
            predicate_pairs = {
                (c1, c2)
                for c1, c2 in combinations(range(p), 2)
                if chords_cross(p, q, c1, c2)
            }
            assert predicate_pairs == brute_pairs, (p, q)
            assert len(predicate_pairs) == p * (q - 1)


def test_sector_depth_partition():
    for p, q in [(5, 2), (7, 3), (9, 4), (11, 5)]:
        d = build_star(toric_pattern(q, p))
        by_sector = {}
        for c in d.crossings:
            by_sector.setdefault(c.sector, []).append(c.depth)
        assert set(by_sector) == set(range(p))
        for depths in by_sector.values():
            assert sorted(depths) == list(range(1, q))


def test_rotational_symmetry_of_crossings():
    d = build_star(toric_pattern(3, 7), prec_bits=128)
    pts = [(float(x), float(y)) for x, y in closed_form_geometry(d)[0]]
    ang = 2 * math.pi / 7
    rotated = [
        (x * math.cos(ang) - y * math.sin(ang), x * math.sin(ang) + y * math.cos(ang))
        for x, y in pts
    ]
    for rx, ry in rotated:
        assert min(math.hypot(rx - x, ry - y) for x, y in pts) < 1e-10


def test_pentagram_arc_lengths():
    d = build_star(toric_pattern(2, 5))
    (passages,) = star_arc_table(d).passages
    assert len(passages) == 10
    arcs = [ps.arc for ps in passages]
    assert all(0 < a < 1 for a in arcs)
    assert all(a1 < a2 for a1, a2 in zip(arcs, arcs[1:]))
    # 5-fold symmetry: the arc multiset is invariant under t -> t + 1/5
    shifted = sorted(float(a + mp.mpf(1) / 5) % 1.0 for a in arcs)
    original = sorted(float(a) for a in arcs)
    assert all(abs(a - b) < 1e-12 for a, b in zip(original, shifted))


def test_every_crossing_has_two_passages():
    d = build_star(toric_pattern(3, 10))
    seen = {}
    for passages in star_arc_table(d).passages:
        for ps in passages:
            seen[ps.crossing] = seen.get(ps.crossing, 0) + 1
    assert all(v == 2 for v in seen.values())
    assert len(seen) == 20


def test_pentagram_total_length():
    table = star_arc_table(build_star(toric_pattern(2, 5)))
    expected = 5 * 2 * mp.sin(2 * mp.pi / 5)
    assert mp.almosteq(table.total_lengths[0], expected)


def test_same_component_passage_order():
    for p, q in [(5, 2), (7, 3), (10, 3)]:
        d = build_star(toric_pattern(q, p))
        for c in d.crossings:
            if c.first_component == c.second_component:
                first_arc, second_arc = passage_arcs(d, c)
                assert first_arc < second_arc
            else:
                assert c.first_component < c.second_component


def test_integer_star_combinatorics_match_the_geometry():
    """The integer passage order of every crossing and crossing order along
    every chord equal the ones read off the star's mpf arcs."""
    chords = 0
    for q in range(2, 9):
        for p in range(2 * q + 1, 45):
            d = build_star(toric_pattern(q, p))
            assert passage_order(d) == {
                c.index: (c.first_component, c.second_component, c.a_side_is_first)
                for c in d.crossings
            }, (p, q)
            assert dict(enumerate(map(list, d.segment_orders))) == segment_orders(d), (p, q)
            chords += p
    assert chords == 6489


def test_passage_order_is_the_arc_order_of_every_component():
    """``places`` inverts ``components``, and ``passage_order`` lists each
    component's passages as its mpf arcs order them."""
    for q in range(2, 6):
        for p in range(2 * q + 1, 2 * q + 9):
            d = build_star(toric_pattern(q, p))
            assert len(d.places) == p
            assert all(d.components[ci][i] == ch for ch, (ci, i) in enumerate(d.places)), (p, q)
            assert list(map(list, d.passage_order)) == component_passages(d), (p, q)


def test_build_star_makes_no_mpmath_call(monkeypatch):
    class NoMpmath:
        def __getattr__(self, name):
            raise AssertionError(f"build_star called mpmath.{name}")

    monkeypatch.setattr(stars, "mp", NoMpmath())
    signed = build_star(toric_pattern(3, 10), prec_bits=192)
    assert len(signed.crossings) == 20 and all(c.sign == 1 for c in signed.crossings)


@pytest.mark.parametrize("prec_bits", [53, 192, 1024])
@pytest.mark.parametrize("p", [5, 10, 17, 31, 59])
def test_star_vertices_match_separate_cos_and_sin(p, prec_bits):
    vertices = build_star(toric_pattern(2, p), prec_bits).geometry.vertices
    with mp.workprec(prec_bits):
        omega = mp.atan(mp.mpf(stars.ROTATION_TANGENT[0]) / stars.ROTATION_TANGENT[1])
        expected = tuple(
            (mp.cos(2 * mp.pi * k / p + omega), mp.sin(2 * mp.pi * k / p + omega))
            for k in range(p)
        )
    assert vertices == expected


def test_link_components_normalized_separately():
    d = build_star(toric_pattern(2, 10))
    star_table = star_arc_table(d)
    tables = star_table.passages
    assert len(tables) == 2
    for passages in tables:
        arcs = [float(ps.arc) for ps in passages]
        assert all(0 < a < 1 for a in arcs)
    assert len(star_table.total_lengths) == 2
    assert mp.almosteq(star_table.total_lengths[0], star_table.total_lengths[1])


def test_slot_map_is_a_bijection_that_carries_the_signs():
    """The crossings' (braid_row, braid_col) cover the p (q-1) cells of
    the sign matrix once each, and every crossing carries its cell's sign."""
    rng = random.Random(3301)
    for q in range(2, 8):
        for p in range(2 * q + 1, 2 * q + 13):
            signs = tuple(tuple(rng.choice((1, -1)) for _ in range(q - 1)) for _ in range(p))
            pattern = QuasitoricPattern(q, p, signs)
            d = build_star(pattern)
            slots = sorted((c.braid_row, c.braid_col) for c in d.crossings)
            assert slots == [(r, k) for r in range(p) for k in range(q - 1)], (p, q)
            assert all(c.sign == signs[c.braid_row][c.braid_col] for c in d.crossings), (p, q)


def test_assign_all_positive_and_single_negative():
    signed = build_star(toric_pattern(2, 5))
    assert all(c.sign == 1 for c in signed.crossings)
    pattern = QuasitoricPattern(2, 5, ((1,), (1,), (1,), (1,), (-1,)))
    signed = build_star(pattern)
    assert sum(1 for c in signed.crossings if c.sign == -1) == 1


@pytest.mark.parametrize("prec_bits", [64, 128, 192, 1024])
def test_closed_form_geometry_matches_segment_intersection(prec_bits):
    """Every crossing point and passage arc of the closed form lies within
    2^-(prec - 8) of the general segment intersection's."""
    tol = mp.mpf(2) ** (8 - prec_bits)
    for q in range(2, 6):
        for p in range(2 * q + 1, 2 * q + 16):
            d = build_star(toric_pattern(q, p), prec_bits)
            (closed_points, closed_arcs), (points, arcs) = closed_form_geometry(d), oracle_geometry(d)
            for (x, y), (ox, oy) in zip(closed_points, points):
                assert abs(x - ox) <= tol and abs(y - oy) <= tol, (p, q)
            for pair, oracle_pair in zip(closed_arcs, arcs):
                assert all(abs(a - o) <= tol for a, o in zip(pair, oracle_pair)), (p, q)


PICTURE_TOLERANCE = 2.0 ** -44


def test_float_picture_matches_the_mpf_closed_form():
    """The picture's vertices are ``float()`` of the mpf vertices exactly,
    and its points and arcs lie within 2^-44 of the mpf closed form's."""
    worst = 0.0
    for q in range(2, 7):
        for p in range(2 * q + 1, 2 * q + 20):
            d = build_star(toric_pattern(q, p), prec_bits=192)
            picture = d.picture
            assert picture.rotation == float(d.geometry.rotation)
            assert picture.vertices == tuple((float(x), float(y)) for x, y in d.geometry.vertices)
            points, arcs = closed_form_geometry(d)
            assert len(picture.points) == len(picture.arcs) == len(d.crossings)
            for floats, exact in zip(picture.points + picture.arcs, points + arcs):
                worst = max([worst] + [float(abs(mp.mpf(f) - e)) for f, e in zip(floats, exact)])
    assert 0 < worst <= PICTURE_TOLERANCE


def _star_jones(pattern):
    d = build_star(pattern)
    return diagram_jones(d, over_flags_from_signs(d))


@pytest.mark.parametrize("k,n", [(2, 5), (3, 7)])
def test_letter_map_locked_by_torus_oracle(k, n):
    # the all-positive star must reproduce the abstract toric closure
    pattern = toric_pattern(k, n)
    assert _star_jones(pattern) == pattern_jones(pattern)


def test_letter_map_mixed_signs_oracle():
    pattern = QuasitoricPattern(3, 7, ((1, 1), (1, -1), (-1, 1), (1, 1), (-1, -1), (1, 1), (1, -1)))
    assert _star_jones(pattern) == pattern_jones(pattern)
