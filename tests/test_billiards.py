import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest
from mirror_room_oracle import all_vertices, pairwise_mirror_room, plain_contains_xy
from reflection_oracle import pointwise_reflection
from table_oracles import pairwise_floor

from billiardknots import billiards
from billiardknots.billiards import (
    _near_least,
    _screen_bound,
    build_table,
    internal_bisector,
    mirror_room_check,
    polygon_mirrors,
)
from billiardknots.braids import pad_to_min_repetitions
from billiardknots.errors import DegenerateAngleError, UnboundedTableError
from billiardknots.heights import SawtoothHeight, emit_trajectory
from billiardknots.perturbation import arc_length_table, perturb, to_mpf
from billiardknots.pipeline import MAX_HALVINGS, perturb_stage
from billiardknots.presets import PRESETS
from billiardknots.stars import build_star


def fake_polygon(vertex_lists):
    comps = tuple(SimpleNamespace(vertices=tuple(vs)) for vs in vertex_lists)
    return SimpleNamespace(components=comps)


def pentagram_polygon(seed=42):
    return perturb_stage(build_star(5, 2), Fraction(1, 1000), seed)[0]


def test_bisector_right_angle():
    ux, uy = internal_bisector((1, 0), (0, 0), (0, 1))
    s = 1 / math.sqrt(2)
    assert abs(float(ux) - s) < 1e-15
    assert abs(float(uy) - s) < 1e-15


def test_bisector_rejects_collinear():
    with pytest.raises(DegenerateAngleError):
        internal_bisector((1, 0), (0, 0), (2, 0))
    with pytest.raises(DegenerateAngleError):
        internal_bisector((0, 0), (0, 0), (1, 1))


def test_pentagram_bisectors_point_to_center():
    poly = pentagram_polygon()
    for mirror in polygon_mirrors(poly):
        vx, vy = float(mirror.vertex[0]), float(mirror.vertex[1])
        ux, uy = float(mirror.direction[0]), float(mirror.direction[1])
        inward = (-vx, -vy)
        norm = math.hypot(*inward)
        cosangle = (ux * inward[0] + uy * inward[1]) / norm
        # perturbed by 1/1000, so "toward the center" holds to ~1e-3
        assert cosangle > 1 - 1e-4


def test_mirror_room_check_pentagram():
    poly = pentagram_polygon()
    report = mirror_room_check(poly)
    assert report.passed
    # independent recomputation of the margin
    mirrors = polygon_mirrors(poly)
    vals = []
    pts = [(float(x), float(y)) for x, y in all_vertices(poly)]
    for k, m in enumerate(mirrors):
        vx, vy = float(m.vertex[0]), float(m.vertex[1])
        for i, (px, py) in enumerate(pts):
            if i != k:
                vals.append(float(m.direction[0]) * (px - vx) + float(m.direction[1]) * (py - vy))
    assert abs(min(vals) - float(report.margin)) < 1e-9
    assert min(vals) > 0


def test_mirror_room_check_degenerate_witness():
    # one vertex strictly inside the triangle of the others: not a trajectory
    bad = fake_polygon([[(Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)),
                         (Fraction(2), Fraction(3)), (Fraction(2), Fraction(1))]])
    report = mirror_room_check(bad)
    assert not report.passed
    k, i = report.witness
    mirrors = polygon_mirrors(bad)
    m = mirrors[k]
    pts = all_vertices(bad)
    value = float(m.direction[0]) * (float(pts[i][0]) - float(m.vertex[0])) + float(
        m.direction[1]
    ) * (float(pts[i][1]) - float(m.vertex[1]))
    assert value <= float(report.threshold)


def test_convex_polygon_is_its_own_trajectory():
    # a convex quadrilateral traversed in order satisfies the condition
    square = fake_polygon([[(Fraction(0), Fraction(0)), (Fraction(3), Fraction(1)),
                            (Fraction(2), Fraction(4)), (Fraction(-1), Fraction(2))]])
    assert mirror_room_check(square).passed


def test_build_table_pentagram_touches_tips():
    poly = pentagram_polygon()
    table = build_table(polygon_mirrors(poly))
    assert len(table.floor) == 5
    # every trajectory vertex lies on its mirror's edge of the table
    for mirror, (e1, e2) in zip(table.mirrors, table.edge_of_mirror):
        vx, vy = float(mirror.vertex[0]), float(mirror.vertex[1])
        x1, y1 = float(e1[0]), float(e1[1])
        x2, y2 = float(e2[0]), float(e2[1])
        cross = (x2 - x1) * (vy - y1) - (y2 - y1) * (vx - x1)
        assert abs(cross) < 1e-10
        lam = ((vx - x1) * (x2 - x1) + (vy - y1) * (y2 - y1)) / (
            (x2 - x1) ** 2 + (y2 - y1) ** 2
        )
        assert -1e-12 < lam < 1 + 1e-12
    # and inside the table: vertices and crossings
    for v in all_vertices(poly):
        assert plain_contains_xy(table, v, mp.mpf("1e-20"))
    for pc in poly.crossings:
        assert plain_contains_xy(table, pc.point, mp.mpf("1e-20"))


def test_build_table_orthic_triangle_recovers_original():
    """The altitude-feet orbit of an acute triangle has the triangle itself
    as its billiard table (classical Fagnano orbit)."""
    A, B, C = (Fraction(0), Fraction(0)), (Fraction(5), Fraction(0)), (Fraction(2), Fraction(4))

    def foot(p, a, b):
        # foot of the perpendicular from p onto line ab
        dx, dy = b[0] - a[0], b[1] - a[1]
        lam = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
        return (a[0] + lam * dx, a[1] + lam * dy)

    ha, hb, hc = foot(A, B, C), foot(B, A, C), foot(C, A, B)
    orbit = fake_polygon([[ha, hb, hc]])
    assert mirror_room_check(orbit).passed
    table = build_table(polygon_mirrors(orbit))
    assert len(table.floor) == 3
    floor = [(float(x), float(y)) for x, y in table.floor]
    expected = [(float(v[0]), float(v[1])) for v in (A, B, C)]
    for ex, ey in expected:
        assert min(math.hypot(ex - x, ey - y) for x, y in floor) < 1e-10


def test_build_table_degenerate_raises():
    bad = fake_polygon([[(Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)),
                         (Fraction(2), Fraction(3)), (Fraction(2), Fraction(1))]])
    with pytest.raises(UnboundedTableError):
        build_table(polygon_mirrors(bad))
    with pytest.raises(UnboundedTableError):
        pairwise_floor(bad)


@pytest.mark.parametrize("p,q", [(5, 2), (7, 3), (10, 2), (10, 3), (9, 4)])
def test_build_table_matches_pairwise_oracle(p, q):
    """Consecutive mirror lines give the oracle's floor, bit for bit and in
    the same order."""
    star = build_star(p, q, prec_bits=192)
    for seed in (1, 2, 3):
        poly = perturb_stage(star, Fraction(1, 1000), seed)[0]
        assert mirror_room_check(poly, prec_bits=192).passed
        floor = build_table(polygon_mirrors(poly, 192), prec_bits=192).floor
        assert len(floor) == p
        assert floor == pairwise_floor(poly, prec_bits=192)


def make_simple_traj(points, kinds):
    x, y, z = (list(column) for column in zip(*points))
    comp = SimpleNamespace(kinds=kinds, x=x, y=y, z=z)
    return SimpleNamespace(components=(comp,))


def test_pointwise_reflection_oracle_floor_bounce():
    poly = pentagram_polygon()
    table = build_table(polygon_mirrors(poly))
    # synthetic V-shaped bounce on the floor inside the table, closed by a
    # ceiling bounce directly above
    traj = make_simple_traj(
        [(mp.mpf(0), mp.mpf(0), mp.mpf(0)), (mp.mpf(0), mp.mpf(0), mp.mpf(1))], "fc"
    )
    report = pointwise_reflection(traj, table, 1e-9)
    assert not report.passed  # degenerate 2-point component is rejected


def test_pointwise_reflection_oracle_emitted_trajectory_and_corruption():
    from fractions import Fraction as F

    from billiardknots.heights import SawtoothHeight, emit_trajectory
    from billiardknots.perturbation import arc_length_table

    poly = pentagram_polygon()
    table = build_table(polygon_mirrors(poly, 192), prec_bits=192)
    arcs = arc_length_table(poly, 256)
    traj = emit_trajectory(poly, (SawtoothHeight(1, F(1, 3)),), arcs)
    assert pointwise_reflection(traj, table, 1e-9, prec_bits=192).passed

    comp = traj.components[0]
    # corrupt the height of the third event; the report names it
    pts = list(comp.points)
    x, y, z = pts[2]
    pts[2] = (x, y, z + mp.mpf("0.05"))
    broken = make_simple_traj(pts, comp.kinds)
    report = pointwise_reflection(broken, table, 1e-9, prec_bits=192)
    assert not report.passed
    assert any("event 2" in v or "event 1" in v or "event 3" in v for v in report.violations)


def test_pointwise_reflection_oracle_names_bounce_point_outside_floor():
    poly = pentagram_polygon()
    table = build_table(polygon_mirrors(poly, 192), prec_bits=192)
    arcs = arc_length_table(poly, 256)
    comp = emit_trajectory(poly, (SawtoothHeight(1, Fraction(1, 3)),), arcs).components[0]
    for kind in ("floor", "ceiling"):
        i = comp.kinds.index(kind[0])
        pts = list(comp.points)
        x, y, z = pts[i]
        pts[i] = (x + 10, y, z)
        report = pointwise_reflection(make_simple_traj(pts, comp.kinds), table, 1e-9, 192)
        assert f"component 0 point {i}: leaves the floor polygon" in report.violations


def test_lemma1_jitter_stability_pentagram():
    poly = pentagram_polygon()
    report = mirror_room_check(poly)
    m = float(report.margin)
    rng = random.Random(7)
    for _ in range(100):
        jittered = []
        for comp in poly.components:
            vs = []
            for x, y in comp.vertices:
                r = rng.uniform(0, m / 4) * 0.999
                ang = rng.uniform(0, 2 * math.pi)
                vs.append((float(x) + r * math.cos(ang), float(y) + r * math.sin(ang)))
            jittered.append(vs)
        assert mirror_room_check(fake_polygon(jittered), prec_bits=64).passed


SCREEN_PRECISIONS = (53, 64, 128, 192)
STAR_SHAPES = [(5, 2), (7, 3), (10, 2), (10, 3), (9, 4)]


def preset_polygon(name, prec_bits=192):
    padded = pad_to_min_repetitions(PRESETS[name])
    star = build_star(padded.repetitions, padded.strands, prec_bits)
    return perturb_stage(star, Fraction(1, 1000), 42)[0]


def random_polygons(seed):
    """Seeded polygons with small rational vertices; most fail the check."""
    rng = random.Random(seed)
    polys = []
    for _ in range(12):
        comps = [
            [
                (Fraction(rng.randint(-900, 900), rng.randint(1, 97)),
                 Fraction(rng.randint(-900, 900), rng.randint(1, 97)))
                for _ in range(rng.randint(3, 7))
            ]
            for _ in range(rng.randint(1, 2))
        ]
        polys.append(fake_polygon(comps))
    return polys


def jittered_polygons(seed):
    """A perturbed star moved by up to 1/4, 2 and 20 times its margin: the
    first pass the check, the last fail it."""
    poly = perturb_stage(build_star(7, 3), Fraction(1, 1000), seed)[0]
    margin = float(mirror_room_check(poly).margin)
    rng = random.Random(seed)
    polys = []
    for scale in (0.25, 2.0, 20.0):
        for _ in range(3):
            comps = []
            for comp in poly.components:
                vs = []
                for x, y in comp.vertices:
                    r = rng.uniform(0, margin * scale)
                    ang = rng.uniform(0, 2 * math.pi)
                    vs.append((float(x) + r * math.cos(ang), float(y) + r * math.sin(ang)))
                comps.append(vs)
            polys.append(fake_polygon(comps))
    return polys


def tied_polygons():
    """Polygons whose pair values tie exactly: a square, a large and a tiny
    rectangle, a symmetric hexagon, the failing kite with an inner vertex,
    two 9-pointed stars through rational points of a circle (scaled by
    7/11), on which a float64 screen that keeps only the float least pair
    picks another pair than the mpf loop at 128 bits, and a failing
    pentagon whose vertex 0 is nearly straight (its edges 5/7 and 4/9 long
    fall by 1/3,000,000 of their length), so that its float64 bisector is
    off by about 1e-10 and splits the exact tie of pairs (0, 2) and (0, 3),
    which a screen without the bisector's own bound gets wrong at 64
    bits."""
    F = Fraction
    circle_stars = [
        [(F(x) * F(7, 11), F(y) * F(7, 11)) for x, y in star]
        for star in (
            [("-8/17", "-15/17"), ("12/13", "-5/13"), ("12/13", "5/13"), ("-8/17", "15/17"),
             ("-24/25", "7/25"), ("8/17", "-15/17"), ("24/25", "-7/25"), ("8/17", "15/17"),
             ("-4/5", "3/5")],
            [("-15/17", "-8/17"), ("-8/17", "-15/17"), ("21/29", "-20/29"), ("-7/25", "24/25"),
             ("-24/25", "7/25"), ("-3/5", "-4/5"), ("7/25", "-24/25"), ("15/17", "8/17"),
             ("-15/17", "8/17")],
        )
    ]
    square = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    big = [(F(-3) * 10**6, F(-2) * 10**6), (F(3) * 10**6, F(-2) * 10**6),
           (F(3) * 10**6, F(2) * 10**6), (F(-3) * 10**6, F(2) * 10**6)]
    tiny = [(x / 10**12, y / 10**12) for x, y in big]
    hexagon = [
        (F(2), F(0)), (F(1), F(2)), (F(-1), F(2)), (F(-2), F(0)), (F(-1), F(-2)), (F(1), F(-2))
    ]
    kite = [(F(0), F(0)), (F(4), F(0)), (F(2), F(3)), (F(2), F(1))]
    x, y, e = F(1, 3), F(1, 7), F(1, 3 * 10**6)
    flat = [(x, y), (x + F(4, 9), y - F(4, 9) * e), (x + F(1, 2), y + 2), (x - F(1, 2), y + 2),
            (x - F(5, 7), y - F(5, 7) * e)]
    return [fake_polygon([vs]) for vs in [square, big, tiny, hexagon, kite, flat] + circle_stars]


def assert_same_mirror_room(poly, prec_bits):
    """The screened check's verdict, margin, witness and threshold are the
    unscreened loops', bit for bit."""
    got = mirror_room_check(poly, prec_bits)
    want = pairwise_mirror_room(poly, prec_bits)
    assert (got.passed, got.witness) == (want.passed, want.witness)
    assert got.margin._mpf_ == want.margin._mpf_
    assert got.threshold._mpf_ == want.threshold._mpf_
    return got


@pytest.mark.parametrize("prec", SCREEN_PRECISIONS)
def test_mirror_room_screen_matches_oracle_on_presets_and_stars(prec):
    for name in PRESETS:
        assert_same_mirror_room(preset_polygon(name), prec)
    for p, q in STAR_SHAPES:
        star = build_star(p, q, prec_bits=192)
        for seed in (1, 2, 3):
            assert_same_mirror_room(perturb_stage(star, Fraction(1, 1000), seed)[0], prec)


@pytest.mark.parametrize("prec", SCREEN_PRECISIONS)
def test_mirror_room_screen_matches_oracle_on_fake_polygons(prec):
    verdicts = []
    for poly in tied_polygons() + jittered_polygons(1) + jittered_polygons(2):
        verdicts.append(assert_same_mirror_room(poly, prec).passed)
    for seed in (1, 2, 3):
        for poly in random_polygons(seed):
            try:
                want = pairwise_mirror_room(poly, prec)
            except DegenerateAngleError:
                with pytest.raises(DegenerateAngleError):
                    mirror_room_check(poly, prec)
                continue
            verdicts.append(assert_same_mirror_room(poly, prec).passed)
            assert verdicts[-1] == want.passed
    assert True in verdicts and False in verdicts


def test_mirror_room_check_returns_the_mirrors_it_checked():
    """The check's margin is the least value over the mirrors that
    ``polygon_mirrors`` builds for the table, each through its vertex
    rounded once at the working precision."""
    poly = preset_polygon("hopf")
    report = mirror_room_check(poly, prec_bits=192)
    mirrors = tuple(polygon_mirrors(poly, 192))
    with mp.workprec(192):
        assert report.margin == min(
            m.direction[0] * (o.point[0] - m.point[0]) + m.direction[1] * (o.point[1] - m.point[1])
            for m in mirrors
            for o in mirrors
            if o is not m
        )
        for mirror in mirrors:
            assert mirror.point == (to_mpf(mirror.vertex[0]), to_mpf(mirror.vertex[1]))


def layout_polygon(star, delta, seed):
    """The first polygon of ``perturb_stage``'s seeded draws whose layout is
    the star's, mirror room or not: delta is halved only on a layout
    failure."""
    for halving in range(MAX_HALVINGS + 1):
        rng = random.Random(seed * 1_000_003 + halving)
        draws = [rng.uniform(-1.0, 1.0) for _ in range(2 * star.p)]
        poly = perturb(star, delta / (1 << halving), draws)
        if poly is not None:
            return poly
    raise AssertionError(f"no layout of {delta} * 2^-h matches the star")


def random_line_polygons(seed):
    """Polygons of lines drawn as ``perturb_stage`` draws them around six
    stars, at deltas from 1/1000 to 1/2; from 1/8 up, many fail the check."""
    polys = []
    for p, q in [(5, 2), (7, 3), (10, 2), (10, 3), (9, 4), (12, 2)]:
        star = build_star(p, q, prec_bits=192)
        for delta in (1000, 30, 8, 4, 2):
            polys.append(layout_polygon(star, Fraction(1, delta), seed))
    return polys


def symmetric_pentagram():
    """The unperturbed {5/2} star of acceptance criterion 8 at 256 bits:
    its five mirrors tie, so every one of them owns a candidate."""
    star = build_star(5, 2, prec_bits=256)
    (comp,) = star.components
    return fake_polygon([[star.geometry.vertices[star.chords[c][0]] for c in comp]])


@pytest.fixture
def bisector_calls(monkeypatch):
    """The vertices ``internal_bisector`` is called at, in order."""
    calls = []
    real = billiards.internal_bisector

    def counted(prev, at, next_, prec_bits=128):
        calls.append(at)
        return real(prev, at, next_, prec_bits)

    monkeypatch.setattr(billiards, "internal_bisector", counted)
    return calls


@pytest.mark.parametrize("prec", SCREEN_PRECISIONS)
def test_bisector_screen_matches_oracle_on_random_lines_and_the_symmetric_star(prec):
    verdicts = set()
    for seed in (1, 2, 3):
        for poly in random_line_polygons(seed):
            verdicts.add(assert_same_mirror_room(poly, prec).passed)
    assert verdicts == {True, False}
    assert assert_same_mirror_room(symmetric_pentagram(), prec).passed


@pytest.mark.parametrize("prec", SCREEN_PRECISIONS)
def test_bisector_screen_evaluates_only_the_candidate_mirrors(prec, bisector_calls):
    """A preset's check evaluates one working-precision bisector, the
    least pair's; the symmetric star's, whose values tie, all five."""
    for name in PRESETS:
        poly = preset_polygon(name)
        bisector_calls.clear()
        mirror_room_check(poly, prec)
        assert len(bisector_calls) == 1
    bisector_calls.clear()
    mirror_room_check(symmetric_pentagram(), prec)
    assert len(bisector_calls) == 5


@pytest.mark.parametrize("prec", SCREEN_PRECISIONS)
def test_bisector_screen_raises_for_a_degenerate_angle(prec, bisector_calls):
    """A straight or coincident vertex raises DegenerateAngleError, as in
    ``polygon_mirrors``; so does a vertex at (0, 0) whose angle test misses
    its limit 2^(-prec // 2) by 2^-20 of it, which float64 leaves to the
    working precision, while the same vertex clearing it by 2^-20 does
    not.  A spike at (1/3, 1/7) whose angle test is half its limit raises
    too, though its mirror owns no candidate: at 128 and 192 bits the
    float64 roundings of its coordinates alone exceed the limit, so only
    the angle test's own bound sends it to the working precision."""
    F = Fraction
    straight = [(F(0), F(0)), (F(2), F(0)), (F(4), F(0)), (F(2), F(3))]
    coincident = [(F(0), F(0)), (F(1), F(0)), (F(1), F(0)), (F(0), F(1))]
    for vertices in (straight, coincident):
        for check in (mirror_room_check, pairwise_mirror_room):
            with pytest.raises(DegenerateAngleError):
                check(fake_polygon([vertices]), prec)
    tau = F(2) ** (-prec // 2)
    for eps, degenerate in ((tau * (1 - F(1, 2**20)), True), (tau * (1 + F(1, 2**20)), False)):
        poly = fake_polygon([[(F(-1), F(0)), (F(0), F(0)), (F(1), eps), (F(0), F(1))]])
        bisector_calls.clear()
        if degenerate:
            with pytest.raises(DegenerateAngleError):
                mirror_room_check(poly, prec)
            assert bisector_calls == [(0, 0)]
            with pytest.raises(DegenerateAngleError):
                pairwise_mirror_room(poly, prec)
        else:
            mirror_room_check(poly, prec)
            assert (0, 0) in bisector_calls
            assert_same_mirror_room(poly, prec)
    x, y, eta = F(1, 3), F(1, 7), F(2) ** (-prec // 2) / 2
    spike = [(x, y), (x + 1, y + F(3, 7) + eta), (x + 3, y + 3), (x + 4, y - 1), (x + 2, y + F(6, 7))]
    for check in (mirror_room_check, pairwise_mirror_room):
        with pytest.raises(DegenerateAngleError):
            check(fake_polygon([spike]), prec)


@pytest.mark.parametrize("prec", SCREEN_PRECISIONS)
def test_screen_bound_covers_float_and_mpf_evaluations(prec):
    """Every pair's float64 distance and value are within the screen's
    bound of the working-precision ones (the derivation in
    ``mirror_room_check``)."""
    polys = [preset_polygon(name) for name in PRESETS] + tied_polygons() + jittered_polygons(3)
    for poly in polys:
        mirrors = polygon_mirrors(poly, prec)
        floats = [(float(x), float(y)) for x, y in (m.vertex for m in mirrors)]
        eps = _screen_bound(max(max(abs(x), abs(y)) for x, y in floats), prec)
        with mp.workprec(prec):
            for k, mirror in enumerate(mirrors):
                ux, uy = mirror.direction
                fx, fy = float(ux), float(uy)
                (vx, vy), (gx, gy) = mirror.point, floats[k]
                for i, other in enumerate(mirrors):
                    (px, py), (hx, hy) = other.point, floats[i]
                    value = ux * (px - vx) + uy * (py - vy)
                    assert abs(fx * (hx - gx) + fy * (hy - gy) - value) <= eps
                    dist = mp.hypot(px - vx, py - vy)
                    assert abs(math.hypot(hx - gx, hy - gy) - dist) <= eps


def test_near_least_keeps_everything_within_twice_the_bound():
    assert _near_least([3.0, 1.0, 3.0, 2.0, 1.5], 0.5) == [1, 3, 4]
    assert _near_least([0.0, 0.0], 0.0) == [0, 1]


def random_closed_polygons(seed, count):
    """Seeded closed polygons with rational vertices, alternately: random
    point sets (half of them sorted by angle about their centroid, so that
    some bound a table) and {p/q} stars through the unit circle with each
    vertex moved by up to 10^-6 to 1/2."""
    rng = random.Random(seed)
    polys = []
    for index in range(count):
        if index % 2:
            p, q = rng.choice(STAR_SHAPES + [(6, 2), (7, 2), (8, 3)])
            jitter = Fraction(1, rng.choice((10**6, 1000, 100, 20, 5, 2)))

            def point(k):
                angle = 2 * math.pi * k / p
                return tuple(
                    Fraction(c) + jitter * Fraction(rng.randint(-1000, 1000), 1000)
                    for c in (math.cos(angle), math.sin(angle))
                )

            d = math.gcd(p, q)
            comps = [[point(m + j * q) for j in range(p // d)] for m in range(d)]
        else:
            comps = []
            for _ in range(rng.randint(1, 2)):
                pts = [
                    (Fraction(rng.randint(-900, 900), rng.randint(1, 97)),
                     Fraction(rng.randint(-900, 900), rng.randint(1, 97)))
                    for _ in range(rng.randint(3, 8))
                ]
                if rng.random() < 0.5:
                    cx = sum(x for x, _ in pts) / len(pts)
                    cy = sum(y for _, y in pts) / len(pts)
                    pts.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
                comps.append(pts)
        polys.append(fake_polygon(comps))
    return polys


def test_build_table_rejects_and_accepts_as_the_pairwise_oracle():
    """On random polygons the edge-order test raises exactly when the
    pairwise half-plane intersection does, and otherwise gives its floor
    bit for bit, at 53, 64, 128 and 192 bits."""
    outcomes = set()
    for index, poly in enumerate(random_closed_polygons(19, 200)):
        prec = SCREEN_PRECISIONS[index % 4]
        try:
            mirrors = polygon_mirrors(poly, prec)
        except DegenerateAngleError:
            with pytest.raises(DegenerateAngleError):
                pairwise_floor(poly, prec)
            continue
        try:
            want = pairwise_floor(poly, prec)
        except UnboundedTableError:
            with pytest.raises(UnboundedTableError):
                build_table(mirrors, prec)
            outcomes.add(False)
            continue
        assert build_table(mirrors, prec).floor == want
        outcomes.add(True)
    assert outcomes == {True, False}
