import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest
from reflection_oracle import pointwise_reflection as verify_reflection
from table_oracles import pairwise_floor

from billiardknots.billiards import (
    build_table,
    internal_bisector,
    mirror_room_check,
    polygon_mirrors,
)
from billiardknots.errors import DegenerateAngleError, UnboundedTableError
from billiardknots.heights import SawtoothHeight, emit_trajectory
from billiardknots.perturbation import arc_length_table, perturb
from billiardknots.stars import build_star


def fake_polygon(vertex_lists):
    comps = tuple(SimpleNamespace(vertices=tuple(vs)) for vs in vertex_lists)
    return SimpleNamespace(
        components=comps,
        all_vertices=lambda: [v for c in comps for v in c.vertices],
    )


def pentagram_polygon(seed=42):
    return perturb(build_star(5, 2), Fraction(1, 1000), seed=seed)


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
    pts = [(float(x), float(y)) for x, y in poly.all_vertices()]
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
    pts = bad.all_vertices()
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
    table = build_table(poly)
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
    for v in poly.all_vertices():
        assert table.contains_xy(v, mp.mpf("1e-20"))
    for pc in poly.crossings:
        assert table.contains_xy(pc.point, mp.mpf("1e-20"))


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
    table = build_table(orbit)
    assert len(table.floor) == 3
    floor = [(float(x), float(y)) for x, y in table.floor]
    expected = [(float(v[0]), float(v[1])) for v in (A, B, C)]
    for ex, ey in expected:
        assert min(math.hypot(ex - x, ey - y) for x, y in floor) < 1e-10


def test_build_table_degenerate_raises():
    bad = fake_polygon([[(Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)),
                         (Fraction(2), Fraction(3)), (Fraction(2), Fraction(1))]])
    with pytest.raises(UnboundedTableError):
        build_table(bad)
    with pytest.raises(UnboundedTableError):
        pairwise_floor(bad)


@pytest.mark.parametrize("p,q", [(5, 2), (7, 3), (10, 2), (10, 3), (9, 4)])
def test_build_table_matches_pairwise_oracle(p, q):
    """Consecutive mirror lines give the oracle's floor, bit for bit and in
    the same order."""
    star = build_star(p, q, prec_bits=192)
    for seed in (1, 2, 3):
        poly = perturb(star, Fraction(1, 1000), seed=seed)
        assert mirror_room_check(poly, prec_bits=192).passed
        floor = build_table(poly, prec_bits=192).floor
        assert len(floor) == p
        assert floor == pairwise_floor(poly, prec_bits=192)


def make_simple_traj(points, events):
    comp = SimpleNamespace(points=tuple(points), events=tuple(events))
    return SimpleNamespace(components=(comp,))


def test_verify_reflection_floor_bounce():
    poly = pentagram_polygon()
    table = build_table(poly)
    # synthetic V-shaped bounce on the floor inside the table, closed by a
    # ceiling bounce directly above
    ev = [
        SimpleNamespace(kind="floor", arc=0, mirror_index=None),
        SimpleNamespace(kind="ceiling", arc=1, mirror_index=None),
    ]
    traj = make_simple_traj(
        [(mp.mpf(0), mp.mpf(0), mp.mpf(0)), (mp.mpf(0), mp.mpf(0), mp.mpf(1))], ev
    )
    report = verify_reflection(traj, table, 1e-9)
    assert not report.passed  # degenerate 2-point component is rejected


def test_verify_reflection_emitted_trajectory_and_corruption():
    from fractions import Fraction as F

    from billiardknots.heights import SawtoothHeight, emit_trajectory
    from billiardknots.perturbation import arc_length_table

    poly = pentagram_polygon()
    table = build_table(poly, prec_bits=192)
    arcs = arc_length_table(poly, 256)
    traj = emit_trajectory(poly, (SawtoothHeight(1, F(1, 3)),), arcs, prec_bits=192)
    assert verify_reflection(traj, table, 1e-9, prec_bits=192).passed

    comp = traj.components[0]
    # corrupt the height of the third event; the report names it
    pts = list(comp.points)
    x, y, z = pts[2]
    pts[2] = (x, y, z + mp.mpf("0.05"))
    broken = make_simple_traj(pts, comp.events)
    report = verify_reflection(broken, table, 1e-9, prec_bits=192)
    assert not report.passed
    assert any("event 2" in v or "event 1" in v or "event 3" in v for v in report.violations)


def test_verify_reflection_names_bounce_point_outside_floor():
    poly = pentagram_polygon()
    table = build_table(poly, prec_bits=192)
    arcs = arc_length_table(poly, 256)
    comp = emit_trajectory(poly, (SawtoothHeight(1, Fraction(1, 3)),), arcs, 192).components[0]
    for kind in ("floor", "ceiling"):
        i = next(i for i, ev in enumerate(comp.events) if ev.kind == kind)
        pts = list(comp.points)
        x, y, z = pts[i]
        pts[i] = (x + 10, y, z)
        report = verify_reflection(make_simple_traj(pts, comp.events), table, 1e-9, 192)
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
