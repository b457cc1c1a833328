"""Mirrors, mirror rooms, and the convex prism table.

At a trajectory vertex B the mirror is the line through B orthogonal to the
internal bisector of the angle at B; the mirror room is the half-plane it
bounds on the trajectory's side.  A closed polygon (or union of polygons)
is a billiard trajectory exactly when it lies in all of its mirror rooms,
and then the intersection of those half-planes is a convex table whose
boundary touches the trajectory at every vertex.  The prism is that floor
times the height interval [0, 1]; its walls are vertical, so the planar
reflection law lifts to 3D with the z-slope preserved.

The mirrors are built once, each vertex rounded once to the working
precision, by ``mirror_room_check``, which hands them to ``build_table``.
The pairwise work of that check (the diameter and the n^2 mirror-room
values) is screened in float64: a proven bound eps = 2^7 v (R + 1), with
v the larger of the float64 and the working precision's unit roundoff and
R the size of the inputs, covers how far a float value can be from its
working-precision one.  Only the candidates the screen cannot rule out are
evaluated in mpf, in the unscreened order, so every result is the
unscreened loops' bit for bit.  ``build_table`` is not screened: it checks
the floor with one exact mpf test per edge, that the edge runs
counterclockwise along its mirror line.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import mpmath as mp

from .errors import DegenerateAngleError, DomainError, UnboundedTableError
from .heights import KIND_NAMES, component_events, passage_heights
from .perturbation import PerturbedPolygon, to_mpf
from .stars import ArcTable

MARGIN_FACTOR = 1e-12  # of the trajectory diameter


def internal_bisector(prev, at, next_, prec_bits: int = 128):
    """Unit vector along the internal bisector of the angle prev-at-next.

    Points into the angle: u = normalize(normalize(prev-at) + normalize(next-at)).
    """
    with mp.workprec(prec_bits):
        ax = to_mpf(prev[0]) - to_mpf(at[0])
        ay = to_mpf(prev[1]) - to_mpf(at[1])
        bx = to_mpf(next_[0]) - to_mpf(at[0])
        by = to_mpf(next_[1]) - to_mpf(at[1])
        na, nb = mp.hypot(ax, ay), mp.hypot(bx, by)
        if na == 0 or nb == 0:
            raise DegenerateAngleError("coincident points give no angle")
        eps = mp.mpf(2) ** (-prec_bits // 2)
        if abs(ax * by - ay * bx) < eps * na * nb:
            raise DegenerateAngleError("collinear points give a degenerate angle")
        ux = ax / na + bx / nb
        uy = ay / na + by / nb
        norm = mp.hypot(ux, uy)
        return (ux / norm, uy / norm)


@dataclass(frozen=True)
class Mirror:
    vertex: tuple                    # exact rational trajectory vertex
    direction: tuple                 # unit internal bisector (mpf), points inward
    component: int
    vertex_index: int
    point: tuple                     # the vertex as mpf, rounded once at the working precision


@dataclass(frozen=True)
class MirrorRoomReport:
    passed: bool
    margin: object                        # min over (k, i) of u_k . (P_i - P_k)
    witness: tuple[int, int] | None = None  # flat (k, i) vertex indices on failure
    threshold: object = None
    mirrors: tuple[Mirror, ...] = ()      # the checked mirrors, in flat vertex order


def polygon_mirrors(poly: PerturbedPolygon, prec_bits: int = 128) -> list[Mirror]:
    mirrors = []
    with mp.workprec(prec_bits):
        for ci, comp in enumerate(poly.components):
            m = len(comp.vertices)
            if m < 3:
                raise DomainError(f"component {ci} has fewer than 3 vertices")
            points = [(to_mpf(x), to_mpf(y)) for x, y in comp.vertices]
            for i in range(m):
                u = internal_bisector(points[i - 1], points[i], points[(i + 1) % m], prec_bits)
                mirrors.append(Mirror(comp.vertices[i], u, ci, i, points[i]))
    return mirrors


def _screen_bound(size: float, prec_bits: int) -> float:
    """2^7 v (size + 1), with v = 2^-min(prec_bits, 53): how far apart a
    float64 and a working-precision evaluation of a screened value can be,
    when ``size`` bounds its inputs as ``mirror_room_check`` derives; that
    check is the only screened one.  The 1 covers underflow, where a
    rounding may be off by 2^-1074 absolutely."""
    return 2.0 ** (7 - min(prec_bits, 53)) * (size + 1.0)


def _near_least(values, eps: float) -> list[int]:
    """Indices, in order, of the values within 2 eps of the least."""
    cut = min(values) + 2 * eps
    return [j for j, value in enumerate(values) if value <= cut]


def mirror_room_check(poly: PerturbedPolygon, prec_bits: int = 128) -> MirrorRoomReport:
    """Strict mirror-room condition: u_k . (P_i - P_k) > margin for all i != k.

    The margin is ``MARGIN_FACTOR`` times the trajectory diameter, guarding
    the square roots inside the bisector normalization; everything else is
    exact.  All vertices of all components count, so for links every mirror
    room must contain the whole union.  The report carries the mirrors it
    checked, for ``build_table``.

    The diameter and the least value are found by a float64 screen and
    confirmed at the working precision.  One float pass evaluates every
    unordered pair's distance (``hypot`` is symmetric under negation, so
    the ordered pairs add nothing) and every ordered pair's value; only
    the candidates, the pairs within 2 eps of the float extreme, are
    evaluated in mpf, in the unscreened (k, i) order.  With v = 2^-min(p,
    53) for p = prec_bits, each rounding of either evaluation (a float op,
    a rational or mpf rounded to float, a rational rounded to mpf by
    ``to_mpf``, an mpf op) is off by at most v relative.  With R the
    largest vertex coordinate in absolute value and u_k the stored mpf
    bisector (|u_k| <= 1 + 4 * 2^-p), each evaluation is within 20 v R of
    the exact value:
      - a coordinate difference of two vertices, rounded once each (to
        float or to mpf) and then subtracted, is off by at most 4.01 v R
        and is at most 2.01 R;
      - a product u . d adds its own rounding and, in float, the rounding
        of u (1.01 v times 2.01 R): either way it is off by at most
        8.2 v R, and the sum, at most 2.9 R, is rounded once more:
        2 * 8.2 v R + 2.9 v R < 20 v R;
      - a distance has an argument off by at most sqrt(2) * 4.01 v R <
        5.7 v R, and hypot rounds once more (math.hypot within one ulp,
        2 v of at most 2.9 R in float; mp.hypot correctly rounded but for
        4 guard bits in mpf), so it is off by less than 12 v R.
    The two evaluations of a pair are thus within 40 v R of each other,
    less than eps = ``_screen_bound(R, p)`` = 2^7 v (R + 1).  So the pair
    that attains the mpf least value M has a float value within eps of M,
    and M is at most the mpf value of the float least pair, within eps of
    the float least: every pair that attains M is a candidate (for the
    diameter likewise, with signs flipped).  The mpf values, the first
    pair that attains M in (k, i) order, the threshold and the verdict are
    therefore those of the unscreened loops, bit for bit.
    """
    mirrors = polygon_mirrors(poly, prec_bits)
    n = len(mirrors)
    floats = [(float(x), float(y)) for x, y in (m.vertex for m in mirrors)]
    eps = _screen_bound(max(max(abs(x), abs(y)) for x, y in floats), prec_bits)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    far = _near_least(
        [-math.hypot(floats[i][0] - floats[j][0], floats[i][1] - floats[j][1]) for i, j in pairs],
        eps,
    )
    values = []
    for k, mirror in enumerate(mirrors):
        ux, uy = float(mirror.direction[0]), float(mirror.direction[1])
        vx, vy = floats[k]
        values.extend(ux * (px - vx) + uy * (py - vy) for px, py in floats[:k] + floats[k + 1:])
    with mp.workprec(prec_bits):
        pts = [m.point for m in mirrors]
        diameter = max(
            mp.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            for i, j in (pairs[c] for c in far)
            if pts[i] != pts[j]
        )
        threshold = mp.mpf(MARGIN_FACTOR) * diameter
        margin = None
        witness = None
        for c in _near_least(values, eps):
            k, i = divmod(c, n - 1)
            i += i >= k
            vx, vy = pts[k]
            ux, uy = mirrors[k].direction
            px, py = pts[i]
            value = ux * (px - vx) + uy * (py - vy)
            if margin is None or value < margin:
                margin = value
                witness = (k, i)
        passed = margin is not None and margin > threshold
        return MirrorRoomReport(
            passed=passed,
            margin=margin,
            witness=None if passed else witness,
            threshold=threshold,
            mirrors=tuple(mirrors),
        )


@dataclass(frozen=True)
class BilliardTable:
    floor: tuple                       # convex polygon vertices, CCW (mpf pairs)
    mirrors: tuple[Mirror, ...]
    edge_of_mirror: tuple[tuple[tuple, tuple], ...]  # edge endpoints per mirror


def build_table(mirrors, prec_bits: int = 128) -> BilliardTable:
    """Intersect the mirror half-planes into the convex floor polygon.

    ``mirrors`` are the ones a passed ``mirror_room_check`` returns (its
    ``mirrors``), or ``polygon_mirrors`` at the same precision: the check
    is the table's precondition, and the mirrors are built once for both.
    Every trajectory vertex touches the floor, so each mirror line carries
    one edge: ordered by outward-normal angle, consecutive lines meet at the
    corners, counterclockwise from the smallest angle about their centroid.
    Raises UnboundedTableError (a failed precondition in disguise) when the
    normals span less than a half-turn, two consecutive lines are parallel,
    or a mirror's edge, from the corner before it to its own, does not run
    counterclockwise along its line (that mirror would carry no edge).  The
    last is the edge-order test, exact and O(n), in mpf: with every gap
    between consecutive normal angles below a half-turn, a closed chain of
    positive-length edges turns once through a full turn, so it is a
    convex polygon, and a convex polygon is the intersection of its edges'
    half-planes.
    """
    mirrors = tuple(mirrors)
    n = len(mirrors)
    with mp.workprec(prec_bits):
        # boundedness: outward normals (-u) must not fit in an open half-plane
        angle = [mp.atan2(-uy, -ux) for ux, uy in (m.direction for m in mirrors)]
        order = sorted(range(n), key=angle.__getitem__)
        gaps = [angle[order[k + 1]] - angle[order[k]] for k in range(n - 1)]
        gaps.append(angle[order[0]] + 2 * mp.pi - angle[order[-1]])
        if max(gaps) >= mp.pi:
            raise UnboundedTableError("mirror normals span less than a half-turn")

        offsets = [m.direction[0] * m.point[0] + m.direction[1] * m.point[1] for m in mirrors]
        corners = []  # corners[k] is where the lines of order[k] and order[k + 1] meet
        for k in range(n):
            i, j = sorted((order[k], order[(k + 1) % n]))
            (ax, ay), a_off = mirrors[i].direction, offsets[i]
            (bx, by), b_off = mirrors[j].direction, offsets[j]
            den = ax * by - ay * bx
            if abs(den) < mp.mpf(2) ** (-prec_bits // 2):
                raise UnboundedTableError(f"consecutive mirrors {i} and {j} are parallel")
            corners.append(((a_off * by - b_off * ay) / den, (ax * b_off - bx * a_off) / den))

        edge_of_mirror = [None] * n
        for k in range(n):
            ux, uy = mirrors[order[k]].direction
            (x0, y0), (x1, y1) = corners[k - 1], corners[k]
            if not uy * (x1 - x0) - ux * (y1 - y0) > 0:
                raise UnboundedTableError("a mirror carries no edge of the floor polygon")
            edge_of_mirror[order[k]] = (corners[k - 1], corners[k])

        cx = mp.fsum(x for x, _ in corners) / n
        cy = mp.fsum(y for _, y in corners) / n
        start = min(range(n), key=lambda k: mp.atan2(corners[k][1] - cy, corners[k][0] - cx))
    return BilliardTable(
        floor=tuple(corners[start:] + corners[:start]),
        mirrors=mirrors,
        edge_of_mirror=tuple(edge_of_mirror),
    )


@dataclass(frozen=True)
class ReflectionReport:
    passed: bool
    violations: tuple[str, ...]


def walk_error_bound(vertices, length) -> float:
    """2^-49 (L + R + 1): how far any arc, point coordinate or height of the
    float walk (``heights.component_events``, ``heights.passage_heights``)
    is from the exact path of a component with planar length L (in the
    plane's units) and largest vertex coordinate R in absolute value.  The
    derivation is in ``verify_reflection``."""
    size = max(max(abs(float(x)), abs(float(y))) for x, y in vertices)
    return 2.0 ** -49 * (float(length) + size + 1.0)


def _within(tol: float, eps: float) -> float:
    """The float comparison limit that proves a distance below tol - eps."""
    return (tol - eps) * (1 - 2.0 ** -50)


COLUMNS = ("arc", "x", "y", "z")


def _all_within(stored, regenerated, limit: float) -> bool:
    """Whether every |stored - regenerated| is at most ``limit``, in one
    C-level pass over the two columns; a NaN difference fails."""
    errors = map(abs, map(operator.sub, stored, regenerated))
    return all(map(operator.le, errors, itertools.repeat(limit)))


def _first_bad_event(comp, want, limit: float) -> str:
    """Name the first event of ``comp`` that is off the regenerated ``want``
    (same lengths), for the failure message."""
    rows = zip(comp.kinds, comp.arc, comp.x, comp.y, comp.z)
    wanted = zip(want.kinds, want.arc, want.x, want.y, want.z)
    for i, ((kind, *got), (want_kind, *at)) in enumerate(zip(rows, wanted)):
        if kind != want_kind:
            return (
                f"event {i}: stored {KIND_NAMES.get(kind, kind)} event, "
                f"closed form {KIND_NAMES[want_kind]}"
            )
        errors = [abs(g - a) for g, a in zip(got, at)]
        if not all(error <= limit for error in errors):
            return (
                f"event {i}: arc off the closed form by {float(errors[0]):.6g}, "
                f"point by {float(max(errors[1:])):.6g}"
            )
    raise AssertionError("no event differs")


def verify_reflection(traj, arcs: ArcTable, tol: float) -> ReflectionReport:
    """Check a trajectory against its closed form.

    A path in the prism is a planar billiard path times a sawtooth bounce
    in [0, 1], so the polygon's vertices, their arcs and one (f, phi) per
    component fix it.  It reads the trajectory's columns, its crossing
    heights and ``traj.poly``, and ``arcs``, that polygon's arc table, at
    whose precision it works.  The wall vertices are ``traj.poly``'s exact
    rationals, the values ``polygon_mirrors`` builds the mirrors from, so
    wall event k of component c sits at the vertex of mirror (c, k) and no
    table is needed.  Each component's columns are regenerated from its
    own sawtooth (``heights.component_events``) and compared with the
    stored ones, each in one C-level pass: the ``kinds`` strings must be
    equal, every ``arc``, ``x``, ``y`` and ``z`` value within ``tol - eps``
    of its regenerated one, and so must every crossing's passage heights.
    Only on a failure does a Python loop find the first bad event to name
    it.  A component with other than m + 2f events in any column is
    rejected before anything is generated, and so is one whose ``eps`` is
    not below ``tol``.

    The regeneration runs in float64, and eps = ``walk_error_bound`` =
    2^-49 (L + R + 1) bounds its distance from the exact path through the
    arc table's arcs, with L the component's planar length and R its
    largest vertex coordinate.  With u = 2^-53, each rounding is off by
    at most u relative:
      - phi, the vertices and the vertex arcs are rounded once: off by at
        most u, u R and u;
      - an extremum arc fl(fl(h/2 - phi)/f) is off by at most
        u/f + 2.01 u <= 3.01 u, since h/2 is exact and the arc is below 1;
      - a wall or passage height is evaluated at the working precision
        plus the bits of f, so f t is off by at most u, and z = |2 frac(f t
        + phi) - 1| by at most 4.01 u before its rounding and 5.01 u after;
      - consecutive float events are more than 2^-48 apart in arc (else
        the walk raises), so the exact events come in the same order and
        each extremum lies on the same segment, and that segment spans
        S > 2^-48 - 3 u in arc;
      - an extremum's point x0 + lam dx, with lam = (t - t0)/S, has
        (t - t0) off by at most 5.02 u and S by 3.01 u, so lam is off by
        at most 8.03 u/S + u lam; dx is at most S L, because t is arc
        length over L, and u/S < 1/31, so the point is off by at most
        12 u L from lam and 5 u R from the rounding of x0, dx and the sum.
    Every error is thus below 16 u (L + R + 1) = eps, whatever f is.  The
    comparison's own roundings (three, each relative u) are covered by the
    factor 1 - 2^-50 = 1 - 8 u on ``tol - eps``.  So a stored value that
    passes is within ``tol`` of the exact path.

    Why the exact path obeys the 3D law, so that the stored one is within
    ``tol`` of a billiard path: between consecutive events the planar
    position is linear in arc length (one segment), and so is z (no
    extremum in between), with planar speed the component's length and
    vertical speed 2f throughout.  At a wall vertex the planar direction
    reflects in the mirror, because the table's mirrors are defined as the
    lines through the trajectory vertices normal to the internal angle
    bisector (``polygon_mirrors``), and the comparison pins each stored wall
    point to its mirror's vertex; dz/dt carries through.  At a floor or
    ceiling event the planar direction carries through and dz/dt flips.
    Containment needs no per-point test: the mirror-room check, which the
    verdict puts ahead of this one, puts every vertex in every mirror
    half-plane, hence in the convex floor, and so every point of a segment
    between consecutive vertices; z is a sawtooth value in [0, 1].
    """
    n_comp = arcs.component_count()
    if len(traj.components) != n_comp:
        return ReflectionReport(False, (f"{len(traj.components)} components, expected {n_comp}",))
    violations = []
    with mp.workprec(arcs.prec_bits):
        for ci, comp in enumerate(traj.components):
            v_arcs = arcs.vertex_arcs[ci]
            m = len(v_arcs)
            vertices = traj.poly.components[ci].vertices
            saw = comp.sawtooth
            n = m + 2 * saw.frequency
            lengths = [len(comp.kinds), *map(len, (comp.arc, comp.x, comp.y, comp.z))]
            if lengths != [n] * 5:
                violations.append(
                    f"component {ci}: columns of "
                    f"{'/'.join(map(str, lengths))} events (kinds/arc/x/y/z), "
                    f"expected {m} walls + {2 * saw.frequency} bounces"
                )
                continue
            eps = walk_error_bound(vertices, arcs.total_lengths[ci])
            if not eps < tol:
                violations.append(
                    f"component {ci}: the float walk's error bound {eps:.3g} "
                    f"is not below the tolerance {tol:g}"
                )
                continue
            limit = _within(tol, eps)
            try:
                want = component_events(vertices, v_arcs, saw)
            except DomainError as exc:
                violations.append(f"component {ci}: {exc}")
                continue
            if not (
                comp.kinds == want.kinds
                and all(_all_within(getattr(comp, c), getattr(want, c), limit) for c in COLUMNS)
            ):
                violations.append(
                    f"reflection law violated at component {ci} {_first_bad_event(comp, want, limit)}"
                )

        expected = passage_heights([comp.sawtooth for comp in traj.components], arcs)
        limit = _within(tol, 2.0 ** -49)  # a height's bound: eps with L = R = 0
        stored = sorted(traj.crossing_heights, key=lambda ch: ch.crossing)
        if [ch.crossing for ch in stored] != [ch.crossing for ch in expected]:
            violations.append("the crossing heights do not name every crossing once")
        for got, want in zip(stored, expected):
            err = max(abs(got.z_a - want.z_a), abs(got.z_b - want.z_b))
            if err > limit:
                violations.append(
                    f"crossing {want.crossing}: passage heights off the sawtooth by {float(err):.6g}"
                )
    return ReflectionReport(passed=not violations, violations=tuple(violations))
