"""Mirrors, mirror rooms, and the convex prism table.

At a trajectory vertex B the mirror is the line through B orthogonal to the
internal bisector of the angle at B; the mirror room is the half-plane it
bounds on the trajectory's side.  A closed polygon (or union of polygons)
is a billiard trajectory exactly when it lies in all of its mirror rooms,
and then the intersection of those half-planes is a convex table whose
boundary touches the trajectory at every vertex.  The prism is that floor
times the height interval [0, 1]; its walls are vertical, so the planar
reflection law lifts to 3D with the z-slope preserved.

One mirror set serves the check and the table: ``polygon_mirrors`` rounds
every vertex once to the working precision and evaluates every bisector
there, sharing each edge between the bisectors at its two ends, and
``mirror_room_check`` and ``build_table`` both read those mirrors.  The
check screens the n^2 mirror-room values and the diameter in float64, from
each mirror's direction rounded to float, and a proven bound
eps = 2^7 v (R + 1) covers how far each float value can be from its
working-precision one, with v the larger of the float64 and the working
precision's unit roundoff and R the size of the inputs.  Only the
candidates the screen cannot rule out are evaluated in mpf, in the
unscreened order, so every result is the unscreened loops' bit for bit.
``build_table`` checks the floor with one exact mpf test per edge, that
the edge runs counterclockwise along its mirror line, and screens its two
angle orders: float64 decides them where a 2^-40 separation proves them,
and ``mp.atan2`` elsewhere, so every table value is the unscreened one,
bit for bit.

``verify`` needs only pass or fail, and first tries to prove a pass in
float64 alone: from float64 bisectors with their own bound
(``mirror_room_proven``) and from the walk on a float64 arc table
(``reflection_proven``), each bound derived there.  Where either cannot
decide, it builds the mirrors and runs the checks at the working precision.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import mpmath as mp

from .errors import DegenerateAngleError, DomainError, UnboundedTableError
from .heights import EVENT_GAP, KIND_NAMES, component_events
from .perturbation import PerturbedPolygon, to_mpf
from .stars import ArcTable

MARGIN_FACTOR = 1e-12  # of the trajectory diameter


def _edge(p, q):
    """The edge from p to q (mpf pairs): its vector, its ``hypot`` length and,
    unless that is 0, its unit vector."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    length = mp.hypot(dx, dy)
    return (dx, dy, length, dx / length, dy / length) if length else (dx, dy, length, None, None)


def _bisector(into, out_of, tau):
    """Unit internal bisector where ``_edge`` ``into`` ends and ``out_of``
    starts, with the collinearity limit tau.  Rounding to nearest commutes
    with negation and ``hypot`` ignores signs, so with a = prev - at = -into
    every value is that of the formula on a and b = out_of, bit for bit
    (the cross product up to the sign that ``abs`` drops)."""
    ax, ay, na, aux, auy = into
    bx, by, nb, bux, buy = out_of
    if na == 0 or nb == 0:
        raise DegenerateAngleError("coincident points give no angle")
    if abs(ax * by - ay * bx) < tau * na * nb:
        raise DegenerateAngleError("collinear points give a degenerate angle")
    ux, uy = bux - aux, buy - auy
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


def polygon_mirrors(poly: PerturbedPolygon, prec_bits: int) -> list[Mirror]:
    """The mirror at every vertex, component by component, at the working
    precision ``prec_bits``: each vertex rounded once, and each edge
    computed once for the two bisectors that share it.  Raises
    DegenerateAngleError at the first coincident or collinear vertex."""
    mirrors = []
    with mp.workprec(prec_bits):
        tau = mp.mpf(2) ** (-prec_bits // 2)
        for ci, comp in enumerate(poly.components):
            m = len(comp.vertices)
            if m < 3:
                raise DomainError(f"component {ci} has fewer than 3 vertices")
            points = [(to_mpf(x), to_mpf(y)) for x, y in comp.vertices]
            edges = [_edge(points[i - 1], points[i]) for i in range(m)]  # edges[i] ends at vertex i
            for i in range(m):
                u = _bisector(edges[i], edges[(i + 1) % m], tau)
                mirrors.append(Mirror(comp.vertices[i], u, ci, i, points[i]))
    return mirrors


def _screen_bound(size: float, prec_bits: int) -> float:
    """2^7 v (size + 1), with v = 2^-min(prec_bits, 53): how far apart a
    float64 and a working-precision evaluation of a screened pair value can
    be, when ``size`` bounds its inputs and both take the same bisector, as
    ``mirror_room_check`` derives.  The 1 covers underflow, where a
    rounding may be off by 2^-1074 absolutely."""
    return 2.0 ** (7 - min(prec_bits, 53)) * (size + 1.0)


def _near_least(values, eps: float) -> list[int]:
    """Indices, in order, of the values within 2 eps of the least."""
    cut = min(values) + 2 * eps
    return [j for j, value in enumerate(values) if value <= cut]


def mirror_room_check(mirrors, prec_bits: int) -> MirrorRoomReport:
    """Strict mirror-room condition: u_k . (P_i - P_k) > margin for all i != k.

    ``mirrors`` are ``polygon_mirrors`` at ``prec_bits``: u_k is mirror k's
    direction, the bisector of the angle at its vertex at the working
    precision, and P_k its point, the vertex rounded once to that
    precision.  The margin is ``MARGIN_FACTOR`` times the trajectory
    diameter, guarding the square roots inside the bisector normalization;
    everything else is exact.  All vertices of all components count, so for
    links every mirror room must contain the whole union.  ``build_table``
    builds the table from the same mirrors.

    The diameter and the least value are found by a float64 screen and
    confirmed at the working precision.  One float pass evaluates every
    unordered pair's distance (``hypot`` is symmetric under negation, so the
    ordered pairs add nothing) and every ordered pair's value, with u_k
    rounded to float; only the candidates are evaluated in mpf, in the
    unscreened (k, i) order.  With v = 2^-min(p, 53) for p = prec_bits,
    each rounding of either evaluation (a float op, a rational or mpf
    rounded to float, a rational rounded to mpf by ``to_mpf``, an mpf op)
    is off by at most v relative, and by 2^-1074 absolutely on underflow;
    R is the largest vertex coordinate in absolute value and R1 = R + 1.

    The pair values, with |u_k| <= 1 + 4 * 2^-p: each evaluation is within
    20 v R of the exact value.
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
    less than eps = ``_screen_bound(R, p)`` = 2^7 v R1.

    The screen.  The mpf value of a pair lies within eps of its float
    value, so the least mpf value M is at most the least float value plus
    eps, and every pair that attains M has a float value within 2 eps of
    the least: every such pair is a candidate (``_near_least``; for the
    diameter the same with signs flipped).  The mpf values, the first pair
    that attains M in (k, i) order, the threshold and the verdict are
    therefore those of the unscreened loops, bit for bit.
    """
    n = len(mirrors)
    floats = [(float(x), float(y)) for x, y in (m.vertex for m in mirrors)]
    eps = _screen_bound(max(max(abs(x), abs(y)) for x, y in floats), prec_bits)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    distances = [-math.hypot(floats[i][0] - floats[j][0], floats[i][1] - floats[j][1]) for i, j in pairs]
    values = []
    for k, (vx, vy) in enumerate(floats):
        ux, uy = map(float, mirrors[k].direction)
        values += [ux * (px - vx) + uy * (py - vy) for px, py in floats[:k] + floats[k + 1:]]
    points = [m.point for m in mirrors]
    with mp.workprec(prec_bits):
        diameter = max(
            mp.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
            for i, j in (pairs[c] for c in _near_least(distances, eps))
            if points[i] != points[j]
        )
        threshold = mp.mpf(MARGIN_FACTOR) * diameter
        margin = witness = None
        for c in _near_least(values, eps):
            k, i = divmod(c, n - 1)
            i += i >= k
            (ux, uy), (vx, vy), (px, py) = mirrors[k].direction, points[k], points[i]
            value = ux * (px - vx) + uy * (py - vy)
            if margin is None or value < margin:
                margin, witness = value, (k, i)
        passed = margin > threshold
        return MirrorRoomReport(
            passed=passed,
            margin=margin,
            witness=None if passed else witness,
            threshold=threshold,
        )


def _float_bisectors(poly, floats, size: float, prec_bits: int):
    """Per flat vertex, its bisector (ux, uy) in float64 and the bound err
    on that bisector's distance from ``polygon_mirrors``' at ``prec_bits``;
    None where a component has fewer than 3 vertices or, at some vertex,
    the float64 angle test or err cannot be trusted.  The bounds are derived
    in ``mirror_room_proven``."""
    v = 2.0 ** -min(prec_bits, 53)
    r1 = size + 1.0
    angle_bound = 2.0 ** 8 * v * r1 * r1
    tau = 2.0 ** (-prec_bits // 2)  # polygon_mirrors', floor division first
    bisectors = []
    start = 0
    for comp in poly.components:
        m = len(comp.vertices)
        if m < 3:
            return None
        points = floats[start:start + m]
        for i, (vx, vy) in enumerate(points):
            (px, py), (qx, qy) = points[i - 1], points[(i + 1) % m]
            ax, ay, bx, by = px - vx, py - vy, qx - vx, qy - vy
            na, nb = math.hypot(ax, ay), math.hypot(bx, by)
            if not abs(ax * by - ay * bx) - tau * na * nb > angle_bound:
                return None
            wx, wy = ax / na + bx / nb, ay / na + by / nb
            s = math.hypot(wx, wy)
            t = 2.0 ** 7 * v * (r1 / min(na, nb) + 1.0)
            if not t <= s / 4:
                return None
            bisectors.append((wx / s, wy / s, t / s))
        start += m
    return bisectors


def mirror_room_proven(poly: PerturbedPolygon, prec_bits: int) -> bool:
    """Whether float64 alone proves that ``mirror_room_check`` passes on
    ``polygon_mirrors(poly, prec_bits)``; False when it cannot, whatever
    the check would say.  It builds no mirror and makes no mpf call, so it
    raises nothing for a degenerate angle: where the float64 angle test or
    a bisector's bound cannot decide (``_float_bisectors``), it returns
    False, and ``polygon_mirrors`` decides, raising as it always has.  With
    v, R, R1 and eps as in ``mirror_room_check``:

    The bisectors.  At P_k with edge vectors a and b to its neighbours,
    L the shorter of |a| and |b| and w = a/|a| + b/|b|, both the float pass
    and ``polygon_mirrors`` evaluate u = w/|w|.
      - a computed edge vector is off by at most 5.7 v R1 (as a distance's
        argument is in ``mirror_room_check``), and its computed length by
        that plus 2.01 v of itself;
      - so a computed unit edge vector is off by at most
        2 * 5.7 v R1 / L + 3.5 v (|x/|x| - y/|y|| <= 2 |x - y|/|x|, and
        the division and hypot round), and w by at most
        e = 22.8 v R1 / L + 10 v;
      - and u by at most 2 e / |w| + 3.5 v.
    The float pass has Lf and s, its values of L and |w|, and takes
    T = 2^7 v (R1 / Lf + 1).  Only where T <= s/4 is its bisector used:
    then 5.7 v R1 < Lf / 40, so L >= 0.97 Lf, e <= T/4 and |w| >= 0.93 s,
    and each evaluation's u is within 0.54 T/s + 3.5 v < 0.6 T/s of the
    exact bisector (3.5 v < 0.06 T/s, as T/s >= 63 v).  The two are within
    1.2 T/s of each other, so the float value of a pair moves by at most
    2.9 R1 * (1.2 T/s + 1.42 v) < 4 R1 T/s against the check's float
    value, from the working-precision bisector rounded to float, which is
    within eps of the working-precision value.  The row's bound
    eps + 8 R1 T/s, with twice that term, covers every pair of the row.

    The angle test.  ``polygon_mirrors`` raises for a degenerate angle,
    where G = |a x b| - tau |a| |b|, as it evaluates it, is negative, with
    tau = 2^(-p // 2) (floor division, so 2^-27 at p = 53).
    The coordinate errors move a x b by at most 4 * 4.01 v R1 * 2.02 R1 <
    33 v R1^2, and its products and difference round by at most
    17 v R1^2; |a| |b| is off by at most 2 * 11.5 v R1 * 2.9 R1 plus its
    rounding, 75 v R1^2, which tau <= 1/2 halves; and the
    subtraction rounds by at most 8.2 v R1^2.  So each evaluation of G is
    within 90 v R1^2 of the exact one.  Where the float G exceeds
    2^8 v R1^2 the working-precision G is positive, and ``polygon_mirrors``
    does not raise at that vertex; elsewhere the proof gives up.

    The margin.  Every pair's working-precision value is at least its float
    value less its row's bound, so the margin M is at least the least row
    value less the row's bound, and computing that difference rounds by
    far less than another bound: a row whose least value less twice its
    bound exceeds T_up holds only values above T_up.  The threshold is
    ``MARGIN_FACTOR`` times the working-precision diameter, which is at
    most the largest float distance D plus eps, and the product rounds
    once at the working precision; so with T_up = ``MARGIN_FACTOR``
    (D + 2 eps), the extra eps covering the roundings of both products and
    of the sum, M > T_up proves M > threshold, the check's verdict.
    """
    floats = [(float(x), float(y)) for comp in poly.components for x, y in comp.vertices]
    size = max(max(abs(x), abs(y)) for x, y in floats)
    bisectors = _float_bisectors(poly, floats, size, prec_bits)
    if bisectors is None:
        return False
    eps = _screen_bound(size, prec_bits)
    n = len(floats)
    diameter = max(
        math.hypot(floats[i][0] - floats[j][0], floats[i][1] - floats[j][1])
        for i in range(n)
        for j in range(i + 1, n)
    )
    limit = MARGIN_FACTOR * (diameter + 2 * eps)
    for k, ((vx, vy), (ux, uy, err)) in enumerate(zip(floats, bisectors)):
        least = min(ux * (px - vx) + uy * (py - vy) for px, py in floats[:k] + floats[k + 1:])
        if not least - 2 * (eps + 8 * (size + 1.0) * err) > limit:
            return False
    return True


@dataclass(frozen=True)
class BilliardTable:
    floor: tuple                       # convex polygon vertices, CCW (mpf pairs)
    mirrors: tuple[Mirror, ...]
    edge_of_mirror: tuple[tuple[tuple, tuple], ...]  # edge endpoints per mirror


SEP = 2.0 ** -40  # the float64 angle separation that decides an order


def _order_and_gaps(angle, pi):
    """Indices in increasing angle (a stable sort) and the gaps between
    consecutive angles, the last one around the full turn."""
    order = sorted(range(len(angle)), key=angle.__getitem__)
    gaps = [angle[b] - angle[a] for a, b in zip(order, order[1:])]
    gaps.append(angle[order[0]] + 2 * pi - angle[order[-1]])
    return order, gaps


def _float_order(vectors):
    """``_order_and_gaps`` of the float64 angles of ``vectors`` (float
    pairs), or None unless the screen of ``build_table`` proves that order
    is the working precision's: every vector's larger coordinate is finite
    and at least 2^-960, no angle is within SEP of +-pi, and consecutive
    angles are more than SEP apart."""
    angle = []
    for x, y in vectors:
        if not 2.0 ** -960 <= max(abs(x), abs(y)) < math.inf:
            return None
        angle.append(math.atan2(y, x))
    order, gaps = _order_and_gaps(angle, math.pi)
    if SEP - math.pi < angle[order[0]] and angle[order[-1]] < math.pi - SEP:
        if all(gap > SEP for gap in gaps[:-1]):
            return order, gaps
    return None


def _normal_order(mirrors):
    """The mirrors in increasing outward-normal angle, and whether some gap
    between consecutive normals is a half-turn or more."""
    directions = [m.direction for m in mirrors]
    screened = _float_order([(-float(ux), -float(uy)) for ux, uy in directions])
    if screened and all(abs(gap - math.pi) > SEP for gap in screened[1]):
        order, gaps = screened
        return order, max(gaps) > math.pi
    order, gaps = _order_and_gaps([mp.atan2(-uy, -ux) for ux, uy in directions], mp.pi)
    return order, max(gaps) >= mp.pi


def build_table(mirrors, prec_bits: int) -> BilliardTable:
    """Intersect the mirror half-planes into the convex floor polygon.

    ``mirrors`` are ``polygon_mirrors`` at the same precision, of a polygon
    that passed ``mirror_room_check``: the check is the table's
    precondition.
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

    The two orders, of the normals (with the half-turn test) and of the
    corners about their centroid (for the start), are those of the
    working-precision angles ``mp.atan2`` gives, but are decided from
    float64 ``math.atan2`` where a screen proves them; elsewhere the whole
    order is decided by ``mp.atan2``.  With p = prec_bits >= 53, take an
    mpf vector, a normal -u or a corner minus the centroid, and its exact
    angle t:
      - rounding each coordinate to float64 moves the vector by at most
        2^-53 of its length, or by 2^-1074 absolutely on underflow, which
        is below 2^-114 of it when its larger coordinate is at least
        2^-960; so its angle moves by less than 2^-52.9;
      - ``math.atan2`` is within 2 ulp of the angle of its arguments (as
        the C libraries' are), 2^-50 for an angle in [-pi, pi];
      - ``mp.atan2`` rounds atan(y/x), evaluated at p + 4 bits and
        shifted by pi at p + 4 bits for x < 0, once to p bits: within
        1 ulp, 2^-51, of t.
    So the float and working-precision angles are within d = 2^-48 of each
    other.  Where consecutive float angles are more than SEP = 2^-40 > 2d
    apart, the working-precision angles are distinct and come in the same
    order, which is then the stable sort's; where no float angle is within
    SEP of +-pi, no working-precision angle is on the other side of the
    cut at pi.  A gap is a difference of two angles, or of two angles and
    2 pi: its float and working-precision values are within 2d plus their
    few roundings, less than 2^-46, and ``mp.pi`` is within 2^-52 of pi,
    so a float gap more than SEP from pi lies on the same side of pi as
    the working-precision gap of ``mp.pi``, and the half-turn verdict is
    the same.  Every stored value is therefore the unscreened order's, bit
    for bit.
    """
    mirrors = tuple(mirrors)
    n = len(mirrors)
    with mp.workprec(prec_bits):
        # boundedness: outward normals (-u) must not fit in an open half-plane
        order, unbounded = _normal_order(mirrors)
        if unbounded:
            raise UnboundedTableError("mirror normals span less than a half-turn")

        tau = mp.mpf(2) ** (-prec_bits // 2)
        offsets = [m.direction[0] * m.point[0] + m.direction[1] * m.point[1] for m in mirrors]
        corners = []  # corners[k] is where the lines of order[k] and order[k + 1] meet
        for k in range(n):
            i, j = sorted((order[k], order[(k + 1) % n]))
            (ax, ay), a_off = mirrors[i].direction, offsets[i]
            (bx, by), b_off = mirrors[j].direction, offsets[j]
            den = ax * by - ay * bx
            if abs(den) < tau:
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
        about = [(x - cx, y - cy) for x, y in corners]
        screened = _float_order([(float(x), float(y)) for x, y in about])
        if screened:
            start = screened[0][0]
        else:
            start = min(range(n), key=lambda k: mp.atan2(about[k][1], about[k][0]))
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
    float walk (``heights.component_events``) is from the exact path of a
    component with planar length L (in the plane's units) and largest
    vertex coordinate R in absolute value.  The derivation is in
    ``verify_reflection``."""
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


def _walk_limits(traj, arcs: ArcTable, tol: float) -> list[float | str]:
    """The checks of ``verify_reflection`` that need nothing regenerated.

    A trajectory with other than ``arcs``' component count gets one
    message.  Otherwise each component gets the message of the first
    check it fails, or else the float comparison limit for its columns:
    each column holds m + 2f events, and the walk's error bound eps is
    below ``tol``.
    """
    n_comp = arcs.component_count()
    if len(traj.components) != n_comp:
        return [f"{len(traj.components)} components, expected {n_comp}"]
    limits: list[float | str] = []
    for ci, comp in enumerate(traj.components):
        m = len(arcs.vertex_arcs[ci])
        f = comp.sawtooth.frequency
        lengths = [len(comp.kinds), *map(len, (comp.arc, comp.x, comp.y, comp.z))]
        if lengths != [m + 2 * f] * 5:
            limits.append(
                f"component {ci}: columns of "
                f"{'/'.join(map(str, lengths))} events (kinds/arc/x/y/z), "
                f"expected {m} walls + {2 * f} bounces"
            )
            continue
        eps = walk_error_bound(traj.poly.components[ci].vertices, arcs.total_lengths[ci])
        if not eps < tol:
            limits.append(
                f"component {ci}: the float walk's error bound {eps:.3g} "
                f"is not below the tolerance {tol:g}"
            )
            continue
        limits.append(_within(tol, eps))
    return limits


def check_walk(traj, arcs: ArcTable, tol: float) -> ReflectionReport:
    """The checks of ``verify_reflection`` that can fail without
    regenerating the trajectory, with the same messages: the component
    count, m + 2f events in every column, and the walk's error bound
    below ``tol``.

    ``pipeline.realize`` runs only these.  Its trajectory's columns are
    what ``heights.component_events`` returns for the same vertices, arcs
    and sawtooth at the same precision, which is what ``verify_reflection``
    would regenerate, so there the comparison could not fail.
    ``serialization.verify_artifacts`` and the tests run the whole of
    ``verify_reflection`` on stored columns.
    """
    violations = tuple(v for v in _walk_limits(traj, arcs, tol) if isinstance(v, str))
    return ReflectionReport(passed=not violations, violations=violations)


def verify_reflection(traj, arcs: ArcTable, tol: float) -> ReflectionReport:
    """Check a trajectory against its closed form.

    A path in the prism is a planar billiard path times a sawtooth bounce
    in [0, 1], so the polygon's vertices, their arcs and one (f, phi) per
    component fix it.  It reads the trajectory's columns and
    ``traj.poly``, and ``arcs``, that polygon's arc table, at whose
    precision it works.  The wall vertices are ``traj.poly``'s exact
    rationals, the values ``polygon_mirrors`` builds the mirrors from, so
    wall event k of component c sits at the vertex of mirror (c, k) and no
    table is needed.  Each component's columns are regenerated from its
    own sawtooth (``heights.component_events``) and compared with the
    stored ones, each in one C-level pass: the ``kinds`` strings must be
    equal, and every ``arc``, ``x``, ``y`` and ``z`` value within ``tol -
    eps`` of its regenerated one.  Only on a failure does a Python loop
    find the first bad event to name it.  A component with other than
    m + 2f events in any column is rejected before anything is generated,
    and so is one whose ``eps`` is not below ``tol``; ``check_walk`` runs
    just those checks, and is all ``pipeline.realize`` runs, since its
    columns are the regenerated ones.  The comparison runs in
    ``serialization.verify_artifacts`` and in the tests; ``verify`` first
    tries ``reflection_proven``, the same comparison on a float64 arc table
    within a bound derived there, and runs this where that cannot prove a
    pass.  No passage height is compared: the over/under at each crossing is the star's
    (``invariants.certify``), and ``heights.confirm_heights`` proves the
    exact heights realize it.

    The regeneration runs in float64, and eps = ``walk_error_bound`` =
    2^-49 (L + R + 1) bounds its distance from the exact path through the
    arc table's arcs, with L the component's planar length and R its
    largest vertex coordinate.  With u = 2^-53, each rounding is off by
    at most u relative:
      - phi, the vertices and the vertex arcs are rounded once: off by at
        most u, u R and u;
      - an extremum arc fl(fl(h/2 - phi)/f) is off by at most
        u/f + 2.01 u <= 3.01 u, since h/2 is exact and the arc is below 1;
      - a wall height is evaluated at the working precision
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
    violations = []
    limits = _walk_limits(traj, arcs, tol)
    with mp.workprec(arcs.prec_bits):
        for ci, limit in enumerate(limits):
            if isinstance(limit, str):
                violations.append(limit)
                continue
            comp = traj.components[ci]
            try:
                want = component_events(
                    traj.poly.components[ci].vertices, arcs.vertex_arcs[ci], comp.sawtooth
                )
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
    return ReflectionReport(passed=not violations, violations=tuple(violations))


def float_walk_bound(vertices, length: float, frequency: int, delta: float) -> float:
    """eps' = 4 eps + 2^-51 (f + 2) + 2.01 delta (L + f + 1), with eps =
    ``walk_error_bound``: the bound ``reflection_proven`` holds the stored
    columns to, as it derives, for a component whose float arcs are within
    ``delta`` of the working-precision ones and whose float length is L."""
    eps = walk_error_bound(vertices, length)
    return 4 * eps + 2.0 ** -51 * (frequency + 2) + 2.01 * delta * (length + frequency + 1)


def reflection_proven(traj, table: ArcTable, deltas, tol: float) -> bool:
    """Whether the float walk on a float64 arc table proves that
    ``verify_reflection`` passes on the working-precision table; False
    when it cannot, whatever that check would say.

    ``table`` and ``deltas`` are ``perturbation.float_arc_table``'s: each
    arc within delta_c of its working-precision arc, which is rounded to
    float for the walk.  Each component is regenerated by
    ``heights.component_events`` on the float arcs, with the wall heights
    as float sawtooth values, and proves the check for it when its
    columns have m + 2f events, every segment spans at least 2^10 delta_c
    in arc, its events (the closing wall at arc 1 included) are more than
    EVENT_GAP + 2 delta_c apart (the walk's ``gap``, with the extrema's
    own spacing 1/(2f) - 2^-51 checked against it), the kinds are equal
    and every stored value is within ``tol - eps'`` of the regenerated one
    (``_within``), where, with eps the walk's bound
    (``walk_error_bound``), L the float total length, u = 2^-53 and
    d = delta_c, eps' is ``float_walk_bound``:
        eps' = 4 eps + 2^-51 (f + 2) + 2.01 d (L + f + 1) < tol.

    Why.  Let W be ``verify_reflection``'s walk, on the working-precision
    arcs, and W' this one, and E and E' the exact closed forms through
    the same arcs.
      - W's vertex arcs are W''s moved by at most d each, and its
        extremum arcs are the same floats, so with the gaps above W's
        events come in the same order with the same kinds, more than
        EVENT_GAP apart: W raises nothing.
      - W is within eps of E (``verify_reflection``).  So is W' of E',
        but for its wall heights: the float sawtooth at the float arc t
        rounds f t, phi and their sum, (2f + 2) u in y, and the final
        subtraction, so it is within (4f + 5) u of z(t).
      - E and E' share every vertex and extremum arc t.  A wall arc moves
        by at most d, a wall height by at most 2 f d (z is 2f-Lipschitz
        in t).  An extremum on a segment of span S (at least 2^10 d)
        sits at the fraction c = (t - s) / (e - s) of the segment, which
        moves by at most 2 d / (S - 2 d) as s and e move by d; times the
        segment's length, at most (S + 2 d) L, the point moves by at
        most 2 d L (1 + 2^-9) / (1 - 2^-9) < 2.01 d L.
    So W and W' are within D = 2 eps + (4f + 5) u + 2.01 d (L + f + 1)
    of each other in every value, and eps' - eps - D >= eps >= 2^-49: a
    stored value whose float distance from W' is within ``_within(tol,
    eps')`` has a float distance from W within ``_within(tol, eps)``, the
    leftover eps covering the roundings of both limits and differences
    and the difference of L from the working-precision length.  With
    eps' < tol, eps < tol too, and W's columns have W''s lengths.  So
    ``verify_reflection`` finds no violation.
    """
    if len(traj.components) != table.component_count():
        return False
    for ci, (comp, delta) in enumerate(zip(traj.components, deltas)):
        vertices = traj.poly.components[ci].vertices
        vertex_arcs = table.vertex_arcs[ci]
        m, f = len(vertex_arcs), comp.sawtooth.frequency
        if [len(comp.kinds), *map(len, (comp.arc, comp.x, comp.y, comp.z))] != [m + 2 * f] * 5:
            return False
        if not min(map(operator.sub, (*vertex_arcs[1:], 1.0), vertex_arcs)) >= 2.0 ** 10 * delta:
            return False
        bound = float_walk_bound(vertices, table.total_lengths[ci], f, delta)
        if not bound < tol:
            return False
        gap = EVENT_GAP + 2 * delta
        if not 1 / (2 * f) - 2.0 ** -51 > gap:
            return False
        try:
            want = component_events(vertices, vertex_arcs, comp.sawtooth, gap)
        except DomainError:
            return False
        limit = _within(tol, bound)
        if not (
            comp.kinds == want.kinds
            and all(_all_within(getattr(comp, c), getattr(want, c), limit) for c in COLUMNS)
        ):
            return False
    return True
