"""Mirrors, mirror rooms, and the convex prism table.

At a trajectory vertex B the mirror is the line through B orthogonal to the
internal bisector of the angle at B; the mirror room is the half-plane it
bounds on the trajectory's side.  A closed polygon (or union of polygons)
is a billiard trajectory exactly when it lies in all of its mirror rooms,
and then the intersection of those half-planes is a convex table whose
boundary touches the trajectory at every vertex.  The prism is that floor
times the height interval [0, 1]; its walls are vertical, so the planar
reflection law lifts to 3D with the z-slope preserved.

The mirror-room check and the table build the mirrors apart:
``build_table`` takes ``polygon_mirrors``, every vertex rounded once to the
working precision and every bisector evaluated there, while
``mirror_room_check`` screens in float64.  Its bisectors, the diameter and
the n^2 mirror-room values are evaluated in float64, and a proven bound
covers how far each float value can be from its working-precision one:
eps = 2^7 v (R + 1) for a pair value given its bisector, with v the larger
of the float64 and the working precision's unit roundoff and R the size of
the inputs, plus a term for the float bisector that grows with R, with
1/(the shorter adjacent edge) and with 1/|a + b| for the unit edge vectors
a and b.  Only the candidates the screen cannot rule out are evaluated in
mpf, in the unscreened order, and only their mirrors' bisectors, so every
result is the unscreened loops' bit for bit.  A degenerate angle is ruled
out in float64 where the test clears its bound, and is otherwise left to
``internal_bisector``.  ``polygon_mirrors`` shares each edge between the
bisectors at its two ends.  ``build_table`` checks the floor with one exact
mpf test per edge, that the edge runs counterclockwise along its mirror
line, and screens its two angle orders: float64 decides them where a 2^-40
separation proves them, and ``mp.atan2`` elsewhere, so every table value is
the unscreened one, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import mpmath as mp

from .errors import DegenerateAngleError, DomainError, UnboundedTableError
from .heights import KIND_NAMES, component_events
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


def internal_bisector(prev, at, next_, prec_bits: int = 128):
    """Unit vector along the internal bisector of the angle prev-at-next.

    Points into the angle: u = normalize(normalize(prev-at) + normalize(next-at)).
    """
    with mp.workprec(prec_bits):
        prev, at, next_ = ((to_mpf(x), to_mpf(y)) for x, y in (prev, at, next_))
        return _bisector(_edge(prev, at), _edge(at, next_), mp.mpf(2) ** (-prec_bits // 2))


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


def polygon_mirrors(poly: PerturbedPolygon, prec_bits: int = 128) -> list[Mirror]:
    """The mirror at every vertex, each edge computed once for the two
    bisectors that share it, which are ``internal_bisector``'s bit for bit."""
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


def _float_bisectors(poly, floats, point, size: float, prec_bits: int, exact: dict):
    """Per flat vertex k: its bisector (ux, uy) in float64, the bound err on
    that bisector's distance from the working-precision one, and the flat
    indices of its neighbours.  Where the float64 angle test or err cannot
    be trusted, the bisector is ``internal_bisector``'s, stored in
    ``exact[k]``, rounded to float, with err 0; that call raises
    DegenerateAngleError for a degenerate angle.  The checks run in
    ``polygon_mirrors``' order, so the first error raised is its first.
    The bounds are derived in ``mirror_room_check``."""
    v = 2.0 ** -min(prec_bits, 53)
    r1 = size + 1.0
    angle_bound = 2.0 ** 8 * v * r1 * r1
    tau = 2.0 ** (-prec_bits // 2)  # internal_bisector's, floor division first
    bisectors, around = [], []
    start = 0
    for ci, comp in enumerate(poly.components):
        m = len(comp.vertices)
        if m < 3:
            raise DomainError(f"component {ci} has fewer than 3 vertices")
        for i in range(m):
            k, prev, next_ = start + i, start + (i - 1) % m, start + (i + 1) % m
            around.append((prev, next_))
            (px, py), (vx, vy), (qx, qy) = floats[prev], floats[k], floats[next_]
            ax, ay, bx, by = px - vx, py - vy, qx - vx, qy - vy
            na, nb = math.hypot(ax, ay), math.hypot(bx, by)
            if abs(ax * by - ay * bx) - tau * na * nb > angle_bound:
                wx, wy = ax / na + bx / nb, ay / na + by / nb
                s = math.hypot(wx, wy)
                t = 2.0 ** 7 * v * (r1 / min(na, nb) + 1.0)
                if t <= s / 4:
                    bisectors.append((wx / s, wy / s, t / s))
                    continue
            u = exact[k] = internal_bisector(point(prev), point(k), point(next_), prec_bits)
            bisectors.append((float(u[0]), float(u[1]), 0.0))
        start += m
    return bisectors, around


def mirror_room_check(poly: PerturbedPolygon, prec_bits: int = 128) -> MirrorRoomReport:
    """Strict mirror-room condition: u_k . (P_i - P_k) > margin for all i != k.

    The margin is ``MARGIN_FACTOR`` times the trajectory diameter, guarding
    the square roots inside the bisector normalization; everything else is
    exact.  All vertices of all components count, so for links every mirror
    room must contain the whole union.  u_k is ``polygon_mirrors``' mirror
    direction, the bisector of the angle at P_k at the working precision;
    ``build_table`` builds the table from those mirrors, not from this
    check.

    The bisectors, the diameter and the least value are found by a float64
    screen and confirmed at the working precision.  One float pass
    evaluates every vertex's bisector, every unordered pair's distance
    (``hypot`` is symmetric under negation, so the ordered pairs add
    nothing) and every ordered pair's value; only the candidates are
    evaluated in mpf, in the unscreened (k, i) order, and only the mirrors
    k that own a value candidate get their working-precision bisector.
    With v = 2^-min(p, 53) for p = prec_bits, each rounding of either
    evaluation (a float op, a rational or mpf rounded to float, a rational
    rounded to mpf by ``to_mpf``, an mpf op) is off by at most v relative,
    and by 2^-1074 absolutely on underflow; R is the largest vertex
    coordinate in absolute value and R1 = R + 1.

    The pair values, for a given bisector u_k with |u_k| <= 1 + 4 * 2^-p:
    each evaluation is within 20 v R of the exact value.
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

    The bisectors.  At P_k with edge vectors a and b to its neighbours,
    L the shorter of |a| and |b| and w = a/|a| + b/|b|, both evaluations
    follow ``internal_bisector``: u = w/|w|.
      - a computed edge vector is off by at most 5.7 v R1 (as above), and
        its computed length by that plus 2.01 v of itself;
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
    2.9 R1 * (1.2 T/s + 1.42 v) < 4 R1 T/s against the float value from
    the rounded mpf bisector, and its bound is eps + 8 R1 T/s, twice that.
    A bisector the float pass does not trust is ``internal_bisector``'s,
    rounded to float, and its pairs' bound is eps.

    The angle test.  ``internal_bisector`` raises for a degenerate angle,
    where G = |a x b| - tau |a| |b|, as it evaluates it, is negative, with
    tau = 2^(-p // 2) (floor division, so 2^-27 at p = 53).
    The coordinate errors move a x b by at most 4 * 4.01 v R1 * 2.02 R1 <
    33 v R1^2, and its products and difference round by at most
    17 v R1^2; |a| |b| is off by at most 2 * 11.5 v R1 * 2.9 R1 plus its
    rounding, 75 v R1^2, which tau <= 1/2 halves; and the
    subtraction rounds by at most 8.2 v R1^2.  So each evaluation of G is
    within 90 v R1^2 of the exact one.  Where the float G exceeds
    2^8 v R1^2 the working-precision G is positive, and the angle is
    decided in float64; elsewhere ``internal_bisector`` decides, and raises
    as it always has.

    The screen.  The mpf value of a pair lies within its bound of the
    float value, so the least mpf value M is at most hi, the least of the
    float values plus their bounds, and every pair that attains M has a
    float value at most hi plus its bound: every such pair is a candidate
    (for the diameter, with one bound eps, the pairs within 2 eps of the
    float extreme, signs flipped).  The mpf values, the first pair that
    attains M in (k, i) order, the threshold and the verdict are therefore
    those of the unscreened loops, bit for bit, and ``DegenerateAngleError``
    is raised exactly when ``polygon_mirrors`` raises it.
    """
    vertices = [v for comp in poly.components for v in comp.vertices]
    n = len(vertices)
    floats = [(float(x), float(y)) for x, y in vertices]
    size = max(max(abs(x), abs(y)) for x, y in floats)
    eps = _screen_bound(size, prec_bits)
    with mp.workprec(prec_bits):
        points = {}  # flat index -> the vertex rounded once to the working precision

        def point(i):
            if i not in points:
                points[i] = (to_mpf(vertices[i][0]), to_mpf(vertices[i][1]))
            return points[i]

        directions = {}  # flat index -> working-precision bisector
        bisectors, around = _float_bisectors(poly, floats, point, size, prec_bits, directions)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        far = _near_least(
            [-math.hypot(floats[i][0] - floats[j][0], floats[i][1] - floats[j][1]) for i, j in pairs],
            eps,
        )
        rows, bounds = [], []
        for k, (ux, uy, err) in enumerate(bisectors):
            vx, vy = floats[k]
            rows.append([ux * (px - vx) + uy * (py - vy) for px, py in floats[:k] + floats[k + 1:]])
            bounds.append(eps + 8 * (size + 1.0) * err)
        hi = min(min(row) + bound for row, bound in zip(rows, bounds))
        diameter = max(
            mp.hypot(point(i)[0] - point(j)[0], point(i)[1] - point(j)[1])
            for i, j in (pairs[c] for c in far)
            if point(i) != point(j)
        )
        threshold = mp.mpf(MARGIN_FACTOR) * diameter
        margin = None
        witness = None
        for k, (row, bound) in enumerate(zip(rows, bounds)):
            cut = hi + bound
            for i, value in enumerate(row):
                if value > cut:
                    continue
                i += i >= k
                if k not in directions:
                    prev, next_ = around[k]
                    directions[k] = internal_bisector(point(prev), point(k), point(next_), prec_bits)
                vx, vy = point(k)
                ux, uy = directions[k]
                px, py = point(i)
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
        )


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


def build_table(mirrors, prec_bits: int = 128) -> BilliardTable:
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
    ``serialization.verify_artifacts`` and in the tests.  No passage height is
    compared: the over/under at each crossing is the star's
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
