"""Mirrors, mirror rooms, and the convex prism table.

At a trajectory vertex B the mirror is the line through B orthogonal to the
internal bisector of the angle at B; the mirror room is the half-plane it
bounds on the trajectory's side.  A closed polygon (or union of polygons)
is a billiard trajectory exactly when it lies in all of its mirror rooms,
and then the intersection of those half-planes is a convex table whose
boundary touches the trajectory at every vertex.  The prism is that floor
times the height interval [0, 1]; its walls are vertical, so the planar
reflection law lifts to 3D with the z-slope preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .errors import DegenerateAngleError, DomainError, UnboundedTableError
from .heights import component_events, passage_heights
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


@dataclass(frozen=True)
class MirrorRoomReport:
    passed: bool
    margin: object                        # min over (k, i) of u_k . (P_i - P_k)
    witness: tuple[int, int] | None = None  # flat (k, i) vertex indices on failure
    threshold: object = None

    def __bool__(self) -> bool:
        return self.passed


def polygon_mirrors(poly: PerturbedPolygon, prec_bits: int = 128) -> list[Mirror]:
    mirrors = []
    for ci, comp in enumerate(poly.components):
        m = len(comp.vertices)
        if m < 3:
            raise DomainError(f"component {ci} has fewer than 3 vertices")
        for i in range(m):
            u = internal_bisector(
                comp.vertices[(i - 1) % m], comp.vertices[i], comp.vertices[(i + 1) % m],
                prec_bits,
            )
            mirrors.append(Mirror(comp.vertices[i], u, ci, i))
    return mirrors


def mirror_room_check(poly: PerturbedPolygon, prec_bits: int = 128) -> MirrorRoomReport:
    """Strict mirror-room condition: u_k . (P_i - P_k) > margin for all i != k.

    The margin is ``MARGIN_FACTOR`` times the trajectory diameter, guarding
    the square roots inside the bisector normalization; everything else is
    exact.  All vertices of all components count, so for links every mirror
    room must contain the whole union.
    """
    mirrors = polygon_mirrors(poly, prec_bits)
    vertices = poly.all_vertices()
    with mp.workprec(prec_bits):
        pts = [(to_mpf(x), to_mpf(y)) for x, y in vertices]
        diameter = max(
            mp.hypot(p[0] - q[0], p[1] - q[1]) for p in pts for q in pts if p != q
        )
        threshold = mp.mpf(MARGIN_FACTOR) * diameter
        margin = None
        witness = None
        for k, mirror in enumerate(mirrors):
            vx, vy = to_mpf(mirror.vertex[0]), to_mpf(mirror.vertex[1])
            ux, uy = mirror.direction
            for i, (px, py) in enumerate(pts):
                if i == k:
                    continue
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
    half_planes: tuple                 # (ux, uy, offset) per mirror: u . x >= offset

    def contains_xy(self, point, tol, prec_bits: int = 128) -> bool:
        """Whether ``point`` lies in every mirror half-plane, up to ``tol``."""
        with mp.workprec(prec_bits):
            px, py = to_mpf(point[0]), to_mpf(point[1])
            for ux, uy, offset in self.half_planes:
                if ux * px + uy * py < offset - tol:
                    return False
            return True


def build_table(poly: PerturbedPolygon, prec_bits: int = 128) -> BilliardTable:
    """Intersect the mirror half-planes into the convex floor polygon.

    Every trajectory vertex touches the floor, so each mirror line carries one
    edge: ordered by outward-normal angle, consecutive lines meet at the
    corners, counterclockwise from the smallest angle about their centroid.
    Precondition: mirror_room_check passes.  Raises UnboundedTableError (a
    failed precondition in disguise) when the normals span less than a
    half-turn, two consecutive lines are parallel, or a corner leaves another
    half-plane (that mirror would carry no edge).
    """
    mirrors = polygon_mirrors(poly, prec_bits)
    n = len(mirrors)
    with mp.workprec(prec_bits):
        # boundedness: outward normals (-u) must not fit in an open half-plane
        angle = [mp.atan2(-uy, -ux) for ux, uy in (m.direction for m in mirrors)]
        order = sorted(range(n), key=angle.__getitem__)
        gaps = [angle[order[k + 1]] - angle[order[k]] for k in range(n - 1)]
        gaps.append(angle[order[0]] + 2 * mp.pi - angle[order[-1]])
        if max(gaps) >= mp.pi:
            raise UnboundedTableError("mirror normals span less than a half-turn")

        half_planes = []
        for mirror in mirrors:
            ux, uy = mirror.direction
            vx, vy = to_mpf(mirror.vertex[0]), to_mpf(mirror.vertex[1])
            half_planes.append((ux, uy, ux * vx + uy * vy))
        scale = max(abs(offset) for _, _, offset in half_planes) + 1
        slack = scale * mp.mpf(2) ** (12 - prec_bits // 2)

        corners = []  # corners[k] is where the lines of order[k] and order[k + 1] meet
        for k in range(n):
            i, j = sorted((order[k], order[(k + 1) % n]))
            ax, ay, a_off = half_planes[i]
            bx, by, b_off = half_planes[j]
            den = ax * by - ay * bx
            if abs(den) < mp.mpf(2) ** (-prec_bits // 2):
                raise UnboundedTableError(f"consecutive mirrors {i} and {j} are parallel")
            corners.append(((a_off * by - b_off * ay) / den, (ax * b_off - bx * a_off) / den))

        cx = mp.fsum(x for x, _ in corners) / n
        cy = mp.fsum(y for _, y in corners) / n
        start = min(range(n), key=lambda k: mp.atan2(corners[k][1] - cy, corners[k][0] - cx))
        edge_of_mirror = [None] * n
        for k in range(n):
            edge_of_mirror[order[k]] = (corners[k - 1], corners[k])
        table = BilliardTable(
            floor=tuple(corners[start:] + corners[:start]),
            mirrors=tuple(mirrors),
            edge_of_mirror=tuple(edge_of_mirror),
            half_planes=tuple(half_planes),
        )
    for corner in corners:
        if not table.contains_xy(corner, slack, prec_bits):
            raise UnboundedTableError("a mirror carries no edge of the floor polygon")
    return table


@dataclass(frozen=True)
class ReflectionReport:
    passed: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.passed


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


def verify_reflection(
    traj, table: BilliardTable, arcs: ArcTable, tol: float, prec_bits: int = 128
) -> ReflectionReport:
    """Check a trajectory against its closed form.

    A path in the prism is a planar billiard path times a sawtooth bounce
    in [0, 1], so the table's vertices, their arcs and one (f, phi) per
    component fix it.  Each component's events are regenerated from its own
    sawtooth (``heights.component_events``) and zipped against the stored
    ones: kinds and mirrors must be equal, arcs and points within
    ``tol - eps``, and so must every crossing's passage heights.  A
    component with other than m + 2f events is rejected before anything is
    generated, and so is one whose ``eps`` is not below ``tol``.

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
    bisector (``polygon_mirrors``), and the zip pins each stored wall
    point to its mirror's vertex; dz/dt carries through.  At a floor or
    ceiling event the planar direction carries through and dz/dt flips.
    Containment needs no per-point test: the mirror-room check, a
    precondition here, puts every vertex in every mirror half-plane, hence
    in the convex floor, and so every point of a segment between
    consecutive vertices; z is a sawtooth value in [0, 1].
    """
    n_comp = arcs.component_count()
    if len(traj.components) != n_comp:
        return ReflectionReport(False, (f"{len(traj.components)} components, expected {n_comp}",))
    violations = []
    with mp.workprec(prec_bits):
        end = 0
        for ci, comp in enumerate(traj.components):
            v_arcs = arcs.vertex_arcs[ci]
            m = len(v_arcs)
            first, end = end, end + m
            vertices = [mirror.vertex for mirror in table.mirrors[first:end]]
            saw = comp.sawtooth
            if not len(comp.events) == len(comp.points) == m + 2 * saw.frequency:
                violations.append(
                    f"component {ci}: {len(comp.events)} events and {len(comp.points)} points, "
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
            stream = component_events(vertices, v_arcs, first, saw)
            try:
                for i, ((want, at), event, point) in enumerate(zip(stream, comp.events, comp.points)):
                    if event.kind != want.kind or event.mirror_index != want.mirror_index:
                        problem = (
                            f"stored {event.kind} event (mirror {event.mirror_index}), "
                            f"closed form {want.kind} (mirror {want.mirror_index})"
                        )
                    else:
                        arc_err = abs(event.arc - want.arc)
                        point_err = max(abs(point[0] - at[0]), abs(point[1] - at[1]), abs(point[2] - at[2]))
                        if arc_err <= limit and point_err <= limit:
                            continue
                        problem = (
                            f"arc off the closed form by {float(arc_err):.6g}, "
                            f"point by {float(point_err):.6g}"
                        )
                    violations.append(f"reflection law violated at component {ci} event {i}: {problem}")
                    break
            except DomainError as exc:
                violations.append(f"component {ci}: {exc}")

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
