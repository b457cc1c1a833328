"""Reference mirror-room check, bisector and half-plane test, all in mpf.

These are the unscreened loops: the trajectory diameter over all ordered
vertex pairs, the margin over all n^2 values u_k . (P_i - P_k), and every
mirror half-plane tested for a point.
``billiardknots.billiards.mirror_room_check`` screens the first two in
float64 and confirms the candidates at the working precision, on the
mirrors of ``polygon_mirrors``; ``pairwise_mirror_room`` builds the same
mirrors and serves as the oracle the check is compared against, bit for
bit.  ``internal_bisector`` is one vertex's bisector, from its two
neighbours alone: ``polygon_mirrors``, which shares each edge between the
two bisectors at its ends, is compared against it.  ``plain_contains_xy``
is the containment test of the reference reflection check and of the
table tests.  ``all_vertices`` lists a polygon's vertices component by
component.
"""

import mpmath as mp

from billiardknots.billiards import MARGIN_FACTOR, MirrorRoomReport, _bisector, _edge, polygon_mirrors
from billiardknots.perturbation import to_mpf


def internal_bisector(prev, at, next_, prec_bits: int = 128):
    """Unit vector along the internal bisector of the angle prev-at-next:
    u = normalize(normalize(prev-at) + normalize(next-at)), with the edges
    of this vertex alone.  Raises DegenerateAngleError for a coincident or
    collinear angle."""
    with mp.workprec(prec_bits):
        prev, at, next_ = ((to_mpf(x), to_mpf(y)) for x, y in (prev, at, next_))
        return _bisector(_edge(prev, at), _edge(at, next_), mp.mpf(2) ** (-prec_bits // 2))


def all_vertices(poly) -> list:
    """Every vertex of ``poly``, component by component."""
    return [v for comp in poly.components for v in comp.vertices]


def pairwise_mirror_room(poly, prec_bits: int = 128) -> MirrorRoomReport:
    """Strict mirror-room condition: u_k . (P_i - P_k) > margin for all i != k."""
    mirrors = polygon_mirrors(poly, prec_bits)
    vertices = all_vertices(poly)
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


def plain_contains_xy(table, point, tol, prec_bits: int = 128) -> bool:
    """Whether ``point`` lies in every mirror half-plane u . x >= u . P of
    ``table.mirrors``, up to ``tol``."""
    with mp.workprec(prec_bits):
        px, py = to_mpf(point[0]), to_mpf(point[1])
        for mirror in table.mirrors:
            (ux, uy), (vx, vy) = mirror.direction, mirror.point
            if ux * px + uy * py < ux * vx + uy * vy - tol:
                return False
        return True
