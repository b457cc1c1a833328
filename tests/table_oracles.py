"""Reference tables and bisectors for ``billiardknots.billiards``.

``pairwise_floor`` builds the floor polygon by pairwise half-plane
enumeration: every pair of mirror lines is intersected, each intersection
is kept when it satisfies all mirror half-planes, and the survivors are
sorted by angle about their centroid and deduplicated; each mirror must
then support exactly two floor vertices.  This is O(n^3) and shares no
floor logic with ``build_table``; it serves as the oracle its
consecutive-line construction is compared against, in value and in order.

``atan2_table`` is ``build_table``'s construction at the working
precision, with both of its orders decided by ``mp.atan2`` and the
corners in mpf, the reference for the float64 floor, and
``normalized_sum_bisector`` is the bisector formula evaluated per vertex
from its two neighbours, the oracle of the shared edges of
``polygon_mirrors``.
"""

import mpmath as mp

from billiardknots.billiards import BilliardTable, polygon_mirrors
from billiardknots.errors import DegenerateAngleError, UnboundedTableError
from billiardknots.perturbation import to_mpf


def normalized_sum_bisector(prev, at, next_, prec_bits: int = 128):
    """normalize(normalize(prev - at) + normalize(next - at)), each edge
    computed from its own two points; raises DegenerateAngleError for a
    coincident or collinear angle as ``polygon_mirrors`` does."""
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


def atan2_table(mirrors, prec_bits: int = 128) -> BilliardTable:
    """``build_table``'s table at the working precision: the corners in
    mpf, and the outward normals and the start corner about the centroid
    ordered by ``mp.atan2``."""
    mirrors = tuple(mirrors)
    n = len(mirrors)
    with mp.workprec(prec_bits):
        angle = [mp.atan2(-uy, -ux) for ux, uy in (m.direction for m in mirrors)]
        order = sorted(range(n), key=angle.__getitem__)
        gaps = [angle[order[k + 1]] - angle[order[k]] for k in range(n - 1)]
        gaps.append(angle[order[0]] + 2 * mp.pi - angle[order[-1]])
        if max(gaps) >= mp.pi:
            raise UnboundedTableError("mirror normals span less than a half-turn")

        offsets = [m.direction[0] * to_mpf(m.vertex[0]) + m.direction[1] * to_mpf(m.vertex[1]) for m in mirrors]
        corners = []
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


def pairwise_floor(poly, prec_bits: int = 128) -> tuple:
    """Floor vertices (mpf pairs, counterclockwise from the smallest angle
    about their centroid); raises UnboundedTableError like ``build_table``."""
    mirrors = polygon_mirrors(poly, prec_bits)
    n = len(mirrors)
    with mp.workprec(prec_bits):
        angles = sorted(mp.atan2(-uy, -ux) for ux, uy in (m.direction for m in mirrors))
        gaps = [angles[(i + 1) % n] - angles[i] for i in range(n - 1)]
        gaps.append(angles[0] + 2 * mp.pi - angles[-1])
        if max(gaps) >= mp.pi:
            raise UnboundedTableError("mirror normals span less than a half-turn")

        norms = []
        offs = []
        for mirror in mirrors:
            ux, uy = mirror.direction
            vx, vy = to_mpf(mirror.vertex[0]), to_mpf(mirror.vertex[1])
            norms.append((ux, uy))
            offs.append(ux * vx + uy * vy)

        scale = max(abs(o) for o in offs) + 1
        slack = scale * mp.mpf(2) ** (12 - prec_bits // 2)

        candidates = []
        for i in range(n):
            for j in range(i + 1, n):
                (ax, ay), (bx, by) = norms[i], norms[j]
                den = ax * by - ay * bx
                if abs(den) < mp.mpf(2) ** (-prec_bits // 2):
                    continue
                x = (offs[i] * by - offs[j] * ay) / den
                y = (ax * offs[j] - bx * offs[i]) / den
                if all(norms[k][0] * x + norms[k][1] * y >= offs[k] - slack for k in range(n)):
                    candidates.append((x, y))
        if len(candidates) < 3:
            raise UnboundedTableError("half-plane intersection degenerates")

        cx = mp.fsum(c[0] for c in candidates) / len(candidates)
        cy = mp.fsum(c[1] for c in candidates) / len(candidates)
        floor = []
        for x, y in sorted(candidates, key=lambda c: mp.atan2(c[1] - cy, c[0] - cx)):
            if floor and mp.hypot(x - floor[-1][0], y - floor[-1][1]) < slack:
                continue
            floor.append((x, y))
        if len(floor) > 1 and mp.hypot(floor[0][0] - floor[-1][0], floor[0][1] - floor[-1][1]) < slack:
            floor.pop()

        for k in range(n):
            on_line = [
                v for v in floor
                if abs(norms[k][0] * v[0] + norms[k][1] * v[1] - offs[k]) <= 2 * slack
            ]
            if len(on_line) != 2:
                raise UnboundedTableError(
                    f"mirror {k} supports {len(on_line)} polygon vertices, expected an edge"
                )
    return tuple(floor)
