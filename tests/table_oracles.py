"""Reference floor polygon by pairwise half-plane enumeration.

Every pair of mirror lines is intersected, each intersection is kept when it
satisfies all mirror half-planes, and the survivors are sorted by angle about
their centroid and deduplicated; each mirror must then support exactly two
floor vertices.  This is O(n^3) and shares no floor logic with
``billiardknots.billiards.build_table``; it serves as the oracle its
consecutive-line construction is compared against, in value and in order.
"""

import mpmath as mp

from billiardknots.billiards import polygon_mirrors
from billiardknots.errors import UnboundedTableError
from billiardknots.perturbation import to_mpf


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
