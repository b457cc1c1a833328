"""Reference star geometry and combinatorics by general segment intersection.

``billiardknots.stars.build_star`` decides which passage of a crossing
comes first, and ``StarDiagram.segment_orders`` the crossing order along
each chord, in integers; ``stars.star_geometry`` places every
crossing by the tangent-circle closed form those integer rules come from,
and ``StarDiagram.passage_order`` lists every component's passages from
them.
These are the rules they replaced: intersect the two chords of each
crossing as general segments, compare the two passage arcs of each
crossing, and sort each chord's crossings by their arcs.  Only the star's
vertices are read from ``StarDiagram.geometry``.
"""

import math

import mpmath as mp

from billiardknots.errors import DomainError


def _segment_intersection(a0, a1, b0, b1, prec_bits: int):
    """Intersection point and both parameters of segments a0->a1, b0->b1."""
    with mp.workprec(prec_bits):
        dax, day = a1[0] - a0[0], a1[1] - a0[1]
        dbx, dby = b1[0] - b0[0], b1[1] - b0[1]
        den = dax * dby - day * dbx
        if den == 0:
            raise DomainError("parallel chords cannot cross")
        rx, ry = b0[0] - a0[0], b0[1] - a0[1]
        s = (rx * dby - ry * dbx) / den
        u = (rx * day - ry * dax) / den
        point = (a0[0] + s * dax, a0[1] + s * day)
        return point, s, u


def oracle_geometry(star) -> tuple[tuple, tuple]:
    """(points, arcs) of every crossing, indexed like ``star.crossings``:
    one segment intersection per crossing, on the star's vertices."""
    p, q, prec_bits = star.p, star.q, star.prec_bits
    vertices = star.geometry.vertices
    span = p // math.gcd(p, q)
    index = {ch: j for chain in star.components for j, ch in enumerate(chain)}
    points, arcs = [], []
    for c in star.crossings:
        point, s_a, s_b = _segment_intersection(
            vertices[c.chord_a], vertices[(c.chord_a + q) % p],
            vertices[c.chord_b], vertices[(c.chord_b + q) % p], prec_bits,
        )
        with mp.workprec(prec_bits):
            arcs.append(((index[c.chord_a] + s_a) / span, (index[c.chord_b] + s_b) / span))
        points.append(point)
    return tuple(points), tuple(arcs)


def passage_order(star) -> dict[int, tuple[int, int, bool]]:
    """Crossing id -> (first component, second component, a side first),
    from the passages' (component, arc) order."""
    where = {ch: ci for ci, chain in enumerate(star.components) for ch in chain}
    _, arcs = oracle_geometry(star)
    out = {}
    for c in star.crossings:
        arc_a, arc_b = arcs[c.index]
        comp_a, comp_b = where[c.chord_a], where[c.chord_b]
        a_first = arc_a < arc_b if comp_a == comp_b else comp_a < comp_b
        out[c.index] = (comp_a, comp_b, True) if a_first else (comp_b, comp_a, False)
    return out


def segment_orders(star) -> dict[int, list[int]]:
    """Crossing ids in passage order along every chord, by arc."""
    _, arcs = oracle_geometry(star)
    on_chord: dict[int, list[tuple]] = {c: [] for c in range(star.p)}
    for c in star.crossings:
        arc_a, arc_b = arcs[c.index]
        on_chord[c.chord_a].append((arc_a, c.index))
        on_chord[c.chord_b].append((arc_b, c.index))
    return {ch: [idx for _, idx in sorted(items)] for ch, items in on_chord.items()}


def component_passages(star) -> list[list[tuple[int, int, bool]]]:
    """Each component's (segment, crossing id, on chord_a) passages, sorted
    by arc."""
    place = {ch: (ci, i) for ci, chain in enumerate(star.components) for i, ch in enumerate(chain)}
    _, arcs = oracle_geometry(star)
    per_comp: list[list[tuple]] = [[] for _ in star.components]
    for c in star.crossings:
        for chord, arc, on_a in zip((c.chord_a, c.chord_b), arcs[c.index], (True, False)):
            ci, segment = place[chord]
            per_comp[ci].append((arc, (segment, c.index, on_a)))
    return [[passage for _, passage in sorted(items)] for items in per_comp]
