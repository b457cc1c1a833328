"""Reference passages and arc table of a perturbed polygon, from Fraction
differences and sorts.

``PerturbedPolygon.passages()`` and ``perturbation.arc_length_table`` order
a component's passages by ``StarDiagram.passage_order``, which the layout
proved is the polygon's, take each direction from its line's slope and
round each |x - x0| from one integer cross-multiplication.  These are the
rules they replaced: every direction is the Fraction difference of the
segment's exact vertices, the passages of ``certify`` are keyed on their
exact abscissas (``fraction_passages``), and the arc table's passages are
sorted on their mpf arcs (``sorted_arc_table``).  The package must agree with both bit for
bit: equal arcs, and equal PD codes and sign maps from ``traversal_pd``.
"""

import mpmath as mp

from billiardknots.perturbation import to_mpf
from billiardknots.stars import ArcTable, Passage

from diagram_helpers import sorted_passages


def crossing_places(poly):
    """(crossing id, exact point, ((component, segment), on chord_a) of
    each of its two passages) per crossing, with each chord's place read
    off the star's components."""
    place = {ch: (ci, i) for ci, chain in enumerate(poly.star.components) for i, ch in enumerate(chain)}
    for c, point in zip(poly.star.crossings, poly.points):
        yield c.index, point, ((place[c.chord_a], True), (place[c.chord_b], False))


def fraction_passages(poly):
    """One (component, sort key, crossing id, on chord_a, direction) per
    strand passage: the key is (segment, +-x) with the sign of the
    segment's travel along x, and the direction the exact vertex
    difference."""
    directions = [
        [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1])]
        for vs in (comp.vertices for comp in poly.components)
    ]
    for index, point, places in crossing_places(poly):
        for (comp, seg), on_a in places:
            direction = directions[comp][seg]
            key = (seg, point[0] if direction[0] > 0 else -point[0])
            yield comp, key, index, on_a, direction


def sorted_arc_table(poly, prec_bits: int) -> ArcTable:
    """Passage and vertex arcs, normalized so each component has length 1,
    each |x - x0| the Fraction difference rounded by ``to_mpf`` and each
    component's passages sorted by arc."""
    passages: list[list[Passage]] = []
    vertex_arcs = []
    totals = []
    factors: list[list] = []
    cumulatives: list[list] = []
    with mp.workprec(prec_bits):
        for comp in poly.components:
            m = len(comp.lines)
            seg_factor = [mp.sqrt(1 + to_mpf(a) ** 2) for a, _ in comp.lines]
            cumulative = [mp.mpf(0)]
            for i in range(m):
                dx = comp.vertices[(i + 1) % m][0] - comp.vertices[i][0]
                cumulative.append(cumulative[-1] + seg_factor[i] * abs(to_mpf(dx)))
            total = cumulative[-1]
            totals.append(total)
            factors.append(seg_factor)
            cumulatives.append(cumulative)
            vertex_arcs.append(tuple(cumulative[i] / total for i in range(m)))
            passages.append([])

        for index, point, places in crossing_places(poly):
            for (ci, i), on_a in places:
                comp = poly.components[ci]
                dx = point[0] - comp.vertices[i][0]
                partial = factors[ci][i] * abs(to_mpf(dx))
                arc = (cumulatives[ci][i] + partial) / totals[ci]
                passages[ci].append(Passage(index, arc, on_a))

    return ArcTable(
        prec_bits=prec_bits,
        passages=sorted_passages(passages),
        vertex_arcs=tuple(vertex_arcs),
        total_lengths=tuple(totals),
    )
