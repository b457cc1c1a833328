"""Reference polygon layout in Fraction arithmetic.

``billiardknots.perturbation.layout_from_lines`` decides every test on
integers scaled to one common denominator.  ``layout_from_lines`` here is
the rule it replaced, one Fraction operation at a time, with the crossing
order along each chord taken from the star's arcs (``star_oracle``); the
two must agree on every input, a layout or None.  Each segment's
``forward`` is a Fraction comparison of its end abscissas, and each
segment's crossings are sorted on their exact abscissas in the direction of
travel: an independent check that the star's order
(``StarDiagram.segment_orders``) is the polygon's.
"""

from fractions import Fraction

from billiardknots.errors import DomainError
from billiardknots.perturbation import PolyComponent

from star_oracle import segment_orders


def crossing_abscissa(line_i: tuple[Fraction, Fraction], line_j: tuple[Fraction, Fraction]) -> Fraction:
    """x coordinate where y = a_i x + b_i meets y = a_j x + b_j, exactly."""
    (a_i, b_i), (a_j, b_j) = line_i, line_j
    if a_i == a_j:
        raise DomainError("parallel lines have no crossing abscissa")
    return (b_i - b_j) / (a_j - a_i)


def line_intersection(line_i, line_j) -> tuple[Fraction, Fraction]:
    x = crossing_abscissa(line_i, line_j)
    a_i, b_i = line_i
    return (x, a_i * x + b_i)


def layout_from_lines(star, lines: list[tuple[Fraction, Fraction]]):
    """Polygon components and crossing points cut out by one line per chord
    of the star, or None when their combinatorics differ from the star's."""
    components = []
    seg_of_chord: dict[int, tuple[int, int]] = {}
    for ci, chain in enumerate(star.components):
        comp_lines = tuple(lines[ch] for ch in chain)
        m = len(chain)
        try:
            vertices = tuple(
                line_intersection(comp_lines[(i - 1) % m], comp_lines[i]) for i in range(m)
            )
        except DomainError:
            return None
        forward = tuple(vertices[(i + 1) % m][0] > vertices[i][0] for i in range(m))
        components.append(PolyComponent(comp_lines, vertices, forward))
        for i, ch in enumerate(chain):
            seg_of_chord[ch] = (ci, i)

    def x_interval(place):
        ci, i = place
        comp = components[ci]
        x0 = comp.vertices[i][0]
        x1 = comp.vertices[(i + 1) % len(comp.vertices)][0]
        return (x0, x1) if x0 < x1 else (x1, x0)

    # expected crossings must exist, strictly inside both segments
    crossings = []
    expected_pairs = set()
    for c in star.crossings:
        pa, pb = seg_of_chord[c.chord_a], seg_of_chord[c.chord_b]
        expected_pairs.add(frozenset((c.chord_a, c.chord_b)))
        try:
            x = crossing_abscissa(lines[c.chord_a], lines[c.chord_b])
        except DomainError:
            return None
        lo_a, hi_a = x_interval(pa)
        lo_b, hi_b = x_interval(pb)
        if not (lo_a < x < hi_a and lo_b < x < hi_b):
            return None
        point = (x, lines[c.chord_a][0] * x + lines[c.chord_a][1])
        crossings.append((c.index, pa, pb, point))

    # no unexpected segment intersections
    for c1 in range(star.p):
        for c2 in range(c1 + 1, star.p):
            if frozenset((c1, c2)) in expected_pairs:
                continue
            if lines[c1][0] == lines[c2][0]:
                continue
            x = crossing_abscissa(lines[c1], lines[c2])
            lo1, hi1 = x_interval(seg_of_chord[c1])
            lo2, hi2 = x_interval(seg_of_chord[c2])
            inside1 = lo1 <= x <= hi1
            inside2 = lo2 <= x <= hi2
            if inside1 and inside2:
                # shared polygon corners are expected for consecutive chords
                ci1, i1 = seg_of_chord[c1]
                ci2, i2 = seg_of_chord[c2]
                m = len(components[ci1].vertices)
                consecutive = ci1 == ci2 and (i1 - i2) % m in (1, m - 1)
                if not consecutive:
                    return None

    # per-segment crossing order must match the star's, with no ties
    star_orders = segment_orders(star)
    by_place: dict[tuple[int, int], list[tuple]] = {}
    for index, pa, pb, point in crossings:
        for place in (pa, pb):
            by_place.setdefault(place, []).append((point[0], index))
    for place, items in by_place.items():
        ci, i = place
        comp = components[ci]
        items.sort(key=lambda pair: pair[0], reverse=not comp.forward[i])
        xs = [x for x, _ in items]
        if len(set(xs)) != len(xs):
            return None
        if [idx for _, idx in items] != star_orders[star.components[ci][i]]:
            return None

    return tuple(components), tuple(point for _, _, _, point in crossings)
