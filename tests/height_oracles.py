"""Brute-force grid-scan oracle for the sawtooth height search.

It shares no code with ``billiardknots.heights``: every phase tuple of the
search's phase grid (j / (4 f #constraints) per component) is tested directly
against conditions (a), (b) and (c) in float64, and f-tuples are walked in
the reference shell order, a filtered Cartesian product.
"""

import itertools
import math


def shell_order(d: int, top: int):
    """f-tuples in [1, top]^d by ascending maximum, lexicographic within each
    shell."""
    for shell in range(1, top + 1):
        for f_tuple in itertools.product(range(1, shell + 1), repeat=d):
            if max(f_tuple) == shell:
                yield f_tuple


def sawtooth(f: int, t: float, phi: float) -> float:
    y = f * t + phi
    return abs(2.0 * (y - math.floor(y)) - 1.0)


def _crossing_holds(c, t1, t2, heights, margin) -> bool:
    (f1, p1), (f2, p2) = heights[c.first_component], heights[c.second_component]
    z1, z2 = sawtooth(f1, t1, p1), sawtooth(f2, t2, p2)
    return abs(z1 - z2) >= margin and (z1 > z2) == c.first_over


def accepted_phases(f_tuple, event_arcs, constraints, margin):
    """Every grid phase tuple at ``f_tuple`` (components 0 .. d-1) that
    satisfies all three conditions."""
    n = 4 * max(1, len(constraints))
    arcs = [(c, float(c.first_arc), float(c.second_arc)) for c in constraints]
    per_component = []
    for comp, f in enumerate(f_tuple):
        per_component.append([
            j / (n * f)
            for j in range(n * f)
            if all(margin <= sawtooth(f, t, j / (n * f)) <= 1 - margin for t in event_arcs[comp])
        ])
    for phis in itertools.product(*per_component):
        heights = dict(enumerate(zip(f_tuple, phis)))
        if all(_crossing_holds(c, t1, t2, heights, margin) for c, t1, t2 in arcs):
            yield phis


def first_hit(event_arcs, constraints, f_max, margin):
    """The first f-tuple in shell order with an accepted grid phase tuple."""
    for f_tuple in shell_order(len(event_arcs), f_max):
        if next(accepted_phases(f_tuple, event_arcs, constraints, margin), None) is not None:
            return f_tuple
    return None
