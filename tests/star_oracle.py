"""Reference star combinatorics read off the star's mpf geometry.

``billiardknots.stars.build_star`` decides which passage of a crossing
comes first, and ``perturbation._star_segment_orders`` the crossing order
along each chord, in integers.  These are the rules they replaced: compare
the two passage arcs of each crossing, and sort each chord's crossings by
their arcs, all on ``StarDiagram.geometry``.
"""


def passage_order(star) -> dict[int, tuple[int, int, bool]]:
    """Crossing id -> (first component, second component, a side first),
    from the passages' (component, arc) order."""
    where = {ch: ci for ci, chain in enumerate(star.components) for ch in chain}
    out = {}
    for c in star.crossings:
        arc_a, arc_b = star.geometry.arcs[c.index]
        comp_a, comp_b = where[c.chord_a], where[c.chord_b]
        a_first = arc_a < arc_b if comp_a == comp_b else comp_a < comp_b
        out[c.index] = (comp_a, comp_b, True) if a_first else (comp_b, comp_a, False)
    return out


def segment_orders(star) -> dict[int, list[int]]:
    """Crossing ids in passage order along every chord, by arc."""
    on_chord: dict[int, list[tuple]] = {c: [] for c in range(star.p)}
    for c in star.crossings:
        arc_a, arc_b = star.geometry.arcs[c.index]
        on_chord[c.chord_a].append((arc_a, c.index))
        on_chord[c.chord_b].append((arc_b, c.index))
    return {ch: [idx for _, idx in sorted(items)] for ch, items in on_chord.items()}
