"""Helpers that only the tests use: star, Laurent, PD-code and Jones
utilities that build expected values or transform inputs for the checks
in ``billiardknots``.
"""

import math
import random

import mpmath as mp

from billiardknots.braids import QuasitoricPattern, pad_to_min_repetitions
from billiardknots.errors import DomainError
from billiardknots.invariants import jones
from billiardknots.laurent import Laurent
from billiardknots.pdcodes import PDCode, braid_closure_pd, traversal_pd
from billiardknots.presets import PRESETS
from billiardknots.stars import ArcTable, Passage, StarDiagram


def chords_cross(p: int, q: int, c1: int, c2: int) -> bool:
    """Exact crossing predicate from the cyclic gap rule."""
    g = (c2 - c1) % p
    return 1 <= g <= q - 1 or p - q + 1 <= g <= p - 1


def passage_arcs(diagram: StarDiagram, crossing) -> tuple:
    """(first arc, second arc) of a star crossing, from the star's geometry."""
    arc_a, arc_b = diagram.geometry.arcs[crossing.index]
    return (arc_a, arc_b) if crossing.a_side_is_first else (arc_b, arc_a)


def sorted_passages(per_comp: list[list[Passage]]) -> tuple[tuple[Passage, ...], ...]:
    """Each component's passages by increasing arc; raises DomainError when
    two passages of one component share an arc."""
    out = []
    for passages in per_comp:
        passages = sorted(passages, key=lambda ps: ps.arc)
        for p1, p2 in zip(passages, passages[1:]):
            if not p1.arc < p2.arc:
                raise DomainError(
                    f"coincident passage arcs at crossings {p1.crossing}, {p2.crossing}"
                )
        out.append(tuple(passages))
    return tuple(out)


def star_arc_table(diagram: StarDiagram) -> ArcTable:
    """Arc table of the unperturbed star (all chords have equal length).

    Each component is traversed chord by chord at unit speed and normalized
    to total length 1; every crossing contributes two passages overall.
    """
    per_comp: list[list[Passage]] = [[] for _ in diagram.components]
    for c in diagram.crossings:
        first_arc, second_arc = passage_arcs(diagram, c)
        per_comp[c.first_component].append(Passage(c.index, first_arc, c.a_side_is_first))
        per_comp[c.second_component].append(Passage(c.index, second_arc, not c.a_side_is_first))
    span = diagram.p // math.gcd(diagram.p, diagram.q)
    with mp.workprec(diagram.prec_bits):
        chord_len = 2 * mp.sin(mp.pi * diagram.q / diagram.p)
        vertex_arcs = tuple(
            tuple(mp.mpf(j) / span for j in range(span)) for _ in diagram.components
        )
        totals = tuple(span * chord_len for _ in diagram.components)
    return ArcTable(
        prec_bits=diagram.prec_bits,
        passages=sorted_passages(per_comp),
        vertex_arcs=vertex_arcs,
        total_lengths=totals,
    )


def lp(*pairs: tuple[int, int]) -> Laurent:
    """Build a Laurent dict from (exponent, coefficient) pairs."""
    out: Laurent = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def lp_add(p: Laurent, q: Laurent) -> Laurent:
    r = dict(p)
    for e, c in q.items():
        r[e] = r.get(e, 0) + c
        if r[e] == 0:
            del r[e]
    return r


def mirror_pd(pd: PDCode) -> PDCode:
    """Reflect the diagram in the plane (switches every crossing)."""
    return PDCode(tuple((a, d, c, b) for a, b, c, d in pd.crossings), pd.free_loops)


def relabel_pd(pd: PDCode, mapping: dict[int, int]) -> PDCode:
    """Apply a bijective relabeling of edge labels."""
    return PDCode(
        tuple(tuple(mapping[x] for x in rec) for rec in pd.crossings), pd.free_loops
    )


def star_passages(diagram: StarDiagram) -> list[tuple]:
    """Strand passages of the unperturbed star, as ``traversal_pd`` reads
    them: (component, arc, crossing id, on chord_a, chord direction)."""
    passages = []
    vertices = diagram.geometry.vertices
    for c in diagram.crossings:
        first_arc, second_arc = passage_arcs(diagram, c)
        for comp, arc, on_a in (
            (c.first_component, first_arc, c.a_side_is_first),
            (c.second_component, second_arc, not c.a_side_is_first),
        ):
            va, vb = diagram.chords[c.chord_a if on_a else c.chord_b]
            (ax, ay), (bx, by) = vertices[va], vertices[vb]
            passages.append((comp, arc, c.index, on_a, (bx - ax, by - ay)))
    return passages


def extract_pd(diagram: StarDiagram, over_data: dict[int, bool]) -> PDCode:
    """PD code of a star diagram.

    ``over_data[i]`` says whether the chord_a strand passes over at crossing
    i; arcs are labeled by traversal order.
    """
    pd, _ = traversal_pd(star_passages(diagram), over_data)
    return pd


def diagram_jones(diagram: StarDiagram, over_data: dict[int, bool]) -> Laurent:
    """Jones polynomial of a star diagram with prescribed over/under data."""
    pd, sign_map = traversal_pd(star_passages(diagram), over_data)
    return jones(pd, sum(sign_map.values()))


def writhe(pattern) -> int:
    """Writhe of the closure of a quasitoric pattern: its sign sum."""
    return sum(sum(row) for row in pattern.signs)


def pattern_jones(pattern) -> Laurent:
    """Jones polynomial of the closure of a quasitoric pattern."""
    return jones(braid_closure_pd(pattern), writhe(pattern))


def jones_mirror(poly: Laurent) -> Laurent:
    """Jones of the mirror image: t -> t^(-1)."""
    return {-e: c for e, c in poly.items()}


def unlink_jones(components: int) -> Laurent:
    """Jones polynomial of the crossing-free unlink."""
    return jones(PDCode((), free_loops=components), 0)


def seeded_inputs():
    """The presets and 32 seeded mixed-sign patterns, 8 for each q = 2..5,
    each as (name, padded pattern, perturbation seed)."""
    inputs = [(name, pad_to_min_repetitions(PRESETS[name]), 42) for name in sorted(PRESETS)]
    rng = random.Random(3401)
    for q in (2, 3, 4, 5):
        for index in range(8):
            p = rng.randint(2 * q + 1, 2 * q + 5)
            signs = tuple(tuple(rng.choice((1, -1)) for _ in range(q - 1)) for _ in range(p))
            inputs.append((f"random-{q}-{p}-{index}", QuasitoricPattern(q, p, signs), rng.randrange(1 << 31)))
    return inputs
