"""Polygonal stars {p/q}: chords, crossings, traversal arcs, braid letters.

The star has p vertices e^(2 pi i k / p) and chords (k, k+q).  Two chords c
and c' cross exactly when the cyclic gap g = (c'-c) mod p satisfies
1 <= g <= q-1 or p-q+1 <= g <= p-1, so all crossing combinatorics is decided
by integer arithmetic; coordinates only feed arc lengths and plot data.

``build_star`` computes that combinatorics and nothing else.  Every chord
is tangent to the circle of radius cos(pi q / p): chord c touches it at the
angle of its midpoint, and chords c and c+g touch it 2 pi g / p apart, so
their tangent lines meet tan(pi g / p) / tan(pi q / p) half-chords past the
midpoint of chord c.  Chord c, run from vertex c, therefore meets chord
c +- g at the parameter 1/2 +- tan(pi g / p) / (2 tan(pi q / p)), which is
strictly monotone in g for 1 <= g <= q-1 (pi g / p < pi / 2).  Along chord
c the crossings come in the order of the chords c-(q-1), ..., c-1, c+1,
..., c+(q-1), with no ties.  ``StarDiagram.segment_orders`` holds that
order, built once per star.  A passage's arc is (j + s) / span for the
traversal index j of its chord within the component and s in (0, 1), so
two passages of one component are ordered by their chords' j alone.

The star owns the combinatorics of every polygon cut out near it.
``StarDiagram.places`` maps each chord to its (component, index), and
``StarDiagram.passage_order`` lists each component's passages in
traversal order as (segment, crossing id, on chord_a): segment by segment,
each in the order of ``segment_orders``.  The perturbation checks that its
polygon keeps that order and then walks this list, so no coordinate is
compared after the layout.

The coordinates (vertices, crossing points, passage arcs) form a
``StarGeometry``, built at the star's precision the first time
``StarDiagram.geometry`` is read, with every crossing placed by that
closed form (q tangents per star): the perturbation reads the chord lines
from it, and the diagram exports read points and arcs.  Checking stored
artifacts needs none of it.

The whole figure is pre-rotated by atan(1/17) so that no chord is ever
vertical (a tangent of a rational multiple of pi is never 1/17), which the
downstream slope/intercept perturbation relies on.

Sector s is the angular interval [2 pi s / p, 2 pi (s+1) / p) before the
pre-rotation; the crossing of chords (c, c+g) sits at angular position
(2c + g + q) / 2 in sector units and at depth q - g (1 = outermost ring).

Sign-matrix slots: the crossing of chords (c, c+g) reads row
(c + ceil(q/2)) mod p, column g - 1 (generator index g, equivalently depth
q - g mapped to generator q - depth), and takes its sign from that cell
when ``build_star`` makes it.  Row r thus collects the q-1 crossings that
one chord makes with the chords ahead of it, which is one repetition of
the toric word, and the map from crossings to the p (q-1) cells is a
bijection.  For q <= 3 the row is exactly the angular sector of the
crossing; for q >= 4 the two differ, and braid-word comparisons (Burau
characteristic values over random sign matrices, all strand counts up to
7) confirm the chord-based row is the one that makes the picture the
closure of the quasitoric braid with that matrix.  A +1 means the chord_a
strand (the one rising outward through the crossing) passes over,
matching a positive braid letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import mpmath as mp

from .braids import QuasitoricPattern
from .errors import DomainError

ROTATION_TANGENT = (1, 17)
JSON_DIGITS = 17  # round-trips a float64


class Passage(NamedTuple):
    crossing: int
    arc: object        # mpf in (0, 1), unit-length parameterization
    is_a_side: bool    # True when this passage runs along the crossing's chord_a


@dataclass(frozen=True)
class ArcTable:
    """Normalized passage and vertex arcs of a closed diagram, per component."""

    prec_bits: int
    passages: tuple[tuple[Passage, ...], ...]   # sorted by arc within each component
    vertex_arcs: tuple[tuple, ...]              # polygon corners, per component
    total_lengths: tuple                        # unnormalized lengths (mpf)

    def component_count(self) -> int:
        return len(self.passages)


@dataclass(frozen=True)
class Crossing:
    index: int
    chord_a: int     # lower chord of the (c, c+g) presentation
    chord_b: int     # (chord_a + gap) mod p
    gap: int         # 1..q-1
    sector: int
    depth: int       # q - gap; 1 is the outermost ring
    braid_row: int
    braid_col: int
    first_component: int    # of the passage earlier in (component, arc) order
    second_component: int
    a_side_is_first: bool   # True if the first passage runs along chord_a
    sign: int        # pattern.signs[braid_row][braid_col]


@dataclass(frozen=True)
class StarGeometry:
    """Coordinates of a star at its precision, indexed like its vertices
    and crossings."""

    rotation: object         # mpf angle of the global pre-rotation
    vertices: tuple          # p rotated unit-circle points
    points: tuple            # (x, y) of each crossing
    arcs: tuple              # (chord_a arc, chord_b arc) of each crossing, mpf in (0, 1)


@dataclass(frozen=True)
class StarDiagram:
    p: int
    q: int
    prec_bits: int                         # precision of the geometry
    chords: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]  # chord ids in traversal order
    places: tuple[tuple[int, int], ...]      # (component, index in it) of each chord
    crossings: tuple[Crossing, ...]

    @cached_property
    def geometry(self) -> StarGeometry:
        return star_geometry(self)

    @cached_property
    def segment_orders(self) -> tuple[tuple[int, ...], ...]:
        """Crossing ids in passage order along every chord, indexed by
        chord: chord c, from its first vertex, meets the chords c-(q-1),
        ..., c-1, c+1, ..., c+(q-1) in that order (the tangent-circle
        argument of the module docstring)."""
        q = self.q
        orders = [[0] * (2 * q - 2) for _ in range(self.p)]
        for c in self.crossings:
            orders[c.chord_a][q - 2 + c.gap] = c.index
            orders[c.chord_b][q - 1 - c.gap] = c.index
        return tuple(map(tuple, orders))

    @cached_property
    def passage_order(self) -> tuple[tuple[tuple[int, int, bool], ...], ...]:
        """Every component's passages in traversal order, as (segment,
        crossing id, on chord_a): segment by segment, each in the order of
        ``segment_orders``."""
        return tuple(
            tuple(
                (segment, crossing, self.crossings[crossing].chord_a == chord)
                for segment, chord in enumerate(chain)
                for crossing in self.segment_orders[chord]
            )
            for chain in self.components
        )


def _component_layout(p: int, q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
    """The components as chord chains, and each chord's (component, index)."""
    d = math.gcd(p, q)
    comps = []
    places = [(0, 0)] * p
    for m in range(d):
        chain = []
        c = m
        for j in range(p // d):
            chain.append(c)
            places[c] = (m, j)
            c = (c + q) % p
        comps.append(tuple(chain))
    return tuple(comps), tuple(places)


def build_star(pattern: QuasitoricPattern, prec_bits: int = 128) -> StarDiagram:
    """The signed star {p/q} of a pattern with p repetitions on q strands,
    with its full crossing bookkeeping in integers; each crossing takes the
    sign of its slot (see module docstring).  ``prec_bits`` is the
    precision of its geometry.

    Requires p >= 2q+1, the regime in which the star is the closure of the
    toric braid on q strands (the pattern already has q >= 2).
    """
    p, q = pattern.repetitions, pattern.strands
    if p < 2 * q + 1:
        raise DomainError(f"p must be >= 2q+1 = {2 * q + 1}, got {p}")

    chords = tuple((k, (k + q) % p) for k in range(p))
    components, places = _component_layout(p, q)

    crossings = []
    for c in range(p):
        row = (c + (q + 1) // 2) % p
        for g in range(1, q):
            b = (c + g) % p
            # both arcs are (j + s) / span with s in (0, 1): the j decide
            a_first = places[c] < places[b]
            first, second = (places[c], places[b]) if a_first else (places[b], places[c])
            crossings.append(
                Crossing(
                    index=len(crossings),
                    chord_a=c,
                    chord_b=b,
                    gap=g,
                    sector=((2 * c + g + q) // 2) % p,
                    depth=q - g,
                    braid_row=row,
                    braid_col=g - 1,
                    first_component=first[0],
                    second_component=second[0],
                    a_side_is_first=a_first,
                    sign=pattern.signs[row][g - 1],
                )
            )

    return StarDiagram(
        p=p,
        q=q,
        prec_bits=prec_bits,
        chords=chords,
        components=components,
        places=places,
        crossings=tuple(crossings),
    )


def star_geometry(star: StarDiagram) -> StarGeometry:
    """The star's vertices, crossing points and passage arcs at its
    precision; ``StarDiagram.geometry`` builds it once per star.  Chord c
    meets chord c+g at 1/2 + offset[g] along c and at 1/2 - offset[g]
    along c+g (the closed form of the module docstring)."""
    p, q = star.p, star.q
    span = p // math.gcd(p, q)
    places = star.places
    with mp.workprec(star.prec_bits):
        omega = mp.atan(mp.mpf(ROTATION_TANGENT[0]) / ROTATION_TANGENT[1])
        vertices = tuple(mp.cos_sin(2 * mp.pi * k / p + omega) for k in range(p))
        half = mp.mpf(1) / 2
        scale = 2 * mp.tan(mp.pi * q / p)
        offset = {g: mp.tan(mp.pi * g / p) / scale for g in range(1, q)}
        points, arcs = [], []
        for c in star.crossings:
            s_a, s_b = half + offset[c.gap], half - offset[c.gap]
            (x0, y0), (x1, y1) = vertices[c.chord_a], vertices[(c.chord_a + q) % p]
            points.append((x0 + s_a * (x1 - x0), y0 + s_a * (y1 - y0)))
            arcs.append(((places[c.chord_a][1] + s_a) / span, (places[c.chord_b][1] + s_b) / span))
    return StarGeometry(omega, vertices, tuple(points), tuple(arcs))


def over_flags_from_signs(diagram: StarDiagram) -> dict[int, bool]:
    """Map crossing id -> whether the chord_a strand is the over strand."""
    return {c.index: c.sign > 0 for c in diagram.crossings}


def star_diagram_json(diagram: StarDiagram) -> dict:
    """Plot/debug export: vertices, chords, crossings with labels and arcs."""
    def num(x) -> str:
        return mp.nstr(x, JSON_DIGITS)

    geometry = diagram.geometry

    def arcs(c):
        arc_a, arc_b = geometry.arcs[c.index]
        return (arc_a, arc_b) if c.a_side_is_first else (arc_b, arc_a)

    return {
        "p": diagram.p,
        "q": diagram.q,
        "rotation": num(geometry.rotation),
        "vertices": [[num(x), num(y)] for x, y in geometry.vertices],
        "chords": [list(ch) for ch in diagram.chords],
        "components": [list(comp) for comp in diagram.components],
        "crossings": [
            {
                "index": c.index,
                "chords": [c.chord_a, c.chord_b],
                "sector": c.sector,
                "depth": c.depth,
                "braid_row": c.braid_row,
                "braid_col": c.braid_col,
                "point": [num(x) for x in geometry.points[c.index]],
                "first": {"component": c.first_component, "arc": num(arcs(c)[0])},
                "second": {"component": c.second_component, "arc": num(arcs(c)[1])},
                "sign": c.sign,
            }
            for c in diagram.crossings
        ],
    }
