"""Symmetry breaking: replace star chords by nearby rational lines.

Every supporting line becomes y = a x + b with (a, b) exact rationals drawn
within delta of the star chord's slope and intercept (denominators bounded
by 2^31).  Vertices and crossing abscissas are then exact rationals:

    x_{i,j} = (b_i - b_j) / (a_j - a_i)

and only lengths and arc parameters are inexact, computed at a configurable
binary precision:

    l_{i,j} = sqrt(1 + a_i^2) * (x_{i,j} - x_{i-1,i})
    t_{i,j} = |l_{0,1}| + ... + |l_{i-1,i}| + |l_{i,j}|

``perturb`` maps 2p draws to lines and their layout, or to None when the
layout is not the star's (same crossing pairs and crossing order along
every segment).  The one loop over delta is ``pipeline.perturb_stage``:
draws -> lines -> layout -> mirror room, halving on either failure.

Heuristic Q-independence of {1, t_i} is checked per component by
mpmath's PSLQ at tolerance tol.  The check takes the search's first hit; it
reports that hit as a relation only if its coefficients are at most
``max_coeff`` and its residual at most tol^2.  The component passes when
the hit fails that screen and when the search ends without a hit.
The check is not a pipeline stage: ``RealizationResult.independence`` runs
it on demand, on arcs of its own at the precision tol needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_rational, round_nearest

from .errors import DomainError, PrecisionError
from .stars import ArcTable, Passage, StarDiagram, sorted_passages

DENOMINATOR_BITS = 31


@dataclass(frozen=True)
class PolyComponent:
    chord_ids: tuple[int, ...]                       # star chords in traversal order
    lines: tuple[tuple[Fraction, Fraction], ...]     # (a, b) per segment
    vertices: tuple[tuple[Fraction, Fraction], ...]  # V_i starts segment i


@dataclass(frozen=True)
class PolyCrossing:
    index: int                 # star crossing index
    a_place: tuple[int, int]   # (component, segment) of the chord_a passage
    b_place: tuple[int, int]
    point: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class PerturbedPolygon:
    star: StarDiagram
    delta: Fraction            # the perturbation size the lines were drawn at
    components: tuple[PolyComponent, ...]
    crossings: tuple[PolyCrossing, ...]

    def segment_direction(self, comp: int, seg: int) -> tuple[Fraction, Fraction]:
        component = self.components[comp]
        v0 = component.vertices[seg]
        v1 = component.vertices[(seg + 1) % len(component.vertices)]
        return (v1[0] - v0[0], v1[1] - v0[1])

    def passages(self):
        """One (component, sort key, crossing id, on chord_a, direction) per
        strand passage, as ``pdcodes.traversal_pd`` reads them; the key
        orders a component's passages along it and the direction of travel
        is exact."""
        for pc in self.crossings:
            for (comp, seg), on_a in ((pc.a_place, True), (pc.b_place, False)):
                direction = self.segment_direction(comp, seg)
                key = (seg, pc.point[0] if direction[0] > 0 else -pc.point[0])
                yield comp, key, pc.index, on_a, direction


def _star_chord_geometry(star: StarDiagram):
    """Slope and intercept of each (rotated) star chord, as mpf."""
    slopes, intercepts = [], []
    vertices = star.geometry.vertices
    with mp.workprec(star.prec_bits):
        for va, vb in star.chords:
            (x1, y1), (x2, y2) = vertices[va], vertices[vb]
            if x2 == x1:
                raise DomainError("vertical chord survived the pre-rotation")
            a = (y2 - y1) / (x2 - x1)
            slopes.append(a)
            intercepts.append(y1 - a * x1)
    return slopes, intercepts


def _star_segment_orders(star: StarDiagram) -> dict[int, list[int]]:
    """Crossing ids in passage order along every chord of the star: chord c,
    from its first vertex, meets the chords c-(q-1), ..., c-1, c+1, ...,
    c+(q-1) in that order (the tangent-circle argument in ``stars``)."""
    q = star.q
    orders: dict[int, list[int]] = {ch: [0] * (2 * q - 2) for ch in range(star.p)}
    for c in star.crossings:
        orders[c.chord_a][q - 2 + c.gap] = c.index
        orders[c.chord_b][q - 1 - c.gap] = c.index
    return orders


def _rational_near(value, delta: Fraction, draw: float) -> Fraction:
    """A denominator-bounded rational within delta of ``value`` (mpf)."""
    shifted = value + mp.mpf(draw) * mp.mpf(delta.numerator) / delta.denominator
    scale = 1 << DENOMINATOR_BITS
    return Fraction(int(mp.nint(shifted * scale)), scale)


def layout_from_lines(star: StarDiagram, lines: list[tuple[Fraction, Fraction]]):
    """Polygon components and crossings cut out by one line per chord of the
    star, or None when their combinatorics differ from the star's, as when
    two consecutive lines of a component are parallel and have no corner.

    Every test is decided in integers: the lines are scaled to the common
    denominator L of their coefficients, y = (A x + B) / L, so two lines
    meet at x = N / D with N = B_i - B_j and D = A_j - A_i > 0 after a sign
    flip, and every comparison of abscissas is a cross-multiplication.  The
    polygon's vertices and crossing points are the only Fractions built.
    """
    scale = math.lcm(*(v.denominator for line in lines for v in line))
    scaled = [
        (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
        for a, b in lines
    ]

    def meet(i, j):
        """(N, D) with D > 0 for the abscissa where lines i and j meet, or
        None when they are parallel."""
        (a_i, b_i), (a_j, b_j) = scaled[i], scaled[j]
        den = a_j - a_i
        if den == 0:
            return None
        return (b_i - b_j, den) if den > 0 else (b_j - b_i, -den)

    def point(line, x):
        """The exact point of line ``line`` at abscissa x = (N, D)."""
        (a, b), (num, den) = scaled[line], x
        return (Fraction(num, den), Fraction(a * num + b * den, scale * den))

    components = []
    corners: list[list[tuple[int, int]]] = []   # (N, D) of each vertex abscissa
    seg_of_chord: dict[int, tuple[int, int]] = {}
    for ci, chain in enumerate(star.components):
        m = len(chain)
        xs = [meet(chain[i - 1], chain[i]) for i in range(m)]
        if None in xs:
            return None
        corners.append(xs)
        components.append(PolyComponent(
            tuple(chain),
            tuple(lines[ch] for ch in chain),
            tuple(point(chain[i - 1], xs[i]) for i in range(m)),
        ))
        for i, ch in enumerate(chain):
            seg_of_chord[ch] = (ci, i)

    def x_interval(chord):
        """(lo, hi, forward): the segment's abscissa range, and whether it
        runs towards larger x."""
        ci, i = seg_of_chord[chord]
        x0, x1 = corners[ci][i], corners[ci][(i + 1) % len(corners[ci])]
        forward = x1[0] * x0[1] > x0[0] * x1[1]
        return (x0, x1, forward) if forward else (x1, x0, forward)

    intervals = {ch: x_interval(ch) for ch in range(star.p)}

    def inside(x, chord, strict):
        (lo_n, lo_d), (hi_n, hi_d), _ = intervals[chord]
        num, den = x
        if strict:
            return lo_n * den < num * lo_d and num * hi_d < hi_n * den
        return lo_n * den <= num * lo_d and num * hi_d <= hi_n * den

    # expected crossings must exist, strictly inside both segments
    crossings = []
    abscissa: dict[int, tuple[int, int]] = {}
    expected_pairs = set()
    for c in star.crossings:
        expected_pairs.add((min(c.chord_a, c.chord_b), max(c.chord_a, c.chord_b)))
        x = meet(c.chord_a, c.chord_b)
        if x is None or not (inside(x, c.chord_a, True) and inside(x, c.chord_b, True)):
            return None
        abscissa[c.index] = x
        crossings.append(PolyCrossing(
            c.index, seg_of_chord[c.chord_a], seg_of_chord[c.chord_b], point(c.chord_a, x)
        ))

    # no unexpected segment intersections
    for c1 in range(star.p):
        for c2 in range(c1 + 1, star.p):
            if (c1, c2) in expected_pairs:
                continue
            x = meet(c1, c2)
            if x is None or not (inside(x, c1, False) and inside(x, c2, False)):
                continue
            # shared polygon corners are expected for consecutive chords
            ci1, i1 = seg_of_chord[c1]
            ci2, i2 = seg_of_chord[c2]
            m = len(corners[ci1])
            if not (ci1 == ci2 and (i1 - i2) % m in (1, m - 1)):
                return None

    # each segment meets its crossings strictly in the star's order
    for chord, order in _star_segment_orders(star).items():
        forward = intervals[chord][2]
        for before, after in zip(order, order[1:]):
            (n0, d0), (n1, d1) = abscissa[before], abscissa[after]
            if not (n0 * d1 < n1 * d0 if forward else n1 * d0 < n0 * d1):
                return None

    return tuple(components), tuple(crossings)


def perturb(star: StarDiagram, delta: Fraction, draws) -> PerturbedPolygon | None:
    """The polygon of rational lines within delta of the star chords, or
    None when two lines share a slope or their layout is not the star's.

    ``draws`` holds 2p values in [-1, 1]: for each chord in chord order, the
    slope's and then the intercept's offset, as a fraction of delta.
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if len(draws) != 2 * star.p:
        raise DomainError(f"expected {2 * star.p} draws, got {len(draws)}")
    slopes, intercepts = _star_chord_geometry(star)
    with mp.workprec(star.prec_bits):
        lines = [
            (_rational_near(a, delta, da), _rational_near(b, delta, db))
            for a, b, da, db in zip(slopes, intercepts, draws[::2], draws[1::2])
        ]
    if len({a for a, _ in lines}) != star.p:
        return None
    layout = layout_from_lines(star, lines)
    return None if layout is None else PerturbedPolygon(star, delta, *layout)


def to_mpf(x):
    """An mpf at the working precision; a Fraction is rounded once, to the
    nearest."""
    if isinstance(x, Fraction):
        return mp.mp.make_mpf(from_rational(x.numerator, x.denominator, mp.mp.prec, round_nearest))
    return mp.mpf(x)


def arc_length_table(poly: PerturbedPolygon, prec_bits: int) -> ArcTable:
    """Passage and vertex arcs, normalized so each component has length 1."""
    passages: list[list[Passage]] = []
    vertex_arcs = []
    totals = []
    factors: list[list] = []      # sqrt(1 + a_i^2) per segment
    cumulatives: list[list] = []  # arc length at the start of each segment
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

        for pc in poly.crossings:
            for place, on_a in ((pc.a_place, True), (pc.b_place, False)):
                ci, i = place
                comp = poly.components[ci]
                dx = pc.point[0] - comp.vertices[i][0]
                partial = factors[ci][i] * abs(to_mpf(dx))
                arc = (cumulatives[ci][i] + partial) / totals[ci]
                passages[ci].append(Passage(pc.index, arc, on_a))

    return ArcTable(
        prec_bits=prec_bits,
        passages=sorted_passages(passages),
        vertex_arcs=tuple(vertex_arcs),
        total_lengths=tuple(totals),
    )


@dataclass(frozen=True)
class IndependenceResult:
    passed: bool
    component: int | None = None          # first failing component
    witness: tuple[int, ...] | None = None  # coefficients for (1, t_1, t_2, ...)
    residual: object = None               # |lambda_0 + sum lambda_i t_i| for the witness


def required_precision_bits(tol: float) -> int:
    digits = -mp.log10(mp.mpf(tol))
    return int(mp.ceil(4 * digits * mp.log(10) / mp.log(2)))


def independence_check(table: ArcTable, max_coeff: int, tol: float) -> IndependenceResult:
    """Bounded integer-relation rejection test on {1, t_i}, per component.

    Runs mpmath's PSLQ (``mp.pslq``) on each component's vector and takes
    its first hit at ``tol``.  That hit is reported as a relation lambda_0 +
    sum lambda_i t_i = 0 (index 0 belongs to the constant 1) only if every
    |lambda_i| <= max_coeff and the residual is <= tol^2.  Otherwise the
    component passes, as it does when the search ends without a hit.

    Among 30+ generic arcs there always exist integer combinations that are
    merely *small* (pigeonhole puts them near tol for modest coefficient
    bounds), which is why a hit needs quadratic headroom.  A genuine relation
    evaluates to roundoff at working precision, far below that screen; this
    is why the arcs must carry at least 4x tol's digits.

    A pass is not a proof of independence.  At a screened hit, PSLQ's proven
    lower bound on the norm of any relation, 2^prec / max|H|, is small (1-23
    on the benchmark workloads' components), so relations with every
    |lambda_i| <= max_coeff are not excluded.  Nothing gates on the result;
    ROADMAP item 1 moves the check into the tests.
    """
    needed = required_precision_bits(tol)
    if table.prec_bits < needed:
        raise PrecisionError(
            f"arc table at {table.prec_bits} bits; tolerance {tol} needs >= {needed}"
        )
    with mp.workprec(table.prec_bits):
        genuine = mp.mpf(tol) ** 2
        for ci, passages in enumerate(table.passages):
            vector = [mp.mpf(1)] + [ps.arc for ps in passages]
            # mpmath's maxcoeff cutoff is conservative; search wider, filter after
            relation = mp.pslq(
                vector,
                tol=mp.mpf(tol),
                maxcoeff=max(1000, 100 * max_coeff),
                maxsteps=2000 + 20 * len(vector) ** 2,
            )
            if relation is not None:
                residual = abs(mp.fsum(c * v for c, v in zip(relation, vector)))
                if max(abs(c) for c in relation) <= max_coeff and residual <= genuine:
                    return IndependenceResult(
                        passed=False, component=ci, witness=tuple(relation), residual=residual,
                    )
    return IndependenceResult(passed=True)
