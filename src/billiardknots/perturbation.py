"""Symmetry breaking: replace star chords by nearby rational lines.

Every supporting line becomes y = a x + b with (a, b) exact rationals drawn
within delta of the star chord's slope and intercept (denominators bounded
by 2^31).  Vertices and crossing abscissas are then exact rationals:

    x_{i,j} = (b_i - b_j) / (a_j - a_i)

and only lengths and arc parameters are inexact, computed at a configurable
binary precision:

    l_{i,j} = sqrt(1 + a_i^2) * (x_{i,j} - x_{i-1,i})
    t_{i,j} = |l_{0,1}| + ... + |l_{i-1,i}| + |l_{i,j}|

The perturbed polygon must be combinatorially equivalent to the star (same
crossing pairs, same crossing order along every segment); the perturbation
is redrawn with halved delta until that holds.

Heuristic Q-independence of {1, t_i} is checked per component by
mpmath's PSLQ at tolerance tol.  The check takes the search's first hit; it
reports that hit as a relation only if its coefficients are at most
``max_coeff`` and its residual at most tol^2.  The component passes when
the hit fails that screen and when the search ends without a hit.
The check is not a pipeline stage: ``RealizationResult.independence`` runs
it on demand, on arcs of its own at the precision tol needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_rational, round_nearest

from .errors import CombinatorialCollapseError, DomainError, PrecisionError
from .stars import ArcTable, Passage, StarDiagram, sorted_passages

DENOMINATOR_BITS = 31
MAX_HALVINGS = 60


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
    delta: Fraction            # the accepted (possibly halved) perturbation size
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
    with mp.workprec(star.prec_bits):
        for va, vb in star.chords:
            (x1, y1), (x2, y2) = star.vertices[va], star.vertices[vb]
            if x2 == x1:
                raise DomainError("vertical chord survived the pre-rotation")
            a = (y2 - y1) / (x2 - x1)
            slopes.append(a)
            intercepts.append(y1 - a * x1)
    return slopes, intercepts


def _star_segment_orders(star: StarDiagram) -> dict[int, list[int]]:
    """Crossing ids in passage order along every chord of the star."""
    on_chord: dict[int, list[tuple]] = {c: [] for c in range(star.p)}
    for c in star.crossings:
        arc_a = c.first_arc if c.a_side_is_first else c.second_arc
        arc_b = c.second_arc if c.a_side_is_first else c.first_arc
        on_chord[c.chord_a].append((arc_a, c.index))
        on_chord[c.chord_b].append((arc_b, c.index))
    return {ch: [idx for _, idx in sorted(items)] for ch, items in on_chord.items()}


def _rational_near(value, delta: Fraction, draw: float) -> Fraction:
    """A denominator-bounded rational within delta of ``value`` (mpf)."""
    shifted = value + mp.mpf(draw) * mp.mpf(delta.numerator) / delta.denominator
    scale = 1 << DENOMINATOR_BITS
    return Fraction(int(mp.nint(shifted * scale)), scale)


def layout_from_lines(star: StarDiagram, lines: list[tuple[Fraction, Fraction]]):
    """Polygon components and crossings cut out by one line per chord of the
    star, or None when their combinatorics differ from the star's, as when
    two consecutive lines of a component are parallel and have no corner."""
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
        components.append(PolyComponent(tuple(chain), comp_lines, vertices))
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
        crossings.append(PolyCrossing(c.index, pa, pb, point))

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
    star_orders = _star_segment_orders(star)
    by_place: dict[tuple[int, int], list[tuple]] = {}
    for pc in crossings:
        for place in (pc.a_place, pc.b_place):
            by_place.setdefault(place, []).append((pc.point[0], pc.index))
    for place, items in by_place.items():
        ci, i = place
        comp = components[ci]
        forward = comp.vertices[(i + 1) % len(comp.vertices)][0] > comp.vertices[i][0]
        items.sort(key=lambda pair: pair[0], reverse=not forward)
        xs = [x for x, _ in items]
        if len(set(xs)) != len(xs):
            return None
        if [idx for _, idx in items] != star_orders[comp.chord_ids[i]]:
            return None

    return tuple(components), tuple(crossings)


def perturb(
    star: StarDiagram,
    delta: Fraction,
    seed: int,
    _draw_override=None,
) -> PerturbedPolygon:
    """Draw rational lines near the star chords, preserving the combinatorics.

    Deterministic in (star, delta, seed).  On combinatorial failure the
    magnitude is halved and redrawn, up to 60 times.  ``_draw_override`` is a
    test seam: a callable replacing the uniform draw in (-1, 1).
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    delta = Fraction(delta)
    slopes, intercepts = _star_chord_geometry(star)

    with mp.workprec(star.prec_bits):
        for halving in range(MAX_HALVINGS + 1):
            current = delta / (1 << halving)
            rng = random.Random(seed * 1_000_003 + halving)
            draw = _draw_override if _draw_override is not None else (lambda: rng.uniform(-1.0, 1.0))
            lines = []
            for k in range(star.p):
                a = _rational_near(slopes[k], current, draw())
                b = _rational_near(intercepts[k], current, draw())
                lines.append((a, b))
            if len({a for a, _ in lines}) != star.p:
                continue
            layout = layout_from_lines(star, lines)
            if layout is not None:
                return PerturbedPolygon(star, current, *layout)
    raise CombinatorialCollapseError(
        f"no delta in [{delta}/2^{MAX_HALVINGS}, {delta}] preserved the star combinatorics"
    )


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
    ROADMAP item 9 moves the check into the tests.
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
