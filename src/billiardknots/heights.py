"""Sawtooth heights: turn the plane diagram into a 3D prism trajectory.

The height function is z(t) = 2 |frac(f t + phi) - 1/2| with an integer
frequency f and a phase phi in [0, 1); it bounces off the prism's floor
(z = 0, at half-integer values of f t + phi) and ceiling (z = 1, at integer
values).  Density of {frac(f t_i + phi)} over Q-independent arcs guarantees
some (f, phi) realizes any prescribed over/under pattern; here that
existence argument is replaced by a finite deterministic search over
exact phase intervals.  ``search_heights`` says in which order frequencies
(shell order for links) and phases are tried.  It walks the shells of
ascending maximum frequency top, computes each component's phase set under
its own crossings and the box once, at f = top, as the shell opens, and
walks only the f-tuples whose every component has such phases.  When it
finds none up to f_max, that walk's counts are the diagnostics
(``SearchDiagnostics``): the frequencies kept per component and the
f-tuples walked.

Each condition below is a sawtooth inequality, and with the heights of the
components fixed earlier it holds for a component's phase on one cyclic
window given in closed form, or off such windows:
  - a crossing with both passages on the component, within (1 - margin)/4
    of a centre, or nowhere when 2 min(d, 1 - d) < margin for
    d = f (t2 - t1) mod 1 (``_own_window``, ``_own_phases``, which first
    checks that the centres fit in an arc of twice that half-width);
  - a crossing with a component fixed at height z, within (z - margin)/2
    of the floor kink (1/2 - f t) mod 1 when the passage at arc t must be
    under, or within (1 - z - margin)/2 of the ceiling kink (-f t) mod 1
    when it must be over (``_phase_windows``, ``_fixed_phases``);
  - the floor and ceiling conditions, off windows of half-width margin/2
    around the kinks (``_box_phases``).
Their intersections are the exact phase sets.  In a link one screen,
``_reach_phases``, picks the phases of a component worth walking: those
under which the next component's windows still meet pair by pair.  Each
pair allows one cyclic window of this component's phase, or none, or all,
in closed form; the pairs come in an order built once per frequency of
the next component (``_pair_order``).

Search conditions, with a uniform ``margin``:
  (a) each crossing's two passage heights differ by at least ``margin``,
      ordered as prescribed;
  (b) wall-vertex heights stay in [margin, 1 - margin];
  (c) no floor/ceiling bounce comes within margin/(2f) in arc length of a
      wall vertex or crossing passage, which is the same as keeping all
      event heights in [margin, 1 - margin].
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import CoincidentEventsError, DomainError, SearchExhaustedError
from .perturbation import PerturbedPolygon, to_mpf
from .stars import ArcTable

DEFAULT_MARGIN = 1e-3
DEFAULT_F_MAX = 10_000
DENOM_BITS = 31  # fallback phase denominators when a window misses the grid


@dataclass(frozen=True)
class SawtoothHeight:
    frequency: int
    phase: Fraction

    def __post_init__(self):
        if self.frequency < 1:
            raise DomainError(f"frequency must be >= 1, got {self.frequency}")
        if not 0 <= self.phase < 1:
            raise DomainError(f"phase must lie in [0, 1), got {self.phase}")


def _sawtooth(f: int, t: float, phi: float) -> float:
    y = f * t + phi
    return abs(2.0 * (y - math.floor(y)) - 1.0)


def _mpf_sawtooth(f: int, t, phi):
    """z(t) for an mpf arc t, with phi already an mpf at the working
    precision: a caller evaluating many arcs converts its phase once."""
    y = f * t + phi
    return abs(2 * (y - mp.floor(y)) - 1)


@dataclass(frozen=True)
class HeightConstraint:
    crossing: int
    first_component: int
    first_arc: object
    second_component: int
    second_arc: object
    first_over: bool


def build_height_constraints(diagram, table: ArcTable) -> tuple[HeightConstraint, ...]:
    """One constraint per crossing from a signed star and an arc table.

    The star decides in integers which passage comes first in (component,
    arc) order (``Crossing.a_side_is_first``), and the passages' arcs are
    looked up by (crossing, side); a positive crossing sign puts the
    chord_a passage on top.
    """
    arc = {(ps.crossing, ps.is_a_side): ps.arc for passages in table.passages for ps in passages}
    return tuple(
        HeightConstraint(
            c.index,
            c.first_component,
            arc[c.index, c.a_side_is_first],
            c.second_component,
            arc[c.index, not c.a_side_is_first],
            c.a_side_is_first == (c.sign > 0),
        )
        for c in diagram.crossings
    )


@dataclass(frozen=True)
class SearchDiagnostics:
    """What an exhausted ``search_heights`` walked: ``kept[k]`` is the
    number of f <= ``f_max`` at which component k's own crossings and the
    box leave a phase, and ``walked`` the number of f-tuples over kept
    frequencies that were tried."""
    f_max: int
    kept: tuple[int, ...]
    walked: int


def _intersect_intervals(s1, s2):
    """The intersection of two lists of sorted disjoint intervals, as one
    such list: a merge that steps past whichever interval ends first."""
    out = []
    i = j = 0
    n1, n2 = len(s1), len(s2)
    while i < n1 and j < n2:
        a1, b1 = s1[i]
        a2, b2 = s2[j]
        if b1 < b2:
            b = b1
            i += 1
        else:
            b = b2
            j += 1
        a = a2 if a2 > a1 else a1
        if a < b:
            out.append((a, b))
    return out


def _cyclic_window(center: float, half: float):
    """The phases within ``half`` of ``center`` on the circle [0, 1), as
    sorted disjoint intervals."""
    if half >= 0.5:
        return [(0.0, 1.0)]
    a, b = center - half, center + half
    if a < 0.0:
        return [(0.0, b), (a + 1.0, 1.0)]
    if b > 1.0:
        return [(0.0, b - 1.0), (a, 1.0)]
    return [(a, b)]


def _box_phases(f: int, arcs, boxes):
    """Phases phi in [0, 1) with z(t_i) in [lo_i, hi_i] for every arc t_i at
    frequency f, as sorted disjoint intervals.

    z leaves [lo, hi] exactly when frac(f t + phi) comes within (1 - hi)/2 of
    0 (a ceiling bounce) or within lo/2 of 1/2 (a floor bounce), so the
    forbidden phases are windows around (-f t) mod 1 and (1/2 - f t) mod 1;
    one sort and one sweep give their complement.
    """
    windows = []
    for t, (lo, hi) in zip(arcs, boxes):
        for center, half in (((-f * t) % 1.0, (1.0 - hi) / 2.0), ((0.5 - f * t) % 1.0, lo / 2.0)):
            if half > 0.0:
                windows += _cyclic_window(center, half)
    windows.sort()
    segs = []
    start = 0.0
    for a, b in windows:
        if a > start:
            segs.append((start, a))
        start = max(start, b)
    if start < 1.0:
        segs.append((start, 1.0))
    return segs


# Widening of the screens in ``_own_phases`` and ``_reach_phases``.  Their
# bounds come from the same closed forms as the exact phase sets, by other
# float operations (offsets between centres, sums of offsets and of
# half-widths), so the two differ by float rounding only, at most of the
# order of f * 2^-52 (2e-12 at f = 10^4); 1e-8 covers that many times over.
_SCREEN_SLACK = 1e-8


def _own_window(f: int, delta: float, t1: float, shift: float):
    """(g, centre) for a crossing with both passages on one component, at
    float arcs t1 (the first passage) and t2 = t1 + delta, with shift 0 when
    the first passage is over and 1/2 when it is under: condition (a) holds
    on no phase when g < margin, and otherwise exactly on the phases within
    (1 - margin)/4 of ``centre``.

    With u = f t1 + phi, d = f (t2 - t1) mod 1 and ||.|| the distance to the
    nearest integer, z = 1 - 2 ||f t + phi|| makes the gap z1 - z2 equal
    2 (||u + d|| - ||u||), a trapezoid in u with plateaus at +-g, g =
    2 min(d, 1 - d), and slopes +-4 in between.  It reaches ``margin``
    only if g does, and then on the u within (1 - margin)/4 of 1/4 - d/2;
    a first passage under shifts the window by 1/2.
    """
    d = (f * delta) % 1.0
    centre = (0.25 - d / 2 - f * t1 + shift) % 1.0
    return 2.0 * min(d, 1.0 - d), centre


def _own_crossings(k: int, constraints):
    """The crossings with both passages on component k, in order, as the
    ``_own_window`` arguments (t2 - t1, t1, shift)."""
    return [(t2 - t1, t1, 0.0 if c.first_over else 0.5)
            for c, t1, t2 in constraints if c.first_component == k == c.second_component]


def _own_phases(f: int, own, margin: float):
    """The phases of a component at frequency f, as sorted disjoint
    intervals, under condition (a) of its own crossings ``own``, the
    component's ``_own_crossings``: the intersection of their
    ``_own_window``s.

    A first pass, with no allocation, takes each g and centre c by
    ``_own_window``'s expressions, inlined, and returns none as soon as g <
    margin or the offsets o = (c - c0 + 1/2) mod 1 from the first centre
    spread over more than 2h + _SCREEN_SLACK, h = (1 - margin)/4.  Windows
    of one half-width h < 1/4 meet iff their centres fit in an arc of
    length 2h, whose offsets do not wrap; the offsets and the window ends
    round the same float centres by a few units of 2^-53.  So the pass is
    exact, and the intersection after it gives the same floats as alone.
    """
    half = (1.0 - margin) / 4.0
    spread = 2.0 * half + _SCREEN_SLACK
    lo = hi = 0.5
    c0 = None
    for delta, t1, shift in own:
        d = (f * delta) % 1.0
        if 2.0 * (d if d < 0.5 else 1.0 - d) < margin:
            return []
        centre = (0.25 - d / 2 - f * t1 + shift) % 1.0
        if c0 is None:
            c0 = centre
        o = (centre - c0 + 0.5) % 1.0
        lo, hi = (o if o < lo else lo), (o if o > hi else hi)
        if hi - lo > spread:
            return []
    allowed = [(0.0, 1.0)]
    for delta, t1, shift in own:
        centre = _own_window(f, delta, t1, shift)[1]
        allowed = _intersect_intervals(allowed, _cyclic_window(centre, half))
        if not allowed:
            return []
    return allowed


def _phase_windows(f: int, k: int, constraints):
    """Condition (a) of every constraint between component k at frequency f
    and a component j < k, as (j, arc on j, window centre, k below).

    With j's height z fixed, k's passage at arc t must lie below z - margin,
    which holds on the phases within (z - margin)/2 of (1/2 - f t) mod 1, or
    above z + margin, which holds within (1 - z - margin)/2 of (-f t) mod 1.
    """
    windows = []
    for c, t1, t2 in constraints:
        if c.first_component == k and c.second_component < k:
            j, t_j, t_k, below = c.second_component, t2, t1, not c.first_over
        elif c.second_component == k and c.first_component < k:
            j, t_j, t_k, below = c.first_component, t1, t2, c.first_over
        else:
            continue
        windows.append((j, t_j, ((0.5 - f * t_k) if below else (-f * t_k)) % 1.0, below))
    return windows


def _fixed_phases(f_tuple, windows, phases, margin: float):
    """The phases of component k, as sorted disjoint intervals, under
    condition (a) of its crossings with components 0 .. k-1, which have the
    frequencies ``f_tuple`` and the phases ``phases``: the intersection of
    k's ``_phase_windows`` ``windows``.  At the fixed height z a window has
    half-width (z - margin)/2 when k passes below and (1 - z - margin)/2
    when it passes above; a negative half-width leaves no phase."""
    allowed = [(0.0, 1.0)]
    for j, t_j, centre, below in windows:
        z = _sawtooth(f_tuple[j], t_j, phases[j])
        half = ((z if below else 1.0 - z) - margin) / 2.0
        if half < 0.0:
            return []
        allowed = _intersect_intervals(allowed, _cyclic_window(centre, half))
        if not allowed:
            return []
    return allowed


def _pair_order(windows):
    """The pairs of ``windows``, one component's ``_phase_windows``, as
    (cyclic distance of their centres, i, l) with indices i <= l into
    ``windows``, farthest first; pairs at one distance keep the order of
    ``itertools.combinations_with_replacement``.

    The order decides only how soon ``_reach_phases`` stops on an empty
    screen: each pair allows a cyclic window, and intersecting windows only
    selects among their ends, so a non-empty screen returns the same floats
    in any order.  Far centres need the widest windows, so their pairs are
    the likeliest to leave nothing."""
    pairs = []
    for (i, a), (l, b) in itertools.combinations_with_replacement(enumerate(windows), 2):
        d = abs(a[2] - b[2])
        pairs.append((min(d, 1.0 - d), i, l))
    pairs.sort(key=lambda pair: -pair[0])
    return pairs


def _reach_phases(f_tuple, windows, order, phases, margin: float):
    """The phases of component k, as sorted disjoint intervals, outside
    which ``_fixed_phases`` finds no phase for component k + 1 once
    components 0 .. k-1 (k = len(phases)) are fixed at the float
    ``phases``.

    ``windows`` are k + 1's ``_phase_windows`` at f_tuple[k + 1] and
    ``order`` their ``_pair_order``.  Widened by _SCREEN_SLACK = s, each
    window has half-width h = ((z or 1 - z) - margin)/2 + s.  Two cyclic
    windows meet only if h_i + h_l reaches the cyclic distance ``dist`` of
    their centres (a window meets itself only if h >= 0), and each pair
    allows the phases of k where it does, as one cyclic window widened by
    s, or none, or all.  With T(y) = |2 frac(y) - 1|:
      - a window whose fixed side lies before k has a constant h;
      - one whose fixed side lies on k, at arc t, has (z or 1 - z) =
        T(phi + a) at k's phase phi, with a = (f_k t + (0 if k + 1 passes
        below, else 1/2)) mod 1;
      - a pair with one constant side h needs T(phi + a) >= r, r =
        2 (dist - h - s) + margin: the phases within (1 - r)/2 of -a;
      - a pair with both sides on k needs T(y) + T(y + d) >= 2 - 2 L, with
        y = phi + a_i, d = (a_l - a_i) mod 1 and L = 1 - dist - margin +
        2 s.  The sum is a trapezoid in y between 2 d' and 2 - 2 d', d' =
        min(d, 1 - d), with slopes +-4 and its upper plateau on the y
        within d'/2 of -d/2 (+ 1/2 when d > 1/2).  So it holds on no phase
        when L < d', on every phase when L >= 1 - d', and otherwise on the
        phi within L/2 of -a_i - d/2 (+ 1/2 when d > 1/2).
    The pairs are taken in ``order``; the first empty intersection ends
    the screen.
    """
    k = len(phases)
    f = f_tuple[k]
    sides = []  # (a, None) for a window on k, (None, h) for one before it
    for j, t_j, _, below in windows:
        if j == k:
            sides.append(((f * t_j + (0.0 if below else 0.5)) % 1.0, None))
        else:
            z = _sawtooth(f_tuple[j], t_j, phases[j])
            sides.append((None, ((z if below else 1.0 - z) - margin) / 2.0 + _SCREEN_SLACK))
    allowed = [(0.0, 1.0)]
    for dist, i, l in order:
        (a, h), (b, g) = sides[i], sides[l]
        if a is None and b is None:
            if h + g - dist < 0.0:
                return []
            continue  # the pair allows every phase
        if a is None or b is None:
            a, h = (b, h) if a is None else (a, g)
            half = 0.5 - dist + h + _SCREEN_SLACK - margin / 2.0  # (1 - r)/2
            if half < 0.0:
                return []
            window = _cyclic_window(-a % 1.0, half + _SCREEN_SLACK)
        else:
            d = (b - a) % 1.0
            near = d if d < 0.5 else 1.0 - d
            reach = 1.0 - dist - margin + 2.0 * _SCREEN_SLACK
            if reach < near:
                return []
            if reach >= 1.0 - near:
                continue  # the pair allows every phase
            centre = (-a - d / 2.0 + (0.5 if d > 0.5 else 0.0)) % 1.0
            window = _cyclic_window(centre, reach / 2.0 + _SCREEN_SLACK)
        allowed = _intersect_intervals(allowed, window)
        if not allowed:
            return []
    return allowed


def _interval_phases(lo: float, hi: float, n_grid: int) -> list[Fraction]:
    """Candidate phases of the interval [lo, hi): its first point j/n_grid of
    the phase grid, then its midpoint on the 2^-DENOM_BITS grid (the only
    candidate when the interval is narrower than the grid step)."""
    j = math.ceil(lo * n_grid)
    candidates = [Fraction(j, n_grid)] if j / n_grid < hi else []
    mid = Fraction(round(((lo + hi) / 2) * (1 << DENOM_BITS)), 1 << DENOM_BITS)
    if mid not in candidates:
        candidates.append(mid)
    return [phi for phi in candidates if 0 <= phi < 1]


def _confirm_at_precision(heights, constraints, table: ArcTable, margin) -> bool:
    """Conditions (a)-(c) for ``heights`` on the exact closed form, every
    height evaluated at the table's precision."""
    with mp.workprec(table.prec_bits):
        low = mp.mpf(margin)
        high = 1 - low
        passage_z = {}
        for comp, saw in enumerate(heights):
            f, phi = saw.frequency, to_mpf(saw.phase)
            for t in table.vertex_arcs[comp]:
                z = _mpf_sawtooth(f, t, phi)
                if z < low or z > high:
                    return False
            for ps in table.passages[comp]:
                z = _mpf_sawtooth(f, ps.arc, phi)
                if z < low or z > high:
                    return False
                passage_z[comp, ps.arc] = z
        for c in constraints:
            z1 = passage_z[c.first_component, c.first_arc]
            z2 = passage_z[c.second_component, c.second_arc]
            if abs(z1 - z2) < low or (z1 > z2) != c.first_over:
                return False
    return True


def confirm_heights(heights: tuple[SawtoothHeight, ...], constraints, table: ArcTable, margin) -> bool:
    """Conditions (a)-(c) for ``heights`` on the exact closed form, at the
    table's precision: every passage and wall-vertex height in [margin,
    1 - margin], and each crossing's passage heights ordered as
    ``constraints`` prescribe, at least ``margin`` apart.  The search runs
    it on every float-screened candidate, and ``verify`` on the stored
    heights.

    Every condition is first decided in float64, from the float arcs and
    phase; only when some condition lies within its bound of its limit and
    none is decided false are all of them evaluated at the table's
    precision (``_confirm_at_precision``, each passage height once).  The
    result is that evaluation's, at any precision p: with u = 2^-53, a
    float height at frequency f and the working-precision one are within
    b = (6f + 16) u + (4f + 16) 2^-p.
      - z(t) = |2 frac(y) - 1| with y = f t + phi is 2-Lipschitz in y
        (it is continuous at the integers), and y - floor(y), twice it and
        the absolute value are exact in either evaluation, so only the
        roundings of y and of the final subtraction of 1 count;
      - in float64, t (an mpf arc below 1) and phi are rounded once, off
        by at most u each, f t' (exact f, below 2^46) by f u more, and the
        sum, at most f + 1, by (f + 1) u: y is within (3f + 2) u of
        f t + phi, and z within (6f + 5) u;
      - at the working precision phi is rounded once and f t and the sum
        round once each, so y is off by at most (2f + 2) 2^-p, and z by
        (4f + 5) 2^-p;
      - the limits round too: margin is rounded once to float (exact for
        a float) and to mpf (exact at p >= 53), and 1 - margin rounds once
        in each; so do the float sums that place a limit, the differences
        z1 - z2 (one rounding in each evaluation) and the sum of two
        bounds, each by at most u or 2^-p.  The remaining 11 u + 11 2^-p
        covers them.
    So a height is decided inside [margin, 1 - margin] when its float value
    is more than b inside both limits, and outside when it is more than b
    outside one; a crossing with signed gap g = +-(z1 - z2) (+ when the
    first passage is over) holds when g - margin > b1 + b2 and fails when
    g - margin < -(b1 + b2).  A condition decided false decides the
    result.  At f = 1,000 the bound is about 7e-13.  A frequency of 2^46
    or more, which no emitted trajectory has (``component_events``), goes
    straight to the working precision.
    """
    if any(saw.frequency >= 2 ** 46 for saw in heights):
        return _confirm_at_precision(heights, constraints, table, margin)
    low = float(margin)
    high = 1.0 - low
    undecided = False
    passage_z = {}
    for comp, saw in enumerate(heights):
        f, phi = saw.frequency, float(saw.phase)
        b = (6 * f + 16) * 2.0 ** -53 + (4 * f + 16) * 2.0 ** -table.prec_bits
        inner_low, inner_high = low + b, high - b
        passages = table.passages[comp]
        walls = [_sawtooth(f, float(t), phi) for t in table.vertex_arcs[comp]]
        crossings = [_sawtooth(f, float(ps.arc), phi) for ps in passages]
        for z in itertools.chain(walls, crossings):
            if not inner_low < z < inner_high:
                if z < low - b or z > high + b:
                    return False
                undecided = True
        passage_z.update(((comp, ps.arc), (z, b)) for ps, z in zip(passages, crossings))
    for c in constraints:
        z1, b1 = passage_z[c.first_component, c.first_arc]
        z2, b2 = passage_z[c.second_component, c.second_arc]
        slack = (z1 - z2 if c.first_over else z2 - z1) - low
        if not slack > b1 + b2:
            if slack < -(b1 + b2):
                return False
            undecided = True
    return _confirm_at_precision(heights, constraints, table, margin) if undecided else True


def search_heights(
    constraints,
    table: ArcTable,
    f_max: int = DEFAULT_F_MAX,
    margin: float = DEFAULT_MARGIN,
) -> tuple[SawtoothHeight, ...]:
    """Smallest sawtooth per component satisfying (a), (b), (c).

    The components are searched jointly over frequency tuples in shell
    order (ascending maximum, lexicographic within each shell).  A star
    has no uncoupled components to split off: chords c and c + 1 always
    cross, which chains every component to every other.  At each
    tuple the components are fixed in turn from their exact feasible phase
    intervals given the ones already fixed: each but the last tries the
    grid points j / (4 f #constraints) inside its intervals, and the last
    takes, per interval, its first grid point or else its midpoint rounded
    to 2^-31, so no feasible interval of the last component is missed.
    Every accepted candidate is confirmed at the table's precision.

    The exact phase sets are intersections of closed-form windows (see
    the module docstring).  The walk goes shell by shell.  When shell top
    opens, each component k's set under its own crossings and the box is
    built at f = top, once per (k, f); a non-empty one is kept with k's
    ``_phase_windows`` at top.  A shell in which no component gained a
    set is skipped, and otherwise only the tuples over kept frequencies
    are walked (``_shell``).  At a tuple, k's set is its kept one cut by
    the windows of its crossings with the fixed components 0 .. k-1.  One
    screen skips only phases whose exact set downstream is empty, so the
    result is the same as without it: before component k walks its grid
    points, the phases of k under which k + 1's windows still meet pair by
    pair are found as intervals (``_reach_phases``), and only the grid
    points inside them are walked.  The pairs of k + 1's windows, farthest
    centres first (``_pair_order``), are built once per (k + 1, f), with
    k + 1's kept set; per grid prefix of 0 .. k-1 the screen evaluates the
    constant half-widths of the windows on earlier components and one
    closed-form window per pair.  The walked grid phases are carried as
    floats for the phase sets and the screen, and as Fractions for the
    heights.

    Raises SearchExhaustedError when f_max is hit, with the walk's own
    counts as diagnostics: the frequencies kept per component and the
    f-tuples walked.
    """
    if not 0 < margin < 0.5:  # NaN fails this too
        raise DomainError(f"margin must lie in (0, 0.5), got {margin}")
    if f_max < 1:
        raise DomainError(f"f_max must be >= 1, got {f_max}")
    n_comp = table.component_count()
    event_arcs = {
        ci: [float(t) for t in table.vertex_arcs[ci]] + [float(ps.arc) for ps in table.passages[ci]]
        for ci in range(n_comp)
    }
    box = (margin, 1.0 - margin)
    arcs = [(c, float(c.first_arc), float(c.second_arc)) for c in constraints]
    n_grid = 4 * max(1, len(constraints))
    own_crossings = [_own_crossings(k, arcs) for k in range(n_comp)]
    # per component, f -> (its phases under the box and its own crossings,
    # its _phase_windows, their _pair_order), for the f so far whose phases
    # are non-empty
    own = [{} for _ in range(n_comp)]

    def assign(f_tuple, phases, grid):
        """The first confirmed heights at ``f_tuple`` whose components
        0 .. k-1 have the phases ``grid``, as Fractions, and ``phases``, the
        same as floats (k = len(phases)), or None."""
        k = len(phases)
        f = f_tuple[k]
        n = n_grid * f
        segs, windows, _ = own[k][f]
        if k:
            segs = _intersect_intervals(segs, _fixed_phases(f_tuple, windows, phases, margin))
        if k == n_comp - 1:
            for lo, hi in segs:
                for phi in _interval_phases(lo, hi, n):
                    heights = tuple(map(SawtoothHeight, f_tuple, (*grid, phi)))
                    if confirm_heights(heights, constraints, table, margin):
                        return heights
            return None
        if segs:
            _, after, order = own[k + 1][f_tuple[k + 1]]
            segs = _intersect_intervals(segs, _reach_phases(f_tuple, after, order, phases, margin))
        for lo, hi in segs:
            for j in range(math.ceil(lo * n), math.ceil(hi * n)):
                heights = assign(f_tuple, (*phases, j / n), (*grid, Fraction(j, n)))
                if heights:
                    return heights
        return None

    walked = 0
    try:
        for top in range(1, f_max + 1):
            gained = False
            for k in range(n_comp):
                segs = _own_phases(top, own_crossings[k], margin)
                if segs:
                    segs = _intersect_intervals(_box_phases(top, event_arcs[k], itertools.repeat(box)), segs)
                if segs:
                    windows = _phase_windows(top, k, arcs)
                    own[k][top] = segs, windows, _pair_order(windows)
                    gained = True
            if gained:
                for f_tuple in _shell(own, top):
                    walked += 1
                    found = assign(f_tuple, (), ())
                    if found:
                        return found
    finally:
        # assign reaches itself through its closure; unbinding it frees the
        # phase sets and pair orders on return, not at the next garbage
        # collection
        del assign
    raise SearchExhaustedError(
        f"no sawtooth parameters with f <= {f_max} satisfy all "
        f"{len(constraints)} constraints of {n_comp} components",
        diagnostics=SearchDiagnostics(f_max, tuple(map(len, own)), walked),
    )


def _shell(choices, top: int):
    """The tuples with maximum top whose entry k lies in ``choices[k]``, an
    ascending collection of frequencies up to top, in lexicographic order.

    Shells of ascending top make up shell order.  Plain lexicographic order
    would sweep the last component all the way to f_max before touching the
    others, which is unusable at the default f_max; shell order reaches
    every tuple with small maximum first and the accepted solution is still
    deterministic.
    """
    first, *rest = choices
    if not rest:
        if top in first:
            yield (top,)
        return
    for f in first:
        tails = itertools.product(*rest) if f == top else _shell(rest, top)
        for tail in tails:
            yield (f, *tail)


# One letter per event in ``TrajComponent.kinds``, and the event it names.
WALL, FLOOR, CEILING = "w", "f", "c"
KIND_NAMES = {WALL: "wall", FLOOR: "floor", CEILING: "ceiling"}


@dataclass(frozen=True)
class TrajComponent:
    """One component's events in arc order, as columns.  ``kinds`` has one
    letter per event (``w`` wall, ``f`` floor, ``c`` ceiling), and ``arc``,
    ``x``, ``y`` and ``z`` one float per event.  Wall event k is the bounce
    at the component's vertex k, so its mirror is the one through that
    vertex."""
    sawtooth: SawtoothHeight
    kinds: str
    arc: list
    x: list
    y: list
    z: list

    @property
    def points(self) -> list:
        """The (x, y, z) triples, one per event."""
        return list(zip(self.x, self.y, self.z))


@dataclass(frozen=True)
class SpatialTrajectory:
    components: tuple[TrajComponent, ...]
    poly: PerturbedPolygon


# Least arc gap between consecutive events of the float walk.  Each float
# arc is within 4 * 2^-53 of its exact value, so events further apart than
# this come in the exact order, and a planar segment holding an extremum
# spans more than this in arc.
EVENT_GAP = 2.0 ** -48


def _float_heights(saw: SawtoothHeight, arcs) -> list[float]:
    """z at each mpf arc, at the working precision plus the bits of f, rounded
    once to float: the error of f t then stays below 2^-53 whatever f is."""
    f = saw.frequency
    with mp.workprec(mp.mp.prec + f.bit_length()):
        phi = to_mpf(saw.phase)
        return [float(_mpf_sawtooth(f, t, phi)) for t in arcs]


def component_events(vertices, vertex_arcs, saw: SawtoothHeight) -> TrajComponent:
    """One component's events in arc order, as the columns of a TrajComponent.

    Wall vertex i sits at arc ``vertex_arcs[i]`` and height z(arc); the 2f
    sawtooth extrema sit at arcs (h/2 - phi)/f in [0, 1), at height 1
    (ceiling, integer h) or 0 (floor), on the planar segment whose arc
    interval holds them.  The walk goes segment by segment, each segment's
    extrema a slice of the sorted extremum arcs, so it is linear in m + 2f.

    The walk runs in float64.  Vertices, vertex arcs and phi are rounded to
    float once, and the extremum arcs and their points are computed in
    float.  The m wall heights are evaluated at the caller's working
    precision plus the bits of f and rounded once.  So every arc, point
    and height is within ``billiards.walk_error_bound`` of the exact path,
    however large f is.  Raises CoincidentEventsError when two consecutive
    events come within EVENT_GAP in arc (the closing wall sits at arc 1).
    Consecutive extrema are 1/(2f) apart up to 4 units of 2^-53, more than
    EVENT_GAP for f below 2^46, so only the first extremum after each wall
    is tested against the event before it.
    """
    m = len(vertices)
    f = saw.frequency
    if not f < 2 ** 46:
        raise CoincidentEventsError("consecutive bounces within EVENT_GAP; frequency too large")
    phi = float(saw.phase)
    verts = [(float(x), float(y)) for x, y in vertices]
    arcs = [float(t) for t in vertex_arcs] + [1.0]
    wall_z = _float_heights(saw, vertex_arcs)
    h0 = math.ceil(2 * phi)  # the first extremum at an arc >= 0
    # each rounding is monotone, so the extremum arcs are sorted
    extrema = [(h / 2 - phi) / f for h in range(h0, h0 + 2 * f)]
    extremum_kinds = (CEILING + FLOOR if h0 % 2 == 0 else FLOOR + CEILING) * f
    extremum_z = [1.0, 0.0] * f if h0 % 2 == 0 else [0.0, 1.0] * f
    kinds, arc, x, y, z = [], [], [], [], []
    previous = -1.0
    lo = 0
    for i in range(m):
        start, end = arcs[i], arcs[i + 1]
        if not start - previous > EVENT_GAP:
            raise CoincidentEventsError(f"wall vertex {i} coincides with a bounce; margin too small")
        hi = bisect.bisect_left(extrema, end, lo)
        seg = extrema[lo:hi]
        if seg and not seg[0] - start > EVENT_GAP:
            raise CoincidentEventsError("coincident trajectory events; margin too small")
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % m]
        span, dx, dy = end - start, x1 - x0, y1 - y0
        lam = [(t - start) / span for t in seg]
        kinds += WALL, extremum_kinds[lo:hi]
        arc.append(start)
        arc += seg
        x.append(x0)
        x += [x0 + c * dx for c in lam]
        y.append(y0)
        y += [y0 + c * dy for c in lam]
        z.append(wall_z[i])
        z += extremum_z[lo:hi]
        previous = seg[-1] if seg else start
        lo = hi
    if lo < len(extrema) or not 1.0 - previous > EVENT_GAP:
        raise CoincidentEventsError("a bounce coincides with wall vertex 0; margin too small")
    return TrajComponent(saw, "".join(kinds), arc, x, y, z)


def emit_trajectory(poly: PerturbedPolygon, heights, table: ArcTable) -> SpatialTrajectory:
    """Assemble the closed 3D polyline: wall vertices at sawtooth heights,
    floor/ceiling bounce points inserted at the sawtooth extrema (the
    events of ``component_events``).

    ``table`` is the arc table of ``poly``.  Points and arcs are floats.
    Only the wall heights are evaluated at the arc table's precision (plus
    the bits of f), as ``verify_reflection`` regenerates them: O(m) work;
    the 2f bounces cost float arithmetic.  ``realize`` checks only the
    columns' shape and the walk's error bound (``billiards.check_walk``):
    regenerating them there would repeat this call.  ``verify`` and the
    tests compare them with the closed form.  No passage height is evaluated:
    the star's signs fix each crossing's over/under, and ``confirm_heights``
    has proven that the heights realize them.  Projecting the result to
    the floor recovers the polygon to float rounding; between consecutive
    events both the planar position and the height are linear in arc
    length, so straight 3D segments represent the trajectory.
    """
    if len(heights) != len(poly.components):
        raise DomainError("one sawtooth per component required")
    with mp.workprec(table.prec_bits):
        components = tuple(
            component_events(comp.vertices, v_arcs, saw)
            for comp, saw, v_arcs in zip(poly.components, heights, table.vertex_arcs)
        )
    return SpatialTrajectory(components, poly)
