"""Reference oracles for the sawtooth height search.

They share no code with ``billiardknots.heights``.  The brute-force grid scan
tests every phase tuple of the search's phase grid (j / (4 f #constraints)
per component) directly against conditions (a), (b) and (c) in float64, and
walks f-tuples in the reference shell order, a filtered Cartesian product.
The kink sweep (``crossing_phases``) finds condition (a)'s exact phase
intervals piece by piece between the sawtooth kinks, where the search uses
closed-form windows.  ``sequential_own_phases`` intersects a component's
own-crossing windows one by one, with no screen in front, by the same float
expressions as the search.  ``reach_phases`` is the link screen by a kink
sweep: it sorts the window pairs and finds each pair's phases piece by
piece between the sawtooth kinks, where the search takes one closed-form
cyclic window per pair.
``exact_confirm_heights`` evaluates conditions (a)-(c) with every height
at the table's precision, where ``confirm_heights`` decides them in float64
first.  ``sorted_height_constraints`` orders each crossing's two passages
by sorting their (component, arc) pairs, where ``build_height_constraints``
reads the order the star decides in integers.  ``evaluate_sawtooth`` is
the sawtooth at one arc, exact for a Fraction.
"""

import itertools
import math
from fractions import Fraction

import mpmath as mp

from billiardknots.perturbation import to_mpf


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


def evaluate_sawtooth(s, t):
    """z(t) = 2 |frac(f t + phi) - 1/2| for the sawtooth ``s``, valid for
    mpf, Fraction, or float t."""
    if isinstance(t, Fraction):
        y = s.frequency * t + s.phase
        fy = y - (y.numerator // y.denominator)
        return abs(2 * fy - 1)
    if isinstance(t, mp.mpf):
        return _mpf_height(s.frequency, t, to_mpf(s.phase))
    return sawtooth(s.frequency, float(t), float(s.phase))


def sorted_height_constraints(diagram, table):
    """One (crossing, first component, first arc, second component, second
    arc, first over) per crossing of a sign-attached star, in the order of
    ``HeightConstraint``'s fields: a crossing's two passages, gathered from
    the arc table, are ordered by sorting their (component, arc) pairs, and
    a positive sign puts the chord_a passage on top."""
    places = {}
    for ci, passages in enumerate(table.passages):
        for ps in passages:
            places.setdefault(ps.crossing, []).append((ci, ps.arc, ps.is_a_side))
    out = []
    for c in diagram.crossings:
        pair = sorted(places[c.index], key=lambda item: (item[0], item[1]))
        assert len(pair) == 2, f"crossing {c.index} has {len(pair)} passages"
        (c1, a1, on_a1), (c2, a2, _) = pair
        out.append((c.index, c1, a1, c2, a2, on_a1 == (c.sign > 0)))
    return out


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


def intersect_intervals(s1, s2):
    out = []
    i = j = 0
    while i < len(s1) and j < len(s2):
        a = max(s1[i][0], s2[j][0])
        b = min(s1[i][1], s2[j][1])
        if a < b:
            out.append((a, b))
        if s1[i][1] < s2[j][1]:
            i += 1
        else:
            j += 1
    return out


def crossing_phases(f: int, k: int, segs, constraints, fixed, margin: float):
    """Intersect the phase set ``segs`` of component k at frequency f with
    condition (a) of every constraint whose sides lie on k or on a component
    of ``fixed`` (component -> SawtoothHeight), where a side is a constant.

    ``constraints`` holds (constraint, first arc, second arc) with float
    arcs.  Between the kinks of its sides on k a condition is linear in phi,
    so its feasible set is a short list of intervals.  Each piece is sampled
    1e-9 of its width inside its ends, so an interval end may sit about
    2e-9 beyond the true one.
    """
    allowed = [(0.0, 1.0)]  # intersected with the long ``segs`` list last
    for c, t1, t2 in constraints:
        ends = {c.first_component, c.second_component}
        if k not in ends or not ends <= fixed.keys() | {k}:
            continue
        sign = 1.0 if c.first_over else -1.0
        # a side on k moves with phi (None); a side on a fixed component is constant
        z1 = None if c.first_component == k else _fixed_height(fixed[c.first_component], t1)
        z2 = None if c.second_component == k else _fixed_height(fixed[c.second_component], t2)

        def gap(phi):
            h1 = sawtooth(f, t1, phi) if z1 is None else z1
            h2 = sawtooth(f, t2, phi) if z2 is None else z2
            return sign * (h1 - h2)

        kinks = {0.0, 1.0}
        for t, z in ((t1, z1), (t2, z2)):
            if z is None:
                kinks.update(((-f * t) % 1.0, (0.5 - f * t) % 1.0))
        kinks = sorted(kinks)
        good = []
        for a, b in zip(kinks, kinks[1:]):
            width = b - a
            if width < 1e-14:
                continue
            da, db = gap(a + 1e-9 * width), gap(b - 1e-9 * width)
            if da >= margin and db >= margin:
                good.append((a, b))
            elif da >= margin or db >= margin:
                lam = (margin - da) / (db - da)
                x = a + lam * width
                good.append((a, x) if da >= margin else (x, b))
        allowed = intersect_intervals(allowed, good)
        if not allowed:
            return []
    return intersect_intervals(segs, allowed)


def _fixed_height(saw, t: float) -> float:
    return sawtooth(saw.frequency, t, float(saw.phase))


def _cyclic_window(center: float, half: float):
    if half >= 0.5:
        return [(0.0, 1.0)]
    a, b = center - half, center + half
    if a < 0.0:
        return [(0.0, b), (a + 1.0, 1.0)]
    if b > 1.0:
        return [(0.0, b - 1.0), (a, 1.0)]
    return [(a, b)]


def sequential_own_phases(f: int, k: int, constraints, margin: float):
    """The phases of component k at frequency f under condition (a) of its
    own crossings, as sorted disjoint intervals: each crossing's window of
    half-width (1 - margin)/4 around 1/4 - d/2 - f t1 (+ 1/2 when the first
    passage is under), d = f (t2 - t1) mod 1, intersected in constraint
    order, or none as soon as 2 min(d, 1 - d) < margin.  ``constraints``
    holds (constraint, first arc, second arc) with float arcs."""
    half = (1.0 - margin) / 4.0
    allowed = [(0.0, 1.0)]
    for c, t1, t2 in constraints:
        if c.first_component != k or c.second_component != k:
            continue
        d = (f * (t2 - t1)) % 1.0
        centre = (0.25 - d / 2 - f * t1 + (0.0 if c.first_over else 0.5)) % 1.0
        if 2.0 * min(d, 1.0 - d) < margin:
            return []
        allowed = intersect_intervals(allowed, _cyclic_window(centre, half))
        if not allowed:
            return []
    return allowed


# Widening of the screen's half-widths and interval ends, as in the search
SCREEN_SLACK = 1e-8


def reach_phases(f_tuple, k: int, windows, phases, margin: float):
    """The phases of component k, as sorted disjoint intervals, outside
    which ``_fixed_phases`` finds no phase for component k + 1 once
    components 0 .. k-1 are fixed at ``phases``.

    ``windows`` are k + 1's ``_phase_windows``.  Widened by SCREEN_SLACK,
    each has half-width h = ((z or 1 - z) - margin)/2 + SCREEN_SLACK: a
    constant when its fixed side lies before k, and linear in k's phase
    between the kinks (-f t) mod 1 and (1/2 - f t) mod 1 of its arc t when
    it lies on k.  Two cyclic windows meet only if h_i + h_l reaches the
    cyclic distance of their centres (a window meets itself only if h >= 0),
    so each pair allows the phases where that piecewise linear sum does,
    widened by SCREEN_SLACK.  The pairs are taken farthest centres first;
    the first empty intersection ends the screen.
    """
    f = f_tuple[k]
    sides = [
        (t_j, None, centre, below) if j == k
        else (None, sawtooth(f_tuple[j], t_j, phases[j]), centre, below)
        for j, t_j, centre, below in windows
    ]

    def half(side, phi):
        t, z, _, below = side
        if z is None:
            z = sawtooth(f, t, phi)
        return ((z if below else 1.0 - z) - margin) / 2.0 + SCREEN_SLACK

    pairs = []
    for a, b in itertools.combinations_with_replacement(sides, 2):
        d = abs(a[2] - b[2])
        pairs.append((min(d, 1.0 - d), a, b))
    pairs.sort(key=lambda pair: -pair[0])
    allowed = [(0.0, 1.0)]
    for dist, a, b in pairs:
        kinks = {0.0, 1.0}
        for t, z, _, _ in (a, b):
            if z is None:
                kinks.update(((-f * t) % 1.0, (0.5 - f * t) % 1.0))
        kinks = sorted(kinks)
        good = []
        for lo, hi in zip(kinks, kinks[1:]):
            g_lo = half(a, lo) + half(b, lo) - dist
            g_hi = half(a, hi) + half(b, hi) - dist
            if g_lo < 0.0 and g_hi < 0.0:
                continue
            if g_lo < 0.0:
                lo += (hi - lo) * g_lo / (g_lo - g_hi)
            elif g_hi < 0.0:
                hi = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            lo, hi = max(lo - SCREEN_SLACK, 0.0), min(hi + SCREEN_SLACK, 1.0)
            if good and lo <= good[-1][1]:
                good[-1] = (good[-1][0], hi)
            else:
                good.append((lo, hi))
        allowed = intersect_intervals(allowed, good)
        if not allowed:
            return []
    return allowed


def _mpf_height(f: int, t, phi):
    y = f * t + phi
    return abs(2 * (y - mp.floor(y)) - 1)


def exact_confirm_heights(heights, constraints, table, margin) -> bool:
    """Conditions (a)-(c) for ``heights`` on the arc table, every passage
    and wall-vertex height evaluated at the table's precision: each in
    [margin, 1 - margin], and each crossing's passage heights ordered as
    ``constraints`` prescribe, at least ``margin`` apart."""
    with mp.workprec(table.prec_bits):
        low = mp.mpf(margin)
        high = 1 - low
        passage_z = {}
        for comp, saw in enumerate(heights):
            f, phi = saw.frequency, to_mpf(saw.phase)
            for t in table.vertex_arcs[comp]:
                z = _mpf_height(f, t, phi)
                if z < low or z > high:
                    return False
            for ps in table.passages[comp]:
                z = _mpf_height(f, ps.arc, phi)
                if z < low or z > high:
                    return False
                passage_z[comp, ps.arc] = z
        for c in constraints:
            z1 = passage_z[c.first_component, c.first_arc]
            z2 = passage_z[c.second_component, c.second_arc]
            if abs(z1 - z2) < low or (z1 > z2) != c.first_over:
                return False
    return True
