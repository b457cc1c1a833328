import itertools
import math
import random
from dataclasses import astuple, replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from billiardknots.billiards import verify_reflection
from billiardknots.braids import QuasitoricPattern, pad_to_min_repetitions, toric_pattern
from billiardknots.errors import CoincidentEventsError, DomainError, SearchExhaustedError
from billiardknots import heights as heights_module
from billiardknots.heights import (
    DEFAULT_MARGIN,
    KIND_NAMES,
    HeightConstraint,
    SawtoothHeight,
    SearchDiagnostics,
    _box_phases,
    _cyclic_window,
    _fixed_phases,
    _intersect_intervals,
    _own_crossings,
    _own_phases,
    _own_window,
    _pair_order,
    _phase_windows,
    _reach_phases,
    _shell,
    build_height_constraints,
    confirm_heights,
    emit_trajectory,
    search_heights,
)
from billiardknots.perturbation import arc_length_table, to_mpf
from billiardknots.pipeline import RealizationSpec, perturb_stage, realize
from billiardknots.presets import PRESETS
from billiardknots.stars import ArcTable, Passage, build_star

from height_oracles import (
    accepted_phases,
    crossing_phases,
    evaluate_sawtooth,
    exact_confirm_heights,
    first_hit,
    SCREEN_SLACK,
    reach_phases,
    sawtooth,
    sequential_own_phases,
    shell_order,
    sorted_height_constraints,
)
from obstruction_helpers import height_pattern_feasible, signed_residue
from reflection_oracle import pointwise_reflection


def test_sawtooth_anchor_values():
    # phi = 1/2 + z0/2 makes z(0) = z0
    assert evaluate_sawtooth(SawtoothHeight(1, Fraction(1, 2)), Fraction(0)) == 0
    assert evaluate_sawtooth(SawtoothHeight(1, Fraction(3, 4)), Fraction(0)) == Fraction(1, 2)
    assert evaluate_sawtooth(SawtoothHeight(1, Fraction(0)), Fraction(1, 4)) == Fraction(1, 2)
    assert evaluate_sawtooth(SawtoothHeight(3, Fraction(7, 10)), Fraction(0)) == Fraction(2, 5)


def test_sawtooth_range_and_slope():
    s = SawtoothHeight(4, Fraction(1, 7))
    ts = [Fraction(i, 997) for i in range(997)]
    values = [evaluate_sawtooth(s, t) for t in ts]
    assert all(0 <= v <= 1 for v in values)
    # piecewise slope is +-2f away from the kinks
    for t1, t2 in zip(ts, ts[1:]):
        v1, v2 = evaluate_sawtooth(s, t1), evaluate_sawtooth(s, t2)
        slope = (v2 - v1) / (t2 - t1)
        assert abs(slope) <= 2 * s.frequency + Fraction(1, 10**6)


def test_sawtooth_validation():
    with pytest.raises(DomainError):
        SawtoothHeight(0, Fraction(0))
    with pytest.raises(DomainError):
        SawtoothHeight(1, Fraction(3, 2))


def _table_from_arcs(arcs, vertex_arcs=(0.013,), prec_bits=256):
    with mp.workprec(prec_bits):
        passages = tuple(Passage(i, mp.mpf(repr(a)), True) for i, a in enumerate(arcs))
        verts = tuple(mp.mpf(repr(v)) for v in vertex_arcs)
    return ArcTable(
        prec_bits=prec_bits,
        passages=(passages,),
        vertex_arcs=(verts,),
        total_lengths=(mp.mpf(1),),
    )


def test_search_single_crossing_first_over():
    table = _table_from_arcs([0.2, 0.7])
    con = HeightConstraint(0, 0, table.passages[0][0].arc, 0, table.passages[0][1].arc, True)
    (saw,) = search_heights((con,), table, f_max=50, margin=1e-3)
    z1 = evaluate_sawtooth(saw, con.first_arc)
    z2 = evaluate_sawtooth(saw, con.second_arc)
    assert z1 > z2 and float(z1 - z2) >= 1e-3
    # direct check of the textbook solution f=1, phi=0
    hand = SawtoothHeight(1, Fraction(0))
    assert float(evaluate_sawtooth(hand, mp.mpf("0.2"))) == pytest.approx(0.6)
    assert float(evaluate_sawtooth(hand, mp.mpf("0.7"))) == pytest.approx(0.4)


def test_search_single_crossing_first_under():
    table = _table_from_arcs([0.2, 0.7])
    con = HeightConstraint(0, 0, table.passages[0][0].arc, 0, table.passages[0][1].arc, False)
    (saw,) = search_heights((con,), table, f_max=50, margin=1e-3)
    z1 = evaluate_sawtooth(saw, con.first_arc)
    z2 = evaluate_sawtooth(saw, con.second_arc)
    assert z2 > z1
    hand = SawtoothHeight(1, Fraction(1, 2))
    assert float(evaluate_sawtooth(hand, mp.mpf("0.2"))) == pytest.approx(0.4)
    assert float(evaluate_sawtooth(hand, mp.mpf("0.7"))) == pytest.approx(0.6)


def _pentagram_setup(seed=42):
    star = build_star(toric_pattern(2, 5), prec_bits=192)
    poly = perturb_stage(star, Fraction(1, 1000), seed)[0]
    table = arc_length_table(poly, 256)
    return star, poly, table


def _random_signed_pattern(rng) -> QuasitoricPattern:
    strands, repetitions = rng.randint(2, 5), rng.randint(1, 12)
    signs = tuple(tuple(rng.choice((1, -1)) for _ in range(strands - 1)) for _ in range(repetitions))
    return QuasitoricPattern(strands, repetitions, signs)


def test_constraints_take_the_passage_order_the_star_decides():
    """Reading each crossing's first passage from the star, decided in
    integers, gives the constraints that sorting its two (component, arc)
    pairs gives, on every preset and on seeded random patterns of 2 to 5
    strands, knots and links."""
    rng = random.Random(20261019)
    patterns = [PRESETS[name] for name in sorted(PRESETS)]
    patterns += [_random_signed_pattern(rng) for _ in range(40)]
    components = set()
    for seed, pattern in enumerate(patterns):
        padded = pad_to_min_repetitions(pattern)
        star = build_star(padded, 192)
        table = arc_length_table(perturb_stage(star, Fraction(1, 1000), seed)[0], 192)
        constraints = build_height_constraints(star, table)
        assert [astuple(c) for c in constraints] == sorted_height_constraints(star, table)
        components.add(table.component_count())
    assert components >= {1, 2, 3}


def test_pentagram_search_small_frequency():
    star, poly, table = _pentagram_setup()
    constraints = build_height_constraints(star, table)
    assert len(constraints) == 5
    heights = search_heights(constraints, table, f_max=200, margin=1e-3)
    assert heights[0].frequency <= 200
    for c in constraints:
        z1 = evaluate_sawtooth(heights[c.first_component], c.first_arc)
        z2 = evaluate_sawtooth(heights[c.second_component], c.second_arc)
        assert (z1 > z2) == c.first_over
        assert float(abs(z1 - z2)) >= 1e-3


def test_search_exhaustion_diagnostics():
    table = _table_from_arcs([0.2, 0.45, 0.7])
    # contradictory pair on the same arcs cannot be satisfied
    cons = (
        HeightConstraint(0, 0, table.passages[0][0].arc, 0, table.passages[0][2].arc, True),
        HeightConstraint(1, 0, table.passages[0][0].arc, 0, table.passages[0][2].arc, False),
    )
    with pytest.raises(SearchExhaustedError) as err:
        search_heights(cons, table, f_max=12, margin=1e-3)
    # the two windows of the one component's own crossings never meet, so
    # no frequency is kept and no f-tuple is walked
    assert err.value.diagnostics == SearchDiagnostics(f_max=12, kept=(0,), walked=0)


def test_search_margin_validation():
    table = _table_from_arcs([0.2, 0.7])
    for margin in (0.7, 0.0, float("nan")):
        with pytest.raises(DomainError):
            search_heights((), table, f_max=5, margin=margin)


def _two_component_table(prec_bits=256):
    with mp.workprec(prec_bits):
        p0 = (Passage(0, mp.mpf("0.23"), True), Passage(1, mp.mpf("0.61"), True))
        p1 = (Passage(0, mp.mpf("0.37"), False), Passage(1, mp.mpf("0.79"), False))
        verts = ((mp.mpf("0.05"),), (mp.mpf("0.11"),))
    return ArcTable(
        prec_bits=prec_bits,
        passages=(p0, p1),
        vertex_arcs=verts,
        total_lengths=(mp.mpf(1), mp.mpf(1)),
    )


def test_joint_search_couples_components():
    table = _two_component_table()
    cons = (
        HeightConstraint(0, 0, table.passages[0][0].arc, 1, table.passages[1][0].arc, True),
        HeightConstraint(1, 0, table.passages[0][1].arc, 1, table.passages[1][1].arc, False),
    )
    heights = search_heights(cons, table, f_max=20, margin=1e-3)
    assert len(heights) == 2
    for c in cons:
        z1 = evaluate_sawtooth(heights[c.first_component], c.first_arc)
        z2 = evaluate_sawtooth(heights[c.second_component], c.second_arc)
        assert (z1 > z2) == c.first_over


def test_joint_search_exhaustion_diagnostics():
    table = _two_component_table()
    # both constraints on the same two passages with opposite orders
    cons = (
        HeightConstraint(0, 0, table.passages[0][0].arc, 1, table.passages[1][0].arc, True),
        HeightConstraint(1, 0, table.passages[0][0].arc, 1, table.passages[1][0].arc, False),
    )
    with pytest.raises(SearchExhaustedError) as err:
        search_heights(cons, table, f_max=4, margin=1e-3)
    # neither component has a crossing of its own, so the box keeps every
    # frequency and all 4 x 4 f-tuples fail between the components
    assert err.value.diagnostics == SearchDiagnostics(f_max=4, kept=(4, 4), walked=16)


def _random_arc_table(rng, n_components, n_crossings, prec_bits=256, arc=None):
    """Crossings on random arcs (``arc()``, by default ``rng.random()``);
    crossing 0 couples the first and the last component."""
    arc = arc or rng.random
    ends = [(0, n_components - 1)] + [
        (rng.randrange(n_components), rng.randrange(n_components)) for _ in range(n_crossings - 1)
    ]
    passages = [[] for _ in range(n_components)]
    constraints = []
    with mp.workprec(prec_bits):
        for i, (c1, c2) in enumerate(ends):
            t1, t2 = mp.mpf(arc()), mp.mpf(arc())
            passages[c1].append(Passage(i, t1, True))
            passages[c2].append(Passage(i, t2, False))
            constraints.append(HeightConstraint(i, c1, t1, c2, t2, rng.random() < 0.5))
        vertex_arcs = tuple((mp.mpf(rng.random()),) for _ in range(n_components))
    table = ArcTable(
        prec_bits=prec_bits,
        passages=tuple(tuple(sorted(ps, key=lambda p: p.arc)) for ps in passages),
        vertex_arcs=vertex_arcs,
        total_lengths=(mp.mpf(1),) * n_components,
    )
    return table, tuple(constraints)


@pytest.mark.parametrize("n_components", [1, 2])
def test_phase_engine_against_grid_oracle(n_components):
    """Every grid phase the brute-force oracle accepts lies in the engine's
    exact intervals, and the search stops no later in shell order than the
    oracle's first hit."""
    margin, f_max, slack = 0.05, 6, 1e-9
    rng = random.Random(20261018 + n_components)
    hits = 0
    for _ in range(8):
        table, cons = _random_arc_table(rng, n_components, rng.randint(3, 7 - n_components))
        event_arcs = [
            [float(t) for t in table.vertex_arcs[ci]] + [float(ps.arc) for ps in table.passages[ci]]
            for ci in range(n_components)
        ]
        float_cons = [(c, float(c.first_arc), float(c.second_arc)) for c in cons]

        def engine(f_tuple, k, phases):
            f = f_tuple[k]
            box = _box_phases(f, event_arcs[k], itertools.repeat((margin, 1 - margin)))
            segs = _intersect_intervals(box, _own_phases(f, _own_crossings(k, float_cons), margin))
            windows = _phase_windows(f, k, float_cons)
            return _intersect_intervals(segs, _fixed_phases(f_tuple, windows, phases, margin))

        def inside(segs, phi):
            return any(lo - slack <= phi <= hi + slack for lo, hi in segs)

        for f_tuple in shell_order(n_components, f_max):
            first = engine(f_tuple, 0, ())
            last = {}  # the last component's intervals, per phase of the first
            for phis in accepted_phases(f_tuple, event_arcs, cons, margin):
                assert inside(first, phis[0]), (f_tuple, phis)
                if n_components == 2:
                    if phis[0] not in last:
                        last[phis[0]] = engine(f_tuple, 1, phis[:1])
                    assert inside(last[phis[0]], phis[1]), (f_tuple, phis)

        oracle = first_hit(event_arcs, cons, f_max, margin)
        if oracle is None:
            continue
        hits += 1
        found = tuple(h.frequency for h in search_heights(cons, table, f_max=f_max, margin=margin))
        assert (max(found), found) <= (max(oracle), oracle)
    assert hits >= 4


def _screen(f_tuple, windows, phases, margin):
    """``_reach_phases`` for component k = len(phases), with the pair order
    of k + 1's ``windows`` built for this call alone."""
    return _reach_phases(f_tuple, windows, _pair_order(windows), phases, margin)


def _assert_matches_oracle(got, expected, context):
    """The screen and the kink-sweep oracle round differently: both are
    empty or neither, with as many intervals, every end within 1e-12."""
    assert bool(got) == bool(expected), context
    assert len(got) == len(expected), (context, got, expected)
    for (lo, hi), (lo_x, hi_x) in zip(got, expected):
        assert abs(lo - lo_x) <= 1e-12 and abs(hi - hi_x) <= 1e-12, (context, got, expected)


@pytest.mark.parametrize("n_components, f_max", [(2, 5), (3, 2)])
def test_reach_phases_hold_every_point_with_exact_phases(n_components, f_max):
    """At every f-tuple, component k >= 1 and grid prefix of components
    0 .. k-1, the prefix's last phase lies inside the intervals of
    ``_reach_phases`` whenever the exact phase set of k (``_own_phases`` and
    ``_fixed_phases`` within the box) is non-empty, and at least a quarter of
    the prefixes lie outside them."""
    margin = 0.05
    rng = random.Random(20261019 + n_components)
    passed = rejected = 0
    for _ in range(3):
        table, cons = _random_arc_table(rng, n_components, rng.randint(3, 8 - n_components))
        arcs = [(c, float(c.first_arc), float(c.second_arc)) for c in cons]
        n_grid = 4 * len(cons)
        shells = (_shell([range(1, top + 1)] * n_components, top) for top in range(1, f_max + 1))
        for f_tuple in itertools.chain.from_iterable(shells):
            for k in range(1, n_components):
                f = f_tuple[k]
                event_arcs = [float(t) for t in table.vertex_arcs[k]]
                event_arcs += [float(ps.arc) for ps in table.passages[k]]
                segs = _box_phases(f, event_arcs, itertools.repeat((margin, 1 - margin)))
                segs = _intersect_intervals(segs, _own_phases(f, _own_crossings(k, arcs), margin))
                windows = _phase_windows(f, k, arcs)
                dens = [n_grid * fj for fj in f_tuple[:k]]
                reach = {}
                for js in itertools.product(*map(range, dens)):
                    phases = tuple(num / den for num, den in zip(js, dens))
                    if js[:-1] not in reach:
                        reach[js[:-1]] = _screen(f_tuple, windows, phases[:-1], margin)
                    exact = _intersect_intervals(segs, _fixed_phases(f_tuple, windows, phases, margin))
                    if any(lo <= phases[-1] < hi for lo, hi in reach[js[:-1]]):
                        passed += 1
                    else:
                        assert not exact, (f_tuple, k, js, exact)
                        rejected += 1
    assert rejected >= (passed + rejected) // 4


def test_reach_phases_hold_at_the_edge():
    """Component 1 must pass below component 0 at two crossings whose
    windows, at component 0's phase 0, overlap by 1e-9: the exact phase set
    only just exists, and phase 0 lies inside the reach intervals."""
    margin = 1e-3
    # at phase 0 and f = 1 both passages of component 0 sit at z = 1/2
    dist = 0.5 - margin - 1e-9
    arcs = [
        (HeightConstraint(0, 0, 0.25, 1, 0.0, True), 0.25, 0.0),
        (HeightConstraint(1, 0, 0.25, 1, dist, True), 0.25, dist),
    ]
    windows = _phase_windows(1, 1, arcs)
    assert _fixed_phases((1, 1), windows, (0.0,), margin)
    assert crossing_phases(1, 1, [(0.0, 1.0)], arcs, {0: SawtoothHeight(1, Fraction(0))}, margin)
    reach = _screen((1, 1), windows, (), margin)
    assert any(lo <= 0.0 < hi for lo, hi in reach), reach
    _assert_matches_oracle(reach, reach_phases((1, 1), 0, windows, (), margin), reach)


@pytest.mark.parametrize("dyadic", [False, True])
@pytest.mark.parametrize("n_components, f_max, n_tables", [(2, 5, 8), (3, 3, 2), (4, 2, 2)])
def test_reach_phases_match_the_oracle(n_components, f_max, n_tables, dyadic):
    """At every f-tuple, component k and grid prefix of components 0 ..
    k-1, the screen returns the kink-sweep oracle's intervals up to float
    rounding (``_assert_matches_oracle``), and its pairs come farthest
    first by a stable sort.  Arcs on the grid of sixteenths put windows at
    equal centre distances, whose order the stable sort decides, and make
    kinks coincide."""
    margin = 0.05
    rng = random.Random(20261030 + 2 * n_components + dyadic)
    arc = (lambda: rng.randrange(16) / 16) if dyadic else None
    calls = passing = ties = earlier = 0
    for _ in range(n_tables):
        table, cons = _random_arc_table(rng, n_components, 3 + n_components // 2, arc=arc)
        arcs = [(c, float(c.first_arc), float(c.second_arc)) for c in cons]
        n_grid = 4 * len(cons)
        for f_tuple in shell_order(n_components, f_max):
            for k in range(n_components - 1):
                windows = _phase_windows(f_tuple[k + 1], k + 1, arcs)
                order = _pair_order(windows)
                # farthest first by a stable sort is ascending (-distance, i, l),
                # as combinations_with_replacement yields (i, l) in ascending order
                pairs = list(itertools.combinations_with_replacement(range(len(windows)), 2))
                dists = [abs(windows[i][2] - windows[l][2]) for i, l in pairs]
                expected = sorted((-min(d, 1.0 - d), i, l) for d, (i, l) in zip(dists, pairs))
                assert [(-d, i, l) for d, i, l in order] == expected
                ties += sum(a[0] == b[0] > 0.0 for a, b in zip(order, order[1:]))
                earlier += sum(j < k for j, _, _, _ in windows)
                dens = [n_grid * f for f in f_tuple[:k]]
                for js in itertools.product(*map(range, dens)):
                    phases = tuple(num / den for num, den in zip(js, dens))
                    got = _reach_phases(f_tuple, windows, order, phases, margin)
                    expected = reach_phases(f_tuple, k, windows, phases, margin)
                    _assert_matches_oracle(got, expected, (f_tuple, k, js))
                    calls += 1
                    passing += bool(got)
    assert calls >= 150 and 0 < passing < calls, (calls, passing)
    assert not dyadic or ties >= 5, ties
    assert (earlier > 0) == (n_components > 2), earlier


def _pair_sum(f_tuple, windows, phases, phi, margin):
    """h_0 + h_1 of the two ``windows`` of component k + 1 (k =
    len(phases)) at k's phase phi, each half-width ((z or 1 - z) - margin)/2
    widened by the screen's slack, evaluated by the oracle's sawtooth."""
    total = 0.0
    for j, t, _, below in windows:
        z = sawtooth(f_tuple[j], t, phi if j == len(phases) else phases[j])
        total += ((z if below else 1.0 - z) - margin) / 2.0 + SCREEN_SLACK
    return total


def _inside(segs, phi):
    return any(lo <= phi <= hi for lo, hi in segs)


def test_pair_window_is_the_brute_force_set():
    """One pair of windows of component k + 1, both on k or one on k and
    one on an earlier component: the screen's closed-form window holds
    every phase of k where the two half-widths reach the pair's distance,
    at 4,096 grid phases, and its ends (narrowed back by the slack) are
    where the sum crosses it, 1e-9 to either side.  Offsets on k are
    dyadic, so the offset differences 0 and 1/2 are exact; differences
    just below and above 1/2 and near 1 come too, and every case kind
    (no phase, every phase, one window) occurs for both pair kinds."""
    rng = random.Random(20261101)
    deltas = [0.0, 0.5, 0.5 - 1e-9, 0.5 + 1e-9, 1.0 - 1e-9, 1.0 - 2.0 ** -20, None]
    grid = [g / 4096 for g in range(4096)]
    kinds = {}
    for case in range(280):
        margin = rng.uniform(1e-4, 0.1)
        dist = 0.5 - 2.0 * rng.uniform(0.0, 0.5) ** 2  # in [0, 1/2], most near 1/2
        both = case % 2 == 0

        def on_k(j, a):
            """A window on component j with offset a at frequency 1."""
            below = rng.random() < 0.5
            return (j, (a - (0.0 if below else 0.5)) % 1.0, 0.0, below)

        a = rng.randrange(1 << 20) / (1 << 20)
        if both:
            delta = deltas[case // 2 % len(deltas)]
            delta = rng.random() if delta is None else delta
            f_tuple, phases = (1, rng.randint(1, 9)), ()
            windows = [on_k(0, a), on_k(0, (a + delta) % 1.0)]
        else:
            f_tuple, phases = (rng.randint(1, 50), 1, rng.randint(1, 9)), (rng.random(),)
            below = rng.random() < 0.5
            t = rng.random()
            if case % 4 == 1:  # a constant half-width near its least, -margin/2
                t = ((0.5 if below else 0.0) - phases[0] + rng.uniform(-margin, margin) / 2) % 1.0
                t = (t + rng.randrange(f_tuple[0])) / f_tuple[0]
            windows = [(0, t, 0.0, below), on_k(1, a)]
        got = _reach_phases(f_tuple, windows, [(dist, 0, 1)], phases, margin)
        sums = [_pair_sum(f_tuple, windows, phases, phi, margin) - dist for phi in grid]
        if not got:
            kind = "none"
            assert all(s < 0.0 for s in sums), (case, windows, dist)
        elif got == [(0.0, 1.0)]:
            kind = "every"
            assert all(s >= -2.5 * SCREEN_SLACK for s in sums), (case, windows, dist)
        else:
            kind = "window"
            for phi, s in zip(grid, sums):
                if s >= 0.0:
                    assert _inside(got, phi), (case, phi, got)
                elif _inside(got, phi):  # the widening: sums fall at slope <= 2
                    assert s >= -2.5 * SCREEN_SLACK, (case, phi, got)
            ends = [(lo + SCREEN_SLACK, +1) for lo, _ in got if lo > 0.0]
            ends += [(hi - SCREEN_SLACK, -1) for _, hi in got if hi < 1.0]
            for end, inward in ends:
                inner = _pair_sum(f_tuple, windows, phases, end + inward * 1e-9, margin)
                outer = _pair_sum(f_tuple, windows, phases, end - inward * 1e-9, margin)
                assert inner >= dist > outer, (case, end, got)
        kinds[both, kind] = kinds.get((both, kind), 0) + 1
    assert all(kinds.get((both, kind), 0) >= 5 for both in (False, True)
               for kind in ("none", "every", "window")), kinds


@pytest.mark.parametrize("n_components, f_max, n_tables", [(2, 6, 8), (3, 3, 3)])
def test_pair_order_decides_only_where_the_screen_stops(n_components, f_max, n_tables):
    """Shuffling the pair order leaves every screen result equal by ==:
    each pair allows one cyclic window, and intersecting them only selects
    among their ends."""
    margin = 0.05
    rng = random.Random(20261102 + n_components)
    calls = nonempty = 0
    for _ in range(n_tables):
        table, cons = _random_arc_table(rng, n_components, rng.randint(4, 8))
        arcs = [(c, float(c.first_arc), float(c.second_arc)) for c in cons]
        n_grid = 4 * len(cons)
        for f_tuple in shell_order(n_components, f_max):
            for k in range(n_components - 1):
                windows = _phase_windows(f_tuple[k + 1], k + 1, arcs)
                order = _pair_order(windows)
                dens = [n_grid * f for f in f_tuple[:k]]
                for js in itertools.product(*map(range, dens)):
                    phases = tuple(num / den for num, den in zip(js, dens))
                    got = _reach_phases(f_tuple, windows, order, phases, margin)
                    shuffled = rng.sample(order, len(order))
                    assert _reach_phases(f_tuple, windows, shuffled, phases, margin) == got
                    calls += 1
                    nonempty += bool(got)
    assert calls >= 100 and 0 < nonempty < calls, (calls, nonempty)


def _random_link_patterns(rng):
    """20 two-component patterns (q = 2, even p from 6 to 14) and 8
    three-component ones (q = 3, p 9 or 12), with random signs."""
    shapes = [(2, rng.randrange(6, 15, 2)) for _ in range(20)]
    shapes += [(3, rng.choice((9, 12))) for _ in range(8)]
    return [
        QuasitoricPattern(q, p, tuple(tuple(rng.choice((1, -1)) for _ in range(q - 1)) for _ in range(p)))
        for q, p in shapes
    ]


def test_search_with_the_oracle_screen_is_the_same(monkeypatch):
    """``search_heights`` returns the same heights, or exhausts with the
    same diagnostics, with its screen and with the kink-sweep oracle's in
    its place, on seeded random 2- and 3-component links at small f_max."""

    def oracle_screen(f_tuple, windows, order, phases, margin):
        return reach_phases(f_tuple, len(phases), windows, phases, margin)

    rng = random.Random(20261103)
    outcomes = []
    for seed, pattern in enumerate(_random_link_patterns(rng)):
        star = build_star(pad_to_min_repetitions(pattern), 192)
        table = arc_length_table(perturb_stage(star, Fraction(1, 1000), seed)[0], 192)
        constraints = build_height_constraints(star, table)
        f_max = 6 if pattern.strands == 2 else 3
        results = []
        for screen in (_reach_phases, oracle_screen):
            monkeypatch.setattr("billiardknots.heights._reach_phases", screen)
            try:
                results.append(search_heights(constraints, table, f_max=f_max))
            except SearchExhaustedError as err:
                results.append(err.diagnostics)
        assert results[0] == results[1], (seed, pattern)
        outcomes.append(isinstance(results[0], tuple))
    assert 0 < sum(outcomes) < len(outcomes), outcomes


def _measure(segs):
    return sum(b - a for a, b in segs)


def test_own_window_is_the_exact_phase_set():
    """For one crossing with both passages on a component, the exact phase
    set of the kink sweep is empty when the window test fails and lies
    between the window narrowed and widened by 1e-8 when it passes."""
    rng = random.Random(20261020)
    tol = 1e-8
    for _ in range(4000):
        f = rng.randint(1, 5000)
        margin = 10 ** rng.uniform(-6, math.log10(0.05))
        t1, t2, first_over = rng.random(), rng.random(), rng.random() < 0.5
        con = HeightConstraint(0, 0, t1, 0, t2, first_over)
        exact = crossing_phases(f, 0, [(0.0, 1.0)], [(con, t1, t2)], {}, margin)
        g, centre = _own_window(f, t2 - t1, t1, 0.0 if first_over else 0.5)
        half = (1.0 - margin) / 4.0
        if g < margin - tol:
            assert not exact, (f, margin, t1, t2, first_over)
            continue
        wide = _cyclic_window(centre, half + tol)
        assert _measure(_intersect_intervals(exact, wide)) == pytest.approx(_measure(exact), abs=1e-12)
        if g > margin + tol:
            narrow = _cyclic_window(centre, half - tol)
            covered = _measure(_intersect_intervals(exact, narrow))
            assert covered == pytest.approx(_measure(narrow), abs=1e-12), (f, margin, t1, t2)
            assert _measure(exact) == pytest.approx(2 * half, abs=1e-9)


def _covered(inner, outer, tol):
    """Every interval of ``inner`` lies in one interval of ``outer`` widened
    by ``tol``."""
    wide = []
    for lo, hi in outer:
        if wide and lo - tol <= wide[-1][1]:
            wide[-1] = (wide[-1][0], hi + tol)
        else:
            wide.append((lo - tol, hi + tol))
    return all(any(a <= lo and hi <= b for a, b in wide) for lo, hi in inner)


def test_closed_form_phases_match_the_kink_sweep():
    """``_own_phases`` (one component, its own crossings) and
    ``_fixed_phases`` (component 1 against component 0 at a fixed height)
    agree with the kink sweep within 1e-8 both ways, on random arcs whose
    windows wrap around phase 0 and whose half-widths are often negative."""
    rng = random.Random(20261022)
    tol = 1e-8
    wraps = negative = nonempty = 0
    for _ in range(3000):
        f = rng.randint(1, 300)
        margin = rng.uniform(1e-3, 0.2)
        arcs = []
        for i in range(rng.randint(1, 3)):
            t1, t2 = rng.random(), rng.random()
            arcs.append((HeightConstraint(i, 0, t1, 0, t2, rng.random() < 0.5), t1, t2))
        own = _own_phases(f, _own_crossings(0, arcs), margin)
        sweep = crossing_phases(f, 0, [(0.0, 1.0)], arcs, {}, margin)
        assert _covered(own, sweep, tol) and _covered(sweep, own, tol), (f, margin, arcs)
        nonempty += bool(own)

        fixed = SawtoothHeight(rng.randint(1, 300), Fraction(rng.randrange(1 << 20), 1 << 20))
        arcs = []
        for i in range(rng.randint(1, 3)):
            t0, t1 = rng.random(), rng.random()
            arcs.append((HeightConstraint(i, 0, t0, 1, t1, rng.random() < 0.5), t0, t1))
        f_tuple, phases = (fixed.frequency, f), (fixed.phase,)
        windows = _phase_windows(f, 1, arcs)
        closed = _fixed_phases(f_tuple, windows, phases, margin)
        sweep = crossing_phases(f, 1, [(0.0, 1.0)], arcs, {0: fixed}, margin)
        assert _covered(closed, sweep, tol) and _covered(sweep, closed, tol), (f_tuple, phases, arcs)
        nonempty += bool(closed)
        for _, t0, centre, below in windows:
            z = float(evaluate_sawtooth(fixed, t0))
            half = ((z if below else 1.0 - z) - margin) / 2.0
            negative += half < 0.0
            wraps += half >= 0.0 and not half <= centre <= 1.0 - half
    assert min(wraps, negative) >= 300 and nonempty >= 1000, (wraps, negative, nonempty)


@pytest.mark.parametrize("n_components", [1, 2, 3])
def test_own_screen_passes_every_frequency_with_exact_phases(n_components):
    """At every component k and f <= 60, ``_own_phases`` keeps (k, f)
    whenever the kink sweep finds phases for k under its own crossings, and
    it rejects at least a quarter of the pairs."""
    margin = 1e-3
    rng = random.Random(20261021 + n_components)
    passed = rejected = 0
    for _ in range(4):
        # about six crossings with both passages on each component
        table, cons = _random_arc_table(rng, n_components, 6 * n_components**2 + rng.randint(0, 3))
        arcs = [(c, float(c.first_arc), float(c.second_arc)) for c in cons]
        for k in range(n_components):
            for f in range(1, 61):
                if _own_phases(f, _own_crossings(k, arcs), margin):
                    passed += 1
                else:
                    assert not crossing_phases(f, k, [(0.0, 1.0)], arcs, {}, margin), (k, f)
                    rejected += 1
    assert rejected >= (passed + rejected) // 4


def test_own_screen_passes_at_the_edges():
    """Exact phase sets that only just exist: a gap plateau 2e-12 above the
    margin, and two windows that overlap by 1e-9."""
    margin = 1e-3
    half = (1.0 - margin) / 4.0
    shift = 2 * half - 1e-9
    cases = [
        [(0.0, margin / 2 + 1e-12)],
        [(0.0, 0.25), (shift, shift + 0.25)],
    ]
    for pairs in cases:
        arcs = [(HeightConstraint(i, 0, t1, 0, t2, True), t1, t2) for i, (t1, t2) in enumerate(pairs)]
        assert crossing_phases(1, 0, [(0.0, 1.0)], arcs, {}, margin), pairs
        assert _own_phases(1, _own_crossings(0, arcs), margin), pairs


def _own_crossings_with_spread(rng, f, margin, offsets):
    """Crossings on component 0 whose windows at frequency f have g >= margin
    and centres at a random start plus ``offsets``, in order."""
    start = rng.random()
    arcs = []
    for i, offset in enumerate(offsets):
        shift = rng.choice((0.0, 0.5))
        d = rng.uniform(margin / 2, 1 - margin / 2)
        x = (0.25 - d / 2 + shift - (start + offset)) % 1.0  # f t1 mod 1
        t1 = (x + rng.randrange(f)) / f
        t2 = ((x + d + rng.randrange(f)) / f) % 1.0
        arcs.append((HeightConstraint(i, 0, t1, 0, t2, shift == 0.0), t1, t2))
    return arcs


def test_own_phases_match_the_sequential_intersection(monkeypatch):
    """``_own_phases`` returns the same floats as intersecting the windows
    one by one, on random arcs and on windows whose centres spread over
    2h - 1e-7, 2h - 1e-9, 2h + 1e-9 and 2h + 1e-7 (h the half-width) or
    less, with crossings of other components mixed in.  At 2h + 1e-7 it
    builds no window."""
    built = []
    monkeypatch.setattr(
        "billiardknots.heights._cyclic_window", lambda *a: built.append(a) or _cyclic_window(*a)
    )
    rng = random.Random(20261023)
    edges = (-1e-7, -1e-9, 1e-9, 1e-7)
    nonempty = 0
    for case in range(2400):
        f = rng.randint(1, 5000)
        margin = 10 ** rng.uniform(-6, math.log10(0.05))
        n = rng.randint(4, 30)
        kind = case % 6
        if kind == 5:
            arcs = []
            for i in range(n):
                t1, t2 = rng.random(), rng.random()
                arcs.append((HeightConstraint(i, 0, t1, 0, t2, rng.random() < 0.5), t1, t2))
        else:
            width = 2 * (1.0 - margin) / 4.0
            width = width + edges[kind] if kind < 4 else rng.uniform(0, width)
            offsets = [0.0, width] + [rng.uniform(0, width) for _ in range(n - 2)]
            rng.shuffle(offsets)
            arcs = _own_crossings_with_spread(rng, f, margin, offsets)
        for i in range(rng.randint(0, 3)):
            t1, t2 = rng.random(), rng.random()
            ends = rng.choice(((0, 1), (1, 1)))
            foreign = HeightConstraint(n + i, ends[0], t1, ends[1], t2, rng.random() < 0.5)
            arcs.insert(rng.randint(0, len(arcs)), (foreign, t1, t2))
        expected = sequential_own_phases(f, 0, arcs, margin)
        built.clear()
        assert _own_phases(f, _own_crossings(0, arcs), margin) == expected, (f, margin, arcs)
        if kind < 4:
            assert bool(expected) == (edges[kind] < 0), (kind, f, margin)
            assert bool(built) == (kind < 3), (kind, f, margin)
        nonempty += bool(expected)
    assert nonempty >= 1200, nonempty


# The knots benchmark inputs, then the (2, 17) knot whose signs are the
# fifth draw of one random.Random(7) stream, one rng.choice((1, -1)) per
# sign, after (2, 11), (2, 13), (2, 15) and (3, 8): (strands, repetitions,
# signs, perturbation seed)
_KNOTS = {
    "trefoil": (2, 5, ((1,), (1,), (1,), (1,), (-1,)), 42),
    "random-2-11-0": (
        2, 11, ((-1,), (1,), (-1,), (-1,), (1,), (-1,), (-1,), (1,), (1,), (-1,), (-1,)), 1022406
    ),
    "random-2-11-1": (
        2, 11, ((-1,), (-1,), (-1,), (-1,), (1,), (1,), (-1,), (-1,), (-1,), (1,), (1,)), 1021694124
    ),
    "random-2-13-0": (
        2, 13, ((1,), (-1,), (1,), (-1,), (1,), (1,), (1,), (-1,), (1,), (-1,), (-1,), (-1,), (1,)),
        1885846324,
    ),
    "random-3-7-0": (
        3, 7, ((1, -1), (-1, 1), (-1, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)), 968923797
    ),
    "random7-2-17": (
        2, 17,
        ((1,), (1,), (-1,), (1,), (-1,), (1,), (-1,), (-1,), (1,),
         (1,), (-1,), (-1,), (-1,), (-1,), (-1,), (1,), (1,)),
        42,
    ),
}


@pytest.mark.parametrize(
    "name, mirrored, expected",
    [
        ("trefoil", False, (76, Fraction(153, 380))),
        ("trefoil", True, (76, Fraction(1, 1520))),
        ("random-2-11-0", False, (391, Fraction(409, 782))),
        ("random-2-11-0", True, (391, Fraction(9, 391))),
        ("random-2-11-1", False, (258, Fraction(293, 1892))),
        ("random-2-11-1", True, (258, Fraction(1239, 1892))),
        ("random-2-13-0", False, (1903, Fraction(23305, 49478))),
        ("random-2-13-0", True, (1903, Fraction(24022, 24739))),
        ("random-3-7-0", False, (583, Fraction(6557, 32648))),
        ("random-3-7-0", True, (583, Fraction(22881, 32648))),
        ("random7-2-17", False, (26114, Fraction(10749, 161432))),
        ("random7-2-17", True, (26114, Fraction(91465, 161432))),
    ],
)
def test_knot_search_results_are_pinned(name, mirrored, expected):
    """The accepted (f, phi) of single-component inputs with f from 76 to
    26,114, as given and mirrored, at f_max 60,000."""
    strands, repetitions, signs, seed = _KNOTS[name]
    pattern = QuasitoricPattern(strands, repetitions, signs)
    if mirrored:
        pattern = pad_to_min_repetitions(pattern).mirrored()
    (saw,) = realize(RealizationSpec(pattern=pattern, seed=seed, f_max=60_000)).heights
    assert (saw.frequency, saw.phase) == expected


# The links benchmark inputs that are not presets, as _KNOTS
_LINKS = {
    "random-2-8-0": (2, 8, ((-1,), (-1,), (1,), (1,), (1,), (1,), (-1,), (1,)), 635214972),
    "random-2-10-0": (
        2, 10, ((-1,), (1,), (1,), (-1,), (-1,), (-1,), (-1,), (1,), (-1,), (-1,)), 509735314
    ),
    "random-2-12-0": (
        2, 12, ((-1,), (-1,), (-1,), (1,), (-1,), (1,), (-1,), (1,), (-1,), (1,), (-1,), (-1,)),
        1788354109,
    ),
    "random-2-12-1": (
        2, 12, ((-1,), (1,), (1,), (-1,), (-1,), (1,), (-1,), (-1,), (-1,), (-1,), (1,), (-1,)),
        1317624796,
    ),
}


@pytest.mark.parametrize(
    "name, expected",
    [
        ("hopf", [(2, Fraction(19, 48)), (1, Fraction(111981649, 2147483648))]),
        ("star-10-2", [(1, Fraction(1, 40)), (5, Fraction(1, 5))]),
        ("star-9-3", [(1, Fraction(1, 36)), (3, Fraction(4, 27)), (3, Fraction(17, 72))]),
        ("hopf~", [(2, Fraction(1, 48)), (1, Fraction(466140441, 1073741824))]),
        ("star-10-2~", [(1, Fraction(1, 8)), (5, Fraction(7, 10))]),
        ("random-2-8-0", [(1, Fraction(3, 32)), (3, Fraction(1095544729, 2147483648))]),
        ("random-2-8-0~", [(1, Fraction(19, 32)), (3, Fraction(21802905, 2147483648))]),
        ("random-2-10-0", [(3, Fraction(79, 120)), (1, Fraction(111954249, 134217728))]),
        ("random-2-10-0~", [(3, Fraction(19, 120)), (1, Fraction(44845385, 134217728))]),
        ("random-2-12-0", [(5, Fraction(4, 5)), (12, Fraction(11, 192))]),
        ("random-2-12-0~", [(5, Fraction(3, 10)), (12, Fraction(107, 192))]),
        ("random-2-12-1", [(2, Fraction(85, 96)), (3, Fraction(530393329, 1073741824))]),
        ("random-2-12-1~", [(2, Fraction(37, 96)), (3, Fraction(1067264241, 1073741824))]),
    ],
)
def test_joint_search_results_are_pinned(name, expected):
    """The accepted (f, phi) of the presets with several components and of
    the links benchmark inputs; a trailing ``~`` mirrors the padded
    pattern."""
    base = name.rstrip("~")
    if base in _LINKS:
        strands, repetitions, signs, seed = _LINKS[base]
        spec = RealizationSpec(pattern=QuasitoricPattern(strands, repetitions, signs), seed=seed)
    else:
        spec = RealizationSpec(pattern=PRESETS[base], preset=base)
    if name.endswith("~"):
        spec = RealizationSpec(pattern=pad_to_min_repetitions(spec.pattern).mirrored(), seed=spec.seed)
    result = realize(spec)
    assert [(h.frequency, h.phase) for h in result.heights] == expected


def test_four_component_link_exhaustion_is_pinned():
    """The 4-component (4, 12) link, signs from ``random.Random("4/12")``
    (one ``choice((1, -1))`` per sign, row by row) and perturbation seed 42:
    its 36 crossings all join two components, so its screens at k = 1 and
    2 hold windows on earlier components.  Exhausting f_max 3 takes about
    0.16 s (2-core x86-64, CPython 3.11); it keeps 3 frequencies per
    component and walks all 81 f-tuples."""
    rng = random.Random("4/12")
    signs = tuple(tuple(rng.choice((1, -1)) for _ in range(3)) for _ in range(12))
    spec = RealizationSpec(pattern=QuasitoricPattern(4, 12, signs), seed=42, f_max=3)
    with pytest.raises(SearchExhaustedError) as err:
        realize(spec)
    assert err.value.diagnostics == SearchDiagnostics(f_max=3, kept=(3, 3, 3, 3), walked=81)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shell_is_shell_order_over_the_choice_sets(d):
    """``_shell`` over ascending choice sets, some empty and some without
    top, walks the shell of ``shell_order`` filtered to those sets."""
    rng = random.Random(20261024 + d)
    empty = without_top = 0
    for top in range(1, 8):
        full = [f_tuple for f_tuple in shell_order(d, top) if max(f_tuple) == top]
        assert list(_shell([range(1, top + 1)] * d, top)) == full
        for _ in range(30):
            choices = [sorted(rng.sample(range(1, top + 1), rng.randint(0, top))) for _ in range(d)]
            expected = [t for t in full if all(f in fs for f, fs in zip(t, choices))]
            assert list(_shell(choices, top)) == expected, (top, choices)
            empty += sum(not fs for fs in choices)
            without_top += sum(top not in fs for fs in choices)
    assert empty >= 10 and without_top >= 50, (empty, without_top)


@pytest.mark.parametrize("name", ["trefoil", "hopf", "star-9-3"])
def test_search_builds_each_own_phase_set_once(monkeypatch, name):
    """``_own_phases`` runs once per (f, component), for every f up to the
    largest frequency of the accepted tuple."""
    calls = []

    def recorded(f, own, margin):
        calls.append((f, id(own)))  # one own-crossing list per component, alive all search
        return _own_phases(f, own, margin)

    monkeypatch.setattr("billiardknots.heights._own_phases", recorded)
    result = realize(RealizationSpec(pattern=PRESETS[name], preset=name))
    assert len(set(calls)) == len(calls)
    assert len(calls) == len(result.heights) * max(h.frequency for h in result.heights)


@pytest.mark.parametrize("name", ["hopf", "star-9-3"])
def test_search_builds_each_pair_order_once(monkeypatch, name):
    """Each (k, f)'s windows are built once, one pair order is built from
    each, and the screen runs."""
    windows_built, keys, orders, screens = [], [], [], []

    def windows(f, k, *args):
        keys.append((f, k))
        windows_built.append(_phase_windows(f, k, *args))
        return windows_built[-1]

    def order(ws):
        orders.append(ws)
        return _pair_order(ws)

    def screen(*args):
        screens.append(args)
        return _reach_phases(*args)

    monkeypatch.setattr("billiardknots.heights._phase_windows", windows)
    monkeypatch.setattr("billiardknots.heights._pair_order", order)
    monkeypatch.setattr("billiardknots.heights._reach_phases", screen)
    realize(RealizationSpec(pattern=PRESETS[name], preset=name))
    assert len(set(keys)) == len(keys)
    assert [id(ws) for ws in orders] == [id(ws) for ws in windows_built]
    assert screens


@pytest.mark.parametrize("n_components", [1, 2, 3])
def test_exhaustion_diagnostics_count_the_walk(n_components):
    """On unsatisfiable tables (a crossing and its reverse on the same two
    passages) the exhaustion diagnostics give, per component, the number of
    f <= f_max whose own-crossing windows, intersected one by one, meet
    the box, and the number of f-tuples in shell order over those
    frequencies.  In a knot the reversed crossing is the knot's own, so
    nothing is kept; in a link both zero and non-zero walks occur."""
    margin = 0.05
    rng = random.Random(20261025 + n_components)
    walked_some = walked_none = 0
    for _ in range(6):
        table, cons = _random_arc_table(rng, n_components, rng.randint(2, 6))
        flipped = rng.choice(cons)
        cons += (replace(flipped, crossing=len(cons), first_over=not flipped.first_over),)
        f_max = rng.randint(9 - 2 * n_components, 8)
        arcs = [(c, float(c.first_arc), float(c.second_arc)) for c in cons]
        kept = []
        for k in range(n_components):
            events = [float(t) for t in table.vertex_arcs[k]] + [float(ps.arc) for ps in table.passages[k]]
            kept.append({
                f for f in range(1, f_max + 1)
                if _intersect_intervals(
                    sequential_own_phases(f, k, arcs, margin),
                    _box_phases(f, events, itertools.repeat((margin, 1 - margin))),
                )
            })
        walked = sum(all(f in fs for f, fs in zip(t, kept)) for t in shell_order(n_components, f_max))
        with pytest.raises(SearchExhaustedError) as err:
            search_heights(cons, table, f_max=f_max, margin=margin)
        assert err.value.diagnostics == SearchDiagnostics(
            f_max=f_max, kept=tuple(map(len, kept)), walked=walked
        )
        walked_some += walked > 0
        walked_none += walked == 0
    assert walked_none and (walked_some > 0) == (n_components > 1), (walked_some, walked_none)


def test_emit_frequency_one_has_two_bounces():
    star, poly, table = _pentagram_setup()
    saw = SawtoothHeight(1, Fraction(1, 3))
    traj = emit_trajectory(poly, (saw,), table)
    comp = traj.components[0]
    kinds = [KIND_NAMES[kind] for kind in comp.kinds]
    assert kinds.count("floor") == 1
    assert kinds.count("ceiling") == 1
    assert kinds.count("wall") == 5


_PHASES = st.fractions(min_value=0, max_value=1, max_denominator=997)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_emit_every_phase_gives_2f_bounces_and_reflects(hopf_result, data):
    """Any f and any phase off the wall vertices, including phase > 1/2."""
    result = hopf_result
    heights = []
    for _ in result.poly.components:
        phase = data.draw(_PHASES)
        # phase 0 or 1/2 puts an extremum on the wall vertex at arc 0
        assume(phase not in (0, Fraction(1, 2), 1))
        heights.append(SawtoothHeight(data.draw(st.integers(1, 12)), phase))
    traj = emit_trajectory(result.poly, tuple(heights), result.arcs)
    for comp, saw in zip(traj.components, heights):
        assert sum(1 for kind in comp.kinds if KIND_NAMES[kind] != "wall") == 2 * saw.frequency
    assert verify_reflection(traj, result.arcs, 1e-9).passed
    assert pointwise_reflection(traj, result.table, 1e-9, prec_bits=192).passed


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_closed_form_check_and_oracle_reject_the_same_moves(trefoil_result, data):
    """Moving one stored point coordinate by 1e-6 or more makes both the
    closed-form check and the pointwise oracle reject."""
    result = trefoil_result
    traj = result.trajectory
    shift = mp.mpf(data.draw(st.floats(1e-6, 1e-2))) * data.draw(st.sampled_from((-1, 1)))
    comp = traj.components[0]
    i = data.draw(st.integers(0, len(comp.kinds) - 1))
    column = ("x", "y", "z")[data.draw(st.integers(0, 2))]
    values = list(getattr(comp, column))
    values[i] += shift
    moved = replace(traj, components=(replace(comp, **{column: values}),))
    new_accepts = verify_reflection(moved, result.arcs, 1e-9).passed
    oracle_accepts = pointwise_reflection(moved, result.table, 1e-9, prec_bits=192).passed
    assert not new_accepts
    assert not oracle_accepts


def test_emit_projection_recovers_polygon():
    star, poly, table = _pentagram_setup()
    constraints = build_height_constraints(star, table)
    heights = search_heights(constraints, table, f_max=200, margin=1e-3)
    traj = emit_trajectory(poly, heights, table)
    comp = traj.components[0]
    wall_points = [
        pt for pt, kind in zip(comp.points, comp.kinds) if KIND_NAMES[kind] == "wall"
    ]
    for (x, y, z), (vx, vy) in zip(wall_points, poly.components[0].vertices):
        assert mp.almosteq(x, mp.mpf(vx.numerator) / vx.denominator)
        assert mp.almosteq(y, mp.mpf(vy.numerator) / vy.denominator)
        assert 0 < z < 1
    bounce_count = sum(1 for kind in comp.kinds if KIND_NAMES[kind] != "wall")
    assert bounce_count == 2 * heights[0].frequency


def test_emitted_height_slope_is_twice_frequency():
    star, poly, table = _pentagram_setup()
    constraints = build_height_constraints(star, table)
    heights = search_heights(constraints, table, f_max=200, margin=1e-3)
    traj = emit_trajectory(poly, heights, table)
    comp = traj.components[0]
    f = heights[0].frequency
    arcs = comp.arc
    zs = comp.z
    for (a1, z1), (a2, z2) in zip(zip(arcs, zs), zip(arcs[1:], zs[1:])):
        slope = abs(float((z2 - z1) / (a2 - a1)))
        assert slope == pytest.approx(2 * f, rel=1e-25)


def test_parity_obstruction_combination_is_even():
    """With t2 - t1 = t4 - t3, the signed height combination lands in 2Z."""
    t1, t2, t3, t4 = 0.11, 0.38, 0.53, 0.80
    assert abs((t2 - t1) - (t4 - t3)) < 1e-15
    rng = random.Random(9)
    for _ in range(1000):
        f = rng.randrange(1, 60)
        phi = rng.random()
        r1 = signed_residue(f, phi, t1)
        r2 = signed_residue(f, phi, t2)
        r3 = signed_residue(f, phi, t3)
        r4 = signed_residue(f, phi, t4)
        combo = r1 - r2 - r3 + r4
        assert abs(combo - round(combo)) < 1e-9
        assert round(combo) % 2 == 0


def test_parity_obstruction_unsatisfiable_pattern():
    t = [0.11, 0.38, 0.53, 0.80]
    delta = 0.01
    # z1 = z2 = z3 = 1 forces z4 = 1: demanding z4 <= 1 - 10*delta must fail
    bounds_bad = [(1 - delta, 1.0)] * 3 + [(0.0, 1 - 10 * delta)]
    assert height_pattern_feasible(t, bounds_bad, f_max=300) is None
    # whereas the forced pattern with z4 near 1 as well is easy to hit
    bounds_ok = [(1 - delta, 1.0)] * 4
    assert height_pattern_feasible(t, bounds_ok, f_max=300) is not None


def test_density_surrogate_all_patterns_realizable():
    """On independence-passing arcs, every over/under pattern is reachable
    and the satisfiable fraction is nondecreasing in the frequency bound."""
    star, poly, table = _pentagram_setup()
    base = build_height_constraints(star, table)
    found_f = []
    for mask in range(32):
        cons = tuple(
            HeightConstraint(
                c.crossing, c.first_component, c.first_arc,
                c.second_component, c.second_arc, bool((mask >> i) & 1),
            )
            for i, c in enumerate(base)
        )
        heights = search_heights(cons, table, f_max=100_000, margin=1e-3)
        found_f.append(heights[0].frequency)
    fractions = [sum(1 for f in found_f if f <= F) / 32 for F in (2, 10, 50, 10**5)]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


@pytest.fixture
def fallbacks(monkeypatch):
    """The results of ``confirm_heights``' working-precision confirmations,
    in order."""
    results = []
    real = heights_module._confirm_at_precision

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(heights_module, "_confirm_at_precision", recorded)
    return results


@pytest.mark.parametrize("prec", [192, 53])
def test_confirm_heights_matches_the_working_precision_oracle(prec, trefoil_result, hopf_result, fallbacks):
    """Seeded (f, phi), and the accepted heights with their phases moved by
    up to 1e-4, on the trefoil's and the Hopf link's arcs: the float64
    decision is the oracle's, and none of them needs the working
    precision."""
    rng = random.Random(20261019 + prec)
    outcomes = set()
    for result in (trefoil_result, hopf_result):
        arcs = arc_length_table(result.poly, prec)
        constraints = build_height_constraints(result.star, arcs)
        cases = [result.heights]
        for _ in range(60):
            cases.append(tuple(
                SawtoothHeight(rng.randint(1, 4000), Fraction(rng.randrange(2**31), 2**31))
                for _ in result.heights
            ))
            cases.append(tuple(
                SawtoothHeight(h.frequency, (h.phase + Fraction(rng.randint(-10**5, 10**5), 10**9)) % 1)
                for h in result.heights
            ))
        for heights in cases:
            got = confirm_heights(heights, constraints, arcs, DEFAULT_MARGIN)
            assert got == exact_confirm_heights(heights, constraints, arcs, DEFAULT_MARGIN)
            outcomes.add(got)
    assert outcomes == {True, False}
    assert fallbacks == []


def test_confirm_heights_leaves_frequencies_from_2_to_the_46_to_the_working_precision(
    trefoil_result, fallbacks
):
    """Such an f, which a stored trajectory may name, goes straight to the
    working precision, 10^400 among them, which float64 cannot hold."""
    arcs = trefoil_result.arcs
    constraints = build_height_constraints(trefoil_result.star, arcs)
    for f in (2**46, 10**400):
        heights = (SawtoothHeight(f, trefoil_result.heights[0].phase),)
        fallbacks.clear()
        got = confirm_heights(heights, constraints, arcs, DEFAULT_MARGIN)
        assert fallbacks == [got] == [exact_confirm_heights(heights, constraints, arcs, DEFAULT_MARGIN)]


NEAR_F = 1024


def near_bound_problem(kind: str, delta: float, prec_bits: int):
    """Heights, constraints and a two-component arc table at f = 1024 whose
    arcs (100 j + a)/1024 are dyadic, so that float64 and mpf hold them
    exactly, with component 1's phase solved so that one condition lies
    ``delta`` beyond its limit: kind "wall" puts the height of its wall 1
    at margin + delta, "passage" its passage height at crossing 0, and
    "gap" the gap at crossing 0.  Component 0 has phase 1/4, wall heights
    1/2, 1/4 and 1/2, and passage heights 3/4 at crossing 0 (over
    component 1) and 3/8 at crossing 1 (under it).  Every other condition
    clears its limit by more than 0.1."""
    F = Fraction
    target = F(DEFAULT_MARGIN) + F(delta)
    # component 1's wall offsets a, its passage offsets at crossings 0 and
    # 1, and the offset whose height is solved, with that height
    walls, passages, solved, z = {
        "wall": ((0, F(1, 4), F(1, 2)), (F(1, 8), F(5, 8)), F(1, 4), target),
        "passage": ((0, F(5, 16), F(1, 2)), (F(1, 4), F(5, 8)), F(1, 4), target),
        "gap": ((0, F(1, 2)), (F(3, 8), F(1, 8)), F(3, 8), F(3, 4) - target),
    }[kind]
    # on the falling half of the sawtooth z = 1 - 2 frac(a + phi)
    phase = ((1 - z) / 2 - solved) % 1
    offsets = [((0, F(1, 8), F(1, 2)), (F(5, 8), F(1, 16))), (walls, passages)]
    with mp.workprec(prec_bits):
        vertex_arcs = tuple(
            tuple(to_mpf((100 * j + a) / NEAR_F) for j, a in enumerate(w)) for w, _ in offsets
        )
        crossings = tuple(
            tuple(Passage(c, to_mpf((100 * (5 + c) + a) / NEAR_F), True) for c, a in enumerate(p))
            for _, p in offsets
        )
    table = ArcTable(prec_bits, crossings, vertex_arcs, (mp.mpf(1), mp.mpf(1)))
    constraints = tuple(
        HeightConstraint(c, 0, crossings[0][c].arc, 1, crossings[1][c].arc, c == 0) for c in (0, 1)
    )
    return (SawtoothHeight(NEAR_F, F(1, 4)), SawtoothHeight(NEAR_F, phase)), constraints, table


@pytest.mark.parametrize("prec", [192, 53])
@pytest.mark.parametrize("kind", ["wall", "passage", "gap"])
def test_confirm_heights_confirms_at_the_working_precision_near_a_bound(prec, kind, fallbacks):
    """Within 1e-13 of the margin, on either side, float64 decides nothing
    at f = 1024 (its bound is about 7e-13), so the working precision
    decides, as the oracle does; at 192 bits the sign of delta does.  At
    1e-6 from the margin float64 decides alone."""
    for delta in (-1e-13, -1e-16, 1e-16, 1e-13, -1e-6, 1e-6):
        fallbacks.clear()
        heights, constraints, table = near_bound_problem(kind, delta, prec)
        got = confirm_heights(heights, constraints, table, DEFAULT_MARGIN)
        assert got == exact_confirm_heights(heights, constraints, table, DEFAULT_MARGIN)
        assert fallbacks == ([] if abs(delta) > 1e-12 else [got])
        if prec == 192 or abs(delta) > 1e-12:
            assert got == (delta > 0)


TRIANGLE = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1)))


@pytest.mark.parametrize(
    "arcs, saw, message",
    [
        ((0, Fraction(1, 2), Fraction(3, 4)), SawtoothHeight(2**46, Fraction(0)), "frequency too large"),
        ((0, Fraction(1, 2), Fraction(3, 4)), SawtoothHeight(1, Fraction(1, 2**50)), "wall vertex 1 coincides with a bounce"),
        ((0, Fraction(1, 4), Fraction(3, 4)), SawtoothHeight(1, Fraction(1, 2**50)), "a bounce coincides with wall vertex 0"),
    ],
    ids=["frequency", "wall-after-bounce", "bounce-before-closing-wall"],
)
def test_component_events_raises_on_coincident_events(arcs, saw, message):
    """At phase 2^-50 and f = 1 the extrema sit at arcs 1/2 - 2^-50 and
    1 - 2^-50: the first just before a wall at arc 1/2, the second just
    before the closing wall at arc 1."""
    with mp.workprec(128):
        vertex_arcs = [to_mpf(Fraction(t)) for t in arcs]
        with pytest.raises(CoincidentEventsError, match=message):
            heights_module.component_events(TRIANGLE, vertex_arcs, saw)
