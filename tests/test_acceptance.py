"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest
from bracket_oracles import skein_bracket, state_sum_bracket
from obstruction_helpers import height_pattern_feasible, signed_residue

from billiardknots.billiards import build_table, mirror_room_check, polygon_mirrors
from billiardknots.braids import QuasitoricPattern, pad_to_min_repetitions, toric_pattern
from billiardknots.invariants import kauffman_bracket
from billiardknots.pdcodes import braid_closure_pd
from billiardknots.perturbation import arc_length_table, independence_check
from billiardknots.pipeline import RealizationSpec, perturb_stage, realize
from billiardknots.presets import PRESETS
from billiardknots.stars import build_star
from diagram_helpers import jones_mirror, star_arc_table

mp.mp.pretty = True


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _timed_realize(name, **kw):
    spec = RealizationSpec(pattern=PRESETS[name], preset=name, **kw)
    t0 = time.perf_counter()
    result = realize(spec)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def torus25():
    return _timed_realize("torus-2-5", seed=42)


@pytest.fixture(scope="module")
def trefoil():
    return _timed_realize("trefoil", seed=42)


@pytest.fixture(scope="module")
def figure_eight():
    return _timed_realize("figure-eight", seed=42)


@pytest.fixture(scope="module")
def hopf():
    return _timed_realize("hopf", seed=42)


def test_criterion_1_figure_combinatorics():
    t0 = time.perf_counter()
    facts = []
    for p, q, want_crossings, want_components in ((10, 3, 20, 1), (10, 2, 10, 2), (9, 3, 18, 3)):
        d = build_star(p, q)
        facts.append(
            len(d.crossings) == want_crossings
            and len(d.components) == want_components
            and want_components == math.gcd(p, q)
        )
    elapsed = time.perf_counter() - t0
    _report(
        1,
        all(facts) and elapsed < 1.0,
        f"stars {{10/3}}, {{10/2}}, {{9/3}} have 20/10/18 crossings and 1/2/3 "
        f"components in {elapsed:.2f}s",
    )


def test_criterion_2_pentagram_sanity():
    t0 = time.perf_counter()
    star = build_star(5, 2)
    comp = star.components[0]
    vertices = [star.geometry.vertices[star.chords[c][0]] for c in comp]
    poly = SimpleNamespace(components=(SimpleNamespace(vertices=tuple(vertices)),))
    check = mirror_room_check(poly)
    table = build_table(polygon_mirrors(poly))
    tips_on_boundary = True
    for mirror, (e1, e2) in zip(table.mirrors, table.edge_of_mirror):
        vx, vy = float(mirror.vertex[0]), float(mirror.vertex[1])
        x1, y1, x2, y2 = float(e1[0]), float(e1[1]), float(e2[0]), float(e2[1])
        cross = (x2 - x1) * (vy - y1) - (y2 - y1) * (vx - x1)
        tips_on_boundary &= abs(cross) < 1e-10
    floor = [(float(x), float(y)) for x, y in table.floor]
    turns = []
    for i in range(len(floor)):
        ax, ay = floor[i]
        bx, by = floor[(i + 1) % len(floor)]
        cx, cy = floor[(i + 2) % len(floor)]
        turns.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
    convex = all(t > 0 for t in turns) or all(t < 0 for t in turns)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        check.passed and len(table.floor) == 5 and tips_on_boundary and convex
        and elapsed < 1.0,
        f"unperturbed pentagram is a billiard trajectory in a convex pentagon "
        f"touching all 5 tips (margin {float(check.margin):.3f}) in {elapsed:.2f}s",
    )


def test_criterion_3_end_to_end_torus_knot(torus25):
    result, elapsed = torus25
    ok = (
        result.reflection.passed
        and result.certification.passed
        and all(h.frequency <= 10**4 for h in result.heights)
        and elapsed < 30.0
    )
    _report(
        3,
        ok,
        f"torus-2-5 certifies (f={result.heights[0].frequency}, reflection at 1e-9) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_4_end_to_end_non_torus(trefoil, figure_eight):
    tre, t_tre = trefoil
    fig, t_fig = figure_eight
    amphichiral = jones_mirror(fig.certification.jones_constructed) == (
        fig.certification.jones_constructed
    )
    ok = (
        tre.certification.passed
        and fig.certification.passed
        and amphichiral
        and (t_tre + t_fig) < 120.0
    )
    _report(
        4,
        ok,
        f"trefoil and figure-eight certify, figure-eight Jones is mirror-symmetric, "
        f"total {t_tre + t_fig:.1f}s",
    )


def test_criterion_5_end_to_end_link(hopf):
    result, elapsed = hopf
    ok = (
        result.certification.passed
        and len(result.heights) == 2
        and result.certification.components_constructed == 2
        and elapsed < 60.0
    )
    fs = ", ".join(f"f={h.frequency}" for h in result.heights)
    _report(5, ok, f"hopf link certifies with per-component heights ({fs}) in {elapsed:.1f}s")


def test_criterion_6_lemma1_stability(torus25, trefoil, figure_eight, hopf):
    rng = random.Random(66)
    all_ok = True
    for result, _ in (torus25, trefoil, figure_eight, hopf):
        margin = float(result.mirror_report.margin)
        for _ in range(100):
            comps = []
            for comp in result.poly.components:
                vs = []
                for x, y in comp.vertices:
                    r = rng.uniform(0, margin / 4) * 0.999
                    ang = rng.uniform(0, 2 * math.pi)
                    vs.append((float(x) + r * math.cos(ang), float(y) + r * math.sin(ang)))
                comps.append(SimpleNamespace(vertices=tuple(vs)))
            fake = SimpleNamespace(components=tuple(comps))
            if not mirror_room_check(fake, prec_bits=64).passed:
                all_ok = False
    _report(
        6,
        all_ok,
        "mirror-room condition survives 100 random jitters below margin/4 "
        "for each certified run",
    )


def test_criterion_7_regular_diagram_obstruction():
    t = [0.11, 0.38, 0.53, 0.80]  # t2 - t1 = t4 - t3
    rng = random.Random(7)
    parity_ok = True
    for _ in range(1000):
        f = rng.randrange(1, 80)
        phi = rng.random()
        combo = (
            signed_residue(f, phi, t[0])
            - signed_residue(f, phi, t[1])
            - signed_residue(f, phi, t[2])
            + signed_residue(f, phi, t[3])
        )
        if abs(combo - 2 * round(combo / 2)) > 1e-9:
            parity_ok = False
    delta = 0.01
    unsat = height_pattern_feasible(
        t, [(1 - delta, 1.0)] * 3 + [(0.0, 1 - 10 * delta)], f_max=300
    )
    _report(
        7,
        parity_ok and unsat is None,
        "signed height combination stays in 2Z (1000 samples) and the pattern "
        "z1=z2=z3=1, z4!=1 is reported unsatisfiable",
    )


def test_criterion_8_symmetry_breaking():
    all_pass = True
    for name, pattern in PRESETS.items():
        padded = pad_to_min_repetitions(pattern)
        star = build_star(padded.repetitions, padded.strands, prec_bits=256)
        poly = perturb_stage(star, Fraction(1, 1000), 42)[0]
        table = arc_length_table(poly, 256)
        if not independence_check(table, max_coeff=10, tol=1e-12).passed:
            all_pass = False
    star_table = star_arc_table(build_star(5, 2, prec_bits=256))
    sym = independence_check(star_table, max_coeff=10, tol=1e-12)
    witness_valid = False
    if not sym.passed:
        lam = sym.witness
        witness_valid = any(lam) and max(abs(c) for c in lam) <= 10 and float(sym.residual) < 1e-24
    _report(
        8,
        all_pass and not sym.passed and witness_valid,
        f"all 9 perturbed presets pass independence; the symmetric {{5/2}} star "
        f"fails with exact witness {sym.witness}",
    )


def test_criterion_9_two_oracle_agreement():
    corpus = []
    for pattern in (
        toric_pattern(2, 2),
        toric_pattern(2, 3),
        toric_pattern(2, 5),
        toric_pattern(2, 10),
        QuasitoricPattern(3, 2, ((1, -1), (1, -1))),
        QuasitoricPattern(2, 5, ((1,), (1,), (1,), (1,), (-1,))),
        QuasitoricPattern(2, 5, ((1,), (1,), (-1,), (-1,), (1,))),
        pad_to_min_repetitions(toric_pattern(2, 2)),
        QuasitoricPattern(3, 5, ((1, 1), (-1, 1), (1, -1), (1, 1), (-1, -1))),
    ):
        pd = braid_closure_pd(pattern)
        if pd.crossing_count <= 10:
            corpus.append(pd)
    rng = random.Random(99)
    while len(corpus) < 25:
        k = rng.randrange(2, 5)
        n = rng.randrange(1, 11 // (k - 1) + 1)
        signs = tuple(tuple(rng.choice((1, -1)) for _ in range(k - 1)) for _ in range(n))
        pd = braid_closure_pd(QuasitoricPattern(k, n, signs))
        if pd.crossing_count <= 10:
            corpus.append(pd)
    agree = all(
        kauffman_bracket(pd) == state_sum_bracket(pd) == skein_bracket(pd) for pd in corpus
    )
    _report(
        9,
        agree,
        f"frontier, state-sum and skein brackets agree exactly on {len(corpus)} diagrams "
        f"with <= 10 crossings",
    )
