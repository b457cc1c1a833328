import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracket_oracles import StateSumBudgetError, skein_bracket, state_sum_bracket
from billiardknots.braids import QuasitoricPattern, pad_to_min_repetitions, toric_pattern
from billiardknots.errors import DomainError
from billiardknots.invariants import (
    certify,
    jones,
    jones_string,
    kauffman_bracket,
)
from billiardknots.pdcodes import PDCode, braid_closure_pd, diagram_isomorphic, traversal_pd
from diagram_helpers import jones_mirror, mirror_pd, pattern_jones, relabel_pd, unlink_jones, writhe
from billiardknots.pipeline import RealizationSpec, realize
from billiardknots.stars import over_flags_from_signs

TREFOIL = toric_pattern(2, 3)
FIGURE_EIGHT = QuasitoricPattern(3, 2, ((1, -1), (1, -1)))


def test_empty_code_is_unknot():
    assert kauffman_bracket(PDCode((), free_loops=1)) == {0: 1}
    assert jones(PDCode((), free_loops=1), 0) == {0: 1}
    assert unlink_jones(2) == {1: -1, -1: -1}
    assert unlink_jones(3) == {2: 1, 0: 2, -2: 1}


def test_pd_structure_of_braid_closure():
    pd = braid_closure_pd(TREFOIL)
    assert pd.crossing_count == 3
    labels = [x for rec in pd.crossings for x in rec]
    assert len(labels) == 12
    assert sorted(set(labels)) == list(range(6))


def test_extract_pd_from_star_diagrams():
    from diagram_helpers import extract_pd
    from billiardknots.stars import build_star

    signed = build_star(toric_pattern(2, 5))
    pd = extract_pd(signed, over_flags_from_signs(signed))
    assert pd.crossing_count == 5
    labels = [x for rec in pd.crossings for x in rec]
    assert sorted(set(labels)) == list(range(10))
    assert all(labels.count(x) == 2 for x in set(labels))

    padded = pad_to_min_repetitions(FIGURE_EIGHT)
    signed8 = build_star(padded)
    pd8 = extract_pd(signed8, over_flags_from_signs(signed8))
    assert pd8.crossing_count == 16


def test_pd_label_multiplicity_enforced():
    with pytest.raises(DomainError):
        PDCode(((0, 1, 2, 3), (0, 1, 2, 4)))
    with pytest.raises(DomainError):
        PDCode((), free_loops=0)


def test_hopf_bracket_hand_enumeration():
    """Four states of the 2-crossing diagram, enumerated by hand:
    AA gives 2 loops, AB and BA give 1, BB gives 2, so
    <hopf> = A^2 d + 2 + A^-2 d = -A^4 - A^-4."""
    pd = braid_closure_pd(toric_pattern(2, 2))
    assert kauffman_bracket(pd) == {4: -1, -4: -1}


def test_trefoil_bracket_and_jones():
    pd = braid_closure_pd(TREFOIL)
    expected_bracket = {5: -1, -3: -1, -7: 1}
    assert kauffman_bracket(pd) == expected_bracket
    assert skein_bracket(pd) == expected_bracket
    assert jones(pd, 3) == {2: 1, 6: 1, 8: -1}  # t + t^3 - t^4
    assert jones_string(jones(pd, 3)) == "-t^4 + t^3 + t"


def test_hopf_jones():
    assert pattern_jones(toric_pattern(2, 2)) == {1: -1, 5: -1}  # -t^1/2 - t^5/2


def test_torus_knot_jones_values():
    assert pattern_jones(toric_pattern(2, 5)) == {4: 1, 8: 1, 10: -1, 12: 1, 14: -1}
    assert pattern_jones(toric_pattern(3, 7)) == {12: 1, 16: 1, 28: -1}


def test_figure_eight_jones_and_amphichirality():
    expected = {-4: 1, -2: -1, 0: 1, 2: -1, 4: 1}
    poly = pattern_jones(FIGURE_EIGHT)
    assert poly == expected
    assert jones_mirror(poly) == poly
    assert pattern_jones(pad_to_min_repetitions(FIGURE_EIGHT)) == expected


def test_unknot_preset_closure():
    pattern = QuasitoricPattern(2, 5, ((1,), (1,), (-1,), (-1,), (1,)))
    assert pattern_jones(pattern) == {0: 1}


def _random_pattern(rng, max_crossings=10):
    k = rng.randrange(2, 5)
    max_rows = max(1, max_crossings // (k - 1))
    n = rng.randrange(1, max_rows + 1)
    signs = tuple(tuple(rng.choice((1, -1)) for _ in range(k - 1)) for _ in range(n))
    return QuasitoricPattern(k, n, signs)


def _corpus_patterns() -> list[QuasitoricPattern]:
    """The bracket test corpus: 30 closures of at most 10 crossings."""
    corpus = [
        TREFOIL,
        toric_pattern(2, 2),
        toric_pattern(2, 5),
        toric_pattern(2, 10),
        FIGURE_EIGHT,
        pad_to_min_repetitions(toric_pattern(2, 2)),
        QuasitoricPattern(2, 5, ((1,), (1,), (-1,), (-1,), (1,))),
    ]
    rng = random.Random(2024)
    while len(corpus) < 30:
        pattern = _random_pattern(rng)
        if pattern.repetitions * (pattern.strands - 1) <= 10:
            corpus.append(pattern)
    return corpus


def test_two_bracket_oracles_agree_on_corpus():
    """Frontier contraction, state sum and skein recursion agree exactly."""
    for pattern in _corpus_patterns():
        pd = braid_closure_pd(pattern)
        assert kauffman_bracket(pd) == state_sum_bracket(pd) == skein_bracket(pd)


def test_isomorphic_codes_on_the_corpus_have_equal_jones():
    """Every corpus closure, and the closure of its word with the rows
    rotated by one (a conjugate braid, so the same diagram under other
    labels and another record order), compared pairwise: isomorphic signed
    codes have equal Jones polynomials."""
    codes = []
    for pattern in _corpus_patterns():
        rotated = QuasitoricPattern(
            pattern.strands, pattern.repetitions, pattern.signs[1:] + pattern.signs[:1]
        )
        for pat in (pattern, rotated):
            codes.append((braid_closure_pd(pat), [letter.sign for letter in pat.word()]))
    for (pd, signs), (rot, rot_signs) in zip(codes[::2], codes[1::2]):
        assert diagram_isomorphic(pd, signs, rot, rot_signs) is not None
    for (pd1, s1), (pd2, s2) in itertools.combinations(codes, 2):
        if diagram_isomorphic(pd1, s1, pd2, s2) is not None:
            assert jones(pd1, sum(s1)) == jones(pd2, sum(s2))


@pytest.mark.parametrize("pattern", [toric_pattern(3, 7), toric_pattern(3, 8)], ids=["3-7", "3-8"])
def test_three_brackets_agree_on_realized_star_pds(pattern):
    """The 14- and 16-crossing PD codes read off realized trajectories."""
    result = realize(RealizationSpec(pattern=pattern))
    pd, _ = traversal_pd(result.poly.passages(), over_flags_from_signs(result.star))
    assert pd.crossing_count == 2 * pattern.repetitions
    assert kauffman_bracket(pd) == state_sum_bracket(pd) == skein_bracket(pd)


def _torus_knot_jones(q, p):
    """t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2), in t^(1/2) units."""
    rest = {0: 1, p + 1: -1, q + 1: -1, p + q: 1}
    quotient = {}
    for e in range(p + q + 1):  # long division by 1 - t^2, lowest power first
        c = rest.pop(e, 0)
        if c:
            quotient[e] = c
            rest[e + 2] = rest.get(e + 2, 0) + c
    assert not any(rest.values())
    shift = (p - 1) * (q - 1) // 2
    return {2 * (e + shift): c for e, c in quotient.items()}


@pytest.mark.parametrize("q, p", [(2, 3), (2, 5), (3, 7), (3, 10), (4, 9), (5, 21), (7, 15)])
def test_torus_knot_jones_closed_form(q, p):
    """Up to 90 crossings, far past the 2^n state sum's reach."""
    assert pattern_jones(toric_pattern(q, p)) == _torus_knot_jones(q, p)


def test_mirror_inverts_jones_variable():
    for pattern in (TREFOIL, toric_pattern(2, 5), toric_pattern(2, 2), FIGURE_EIGHT):
        pd = braid_closure_pd(pattern)
        w = writhe(pattern)
        direct = jones(pd, w)
        mirrored = jones(mirror_pd(pd), -w)
        assert mirrored == jones_mirror(direct)


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_bracket_invariant_under_relabeling(rnd):
    pd = braid_closure_pd(TREFOIL)
    labels = sorted({x for rec in pd.crossings for x in rec})
    shuffled = labels[:]
    rnd.shuffle(shuffled)
    mapping = dict(zip(labels, shuffled))
    assert kauffman_bracket(relabel_pd(pd, mapping)) == kauffman_bracket(pd)


def test_state_sum_budget():
    pd = braid_closure_pd(toric_pattern(2, 25))
    with pytest.raises(StateSumBudgetError):
        state_sum_bracket(pd)


@given(st.integers(2, 5), st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_braid_closure_pd_structure(k, n, rnd):
    signs = tuple(tuple(rnd.choice((1, -1)) for _ in range(k - 1)) for _ in range(n))
    pd = braid_closure_pd(QuasitoricPattern(k, n, signs))
    assert pd.crossing_count == n * (k - 1)
    labels = [x for rec in pd.crossings for x in rec]
    assert sorted(set(labels)) == list(range(2 * n * (k - 1)))
    counts = {x: labels.count(x) for x in set(labels)}
    assert set(counts.values()) == {2}


def test_certify_passes_on_pipeline_output(torus25_result):
    report = torus25_result.certification
    assert report.passed
    assert report.jones_constructed == pattern_jones(toric_pattern(2, 5))
    assert report.components_constructed == 1


def test_certify_detects_corrupted_crossing(torus25_result, bracket_calls):
    """Crossing 0's sign flipped in the polygon's star, the pattern left as
    it is: certify reads the over/under from the star, and fails.  Its
    summary computes both Jones polynomials, one bracket each."""
    from dataclasses import replace

    poly = torus25_result.poly
    first, *rest = poly.star.crossings
    star = replace(poly.star, crossings=(replace(first, sign=-first.sign), *rest))
    assert certify(poly, torus25_result.padded).passed
    report = certify(replace(poly, star=star), torus25_result.padded)
    assert not report.passed
    summary = report.summary()
    assert len(bracket_calls) == 2
    assert report.jones_constructed == pattern_jones(TREFOIL)
    assert report.jones_intended == pattern_jones(toric_pattern(2, 5))
    assert summary == (
        "certify=FAIL: constructed -t^4 + t^3 + t (1 comp), "
        "intended -t^7 + t^6 - t^5 + t^4 + t^2 (1 comp)"
    )
