"""Certification by oriented diagram isomorphism.

``pdcodes.diagram_isomorphic`` on hand-made codes, ``certify`` on seeded
random mixed-sign stars without a height search, and the number of
Kauffman brackets that realize, write and verify compute.
"""

import functools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from billiardknots.errors import DomainError
from billiardknots.braids import QuasitoricPattern, pad_to_min_repetitions, toric_pattern
from billiardknots.invariants import certify
from billiardknots.pdcodes import PDCode, braid_closure_pd, diagram_isomorphic, traversal_pd
from billiardknots.pipeline import RealizationSpec, perturb_stage, realize
from billiardknots.presets import PRESETS
from billiardknots.serialization import verify_artifacts, write_artifacts
from billiardknots.stars import build_star, over_flags_from_signs
from diagram_helpers import mirror_pd, relabel_pd

TREFOIL = toric_pattern(2, 3)
FIGURE_EIGHT = QuasitoricPattern(3, 2, ((1, -1), (1, -1)))


def closure(pattern):
    return braid_closure_pd(pattern), [letter.sign for letter in pattern.word()]


def is_isomorphism(pd1, signs1, pd2, signs2, image) -> bool:
    """The definition, checked directly: ``image`` is a bijection of the
    records that keeps every sign, and the labels it induces position by
    position form one bijection."""
    if sorted(image) != list(range(pd2.crossing_count)):
        return False
    labels = {}
    for r, s in enumerate(image):
        if signs1[r] != signs2[s]:
            return False
        for x, y in zip(pd1.crossings[r], pd2.crossings[s]):
            if labels.setdefault(x, y) != y:
                return False
    return len(set(labels.values())) == len(labels)


def disjoint_union(*codes):
    """The split diagram of the given codes, labels shifted apart."""
    records, signs, offset = [], [], 0
    for pd, pd_signs in codes:
        records += [tuple(x + offset for x in rec) for rec in pd.crossings]
        signs += pd_signs
        offset += 2 * pd.crossing_count
    return PDCode(tuple(records)), signs


MIXED_4 = QuasitoricPattern(4, 3, ((1, -1, 1), (-1, -1, 1), (1, 1, -1)))


@pytest.mark.parametrize("pattern", [TREFOIL, FIGURE_EIGHT, MIXED_4])
def test_a_code_is_isomorphic_to_its_relabellings_and_record_orders(pattern):
    pd, signs = closure(pattern)
    rng = random.Random(3)
    for _ in range(5):
        labels = sorted({x for rec in pd.crossings for x in rec})
        shuffled = labels[:]
        rng.shuffle(shuffled)
        relabelled = relabel_pd(pd, dict(zip(labels, shuffled)))
        image = diagram_isomorphic(pd, signs, relabelled, signs)
        assert image is not None and is_isomorphism(pd, signs, relabelled, signs, image)

        order = list(range(pd.crossing_count))
        rng.shuffle(order)
        permuted = PDCode(tuple(pd.crossings[r] for r in order))
        permuted_signs = [signs[r] for r in order]
        image = diagram_isomorphic(pd, signs, permuted, permuted_signs)
        assert image is not None and is_isomorphism(pd, signs, permuted, permuted_signs, image)


def test_the_trefoil_is_not_its_mirror():
    pd, signs = closure(TREFOIL)
    assert diagram_isomorphic(pd, signs, mirror_pd(pd), [-s for s in signs]) is None


@pytest.mark.parametrize("pattern", [TREFOIL, FIGURE_EIGHT, toric_pattern(3, 7)])
def test_one_flipped_sign_breaks_the_isomorphism(pattern):
    pd, signs = closure(pattern)
    for r in range(pd.crossing_count):
        flipped = signs[:r] + [-signs[r]] + signs[r + 1:]
        assert diagram_isomorphic(pd, signs, pd, flipped) is None


@pytest.mark.parametrize(
    "pattern", [toric_pattern(2, 2), toric_pattern(2, 2).mirrored(), TREFOIL, FIGURE_EIGHT]
)
def test_a_record_with_its_over_slots_swapped_breaks_the_isomorphism(pattern):
    """Same signs and the same neighbours, but the over strand's two edges
    trade places in one record.  In the Hopf link's two-crossing diagram
    each neighbour is met through both slots, so only the slot at the far
    end of each label tells the codes apart."""
    pd, signs = closure(pattern)
    for r in range(pd.crossing_count):
        records = list(pd.crossings)
        a, b, c, d = records[r]
        records[r] = (a, d, c, b)
        assert diagram_isomorphic(pd, signs, PDCode(tuple(records)), signs) is None


def test_crossing_counts_and_free_loops_must_agree():
    pd, signs = closure(TREFOIL)
    hopf, hopf_signs = closure(toric_pattern(2, 2))
    assert diagram_isomorphic(pd, signs, hopf, hopf_signs) is None
    with_loop = PDCode(pd.crossings, free_loops=1)
    assert diagram_isomorphic(pd, signs, with_loop, signs) is None
    assert diagram_isomorphic(with_loop, signs, with_loop, signs) is not None


def test_crossing_free_codes_with_equal_free_loops_are_isomorphic():
    assert diagram_isomorphic(PDCode((), free_loops=2), [], PDCode((), free_loops=2), []) == ()
    assert diagram_isomorphic(PDCode((), free_loops=1), [], PDCode((), free_loops=2), []) is None


def test_split_diagrams_match_part_by_part():
    """A trefoil beside a figure-eight diagram is the figure-eight beside the
    trefoil; beside the mirror trefoil it is not."""
    trefoil, eight = closure(TREFOIL), closure(FIGURE_EIGHT)
    mirror = (mirror_pd(trefoil[0]), [-s for s in trefoil[1]])
    pd1, s1 = disjoint_union(trefoil, eight)
    pd2, s2 = disjoint_union(eight, trefoil)
    image = diagram_isomorphic(pd1, s1, pd2, s2)
    assert image is not None and is_isomorphism(pd1, s1, pd2, s2, image)
    pd3, s3 = disjoint_union(eight, mirror)
    assert diagram_isomorphic(pd1, s1, pd3, s3) is None
    pd4, s4 = disjoint_union(trefoil, trefoil)
    assert is_isomorphism(pd4, s4, pd4, s4, diagram_isomorphic(pd4, s4, pd4, s4))


@functools.cache
def random_stars(per_q=3, seed=2605):
    """Seeded mixed-sign patterns, ``per_q`` for each q = 2..6, padded and
    signed on their star as ``realize`` does it."""
    rng = random.Random(seed)
    out = []
    for q in range(2, 7):
        for _ in range(per_q):
            p = rng.randint(2, 2 * q + 3)
            while True:
                signs = tuple(tuple(rng.choice((1, -1)) for _ in range(q - 1)) for _ in range(p))
                if len({s for row in signs for s in row}) == 2:
                    break
            padded = pad_to_min_repetitions(QuasitoricPattern(q, p, signs))
            star = build_star(padded, 192)
            out.append((padded, star))
    return out


@pytest.mark.parametrize("index", range(15))
def test_random_star_certifies_by_its_letter_map_only(index):
    """Without a height search: the perturbed star certifies; its code's one
    isomorphism onto the closure sends crossing c to word letter
    braid_row * (q - 1) + braid_col (the crossing-by-crossing check of
    ``build_star``'s slot map); and one flipped crossing fails certify."""
    padded, star = random_stars()[index]
    q = padded.strands
    poly = perturb_stage(star, Fraction(1, 1000), 42)[0]
    assert certify(poly, padded).passed

    pd, sign_map = traversal_pd(poly.passages(), over_flags_from_signs(star))
    signs = [sign_map[c] for c in sorted(sign_map)]
    word_pd, word_signs = closure(padded)
    letter = {c.index: c.braid_row * (q - 1) + c.braid_col for c in star.crossings}
    expected = tuple(letter[c] for c in sorted(sign_map))
    assert diagram_isomorphic(pd, signs, word_pd, word_signs) == expected
    # unique: fixing record 0's image anywhere else (by a mark that only the
    # two records carry) leaves no isomorphism
    for s in range(len(word_signs)):
        if s != expected[0]:
            marked = [("mark", signs[0])] + signs[1:]
            marked_word = list(word_signs)
            marked_word[s] = ("mark", word_signs[s])
            assert diagram_isomorphic(pd, marked, word_pd, marked_word) is None

    for i, c in enumerate(star.crossings):
        crossings = star.crossings[:i] + (replace(c, sign=-c.sign),) + star.crossings[i + 1:]
        flipped = replace(poly, star=replace(star, crossings=crossings))
        assert not certify(flipped, padded).passed


def test_certify_needs_equal_component_counts(trefoil_result):
    """An isomorphic diagram whose polygon claims one component more fails."""
    poly = trefoil_result.poly
    assert certify(poly, trefoil_result.padded).passed
    extra = replace(poly, components=poly.components + poly.components[:1])
    report = certify(extra, trefoil_result.padded)
    assert not report.passed
    assert (report.components_constructed, report.components_intended) == (2, 1)


@pytest.mark.parametrize("name", ["trefoil", "hopf", "figure-eight"])
def test_realize_and_write_compute_one_bracket_and_verify_none(tmp_path, bracket_calls, name):
    result = realize(RealizationSpec(pattern=PRESETS[name], preset=name))
    assert result.passed and not bracket_calls
    files = write_artifacts(result, tmp_path, canonical=True)
    write_artifacts(result, tmp_path / "timed")
    assert len(bracket_calls) == 1
    assert result.certification.jones_constructed == result.certification.jones_intended
    assert verify_artifacts(files["report"]).passed
    assert len(bracket_calls) == 1


@pytest.mark.parametrize(
    "passages, message",
    [
        ([(0, 0, 0, True, (1, 0))], "crossing 0 has 1 passages, expected 2"),
        ([(0, 0, 0, True, (1, 0)), (0, 1, 0, True, (0, 1))], "crossing 0 needs one over and one under passage"),
        ([(0, 0, 0, True, (1, 0)), (0, 1, 0, False, (-2, 0))], "tangential crossing 0"),
    ],
    ids=["one-passage", "two-over", "parallel"],
)
def test_traversal_pd_rejects_a_malformed_crossing(passages, message):
    with pytest.raises(DomainError, match=message):
        traversal_pd(passages, {0: True})
