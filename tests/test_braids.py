import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiardknots.braids import (
    BraidLetter,
    QuasitoricPattern,
    component_count,
    pad_to_min_repetitions,
    toric_pattern,
    trivial_block,
)
from billiardknots.errors import DomainError
from braid_oracles import closure_permutation
from diagram_helpers import pattern_jones, unlink_jones


def patterns(max_strands=4, max_reps=8):
    return st.integers(2, max_strands).flatmap(
        lambda k: st.integers(1, max_reps).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([1, -1]), min_size=k - 1, max_size=k - 1),
                min_size=n,
                max_size=n,
            ).map(lambda rows: QuasitoricPattern(k, n, tuple(tuple(r) for r in rows)))
        )
    )


def test_toric_pattern_words():
    assert toric_pattern(2, 3).word() == (
        BraidLetter(1, 1), BraidLetter(1, 1), BraidLetter(1, 1))
    assert toric_pattern(3, 2).word() == (
        BraidLetter(1, 1), BraidLetter(2, 1), BraidLetter(1, 1), BraidLetter(2, 1))
    word = toric_pattern(3, 10).word()
    assert len(word) == 20
    assert all(letter.sign == 1 for letter in word)


@pytest.mark.parametrize("k,n", [(1, 3), (0, 1), (2, 0), (3, -2)])
def test_toric_pattern_domain_errors(k, n):
    with pytest.raises(DomainError):
        toric_pattern(k, n)


@pytest.mark.parametrize(
    "k,n,message",
    [(1, 5, "strands must be >= 2, got 1"), (2, 0, "repetitions must be >= 1, got 0")],
)
def test_toric_pattern_domain_error_messages(k, n, message):
    with pytest.raises(DomainError) as excinfo:
        toric_pattern(k, n)
    assert str(excinfo.value) == message


def test_sign_matrix_validation():
    with pytest.raises(DomainError):
        QuasitoricPattern(3, 2, ((1, 1),))  # wrong row count
    with pytest.raises(DomainError):
        QuasitoricPattern(3, 2, ((1,), (1,)))  # wrong column count
    with pytest.raises(DomainError):
        QuasitoricPattern(2, 1, ((2,),))  # bad entry


def test_closure_permutation_small():
    assert closure_permutation(toric_pattern(2, 1)).images == (1, 0)
    assert closure_permutation(toric_pattern(2, 2)).images == (0, 1)


def test_closure_permutation_explicit_product():
    # independent oracle: multiply the 20 transpositions directly
    pattern = toric_pattern(3, 10)
    positions = list(range(3))
    for letter in pattern.word():
        p = letter.generator_index - 1
        positions[p], positions[p + 1] = positions[p + 1], positions[p]
    # positions[i] = strand occupying slot i at the top; invert to images
    images = [0] * 3
    for slot, strand in enumerate(positions):
        images[strand] = slot
    assert closure_permutation(pattern).images == tuple(images)
    assert len(closure_permutation(pattern).cycles()) == math.gcd(3, 10)


@pytest.mark.parametrize(
    "k,n,expected", [(2, 10, 2), (3, 9, 3), (2, 5, 1)]
)
def test_component_counts(k, n, expected):
    assert component_count(toric_pattern(k, n)) == expected


def test_component_count_gcd_exhaustive():
    for k in range(2, 7):
        for n in range(1, 31):
            pattern = toric_pattern(k, n)
            assert component_count(pattern) == len(closure_permutation(pattern).cycles()), (k, n)


def test_component_count_matches_the_closure_permutation_on_random_patterns():
    """gcd(strands, repetitions) counts the cycles of the simulated closure
    permutation on random sign matrices and on their padded forms."""
    rng = random.Random(2011)
    for _ in range(300):
        k, n = rng.randint(2, 9), rng.randint(1, 60)
        signs = tuple(tuple(rng.choice((1, -1)) for _ in range(k - 1)) for _ in range(n))
        pattern = QuasitoricPattern(k, n, signs)
        for p in (pattern, pad_to_min_repetitions(pattern)):
            assert component_count(p) == len(closure_permutation(p).cycles()), p


def test_pad_noop_in_regime():
    pattern = QuasitoricPattern(2, 5, ((1,), (1,), (-1,), (1,), (-1,)))
    assert pad_to_min_repetitions(pattern) is pattern


def test_pad_figure_eight_preserves_jones():
    pattern = QuasitoricPattern(3, 2, ((1, -1), (1, -1)))
    padded = pad_to_min_repetitions(pattern)
    assert (padded.strands, padded.repetitions) == (3, 8)
    assert padded.signs[:2] == pattern.signs
    assert pattern_jones(padded) == pattern_jones(pattern)


def test_pad_identity_braid_gives_unlink():
    # sigma_1 sigma_1^-1 closes to the 2-component unlink; padding keeps it
    pattern = QuasitoricPattern(2, 2, ((1,), (-1,)))
    padded = pad_to_min_repetitions(pattern)
    assert (padded.strands, padded.repetitions) == (2, 6)
    expected = unlink_jones(2)
    assert pattern_jones(pattern) == expected
    assert pattern_jones(padded) == expected


@pytest.mark.parametrize("k", [2, 3])
def test_trivial_block_closure_is_unlink(k):
    rows = trivial_block(k)
    pattern = QuasitoricPattern(k, 2 * k, rows)
    assert pattern_jones(pattern) == unlink_jones(k)
    assert component_count(pattern) == k


@given(patterns())
@settings(max_examples=60, deadline=None)
def test_padding_preserves_cycle_count(pattern):
    padded = pad_to_min_repetitions(pattern)
    assert padded.repetitions >= 2 * padded.strands + 1
    before = len(closure_permutation(pattern).cycles())
    after = len(closure_permutation(padded).cycles())
    assert before == after


@given(patterns())
@settings(max_examples=60, deadline=None)
def test_closure_permutation_sign_independent(pattern):
    all_plus = toric_pattern(pattern.strands, pattern.repetitions)
    assert closure_permutation(pattern).images == closure_permutation(all_plus).images
