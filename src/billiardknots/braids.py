"""Toric and quasitoric braid patterns and their closure combinatorics.

A quasitoric pattern of type (k, n) is the braid word
(sigma_1^e .. sigma_{k-1}^e)^n read row by row from an n x (k-1) sign
matrix; the all-positive matrix gives the toric braid whose closure is the
torus link T(n, k).  Sign convention: +1 means the strand entering the
crossing from the left passes over the one from the right, reading the word
upward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError


class BraidLetter(NamedTuple):
    generator_index: int  # 1-based, in [1, strands-1]
    sign: int             # +1 or -1


@dataclass(frozen=True)
class QuasitoricPattern:
    """Sign matrix for a quasitoric braid: ``signs[row][col]`` modifies the
    crossing sigma_{col+1} in repetition ``row`` of the underlying toric word."""

    strands: int
    repetitions: int
    signs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.strands < 2:
            raise DomainError(f"strands must be >= 2, got {self.strands}")
        if self.repetitions < 1:
            raise DomainError(f"repetitions must be >= 1, got {self.repetitions}")
        if len(self.signs) != self.repetitions:
            raise DomainError(
                f"sign matrix has {len(self.signs)} rows, expected {self.repetitions}"
            )
        for row in self.signs:
            if len(row) != self.strands - 1:
                raise DomainError(
                    f"sign matrix row has {len(row)} entries, expected {self.strands - 1}"
                )
            for entry in row:
                if entry not in (1, -1):
                    raise DomainError(f"sign entries must be +1 or -1, got {entry!r}")

    def word(self) -> tuple[BraidLetter, ...]:
        """Row-major braid word; generator indices cycle 1..k-1 in each row."""
        return tuple(
            BraidLetter(col + 1, sign)
            for row in self.signs
            for col, sign in enumerate(row)
        )

    def writhe(self) -> int:
        return sum(sum(row) for row in self.signs)

    def mirrored(self) -> "QuasitoricPattern":
        """Pattern with every crossing switched (closure of the mirror image)."""
        return QuasitoricPattern(
            self.strands,
            self.repetitions,
            tuple(tuple(-s for s in row) for row in self.signs),
        )


@dataclass(frozen=True)
class StrandPermutation:
    """Permutation induced on strand positions by a braid word."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise DomainError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycle = []
            j = start
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return tuple(out)


def toric_pattern(k: int, n: int) -> QuasitoricPattern:
    """The toric braid (sigma_1 ... sigma_{k-1})^n as an all-positive pattern."""
    if k < 2:
        raise DomainError(f"strands must be >= 2, got {k}")
    if n < 1:
        raise DomainError(f"repetitions must be >= 1, got {n}")
    return QuasitoricPattern(k, n, tuple(tuple(1 for _ in range(k - 1)) for _ in range(n)))


def closure_permutation(pattern: QuasitoricPattern) -> StrandPermutation:
    """Product of the transpositions under each letter (signs are irrelevant)."""
    images = list(range(pattern.strands))
    # images[p] = strand position where the strand currently at p ends up;
    # build by composing transpositions left to right.
    position_of = list(range(pattern.strands))  # position_of[s] = current position of strand s
    strand_at = list(range(pattern.strands))
    for letter in pattern.word():
        p = letter.generator_index - 1
        a, b = strand_at[p], strand_at[p + 1]
        strand_at[p], strand_at[p + 1] = b, a
        position_of[a], position_of[b] = p + 1, p
    for s in range(pattern.strands):
        images[s] = position_of[s]
    return StrandPermutation(tuple(images))


def component_count(pattern: QuasitoricPattern) -> int:
    """Number of link components of the closure (cycles of the permutation)."""
    return len(closure_permutation(pattern).cycles())


def trivial_block(k: int) -> tuple[tuple[int, ...], ...]:
    """2k sign rows whose word is the full twist times its inverse (identity)."""
    plus = tuple(tuple(1 for _ in range(k - 1)) for _ in range(k))
    minus = tuple(tuple(-1 for _ in range(k - 1)) for _ in range(k))
    return plus + minus


def pad_to_min_repetitions(pattern: QuasitoricPattern) -> QuasitoricPattern:
    """Append identity-braid blocks until repetitions >= 2*strands + 1.

    Each appended block is k all-(+1) rows followed by k all-(-1) rows; the
    word it contributes is the full twist times its inverse, so the closure
    isotopy type is unchanged.
    """
    k = pattern.strands
    if pattern.repetitions >= 2 * k + 1:
        return pattern
    rows = list(pattern.signs)
    while len(rows) < 2 * k + 1:
        rows.extend(trivial_block(k))
    return QuasitoricPattern(k, len(rows), tuple(rows))

