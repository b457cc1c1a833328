"""Toric and quasitoric braid patterns and their closure combinatorics.

A quasitoric pattern of type (k, n) is the braid word
(sigma_1^e .. sigma_{k-1}^e)^n read row by row from an n x (k-1) sign
matrix; the all-positive matrix gives the toric braid whose closure is the
torus link T(n, k).  Sign convention: +1 means the strand entering the
crossing from the left passes over the one from the right, reading the word
upward.
"""

from __future__ import annotations

import math
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

    def mirrored(self) -> "QuasitoricPattern":
        """Pattern with every crossing switched (closure of the mirror image)."""
        return QuasitoricPattern(
            self.strands,
            self.repetitions,
            tuple(tuple(-s for s in row) for row in self.signs),
        )


def toric_pattern(k: int, n: int) -> QuasitoricPattern:
    """The toric braid (sigma_1 ... sigma_{k-1})^n as an all-positive pattern."""
    return QuasitoricPattern(k, n, tuple(tuple(1 for _ in range(k - 1)) for _ in range(n)))


def component_count(pattern: QuasitoricPattern) -> int:
    """Number of link components of the closure: gcd(strands, repetitions).
    Whatever its signs, each row permutes the strands by the same k-cycle,
    and the n-th power of a k-cycle has gcd(k, n) cycles."""
    return math.gcd(pattern.strands, pattern.repetitions)


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

