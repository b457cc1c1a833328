"""Reference closure permutation of a quasitoric braid.

``closure_permutation`` composes the transposition under every letter of
the braid word, so its cycles are the closure's components.  It shares no
logic with ``billiardknots.braids.component_count``, which returns
gcd(strands, repetitions), and serves as the oracle that count is compared
against.
"""

from dataclasses import dataclass

from billiardknots.braids import QuasitoricPattern
from billiardknots.errors import DomainError


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
