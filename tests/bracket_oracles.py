"""Exponential Kauffman bracket oracles for checking the frontier contraction.

Both follow the conventions of ``billiardknots.invariants`` (bracket of the
unknot is 1, A-smoothing of (a, b, c, d) joins a-b and c-d) and share no code
with it: a state sum over all 2^n smoothings, and a skein recursion that
resolves one crossing at a time.
"""

from billiardknots.invariants import DELTA
from billiardknots.laurent import Laurent, lp_pow, lp_scale, lp_shift
from billiardknots.pdcodes import PDCode, _compress_labels

from diagram_helpers import lp_add

STATE_SUM_MAX_CROSSINGS = 24


class StateSumBudgetError(Exception):
    """Diagram exceeds the state-sum crossing budget."""


def state_sum_bracket(pd: PDCode) -> Laurent:
    """State-sum bracket: sum over all 2^n smoothings of A^(#A - #B) delta^(loops-1)."""
    n = pd.crossing_count
    if n > STATE_SUM_MAX_CROSSINGS:
        raise StateSumBudgetError(
            f"{n} crossings exceed the state-sum budget of {STATE_SUM_MAX_CROSSINGS}"
        )
    if n == 0:
        return lp_pow(DELTA, pd.free_loops - 1)

    recs = _compress_labels(pd.crossings)
    num_edges = 2 * n
    # flattened union pairs per crossing and smoothing choice
    a_pairs = [((a, b), (c, d)) for a, b, c, d in recs]
    b_pairs = [((a, d), (b, c)) for a, b, c, d in recs]

    parent = list(range(num_edges))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    init = list(range(num_edges))
    counts: dict[tuple[int, int], int] = {}
    for state in range(1 << n):
        parent[:] = init
        merges = 0
        for i in range(n):
            pairs = b_pairs[i] if (state >> i) & 1 else a_pairs[i]
            for x, y in pairs:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
                    merges += 1
        b_count = bin(state).count("1")
        circles = num_edges - merges + pd.free_loops
        key = (n - 2 * b_count, circles - 1)
        counts[key] = counts.get(key, 0) + 1

    delta_powers = [lp_pow(DELTA, j) for j in range(num_edges + pd.free_loops + 1)]
    total: Laurent = {}
    for (exp_a, delta_exp), mult in counts.items():
        total = lp_add(total, lp_scale(lp_shift(delta_powers[delta_exp], exp_a), mult))
    return total


def skein_bracket(pd: PDCode) -> Laurent:
    """Resolve one crossing at a time, recursively."""

    def merge(crossings: list[list[int]], x: int, y: int) -> tuple[list[list[int]], int]:
        if x == y:
            return crossings, 1
        return [[x if v == y else v for v in rec] for rec in crossings], 0

    def recurse(crossings: list[list[int]], loops: int) -> Laurent:
        if not crossings:
            return lp_pow(DELTA, loops - 1)
        a, b, c, d = crossings[0]
        rest = [list(rec) for rec in crossings[1:]]
        total: Laurent = {}
        for exponent, (p1, p2) in ((1, ((a, b), (c, d))), (-1, ((a, d), (b, c)))):
            work = [list(rec) for rec in rest]
            extra = 0
            # the second pair may mention labels merged by the first
            pair2 = list(p2)
            x, y = p1
            if x == y:
                extra += 1
            else:
                work = [[x if v == y else v for v in rec] for rec in work]
                pair2 = [x if v == y else v for v in pair2]
            work, closed = merge(work, pair2[0], pair2[1])
            extra += closed
            total = lp_add(total, lp_shift(recurse(work, loops + extra), exponent))
        return total

    if not pd.crossings:
        return lp_pow(DELTA, pd.free_loops - 1)
    return recurse([list(rec) for rec in pd.crossings], pd.free_loops)
