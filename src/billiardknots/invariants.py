"""Kauffman bracket and Jones polynomial, plus the end-to-end certificate.

Conventions (fixed here and locked by the torus-knot tests):

* bracket of the unknot is 1, a disjoint unknot multiplies by
  delta = -A^2 - A^(-2);
* A-smoothing of a crossing record (a, b, c, d) joins a-b and c-d,
  B-smoothing joins a-d and b-c;
* Jones is (-A)^(-3 writhe) * bracket under A = t^(-1/4), returned in
  t^(1/2) units (exponents are integers over denominator 2);
* a crossing is positive when the frame (over direction, under direction)
  is positively oriented, which makes a positive braid letter a positive
  crossing.

The bracket is computed by frontier contraction (Kauffman, "State models and
the Jones polynomial", Topology 26, 1987; the same local tangle contraction as
Bar-Natan, arXiv:math/0606318), in time polynomial in the crossing count for
braid closures and star diagrams.  The exponential state sum and skein
recursion live in the tests as oracles.

``certify`` proves that the realized diagram is the braid closure: one
oriented diagram (``pdcodes.diagram_isomorphic``) with equal component
counts.  The Jones polynomial is the report's invariant, not its proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .braids import QuasitoricPattern, component_count
from .laurent import Laurent, lp_mul, lp_pow, lp_scale, lp_shift, lp_to_string
from .pdcodes import PDCode, braid_closure_pd, diagram_isomorphic, traversal_pd
from .stars import over_flags_from_signs


DELTA: Laurent = {2: -1, -2: -1}  # -A^2 - A^(-2)


# terms of A^s delta^k for a smoothing of exponent s that closes k loops;
# one crossing closes at most 2
_SMOOTHING_FACTORS = {
    (s, k): list(lp_shift(lp_pow(DELTA, k), s).items()) for s in (1, -1) for k in range(3)
}


def _contraction_order(records: tuple[tuple[int, int, int, int], ...]) -> list[int]:
    """Greedy crossing order: most labels shared with the open boundary first,
    ties broken by the lower index."""
    remaining = list(range(len(records)))
    open_labels: set[int] = set()
    order = []
    while remaining:
        best = max(remaining, key=lambda i: (sum(x in open_labels for x in records[i]), -i))
        remaining.remove(best)
        order.append(best)
        open_labels ^= {x for x in records[best] if records[best].count(x) == 1}
    return order


def _smooth(matching: dict[int, int], arcs) -> tuple[dict[int, int], int]:
    """Join the open tangle ``matching`` with the two smoothing arcs of one
    crossing; returns the new matching of open labels and the loops closed."""
    m = dict(matching)
    loops = 0
    for u, v in arcs:
        if m.get(u, u) == v:  # the arc closes a loop (or joins a label to itself)
            m.pop(u, None)
            m.pop(v, None)
            loops += 1
            continue
        u_end = m.pop(u) if u in m else u
        v_end = m.pop(v) if v in m else v
        m[u_end] = v_end
        m[v_end] = u_end
    return m, loops


def _divide_by_delta(p: Laurent) -> Laurent:
    """Exact quotient p / delta, with delta = -A^(-2) (1 + A^4)."""
    rest = lp_shift(lp_scale(p, -1), 2)
    quotient: Laurent = {}
    for e in range(min(rest), max(rest) + 1):
        c = rest.pop(e, 0)
        if c:
            quotient[e] = c
            rest[e + 4] = rest.get(e + 4, 0) - c
    if any(rest.values()):
        raise AssertionError("contracted loop sum is not divisible by delta")
    return quotient


def kauffman_bracket(pd: PDCode) -> Laurent:
    """Bracket by frontier contraction of the planar diagram.

    Crossings are added one at a time (``_contraction_order``).  The open
    tangle is kept as a dict from the matching of its open edge labels
    (through already-smoothed crossings) to the Laurent polynomial summing
    A^(#A - #B) delta^(closed loops) over the smoothings that produce it.
    For a planar diagram the matchings are non-crossing, so the number of
    states is at most Catalan(open labels / 2); cost is O(n * width).
    """
    if not pd.crossings:
        return lp_pow(DELTA, pd.free_loops - 1)

    records = pd.crossings
    frontier: list[int] = []  # open labels in a fixed order: matchings key on it
    states: dict[tuple[int, ...], Laurent] = {(): {0: 1}}
    for i in _contraction_order(records):
        a, b, c, d = records[i]
        smoothings = ((1, ((a, b), (c, d))), (-1, ((a, d), (b, c))))
        closing = set(frontier).intersection(records[i])
        opening = [x for x in records[i] if records[i].count(x) == 1 and x not in closing]
        new_frontier = [x for x in frontier if x not in closing] + opening
        new_states: dict[tuple[int, ...], Laurent] = {}
        for key, poly in states.items():
            matching = dict(zip(frontier, key))
            for exponent, arcs in smoothings:
                m, loops = _smooth(matching, arcs)
                target = new_states.setdefault(tuple(m[x] for x in new_frontier), {})
                for fe, fc in _SMOOTHING_FACTORS[exponent, loops]:
                    for e, coeff in poly.items():
                        target[e + fe] = target.get(e + fe, 0) + coeff * fc
        frontier = new_frontier
        states = {k: {e: v for e, v in p.items() if v} for k, p in new_states.items()}

    total = states[()]
    # every state closes at least one loop; <unknot> = 1 removes one delta
    return lp_mul(_divide_by_delta(total), lp_pow(DELTA, pd.free_loops))


def jones(pd: PDCode, writhe: int) -> Laurent:
    """Jones polynomial in t^(1/2) units: keys are doubled exponents."""
    normalized = lp_scale(lp_shift(kauffman_bracket(pd), -3 * writhe), (-1) ** (writhe % 2))
    out: Laurent = {}
    for exp_a, coeff in normalized.items():
        if exp_a % 2:
            raise AssertionError(f"odd A-exponent {exp_a} after writhe normalization")
        out[-exp_a // 2] = coeff
    return out


def jones_string(poly: Laurent) -> str:
    return lp_to_string(poly, variable="t", denominator=2)


@dataclass(frozen=True)
class CertificationReport:
    """The Jones polynomials are computed on first read and then kept; on
    an isomorphism the two codes have one bracket and one writhe."""

    passed: bool
    components_constructed: int
    components_intended: int
    constructed: tuple[PDCode, int] = field(repr=False)  # (code, writhe)
    intended: tuple[PDCode, int] = field(repr=False)

    @cached_property
    def jones_intended(self) -> Laurent:
        return jones(*self.intended)

    @cached_property
    def jones_constructed(self) -> Laurent:
        return self.jones_intended if self.passed else jones(*self.constructed)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"certify={status}: constructed {jones_string(self.jones_constructed)} "
            f"({self.components_constructed} comp), intended "
            f"{jones_string(self.jones_intended)} ({self.components_intended} comp)"
        )


def certify(poly, pattern: QuasitoricPattern) -> CertificationReport:
    """Certify that the realized diagram is the closure of ``pattern``.

    The constructed side is one ``traversal_pd`` call on the strand passages
    of ``poly`` with the over-flags of its star's signs, its components
    counted in ``poly.components``; the intended side is ``braid_closure_pd``
    of the braid word, with the word's signs.  The report passes only when
    the signed codes are isomorphic and the component counts agree.  The
    signs are the trajectory's over/under only once its exact heights
    satisfy conditions (a)-(c) (``heights.confirm_heights``), so a caller
    certifies heights that passed it: the height search returns only such
    heights, and ``verify`` runs it on the stored ones first.

    The handedness comes from the polygon's directions of travel (its line
    slopes, signed by the layout's ``forward``), so this reads ``poly`` and
    not only the star's combinatorics: the layout
    check cannot see a reflection of every line (a, b) to (-a, -b), which
    keeps the star's crossings and their order, but it flips every
    crossing of ``traversal_pd``, and a chiral closure then fails here.
    """
    pd, sign_map = traversal_pd(poly.passages(), over_flags_from_signs(poly.star))
    signs = [sign_map[c] for c in sorted(sign_map)]
    closure = braid_closure_pd(pattern)
    word_signs = [letter.sign for letter in pattern.word()]
    comp_constructed, comp_intended = len(poly.components), component_count(pattern)
    isomorphic = diagram_isomorphic(pd, signs, closure, word_signs) is not None
    return CertificationReport(
        passed=isomorphic and comp_constructed == comp_intended,
        components_constructed=comp_constructed,
        components_intended=comp_intended,
        constructed=(pd, sum(signs)),
        intended=(closure, sum(word_signs)),
    )
