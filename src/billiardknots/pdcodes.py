"""Planar-diagram (PD) codes.

A PD code lists one record per crossing: the four incident edge labels in
counterclockwise order starting from the incoming under-strand.  Edge labels
are the segments between consecutive crossing passages along the curve, so
every label occurs exactly twice over all records.  Closed components without
any crossing are carried separately in ``free_loops``.

``braid_closure_pd`` reads the code of a quasitoric braid's closure off its
word.  ``traversal_pd`` reads the code of a drawn diagram, in one call, off
its strand passages and over-flags; for a realized trajectory these are
``PerturbedPolygon.passages()`` and the over-flags of its star's signs.
``diagram_isomorphic`` decides whether two signed codes are one oriented
diagram on the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import QuasitoricPattern
from .errors import DomainError


@dataclass(frozen=True)
class PDCode:
    crossings: tuple[tuple[int, int, int, int], ...]
    free_loops: int = 0

    def __post_init__(self):
        counts: dict[int, int] = {}
        for rec in self.crossings:
            for label in rec:
                counts[label] = counts.get(label, 0) + 1
        bad = {a: c for a, c in counts.items() if c != 2}
        if bad:
            raise DomainError(f"edge labels must occur exactly twice, offenders: {bad}")
        if not self.crossings and self.free_loops < 1:
            raise DomainError("a diagram with no crossings needs at least one free loop")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


def _compress_labels(records: list[list[int]]) -> tuple[tuple[int, int, int, int], ...]:
    labels = sorted({x for rec in records for x in rec})
    remap = {old: new for new, old in enumerate(labels)}
    return tuple(tuple(remap[x] for x in rec) for rec in records)


def braid_closure_pd(pattern: QuasitoricPattern) -> PDCode:
    """PD code of the standard closure of a quasitoric braid word.

    Reading the word upward: a positive letter sends the strand entering at
    the left position over the one from the right.
    """
    k = pattern.strands
    current = list(range(k))  # edge label at each strand position
    used = [False] * k
    next_label = k
    records: list[list[int]] = []
    for letter in pattern.word():
        p = letter.generator_index - 1
        left_in, right_in = current[p], current[p + 1]
        left_out, right_out = next_label, next_label + 1
        next_label += 2
        if letter.sign > 0:
            # under-strand comes from the right: CCW order from its entry
            records.append([right_in, right_out, left_out, left_in])
        else:
            records.append([left_in, right_in, right_out, left_out])
        current[p], current[p + 1] = left_out, right_out
        used[p] = used[p + 1] = True

    free_loops = sum(1 for p in range(k) if not used[p])
    merge = {current[p]: p for p in range(k) if used[p]}
    merged = [[merge.get(x, x) for x in rec] for rec in records]
    if not merged:
        return PDCode((), free_loops=free_loops)
    return PDCode(_compress_labels(merged), free_loops=free_loops)


def traversal_pd(passages, over_a_side: dict[int, bool]) -> tuple[PDCode, dict[int, int]]:
    """PD code of a diagram given by its strand passages.

    ``passages`` holds one (component, sort key, crossing id, on chord_a,
    direction) per strand passage, ``direction`` being the 2D direction of
    travel, or any positive multiple of it, in any exact type (integers,
    Fractions) or at high precision; only the sign of each determinant of
    two directions is read.  ``over_a_side[i]`` says whether the chord_a
    strand passes over at crossing i.  Each component's passages are sorted
    by their keys, and edge labels run along the components in index
    order.  A realized polygon's keys are the passages' indices in the
    star's ``passage_order``, already in order, and its directions integer
    vectors (``PerturbedPolygon.passages()``).  A
    component appears only through its passages (every component of a star
    has some); a diagram without passages is one free loop.

    Returns the code and the crossing sign map {crossing_id: +1/-1} for
    writhe bookkeeping (positive when the over direction, then the under
    direction, form a positively oriented frame).
    """
    per_comp: dict[int, list[tuple]] = {}
    for comp, key, crossing, on_a, direction in passages:
        per_comp.setdefault(comp, []).append((key, crossing, over_a_side[crossing] == on_a, direction))
    # per crossing: (is over, direction, incoming label, outgoing label) of each passage
    strands: dict[int, list[tuple]] = {}
    next_edge = 0
    for comp in sorted(per_comp):
        events = sorted(per_comp[comp], key=lambda ev: ev[0])
        m = len(events)
        for i, (_, crossing, is_over, direction) in enumerate(events):
            strands.setdefault(crossing, []).append(
                (is_over, direction, next_edge + (i - 1) % m, next_edge + i)
            )
        next_edge += m

    records: list[list[int]] = []
    signs: dict[int, int] = {}
    for cid, pair in sorted(strands.items()):
        if len(pair) != 2:
            raise DomainError(f"crossing {cid} has {len(pair)} passages, expected 2")
        if pair[0][0] == pair[1][0]:
            raise DomainError(f"crossing {cid} needs one over and one under passage")
        (_, do, o_in, o_out), (_, du, u_in, u_out) = pair if pair[0][0] else pair[::-1]
        det = du[0] * do[1] - du[1] * do[0]
        if det == 0:
            raise DomainError(f"tangential crossing {cid}")
        if det > 0:
            records.append([u_in, o_in, u_out, o_out])
        else:
            records.append([u_in, o_out, u_out, o_in])
        signs[cid] = -1 if det > 0 else 1

    if not records:
        return PDCode((), free_loops=1), signs
    return PDCode(_compress_labels(records)), signs


def _partners(records) -> list[list[tuple[int, int]]]:
    """(record, position) of the other occurrence of each record position's label."""
    first: dict[int, tuple[int, int]] = {}
    partner: list[list] = [[None] * 4 for _ in records]
    for r, rec in enumerate(records):
        for k, label in enumerate(rec):
            if label not in first:
                first[label] = (r, k)
                continue
            r2, k2 = first.pop(label)
            partner[r][k], partner[r2][k2] = (r2, k2), (r, k)
    return partner


def diagram_isomorphic(pd1: PDCode, signs1, pd2: PDCode, signs2) -> tuple[int, ...] | None:
    """A map ``image`` of pd1's records onto pd2's, or None if none exists,
    such that one edge relabelling sends record r to record image[r] slot by
    slot, with ``signs1[r] == signs2[image[r]]``.  A record starts at the
    incoming under edge and its sign fixes the over strand's direction, so
    the codes are then one oriented diagram on the sphere.  Fixing one
    record's image forces its neighbours' through each label's other
    occurrence: a connected diagram costs at most n tries of O(n).  A split
    diagram's parts map onto whole parts, and isomorphic parts are
    interchangeable, so each part keeps the first image found for it.
    """
    n = pd1.crossing_count
    if n != pd2.crossing_count or pd1.free_loops != pd2.free_loops:
        return None
    part1, part2 = _partners(pd1.crossings), _partners(pd2.crossings)
    image: list[int | None] = [None] * n
    taken = [False] * n

    def grow(r: int, s: int) -> bool:
        """Map r to s and all that forces, or nothing on a contradiction."""
        added: list[int] = []
        stack = [(r, s)]
        while stack:
            r, s = stack.pop()
            if image[r] == s:
                continue
            ok = image[r] is None and not taken[s] and signs1[r] == signs2[s]
            if ok:
                image[r], taken[s] = s, True
                added.append(r)
                pairs = list(zip(part1[r], part2[s]))
                ok = all(k == m for (_, k), (_, m) in pairs)
                stack.extend((r2, s2) for (r2, _), (s2, _) in pairs)
            if not ok:
                for a in added:
                    taken[image[a]], image[a] = False, None
                return False
        return True

    for r in range(n):
        if image[r] is None and not any(grow(r, s) for s in range(n)):
            return None
    return tuple(image)
