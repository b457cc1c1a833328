"""Planar-diagram (PD) codes.

A PD code lists one record per crossing: the four incident edge labels in
counterclockwise order starting from the incoming under-strand.  Edge labels
are the segments between consecutive crossing passages along the curve, so
every label occurs exactly twice over all records.  Closed components without
any crossing are carried separately in ``free_loops``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class PassageEvent:
    """One strand passage through a crossing, in traversal order."""

    crossing_id: int
    is_over: bool
    direction: tuple  # 2D direction of travel; any exact/high-precision numeric


@dataclass
class DiagramTraversal:
    """Per-component passage events of a planar diagram, in arc order."""

    components: list[list[PassageEvent]] = field(default_factory=list)


def passage_traversal(n_components: int, passages, over_a_side: dict[int, bool]) -> DiagramTraversal:
    """Passage events per component, each component sorted by its keys.

    ``passages`` holds one (component, sort key, crossing id, on chord_a,
    direction) per strand passage; ``over_a_side[i]`` says whether the
    chord_a strand passes over at crossing i.
    """
    per_comp: list[list[tuple]] = [[] for _ in range(n_components)]
    for comp, key, crossing, on_a, direction in passages:
        per_comp[comp].append((key, PassageEvent(crossing, over_a_side[crossing] == on_a, direction)))
    traversal = DiagramTraversal()
    for items in per_comp:
        items.sort(key=lambda pair: pair[0])
        traversal.components.append([ev for _, ev in items])
    return traversal


def traversal_pd(traversal: DiagramTraversal) -> tuple[PDCode, dict[int, int]]:
    """Build the PD code of a traversed diagram.

    Returns the code and the crossing sign map {crossing_id: +1/-1} for
    writhe bookkeeping (positive when the over direction, then the under
    direction, form a positively oriented frame).
    """
    free_loops = 0
    next_edge = 0
    # per event: incoming and outgoing edge labels
    incoming: dict[tuple[int, int], int] = {}
    outgoing: dict[tuple[int, int], int] = {}
    events_by_crossing: dict[int, list[tuple[int, int]]] = {}
    for ci, events in enumerate(traversal.components):
        if not events:
            free_loops += 1
            continue
        m = len(events)
        labels = list(range(next_edge, next_edge + m))
        next_edge += m
        for i, ev in enumerate(events):
            outgoing[(ci, i)] = labels[i]
            incoming[(ci, i)] = labels[(i - 1) % m]
            events_by_crossing.setdefault(ev.crossing_id, []).append((ci, i))

    records: list[list[int]] = []
    signs: dict[int, int] = {}
    for cid, places in sorted(events_by_crossing.items()):
        if len(places) != 2:
            raise DomainError(f"crossing {cid} has {len(places)} passages, expected 2")
        ev_a = traversal.components[places[0][0]][places[0][1]]
        ev_b = traversal.components[places[1][0]][places[1][1]]
        if ev_a.is_over == ev_b.is_over:
            raise DomainError(f"crossing {cid} needs one over and one under passage")
        under_place, over_place = (places[1], places[0]) if ev_a.is_over else (places[0], places[1])
        under_ev = traversal.components[under_place[0]][under_place[1]]
        over_ev = traversal.components[over_place[0]][over_place[1]]
        du, do = under_ev.direction, over_ev.direction
        det = du[0] * do[1] - du[1] * do[0]
        if det == 0:
            raise DomainError(f"tangential crossing {cid}")
        u_in, u_out = incoming[under_place], outgoing[under_place]
        o_in, o_out = incoming[over_place], outgoing[over_place]
        if det > 0:
            records.append([u_in, o_in, u_out, o_out])
        else:
            records.append([u_in, o_out, u_out, o_in])
        signs[cid] = -1 if det > 0 else 1

    if not records:
        return PDCode((), free_loops=max(free_loops, 1)), signs
    return PDCode(_compress_labels(records), free_loops=free_loops), signs
