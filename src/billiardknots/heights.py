"""Sawtooth heights: turn the plane diagram into a 3D prism trajectory.

The height function is z(t) = 2 |frac(f t + phi) - 1/2| with an integer
frequency f and a phase phi in [0, 1); it bounces off the prism's floor
(z = 0, at half-integer values of f t + phi) and ceiling (z = 1, at integer
values).  Density of {frac(f t_i + phi)} over Q-independent arcs guarantees
some (f, phi) realizes any prescribed over/under pattern; here that
existence argument is replaced by a finite deterministic search in f
ascending, phi on a uniform rational grid, smallest solution accepted.

Search conditions, with a uniform ``margin``:
  (a) each crossing's two passage heights differ by at least ``margin``,
      ordered as prescribed;
  (b) wall-vertex heights stay in [margin, 1 - margin];
  (c) no floor/ceiling bounce comes within margin/(2f) in arc length of a
      wall vertex or crossing passage, which is the same as keeping all
      event heights in [margin, 1 - margin].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import DomainError, SearchExhaustedError
from .pdcodes import DiagramTraversal
from .perturbation import PerturbedPolygon, _fraction_mpf
from .stars import ArcTable

DEFAULT_MARGIN = 1e-3
DEFAULT_F_MAX = 10_000
DENOM_BITS = 31  # fallback phase denominators when a window misses the grid


@dataclass(frozen=True)
class SawtoothHeight:
    frequency: int
    phase: Fraction

    def __post_init__(self):
        if self.frequency < 1:
            raise DomainError(f"frequency must be >= 1, got {self.frequency}")
        if not 0 <= self.phase < 1:
            raise DomainError(f"phase must lie in [0, 1), got {self.phase}")

    @classmethod
    def anchored(cls, frequency: int, z0: Fraction) -> "SawtoothHeight":
        """Phase from a prescribed start height via phi = 1/2 + z0/2."""
        if not 0 < z0 < 1:
            raise DomainError(f"start height must lie in (0, 1), got {z0}")
        return cls(frequency, Fraction(1, 2) + Fraction(z0) / 2)

    def start_height(self) -> Fraction:
        y = self.phase - Fraction(int(self.phase))
        return abs(2 * y - 1)


def evaluate_sawtooth(s: SawtoothHeight, t):
    """z(t) = 2 |frac(f t + phi) - 1/2|, valid for mpf, Fraction, or float t."""
    if isinstance(t, Fraction):
        y = s.frequency * t + s.phase
        fy = y - (y.numerator // y.denominator)
        return abs(2 * fy - 1)
    if isinstance(t, mp.mpf):
        y = s.frequency * t + _fraction_mpf(s.phase)
        return abs(2 * (y - mp.floor(y)) - 1)
    y = s.frequency * float(t) + float(s.phase)
    return abs(2 * (y - math.floor(y)) - 1.0)


def signed_residue(frequency: int, phase, t):
    """The quantity 2 frac(f t + phi) - 1, whose sign resolves z into a
    signed height (the parity-obstruction bookkeeping)."""
    y = frequency * t + phase
    fy = y - mp.floor(y) if isinstance(y, mp.mpf) else y - int(y)
    return 2 * fy - 1


@dataclass(frozen=True)
class HeightConstraint:
    crossing: int
    first_component: int
    first_arc: object
    second_component: int
    second_arc: object
    first_over: bool


def build_height_constraints(diagram, table: ArcTable) -> tuple[HeightConstraint, ...]:
    """One constraint per crossing from a sign-attached star and an arc table.

    The passage listed first is the one earlier in (component, arc) order; a
    positive crossing sign puts the chord_a passage on top.
    """
    if not diagram.signs_attached:
        raise DomainError("diagram has no signs attached")
    places: dict[int, list] = {}
    for ci, passages in enumerate(table.passages):
        for ps in passages:
            places.setdefault(ps.crossing, []).append((ci, ps.arc, ps.is_a_side))
    constraints = []
    for c in diagram.crossings:
        pair = sorted(places[c.index], key=lambda item: (item[0], item[1]))
        if len(pair) != 2:
            raise DomainError(f"crossing {c.index} has {len(pair)} passages")
        (c1, a1, on_a1), (c2, a2, _) = pair
        first_over = on_a1 == (c.sign > 0)
        constraints.append(HeightConstraint(c.index, c1, a1, c2, a2, first_over))
    return tuple(constraints)


@dataclass(frozen=True)
class SearchDiagnostics:
    f_max: int
    best: tuple[SawtoothHeight, ...] | None
    satisfied: int
    total: int
    unsatisfied: tuple[int, ...]


def _component_groups(n_components: int, constraints) -> list[list[int]]:
    parent = list(range(n_components))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in constraints:
        ra, rb = find(c.first_component), find(c.second_component)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(n_components):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def _sawtooth_array(f: int, arcs: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """z values on the outer grid arcs x phis (float64 screening)."""
    y = f * arcs[:, None] + phis[None, :]
    return np.abs(2.0 * (y - np.floor(y)) - 1.0)


def _subtract_interval(segs, lo, hi):
    out = []
    for a, b in segs:
        if hi <= a or lo >= b:
            out.append((a, b))
            continue
        if lo > a:
            out.append((a, lo))
        if hi < b:
            out.append((hi, b))
    return out


def _intersect_intervals(s1, s2):
    out = []
    i = j = 0
    while i < len(s1) and j < len(s2):
        a = max(s1[i][0], s2[j][0])
        b = min(s1[i][1], s2[j][1])
        if a < b:
            out.append((a, b))
        if s1[i][1] < s2[j][1]:
            i += 1
        else:
            j += 1
    return out


def _feasible_phase_intervals(f: int, event_arcs, constraints, margin: float):
    """Exact feasible phi set for one component at frequency f.

    Every condition is piecewise linear in phi with at most four kinks, so
    the feasible set is a short list of intervals; this makes the
    single-component search complete relative to the margin instead of
    sampling phi.  Float64 suffices: kink positions are known to ~1e-13
    while margins are >= 1e-6.
    """
    segs = [(0.0, 1.0)]
    half = margin / 2.0
    for t in event_arcs:
        for center in ((-f * t) % 1.0, (0.5 - f * t) % 1.0):
            for shift in (-1.0, 0.0, 1.0):
                lo, hi = center + shift - half, center + shift + half
                if hi > 0.0 and lo < 1.0:
                    segs = _subtract_interval(segs, max(lo, 0.0), min(hi, 1.0))
                if not segs:
                    return []

    def z_at(t, phi):
        y = f * t + phi
        return abs(2.0 * (y - math.floor(y)) - 1.0)

    for c in constraints:
        t1, t2 = float(c.first_arc), float(c.second_arc)
        sign = 1.0 if c.first_over else -1.0
        kinks = sorted(
            {0.0, 1.0, (-f * t1) % 1.0, (0.5 - f * t1) % 1.0, (-f * t2) % 1.0, (0.5 - f * t2) % 1.0}
        )
        good = []
        for a, b in zip(kinks, kinks[1:]):
            width = b - a
            if width < 1e-14:
                continue
            da = sign * (z_at(t1, a + 1e-9 * width) - z_at(t2, a + 1e-9 * width))
            db = sign * (z_at(t1, b - 1e-9 * width) - z_at(t2, b - 1e-9 * width))
            if da >= margin and db >= margin:
                good.append((a, b))
            elif da >= margin or db >= margin:
                lam = (margin - da) / (db - da)
                x = a + lam * width
                good.append((a, x) if da >= margin else (x, b))
        segs = _intersect_intervals(segs, good)
        if not segs:
            return []
    return segs


def _count_satisfied(f: int, phi: float, constraints, margin: float) -> list[int]:
    """Constraint indices violated at (f, phi) (single component)."""

    def z_at(t):
        y = f * float(t) + phi
        return abs(2.0 * (y - math.floor(y)) - 1.0)

    bad = []
    for i, c in enumerate(constraints):
        z1, z2 = z_at(c.first_arc), z_at(c.second_arc)
        if abs(z1 - z2) < margin or (z1 > z2) != c.first_over:
            bad.append(i)
    return bad


def _search_single_component(comp, event_arcs, constraints, grid_count_per_f, table, f_max, margin):
    """Complete f-ascending search via exact phase intervals.

    Prefers the smallest point of the nominal phase grid inside the first
    feasible interval, keeping the grid-index ordering of the sampled
    search; falls back to the interval midpoint when the window is
    narrower than the grid step.
    """
    best = None
    best_bad = None
    for f in range(1, f_max + 1):
        segs = _feasible_phase_intervals(f, event_arcs, constraints, margin)
        for lo, hi in segs:
            n_grid = grid_count_per_f * f
            j = math.ceil(lo * n_grid)
            candidates = []
            if j / n_grid < hi:
                candidates.append(Fraction(j, n_grid))
            mid = Fraction(round(((lo + hi) / 2) * (1 << DENOM_BITS)), 1 << DENOM_BITS)
            if mid not in candidates:
                candidates.append(mid)
            for phi in candidates:
                if not 0 <= phi < 1:
                    continue
                saw = SawtoothHeight(f, phi)
                if _confirm({comp: saw}, constraints, table, margin):
                    return saw, None
        if best is None:
            probe_phi = 0.5 / (grid_count_per_f * f)
            bad = _count_satisfied(f, probe_phi, constraints, margin)
            if best_bad is None or len(bad) < len(best_bad):
                best_bad = bad
                best = SawtoothHeight(f, Fraction(1, 2 * grid_count_per_f * f))
    return None, (best, best_bad)


def _confirm(heights: dict[int, SawtoothHeight], constraints, table: ArcTable, margin) -> bool:
    """Re-evaluate a float-screened candidate at the table's precision."""
    with mp.workprec(table.prec_bits):
        m = mp.mpf(margin)
        for c in constraints:
            z1 = evaluate_sawtooth(heights[c.first_component], c.first_arc)
            z2 = evaluate_sawtooth(heights[c.second_component], c.second_arc)
            if abs(z1 - z2) < m or (z1 > z2) != c.first_over:
                return False
        for comp, saw in heights.items():
            for t in table.vertex_arcs[comp]:
                z = evaluate_sawtooth(saw, t)
                if z < m or z > 1 - m:
                    return False
            for ps in table.passages[comp]:
                z = evaluate_sawtooth(saw, ps.arc)
                if z < m or z > 1 - m:
                    return False
    return True


def search_heights(
    constraints,
    table: ArcTable,
    f_max: int = DEFAULT_F_MAX,
    margin: float = DEFAULT_MARGIN,
) -> tuple[SawtoothHeight, ...]:
    """Smallest (f, phi-grid) sawtooth per component satisfying (a), (b), (c).

    Components coupled by crossings are searched jointly over frequency
    tuples by ascending maximum (lexicographic within each shell); each
    component's phase grid has 4 * f * (#constraints in its group) samples.
    The scan is screened in float64 (margins dwarf its roundoff) and the
    accepted candidate is confirmed at the table's precision.  Raises
    SearchExhaustedError with diagnostics when f_max is hit.
    """
    if margin <= 0 or margin >= 0.5:
        raise DomainError(f"margin must lie in (0, 0.5), got {margin}")
    n_comp = table.component_count()
    event_arcs = {
        ci: np.array(
            [float(t) for t in table.vertex_arcs[ci]]
            + [float(ps.arc) for ps in table.passages[ci]],
            dtype=float,
        )
        for ci in range(n_comp)
    }
    result: dict[int, SawtoothHeight] = {}
    best_overall: dict[int, SawtoothHeight] = {}
    best_satisfied = -1
    best_unsat: tuple[int, ...] = ()
    total = len(constraints)

    for group in _component_groups(n_comp, constraints):
        pos = {comp: k for k, comp in enumerate(group)}
        group_constraints = [
            c for c in constraints if c.first_component in group or c.second_component in group
        ]
        n_constraints = max(1, len(group_constraints))
        found = None
        if len(group) == 1:
            comp = group[0]
            saw, failure = _search_single_component(
                comp, event_arcs[comp].tolist(), group_constraints,
                4 * n_constraints, table, f_max, margin,
            )
            if saw is not None:
                result[comp] = saw
                continue
            best, bad = failure
            raise SearchExhaustedError(
                f"no sawtooth parameters with f <= {f_max} satisfy all "
                f"{len(group_constraints)} constraints of component {comp}",
                diagnostics=SearchDiagnostics(
                    f_max=f_max,
                    best=(best,) if best is not None else None,
                    satisfied=len(group_constraints) - len(bad or []),
                    total=total,
                    unsatisfied=tuple(group_constraints[i].crossing for i in (bad or [])),
                ),
            )
        for f_tuple in _frequency_tuples(len(group), f_max):
            grids = [4 * f * n_constraints for f in f_tuple]
            phis = [np.arange(n, dtype=float) / n for n in grids]
            # (b) + (c): all event heights inside [margin, 1 - margin]
            ok = []
            for k, comp in enumerate(group):
                z = _sawtooth_array(f_tuple[k], event_arcs[comp], phis[k])
                ok.append(np.all((z >= margin) & (z <= 1.0 - margin), axis=0))
            # per-constraint side values over the owning component's grid
            side_vals = []
            for c in group_constraints:
                k1, k2 = pos[c.first_component], pos[c.second_component]
                v1 = _sawtooth_array(f_tuple[k1], np.array([float(c.first_arc)]), phis[k1])[0]
                v2 = _sawtooth_array(f_tuple[k2], np.array([float(c.second_arc)]), phis[k2])[0]
                side_vals.append((k1, v1, k2, v2))

            d = len(group)
            last = d - 1
            prefix_indices = [np.nonzero(ok[k])[0] for k in range(last)]
            prefix_only = [
                (j, s) for j, s in enumerate(side_vals) if s[0] != last and s[2] != last
            ]
            last_involving = [
                (j, s) for j, s in enumerate(side_vals) if s[0] == last or s[2] == last
            ]
            for prefix in itertools.product(*(idx.tolist() for idx in prefix_indices)):
                sat_prefix = 0
                for j, (k1, v1, k2, v2) in prefix_only:
                    c = group_constraints[j]
                    z1, z2 = v1[prefix[k1]], v2[prefix[k2]]
                    if abs(z1 - z2) >= margin and (z1 > z2) == c.first_over:
                        sat_prefix += 1
                feasible = sat_prefix == len(prefix_only)
                cond = ok[last].copy()
                count = None
                if feasible or len(prefix_only) == 0 or sat_prefix > best_satisfied - len(last_involving):
                    count = np.zeros(len(phis[last]), dtype=int)
                    for j, (k1, v1, k2, v2) in last_involving:
                        c = group_constraints[j]
                        z1 = v1[prefix[k1]] if k1 != last else v1
                        z2 = v2[prefix[k2]] if k2 != last else v2
                        rel = (z1 > z2) if c.first_over else (z2 > z1)
                        good = (np.abs(z1 - z2) >= margin) & rel
                        count += good.astype(int)
                        cond &= good
                accepted = False
                if feasible:
                    for hit in np.nonzero(cond)[0].tolist():
                        candidate = {
                            comp: SawtoothHeight(
                                f_tuple[k],
                                Fraction(prefix[k] if k != last else hit, grids[k]),
                            )
                            for k, comp in enumerate(group)
                        }
                        if _confirm(candidate, group_constraints, table, margin):
                            found = candidate
                            accepted = True
                            break
                if accepted:
                    break
                if count is not None and np.any(ok[last]):
                    masked = np.where(ok[last], count + sat_prefix, -1)
                    arg = int(np.argmax(masked))
                    if masked[arg] > best_satisfied:
                        best_satisfied = int(masked[arg])
                        best_overall = {
                            comp: SawtoothHeight(
                                f_tuple[k],
                                Fraction(prefix[k] if k != last else arg, grids[k]),
                            )
                            for k, comp in enumerate(group)
                        }
                        best_unsat = tuple(
                            group_constraints[j].crossing
                            for j, (k1, v1, k2, v2) in enumerate(side_vals)
                            if not _constraint_holds_at(
                                group_constraints[j], k1, v1, k2, v2, prefix, last, arg, margin
                            )
                        )
            if found:
                break
        if not found:
            raise SearchExhaustedError(
                f"no sawtooth parameters with f <= {f_max} satisfy all "
                f"{len(group_constraints)} constraints of components {group}",
                diagnostics=SearchDiagnostics(
                    f_max=f_max,
                    best=tuple(best_overall.values()) or None,
                    satisfied=max(best_satisfied, 0),
                    total=total,
                    unsatisfied=best_unsat,
                ),
            )
        result.update(found)

    return tuple(result[ci] for ci in range(n_comp))


def _constraint_holds_at(c, k1, v1, k2, v2, prefix, last, last_idx, margin) -> bool:
    z1 = v1[last_idx] if k1 == last else v1[prefix[k1]]
    z2 = v2[last_idx] if k2 == last else v2[prefix[k2]]
    return abs(z1 - z2) >= margin and (z1 > z2) == c.first_over


def _frequency_tuples(d: int, f_max: int):
    """All f-tuples in [1, f_max]^d, by ascending maximum, lexicographic
    within each shell.

    Plain lexicographic order would sweep the last component all the way to
    f_max before touching the others, which is unusable at the default
    f_max; shell order reaches every tuple with small maximum first and the
    accepted solution is still deterministic.
    """
    for top in range(1, f_max + 1):
        for f_tuple in itertools.product(range(1, top + 1), repeat=d):
            if max(f_tuple) == top:
                yield f_tuple


def height_pattern_feasible(arcs, bounds, f_max: int = 1000):
    """Search (f, phi) driving z(t_i) into the boxes [lo_i, hi_i].

    Returns a SawtoothHeight or None; the generic solver behind the
    regular-diagram obstruction check (heights of crossings with matched
    arc differences cannot be chosen freely).
    """
    arcs_f = [float(t) for t in arcs]
    n = max(1, len(arcs_f))
    for f in range(1, f_max + 1):
        grid = 4 * f * n
        for j in range(grid):
            phi = j / grid
            ok = True
            for t, (lo, hi) in zip(arcs_f, bounds):
                y = f * t + phi
                z = abs(2 * (y - int(y)) - 1.0)
                if not lo <= z <= hi:
                    ok = False
                    break
            if ok:
                return SawtoothHeight(f, Fraction(j, grid))
    return None


@dataclass(frozen=True)
class TrajEvent:
    kind: str                   # 'wall' | 'floor' | 'ceiling'
    arc: object
    mirror_index: int | None = None


@dataclass(frozen=True)
class TrajComponent:
    points: tuple               # (x, y, z) triples, mpf
    events: tuple[TrajEvent, ...]
    sawtooth: SawtoothHeight


@dataclass(frozen=True)
class CrossingHeight:
    crossing: int
    z_a: object                 # height of the chord_a passage
    z_b: object


@dataclass(frozen=True)
class SpatialTrajectory:
    components: tuple[TrajComponent, ...]
    crossing_heights: tuple[CrossingHeight, ...]
    poly: PerturbedPolygon

    def over_flags(self) -> dict[int, bool]:
        flags = {}
        for ch in self.crossing_heights:
            if ch.z_a == ch.z_b:
                raise DomainError(f"crossing {ch.crossing} has equal passage heights")
            flags[ch.crossing] = ch.z_a > ch.z_b
        return flags

    def diagram_traversal(self) -> DiagramTraversal:
        """Planar diagram with over/under read off the realized heights."""
        return self.poly.diagram_traversal(self.over_flags())


def emit_trajectory(
    poly: PerturbedPolygon,
    heights,
    table: ArcTable,
    prec_bits: int = 128,
) -> SpatialTrajectory:
    """Assemble the closed 3D polyline: wall vertices at sawtooth heights,
    floor/ceiling bounce points inserted at the sawtooth extrema.

    Projecting the result to the floor recovers the polygon exactly; between
    consecutive events both the planar position and the height are linear in
    arc length, so straight 3D segments represent the trajectory exactly.
    """
    if len(heights) != len(poly.components):
        raise DomainError("one sawtooth per component required")
    mirror_offset = []
    offset = 0
    for comp in poly.components:
        mirror_offset.append(offset)
        offset += len(comp.vertices)

    components = []
    with mp.workprec(prec_bits):
        for ci, comp in enumerate(poly.components):
            saw = heights[ci]
            m = len(comp.vertices)
            v_arcs = table.vertex_arcs[ci]
            total = table.total_lengths[ci]
            verts = [(_fraction_mpf(x), _fraction_mpf(y)) for x, y in comp.vertices]

            def planar_point(arc):
                # locate the segment whose [start, end) arc interval holds ``arc``
                seg = m - 1
                for i in range(m - 1):
                    if v_arcs[i] <= arc < v_arcs[i + 1]:
                        seg = i
                        break
                x0, y0 = verts[seg]
                x1, y1 = verts[(seg + 1) % m]
                seg_end = v_arcs[seg + 1] if seg + 1 < m else mp.mpf(1)
                span = seg_end - v_arcs[seg]
                lam = (arc - v_arcs[seg]) / span
                return (x0 + lam * (x1 - x0), y0 + lam * (y1 - y0))

            events = []
            for vi in range(m):
                arc = v_arcs[vi]
                z = evaluate_sawtooth(saw, arc)
                x, y = verts[vi]
                events.append((arc, TrajEvent("wall", arc, mirror_offset[ci] + vi), (x, y, z)))
            phi = _fraction_mpf(saw.phase)
            # extrema in t in [0, 1) sit at h/2 in [phi, f + phi), phi < 1
            for half in range(2 * saw.frequency + 2):
                h = mp.mpf(half) / 2
                t_star = (h - phi) / saw.frequency
                if 0 <= t_star < 1:
                    kind = "ceiling" if half % 2 == 0 else "floor"
                    z = mp.mpf(1) if kind == "ceiling" else mp.mpf(0)
                    x, y = planar_point(t_star)
                    events.append((t_star, TrajEvent(kind, t_star), (x, y, z)))
            events.sort(key=lambda item: item[0])
            for (a1, _, _), (a2, _, _) in zip(events, events[1:]):
                if not a1 < a2:
                    raise DomainError("coincident trajectory events; margin too small")
            components.append(
                TrajComponent(
                    points=tuple(pt for _, _, pt in events),
                    events=tuple(ev for _, ev, _ in events),
                    sawtooth=saw,
                )
            )

        crossing_heights = []
        arcs_by_crossing: dict[int, dict[bool, tuple[int, object]]] = {}
        for ci, passages in enumerate(table.passages):
            for ps in passages:
                arcs_by_crossing.setdefault(ps.crossing, {})[ps.is_a_side] = (ci, ps.arc)
        for cid in sorted(arcs_by_crossing):
            sides = arcs_by_crossing[cid]
            ca, ta = sides[True]
            cb, tb = sides[False]
            crossing_heights.append(
                CrossingHeight(
                    crossing=cid,
                    z_a=evaluate_sawtooth(heights[ca], ta),
                    z_b=evaluate_sawtooth(heights[cb], tb),
                )
            )

    return SpatialTrajectory(
        components=tuple(components),
        crossing_heights=tuple(crossing_heights),
        poly=poly,
    )
