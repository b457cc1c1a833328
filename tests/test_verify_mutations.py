"""A seeded mutation suite for ``verify``.

Every preset is realized and stored once.  Each mutation then edits what
the files store, as a hand or a fault could:
  - ``phase``: one component's phase moved to 1e-10 either side of an edge
    of its window of conditions (a)-(c), with the columns re-emitted;
  - ``frequency``: one component's frequency moved by one, with the
    columns re-emitted, and once with only the stored number moved;
  - ``line``: one stored line coefficient moved by 2^-31, either way;
  - ``column``: one stored column value moved by 3 tol, past the walk's
    bound, and by tol / 4, inside it.
Which component, coefficient or value is drawn from a generator seeded by
the preset's name.

The expected verdict comes from the test oracles, never from the code
``verify`` runs: the Fraction layout (``layout_oracle``), the pairwise
mirror room, the sorted Fraction arc table (``passage_oracles``), the
closed form walked in mpf (``event_oracle``, every stored value within tol
of it), conditions (a)-(c) at the table's precision on constraints
ordered by sorting (``height_oracles``), and the Jones polynomial of the
diagram read off the exact-abscissa passages against the pattern's.
``verify`` must pass exactly when all of them do.
"""

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from billiardknots.billiards import walk_error_bound
from billiardknots.braids import component_count, pad_to_min_repetitions
from billiardknots.errors import CoincidentEventsError
from billiardknots.heights import HeightConstraint, SawtoothHeight, emit_trajectory
from billiardknots.invariants import jones
from billiardknots.pdcodes import traversal_pd
from billiardknots.perturbation import PerturbedPolygon
from billiardknots.pipeline import REFLECTION_TOL, RealizationSpec, realize
from billiardknots.presets import PRESETS
from billiardknots.serialization import verify_artifacts, write_artifacts
from billiardknots.stars import over_flags_from_signs

import layout_oracle
from diagram_helpers import pattern_jones
from event_oracle import mpf_component_events
from height_oracles import exact_confirm_heights, sorted_height_constraints
from mirror_room_oracle import pairwise_mirror_room
from passage_oracles import fraction_passages, sorted_arc_table
from trajectory_columns import decode_column, encode_column

COLUMNS = ("arc", "x", "y", "z")
NUDGE = Fraction(1, 10**10)
LINE_STEP = Fraction(1, 2**31)


class Case:
    """One stored preset: its star and spec, the files' JSON, and the
    values they hold (one line per chord, one sawtooth and one set of
    columns per component)."""

    def __init__(self, name, outdir):
        result = realize(RealizationSpec(pattern=PRESETS[name], preset=name))
        files = write_artifacts(result, outdir, canonical=True)
        self.result = result
        self.star = result.star
        self.padded = pad_to_min_repetitions(result.spec.pattern)
        self.prec = result.spec.precision_bits
        self.margin = result.spec.margin
        self.report = json.loads(files["report"].read_text())
        self.trajectory = json.loads(files["trajectory"].read_text())
        self.lines = [None] * self.star.p
        for chain, comp in zip(self.star.components, result.poly.components):
            for chord, line in zip(chain, comp.lines):
                self.lines[chord] = line
        self.heights = result.heights
        self.columns = [
            {"kinds": comp["kinds"], **{c: decode_column(comp[c]) for c in COLUMNS}}
            for comp in self.trajectory["components"]
        ]

    def emitted(self, heights):
        """The columns ``realize`` would store for ``heights``, or None when
        their events come too close to emit."""
        try:
            trajectory = emit_trajectory(self.result.poly, heights, self.result.arcs)
        except CoincidentEventsError:
            return None
        return [
            {"kinds": comp.kinds, **{c: list(getattr(comp, c)) for c in COLUMNS}}
            for comp in trajectory.components
        ]

    def write(self, outdir, lines, heights, columns):
        """The stored report and trajectory with these values in place."""
        outdir.mkdir(parents=True)
        report = json.loads(json.dumps(self.report))
        report["lines"] = [
            [[f"{a.numerator}/{a.denominator}", f"{b.numerator}/{b.denominator}"]
             for a, b in (lines[chord] for chord in chain)]
            for chain in self.star.components
        ]
        trajectory = json.loads(json.dumps(self.trajectory))
        for comp, saw, cols in zip(trajectory["components"], heights, columns):
            comp["frequency"] = saw.frequency
            comp["phase"] = f"{saw.phase.numerator}/{saw.phase.denominator}"
            comp["kinds"] = cols["kinds"]
            for column in COLUMNS:
                comp[column] = encode_column(cols[column])
        (outdir / "report.json").write_text(json.dumps(report))
        (outdir / report["files"]["trajectory"]).write_text(json.dumps(trajectory))
        return outdir / "report.json"

    def oracle_table(self, lines):
        layout = layout_oracle.layout_from_lines(self.star, lines)
        if layout is None:
            return None, None
        poly = PerturbedPolygon(self.star, self.result.poly.delta, *layout)
        return poly, sorted_arc_table(poly, self.prec)

    def heights_hold(self, table, heights) -> bool:
        constraints = [HeightConstraint(*c) for c in sorted_height_constraints(self.star, table)]
        return exact_confirm_heights(heights, constraints, table, self.margin)

    def closed_form_holds(self, poly, table, heights, columns) -> bool:
        """Every stored value within tol of the exact closed form, walked in
        mpf.  A mutation within the float walk's error of that bound, or
        with events too close for the walk to separate, is refused: no
        verdict is owed on it."""
        for ci, (saw, cols) in enumerate(zip(heights, columns)):
            vertices = poly.components[ci].vertices
            if len(cols["kinds"]) != len(vertices) + 2 * saw.frequency:
                return False
            with mp.workprec(self.prec):
                exact = mpf_component_events(vertices, table.vertex_arcs[ci], saw)
                if exact.kinds != cols["kinds"]:
                    return False
                assert min(b - a for a, b in zip(exact.arc, exact.arc[1:])) > 2.0 ** -46
                worst = max(
                    abs(mp.mpf(value) - want)
                    for column in COLUMNS
                    for value, want in zip(cols[column], getattr(exact, column))
                )
            eps = walk_error_bound(vertices, table.total_lengths[ci])
            assert not REFLECTION_TOL - 4 * eps < worst < REFLECTION_TOL + 4 * eps, "on the bound"
            if worst >= REFLECTION_TOL:
                return False
        return True

    def diagram_holds(self, poly) -> bool:
        pd, signs = traversal_pd(fraction_passages(poly), over_flags_from_signs(self.star))
        return (
            len(poly.components) == component_count(self.padded)
            and jones(pd, sum(signs.values())) == pattern_jones(self.padded)
        )

    def oracle(self, lines, heights, columns) -> bool:
        poly, table = self.oracle_table(lines)
        return (
            poly is not None
            and pairwise_mirror_room(poly, self.prec).passed
            and self.closed_form_holds(poly, table, heights, columns)
            and self.heights_hold(table, heights)
            and self.diagram_holds(poly)
        )


def _with(seq, index, value):
    out = list(seq)
    out[index] = value
    return out


def _window_edge(case, table, k, direction) -> Fraction:
    """An edge of component k's phase window of conditions (a)-(c), the
    other phases fixed: step from the stored phase in ``direction`` until
    a phase fails, then bisect to 2^-64."""
    heights = case.heights

    def holds(phi):
        saw = SawtoothHeight(heights[k].frequency, phi % 1)
        return case.heights_hold(table, tuple(_with(heights, k, saw)))

    inside = heights[k].phase
    step = Fraction(1, 2**30)
    while holds(inside + direction * step):
        step *= 2
        assert step < 1, "every phase holds"
    outside = inside + direction * step
    while abs(outside - inside) > Fraction(1, 2**64):
        middle = (inside + outside) / 2
        inside, outside = (middle, outside) if holds(middle) else (inside, middle)
    return inside


def mutations(case, rng):
    """(family, lines, heights, columns) of every mutation of ``case``."""
    lines, heights, columns = case.lines, case.heights, case.columns
    _, table = case.oracle_table(lines)
    k = rng.randrange(len(heights))
    saw = heights[k]

    edge = _window_edge(case, table, k, rng.choice((1, -1)))
    for offset in (-NUDGE, NUDGE):
        moved = tuple(_with(heights, k, SawtoothHeight(saw.frequency, (edge + offset) % 1)))
        emitted = case.emitted(moved)
        if emitted is not None:
            yield "phase", lines, moved, emitted

    for f in (saw.frequency - 1, saw.frequency + 1):
        if f >= 1:
            moved = tuple(_with(heights, k, SawtoothHeight(f, saw.phase)))
            emitted = case.emitted(moved)
            if emitted is not None:
                yield "frequency", lines, moved, emitted
    yield "frequency", lines, tuple(_with(heights, k, SawtoothHeight(saw.frequency + 1, saw.phase))), columns

    chord = rng.randrange(len(lines))
    for sign in (1, -1):
        a, b = lines[chord]
        moved = (a + sign * LINE_STEP, b) if rng.random() < 0.5 else (a, b + sign * LINE_STEP)
        yield "line", _with(lines, chord, moved), heights, columns

    ci = rng.randrange(len(columns))
    column = rng.choice(COLUMNS)
    index = rng.randrange(len(columns[ci][column]))
    sign = rng.choice((1, -1))
    for size in (3 * REFLECTION_TOL, REFLECTION_TOL / 4):
        values = _with(columns[ci][column], index, columns[ci][column][index] + sign * size)
        edited = _with(columns, ci, {**columns[ci], column: values})
        yield "column", lines, heights, edited


@functools.lru_cache(maxsize=None)
def _outcomes(name, tmp_root):
    """(family, oracle verdict, verify verdict) of every mutation of a preset."""
    root = Path(tmp_root)
    case = Case(name, root / "base")
    assert case.oracle(case.lines, case.heights, case.columns)
    outcomes = []
    for i, (family, lines, heights, columns) in enumerate(mutations(case, random.Random(f"mutate:{name}"))):
        report = case.write(root / f"{i}-{family}", lines, heights, columns)
        outcomes.append((family, case.oracle(lines, heights, columns), verify_artifacts(report).passed))
    return tuple(outcomes)


@pytest.fixture(scope="module")
def mutation_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutations"))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_verify_decides_every_mutation_as_the_oracles_do(name, mutation_root):
    outcomes = _outcomes(name, f"{mutation_root}/{name}")
    assert len(outcomes) >= 8
    wrong = [(family, want) for family, want, got in outcomes if want != got]
    assert not wrong, (name, wrong)


def test_the_suite_has_accepted_and_rejected_mutations(mutation_root):
    """Across the presets, the oracles accept and reject some phase, line
    and column mutations, so the suite tests both verdicts; every phase
    edge splits its two nudges.  No frequency moved by one keeps its phase
    in the window."""
    outcomes = {name: _outcomes(name, f"{mutation_root}/{name}") for name in sorted(PRESETS)}
    seen = {(family, want) for cases in outcomes.values() for family, want, _ in cases}
    assert seen == {
        ("phase", True), ("phase", False), ("line", True), ("line", False),
        ("column", True), ("column", False), ("frequency", False),
    }
    for name, cases in outcomes.items():
        assert sorted(want for family, want, _ in cases if family == "phase") == [False, True], name
