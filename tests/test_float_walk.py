"""The float64 event walk against the mpf oracle walk, and its error bound.

``heights.component_events`` walks each component's m + 2f events in
float64 and ``billiards.walk_error_bound`` states how far it may be from
the exact path.  Here it is compared with the same walk carried out in
192-bit mpf (``event_oracle``) on every preset, the sweep slice and one
knot at f >= 3,000.
"""

import functools
import json
import random
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from billiardknots import pipeline
from billiardknots.billiards import check_walk, verify_reflection, walk_error_bound
from billiardknots.braids import QuasitoricPattern
from billiardknots.cli import EXIT_COINCIDENT, main
from billiardknots.errors import CoincidentEventsError
from billiardknots.heights import SawtoothHeight, component_events
from billiardknots.pipeline import REFLECTION_TOL, RealizationSpec, realize
from billiardknots.presets import PRESETS

from event_oracle import float_component_events, mpf_component_events
from reflection_oracle import pointwise_reflection
from test_sweep import F_MAX as SWEEP_F_MAX
from test_sweep import sweep_slice
from trajectory_columns import edit_column


def _random_2_11() -> QuasitoricPattern:
    """The (2, 11) knot drawn first from ``random.Random(7)``, one sign per
    row: f = 3,226 at seed 42, the first row of ROADMAP's frequency wall."""
    rng = random.Random(7)
    return QuasitoricPattern(2, 11, tuple((rng.choice((1, -1)),) for _ in range(11)))


INPUTS = {
    **{name: dict(pattern=PRESETS[name], preset=name) for name in PRESETS},
    **{f"sweep-{i}": dict(pattern=p, f_max=SWEEP_F_MAX) for i, p in enumerate(sweep_slice())},
    "random-2-11": dict(pattern=_random_2_11()),
}


@functools.lru_cache(maxsize=None)
def _realized(name):
    return realize(RealizationSpec(**INPUTS[name]))


def test_one_input_has_a_frequency_of_at_least_3000():
    assert _realized("random-2-11").heights[0].frequency >= 3000


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_float_walk_is_within_its_bound_of_the_mpf_walk(name):
    result = _realized(name)
    for ci, (comp, saw) in enumerate(zip(result.poly.components, result.heights)):
        v_arcs = result.arcs.vertex_arcs[ci]
        eps = walk_error_bound(comp.vertices, result.arcs.total_lengths[ci])
        assert eps < 1e-12
        with mp.workprec(192):
            walk = component_events(comp.vertices, v_arcs, saw)
            oracle = mpf_component_events(comp.vertices, v_arcs, saw)
            n = len(v_arcs) + 2 * saw.frequency
            assert len(walk.kinds) == len(oracle.kinds) == n
            assert walk.kinds == oracle.kinds
            for column in ("arc", "x", "y", "z"):
                got, want = getattr(walk, column), getattr(oracle, column)
                assert len(got) == len(want) == n
                assert all(abs(a - b) <= eps for a, b in zip(got, want))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_column_walk_equals_the_event_by_event_walk(name):
    """Slicing the sorted extremum arcs per segment gives every column bit
    for bit as the walk that places one extremum at a time."""
    result = _realized(name)
    for ci, (comp, saw) in enumerate(zip(result.poly.components, result.heights)):
        v_arcs = result.arcs.vertex_arcs[ci]
        walk = component_events(comp.vertices, v_arcs, saw)
        loop = float_component_events(comp.vertices, v_arcs, saw)
        assert walk.kinds == loop.kinds
        for column in ("arc", "x", "y", "z"):
            got, want = getattr(walk, column), getattr(loop, column)
            assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_pointwise_oracle_accepts_every_float_trajectory(name):
    result = _realized(name)
    assert pointwise_reflection(result.trajectory, result.table, REFLECTION_TOL, prec_bits=192).passed


def test_phase_zero_puts_an_extremum_on_the_wall_at_arc_zero():
    result = _realized("trefoil")
    (comp,) = result.poly.components
    for phase in (Fraction(0), Fraction(1, 2)):
        args = (comp.vertices, result.arcs.vertex_arcs[0], SawtoothHeight(3, phase))
        with pytest.raises(CoincidentEventsError) as walk_error:
            component_events(*args)
        with pytest.raises(CoincidentEventsError) as loop_error:
            float_component_events(*args)
        assert str(walk_error.value) == str(loop_error.value)


def test_coincident_events_exit_with_their_own_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        pipeline, "search_heights", lambda *args, **kwargs: (SawtoothHeight(3, Fraction(0)),)
    )
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "trefoil"}))
    assert main(["realize", str(spec), "--out", str(tmp_path / "out")]) == EXIT_COINCIDENT == 5
    assert "coincident trajectory events" in capsys.readouterr().err


def test_coincident_stored_phase_is_a_verification_failure(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "trefoil"}))
    out = tmp_path / "out"
    assert main(["realize", str(spec), "--out", str(out), "--canonical"]) == 0
    traj_path = out / "trajectory.json"
    data = json.loads(traj_path.read_text())
    data["components"][0]["phase"] = "0/1"
    edit_column(data, "z", lambda z: z.__setitem__(0, 1.0))  # the wall at arc 0, where z(0) = 1
    traj_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out / "report.json")]) == 4
    assert "verify_reflection: FAIL (component 0: " in capsys.readouterr().out


def test_an_error_bound_at_the_tolerance_is_rejected_by_name(monkeypatch):
    result = _realized("trefoil")
    (comp,) = result.poly.components
    eps = walk_error_bound(comp.vertices, result.arcs.total_lengths[0])
    report = verify_reflection(result.trajectory, result.arcs, eps)
    assert not report.passed
    assert report.violations[0].startswith("component 0: the float walk's error bound")
    assert verify_reflection(result.trajectory, result.arcs, 2 * eps).passed
    # realize's own reflection stage rejects it too
    monkeypatch.setattr(pipeline, "REFLECTION_TOL", eps)
    rerun = realize(RealizationSpec(**INPUTS["trefoil"]))
    assert rerun.reflection.violations[0].startswith("component 0: the float walk's error bound")
    assert not rerun.passed


@pytest.mark.parametrize("check", [check_walk, verify_reflection])
def test_a_short_column_or_a_missing_component_is_rejected_by_name(check):
    result = _realized("trefoil")
    traj, arcs = result.trajectory, result.arcs
    (comp,) = traj.components
    m, bounces = len(arcs.vertex_arcs[0]), 2 * comp.sawtooth.frequency
    n = m + bounces
    short = replace(traj, components=(replace(comp, x=comp.x[:-1]),))
    assert check(short, arcs, REFLECTION_TOL).violations == (
        f"component 0: columns of {n}/{n}/{n - 1}/{n}/{n} events (kinds/arc/x/y/z), "
        f"expected {m} walls + {bounces} bounces",
    )
    empty = replace(traj, components=())
    assert check(empty, arcs, REFLECTION_TOL).violations == ("0 components, expected 1",)
    assert check(traj, arcs, REFLECTION_TOL).passed


@pytest.mark.parametrize("shift, accepted", [(0.5e-9, True), (1.01e-9, False)])
def test_a_moved_point_is_judged_against_the_tolerance(shift, accepted):
    result = _realized("trefoil")
    traj = result.trajectory
    (comp,) = traj.components
    x = list(comp.x)
    x[5] += shift
    moved = replace(traj, components=(replace(comp, x=x),))
    report = verify_reflection(moved, result.arcs, REFLECTION_TOL)
    assert report.passed == accepted


@pytest.mark.parametrize("column", ["arc", "x", "y", "z"])
def test_a_nan_in_any_column_is_rejected_and_named(column):
    result = _realized("trefoil")
    traj = result.trajectory
    (comp,) = traj.components
    values = list(getattr(comp, column))
    values[5] = float("nan")
    moved = replace(traj, components=(replace(comp, **{column: values}),))
    report = verify_reflection(moved, result.arcs, REFLECTION_TOL)
    assert not report.passed
    assert report.violations[0].startswith("reflection law violated at component 0 event 5: ")
