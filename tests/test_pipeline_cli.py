import base64
import dataclasses
import functools
import importlib.util
import itertools
import json
import math
import re
import struct
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from billiardknots import perturbation, pipeline, serialization, stars
from billiardknots.billiards import COLUMNS, MirrorRoomReport, mirror_room_check
from billiardknots.braids import toric_pattern
from billiardknots.cli import main
from billiardknots.errors import CombinatorialCollapseError, SpecFileError
from billiardknots.heights import SawtoothHeight, build_height_constraints, emit_trajectory
from billiardknots.perturbation import IndependenceResult
from billiardknots.pipeline import RealizationSpec, realize
from billiardknots.presets import PRESETS, preset_listing
from billiardknots.serialization import _finite, verify_artifacts, write_artifacts
from billiardknots.stars import build_star, star_diagram_json

from diagram_helpers import pattern_jones
from height_oracles import evaluate_sawtooth
from trajectory_columns import decode_column, edit_column


def test_spec_validation_errors():
    with pytest.raises(SpecFileError):
        RealizationSpec.from_dict(
            {"pattern": {"strands": 1, "repetitions": 3, "signs": []}}
        )
    with pytest.raises(SpecFileError):
        RealizationSpec.from_dict({"preset": "trefoil", "pattern": {}})
    with pytest.raises(SpecFileError):
        RealizationSpec.from_dict({})
    with pytest.raises(SpecFileError):
        RealizationSpec.from_dict({"preset": "not-a-preset"})
    for preset in (["trefoil"], {"name": "trefoil"}):
        with pytest.raises(SpecFileError, match="preset must be a string"):
            RealizationSpec.from_dict({"preset": preset})
    with pytest.raises(SpecFileError):
        RealizationSpec.from_dict({"preset": "trefoil", "delta": "0"})
    with pytest.raises(SpecFileError):
        RealizationSpec.from_dict(
            {"pattern": {"strands": 2, "repetitions": 2, "signs": [[1], [2]]}}
        )
    with pytest.raises(SpecFileError):
        RealizationSpec.from_dict({"preset": "trefoil", "margin": 0.6})
    with pytest.raises(SpecFileError):
        RealizationSpec.from_dict(json.loads('{"preset": "trefoil", "margin": NaN}'))
    for margin in ("0.01", True):
        with pytest.raises(SpecFileError, match="malformed numeric field"):
            RealizationSpec.from_dict({"preset": "trefoil", "margin": margin})
    with pytest.raises(SpecFileError):
        RealizationSpec.from_dict({"preset": "trefoil", "seed": None})
    with pytest.raises(SpecFileError, match="precision_bits must be at most 4096"):
        RealizationSpec.from_dict({"preset": "trefoil", "precision_bits": 4097})
    assert RealizationSpec.from_dict({"preset": "trefoil", "precision_bits": 4096}).precision_bits == 4096


def test_spec_from_dict_defaults_and_overrides():
    spec = RealizationSpec.from_dict({"preset": "trefoil"}, {"seed": 7, "f_max": 99})
    assert spec.seed == 7
    assert spec.f_max == 99
    assert spec.delta == Fraction(1, 1000)
    assert spec.pattern == PRESETS["trefoil"]


def test_presets_listing_contents(capsys):
    lines = preset_listing()
    assert len(lines) == 9
    joined = "\n".join(lines)
    assert "figure-eight: (3,2) padded to (3,8)" in joined
    assert any("star-9-3" in ln and "3-component link" in ln for ln in lines)
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert out.strip().count("\n") == 8


def test_star_10_3_diagram_export_matches_figure():
    """Every crossing point lies on both of its chords' float lines, and
    every passage arc is in (0, 1)."""
    data = star_diagram_json(build_star(toric_pattern(3, 10)))
    vertices = data["vertices"]
    assert len(vertices) == 10
    assert len(data["crossings"]) == 20
    assert len(data["components"]) == 1
    for crossing in data["crossings"]:
        x, y = crossing["point"]
        for chord in crossing["chords"]:
            (ax, ay), (bx, by) = (vertices[v] for v in data["chords"][chord])
            distance = abs((bx - ax) * (y - ay) - (by - ay) * (x - ax)) / math.hypot(bx - ax, by - ay)
            assert distance <= 2.0 ** -44, crossing["index"]
        assert 0 < crossing["first"]["arc"] < 1 and 0 < crossing["second"]["arc"] < 1


def _float_bits(data):
    """A JSON tree with every float replaced by its exact hex string."""
    if isinstance(data, float):
        return data.hex()
    if isinstance(data, dict):
        return {key: _float_bits(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_float_bits(value) for value in data]
    return data


def test_written_diagram_json_reads_back_the_picture_bit_for_bit(tmp_path, torus25_result):
    """Every real of a written ``diagram.json`` is a JSON number that reads
    back as the picture's float64, bit for bit."""
    files = write_artifacts(torus25_result, tmp_path, canonical=True)
    stored = json.loads(files["diagram"].read_text())
    star = torus25_result.star
    picture = star.picture
    assert _float_bits(stored) == _float_bits(star_diagram_json(star))
    assert stored["rotation"].hex() == picture.rotation.hex()
    assert _float_bits(stored["vertices"]) == _float_bits(picture.vertices)
    for c, written in zip(star.crossings, stored["crossings"]):
        arcs = picture.arcs[c.index] if c.a_side_is_first else picture.arcs[c.index][::-1]
        assert _float_bits(written["point"]) == _float_bits(picture.points[c.index])
        assert _float_bits([written["first"]["arc"], written["second"]["arc"]]) == _float_bits(arcs)


def test_star_10_3_realizes_and_certifies():
    result = realize(RealizationSpec(pattern=PRESETS["star-10-3"], preset="star-10-3"))
    assert result.passed
    assert len(result.star.crossings) == 20


def test_star_9_3_realizes_verifies_and_certifies(tmp_path):
    """The only preset whose height search couples three components."""
    result = realize(RealizationSpec(pattern=PRESETS["star-9-3"], preset="star-9-3"))
    assert result.passed
    assert [h.frequency for h in result.heights] == [1, 3, 3]
    write_artifacts(result, tmp_path, canonical=True)
    outcome = verify_artifacts(tmp_path / "report.json")
    assert outcome.passed, outcome.first_failure()
    assert dict((name, ok) for name, ok, _ in outcome.checks)["certify"]


def _write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_cli_realize_verify_round_trip(tmp_path, torus25_result, capsys):
    spec = _write_spec(tmp_path, {"preset": "torus-2-5", "seed": 42})
    out = tmp_path / "out"
    assert main(["realize", str(spec), "--out", str(out), "--canonical"]) == 0
    for name in ("report.json", "trajectory.json", "table.json", "diagram.json",
                 "diagram.svg", "prism.obj"):
        assert (out / name).exists(), name
    capsys.readouterr()
    assert main(["verify", str(out / "report.json")]) == 0
    printed = capsys.readouterr().out
    assert "certify: pass" in printed

    report = json.loads((out / "report.json").read_text())
    assert report["certified"] is True
    assert report["spec"]["seed"] == 42
    assert "timings" not in report
    assert report["stages"] == {
        "mirror_room_check": "pass", "verify_reflection": "pass", "certify": "pass",
    }
    assert all(len(c["passages"]) == 2 for c in report["crossings"])
    expected = {str(e): c for e, c in pattern_jones(toric_pattern(2, 5)).items()}
    assert report["jones"]["constructed"] == expected
    assert report["jones"]["intended"] == expected

    svg = (out / "diagram.svg").read_text()
    assert svg.startswith("<svg") and "<path" in svg
    table = json.loads((out / "table.json").read_text())
    n_floor = len(table["floor"])
    obj_lines = (out / "prism.obj").read_text().splitlines()
    assert sum(1 for ln in obj_lines if ln.startswith("v ")) == 2 * n_floor
    assert sum(1 for ln in obj_lines if ln.startswith("f ")) == n_floor + 2


def test_cli_determinism(tmp_path):
    spec = _write_spec(tmp_path, {"preset": "unknot", "seed": 5})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["realize", str(spec), "--out", str(out1), "--canonical"]) == 0
    assert main(["realize", str(spec), "--out", str(out2), "--canonical"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "trajectory.json").read_bytes() == (out2 / "trajectory.json").read_bytes()


def test_cli_verify_reads_an_indented_trajectory(tmp_path, trefoil_result):
    """verify parses trajectory.json as JSON, so one re-dumped with an
    indent still verifies."""
    paths = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(paths["trajectory"].read_text())
    paths["trajectory"].write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    assert main(["verify", str(paths["report"])]) == 0


def test_stored_reals_carry_the_working_precision(tmp_path, hopf_result):
    """report.json's mirror margin and passage arcs and table.json's first
    floor corner, written with 40 significant digits, agree with the
    working-precision values to at least 35 digits, not only to float64's
    17."""
    paths = write_artifacts(hopf_result, tmp_path, canonical=True)
    report = json.loads(paths["report"].read_text())
    stored_corner = json.loads(paths["table"].read_text())["floor"][0]
    arcs = {(ps.crossing, "a" if ps.is_a_side else "b"): ps.arc
            for passages in hopf_result.arcs.passages for ps in passages}
    pairs = [(report["mirror_check"]["margin"], hopf_result.mirror_report.margin)]
    pairs += [(ps["arc"], arcs[c["index"], ps["side"]]) for c in report["crossings"] for ps in c["passages"]]
    pairs += list(zip(stored_corner, hopf_result.table.floor[0]))
    assert len(pairs) == 1 + 2 * len(hopf_result.star.crossings) + 2
    with mp.workprec(hopf_result.spec.precision_bits):
        for stored, value in pairs:
            assert abs(mp.mpf(stored) - value) <= mp.mpf(10) ** -35 * abs(value)


def test_cli_spec_errors(tmp_path, capsys):
    bad = _write_spec(tmp_path, {"pattern": {"strands": 1, "repetitions": 3, "signs": []}})
    assert main(["realize", str(bad)]) == 3
    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"preset": "tref')
    assert main(["realize", str(trunc)]) == 3
    assert main(["verify", str(trunc)]) == 3
    low = _write_spec(tmp_path, {"preset": "trefoil", "precision_bits": 8}, name="low.json")
    assert main(["realize", str(low), "--out", str(tmp_path / "x")]) == 3
    listed = _write_spec(tmp_path, {"preset": ["trefoil"]}, name="listed.json")
    assert main(["realize", str(listed), "--out", str(tmp_path / "x")]) == 3
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff\xfe{"preset": "trefoil"}')  # not UTF-8
    assert main(["realize", str(binary), "--out", str(tmp_path / "x")]) == 3
    assert main(["verify", str(binary)]) == 3
    array = _write_spec(tmp_path, [], name="array.json")
    capsys.readouterr()
    assert main(["realize", str(array), "--out", str(tmp_path / "x")]) == 3
    assert "spec must be a JSON object" in capsys.readouterr().err


def test_cli_realize_into_a_file_is_exit_3(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"preset": "unknot"})
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["realize", str(spec), "--out", str(taken)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cannot write artifacts: ") and err.count("\n") == 1
    assert taken.read_text() == "not a directory"


def _load_script(name: str):
    """A module of ``scripts/`` loaded by its file name."""
    script = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    loader = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_run_presets_into_a_file_is_exit_3(tmp_path, capsys):
    run_presets = _load_script("run_presets")
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert run_presets.main(["--out", str(taken)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cannot write artifacts: ") and err.count("\n") == 1
    assert taken.read_text() == "not a directory"


def test_star_figure_outside_the_domain_is_one_line_and_exit_2(tmp_path, capsys):
    out = tmp_path / "star.svg"
    assert _load_script("star_figure").main(["5", "3", str(out)]) == 2
    assert capsys.readouterr().err == "star_figure.py: p must be >= 2q+1 = 7, got 5\n"
    assert _load_script("star_figure").main(["5", "1", str(out)]) == 2
    assert capsys.readouterr().err == "star_figure.py: strands must be >= 2, got 1\n"
    assert not out.exists()


@pytest.mark.parametrize("plain", [False, True])
def test_star_figure_writes_the_svg(tmp_path, capsys, plain):
    out = tmp_path / "star.svg"
    argv = ["10", "3", str(out)] + (["--plain"] if plain else [])
    assert _load_script("star_figure").main(argv) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_star_figure_unwritable_outfile_is_one_line_and_exit_3(tmp_path, capsys):
    out = tmp_path / "missing" / "star.svg"
    assert _load_script("star_figure").main(["10", "3", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("star_figure.py: ") and err.count("\n") == 1
    assert str(out) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "pattern",
    [
        {"strands": 2.7, "repetitions": 3, "signs": [[1], [1], [1]]},
        {"strands": 2, "repetitions": "5", "signs": [[1], [1], [1], [1], [-1]]},
        {"strands": 2, "repetitions": 3, "signs": [[1], [1.0], [1]]},
    ],
)
def test_cli_realize_rejects_non_integer_pattern_fields(tmp_path, pattern, capsys):
    spec = _write_spec(tmp_path, {"pattern": pattern})
    assert main(["realize", str(spec), "--out", str(tmp_path / "x")]) == 3
    assert "expected an integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field, value", [("seed", 42.9), ("f_max", "10000"), ("precision_bits", True)])
def test_cli_verify_rejects_a_non_integer_spec_echo(tmp_path, trefoil_result, capsys, field, value):
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["report"].read_text())
    data["spec"][field] = value
    files["report"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.01", True])
def test_cli_verify_rejects_a_non_numeric_margin_echo(tmp_path, trefoil_result, capsys, value):
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["report"].read_text())
    data["spec"]["margin"] = value
    files["report"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "expected a number" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_float64_precision_realizes_every_preset(tmp_path, name):
    """Arcs are built at the spec's precision, even 53 bits; the on-demand
    independence check builds its own at the bits its tolerance needs."""
    result = realize(RealizationSpec.from_dict({"preset": name, "precision_bits": 53}))
    assert result.passed
    assert result.arcs.prec_bits == 53
    files = write_artifacts(result, tmp_path, canonical=True)
    assert verify_artifacts(files["report"]).passed
    assert result.independence.passed  # no PrecisionError below 160 bits


def test_cli_search_exhaustion_exit_code(tmp_path, capsys):
    # margin 0.45 forces crossing heights into a band thinner than their
    # required separation: unsatisfiable, so the search must exhaust
    spec = _write_spec(tmp_path, {"preset": "torus-2-5", "seed": 42, "margin": 0.45, "f_max": 3})
    assert main(["realize", str(spec), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    # the knot's own crossings leave no phase at any f, so nothing is walked
    assert "of f <= 3: frequencies kept per component [0]; f-tuples walked 0" in err


def test_realize_halves_delta_after_a_failed_mirror_room_check(tmp_path, monkeypatch):
    """At delta 1 the torus-3-7 lines break the layout down to 1/8, where
    they fail the mirror-room check; the perturb stage halves once more,
    passes at 1/16, and the artifacts verify."""
    checked = []

    def recorded(poly, **kwargs):
        report = mirror_room_check(poly, **kwargs)
        checked.append((poly.delta, report.passed))
        return report

    monkeypatch.setattr(pipeline, "mirror_room_check", recorded)
    result = realize(RealizationSpec.from_dict({"preset": "torus-3-7", "delta": "1"}))
    assert checked == [(Fraction(1, 8), False), (Fraction(1, 16), True)]
    assert result.passed
    files = write_artifacts(result, tmp_path, canonical=True)
    assert json.loads(files["report"].read_text())["chosen_delta"] == "1/16"
    assert verify_artifacts(files["report"]).passed


@pytest.fixture
def failing_mirror_room(monkeypatch):
    """Every mirror-room check of the perturb stage fails; the list holds
    the delta of each polygon checked, in order."""
    deltas = []

    def failing(poly, **kwargs):
        deltas.append(poly.delta)
        return MirrorRoomReport(passed=False, margin=None)

    monkeypatch.setattr(pipeline, "mirror_room_check", failing)
    return deltas


def test_mirror_room_failures_spend_the_one_halving_budget(tmp_path, failing_mirror_room, capsys):
    """With every mirror-room check failing, the trefoil's perturb stage
    at delta 1/1000 checks h = 0 .. 22, the first h with delta / 2^h below
    the 2^-31 grid of the line coefficients (delta / 2^21 is not), and then
    raises the one CombinatorialCollapseError; the CLI exits 4 and writes
    nothing."""
    message = "no delta = 1/1000 * 2^-h for h = 0..22 gave lines that keep the star's combinatorics"
    with pytest.raises(CombinatorialCollapseError, match=re.escape(message)):
        realize(RealizationSpec.from_dict({"preset": "trefoil"}))
    assert failing_mirror_room == [Fraction(1, 1000) / 2**h for h in range(23)]
    spec = _write_spec(tmp_path, {"preset": "trefoil"})
    capsys.readouterr()
    assert main(["realize", str(spec), "--out", str(tmp_path / "x")]) == 4
    assert f"pipeline failure: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_halving_stops_at_the_coefficient_grid(failing_mirror_room):
    """The perturb stage halves delta until it first falls below the 2^-31
    grid of the line coefficients: a delta already below the grid is tried
    once, and one on the grid twice."""
    grid = Fraction(1, 1 << perturbation.DENOMINATOR_BITS)
    for delta, last in [(grid / 3, 0), (grid, 1)]:
        failing_mirror_room.clear()
        message = f"no delta = {delta} * 2^-h for h = 0..{last} gave lines"
        with pytest.raises(CombinatorialCollapseError, match=re.escape(message)):
            realize(RealizationSpec.from_dict({"preset": "trefoil", "delta": str(delta)}))
        assert failing_mirror_room == [delta / 2**h for h in range(last + 1)]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_realize_and_verify_at_delta_one(tmp_path, monkeypatch, name):
    """At spec delta 1 every preset realizes, writes and verifies, and each
    mirror-room check after a failed one is at a smaller delta."""
    checked = []

    def recorded(poly, **kwargs):
        report = mirror_room_check(poly, **kwargs)
        checked.append((poly.delta, report.passed))
        return report

    monkeypatch.setattr(pipeline, "mirror_room_check", recorded)
    result = realize(RealizationSpec.from_dict({"preset": name, "delta": "1"}))
    assert result.passed
    assert [passed for _, passed in checked] == [False] * (len(checked) - 1) + [True]
    assert all(later < earlier for (earlier, _), (later, _) in zip(checked, checked[1:]))
    files = write_artifacts(result, tmp_path, canonical=True)
    assert verify_artifacts(files["report"]).passed


def _raise_intercept(lines):
    a, b = lines[0][0]
    lines[0][0] = [a, str(Fraction(b) + 3)]


def _parallel_consecutive(lines):
    lines[0][1][0] = lines[0][0][0]


@pytest.mark.parametrize("edit", [_raise_intercept, _parallel_consecutive], ids=["moved-line", "parallel-lines"])
def test_cli_verify_reports_broken_combinatorics(tmp_path, trefoil_result, capsys, edit):
    """Stored lines that no longer cut out the star, including two
    consecutive parallel lines with no corner between them, fail the
    combinatorics check with exit 4."""
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    report = json.loads(files["report"].read_text())
    edit(report["lines"])
    files["report"].write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 4
    assert "combinatorics: FAIL (stored lines no longer match the star)" in capsys.readouterr().out


def test_cli_verify_detects_corruption(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"preset": "torus-2-5", "seed": 42})
    out = tmp_path / "out"
    assert main(["realize", str(spec), "--out", str(out), "--canonical"]) == 0
    traj_path = out / "trajectory.json"
    data = json.loads(traj_path.read_text())
    edit_column(data, "z", _put(0, 0.77777))
    traj_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out / "report.json")]) == 4
    printed = capsys.readouterr()
    assert "reflection law violated" in printed.out + printed.err


def test_cli_verify_detects_a_point_moved_by_a_millionth(tmp_path, trefoil_result, capsys):
    """One stored x moved by 1e-6, far above the reflection tolerance and
    far below any parse check, fails the reflection check with exit 4."""
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["trajectory"].read_text())
    edit_column(data, "x", lambda values: values.__setitem__(3, values[3] + 1e-6))
    files["trajectory"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 4
    assert "verify_reflection: FAIL" in capsys.readouterr().out


def test_cli_verify_detects_swapped_wall_mirrors(tmp_path, trefoil_result, capsys):
    """Wall event k bounces off the mirror at vertex k, so two wall points
    swapped between their mirrors fail the reflection check, which names
    the first wall event off its vertex."""
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["trajectory"].read_text())
    first, second = [i for i, kind in enumerate(data["components"][0]["kinds"]) if kind == "w"][:2]

    def swap(values):
        values[first], values[second] = values[second], values[first]

    edit_column(data, "x", swap)
    edit_column(data, "y", swap)
    files["trajectory"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 4
    assert f"component 0 event {first}: arc off the closed form by 0, point by" in capsys.readouterr().out


def test_cli_verify_ignores_a_stored_mirrors_array(tmp_path, trefoil_result):
    """A file from before the wall mirrors were dropped, which lists the
    flat index of each wall event's mirror, still verifies: the key is
    ignored like any other unknown key."""
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["trajectory"].read_text())
    first = 0
    for comp in data["components"]:
        walls = comp["kinds"].count("w")
        comp["mirrors"] = list(range(first, first + walls))
        first += walls
    files["trajectory"].write_text(json.dumps(data))
    assert main(["verify", str(files["report"])]) == 0


def test_cli_verify_ignores_stored_crossing_heights(tmp_path, trefoil_result, capsys):
    """A file of the layout that stored both passage heights of every
    crossing, here with crossing 0's pair swapped, verifies as the same
    file without them: the over/under is the star's, and the key is
    ignored like any other unknown key."""
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 0
    without = capsys.readouterr().out
    data = json.loads(files["trajectory"].read_text())
    sides = {}
    with mp.workprec(192):
        for saw, passages in zip(trefoil_result.heights, trefoil_result.arcs.passages):
            for ps in passages:
                sides[ps.crossing, ps.is_a_side] = float(evaluate_sawtooth(saw, ps.arc))
    data["crossing_heights"] = [
        {"crossing": c.index, "z_a": sides[c.index, c.index != 0], "z_b": sides[c.index, c.index == 0]}
        for c in trefoil_result.star.crossings
    ]
    files["trajectory"].write_text(json.dumps(data))
    assert main(["verify", str(files["report"])]) == 0
    assert capsys.readouterr().out == without
    assert without.splitlines() == [
        "mirror_room_check: pass", "verify_reflection: pass", "certify: pass",
    ]


def test_cli_verify_detects_flipped_crossing(tmp_path, capsys):
    """The stored phase moved by 1/2 turns every height z into 1 - z, so
    every crossing's exact heights come the wrong way round."""
    spec = _write_spec(tmp_path, {"preset": "torus-2-5", "seed": 42})
    out = tmp_path / "out"
    assert main(["realize", str(spec), "--out", str(out), "--canonical"]) == 0
    traj_path = out / "trajectory.json"
    data = json.loads(traj_path.read_text())
    comp = data["components"][0]
    phase = (Fraction(comp["phase"]) + Fraction(1, 2)) % 1
    comp["phase"] = f"{phase.numerator}/{phase.denominator}"
    traj_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out / "report.json")]) == 4
    printed = capsys.readouterr()
    assert "certify: FAIL" in printed.out


@pytest.mark.parametrize("name", ["trefoil", "torus-2-5", "hopf"])
def test_cli_verify_rejects_a_mirror_reflected_report(tmp_path, capsys, name):
    """The report reflected in the x axis: every stored line (a, b) becomes
    (-a, -b) and every stored y becomes -y.  Abscissas, the integer layout,
    the arcs and the mirror-room margins do not change, so the mirror-room
    and reflection checks pass; the exact directions of travel flip every
    crossing of the traversal code, so a chiral preset fails certify."""
    files = write_artifacts(_realized_preset(name), tmp_path, canonical=True)
    report = json.loads(files["report"].read_text())
    report["lines"] = [[[str(-Fraction(v)) for v in line] for line in comp] for comp in report["lines"]]
    files["report"].write_text(json.dumps(report))
    data = json.loads(files["trajectory"].read_text())

    def negate(values):
        values[:] = [-y for y in values]

    for component in range(len(data["components"])):
        edit_column(data, "y", negate, component)
    files["trajectory"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 4
    checks = capsys.readouterr().out.splitlines()
    assert checks[:2] == ["mirror_room_check: pass", "verify_reflection: pass"]
    assert checks[2].startswith("certify: FAIL")


def _old_layout(data):
    """The trajectory in the layout before the columns: per component a
    list of point triples and a list of event records, every value a
    decimal string."""
    names = {"w": "wall", "f": "floor", "c": "ceiling"}
    walls = itertools.count()  # mirrors were numbered in flat vertex order
    for comp in data["components"]:
        arc, x, y, z = (decode_column(comp.pop(column)) for column in COLUMNS)
        comp["events"] = [
            {"kind": names[k], "arc": repr(t), "mirror": next(walls) if k == "w" else None}
            for k, t in zip(comp.pop("kinds"), arc)
        ]
        comp["points"] = [[repr(c) for c in p] for p in zip(x, y, z)]


def _put(index, value):
    return lambda values: values.__setitem__(index, value)


def _set_float(column, index, value):
    """Component 0's stored ``column`` with one value replaced."""
    return lambda d: edit_column(d, column, _put(index, value))


def _swap_in_non_base64(d):
    text = d["components"][0]["x"]
    d["components"][0]["x"] = text[:8] + "*" + text[9:]


TRAJECTORY_CORRUPTIONS = {
    "extra-event": lambda d: d["components"][0].update(kinds=d["components"][0]["kinds"] + "f"),
    "dropped-point": lambda d: edit_column(d, "z", list.pop),  # a payload 8 bytes short
    "unequal-columns": lambda d: edit_column(d, "arc", lambda values: values.append(0.5)),
    "unknown-kind": lambda d: d["components"][0].update(kinds=d["components"][0]["kinds"][:-1] + "q"),
    "kinds-not-a-string": lambda d: d["components"][0].update(kinds=list(d["components"][0]["kinds"])),
    "column-not-an-array": lambda d: d["components"][0].update(x=0.5),
    "bool-column": lambda d: d["components"][0].update(z=True),
    "number-array-column": lambda d: d["components"][0].update(x=decode_column(d["components"][0]["x"])),
    "non-base64-character": _swap_in_non_base64,
    "one-byte-payload": lambda d: d["components"][0].update(y="AA=="),
    "phase-false": lambda d: d["components"][0].update(phase=False),
    "phase-zero": lambda d: d["components"][0].update(phase=0),
    "dropped-component": lambda d: d["components"].pop(),
    "nan-point": _set_float("z", 3, float("nan")),
    "inf-arc": _set_float("arc", 5, float("inf")),
    "nan-last-event": _set_float("y", -1, float("nan")),
    "minus-inf-last-event": _set_float("x", -1, float("-inf")),
    "frequency-float": lambda d: d["components"][0].update(
        frequency=d["components"][0]["frequency"] + 0.5
    ),
    "frequency-string": lambda d: d["components"][0].update(
        frequency=str(d["components"][0]["frequency"])
    ),
}


@pytest.mark.parametrize("corruption", sorted(TRAJECTORY_CORRUPTIONS))
def test_cli_verify_malformed_trajectory_is_a_parse_error(
    tmp_path, trefoil_result, capsys, corruption
):
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["trajectory"].read_text())
    TRAJECTORY_CORRUPTIONS[corruption](data)
    files["trajectory"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "parse error" in capsys.readouterr().err


REPORT_CORRUPTIONS = {
    "star-p-mismatch": lambda d: d["star"].update(p=d["star"]["p"] + 2),
    "star-below-regime": lambda d: d["star"].update(q=d["star"]["q"] + 1),
    "line-not-a-pair": lambda d: d["lines"][0].__setitem__(0, d["lines"][0][0][:1]),
    "precision-zero": lambda d: d["spec"].update(precision_bits=0),
    "precision-negative": lambda d: d["spec"].update(precision_bits=-5),
    "precision-eight": lambda d: d["spec"].update(precision_bits=8),
    "precision-above-cap": lambda d: d["spec"].update(precision_bits=4097),
    "precision-a-million": lambda d: d["spec"].update(precision_bits=1_000_000),
    "extra-component-lines": lambda d: d["lines"].append([["1/2", "1/3"]]),
    "extra-line": lambda d: d["lines"][0].append(["1/2", "1/3"]),
    "chosen-delta-true": lambda d: d.update(chosen_delta=True),
    "chosen-delta-float": lambda d: d.update(chosen_delta=0.001),
    "line-coefficient-float": lambda d: d["lines"][0][0].__setitem__(
        0, float(Fraction(d["lines"][0][0][0]))
    ),
}


@pytest.mark.parametrize("corruption", sorted(REPORT_CORRUPTIONS))
def test_cli_verify_malformed_report_is_a_parse_error(
    tmp_path, trefoil_result, capsys, corruption
):
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["report"].read_text())
    REPORT_CORRUPTIONS[corruption](data)
    files["report"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["spec", "report", "trajectory"])
def test_deeply_nested_json_is_a_parse_error(tmp_path, trefoil_result, capsys, target):
    """100,000 nested arrays exceed the JSON parser's recursion limit; in a
    spec, a report or a trajectory file that is exit 3, not a traceback."""
    nested = "[" * 100_000 + "]" * 100_000
    if target == "spec":
        path = tmp_path / "spec.json"
        path.write_text(nested)
        argv = ["realize", str(path), "--out", str(tmp_path / "x")]
    else:
        files = write_artifacts(trefoil_result, tmp_path, canonical=True)
        files[target].write_text(nested)
        argv = ["verify", str(files["report"])]
    capsys.readouterr()
    assert main(argv) == 3
    assert "recursion" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_verify_accepts_a_spec_echo_at_the_precision_cap(tmp_path, trefoil_result, capsys):
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["report"].read_text())
    data["spec"]["precision_bits"] = 4096
    files["report"].write_text(json.dumps(data))
    assert main(["verify", str(files["report"])]) == 0


def test_verify_artifacts_reports_checks(tmp_path, trefoil_result):
    files = write_artifacts(trefoil_result, tmp_path / "t", canonical=True)
    outcome = verify_artifacts(files["report"])
    assert outcome.passed
    assert [name for name, _, _ in outcome.checks] == [
        "mirror_room_check", "verify_reflection", "certify",
    ]


@pytest.mark.parametrize("name", ["absolute", "../moved/trajectory.json", "sub/trajectory.json", ".", "..", "", 7])
def test_cli_verify_rejects_a_trajectory_name_outside_the_report_directory(
    tmp_path, trefoil_result, capsys, monkeypatch, name
):
    """``files.trajectory`` is a bare file name next to the report; any
    other name is a parse error, raised before a file is opened for it."""
    files = write_artifacts(trefoil_result, tmp_path / "t", canonical=True)
    moved = tmp_path / "moved" / "trajectory.json"
    moved.parent.mkdir()
    files["trajectory"].rename(moved)
    data = json.loads(files["report"].read_text())
    data["files"]["trajectory"] = str(moved) if name == "absolute" else name
    files["report"].write_text(json.dumps(data))
    read = []

    def load_json(path):
        read.append(Path(path))
        return load(path)

    load = serialization._load_json
    monkeypatch.setattr(serialization, "_load_json", load_json)
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "is not a file name in the report's directory" in capsys.readouterr().err
    assert read == [files["report"]]


@pytest.fixture(scope="module")
def preset_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("presets")
    return {
        name: write_artifacts(
            realize(RealizationSpec(pattern=PRESETS[name], preset=name)), out / name, canonical=True
        )["report"]
        for name in sorted(PRESETS)
    }


def test_verify_builds_no_star_geometry(preset_reports, monkeypatch):
    """Verify decides the star and the stored lines in integers: with the
    geometry builder broken, every preset's verdict is unchanged."""
    verdicts = {name: verify_artifacts(report) for name, report in preset_reports.items()}

    def broken(star):
        raise AssertionError("verify built the star's geometry")

    monkeypatch.setattr(stars, "star_geometry", broken)
    assert {name: verify_artifacts(report) for name, report in preset_reports.items()} == verdicts
    assert all(verdict.passed for verdict in verdicts.values())


def test_realize_builds_the_star_geometry_once(tmp_path, monkeypatch):
    calls = []
    build = stars.star_geometry

    def counted(star):
        calls.append((star.p, star.q))
        return build(star)

    monkeypatch.setattr(stars, "star_geometry", counted)
    result = realize(RealizationSpec(pattern=PRESETS["star-10-3"], preset="star-10-3"))
    assert calls == [(10, 3)]
    write_artifacts(result, tmp_path, canonical=True)
    assert calls == [(10, 3)]


def test_old_layout_is_a_parse_error_naming_the_missing_column(tmp_path, trefoil_result, capsys):
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["trajectory"].read_text())
    _old_layout(data)
    files["trajectory"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "malformed trajectory file: missing 'kinds'" in capsys.readouterr().err


def test_previous_layout_is_a_parse_error_naming_the_column(tmp_path, trefoil_result, capsys):
    """A file whose float columns are JSON-number arrays, as every file was
    before the columns were stored as float64 bytes, is not read."""
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["trajectory"].read_text())
    for comp in data["components"]:
        comp.update({column: decode_column(comp[column]) for column in COLUMNS})
    files["trajectory"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "column 'arc' must be a base64 string of float64, got list" in capsys.readouterr().err


def test_finite_check_reads_every_value():
    """A NaN or an infinity after the first value is found: ``max`` of a
    list that holds a NaN can be a finite number."""
    assert _finite([0.5, 1.0], "a column") == [0.5, 1.0]
    for bad in (float("nan"), float("-inf"), float("inf")):
        with pytest.raises(ValueError, match="non-finite value in a column"):
            _finite([0.5, 1.0, bad], "a column")


@pytest.mark.parametrize("column", ["arc", "x", "y", "z"])
@pytest.mark.parametrize("literal", ["1e999", "-1e999"])
def test_overflowing_literal_is_a_parse_error(tmp_path, trefoil_result, capsys, column, literal):
    """A decimal past the float range reads as inf, which would pass a
    tolerance comparison no more than NaN; it is malformed.  A float column
    holds float64 bytes, so its last event gets the infinity the literal
    reads as."""
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["trajectory"].read_text())
    edit_column(data, column, _put(-1, float(literal)))
    files["trajectory"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "non-finite value" in capsys.readouterr().err


@functools.lru_cache(maxsize=None)
def _realized_preset(name):
    return realize(RealizationSpec(pattern=PRESETS[name], preset=name))


def test_stored_decimals_parse_as_mpf_does_at_53_bits(tmp_path):
    """For every preset, the stored kinds are the ones realize walked, no
    mirror is stored, and the file holds no decimal number for a float to
    round-trip through: every float is in a column's bytes (pinned below),
    and no passage height is stored."""
    for name in sorted(PRESETS):
        result = _realized_preset(name)
        files = write_artifacts(result, tmp_path / name, canonical=True)
        decimals = []
        data = json.loads(files["trajectory"].read_text(), parse_float=decimals.append)
        for comp, walked in zip(data["components"], result.trajectory.components):
            assert comp["kinds"] == walked.kinds and "mirrors" not in comp
        assert decimals == [] and list(data) == ["components"]


def test_stored_columns_are_little_endian_float64(tmp_path):
    """Byte-order pin: on every preset, each stored column is 8 bytes of
    little-endian float64 per event, read here with ``struct`` (not the
    host-order ``array`` the writer packs with), and holds the floats
    realize computed, bit for bit."""
    total = 0
    for name in sorted(PRESETS):
        result = _realized_preset(name)
        files = write_artifacts(result, tmp_path / name, canonical=True)
        data = json.loads(files["trajectory"].read_text())
        for comp, walked in zip(data["components"], result.trajectory.components):
            n = len(comp["kinds"])
            for column in COLUMNS:
                raw = base64.b64decode(comp[column], validate=True)
                stored = struct.unpack("<%dd" % n, raw)
                assert [v.hex() for v in stored] == [v.hex() for v in getattr(walked, column)]
                total += n
    assert total > 10_000


def test_verify_rejects_a_report_whose_spec_names_another_pattern(tmp_path, trefoil_result, capsys):
    """The trefoil's artifacts under the unknot's pattern: the same (2, 5)
    star, so only the spec ties the stored padded pattern to a knot type."""
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["report"].read_text())
    unknot = PRESETS["unknot"]
    data["spec"]["pattern"] = {
        "strands": unknot.strands,
        "repetitions": unknot.repetitions,
        "signs": [list(row) for row in unknot.signs],
    }
    files["report"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "padded_pattern does not follow from the spec" in capsys.readouterr().err


def test_independence_check_runs_only_when_read(tmp_path, monkeypatch):
    """realize, the canonical artifacts and verify never run the check;
    the result runs it once, on the first read, and its outcome moves no
    verdict."""
    relation = IndependenceResult(passed=False, component=0, witness=(1, -2, 1))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return relation

    monkeypatch.setattr(perturbation, "independence_check", counted)
    result = realize(RealizationSpec(pattern=PRESETS["unknot"], preset="unknot"))
    files = write_artifacts(result, tmp_path / "out", canonical=True)
    assert main(["verify", str(files["report"])]) == 0
    assert calls == []
    assert result.independence is relation
    assert result.independence is relation
    assert calls == [(result.arcs, pipeline.INDEPENDENCE_MAX_COEFF, pipeline.INDEPENDENCE_TOL)]
    assert result.passed


def test_arc_precision_is_derived_not_read_from_the_spec(tmp_path):
    """A spec key ``arc_precision_bits`` is ignored like any unknown key:
    arcs are built at ``precision_bits``."""
    for bits in (192, 300):
        spec = _write_spec(tmp_path, {"preset": "trefoil", "arc_precision_bits": 100, "precision_bits": bits})
        out = tmp_path / f"out-{bits}"
        assert main(["realize", str(spec), "--out", str(out), "--canonical"]) == 0
        assert main(["verify", str(out / "report.json")]) == 0
        assert realize(RealizationSpec.from_dict(json.loads(spec.read_text()))).arcs.prec_bits == bits


def test_verify_rejects_forged_crossing_heights(tmp_path, trefoil_result, capsys):
    """The unknot's components in the trefoil's trajectory file: the same
    (2, 5) star and seed, so the same lines.  The components match their
    own sawtooth, but its exact heights do not realize the trefoil's
    signs."""
    unknot = realize(RealizationSpec(pattern=PRESETS["unknot"], preset="unknot"))
    assert unknot.heights[0].frequency == 2
    files = write_artifacts(trefoil_result, tmp_path / "trefoil", canonical=True)
    own = write_artifacts(unknot, tmp_path / "unknot", canonical=True)
    forged = json.loads(files["trajectory"].read_text())
    forged["components"] = json.loads(own["trajectory"].read_text())["components"]
    files["trajectory"].write_text(json.dumps(forged))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 4
    out = capsys.readouterr().out
    assert "mirror_room_check: pass" in out
    assert "verify_reflection: pass" in out
    assert "certify: FAIL (the exact heights miss conditions (a)-(c) at margin 0.001)" in out


def test_verify_checks_the_exact_heights_at_the_margin(tmp_path, trefoil_result, capsys):
    """At f = 76 and this phase, crossing 2's exact passage heights are
    ordered the wrong way round, 5e-10 apart.  The file matches its own
    closed form, so it passes the reflection check; only the exact heights
    at the spec's margin reject it."""
    heights = (SawtoothHeight(76, Fraction(442077659563, 2**40)),)
    result = dataclasses.replace(
        trefoil_result,
        heights=heights,
        trajectory=emit_trajectory(trefoil_result.poly, heights, trefoil_result.arcs),
    )
    c = build_height_constraints(trefoil_result.star, trefoil_result.arcs)[2]
    with mp.workprec(192):
        z1, z2 = (evaluate_sawtooth(heights[0], t) for t in (c.first_arc, c.second_arc))
        assert 0 < (z2 - z1 if c.first_over else z1 - z2) < 1e-9
    files = write_artifacts(result, tmp_path, canonical=True)
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 4
    out = capsys.readouterr().out
    assert "mirror_room_check: pass" in out
    assert "verify_reflection: pass" in out
    assert "certify: FAIL (the exact heights miss conditions (a)-(c) at margin 0.001)" in out


def test_verify_rejects_a_huge_stored_frequency_without_generating_it(tmp_path, trefoil_result, capsys):
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["trajectory"].read_text())
    data["components"][0]["frequency"] = 10**9
    files["trajectory"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 4
    assert "expected 5 walls + 2000000000 bounces" in capsys.readouterr().out


def test_pipeline_records_stages(torus25_result):
    stages = set(torus25_result.stage_seconds)
    assert {"pad", "star", "perturb", "table", "arcs",
            "constraints", "heights", "emit", "reflection", "certify"} <= stages
    assert "independence" not in stages
    assert torus25_result.passed


def test_cli_realize_with_a_failed_verdict_writes_artifacts_and_is_exit_4(tmp_path, monkeypatch, capsys):
    """A certificate that fails still leaves the artifacts, names the first
    failed check and exits 4."""
    real_certify = pipeline.certify
    monkeypatch.setattr(
        pipeline, "certify", lambda poly, pattern: dataclasses.replace(real_certify(poly, pattern), passed=False)
    )
    spec = _write_spec(tmp_path, {"preset": "trefoil"})
    out = tmp_path / "out"
    assert main(["realize", str(spec), "--out", str(out), "--canonical"]) == 4
    printed = capsys.readouterr()
    assert (out / "report.json").is_file() and (out / "trajectory.json").is_file()
    assert f"wrote {out / 'report.json'}" in printed.out
    assert "verification failure: certify: certify=FAIL" in printed.err


def test_cli_verify_names_a_stored_event_of_the_wrong_kind(tmp_path, trefoil_result, capsys):
    """The first two events of the trefoil swapped in ``kinds``: a wall and
    a floor bounce, so the reflection check names event 0."""
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["trajectory"].read_text())
    kinds = data["components"][0]["kinds"]
    assert kinds[:2] == "wf"
    data["components"][0]["kinds"] = kinds[1] + kinds[0] + kinds[2:]
    files["trajectory"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 4
    assert "event 0: stored floor event, closed form wall" in capsys.readouterr().out


def test_cli_verify_rejects_a_zero_denominator_as_a_bad_rational(tmp_path, trefoil_result, capsys):
    files = write_artifacts(trefoil_result, tmp_path, canonical=True)
    data = json.loads(files["report"].read_text())
    data["chosen_delta"] = "1/0"
    files["report"].write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(files["report"])]) == 3
    assert "bad rational '1/0'" in capsys.readouterr().err
