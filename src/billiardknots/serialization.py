"""Artifact files written by a realization run and re-read by verification.

JSON is the single interchange format: rationals are serialized as "num/den"
strings to keep exactness across the boundary, high-precision reals as
decimal strings, and the float64 reals of ``diagram.json`` as JSON numbers,
each the shortest repr that reads back bit for bit.  ``trajectory.json``
stores each component as columns: a ``kinds`` string with one letter per
event (``w`` wall, ``f`` floor, ``c`` ceiling) and the float columns
``arc``, ``x``, ``y`` and ``z``, one value per event, each a base64 string
of little-endian float64 (8 bytes per event).  The bytes are the floats
themselves, so every value reads back bit for bit, and no float is turned
into decimal text and back.  No crossing height is stored: the star's
signs decide each crossing's over/under.  Wall event k of component c
bounces off the ``table.json`` mirror with ``component`` c and
``vertex_index`` k, so the file names no mirror.  This module is the only
one that encodes or decodes the columns.  The prism additionally ships as
an OBJ mesh and the diagram as an SVG with under-strand gaps, in the style
of star-polygon projection figures; ``diagram.json`` and ``diagram.svg``
both draw from the star's float64 ``StarDiagram.picture``.
``report.json`` is indented; ``trajectory.json``, ``table.json`` and
``diagram.json`` are one-line JSON, written by json's C encoder, which an
indent would turn off.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from .billiards import COLUMNS, mirror_room_check, verify_reflection
from .braids import QuasitoricPattern, pad_to_min_repetitions
from .errors import SpecFileError
from .heights import (
    KIND_NAMES, SawtoothHeight, SpatialTrajectory, TrajComponent, build_height_constraints,
    confirm_heights,
)
from .invariants import certify, jones_string
from .perturbation import PerturbedPolygon, arc_length_table, layout_from_lines
from .pipeline import (
    REFLECTION_TOL, RealizationResult, RealizationSpec, Verdict, json_int, verdict,
)
from .stars import build_star, over_flags_from_signs, star_diagram_json

MPF_DIGITS = 40
GAP_FRACTION = 0.035  # of a chord, cut from the under strand on each side of a crossing


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_frac(s: str) -> Fraction:
    """A rational stored as a "num/den" string.  A JSON number or a bool is
    malformed: ``Fraction()`` would convert it, and a bad value would pass."""
    if type(s) is not str:
        raise SpecFileError(f"expected a rational as a string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"bad rational {s!r}") from exc


def _num(x) -> str:
    """An mpf as MPF_DIGITS significant digits of its own value, at the
    precision it was computed at."""
    return mp.nstr(x, MPF_DIGITS)


# a float column's bytes are little-endian float64; array('d') holds the host's order
_BIG_ENDIAN = sys.byteorder == "big"


def _finite(values: list[float], where: str) -> list[float]:
    """``values``, unless one of them is NaN or infinite (one C-level pass
    over all of them)."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite value in {where}")
    return values


def _encode_column(values) -> str:
    """A float column as base64 of little-endian float64."""
    packed = array("d", values)
    if _BIG_ENDIAN:
        packed.byteswap()
    return base64.b64encode(packed).decode("ascii")


def _decode_column(name: str, text, events: int) -> list[float]:
    """A stored float column of ``events`` values.  It must be a base64
    string of exactly 8 bytes per event, and every value finite; a JSON
    array of numbers (the previous layout) is malformed."""
    if type(text) is not str:
        raise ValueError(
            f"column {name!r} must be a base64 string of float64, got {type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character past ASCII
        raise ValueError(f"column {name!r} is not base64: {exc}") from exc
    if len(raw) != 8 * events:
        raise ValueError(f"column {name!r} holds {len(raw)} bytes, expected 8 x {events} events")
    values = array("d")
    values.frombytes(raw)
    if _BIG_ENDIAN:
        values.byteswap()
    return _finite(values.tolist(), f"column {name!r}")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _laurent_json(poly: dict[int, int]) -> dict:
    return {str(e): c for e, c in sorted(poly.items())}


def _pattern_json(pattern: QuasitoricPattern) -> dict:
    return {
        "strands": pattern.strands,
        "repetitions": pattern.repetitions,
        "signs": [list(row) for row in pattern.signs],
    }


def _write_json(path: Path, data, indent: int | None = None) -> None:
    path.write_text(json.dumps(data, indent=indent, sort_keys=True) + "\n")


def _load_json(path: Path) -> dict:
    """A JSON file; a NaN or Infinity token is malformed."""
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SpecFileError(f"cannot read {path}: {exc}") from exc


def trajectory_json(result: RealizationResult) -> dict:
    """The trajectory as stored: each float column packed into one base64
    string, the rest as it is in memory."""
    return {
        "components": [
            {
                "frequency": comp.sawtooth.frequency,
                "phase": _frac_str(comp.sawtooth.phase),
                "kinds": comp.kinds,
                **{name: _encode_column(getattr(comp, name)) for name in COLUMNS},
            }
            for comp in result.trajectory.components
        ],
    }


def table_json(result: RealizationResult) -> dict:
    return {
        "floor": [[_num(x), _num(y)] for x, y in result.table.floor],
        "height": [0, 1],
        "mirrors": [
            {
                "vertex": [_frac_str(m.vertex[0]), _frac_str(m.vertex[1])],
                "direction": [_num(m.direction[0]), _num(m.direction[1])],
                "component": m.component,
                "vertex_index": m.vertex_index,
            }
            for m in result.table.mirrors
        ],
    }


def prism_obj(result: RealizationResult) -> str:
    floor = [(float(x), float(y)) for x, y in result.table.floor]
    n = len(floor)
    lines = ["# convex prism (floor polygon x [0,1])"]
    for x, y in floor:
        lines.append(f"v {x:.12f} {y:.12f} 0.0")
    for x, y in floor:
        lines.append(f"v {x:.12f} {y:.12f} 1.0")
    bottom = " ".join(str(i + 1) for i in reversed(range(n)))
    top = " ".join(str(n + i + 1) for i in range(n))
    lines.append(f"f {bottom}")
    lines.append(f"f {top}")
    for i in range(n):
        j = (i + 1) % n
        lines.append(f"f {i + 1} {j + 1} {n + j + 1} {n + i + 1}")
    return "\n".join(lines) + "\n"


def star_svg(star, over_flags: dict[int, bool] | None = None) -> str:
    """Star-polygon figure from the star's float64 picture, one path per
    component; with ``over_flags`` (crossing id -> whether the chord_a
    strand is over) the under strand is broken at each crossing."""
    vertices, points = star.picture.vertices, star.picture.points
    cuts: dict[int, list[float]] = {c: [] for c in range(star.p)}
    for cr in (star.crossings if over_flags is not None else ()):
        chord = cr.chord_b if over_flags[cr.index] else cr.chord_a
        (ax, ay), (bx, by) = vertices[chord], vertices[(chord + star.q) % star.p]
        (x, y), dx, dy = points[cr.index], bx - ax, by - ay
        cuts[chord].append(((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy))
    paths = []
    for comp in star.components:
        parts = []
        for chord in comp:
            (ax, ay), (bx, by) = vertices[chord], vertices[(chord + star.q) % star.p]
            spans = [(0.0, 1.0)]
            for lam in sorted(cuts[chord]):
                new = []
                for lo, hi in spans:
                    if lam - GAP_FRACTION > lo:
                        new.append((lo, min(hi, lam - GAP_FRACTION)))
                    if lam + GAP_FRACTION < hi:
                        new.append((max(lo, lam + GAP_FRACTION), hi))
                spans = new
            for lo, hi in spans:
                x0, y0 = ax + lo * (bx - ax), ay + lo * (by - ay)
                x1, y1 = ax + hi * (bx - ax), ay + hi * (by - ay)
                parts.append(f"M {x0:.5f} {-y0:.5f} L {x1:.5f} {-y1:.5f}")
        paths.append(" ".join(parts))
    body = "\n".join(
        f'<path d="{d}" stroke="black" stroke-width="0.02" fill="none" stroke-linecap="round"/>'
        for d in paths
    )
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.25 -1.25 2.5 2.5">\n'
        f"{body}\n</svg>\n"
    )


def report_json(result: RealizationResult, canonical: bool = False) -> dict:
    spec = result.spec
    passages_by_crossing: dict[int, list] = {}
    for ci, passages in enumerate(result.arcs.passages):
        for ps in passages:
            passages_by_crossing.setdefault(ps.crossing, []).append(
                {"component": ci, "arc": _num(ps.arc), "side": "a" if ps.is_a_side else "b"}
            )
    report = {
        "stages": {name: "pass" if ok else "fail" for name, ok, _ in result.verdict.checks},
        "spec": {
            "preset": spec.preset,
            "pattern": _pattern_json(spec.pattern),
            "seed": spec.seed,
            "delta": _frac_str(spec.delta),
            "f_max": spec.f_max,
            "margin": spec.margin,
            "precision_bits": spec.precision_bits,
        },
        "padded_pattern": _pattern_json(result.padded),
        "star": {"p": result.star.p, "q": result.star.q},
        "chosen_delta": _frac_str(result.poly.delta),
        "lines": [
            [[_frac_str(a), _frac_str(b)] for a, b in comp.lines]
            for comp in result.poly.components
        ],
        "mirror_check": {
            "passed": result.mirror_report.passed,
            "margin": _num(result.mirror_report.margin),
        },
        "crossings": [
            {
                "index": c.index,
                "chords": [c.chord_a, c.chord_b],
                "braid_row": c.braid_row,
                "braid_col": c.braid_col,
                "sign": c.sign,
                "passages": passages_by_crossing[c.index],
            }
            for c in result.star.crossings
        ],
        "reflection": {"passed": result.reflection.passed, "tolerance": REFLECTION_TOL},
        "jones": {
            "constructed": _laurent_json(result.certification.jones_constructed),
            "intended": _laurent_json(result.certification.jones_intended),
            "constructed_pretty": jones_string(result.certification.jones_constructed),
            "intended_pretty": jones_string(result.certification.jones_intended),
            "exponent_denominator": 2,
        },
        "component_count": result.certification.components_constructed,
        "certified": result.certification.passed,
        "files": {
            "trajectory": "trajectory.json",
            "table": "table.json",
            "diagram": "diagram.json",
            "diagram_svg": "diagram.svg",
            "mesh": "prism.obj",
        },
    }
    if not canonical:
        report["timings"] = {k: round(v, 6) for k, v in result.stage_seconds.items()}
    return report


def write_artifacts(result: RealizationResult, outdir, canonical: bool = False) -> dict[str, Path]:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "report": out / "report.json",
        "trajectory": out / "trajectory.json",
        "table": out / "table.json",
        "diagram": out / "diagram.json",
        "diagram_svg": out / "diagram.svg",
        "mesh": out / "prism.obj",
    }
    # only the report is indented: an indent turns json's C encoder off
    _write_json(files["report"], report_json(result, canonical), indent=1)
    _write_json(files["trajectory"], trajectory_json(result))
    _write_json(files["table"], table_json(result))
    _write_json(files["diagram"], star_diagram_json(result.star))
    files["diagram_svg"].write_text(star_svg(result.star, over_flags_from_signs(result.star)))
    files["mesh"].write_text(prism_obj(result))
    return files


def verify_artifacts(report_path) -> Verdict:
    """Independently re-run the mirror-room, reflection, and certification
    checks on stored artifacts.

    The report's spec echo is parsed as a spec, and the padded pattern and
    signed star are derived from it as ``realize`` derives them; a report
    whose ``padded_pattern`` or ``star`` disagrees is malformed.  The star
    is its integer combinatorics only: its geometry is never built, since
    ``layout_from_lines`` checks the stored lines against the star in
    integers.  Stored lines that no longer cut out the star's combinatorics
    (two consecutive ones parallel, say) fail as ``combinatorics``.  The
    report's ``files.trajectory`` must be a bare file name, read from the
    report's directory; a path (absolute, with a separator, or ``.`` or
    ``..``) is malformed, and no file is opened for it.  The reflection check
    compares the stored trajectory with the closed form its lines and
    sawtooths fix; it reads only their polygon and its arc table, so no
    floor polygon is built (``table.json`` is for viewers, not re-read).
    ``certify`` runs only once the trajectory's own (f, phi) satisfy
    conditions (a)-(c) exactly, on that arc table at the spec's margin
    (``confirm_heights``); a miss fails as ``certify``.  With every exact
    gap at least the margin and ordered as the star's signs prescribe, the
    signs are the exact trajectory's over/under at every crossing, so
    ``certify`` reads them from the star and proves, by a diagram
    isomorphism, that the signed star is the padded pattern's closure; a
    passing verify computes no Kauffman bracket.  All three checks run on every
    report; one that fails the mirror-room check fails on it first; that
    check screens in float64 and builds no mirror (``mirror_room_check``).
    The trajectory's ``kinds`` string is read as JSON and each float column
    is decoded from its base64 string of little-endian float64, every float
    bit for bit as it was written, and their shape is checked here: one
    component per polygon component, and each column exactly 8 bytes per
    letter of ``kinds``.  Wall event k of component c is at vertex k of
    component c, whose mirror is ``table.json``'s (c, k), so no mirror is
    stored; the reflection check pins each wall point to that vertex
    through the regenerated ``x`` and ``y`` columns.  An unknown key is
    ignored, such as the ``mirrors`` array and the array of passage heights
    per crossing that earlier files stored.  A missing column (as in a file
    of the earlier point-and-event layout), a column that is not a base64
    string (as in the previous layout of JSON numbers, named by its
    column), a payload of the wrong length, a NaN or infinite value in a
    column, a rational (the chosen delta, a line coefficient or a phase)
    that is not a "num/den" string, or an unknown kind letter is a parse
    error."""
    report_path = Path(report_path)
    report = _load_json(report_path)
    try:
        echo = dict(report["spec"])
        echo.pop("preset", None)
        spec = RealizationSpec.from_dict(echo)
        padded = pad_to_min_repetitions(spec.pattern)
        star = build_star(padded, spec.precision_bits)
        if report["padded_pattern"] != _pattern_json(padded):
            raise ValueError("padded_pattern does not follow from the spec")
        if report["star"] != {"p": star.p, "q": star.q}:
            raise ValueError("star does not follow from the spec")
        lines_by_comp = report["lines"]
        delta = _parse_frac(report["chosen_delta"])
        traj_name = report["files"]["trajectory"]
        if type(traj_name) is not str or traj_name in ("", "..") or Path(traj_name).name != traj_name:
            raise ValueError(f"trajectory {traj_name!r} is not a file name in the report's directory")
        traj_file = report_path.parent / traj_name
        if len(lines_by_comp) != len(star.components):
            raise ValueError(
                f"lines for {len(lines_by_comp)} components, expected {len(star.components)}"
            )
        flat_lines: list[tuple[Fraction, Fraction] | None] = [None] * star.p
        for ci, (comp_lines, chain) in enumerate(zip(lines_by_comp, star.components)):
            if len(comp_lines) != len(chain):
                raise ValueError(
                    f"component {ci} has {len(comp_lines)} lines, expected one per chord: {len(chain)}"
                )
            for chord, (a_s, b_s) in zip(chain, comp_lines):
                flat_lines[chord] = (_parse_frac(a_s), _parse_frac(b_s))
    except (KeyError, TypeError, ValueError) as exc:  # DomainError is a ValueError
        raise SpecFileError(f"malformed report: {exc}") from exc
    layout = layout_from_lines(star, flat_lines)
    if layout is None:
        return Verdict((("combinatorics", False, "stored lines no longer match the star"),))
    poly = PerturbedPolygon(star, delta, *layout)
    prec = spec.precision_bits
    mirror = mirror_room_check(poly, prec_bits=prec)

    traj_data = _load_json(traj_file)
    try:
        components = []
        for comp in traj_data["components"]:
            saw = SawtoothHeight(json_int(comp["frequency"]), _parse_frac(comp["phase"]))
            kinds = comp["kinds"]
            if type(kinds) is not str or not set(kinds) <= KIND_NAMES.keys():
                raise ValueError(f"kinds must be a string of the letters {''.join(KIND_NAMES)}")
            columns = [_decode_column(name, comp[name], len(kinds)) for name in COLUMNS]
            components.append(TrajComponent(saw, kinds, *columns))
        if len(components) != len(poly.components):
            raise ValueError(f"{len(components)} components, expected {len(poly.components)}")
    except KeyError as exc:
        raise SpecFileError(f"malformed trajectory file: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"malformed trajectory file: {exc}") from exc
    trajectory = SpatialTrajectory(components=tuple(components), poly=poly)

    arcs = arc_length_table(poly, prec)
    reflection = verify_reflection(trajectory, arcs, REFLECTION_TOL)
    heights = tuple(comp.sawtooth for comp in components)
    if not confirm_heights(heights, build_height_constraints(star, arcs), arcs, spec.margin):
        certification = f"the exact heights miss conditions (a)-(c) at margin {spec.margin}"
    else:
        certification = certify(poly, padded)
    return verdict(mirror, reflection, certification)
