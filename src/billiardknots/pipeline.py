"""End-to-end realization: pattern -> star -> perturbed polygon -> prism trajectory.

Stages, in order: pad the pattern into the star regime, build and sign the
star, perturb to rational lines (``perturb_stage``, the one loop over delta:
draws -> lines -> layout -> mirror room, halving on either failure, with
one budget and one error), build the mirrors and assemble the prism table,
compute arcs, build the crossing constraints, search sawtooth heights,
emit the 3D trajectory, check its columns, and certify the knot type
against the abstract closure.  The
``reflection`` stage checks the column shape (m + 2f events) and the float
walk's error bound (``billiards.check_walk``).  It does not regenerate the
columns and compare them with the closed form: emit has just built them by
that same computation.  That comparison (``billiards.verify_reflection``)
runs in ``verify`` on the stored files, and in the tests.
The bounded independence check of the arc lengths is not a stage: it gates
nothing, and ``RealizationResult.independence`` runs it on demand.

Everything is deterministic in (spec, seed).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .billiards import (
    BilliardTable,
    MirrorRoomReport,
    ReflectionReport,
    build_table,
    check_walk,
    mirror_room_check,
    polygon_mirrors,
)
from .braids import QuasitoricPattern, pad_to_min_repetitions
from .errors import CombinatorialCollapseError, DomainError, SpecFileError
from .heights import (
    DEFAULT_F_MAX,
    DEFAULT_MARGIN,
    SawtoothHeight,
    SpatialTrajectory,
    build_height_constraints,
    emit_trajectory,
    search_heights,
)
from .invariants import CertificationReport, certify
from . import perturbation
from .perturbation import PerturbedPolygon, arc_length_table, perturb
from .presets import PRESETS
from .stars import ArcTable, StarDiagram, assign_braid_letters, build_star

REFLECTION_TOL = 1e-9
INDEPENDENCE_MAX_COEFF = 10
INDEPENDENCE_TOL = 1e-12
MIN_PRECISION_BITS = 53
MAX_PRECISION_BITS = 4096


def json_int(x) -> int:
    """A JSON integer.  A float, a string or a bool is malformed: ``int()``
    would truncate or convert it, and a bad value would pass."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_real(x) -> float:
    """A JSON number, integer or not.  A string or a bool is malformed:
    ``float()`` would convert it, and a bad value would pass."""
    if type(x) not in (int, float):
        raise ValueError(f"expected a number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class RealizationSpec:
    """Validated input for one realization run."""

    pattern: QuasitoricPattern
    preset: str | None = None
    seed: int = 42
    delta: Fraction = Fraction(1, 1000)
    f_max: int = DEFAULT_F_MAX
    margin: float = DEFAULT_MARGIN
    precision_bits: int = 192

    @classmethod
    def from_dict(cls, data: dict, overrides: dict | None = None) -> "RealizationSpec":
        if not isinstance(data, dict):
            raise SpecFileError("spec must be a JSON object")
        merged = dict(data)
        for key, value in (overrides or {}).items():
            if value is not None:
                merged[key] = value
        has_pattern = "pattern" in merged
        has_preset = "preset" in merged
        if has_pattern == has_preset:
            raise SpecFileError("exactly one of 'pattern' or 'preset' must be given")
        if has_preset:
            name = merged["preset"]
            if not isinstance(name, str):
                raise SpecFileError(f"preset must be a string, got {name!r}")
            if name not in PRESETS:
                raise SpecFileError(
                    f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
                )
            pattern = PRESETS[name]
        else:
            spec = merged["pattern"]
            try:
                strands = json_int(spec["strands"])
                repetitions = json_int(spec["repetitions"])
                signs = tuple(tuple(json_int(s) for s in row) for row in spec["signs"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SpecFileError(f"malformed pattern: {exc}") from exc
            try:
                pattern = QuasitoricPattern(strands, repetitions, signs)
            except DomainError as exc:
                raise SpecFileError(str(exc)) from exc
        kinds = {"seed": json_int, "delta": lambda v: Fraction(str(v)), "f_max": json_int,
                 "margin": json_real, "precision_bits": json_int}
        try:
            values = {name: kind(merged.get(name, getattr(cls, name))) for name, kind in kinds.items()}
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise SpecFileError(f"malformed numeric field: {exc}") from exc
        for name in ("delta", "f_max"):
            if values[name] <= 0:
                raise SpecFileError(f"{name} must be positive")
        if not 0 < values["margin"] < 0.5:  # NaN fails this too
            raise SpecFileError(f"margin must lie in (0, 1/2), got {values['margin']}")
        if values["precision_bits"] < MIN_PRECISION_BITS:
            # the height search picks phases in float64; confirming them below that proves nothing
            raise SpecFileError(f"precision_bits must be at least {MIN_PRECISION_BITS}")
        if values["precision_bits"] > MAX_PRECISION_BITS:
            # the cost of every mpf stage grows with the bits, so a larger spec echo would stall verify
            raise SpecFileError(f"precision_bits must be at most {MAX_PRECISION_BITS}")
        return cls(pattern=pattern, preset=merged.get("preset"), **values)


@dataclass(frozen=True)
class Verdict:
    """The certificate's checks, in order, as (name, passed, detail)."""

    checks: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def first_failure(self) -> str | None:
        for name, ok, detail in self.checks:
            if not ok:
                return f"{name}: {detail}" if detail else name
        return None


def verdict(
    mirror: MirrorRoomReport,
    reflection: ReflectionReport,
    certification: CertificationReport | str,
) -> Verdict:
    """The three checks that certify a billiard knot, for realize and verify
    alike; ``certification`` is a string when no certificate could be made,
    naming why.  The independence check is only the existence argument
    behind the height search: it gates nothing, and is computed on demand
    as ``RealizationResult.independence``."""
    if isinstance(certification, str):
        certified = ("certify", False, certification)
    else:
        certified = ("certify", certification.passed, "" if certification.passed else certification.summary())
    return Verdict(
        (
            ("mirror_room_check", mirror.passed, "" if mirror.passed else f"witness {mirror.witness}"),
            ("verify_reflection", reflection.passed, "" if reflection.passed else reflection.violations[0]),
            certified,
        )
    )


@dataclass
class RealizationResult:
    """Everything the run produced, for reporting and verification."""

    spec: RealizationSpec
    padded: QuasitoricPattern
    star: StarDiagram
    poly: PerturbedPolygon
    mirror_report: MirrorRoomReport
    table: BilliardTable
    arcs: ArcTable
    heights: tuple[SawtoothHeight, ...]
    trajectory: SpatialTrajectory
    reflection: ReflectionReport
    certification: CertificationReport
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def verdict(self) -> Verdict:
        return verdict(self.mirror_report, self.reflection, self.certification)

    @property
    def passed(self) -> bool:
        return self.verdict.passed

    @cached_property
    def independence(self) -> perturbation.IndependenceResult:
        """The bounded PSLQ check that each component's {1, t_i} has no
        small integer relation, the paper's premise behind the height
        search.  It is computed on first read and then kept: it gates
        nothing (``passed`` is the verdict's), no code in the package reads
        it, and it costs more than the rest of a small run.  It builds its
        own arcs, at ``precision_bits`` or at the 4x the tolerance's digits
        the check needs, whichever is more."""
        bits = max(self.spec.precision_bits, perturbation.required_precision_bits(INDEPENDENCE_TOL))
        arcs = perturbation.arc_length_table(self.poly, bits)
        return perturbation.independence_check(arcs, INDEPENDENCE_MAX_COEFF, INDEPENDENCE_TOL)


MAX_HALVINGS = 60


def perturb_stage(
    star: StarDiagram, delta: Fraction, seed: int
) -> tuple[PerturbedPolygon, MirrorRoomReport]:
    """The first polygon, with its report, that keeps the star's layout and
    passes the mirror-room check at the star's precision.  Halving h draws
    from ``random.Random(seed * 1_000_003 + h)`` at delta / 2^h."""
    for halving in range(MAX_HALVINGS + 1):
        rng = random.Random(seed * 1_000_003 + halving)
        draws = [rng.uniform(-1.0, 1.0) for _ in range(2 * star.p)]
        poly = perturb(star, delta / (1 << halving), draws)
        if poly is not None:
            report = mirror_room_check(poly, prec_bits=star.prec_bits)
            if report.passed:
                return poly, report
    raise CombinatorialCollapseError(
        f"no delta = {delta} * 2^-h for h = 0..{MAX_HALVINGS} gave lines that keep "
        "the star's combinatorics and pass the mirror-room check"
    )


def realize(spec: RealizationSpec) -> RealizationResult:
    """Run the whole pipeline; raises PipelineError subclasses on hard failure."""
    stage_seconds: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        stage_seconds[name] = time.perf_counter() - t0
        return out

    padded = timed("pad", lambda: pad_to_min_repetitions(spec.pattern))
    star = timed(
        "star",
        lambda: assign_braid_letters(
            build_star(padded.repetitions, padded.strands, spec.precision_bits), padded
        ),
    )

    poly, mirror_report = timed("perturb", lambda: perturb_stage(star, spec.delta, spec.seed))
    table = timed(
        "table",
        lambda: build_table(
            polygon_mirrors(poly, spec.precision_bits), prec_bits=spec.precision_bits
        ),
    )
    arcs = timed("arcs", lambda: arc_length_table(poly, spec.precision_bits))
    constraints = timed("constraints", lambda: build_height_constraints(star, arcs))
    heights = timed(
        "heights", lambda: search_heights(constraints, arcs, spec.f_max, spec.margin)
    )
    trajectory = timed("emit", lambda: emit_trajectory(poly, heights, arcs))
    reflection = timed("reflection", lambda: check_walk(trajectory, arcs, REFLECTION_TOL))
    certification = timed("certify", lambda: certify(poly, padded))

    return RealizationResult(
        spec=spec,
        padded=padded,
        star=star,
        poly=poly,
        mirror_report=mirror_report,
        table=table,
        arcs=arcs,
        heights=heights,
        trajectory=trajectory,
        reflection=reflection,
        certification=certification,
        stage_seconds=stage_seconds,
    )
