"""Command-line interface: realize, verify, presets.

Exit codes: 0 success, 2 height-search exhaustion, 3 spec/parse error or
artifacts that cannot be written (``--out`` names a file, say),
4 verification or certification failure, 5 coincident trajectory events
(a realized bounce on a wall vertex).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CoincidentEventsError, PipelineError, SearchExhaustedError, SpecFileError
from .pipeline import RealizationSpec, realize
from .presets import preset_listing
from .serialization import verify_artifacts, write_artifacts

EXIT_OK = 0
EXIT_SEARCH = 2
EXIT_SPEC = 3
EXIT_VERIFY = 4
EXIT_COINCIDENT = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiardknots",
        description="Realize knots and links as billiard trajectories in convex prisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_realize = sub.add_parser("realize", help="run the full construction from a spec file")
    p_realize.add_argument("spec", help="JSON file with a pattern or preset")
    p_realize.add_argument("--out", default="realization-out", help="output directory")
    p_realize.add_argument("--seed", type=int, default=None)
    p_realize.add_argument("--fmax", type=int, default=None, help="frequency search bound")
    p_realize.add_argument("--margin", type=float, default=None, help="height margin")
    p_realize.add_argument("--precision", type=int, default=None, help="mantissa bits")
    p_realize.add_argument(
        "--canonical", action="store_true", help="omit timings for byte-identical reports"
    )

    p_verify = sub.add_parser("verify", help="re-check stored artifacts")
    p_verify.add_argument("report", help="report.json produced by realize")

    sub.add_parser("presets", help="list the built-in patterns")
    return parser


def cmd_realize(args) -> int:
    overrides = {
        "seed": args.seed,
        "f_max": args.fmax,
        "margin": args.margin,
        "precision_bits": args.precision,
    }
    try:
        spec = RealizationSpec.from_dict(json.loads(Path(args.spec).read_text()), overrides)
    except (OSError, ValueError, RecursionError) as exc:  # bad or too deeply nested JSON, SpecFileError
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    try:
        result = realize(spec)
    except SearchExhaustedError as exc:
        diag = exc.diagnostics
        print(f"height search exhausted: {exc}", file=sys.stderr)
        if diag is not None:
            print(
                f"  best attempt satisfied {diag.satisfied}/{diag.total} constraints; "
                f"unsatisfied crossings: {list(diag.unsatisfied)}",
                file=sys.stderr,
            )
        return EXIT_SEARCH
    except CoincidentEventsError as exc:
        print(f"coincident trajectory events: {exc}", file=sys.stderr)
        return EXIT_COINCIDENT
    except PipelineError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY

    try:
        files = write_artifacts(result, args.out, canonical=args.canonical)
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_SPEC
    print(f"wrote {files['report']}")
    print(f"mirror margin: {result.mirror_report.margin}")
    print(
        "heights: "
        + ", ".join(f"f={h.frequency} phi={h.phase}" for h in result.heights)
    )
    print(result.certification.summary())
    failure = result.verdict.first_failure()
    if failure:
        print(f"verification failure: {failure}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        outcome = verify_artifacts(args.report)
    except SpecFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    for name, ok, detail in outcome.checks:
        line = f"{name}: {'pass' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        print(line)
    if not outcome.passed:
        print(f"verification failed: {outcome.first_failure()}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_presets() -> int:
    for line in preset_listing():
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "realize":
        return cmd_realize(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_presets()


if __name__ == "__main__":
    sys.exit(main())
