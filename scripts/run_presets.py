#!/usr/bin/env python3
"""Realize every preset end to end and print a summary table.

Usage: python scripts/run_presets.py [--out DIR]

Exits 0 when every preset passes, 1 when one fails, and 3 when its
artifacts cannot be written under DIR (for instance, DIR is a file).
"""

import argparse
import sys
import time
from pathlib import Path

from billiardknots.errors import PipelineError
from billiardknots.pipeline import RealizationSpec, realize
from billiardknots.presets import PRESETS
from billiardknots.serialization import write_artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="write artifacts under this directory")
    args = parser.parse_args(argv)

    header = f"{'preset':14s} {'f':>18s} {'delta':>8s} {'margin':>8s} {'certified':>9s} {'time':>7s}"
    print(header)
    print("-" * len(header))
    failures = 0
    for name in PRESETS:
        spec = RealizationSpec(pattern=PRESETS[name], preset=name)
        t0 = time.perf_counter()
        try:
            result = realize(spec)
        except PipelineError as exc:  # any other exception is a bug: let it raise
            print(f"{name:14s} FAILED: {exc}")
            failures += 1
            continue
        elapsed = time.perf_counter() - t0
        fs = ",".join(str(h.frequency) for h in result.heights)
        print(
            f"{name:14s} {fs:>18s} {str(result.poly.delta):>8s} "
            f"{float(result.mirror_report.margin):8.3f} "
            f"{str(result.certification.passed):>9s} {elapsed:6.1f}s"
        )
        if not result.passed:
            failures += 1
        if args.out:
            try:
                write_artifacts(result, Path(args.out) / name, canonical=True)
            except OSError as exc:
                print(f"cannot write artifacts: {exc}", file=sys.stderr)
                return 3
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
