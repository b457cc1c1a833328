#!/usr/bin/env python3
"""Emit an SVG of the star polygon {p/q}, optionally with over/under gaps.

Usage: python scripts/star_figure.py P Q out.svg [--plain]

With the default all-positive pattern the figure shows the torus link
T(p, q) drawn on the star, matching the classic projection pictures;
--plain draws the bare star with no crossing gaps.  The star is
``build_star(toric_pattern(q, p))``, so a (p, q) outside the star's domain
prints that call's one-line error and exits 2: a q below 2 with the
pattern's message ("strands must be >= 2, ..."), a p below 2q + 1 with the
star's.  An outfile that cannot be written (its directory is missing, say)
prints one line and exits 3.
"""

import argparse
import sys

from billiardknots.braids import toric_pattern
from billiardknots.errors import DomainError
from billiardknots.serialization import star_svg
from billiardknots.stars import build_star, over_flags_from_signs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("p", type=int)
    parser.add_argument("q", type=int)
    parser.add_argument("outfile")
    parser.add_argument("--plain", action="store_true")
    args = parser.parse_args(argv)
    try:
        star = build_star(toric_pattern(args.q, args.p))
    except DomainError as exc:
        print(f"star_figure.py: {exc}", file=sys.stderr)
        return 2
    svg = star_svg(star, None if args.plain else over_flags_from_signs(star))
    try:
        with open(args.outfile, "w") as handle:
            handle.write(svg)
    except OSError as exc:
        print(f"star_figure.py: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {args.outfile}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
