"""Self-test of the benchmark on a tiny input set (unknot, hopf, trefoil).

Run from the repository root:

    python3 benchmark/selftest.py

It checks, in both modes, that every metric BENCHMARK.json names is
reported with its unit and that the output gate passes; that
``heights.f_scanned`` matches the known searches (trefoil: f = 76; hopf:
(2, 1), position 3 in shell order); and that mirroring an input, which is
what the benchmark seed varies, leaves the accepted frequencies unchanged.
Exits non-zero at the first failed check.
"""

from __future__ import annotations

import itertools
import json
import sys

import run


def shell_order(d: int, top: int):
    """Reference enumeration of the height search's shell order: f-tuples by
    ascending maximum, lexicographic within each shell."""
    for shell in range(1, top + 1):
        for f_tuple in itertools.product(range(1, shell + 1), repeat=d):
            if max(f_tuple) == shell:
                yield f_tuple


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run.measure("selftest", 1, 0, trace)
        results[trace] = result
        check(result["correct"], f"trace {trace} output gate: {result['gate_errors']}")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"trace {trace} metrics {sorted(got.items())} != {sorted(want.items())}")
        print(f"trace {trace}: {len(got)} metrics with units, output gate passes")

    from tracing import shell_position

    for d in (1, 2, 3):
        for position, f_tuple in enumerate(shell_order(d, 6), start=1):
            check(shell_position(f_tuple) == position, f"shell position of {f_tuple}")
    by_base = {rec["input"].rstrip("~"): rec for rec in results[1]["records"]}
    trefoil, hopf = by_base["trefoil"], by_base["hopf"]
    check(trefoil["f"] == [76], f"trefoil f {trefoil['f']}")
    check(trefoil["counts"]["heights.f_scanned"] == 76, f"trefoil f_scanned {trefoil['counts']}")
    hopf_position = list(shell_order(2, 2)).index((2, 1)) + 1
    check(hopf["f"] == [2, 1], f"hopf f {hopf['f']}")
    check(hopf["counts"]["heights.f_scanned"] == hopf_position == 3, f"hopf f_scanned {hopf['counts']}")
    print("heights.f_scanned: trefoil 76, hopf 3 = position of (2, 1)")

    from billiardknots.pipeline import RealizationSpec, realize
    from workloads import workload_inputs

    variants = {}
    for seed in range(16):
        for inp in workload_inputs("selftest", seed):
            variants.setdefault(inp.name.rstrip("~"), {})[inp.mirrored] = inp.spec
    for name, specs in sorted(variants.items()):
        check(len(specs) == 2, f"seeds 0-15 never flip {name}")
        freqs = {
            mirrored: [h.frequency for h in realize(RealizationSpec.from_dict(spec)).heights]
            for mirrored, spec in specs.items()
        }
        check(freqs[True] == freqs[False], f"{name}: mirror changes f {freqs}")
    print("mirrored inputs keep their frequencies")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
