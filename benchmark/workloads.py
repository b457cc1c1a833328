"""Workload inputs for the billiardknots benchmark.

Each workload is a fixed list of base inputs: presets, toric patterns and
mixed-sign patterns drawn from a fixed generator stream.  The benchmark's
``--seed`` decides, per input, whether the input is the pattern or its
mirror image (every crossing sign flipped).  The mirror is a cost-neutral
change: phase shift by 1/2 maps z -> 1 - z, so the mirrored height search
accepts the same smallest frequency, with the phase moved by about 1/2, on
the same perturbed geometry.  Run time therefore does not depend on the
seed, while the outputs (and the verdicts) do.

The perturbation seed of each input is fixed (42 for presets, the CLI
default), because it moves the smallest usable frequency by an order of
magnitude and with it the cost of the search, emit and reflection stages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from billiardknots.braids import QuasitoricPattern, pad_to_min_repetitions, toric_pattern
from billiardknots.pipeline import RealizationSpec
from billiardknots.presets import PRESETS

PRESET_SEED = 42

# (kind, arguments): "preset" name | "toric" (strands, repetitions) |
# "random" (strands, repetitions, index in the generator stream)
WORKLOADS: dict[str, tuple[tuple, ...]] = {
    # all-positive 14- and 16-crossing knots, f <= 10: certify dominates
    "torus": (("preset", "torus-3-7"), ("toric", 3, 8)),
    # single-component searches with f from 76 to 1903
    "knots": (
        ("preset", "trefoil"),
        ("random", 2, 11, 0),
        ("random", 2, 11, 1),
        ("random", 2, 13, 0),
        ("random", 3, 7, 0),
    ),
    # coupled components: the joint search over f-tuples
    "links": (
        ("preset", "hopf"),
        ("preset", "star-10-2"),
        ("random", 2, 8, 0),
        ("random", 2, 10, 0),
        ("random", 2, 12, 0),
        ("random", 2, 12, 1),
    ),
    # tiny set for benchmark/selftest.py
    "selftest": (("preset", "unknot"), ("preset", "hopf"), ("preset", "trefoil")),
}


@dataclass(frozen=True)
class BenchInput:
    """One replayable input: the spec dict handed to RealizationSpec.from_dict."""

    name: str
    mirrored: bool
    spec: dict


def random_signs(strands: int, repetitions: int, index: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Mixed-sign matrix and perturbation seed number ``index`` of the stream
    for (strands, repetitions); independent of the benchmark seed."""
    rng = random.Random(f"{strands}/{repetitions}#{index}")
    while True:
        signs = tuple(
            tuple(rng.choice((1, -1)) for _ in range(strands - 1)) for _ in range(repetitions)
        )
        if len({s for row in signs for s in row}) == 2:
            return signs, rng.randrange(1 << 31)


def _pattern_dict(pattern: QuasitoricPattern) -> dict:
    return {
        "strands": pattern.strands,
        "repetitions": pattern.repetitions,
        "signs": [list(row) for row in pattern.signs],
    }


def _base(entry: tuple) -> tuple[str, QuasitoricPattern, int, str | None]:
    kind = entry[0]
    if kind == "preset":
        return entry[1], PRESETS[entry[1]], PRESET_SEED, entry[1]
    if kind == "toric":
        _, q, p = entry
        return f"torus-{q}-{p}", toric_pattern(q, p), PRESET_SEED, None
    _, q, p, index = entry
    signs, seed = random_signs(q, p, index)
    return f"random-{q}-{p}-{index}", QuasitoricPattern(q, p, signs), seed, None


def workload_inputs(workload: str, seed: int) -> list[BenchInput]:
    """The workload's inputs for one benchmark seed."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    flips = random.Random(f"{workload}:{seed}")
    inputs = []
    for entry in WORKLOADS[workload]:
        name, pattern, pseed, preset = _base(entry)
        if flips.random() < 0.5:
            # mirror the padded pattern, so the pipeline pads nothing and the
            # geometry matches the unmirrored input exactly
            mirror = pad_to_min_repetitions(pattern).mirrored()
            spec = {"pattern": _pattern_dict(mirror), "seed": pseed}
            inputs.append(BenchInput(name + "~", True, spec))
        elif preset is not None:
            inputs.append(BenchInput(name, False, {"preset": preset, "seed": pseed}))
        else:
            inputs.append(BenchInput(name, False, {"pattern": _pattern_dict(pattern), "seed": pseed}))
    return inputs


def build_specs(workload: str, seed: int) -> tuple[list[BenchInput], list[RealizationSpec]]:
    """Generate and validate the workload's specs, as the CLI does per spec file."""
    inputs = workload_inputs(workload, seed)
    return inputs, [RealizationSpec.from_dict(inp.spec) for inp in inputs]
