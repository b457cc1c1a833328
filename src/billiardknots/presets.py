"""Named input patterns for the pipeline and the CLI."""

from __future__ import annotations

from .braids import QuasitoricPattern, component_count, pad_to_min_repetitions, toric_pattern


def _signed(k: int, rows: list[list[int]]) -> QuasitoricPattern:
    return QuasitoricPattern(k, len(rows), tuple(tuple(r) for r in rows))


PRESETS: dict[str, QuasitoricPattern] = {
    # closure of sigma_1^2 sigma_1^-2 sigma_1 = sigma_1: the unknot
    "unknot": _signed(2, [[1], [1], [-1], [-1], [1]]),
    # sigma_1^4 sigma_1^-1 = sigma_1^3: the right trefoil
    "trefoil": _signed(2, [[1], [1], [1], [1], [-1]]),
    # (sigma_1 sigma_2^-1)^2, padded into the star regime
    "figure-eight": _signed(3, [[1, -1], [1, -1]]),
    "torus-2-5": toric_pattern(2, 5),
    "torus-3-7": toric_pattern(3, 7),
    "star-10-3": toric_pattern(3, 10),
    "star-10-2": toric_pattern(2, 10),
    "star-9-3": toric_pattern(3, 9),
    "hopf": toric_pattern(2, 2),
}


def preset_listing() -> list[str]:
    """One line per preset: name, type, padding, component count."""
    lines = []
    for name, pat in PRESETS.items():
        padded = pad_to_min_repetitions(pat)
        desc = f"{name}: ({pat.strands},{pat.repetitions})"
        if padded.repetitions != pat.repetitions:
            desc += f" padded to ({padded.strands},{padded.repetitions})"
        comps = component_count(padded)
        desc += f", {comps}-component {'link' if comps > 1 else 'knot'}"
        signs = {s for row in pat.signs for s in row}
        desc += ", all-positive" if signs == {1} else ", mixed signs"
        lines.append(desc)
    return lines
