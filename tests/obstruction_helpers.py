"""Helpers for the regular-diagram (parity) obstruction tests.

Heights of crossings with matched arc differences cannot be chosen freely:
with t2 - t1 = t4 - t3, the signed heights satisfy a parity relation that
rules out some over/under patterns at every frequency.  These helpers state
that relation and search for a sawtooth hitting prescribed height boxes,
built on the height search's box phases.
"""

import mpmath as mp

from billiardknots.heights import SawtoothHeight, _box_phases, _interval_phases


def signed_residue(frequency: int, phase, t):
    """The quantity 2 frac(f t + phi) - 1, whose sign resolves z into a
    signed height (the parity-obstruction bookkeeping)."""
    y = frequency * t + phase
    fy = y - mp.floor(y) if isinstance(y, mp.mpf) else y - int(y)
    return 2 * fy - 1


def height_pattern_feasible(arcs, bounds, f_max: int = 1000):
    """Search (f, phi) driving z(t_i) into the boxes [lo_i, hi_i].

    Returns a SawtoothHeight or None.  Phases are picked as for the height
    search's last component.
    """
    arcs_f = [float(t) for t in arcs]
    n_grid = 4 * max(1, len(arcs_f))
    for f in range(1, f_max + 1):
        for lo, hi in _box_phases(f, arcs_f, bounds):
            for phi in _interval_phases(lo, hi, n_grid * f):
                return SawtoothHeight(f, phi)
    return None
