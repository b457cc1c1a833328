"""Reference event walks.

``mpf_component_events`` is the trajectory walk of
``heights.component_events`` carried out entirely in mpf: every vertex,
arc, extremum and point at the caller's working precision, returned in the
same columns.  The float64 walk is compared against it within
``billiards.walk_error_bound``.

``float_component_events`` is the float64 walk one event at a time, with
the same operations in the same order; the column walk, which cuts the
sorted extremum arcs into one slice per segment, must equal it bit for bit.
"""

import itertools
import math

import mpmath as mp

from billiardknots.errors import CoincidentEventsError, DomainError
from billiardknots.heights import (
    CEILING,
    EVENT_GAP,
    FLOOR,
    WALL,
    SawtoothHeight,
    TrajComponent,
    _float_heights,
)
from billiardknots.perturbation import to_mpf

from height_oracles import evaluate_sawtooth


def mpf_component_events(vertices, vertex_arcs, saw: SawtoothHeight) -> TrajComponent:
    """One component's events in arc order, as columns of mpf values: wall
    vertex i at arc ``vertex_arcs[i]`` and height z(arc), and the 2f
    sawtooth extrema at arcs (h/2 - phi)/f in [0, 1), at height 1 (integer
    h) or 0, on the planar segment whose arc interval holds them.  Raises
    DomainError when two events coincide."""
    m = len(vertices)
    phi = to_mpf(saw.phase)
    verts = [(to_mpf(x), to_mpf(y)) for x, y in vertices]
    # extrema in t in [0, 1) sit at h/2 in [phi, f + phi), phi < 1
    extrema = itertools.dropwhile(
        lambda extremum: extremum[0] < 0,
        (((mp.mpf(half) / 2 - phi) / saw.frequency, half % 2 == 0) for half in itertools.count()),
    )
    t_star, ceiling = next(extrema)
    kinds, arc, x, y, z = [], [], [], [], []
    for i in range(m):
        start = vertex_arcs[i]
        end = vertex_arcs[i + 1] if i + 1 < m else mp.mpf(1)
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % m]
        kinds.append(WALL)
        arc.append(start)
        x.append(x0)
        y.append(y0)
        z.append(evaluate_sawtooth(saw, start))
        previous, span, dx, dy = start, end - start, x1 - x0, y1 - y0
        while t_star < end:
            if not previous < t_star:
                raise DomainError("coincident trajectory events; margin too small")
            lam = (t_star - start) / span
            kinds.append(CEILING if ceiling else FLOOR)
            arc.append(t_star)
            x.append(x0 + lam * dx)
            y.append(y0 + lam * dy)
            z.append(mp.mpf(1 if ceiling else 0))
            previous = t_star
            t_star, ceiling = next(extrema)
    return TrajComponent(saw, "".join(kinds), arc, x, y, z)


def float_component_events(vertices, vertex_arcs, saw: SawtoothHeight) -> TrajComponent:
    """The float64 walk event by event: each extremum arc (h/2 - phi)/f is
    computed, tested against the previous event and placed on its segment
    in turn.  Raises CoincidentEventsError as ``heights.component_events``
    does."""
    m = len(vertices)
    f = saw.frequency
    phi = float(saw.phase)
    verts = [(float(x), float(y)) for x, y in vertices]
    arcs = [float(t) for t in vertex_arcs] + [1.0]
    wall_z = _float_heights(saw, vertex_arcs)
    h = math.ceil(2 * phi)
    stop = h + 2 * f
    t_star = (h / 2 - phi) / f
    previous = -1.0
    kinds, arc, x, y, z = [], [], [], [], []
    for i in range(m):
        start, end = arcs[i], arcs[i + 1]
        if not start - previous > EVENT_GAP:
            raise CoincidentEventsError(f"wall vertex {i} coincides with a bounce; margin too small")
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % m]
        kinds.append(WALL)
        arc.append(start)
        x.append(x0)
        y.append(y0)
        z.append(wall_z[i])
        previous, span, dx, dy = start, end - start, x1 - x0, y1 - y0
        while h < stop and t_star < end:
            if not t_star - previous > EVENT_GAP:
                raise CoincidentEventsError("coincident trajectory events; margin too small")
            lam = (t_star - start) / span
            ceiling = h % 2 == 0
            kinds.append(CEILING if ceiling else FLOOR)
            arc.append(t_star)
            x.append(x0 + lam * dx)
            y.append(y0 + lam * dy)
            z.append(1.0 if ceiling else 0.0)
            previous = t_star
            h += 1
            t_star = (h / 2 - phi) / f
    if h < stop or not 1.0 - previous > EVENT_GAP:
        raise CoincidentEventsError("a bounce coincides with wall vertex 0; margin too small")
    return TrajComponent(saw, "".join(kinds), arc, x, y, z)
