"""Reference event walk at the working precision.

This is the trajectory walk of ``heights.component_events`` carried out
entirely in mpf: every vertex, arc, extremum and point at the caller's
working precision.  The float64 walk is compared against it within
``billiards.walk_error_bound``.
"""

import itertools

import mpmath as mp

from billiardknots.errors import DomainError
from billiardknots.heights import SawtoothHeight, TrajEvent, evaluate_sawtooth
from billiardknots.perturbation import to_mpf


def mpf_component_events(vertices, vertex_arcs, first_mirror: int, saw: SawtoothHeight):
    """Yield one component's events in arc order, each with its mpf 3D
    point: wall vertex i at arc ``vertex_arcs[i]`` and height z(arc), and
    the 2f sawtooth extrema at arcs (h/2 - phi)/f in [0, 1), at height 1
    (integer h) or 0, on the planar segment whose arc interval holds them.
    Raises DomainError when two events coincide."""
    m = len(vertices)
    phi = to_mpf(saw.phase)
    verts = [(to_mpf(x), to_mpf(y)) for x, y in vertices]
    # extrema in t in [0, 1) sit at h/2 in [phi, f + phi), phi < 1
    extrema = itertools.dropwhile(
        lambda extremum: extremum[0] < 0,
        (((mp.mpf(half) / 2 - phi) / saw.frequency, half % 2 == 0) for half in itertools.count()),
    )
    t_star, ceiling = next(extrema)
    for i in range(m):
        start = vertex_arcs[i]
        end = vertex_arcs[i + 1] if i + 1 < m else mp.mpf(1)
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % m]
        yield TrajEvent("wall", start, first_mirror + i), (x0, y0, evaluate_sawtooth(saw, start))
        previous, span, dx, dy = start, end - start, x1 - x0, y1 - y0
        while t_star < end:
            if not previous < t_star:
                raise DomainError("coincident trajectory events; margin too small")
            lam = (t_star - start) / span
            point = (x0 + lam * dx, y0 + lam * dy, mp.mpf(1 if ceiling else 0))
            yield TrajEvent("ceiling" if ceiling else "floor", t_star), point
            previous = t_star
            t_star, ceiling = next(extrema)
