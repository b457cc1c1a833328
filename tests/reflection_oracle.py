"""Reference reflection check, point by point.

At every stored event it normalizes the incoming and outgoing 3D
directions, reflects the incoming one (across the mirror for a wall, in z
for a floor or ceiling) and compares; every point must also lie in the
floor polygon and in 0 <= z <= 1.  It shares no logic with
``billiardknots.billiards.verify_reflection``, which regenerates the
trajectory from its closed form instead, and serves as the oracle that
check is compared against.
"""

import itertools

import mpmath as mp
from mirror_room_oracle import plain_contains_xy

from billiardknots.billiards import BilliardTable, ReflectionReport
from billiardknots.heights import CEILING, FLOOR, KIND_NAMES, WALL


def pointwise_reflection(traj, table: BilliardTable, tol: float, prec_bits: int = 128) -> ReflectionReport:
    """Check the reflection law at every bounce and containment in the prism.

    ``traj`` provides per-component columns: ``kinds`` (one letter per
    event, ``w`` wall, ``f`` floor, ``c`` ceiling) and the 3D points ``x``,
    ``y``, ``z``.  Wall event k of component c bounces off the table's
    mirror at vertex k of component c, whose index in the table's flat
    vertex order is the number of vertices before component c plus k.
    Wall bounces must reflect the horizontal direction across the mirror
    line with z-slope carried through; floor and ceiling bounces flip the
    vertical component.
    """
    violations = []
    first_mirror = {}  # component -> flat index of its vertex 0
    for index, mirror in enumerate(table.mirrors):
        first_mirror.setdefault(mirror.component, index)
    with mp.workprec(prec_bits):
        tol_m = mp.mpf(tol)
        for ci, comp in enumerate(traj.components):
            pts = [tuple(mp.mpf(c) for c in point) for point in zip(comp.x, comp.y, comp.z)]
            n = len(pts)
            if n < 3:
                violations.append(f"component {ci}: fewer than 3 points")
                continue
            for i, (x, y, z) in enumerate(pts):
                if z < -tol_m or z > 1 + tol_m:
                    violations.append(f"component {ci} point {i}: z={mp.nstr(z, 8)} outside [0,1]")
                if not plain_contains_xy(table, (x, y), tol_m, prec_bits):
                    violations.append(f"component {ci} point {i}: leaves the floor polygon")
            walls = itertools.count(first_mirror[ci])
            for i, kind in enumerate(comp.kinds):
                mirror_index = next(walls) if kind == WALL else None
                name = KIND_NAMES.get(kind, kind)
                prev_pt = pts[(i - 1) % n]
                here = pts[i]
                next_pt = pts[(i + 1) % n]
                d_in = [here[j] - prev_pt[j] for j in range(3)]
                d_out = [next_pt[j] - here[j] for j in range(3)]
                nin = mp.sqrt(mp.fsum(c * c for c in d_in))
                nout = mp.sqrt(mp.fsum(c * c for c in d_out))
                if nin == 0 or nout == 0:
                    violations.append(f"component {ci} event {i}: repeated point")
                    continue
                d_in = [c / nin for c in d_in]
                d_out = [c / nout for c in d_out]
                if kind in (FLOOR, CEILING):
                    expect = (d_in[0], d_in[1], -d_in[2])
                    z_expect = mp.mpf(0) if kind == FLOOR else mp.mpf(1)
                    if abs(here[2] - z_expect) > tol_m:
                        violations.append(
                            f"component {ci} event {i}: {name} bounce at z={mp.nstr(here[2], 8)}"
                        )
                elif kind == WALL:
                    mirror = table.mirrors[mirror_index]
                    ux, uy = mirror.direction
                    dot = d_in[0] * ux + d_in[1] * uy
                    expect = (d_in[0] - 2 * dot * ux, d_in[1] - 2 * dot * uy, d_in[2])
                else:
                    violations.append(f"component {ci} event {i}: unknown kind {kind}")
                    continue
                err = max(abs(d_out[j] - expect[j]) for j in range(3))
                if err > tol_m:
                    violations.append(
                        f"reflection law violated at component {ci} event {i} "
                        f"({name}, vertex {'-' if mirror_index is None else mirror_index}): err={mp.nstr(err, 6)}"
                    )
    return ReflectionReport(passed=not violations, violations=tuple(violations))

