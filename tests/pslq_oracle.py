"""Reference PSLQ kernel, the straightforward loop.

It is the fixed-point PSLQ of mpmath 1.3.0 (``mp.pslq``) step for step,
returning the iteration count and the exit as well as the relation.  Every
step recomputes every pivot weight, sweeps every reduction column and takes
max|H| for the norm bound.  ``billiardknots.perturbation._pslq`` skips the
work whose result is already known and is compared against this oracle on
(relation, steps, exit).
"""

from __future__ import annotations

import mpmath as mp
from mpmath.libmp import sqrt_fixed


def pslq(x, tol, maxcoeff: int, maxsteps: int) -> tuple[list[int] | None, int, str]:
    """Integer relation search on ``x`` at the working precision, step for
    step the fixed-point PSLQ of mpmath 1.3.0 (``mp.pslq``).

    Returns (relation or None, iterations run, exit), where exit is
    "relation" (some |y_i| < tol with every coefficient below ``maxcoeff``),
    "bound" (the norm bound reached ``maxcoeff``), "step_cap" (``maxsteps``
    ran out) or "tiny" (an entry below tol/100, or a zero rotation norm: the
    precision is exhausted).

    The integer arithmetic is mpmath's (prec + 60 guard bits, the same
    initial reduction, pivot, rotation, rounding and exits), so relations and
    exits are identical.  Only the bookkeeping differs:

    * H is a list of rows and B is kept transposed, so an exchange is a list
      swap;
    * a reduction multiplier is a rounded multiple of 2^prec, so mpmath's
      (t*v) >> prec is exactly (t >> prec)*v, B only ever holds multiples of
      2^prec and is kept divided by 2^prec, and a zero multiplier, which
      changes nothing, is skipped;
    * mpmath's matrix A, which it updates but never reads, is not kept;
    * the pivot weights g**i are computed once.
    """
    n = len(x)
    if n < 2:
        raise ValueError("n cannot be less than 2")
    prec = mp.mp.prec
    if prec < 53:
        raise ValueError("prec cannot be less than 53")
    prec += 60
    tol = mp.convert(tol).to_fixed(prec)
    if not tol:
        raise ValueError("tol is zero at the working precision")
    x = [mp.mpf(v).to_fixed(prec) for v in x]
    minx = min(map(abs, x))
    if not minx:
        raise ValueError("PSLQ requires a vector of nonzero numbers")
    if minx < tol // 100:
        return None, 0, "tiny"
    half = 1 << (prec - 1)
    g = sqrt_fixed((4 << prec) // 3, prec)
    weights = [(g ** (i + 1), prec * i) for i in range(n - 1)]

    s = [0] * n
    total = 0
    for k in range(n - 1, -1, -1):
        total += x[k] ** 2 >> prec
        s[k] = sqrt_fixed(total, prec)
    y = [(v << prec) // s[0] for v in x]
    s = [(v << prec) // s[0] for v in s]
    # H is n x (n-1); mpmath's n-th column is never written and stays zero
    H = [[0] * (n - 1) for _ in range(n)]
    for i in range(n):
        if i < n - 1 and s[i]:
            H[i][i] = (s[i + 1] << prec) // s[i]
        for j in range(i):
            sjj1 = s[j] * s[j + 1]
            if sjj1:
                H[i][j] = ((-y[i] * y[j]) << prec) // sjj1
    Bt = [[int(i == j) for j in range(n)] for i in range(n)]  # Bt[j] is column j of B

    def reduce(i: int, j: int, t: int) -> None:
        """Row i of H and y minus t times row j; column j of B plus t times column i."""
        y[j] += t * y[i]
        row, pivot_row = H[i], H[j]
        for k in range(j + 1):
            row[k] -= t * pivot_row[k]
        Bt[j] = [b + t * c for b, c in zip(Bt[j], Bt[i])]

    for i in range(1, n):
        for j in range(i - 1, -1, -1):
            if H[j][j]:
                t = ((H[i][j] << prec) // H[j][j] + half) >> prec
                if t:
                    reduce(i, j, t)

    for step in range(1, maxsteps + 1):
        m = max(range(n - 1), key=lambda i: weights[i][0] * abs(H[i][i]) >> weights[i][1])
        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        Bt[m], Bt[m + 1] = Bt[m + 1], Bt[m]
        if m < n - 2:
            a, b = H[m][m], H[m][m + 1]
            t0 = sqrt_fixed((a ** 2 + b ** 2) >> prec, prec)
            if not t0:
                return None, step, "tiny"
            t1 = (a << prec) // t0
            t2 = (b << prec) // t0
            for row in H[m:]:
                t3, t4 = row[m], row[m + 1]
                row[m] = (t1 * t3 + t2 * t4) >> prec
                row[m + 1] = (-t2 * t3 + t1 * t4) >> prec
        for i in range(m + 1, n):
            for j in range(min(i - 1, m + 1), -1, -1):
                if not H[j][j]:  # mpmath's ZeroDivisionError break
                    break
                t = ((H[i][j] << prec) // H[j][j] + half) >> prec
                if t:
                    reduce(i, j, t)
        for i in range(n):
            if abs(y[i]) < tol and max(map(abs, Bt[i])) < maxcoeff:
                return list(Bt[i]), step, "relation"
        recnorm = max(max(map(abs, row)) for row in H)
        if not recnorm or (((1 << (2 * prec)) // recnorm) >> prec) // 100 >= maxcoeff:
            return None, step, "bound"
    return None, maxsteps, "step_cap"
