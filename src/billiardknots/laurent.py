"""Laurent polynomials with integer coefficients, as exponent -> coefficient dicts.

Two interpretations are used downstream: bracket polynomials live in the
variable A with integer exponents, Jones polynomials live in t with
half-integer exponents stored as integers over the fixed denominator 2.
The arithmetic is identical; only pretty-printing differs.
"""

from __future__ import annotations

Laurent = dict[int, int]  # exponent (or doubled half-exponent) -> coefficient


def lp_mul(p: Laurent, q: Laurent) -> Laurent:
    if not p or not q:
        return {}
    r: Laurent = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            r[e] = r.get(e, 0) + c1 * c2
    return {e: c for e, c in r.items() if c != 0}


def lp_scale(p: Laurent, factor: int) -> Laurent:
    if factor == 0:
        return {}
    return {e: c * factor for e, c in p.items()}


def lp_shift(p: Laurent, shift: int) -> Laurent:
    """Multiply by the variable raised to ``shift``."""
    return {e + shift: c for e, c in p.items()}


def lp_pow(p: Laurent, k: int) -> Laurent:
    if k < 0:
        raise ValueError("negative powers of a general Laurent polynomial")
    res: Laurent = {0: 1}
    base = p
    while k:
        if k & 1:
            res = lp_mul(res, base)
        base = lp_mul(base, base)
        k >>= 1
    return res


def lp_to_string(p: Laurent, variable: str = "A", denominator: int = 1) -> str:
    """Render with exponents divided by ``denominator`` (2 for t^(1/2) units)."""
    if not p:
        return "0"
    pieces = []
    for e in sorted(p, reverse=True):
        c = p[e]
        num, rem = divmod(e, denominator)
        if e == 0:
            mon = ""
        elif rem == 0:
            mon = variable if num == 1 else f"{variable}^{num}"
        else:
            mon = f"{variable}^({e}/{denominator})"
        if not mon:
            term = str(c)
        elif c == 1:
            term = mon
        elif c == -1:
            term = "-" + mon
        else:
            term = f"{c}*{mon}"
        pieces.append(term)
    out = pieces[0]
    for term in pieces[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out
