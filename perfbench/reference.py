"""Independent reference arithmetic for the benchmark's correctness gates.

Nothing here imports rankderiv.  Every postcondition the benchmark checks is
recomputed with these few routines, so a change to the library cannot make
its own outputs look right.  Matrices are sequences of row sequences;
elements of F_p are ints in [0, p), elements of Q are Fractions, and
elements of K(t) are (numerator, denominator) coefficient tuples in
ascending degree, as the library stores them.
"""

from __future__ import annotations

import itertools
from math import lcm


def mat_mul_mod(a, b, p):
    inner = range(len(b))
    cols = range(len(b[0]))
    return tuple(tuple(sum(ra[k] * b[k][j] for k in inner) % p for j in cols)
                 for ra in a)


def rank_mod(rows, p):
    """Row-echelon rank over F_p of a possibly rectangular matrix."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for i in range(rank + 1, len(m)):
            f = (m[i][col] * inv) % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def bracket_mod(a, x, p):
    """A x - x A over F_p."""
    ax = mat_mul_mod(a, x, p)
    xa = mat_mul_mod(x, a, p)
    return tuple(tuple((u - v) % p for u, v in zip(r1, r2)) for r1, r2 in zip(ax, xa))


def rank_count(n, k, q):
    """Number of n x n rank-k matrices over F_q (q-binomial squared times
    |GL_k(F_q)|)."""
    binom = 1
    for i in range(k):
        binom = binom * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    gl = 1
    for i in range(k):
        gl *= q ** k - q ** i
    return binom * binom * gl


def full_table_text(a, p):
    """The library's delta-table text for x -> [A, x] on all of M_n(F_p)."""
    n = len(a)
    lines = [f"delta n {n} field F{p} domain full"]
    for flat in itertools.product(range(p), repeat=n * n):
        x = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        v = bracket_mod(a, x, p)
        lines.append(" ".join(map(str, flat)) + " -> "
                     + " ".join(str(e) for row in v for e in row))
    return "\n".join(lines) + "\n"


def parse_table(text):
    """Records of a delta table over F_p: {input rows: output rows}."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = int(lines[0].split()[2])
    table = {}
    for ln in lines[1:]:
        left, right = ln.split("->")
        xs = tuple(int(t) for t in left.split())
        vs = tuple(int(t) for t in right.split())
        table[tuple(xs[i * n:(i + 1) * n] for i in range(n))] = tuple(
            vs[i * n:(i + 1) * n] for i in range(n))
    return table


# -- K[t] with K = Q or F_p, after clearing denominators ---------------------

def _lcd(polys):
    d = 1
    for f in polys:
        for c in f:
            d = lcm(d, c.denominator)
    return d


def _cleared(m, d):
    return [[tuple(int(c * d) for c in e[0]) for e in row] for row in m]


def ratfunc_apply_matches(a, x, c, got, p=None):
    """Whether ``got`` equals A x - x A + c * dx/dt entrywise over K(t),
    K = Q (p None) or F_p, for entries that are polynomials in t.  Works on
    integer coefficients: every term is scaled by the product of the
    denominators of A, x and c."""
    one = (1,)
    if c[1] != one or any(e[1] != one for m in (a, x, got) for row in m for e in row):
        return False
    da = _lcd(e[0] for row in a for e in row)
    dx = _lcd(e[0] for row in x for e in row)
    dc = _lcd([c[0]])
    ia, ix = _cleared(a, da), _cleared(x, dx)
    ic = tuple(int(co * dc) for co in c[0])
    scale = da * dx * dc
    n = len(x)
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                for f, g, sign in ((ia[i][k], ix[k][j], dc), (ix[i][k], ia[k][j], -dc)):
                    for du, u in enumerate(f):
                        for dv, v in enumerate(g):
                            acc[du + dv] = acc.get(du + dv, 0) + sign * u * v
            deriv = [d * co for d, co in enumerate(ix[i][j])][1:]
            for du, u in enumerate(ic):
                for dv, v in enumerate(deriv):
                    acc[du + dv] = acc.get(du + dv, 0) + da * u * v
            want = [acc.get(d, 0) for d in range(max(acc, default=-1) + 1)]
            have = [co * scale for co in got[i][j][0]]
            if p is not None:
                want = [w % p for w in want]
                have = [h % p for h in have]
            while want and want[-1] == 0:
                want.pop()
            if want != have:
                return False
    return True
