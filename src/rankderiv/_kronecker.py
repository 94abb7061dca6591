"""Matrices over Q and Q(t) as integer matrices at t = 2^B.

A matrix whose entries are polynomials with rational coefficients (over Q,
constants) is held as integer polynomial rows P and one integer
denominator D >= 1 with M = P / D, cached in ``Matrix._fastrep`` together
with the largest l1 norm and the largest degree of its entries.

Evaluating an integer polynomial at t = 2^B packs it into one Python int,
one B-bit slot per coefficient (Kronecker substitution).  When every
coefficient c of a polynomial has |c| < 2^(B-1), its value at 2^B unpacks
back into it, slot by slot, with signed slots.  Sums and products of
polynomials are then sums and products of ints:

* ``apply`` computes [A, x] + c dx/dt from the values of the entries of A,
  x and dx/dt at 2^B, and unpacks each entry of the result once;
* ``rank`` evaluates integer rows at a 2^B where no nonzero minor
  vanishes, and takes the integer rank by Bareiss elimination.

Over Q every polynomial has degree 0, so its value is its one coefficient
and the same code works on plain integers.  Q(t) matrices with an entry
that is not a polynomial have no representation: ``apply`` returns None
for them, and ``rank`` clears each of their rows to polynomials first.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .fields import Rationals, RationalFunctionField, _poly_divmod, _poly_gcd_monic, _poly_mul

__all__ = ["handles", "rep", "rank", "apply"]


def handles(field) -> bool:
    """Whether matrices over ``field`` use this representation."""
    return isinstance(field, Rationals) or (
        isinstance(field, RationalFunctionField) and isinstance(field.base, Rationals))


def _clear(field, rows):
    """``(polys, den, norm, deg)`` with rows = polys / den, ``norm`` the
    largest l1 norm and ``deg`` the largest degree of an entry of ``polys``;
    None if a Q(t) entry is not a polynomial."""
    if isinstance(field, Rationals):
        coeffs = [[(c,) if c else () for c in row] for row in rows]
    else:
        one = field._one_poly
        if any(d != one for row in rows for _, d in row):
            return None
        coeffs = [[num for num, _ in row] for row in rows]
    den = lcm(*[c.denominator for row in coeffs for p in row for c in p])
    polys = [[tuple([c.numerator * (den // c.denominator) for c in p]) for p in row]
             for row in coeffs]
    norm = max([sum(map(abs, p)) for row in polys for p in row], default=0)
    deg = max([len(p) for row in polys for p in row], default=1) - 1
    return polys, den, norm, deg


def rep(m):
    """The representation of the matrix ``m``, cached in ``m._fastrep``, or
    False if an entry is not a polynomial."""
    r = m._fastrep
    if r is None:
        r = m._fastrep = _clear(m.field, m.rows) or False
    return r


def _at(poly, bits):
    """The integer polynomial ``poly`` evaluated at 2^bits."""
    v = 0
    for c in reversed(poly):
        v = (v << bits) + c
    return v


def _unpack(v, bits):
    """Coefficients of the polynomial whose value at 2^bits is v, when every
    coefficient is below 2^(bits-1) in absolute value; no trailing zeros."""
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    out = []
    while v:
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> bits
    return out


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def _polynomial_rows(field, rows):
    """Each row of a Q(t) matrix times the lcm of its denominators."""
    base, one = field.base, field._one_poly
    out = []
    for row in rows:
        den = one
        for _, d in row:
            if d != one:
                g = _poly_gcd_monic(base, den, d)
                den = _poly_mul(base, den, _poly_divmod(base, d, g)[0])
        out.append(row if den == one else [field.mul(e, (den, one)) for e in row])
    return out


def _bareiss_rank(m) -> int:
    """Rank of a list of integer rows, which it overwrites.

    Fraction-free elimination: after the pivot step on (r, col) every entry
    below row r is the minor of the input on the pivot rows and columns so
    far plus its own row and column, so dividing by the previous pivot, which
    is the minor one step smaller, is exact (Sylvester's identity).  Columns
    without a pivot change nothing, and row swaps only permute the input.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][col]), -1)
        if piv < 0:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        rp = m[rank]
        pv = rp[col]
        rank += 1
        if rank == nr:
            break
        for i in range(rank, nr):
            ri = m[i]
            f = ri[col]
            m[i] = [0] * (col + 1) + [(pv * ri[j] - f * rp[j]) // prev
                                      for j in range(col + 1, nc)]
        prev = pv
    return rank


def rank(field, rows, r=None) -> int:
    """Rank over ``field`` of a possibly rectangular list of rows; ``r`` is
    their representation (see ``rep``) when the caller already has it.

    Every k x k minor of integer polynomial rows m is a sum, over
    permutations, of products of one entry from each of k rows, so its
    coefficients are at most its l1 norm, which is at most the product H of
    the nonzero row sums  sum_j |m_ij|_1.  With 2^(B-1) > H, a nonzero minor
    does not vanish at t = 2^B: its leading term outweighs the others, whose
    sum is below 2^(B-1) (2^(Bd) - 1) / (2^B - 1) < 2^(Bd).  Evaluating at 2^B
    can only lose rank, so the rank of the integer matrix m(2^B) is the rank
    of m.
    """
    if r is None:
        r = _clear(field, rows)
    polys = r[0] if r else _clear(field, _polynomial_rows(field, rows))[0]
    bound = 1
    for row in polys:
        s = sum([sum(map(abs, p)) for p in row])
        if s:
            bound *= s
    bits = bound.bit_length() + 1
    return _bareiss_rank([[_at(p, bits) for p in row] for row in polys])


# ---------------------------------------------------------------------------
# [A, x] + c dx/dt
# ---------------------------------------------------------------------------

def apply(a, x, scale=None):
    """Rows of A x - x A + scale * dx/dt for matrices ``a`` and ``x`` over Q
    or Q(t) and a Q(t) value ``scale`` (None for no d/dt term), or None when
    an entry of any of them is not a polynomial."""
    ra, rx = rep(a), rep(x)
    if not ra or not rx:
        return None
    pa, da, na, _ = ra
    px, dx, nx, degx = rx
    field = a.field
    n = a.n
    if scale is None:
        pc, dc, nc = (), 1, 0
    else:
        rc = _clear(field, [[scale]])
        if rc is None:
            return None
        ((pc,),), dc, nc, _ = rc
    # the result is (dc (PA PX - PX PA) + da PC PX') / (da dx dc).  A product
    # of integer polynomials f g has coefficients at most |f|_1 |g|_1, and
    # |PX'|_1 <= degx |PX|_1, so every coefficient of the numerator is at
    # most ``bound``; 2^(bits-1) > bound makes each entry unpack exactly
    bound = dc * 2 * n * na * nx + da * nc * degx * nx
    bits = bound.bit_length() + 1
    A = [[_at(p, bits) for p in row] for row in pa]
    X = [[_at(p, bits) for p in row] for row in px]
    a_cols = list(zip(*A))
    x_cols = list(zip(*X))
    if pc:
        c = da * _at(pc, bits)
        dX = [[_at([e * v for e, v in enumerate(p)][1:], bits) for p in row] for row in px]
    den = da * dx * dc
    q = isinstance(field, Rationals)
    zero = field.zero
    one = None if q else field._one_poly
    out = []
    for i in range(n):
        ai, xi = A[i], X[i]
        row = []
        for j in range(n):
            v = sum(map(mul, ai, x_cols[j])) - sum(map(mul, xi, a_cols[j]))
            if pc:
                v = dc * v + c * dX[i][j]
            if q:
                row.append(Fraction(v, den))
            elif v:
                row.append((tuple([Fraction(k, den) for k in _unpack(v, bits)]), one))
            else:
                row.append(zero)
        out.append(row)
    return out
