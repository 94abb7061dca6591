"""Matrices over Q, Q(t) and F_p(t) as integer matrices at t = 2^B.

A matrix whose entries are polynomials (over Q, constants) has an integer
form ``(P, D, norm, deg)``: integer polynomial rows P and one integer
denominator D > 0 with M = P / D and gcd(D, every coefficient of P) = 1,
so that equal matrices have equal forms (FLINT's ``fmpq_mat`` holds a
rational matrix the same way).  ``norm`` is the largest l1 norm and
``deg`` the largest degree of an entry of P.  Over F_p(t), D = 1 and the
coefficients are residues in [0, p).  A matrix's form is cached in
``Matrix._fastrep`` (``rep``).  A result of ``apply`` or ``product`` holds
only ``(P, D)`` there until ``rep`` first uses it as an input and adds its
norm and degree; a result that is only compared or decoded never pays for
them.  Every other reader of the slot reads P and D alone.

Evaluating an integer polynomial at t = 2^B packs it into one Python int,
one B-bit slot per coefficient (Kronecker substitution).  When every
coefficient c of a polynomial has |c| < 2^(B-1), its value at 2^B unpacks
back into it, slot by slot, with signed slots.  Sums and products of
polynomials are then sums and products of ints:

* ``apply`` computes [A, x] + c dx/dt and ``product`` a product of two
  matrices of any shapes from the values of their entries at 2^B; each
  result entry is unpacked once and the result brought to its form once
  (``_form``): divided by the gcd of D and its coefficients, or over F_p(t)
  reduced mod p once per coefficient and trimmed;
* ``int_rank`` evaluates the integer rows of a form at a 2^B where no
  nonzero minor vanishes, and takes the integer rank by Bareiss
  elimination.  It serves Q and Q(t) only: the integer rank of an F_p(t)
  matrix is not its rank mod p.

``Matrix`` wraps a result in a matrix that holds only its form; ``decode``
gives its canonical rows when they are first read.  Over Q every polynomial
has degree 0, so its value is its one coefficient and the same code works
on plain integers.  Matrices with an entry that is not a polynomial have
no form: ``apply`` returns None for them, and ``Matrix`` ranks them by
its generic elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .fields import PrimeField, Rationals, RationalFunctionField

__all__ = ["handles", "ranks", "clear", "rep", "scale", "int_rank", "apply", "product",
           "decode"]


def handles(field) -> bool:
    """Whether matrices over ``field`` have an integer form: Q, Q(t), F_p(t)."""
    return isinstance(field, (Rationals, RationalFunctionField))


def ranks(field) -> bool:
    """Whether ``int_rank`` serves ``field``: Q and Q(t)."""
    return isinstance(field, Rationals) or (
        isinstance(field, RationalFunctionField) and isinstance(field.base, Rationals))


def _modulus(field):
    """p over F_p(t), None over Q and Q(t)."""
    base = getattr(field, "base", None)
    return base.p if isinstance(base, PrimeField) else None


def _finish(polys, den):
    """The form ``(polys, den, norm, deg)``."""
    norm = max([sum(map(abs, p)) for row in polys for p in row], default=0)
    deg = max([len(p) for row in polys for p in row], default=1) - 1
    return polys, den, norm, deg


def clear(field, rows):
    """The integer form of ``rows`` (any shape), or None if a Q(t) or
    F_p(t) entry is not a polynomial."""
    if isinstance(field, Rationals):
        coeffs = [[(c,) if c else () for c in row] for row in rows]
    else:
        one = field._one_poly
        if any(d != one for row in rows for _, d in row):
            return None
        coeffs = [[num for num, _ in row] for row in rows]
        if _modulus(field):
            return _finish(coeffs, 1)
    den = lcm(*[c.denominator for row in coeffs for p in row for c in p])
    polys = [[tuple([c.numerator * (den // c.denominator) for c in p]) for p in row]
             for row in coeffs]
    return _finish(polys, den)


def rep(m):
    """The integer form of the matrix ``m``, cached in ``m._fastrep``, or
    False if an entry is not a polynomial.  A result of ``apply`` or
    ``product`` holds only ``(P, D)`` until it is first used as an input."""
    r = m._fastrep
    if r is None:
        r = m._fastrep = clear(m.field, m.rows) or False
    elif r and len(r) == 2:
        r = m._fastrep = _finish(*r)
    return r


def scale(field, c):
    """``(poly, den, norm)`` of the field value ``c`` as a 1 x 1 form, the
    d/dt scale ``apply`` takes; None if ``c`` is not a polynomial."""
    r = clear(field, [[c]])
    return None if r is None else (r[0][0][0], r[1], r[2])


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


def _residues(poly, p):
    """The integer polynomial ``poly`` mod p, trailing zeros trimmed."""
    out = [c % p for c in poly]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _form(field, vals, ncols, den, bits):
    """``(P, D)`` of the matrix, ``ncols`` entries a row, whose entries
    times ``den`` have the values ``vals`` at 2^bits, row-major."""
    if isinstance(field, Rationals):
        polys = [(v,) if v else () for v in vals]
    else:
        polys = [tuple(_unpack(v, bits)) for v in vals]
        p = _modulus(field)
        if p:
            polys = [_residues(poly, p) for poly in polys]
    if den > 1:
        g = gcd(den, *[c for poly in polys for c in poly])
        if g > 1:
            polys = [tuple([c // g for c in poly]) for poly in polys]
            den //= g
    return [polys[i:i + ncols] for i in range(0, len(polys), ncols)], den


def decode(field, form):
    """The canonical rows of the matrix with integer form ``form``."""
    polys, den = form[0], form[1]
    zero = field.zero
    if isinstance(field, Rationals):
        return tuple([tuple([Fraction(p[0], den) if p else zero for p in row])
                      for row in polys])
    one = field._one_poly
    if _modulus(field):
        return tuple([tuple([(p, one) if p else zero for p in row]) for row in polys])
    return tuple([tuple([(tuple([Fraction(c, den) for c in p]), one) if p else zero
                         for p in row]) for row in polys])


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

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


def int_rank(polys) -> int:
    """Rank of integer polynomial rows ``polys`` (any shape).

    Every k x k minor of integer polynomial rows m is a sum, over
    permutations, of products of one entry from each of k rows, so its
    coefficients are at most its l1 norm, which is at most the product H of
    the nonzero row sums  sum_j |m_ij|_1.  With 2^(B-1) > H, a nonzero minor
    does not vanish at t = 2^B: its leading term outweighs the others, whose
    sum is below 2^(B-1) (2^(Bd) - 1) / (2^B - 1) < 2^(Bd).  Evaluating at 2^B
    can only lose rank, so the rank of the integer matrix m(2^B) is the rank
    of m.
    """
    bound = 1
    for row in polys:
        s = sum([sum(map(abs, p)) for p in row])
        if s:
            bound *= s
    bits = bound.bit_length() + 1
    return _bareiss_rank([[_at(p, bits) for p in row] for row in polys])


# ---------------------------------------------------------------------------
# products and [A, x] + c dx/dt
# ---------------------------------------------------------------------------

def product(field, ra, rb):
    """``(P, D)`` of the product of the matrices with forms ``ra`` and ``rb``
    (any compatible shapes)."""
    pa, da, na, _ = ra
    pb, db, nb, _ = rb
    # each coefficient of an entry of PA PB is a sum of len(pb) products of
    # coefficients, so at most len(pb) na nb: 2^(bits-1) is above it
    bits = (len(pb) * na * nb).bit_length() + 1
    A = [[_at(p, bits) for p in row] for row in pa]
    cols = list(zip(*[[_at(p, bits) for p in row] for row in pb]))
    vals = [sum(map(mul, ai, bj)) for ai in A for bj in cols]
    return _form(field, vals, len(cols), da * db, bits)


def apply(a, x, dt=None):
    """``(P, D)`` of A x - x A + c dx/dt for matrices ``a`` and ``x`` over
    Q, Q(t) or F_p(t), with ``dt`` the ``scale`` of c (None for no d/dt
    term); None when an entry of ``a`` or ``x`` is not a polynomial."""
    ra, rx = rep(a), rep(x)
    if not ra or not rx:
        return None
    pa, da, na, _ = ra
    px, dx, nx, degx = rx
    n = len(pa)
    pc, dc, nc = dt or ((), 1, 0)
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
    vals = [sum(map(mul, ai, xc)) - sum(map(mul, xi, ac))
            for ai, xi in zip(A, X) for xc, ac in zip(x_cols, a_cols)]
    if pc:
        c = da * _at(pc, bits)
        vals = [dc * v + c * _at([e * k for e, k in enumerate(p)][1:], bits)
                for v, p in zip(vals, [p for row in px for p in row])]
    return _form(a.field, vals, n, da * dx * dc, bits)
