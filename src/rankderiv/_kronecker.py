"""Matrices over Q, Q(t) and F_p(t) as integer matrices at t = 2^B.

A matrix whose entries are polynomials (over Q, constants) has an integer
form (``Form``): integer polynomial rows P and one integer denominator
D > 0 with M = P / D and gcd(D, every coefficient of P) = 1, so that equal
matrices have equal forms (FLINT's ``fmpq_mat`` holds a rational matrix the
same way).  Over F_p(t), D = 1 and the coefficients are residues in
[0, p).  A matrix's form is cached in ``Matrix._fastrep`` (``rep``).  When
the form is first used as an input it also gets the largest l1 norm and
degree of an entry of P and the l1 norm of each row, and each ``apply``
keeps in it the values and packed rows of P and the packed rows of dP/dt
for the last (B, L) it used, so that a second derivation applied to the
same matrix evaluates nothing again.  All of it dies with the matrix.

Evaluating an integer polynomial at t = 2^B packs it into one Python int,
one B-bit slot per coefficient (Kronecker substitution).  When every
coefficient c of a polynomial has |c| < 2^(B-1), its value at 2^B unpacks
back into it, slot by slot, with signed slots.  A row packs the same way,
L slots an entry with L above every entry's degree: entry j is slots L j
to L j + L - 1.  Sums and products of polynomials are then sums and
products of ints:

* ``apply`` computes [A, x] + c dx/dt and ``product`` a product of two
  matrices of any shapes, each row of the result as a sum of entry values
  times packed rows: n^2 int products for an n x n product.  ``apply``
  rounds B up to a multiple of 8, so that one derivation meets few widths,
  and its caller keeps A's values and packed rows by (B, L) (at most two;
  ``matrix.bracket_map`` keeps them per derivation);
* ``int_rank`` evaluates the integer rows of a form at a 2^B where no
  nonzero minor vanishes, and takes the integer rank by Bareiss
  elimination.  It serves Q and Q(t) only: the integer rank of an F_p(t)
  matrix is not its rank mod p.  ``rank`` gives it a Q(t) matrix without
  a form by clearing each row to polynomials first.

A result of ``apply`` or ``product`` is held raw: its rows times D packed
at 2^B, with D, B, L and its column count.  It is brought to its
canonical form (``canonical``: each row unpacked, split into entries, then
divided by the gcd of D and its coefficients, or over F_p(t) reduced mod
p and trimmed) on the first read of its rows, rank or hash, or when it is
first used as an input.  Two forms compare by one rule (``equal``): equal
raw results are equal, and every other pair is compared canonical.
Unequal raw rows never make two results unequal, since over F_p(t) they
are an unreduced integer lift: over F_2(t), [E01, E10] = diag(1, -1) and
[E10, E01] = diag(-1, 1) as integers, and both are I mod 2.

``Matrix`` wraps a result in a matrix that holds only its form; ``decode``
gives its canonical rows when they are first read, and ``entry`` reads one
entry off P or, raw, off its row's packed int alone.  Over Q every
polynomial has degree 0, so its value is its one coefficient and the same
code works on plain integers.  Matrices with an entry that is not a
polynomial have no form: ``apply`` returns None for them, and ``Matrix``
multiplies them by its generic field operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .fields import PrimeField, Rationals, RationalFunctionField

__all__ = ["Form", "handles", "ranks", "clear", "rep", "canonical", "equal", "scale",
           "int_rank", "rank", "apply", "product", "decode", "entry"]


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


class Form:
    """The integer form of one matrix.  ``polys`` and ``den`` are P and D,
    None while the form is raw and ``raw`` is (D, B, (L, columns), packed
    rows); ``norm``, ``deg`` and ``sums`` (each row's l1 norm) are set when
    it is first an input, and ``values`` is [(B, L), values at 2^B, packed
    rows, packed dP/dt rows], set by ``apply``."""

    __slots__ = ("polys", "den", "raw", "norm", "deg", "sums", "values")

    def __init__(self, polys=None, den=None, raw=None):
        self.polys, self.den, self.raw = polys, den, raw
        self.norm = self.deg = self.sums = self.values = None


def _measured(form):
    """``form``, canonical, with its norm, degree (-1 if zero) and row sums."""
    sums, norm, size = [], 0, 0
    for row in form.polys:
        total = 0
        for p in row:
            if p:
                a = sum(map(abs, p))
                total += a
                if a > norm:
                    norm = a
                if len(p) > size:
                    size = len(p)
        sums.append(total)
    form.sums, form.norm, form.deg = sums, norm, size - 1
    return form


def clear(field, rows):
    """The integer form of ``rows`` (any shape), or None if a Q(t) or
    F_p(t) entry is not a polynomial."""
    if isinstance(field, Rationals):
        coeffs = [[(c,) if c else () for c in row] for row in rows]
    else:
        one = field._one_poly    # canonical values share it: ``is`` settles most
        if any(d is not one and d != one for row in rows for _, d in row):
            return None
        coeffs = [[num for num, _ in row] for row in rows]
        if _modulus(field):
            return _measured(Form(coeffs, 1))
    den = lcm(*{c.denominator for row in coeffs for p in row for c in p})
    polys = [[tuple([c.numerator * (den // c.denominator) for c in p]) for p in row]
             for row in coeffs]
    return _measured(Form(polys, den))


def rep(m):
    """The integer form of the matrix ``m``, cached in ``m._fastrep``, or
    False if an entry is not a polynomial; a raw result is made canonical."""
    r = m._fastrep
    if r is None:
        r = m._fastrep = clear(m.field, m.rows) or False
    elif r and r.norm is None:
        _measured(canonical(m.field, r))
    return r


def scale(field, c):
    """``(poly, den, norm)`` of the field value ``c`` as a 1 x 1 form, the
    d/dt scale ``apply`` takes; None if ``c`` is not a polynomial."""
    r = clear(field, [[c]])
    return None if r is None else (r.polys[0][0], r.den, r.norm)


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


def _pack(rows, shift):
    """Each row of ints as one int, entry j times 2^(shift j)."""
    out = []
    for row in rows:
        v = 0
        for c in reversed(row):
            v = (v << shift) + c
        out.append(v)
    return tuple(out)


def _residues(poly, p):
    """The integer polynomial ``poly`` (a list) mod p if p, trailing zeros trimmed."""
    out = [c % p for c in poly] if p else poly
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def canonical(field, form):
    """``form`` with its canonical P and D, made from its raw packed rows
    (the rows at 2^B times D) if it is raw."""
    if form.polys is not None:
        return form
    den, bits, (slots, cols), rows = form.raw
    width = slots * cols
    p = _modulus(field)
    polys = []
    for v in rows:
        c = _unpack(v, bits)
        polys.append([_residues(c[k:k + slots], p) for k in range(0, width, slots)])
    if den > 1:
        g = gcd(den, *[c for row in polys for poly in row for c in poly])
        if g > 1:
            polys = [[tuple([c // g for c in poly]) for poly in row] for row in polys]
            den //= g
    form.polys, form.den, form.raw = polys, den, None
    return form


def equal(field, r, s):
    """Whether ``r`` and ``s`` are forms of one matrix over ``field``: yes
    if both are raw with equal D, B and V, else compared canonical."""
    if r.raw is not None and s.raw is not None:
        return r.raw == s.raw or _equal_canonical(field, r, s)
    return _equal_canonical(field, r, s)


def _equal_canonical(field, r, s):
    r, s = canonical(field, r), canonical(field, s)
    return r.den == s.den and r.polys == s.polys


def decode(field, form):
    """The canonical rows of the matrix with integer form ``form``."""
    form = canonical(field, form)
    return _values(field, form.polys, form.den)


def _values(field, polys, den):
    """The field values of the integer polynomial rows ``polys`` over ``den``."""
    zero = field.zero
    if isinstance(field, Rationals):
        return tuple([tuple([Fraction(p[0], den) if p else zero for p in row])
                      for row in polys])
    one = field._one_poly
    if _modulus(field):
        return tuple([tuple([(p, one) if p else zero for p in row]) for row in polys])
    return tuple([tuple([(tuple([Fraction(c, den) for c in p]), one) if p else zero
                         for p in row]) for row in polys])


def entry(field, form, i, j):
    """``decode``'s entry (i, j), i and j in range, of the matrix with form ``form``."""
    if form.raw is None:
        poly, den = form.polys[i][j], form.den
    else:
        den, bits, (slots, _), rows = form.raw
        w = bits * slots
        v = rows[i] >> w * j
        if j and rows[i] >> w * j - 1 & 1:
            v += 1    # the entries before j sum to a negative value, which borrowed one
        half = 1 << w - 1
        poly = _residues(_unpack((v + half & 2 * half - 1) - half, bits), _modulus(field))
    return _values(field, ((poly,),), den)[0][0]


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


def int_rank(form) -> int:
    """Rank of the polynomial rows of the measured form ``form`` (any shape).

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
    for s in form.sums:
        if s:
            bound *= s
    bits = bound.bit_length() + 1
    return _bareiss_rank([[_at(p, bits) for p in row] for row in form.polys])


def _cleared(field, row):
    """``row`` of Q(t) values times the lcm of their denominators, by field
    operations: each entry's leftover denominator is multiplied in."""
    one = field._one_poly
    m = field.one
    for e in row:
        d = field.mul(m, e)[1]
        if d != one:
            m = field.mul(m, field.from_poly(d))
    return [field.mul(m, e) for e in row]


def rank(m) -> int:
    """Rank of the Q or Q(t) matrix ``m``: the integer rank of its form, or,
    when an entry is not a polynomial, of its rows each cleared to
    polynomials, which scales every row by a nonzero value."""
    r = rep(m)
    if not r:
        r = clear(m.field, [_cleared(m.field, row) for row in m.rows])
    return int_rank(r)


# ---------------------------------------------------------------------------
# products and [A, x] + c dx/dt
# ---------------------------------------------------------------------------

def product(field, ra, rb):
    """The raw form of the product of the matrices with forms ``ra`` and
    ``rb`` (any compatible shapes)."""
    # each coefficient of an entry of PA PB is a sum of len(pb) products of
    # coefficients, so at most len(pb) na nb: 2^(bits-1) is above it
    pb = rb.polys
    bits = (len(pb) * ra.norm * rb.norm).bit_length() + 1
    slots = max(ra.deg + rb.deg, 0) + 1
    b_rows = _pack([[_at(p, bits) for p in row] for row in pb], bits * slots)
    rows = [sum(map(mul, [_at(p, bits) for p in row], b_rows)) for row in ra.polys]
    return Form(raw=(ra.den * rb.den, bits, (slots, len(pb[0])), rows))


def apply(a, x, dt, memo):
    """The raw form of A x - x A + c dx/dt for matrices ``a`` and ``x`` over
    Q, Q(t) or F_p(t), with ``dt`` the ``scale`` of c (None for no d/dt
    term); None when an entry of ``a`` or ``x`` is not a polynomial.
    ``memo`` keeps A's values and packed rows by (B, L), at most two, for
    the next call with the same A and ``dt``."""
    ra, rx = rep(a), rep(x)
    if not ra or not rx:
        return None
    n = len(ra.polys)
    pc, dc, nc = dt or ((), 1, 0)
    # the result is (dc (PA PX - PX PA) + da PC PX') / (da dx dc).  A product
    # of integer polynomials f g has coefficients at most |f|_1 |g|_1, and
    # |PX'|_1 <= degx |PX|_1, so every coefficient of the numerator is at
    # most ``bound``; 2^(bits-1) > bound makes each slot unpack exactly
    nx = rx.norm
    bound = dc * 2 * n * ra.norm * nx + ra.den * nc * rx.deg * nx
    bits = (bound.bit_length() + 8) & -8
    slots = max(ra.deg + rx.deg, len(pc) + rx.deg - 2, 0) + 1
    key = (bits, slots)
    av = memo.get(key)
    if av is None:
        if len(memo) > 1:
            del memo[next(iter(memo))]
        A = tuple([tuple([_at(p, bits) for p in row]) for row in ra.polys])
        av = memo[key] = (A, _pack(A, bits * slots), ra.den * _at(pc, bits))
    xv = rx.values
    if xv is None or xv[0] != key:
        X = [[_at(p, bits) for p in row] for row in rx.polys]
        xv = rx.values = [key, X, _pack(X, bits * slots), None]
    A, a_rows, c = av
    X, x_rows = xv[1], xv[2]
    # row i of A X - X A: sum over k of a_ik X_k - x_ik A_k, on packed rows
    rows = [sum(map(mul, ai, x_rows)) - sum(map(mul, xi, a_rows)) for ai, xi in zip(A, X)]
    if pc:
        dx = xv[3]
        if dx is None:
            dx = xv[3] = _pack([[_at([e * k for e, k in enumerate(p)][1:], bits) for p in row]
                                for row in rx.polys], bits * slots)
        rows = [dc * r + c * d for r, d in zip(rows, dx)]
    return Form(raw=(ra.den * rx.den * dc, bits, (slots, n), rows))
