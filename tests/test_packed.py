"""Prime-field matrices against the reference list kernels.

Every packed operation (add, which with neg also subtracts, mul, the fused
a b + c d of ``product_sum``, which is also the bracket past the intern
bound, the bracket by fixed-A row tables within it, rank, the F_2 rank
normal form and the F_2 row dependencies) must give exactly what ``_kernels_py`` gives,
including the RNF transforms P and Q and their packed rows.  So must the
generic elimination that serves the rest: the odd-p rank normal form, every
nullspace and rref, square or rectangular, and every operation at a (p, n)
past the slot bound, which must not pack at all.  The bracket's results
within the intern bound, which hold only their whole-matrix key, must
compare, hash, rank and serve as operands as matrices of the same rows do.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import check_entry_reads, ref_rank_mod
from rankderiv import (
    CanonicalDerivation,
    DeltaDomain,
    DeltaMap,
    Matrix,
    UsageError,
    apply_derivation,
    parse_field,
)
from rankderiv import _kernels_py as lists
from rankderiv import _packed
from rankderiv.matrix import _HeldMatrix, _echelon, masked, product_sum


def _rows(m):
    return tuple(map(tuple, m))


def _all(n, p):
    for flat in itertools.product(range(p), repeat=n * n):
        yield tuple(flat[i * n:(i + 1) * n] for i in range(n))


def _seeded(n, p, count, tag):
    """Uniform matrices, matrices of every rank, and the constant ones
    (all entries p - 1 give the largest slot sums)."""
    rng = random.Random(f"packed|{tag}|{p}|{n}")
    out = [tuple((c,) * n for _ in range(n)) for c in (0, 1, p - 1)]
    for i in range(count):
        k = i % (n + 1)
        u = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
        v = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        low = lists.mat_mul(u, v, p) if k else [[0] * n for _ in range(n)]
        out.append(_rows(low))
        out.append(tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)))
    return out


def _check_unary(field, a, packs=True):
    p = field.p
    m = Matrix._raw(field, a)
    assert m.rank() == lists.mat_rank(a, p)
    assert (m._fastrep is not None) == packs
    assert m.nullspace() == [tuple(v) for v in lists.mat_nullspace(a, p)]
    rnf = m.rank_normal_form()
    P, k, Q = lists.mat_rnf(a, p)
    assert (rnf.P.rows, rnf.k, rnf.Q.rows) == (_rows(P), k, _rows(Q))
    if p == 2:
        sp = _packed.space(p, len(a))
        assert rnf.P._fastrep == sp.pack(rnf.P.rows)
        assert rnf.Q._fastrep == sp.pack(rnf.Q.rows)


def _check_binary(field, a, b, packs=True):
    p = field.p
    x, y = Matrix._raw(field, a), Matrix._raw(field, b)
    assert (x + y).rows == _rows(lists.mat_add(a, b, p))
    assert (x - y).rows == _rows(lists.mat_sub(a, b, p))
    assert (x * y).rows == _rows(lists.mat_mul(a, b, p))
    assert (y._fastrep is not None) == packs
    D = CanonicalDerivation(x)
    A = D.A.rows
    want = lists.mat_sub(lists.mat_mul(A, b, p), lists.mat_mul(b, A, p), p)
    assert apply_derivation(D, Matrix._raw(field, b)).rows == _rows(want)


def _check_product_sum(field, a, b, c, d, packs=True):
    """``product_sum`` is a b + c d; in a packed space ``mul2`` with d
    replaced by ``neg(d)``, whose slots reach p, is a b - c d."""
    p = field.p
    ab, cd = lists.mat_mul(a, b, p), lists.mat_mul(c, d, p)
    ms = [Matrix._raw(field, m) for m in (a, b, c, d)]
    assert product_sum(*ms).rows == _rows(lists.mat_add(ab, cd, p))
    assert (ms[3]._fastrep is not None) == packs
    sp = _packed.space(p, len(a))
    if sp is not None:
        rows, packed = sp.mul2(a, sp.pack(b), c, sp.neg(sp.pack(d)))
        assert rows == _rows(lists.mat_sub(ab, cd, p))
        assert packed is None or packed == sp.pack(rows)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 2)])
def test_product_sum_every_pair(p, n):
    # a b + b a and a a + b b for every ordered pair (a, b)
    field = parse_field(f"F{p}")
    mats = list(_all(n, p))
    for a in mats:
        for b in mats:
            _check_product_sum(field, a, b, b, a)
            _check_product_sum(field, a, a, b, b)


@pytest.mark.parametrize("p, n", [(5, 7), (3, 25)])
def test_product_sum_at_slot_bound(p, n):
    # the constant p - 1 matrices against neg of the zero matrix reach the
    # largest slot sum, n (p-1) (p-1) + n (p-1) p = 255 at F_3 n = 25
    assert n * (p - 1) * (2 * p - 1) <= 255
    field = parse_field(f"F{p}")
    mats = _seeded(n, p, 12 if n < 10 else 4, "mul2")
    zero, top = mats[0], mats[2]
    _check_product_sum(field, top, top, top, zero)
    for i, a in enumerate(mats):
        b, c, d = (mats[(i + k) % len(mats)] for k in (1, 2, 3))
        _check_product_sum(field, a, b, c, d)


def test_product_sum_past_slot_bound():
    for p, n in ((3, 26), (7, 4), (4294967311, 4)):
        field = parse_field(f"F{p}")
        mats = _seeded(n, p, 6, "mul2-past")
        for i, a in enumerate(mats):
            b, c, d = (mats[(i + k) % len(mats)] for k in (1, 2, 3))
            _check_product_sum(field, a, b, c, d, packs=False)


def test_product_sum_over_q():
    field = parse_field("Q")
    rng = random.Random("product_sum|Q")

    def draw():
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
                for _ in range(3)]

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]

    for _ in range(40):
        a, b, c, d = draw(), draw(), draw(), draw()
        want = [[u + v for u, v in zip(ru, rv)] for ru, rv in zip(mul(a, b), mul(c, d))]
        got = product_sum(*(Matrix(field, m) for m in (a, b, c, d)))
        assert got.rows == _rows(want)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_exhaustive_small(p, n):
    field = parse_field(f"F{p}")
    mats = list(_all(n, p))
    for a in mats:
        _check_unary(field, a)
    # every ordered pair, except at F_2 n = 3 (262,144 pairs), where every
    # matrix meets 24 seeded partners on either side
    partners = mats if len(mats) <= 100 else random.Random(n).sample(mats, 24)
    for a in mats:
        for b in partners:
            _check_binary(field, a, b)
            _check_binary(field, b, a)


@pytest.mark.parametrize("n", [4, 5, 8, 13])
def test_rnf2_more_sizes(n):
    # every matrix at n = 4; seeded ones of every rank past that, also past
    # the intern table (n = 13), where rows are packed and decoded without it
    field = parse_field("F2")
    for a in _all(n, 2) if n == 4 else _seeded(n, 2, 60, "rnf2"):
        _check_unary(field, a)


def test_nullspace2_matches_list_kernel():
    # the rows of W that adapted_factor reads: the shapes of its case-I row
    # choice (up to 7 rows of 5 sparse entries) and of its case-II kernel
    # (up to 8 rows of 4), a dependent row planted in every third trial and
    # row 0 zeroed in every fourth, as in case-II
    field = parse_field("F2")
    rng = random.Random("dependencies2")
    for trial in range(800):
        if trial % 2:
            n_rows, n_cols, density = rng.randint(1, 7), rng.randint(1, 5), 0.6
        else:
            n_rows, n_cols, density = rng.randint(1, 8), rng.randint(1, 4), 1.0
        rows = [tuple(rng.randrange(2) if rng.random() < density else 0
                      for _ in range(n_cols)) for _ in range(n_rows)]
        if trial % 3 == 0:
            rows.append(tuple(a ^ b for a, b in zip(rows[0], rows[-1])))
        if trial % 4 == 0:
            rows[0] = (0,) * n_cols
        wt = list(zip(*rows))
        sp = _packed.space(2, n_cols)
        kept, kernel = sp.dependencies2(sp.pack(rows))
        assert kept == [col for col, _, _ in _echelon(wt, field)[0]], rows
        want = _packed.space(2, len(rows)).pack(
            [tuple(v) for v in lists.mat_nullspace(wt, 2)])
        assert kernel == list(want), rows


@pytest.mark.parametrize("p", [2, 3])
def test_seeded_n4(p):
    field = parse_field(f"F{p}")
    mats = _seeded(4, p, 150, "n4")
    for a in mats:
        _check_unary(field, a)
    for a, b in zip(mats, mats[1:] + mats[:1]):
        _check_binary(field, a, b)


@pytest.mark.parametrize("p, n", [(5, 7), (7, 3)])
def test_at_slot_bound(p, n):
    assert _packed.space(p, n) is not None
    field = parse_field(f"F{p}")
    mats = _seeded(n, p, 60, "bound")
    for a in mats:
        _check_unary(field, a)
    for a in mats:
        for b in mats[:4]:
            _check_binary(field, a, b)
            _check_binary(field, b, a)


def test_past_slot_bound_takes_list_path():
    # n (p-1) (2p-1) is 255 at F_3 n = 25 and 260 at n = 26, the smallest
    # overshoot of any (p, n)
    assert [_packed.space(p, n) is None for p, n in ((5, 8), (7, 4), (11, 2))] \
        == [True, True, True]
    assert _packed.space(3, 25) is not None
    # F_3 n = 26, a small odd p, and a prime past 2^32
    for p, n in ((3, 26), (7, 4), (4294967311, 4)):
        assert _packed.space(p, n) is None
        field = parse_field(f"F{p}")
        mats = _seeded(n, p, 8, "past")
        for a in mats:
            _check_unary(field, a, packs=False)
        for a, b in zip(mats, mats[1:] + mats[:1]):
            _check_binary(field, a, b, packs=False)


def _rectangular(p, nr, nc, rng):
    """A sparse nr x nc matrix; every third one repeats a combination of
    two rows, so that a row reduces to zero."""
    rows = [[rng.randrange(1, p) if rng.random() < 0.5 else 0 for _ in range(nc)]
            for _ in range(nr)]
    if nr > 2 and rng.random() < 1 / 3:
        c = rng.randrange(1, p)
        rows[rng.randrange(nr)] = [(a + c * b) % p for a, b in zip(rows[0], rows[1])]
    return rows


def _basis_like(p, d, nc, rng):
    """d rows shaped like the solver's basis: each has a 1 at its own free
    column, zeros at the other rows' free columns and sparse entries
    elsewhere, in shuffled order."""
    free = sorted(rng.sample(range(nc), d))
    rows = []
    for f in free:
        row = [0 if j in free else (rng.randrange(1, p) if rng.random() < 0.3 else 0)
               for j in range(nc)]
        row[f] = 1
        rows.append(row)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", [3, 7, 4294967311])
def test_generic_elimination_rectangular(p):
    # wide s x n inputs (the shape of adapted_factor's W^T), wide inputs
    # shaped like the solver's basis, and tall inputs
    from rankderiv.matrix import _gen_nullspace, _gen_rank, _gen_rref

    field = parse_field(f"F{p}")
    rng = random.Random(f"rectangular|{p}")
    shapes = [(s, n) for n in range(2, 8) for s in range(1, n // 2 + 1)]
    shapes += [(nr, nc) for nc in (1, 2, 3) for nr in range(nc + 1, nc + 5)]
    inputs = [_rectangular(p, nr, nc, rng) for nr, nc in shapes for _ in range(12)]
    inputs += [_basis_like(p, d, nc, rng) for d, nc in ((1, 9), (3, 16), (5, 40), (8, 60))
               for _ in range(6)]
    for a in inputs:
        assert _gen_rank(a, field) == lists.mat_rank(a, p), a
        assert _gen_rref(a, field) == lists.mat_rref(a, p), a
        assert _gen_nullspace(a, field) == lists.mat_nullspace(a, p), a


def test_large_n_over_f2_packs():
    field = parse_field("F2")
    assert _packed.space(2, 40) is not None
    mats = _seeded(40, 2, 6, "large")
    for a in mats:
        _check_unary(field, a)
    for a, b in zip(mats, mats[1:] + mats[:1]):
        _check_binary(field, a, b)


def test_equal_results_share_row_tuples():
    field = parse_field("F3")
    x = Matrix._raw(field, [[1, 2], [0, 1]])
    y = Matrix._raw(field, [[2, 1], [1, 0]])
    s1, s2 = x + y, y + x
    assert all(r1 is r2 for r1, r2 in zip(s1.rows, s2.rows))


@pytest.mark.parametrize("p, n", [(3, 2), (2, 13)])
def test_uncanonical_entries_are_refused(p, n):
    # canonicalize=False trusts the caller; an entry out of range must not
    # be packed into a wrong row
    field = parse_field(f"F{p}")
    bad = Matrix(field, [[p] * n] * n, canonicalize=False)
    good = Matrix.identity(field, n)
    D = CanonicalDerivation(good)
    for op in (lambda: good * bad, lambda: bad * good, lambda: bad + good,
               lambda: bad.rank(), lambda: apply_derivation(D, bad),
               lambda: product_sum(bad, good, good, good),
               lambda: product_sum(good, good, bad, good)):
        with pytest.raises(UsageError, match="not canonical"):
            op()


@pytest.mark.parametrize("p, n", [(2, 2), (2, 4), (2, 12), (2, 13), (3, 2), (3, 4),
                                  (3, 7), (3, 8), (3, 25), (5, 2), (5, 5), (5, 6),
                                  (5, 7), (7, 2), (7, 3)])
def test_fixed_a_bracket_tables(p, n, monkeypatch):
    # within the intern bound the bracket is n lookups in row tables of A,
    # each entry made on the first lookup of its row; past it,
    # product_sum(A, x, x, -A) in one pass with -A canonical (F_5 n = 7 has
    # the largest slot sum past the bound, F_3 n = 25 the largest odd-p n
    # that packs); both must give a x - x a
    made, filled = [], []
    bracket_rows, missing = _packed.Space.bracket_rows, _packed.RowProducts.__missing__
    monkeypatch.setattr(_packed.Space, "bracket_rows",
                        lambda sp, rows: made.append(bracket_rows(sp, rows)) or made[-1])
    monkeypatch.setattr(_packed.RowProducts, "__missing__",
                        lambda table, r: filled.append(r) or missing(table, r))
    field = parse_field(f"F{p}")
    D = CanonicalDerivation.random(field, n, seed=n)
    tables = p ** n <= _packed.INTERN_ROWS
    assert [t is not None for t in made] == [tables]
    a = D.A
    xs = _seeded(n, p, 4, "bracket")
    x = Matrix._raw(field, xs[-1])
    apply_derivation(D, x)
    # one matrix fills at most one entry per row table
    assert 0 < len(filled) <= n if tables else not filled
    for rows in xs:
        x = Matrix._raw(field, rows)
        got = apply_derivation(D, x)
        assert got.rows == (a * x - x * a).rows
        assert got.rows == _rows(lists.mat_sub(lists.mat_mul(a.rows, rows, p),
                                               lists.mat_mul(rows, a.rows, p), p))
        # the key, the packed rows and the rows of the result agree; within
        # the intern bound the result holds only the key, and its rows and
        # packed rows are decoded from it independently
        sp = _packed.space(p, n)
        assert (got.__class__ is _HeldMatrix and got._sp is sp) == tables
        want = sp.pack(got.rows)
        assert got._packed_rows(sp) == want
        assert getattr(got, "_key", sp.key(want)) == sp.key(want)
    bad = Matrix(field, [[p] + [0] * (n - 1)] + [[0] * n] * (n - 1), canonicalize=False)
    with pytest.raises(UsageError, match="not canonical"):
        apply_derivation(D, bad)
    bad_a = CanonicalDerivation(Matrix(field, [[0] * (n - 1) + [p]] * n, canonicalize=False))
    with pytest.raises(UsageError, match="not canonical"):
        apply_derivation(bad_a, Matrix.identity(field, n))


@pytest.mark.parametrize("p, n", [(2, 12), (3, 7), (5, 5), (7, 3), (11, 1)])
def test_fixed_a_bracket_at_slot_bound(p, n):
    # the entries stay unreduced, so the n terms of a bracket sum to
    # A x + x (-A) before its one reduction.  With x all p - 1 and A all
    # p - 1 but for zeros below row 0 in the last column, over an odd p
    # slot (0, n-1) of that sum is n (p-1)^2 + (n-1) (p-1) p + (p-1), near
    # mul2's bound n (p-1) (2p-1) (198 of 234 at F_7, n = 3).  Over F_2,
    # where -A is A, slot (0, 0) is 2 n, the most any F_2 key sum reaches
    # (24 at n = 12, the largest F_2 n with tables), and the reduction
    # keeps its low bit
    sp = _packed.space(p, n)
    mats = _seeded(n, p, 4, "bracket-bound")
    top = mats[2]
    peak = top[:1] + tuple(row[:-1] + (0,) for row in top[1:])
    raw = sum(map(dict.__getitem__, sp.bracket_rows(peak), sp.pack(top)))
    if p == 2:
        assert raw.to_bytes(n * n, "little")[0] == 2 * n
    else:
        assert raw.to_bytes(n * n, "little")[n - 1] == (
            n * (p - 1) ** 2 + (n - 1) * (p - 1) * p + (p - 1))
    for a in (peak, *mats):
        rows = sp.bracket_rows(a)
        for x in mats:
            got = sp.unkey(sp.product_key(sp.pack(x), rows))
            assert got == _rows(lists.mat_sub(lists.mat_mul(a, x, p),
                                              lists.mat_mul(x, a, p), p))


@pytest.mark.parametrize("p, n", [(2, 2), (2, 4), (2, 12), (3, 4), (3, 7), (5, 5)])
def test_key_held_brackets_match_rows_held(p, n):
    # within the intern bound a bracket holds only its key.  Against the
    # list reference and against rows-held matrices of the same rows it must
    # compare, hash, look up, rank and serve as an operand alike; each use
    # takes a fresh bracket, so that nothing decoded earlier is reused
    field = parse_field(f"F{p}")
    D = CanonicalDerivation.random(field, n, seed=7)
    a = D.A.rows
    xs = _seeded(n, p, 6, "key-held")
    refs = [_rows(lists.mat_sub(lists.mat_mul(a, x, p), lists.mat_mul(x, a, p), p))
            for x in xs]
    keyed = [apply_derivation(D, Matrix._raw(field, x)) for x in xs]
    table = DeltaMap.from_table(n, field, DeltaDomain.full(),
                                {Matrix._raw(field, r): Matrix._raw(field, x)
                                 for r, x in zip(refs, xs)})

    def fresh(i):
        return apply_derivation(D, Matrix._raw(field, xs[i]))

    def held(rows):
        return Matrix._raw(field, rows)

    ops = [lambda u, y: u * y, lambda u, y: y * u, lambda u, y: u + y,
           lambda u, y: u - y, lambda u, y: y - u,
           lambda u, y: product_sum(u, y, y, u), lambda u, y: product_sum(y, u, u, y),
           lambda u, y: masked(u, rows=range(1, n)),
           lambda u, y: masked(u, cols=range(0, n, 2)),
           lambda u, y: masked(u, rows=range(n - 1), cols=range(1, n))]
    for i, (want, k) in enumerate(zip(refs, keyed)):
        assert k.__class__ is _HeldMatrix and k._sp is _packed.space(p, n)
        assert k.rows == want
        for u, v in ((fresh(i), held(want)), (held(want), fresh(i)), (fresh(i), fresh(i))):
            assert u == v and v == u and not u != v and not v != u
            assert hash(u) == hash(v)
        for j, other in enumerate(refs):
            if other != want:
                for u, v in ((fresh(i), held(other)), (held(other), fresh(i)),
                             (fresh(i), keyed[j])):
                    assert u != v and v != u and not u == v and not v == u
        assert {want: i}[fresh(i).rows] == i
        assert {fresh(i).rows: i}[want] == i
        assert {fresh(i): i}[held(want)] == i
        assert table(fresh(i)) == table(held(want))
        assert fresh(i).rank() == ref_rank_mod(want, p)
        y = held(xs[(i + 1) % len(xs)])
        assert (fresh(i) * y).rows == _rows(lists.mat_mul(want, y.rows, p))
        assert (fresh(i) + y).rows == _rows(lists.mat_add(want, y.rows, p))
        for op in ops:
            assert op(fresh(i), y).rows == op(held(want), y).rows
        got, ref = fresh(i).rank_normal_form(), held(want).rank_normal_form()
        assert (got.P.rows, got.k, got.Q.rows) == (ref.P.rows, ref.k, ref.Q.rows)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (3, 4)])
def test_key_held_entries_are_read_off_the_key(p, n):
    """``m[i, j]`` of a key-held bracket reads slot n i + j of its key and
    decodes nothing: every bracket over F_2 at n <= 2, every x against four
    seeded A at F_2 n = 3, and seeded brackets at F_3 n = 4."""
    field = parse_field(f"F{p}")
    sp = _packed.space(p, n)
    if p == 2 and n <= 2:
        pairs = [(a, x) for a in _all(n, p) for x in _all(n, p)]
    elif p == 2:
        pairs = [(a, x) for a in _seeded(n, p, 2, "entries")[3:] for x in _all(n, p)]
    else:
        pairs = [(a, x) for a in _seeded(n, p, 3, "entries")
                 for x in _seeded(n, p, 12, "entry-points")]
    for a, x in pairs:
        d = CanonicalDerivation(Matrix._raw(field, a))
        got = apply_derivation(d, Matrix._raw(field, x))
        assert got.__class__ is _HeldMatrix and got._sp is sp
        check_entry_reads(got, sp.unkey(got._key))


def test_key_held_brackets_of_other_rings_differ():
    # the F_2 zero matrices of every n have key 0, and the zero matrices of
    # F_3 and F_5 at one n the same bytes, so the ring is compared as well;
    # the form-held zeros of Q, Q(t) and F_2(t) meet the key-held ones in
    # both orders
    zeros = []
    for p, n in ((2, 2), (2, 4), (2, 12), (3, 4), (5, 4), (3, 7)):
        field = parse_field(f"F{p}")
        z = apply_derivation(CanonicalDerivation.random(field, n, seed=3),
                             Matrix.zero(field, n))
        assert z.__class__ is _HeldMatrix and z._sp is _packed.space(p, n)
        zeros.append((z, Matrix.zero(field, n)))
    for spec in ("Q", "Q(t)", "F2(t)"):
        field = parse_field(spec)
        z = apply_derivation(CanonicalDerivation.random(field, 2, seed=3),
                             Matrix.zero(field, 2))
        assert z.__class__ is _HeldMatrix and z._sp is None
        zeros.append((z, Matrix.zero(field, 2)))
    for i, (z, zero) in enumerate(zeros):
        assert hash(z) == hash(zero)
        for j, (w, r) in enumerate(zeros):
            for u, v in ((z, w), (w, z), (z, r), (r, z)):
                assert (u == v) == (i == j) and (u != v) == (i != j)
