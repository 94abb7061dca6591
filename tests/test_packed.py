"""Packed small-prime matrices against the list kernels.

Every packed operation (add, sub, mul, the bracket of ``apply_derivation``,
rank, the F_2 rank normal form and the F_2 nullspace) must give exactly
what ``_kernels_py`` gives, including the RNF transforms P and Q and their
packed rows.  A (p, n) past the slot bound must not pack at all.
"""

import itertools
import random

import pytest

from rankderiv import (
    CanonicalDerivation,
    Matrix,
    UsageError,
    apply_derivation,
    parse_field,
)
from rankderiv import _kernels_py as lists
from rankderiv import _packed


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
    if p == 2:
        rnf = m.rank_normal_form()
        P, k, Q = lists.mat_rnf(a, p)
        assert (rnf.P.rows, rnf.k, rnf.Q.rows) == (_rows(P), k, _rows(Q))
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
    rng = random.Random("nullspace2")
    for trial in range(400):
        n_rows, n = rng.randint(1, 4), rng.randint(1, 8)
        rows = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(n_rows)]
        if trial % 3 == 0:   # a dependent row
            rows.append(tuple(a ^ b for a, b in zip(rows[0], rows[-1])))
        sp = _packed.space(2, n)
        want = sp.pack([tuple(v) for v in lists.mat_nullspace(rows, 2)])
        assert sp.nullspace2(sp.pack(rows)) == list(want), rows


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
    p, n = 3, 26
    assert _packed.space(p, n - 1) is not None and _packed.space(p, n) is None
    field = parse_field(f"F{p}")
    mats = _seeded(n, p, 8, "past")
    for a in mats:
        _check_unary(field, a, packs=False)
    for a, b in zip(mats, mats[1:] + mats[:1]):
        _check_binary(field, a, b, packs=False)


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
               lambda: bad.rank(), lambda: apply_derivation(D, bad)):
        with pytest.raises(UsageError, match="not canonical"):
            op()
