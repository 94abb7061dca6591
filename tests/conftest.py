"""Shared fixtures and independent test-side oracles.

The oracles here deliberately avoid the library's elimination code paths:
``ref_rank_mod`` is a self-contained row-echelon rank over F_p used to
cross-check enumeration and rank results.
"""

import itertools

import pytest

from rankderiv import parse_field
from rankderiv.matrix import _ROWS


@pytest.fixture
def F2():
    return parse_field("F2")


@pytest.fixture
def F3():
    return parse_field("F3")


@pytest.fixture
def F7():
    return parse_field("F7")


@pytest.fixture
def Q():
    return parse_field("Q")


@pytest.fixture
def Qt():
    return parse_field("Q(t)")


@pytest.fixture
def no_enumeration(monkeypatch):
    """``never``, which raises when called, with ``enumerate_rank_k``
    replaced by it in every module that calls it: a guard test passes it as
    its map too, so that enumerating or evaluating anything fails at once."""
    import rankderiv.derivations
    import rankderiv.matrix
    import rankderiv.solver

    def never(*args):
        raise AssertionError("enumerated or evaluated before the guard")

    for module in (rankderiv.matrix, rankderiv.derivations, rankderiv.solver):
        monkeypatch.setattr(module, "enumerate_rank_k", never)
    return never


def ref_rank_mod(rows, p):
    """Independent row-echelon rank over F_p (oracle; no library code)."""
    m = [[e % p for e in row] for row in rows]
    nr = len(m)
    nc = len(m[0])
    rank = 0
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for i in range(nr):
            if i != rank and m[i][col]:
                f = (m[i][col] * inv) % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def all_matrices_mod(n, p):
    """Every n x n matrix over F_p as row tuples, lexicographic row-major."""
    for flat in itertools.product(range(p), repeat=n * n):
        yield tuple(flat[i * n:(i + 1) * n] for i in range(n))


def brute_rank_k_count(n, k, p):
    return sum(1 for m in all_matrices_mod(n, p) if ref_rank_mod(m, p) == k)


def check_entry_reads(m, rows):
    """``m[i, j]`` against ``rows[i][j]`` for i, j from -n - 1 to n: in range
    first, where reading an entry of a held matrix decodes none of it, then
    the negative and out-of-range indices, which raise as the rows do."""
    n = len(rows)
    held = m._fastrep
    assert [[m[i, j] for j in range(n)] for i in range(n)] == [list(r) for r in rows]
    assert _ROWS.__get__(m) is None and m._fastrep is held
    for i in range(-n - 1, n + 1):
        for j in range(-n - 1, n + 1):
            try:
                want = rows[i][j]
            except IndexError:
                with pytest.raises(IndexError):
                    m[i, j]
            else:
                assert m[i, j] == want
