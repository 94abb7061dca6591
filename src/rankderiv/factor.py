"""Rank factorization constructions.

* ``factor_rank_s``: write a rank-k matrix as a product of two rank-s
  matrices (possible exactly when 2s - n <= k <= s), built on the rank
  normal form.
* ``adapted_factor``: split a rank-1 matrix x as x1 * x2 with both factors
  of rank s, adapted to a given rank-s matrix y so that x2 * y has rank
  either s (case-I) or zero (case-II).
* ``rank_set`` / ``cover_rank``: the sparse decreasing family of ranks
  {n + 1 - 2^i} from which every intermediate rank can be product-covered.

Factors are P and Q with columns or rows zeroed (``matrix.masked``, which
masks packed rows as they stand).  ``adapted_factor`` reads W^T, the first
s columns of Q R transposed: its pivot columns in case-I, its kernel in
case-II.  Over F_2 one pass over W's packed rows gives both
(``Space.dependencies2``); otherwise the generic ``_echelon`` does.  Every
path gives the same factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import PreconditionError
from .matrix import Matrix, _echelon, _gen_nullspace, masked

__all__ = [
    "RankSFactorization",
    "AdaptedFactorization",
    "factor_rank_s",
    "adapted_factor",
    "rank_set",
    "cover_rank",
]


@dataclass(frozen=True)
class RankSFactorization:
    y1: Matrix
    y2: Matrix
    s: int


@dataclass(frozen=True)
class AdaptedFactorization:
    x1: Matrix
    x2: Matrix
    case_tag: str  # "case-I" or "case-II"


def _rank_normal_form_for(y: Matrix, s: int):
    """The rank normal form of y, once rank(y) = k admits rank-s factors:
    2s - n <= k <= s with 1 <= s <= n."""
    n = y.n
    if not 1 <= s <= n:
        raise PreconditionError(f"target rank s={s} outside [1, {n}]")
    rnf = y.rank_normal_form()
    k = rnf.k
    if k > s:
        raise PreconditionError(f"rank {k} exceeds target rank s={s}")
    if k < 2 * s - n:
        raise PreconditionError(f"rank {k} below lower bound 2s-n={2 * s - n}")
    return rnf


def factor_rank_s(y: Matrix, s: int) -> RankSFactorization:
    """Factor y (rank k) as y1 * y2 with rank(y1) = rank(y2) = s.

    Requires 2s - n <= k <= s.  With y = P J_k Q the factors are
    y1 = P J_s and y2 = (J_k + sum of e_ii for s <= i < 2s-k) Q.
    """
    rnf = _rank_normal_form_for(y, s)
    k = rnf.k
    y1 = masked(rnf.P, cols=range(s))
    y2 = masked(rnf.Q, rows=list(range(k)) + list(range(s, 2 * s - k)))
    return RankSFactorization(y1, y2, s)


def second_factor_rank_s(y: Matrix, s: int) -> RankSFactorization:
    """An independent rank-s factorization of y, sharing no spare index
    with the one from ``factor_rank_s`` (the spare e_ii blocks of y1 sit at
    the top of the index range instead of right after rank(y))."""
    rnf = _rank_normal_form_for(y, s)
    n, k = y.n, rnf.k
    y1 = masked(rnf.P, cols=list(range(k)) + list(range(n - (s - k), n)))
    y2 = masked(rnf.Q, rows=range(s))
    return RankSFactorization(y1, y2, s)


def adapted_factor(x: Matrix, y: Matrix, s: int) -> AdaptedFactorization:
    """Factor the rank-1 matrix x as x1 * x2 (both rank s) adapted to the
    rank-s matrix y: in case-I the product x2 * y keeps rank s, in case-II
    it is zero."""
    x._require_compatible(y)
    n = x.n
    if not (1 <= s and 2 * s <= n):
        raise PreconditionError(f"need 1 <= s <= n/2, got s={s}, n={n}")
    if x.rank() != 1:
        raise PreconditionError(f"x must have rank 1, got {x.rank()}")
    if y.rank() != s:
        raise PreconditionError(f"y must have rank s={s}, got {y.rank()}")
    field = x.field
    fx = x.rank_normal_form()      # x = P e_00 Q
    fy = y.rank_normal_form()      # y = R J_s S
    P, Q, R = fx.P, fx.Q, fy.P
    # W = Q R J_s, of which only the first s columns matter.  Case-I (row 0
    # of W nonzero) keeps the rows of Q at the pivot columns of W^T; in
    # case-II the first s kernel vectors of W^T, e_0 first, make x2 Q^-1.
    # Over F_2 one pass over W's rows finds both
    sp = x._space()
    if sp is not None and sp.p == 2:
        first = sp.slots(range(s))
        w = sp.mul(Q.rows, [r & first for r in R._packed_rows(sp)])[1]
        kept, kernel = sp.dependencies2(w)
        if w[0]:
            return _case_one(P, Q, s, kept)
        block = sp.decode(kernel[:s] + [0] * (n - s))[0]
        rows, packed = sp.mul(block, Q._packed_rows(sp))
        x2 = Matrix._raw(field, rows, packed)
        return _case_two(P, x2, s)
    wt = list(islice(zip(*(Q * R).rows), s))
    if any(row[0] != field.zero for row in wt):
        return _case_one(P, Q, s, [col for col, _, _ in _echelon(wt, field)[0]])
    block = _gen_nullspace(wt, field)[:s] + [[field.zero] * n] * (n - s)
    return _case_two(P, Matrix._raw(field, block) * Q, s)


def _case_one(P: Matrix, Q: Matrix, s: int, selected) -> AdaptedFactorization:
    """x2 keeps the rows ``selected`` of Q, x1 the columns 0 and the first
    s - 1 other unselected ones of P."""
    spare = [i for i in range(1, P.n) if i not in selected][:s - 1]
    x1 = masked(P, cols=[0] + spare)
    x2 = masked(Q, rows=selected)
    return AdaptedFactorization(x1, x2, "case-I")


def _case_two(P: Matrix, x2: Matrix, s: int) -> AdaptedFactorization:
    x1 = masked(P, cols=[0] + list(range(s, 2 * s - 1)))
    return AdaptedFactorization(x1, x2, "case-II")


def rank_set(n: int) -> list:
    """The decreasing rank family {n + 1 - 2^i : 0 <= i <= imax} where imax
    is the least i with 2^(i+1) >= n + 2; the minimum is always <= n/2."""
    if n < 2:
        raise PreconditionError(f"rank_set needs n >= 2, got {n}")
    imax = 0
    while 2 ** (imax + 1) < n + 2:
        imax += 1
    return [n + 1 - 2 ** i for i in range(imax + 1)]


def cover_rank(n: int, k: int) -> int:
    """Smallest member s' of rank_set(n) with s' >= k and 2s' - n <= k, so
    that ``factor_rank_s`` applies at target rank s'; k itself when it is a
    member."""
    if not 0 <= k <= n:
        raise PreconditionError(f"rank {k} out of range for n={n}")
    for s in sorted(rank_set(n)):
        if s >= k and 2 * s - n <= k:
            return s
    raise RuntimeError(
        f"no covering rank for n={n}, k={k}; rank_set={rank_set(n)}")
