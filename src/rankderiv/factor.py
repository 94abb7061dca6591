"""Rank factorization constructions.

* ``factor_rank_s``: write a rank-k matrix as a product of two rank-s
  matrices (possible exactly when 2s - n <= k <= s), built on the rank
  normal form.
* ``adapted_factor``: split a rank-1 matrix x as x1 * x2 with both factors
  of rank s, adapted to a given rank-s matrix y so that x2 * y has rank
  either s (case-I) or zero (case-II).
* ``rank_set`` / ``cover_rank``: the sparse decreasing family of ranks
  {n + 1 - 2^i} from which every intermediate rank can be product-covered.

Factors of a matrix with packed rows (``_packed``) are masked on the packed
rows of P and Q.  Over F_2 ``adapted_factor`` also picks its rows and
solves its case-II kernel on packed rows; over other fields it uses field
operations.  Every path gives the same factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import PreconditionError
from .matrix import Matrix, _nullspace_rows

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


def _keep_columns(m: Matrix, cols) -> Matrix:
    """``m * Matrix.diag_ones(field, n, cols)``: the other columns zeroed."""
    sp = m._space()
    if sp is not None:
        mask = sp.slots(cols)
        return Matrix._from_packed(m.field, sp.decode(
            tuple([r & mask for r in m._packed_rows(sp)])))
    z = m.field.zero
    keep = [j in cols for j in range(m.n)]
    return Matrix._raw(m.field, [[e if k else z for e, k in zip(row, keep)]
                                 for row in m.rows])


def _keep_rows(m: Matrix, rows) -> Matrix:
    """``Matrix.diag_ones(field, n, rows) * m``: the other rows zeroed."""
    sp = m._space()
    if sp is not None:
        return Matrix._from_packed(m.field, sp.decode(
            tuple([r if i in rows else 0 for i, r in enumerate(m._packed_rows(sp))])))
    zero_row = (m.field.zero,) * m.n
    return Matrix._raw(m.field, [row if i in rows else zero_row
                                 for i, row in enumerate(m.rows)])


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
    y1 = _keep_columns(rnf.P, range(s))
    y2 = _keep_rows(rnf.Q, list(range(k)) + list(range(s, 2 * s - k)))
    return RankSFactorization(y1, y2, s)


def second_factor_rank_s(y: Matrix, s: int) -> RankSFactorization:
    """An independent rank-s factorization of y, sharing no spare index
    with the one from ``factor_rank_s`` (the spare e_ii blocks of y1 sit at
    the top of the index range instead of right after rank(y))."""
    rnf = _rank_normal_form_for(y, s)
    n, k = y.n, rnf.k
    if n < 2 * s - k:
        # the two spare blocks would overlap
        raise PreconditionError(
            f"no disjoint second factorization for n={n}, k={k}, s={s}")
    y1 = _keep_columns(rnf.P, list(range(k)) + list(range(n - (s - k), n)))
    y2 = _keep_rows(rnf.Q, range(s))
    return RankSFactorization(y1, y2, s)


def _select_independent_rows(rows, field, want: int) -> list:
    """Greedy 0-based indices, always containing 0, whose rows span rank
    ``want``; lexicographically smallest choice."""
    zero = field.zero
    n_cols = len(rows[0])
    basis = []  # (pivot_col, normalized row)

    def try_add(vec):
        w = list(vec)
        for pc, br in basis:
            if w[pc] != zero:
                f = w[pc]
                for j in range(pc, n_cols):
                    w[j] = field.sub(w[j], field.mul(f, br[j]))
        for j in range(n_cols):
            if w[j] != zero:
                inv = field.inv(w[j])
                basis.append((j, [field.mul(inv, c) for c in w]))
                basis.sort(key=lambda e: e[0])
                return True
        return False

    selected = [0]
    try_add(rows[0])
    for i in range(1, len(rows)):
        if len(selected) == want:
            break
        if try_add(rows[i]):
            selected.append(i)
    if len(selected) != want:
        raise PreconditionError("rows do not span the required rank")
    return selected


def _select_independent_bits(rows, want: int) -> list:
    """``_select_independent_rows`` over F_2 on rows held as ints."""
    # each kept row is reduced by all earlier ones, so it has none of their
    # lowest bits set, and a row reduces to 0 exactly when it is dependent
    basis = [(rows[0] & -rows[0], rows[0])] if rows[0] else []
    selected = [0]
    for i in range(1, len(rows)):
        if len(selected) == want:
            break
        r = rows[i]
        for low, b in basis:
            if r & low:
                r ^= b
        if r:
            basis.append((r & -r, r))
            selected.append(i)
    if len(selected) != want:
        raise PreconditionError("rows do not span the required rank")
    return selected


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
    sp = x._space()
    if sp is not None and sp.p == 2:
        # W = Q R J_s: only the first s columns of QR matter
        first = sp.slots(range(s))
        w_rows, w = sp.mul(Q.rows, [r & first for r in R._packed_rows(sp)])
        if w[0]:
            return _case_one(P, Q, s, _select_independent_bits(w, s))
        # case-II: row 0 of W vanishes, so column 0 of W^T is zero, and the
        # kernel basis of W^T is e_0 followed by that of G^T shifted by one
        # place: its first s vectors are the nonzero rows of the block of
        # the list path below
        kernel = sp.nullspace2(sp.pack(list(islice(zip(*w_rows), s))))
        block = sp.decode(kernel[:s] + [0] * (n - s))[0]
        x2 = Matrix._from_packed(field, sp.mul(block, Q._packed_rows(sp)))
        return _case_two(P, x2, s)
    QR = Q * R
    # only the first s columns of QR * J_s matter
    w_rows = [row[:s] for row in QR.rows]
    zero = field.zero
    if any(c != zero for c in w_rows[0]):
        # case-I: extend row 0 to s independent rows of QR J_s
        return _case_one(P, Q, s, _select_independent_rows(w_rows, field, s))
    # case-II: row 0 of QR J_s vanishes; kernel rows of G^T complete x2
    g_rows = w_rows[1:]                     # G is (n-1) x s with rank s
    gt_rows = list(zip(*g_rows))            # s x (n-1)
    kernel = _nullspace_rows(gt_rows, field)
    h_rows = kernel[: s - 1]                # (s-1) x (n-1), HG = 0
    block = [[zero] * n for _ in range(n)]
    block[0][0] = field.one
    for r, vec in enumerate(h_rows):
        for c, val in enumerate(vec):
            block[1 + r][1 + c] = val
    return _case_two(P, Matrix._raw(field, block) * Q, s)


def _case_one(P: Matrix, Q: Matrix, s: int, selected) -> AdaptedFactorization:
    """x2 keeps the rows ``selected`` of Q, x1 the columns 0 and the first
    s - 1 other unselected ones of P."""
    spare = [i for i in range(1, P.n) if i not in selected][:s - 1]
    x1 = _keep_columns(P, [0] + spare)
    x2 = _keep_rows(Q, selected)
    return AdaptedFactorization(x1, x2, "case-I")


def _case_two(P: Matrix, x2: Matrix, s: int) -> AdaptedFactorization:
    x1 = _keep_columns(P, [0] + list(range(s, 2 * s - 1)))
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
