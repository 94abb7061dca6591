"""Independent verification oracle: the product rule over all rank-s pairs,
linearized as a homogeneous sparse system over F_q.

Unknowns are the entries of delta on the rank <= s domain; each ordered
pair (x, y) of rank-s matrices contributes the n^2 equations of
delta(xy) - delta(x) y - x delta(y) = 0.  The exact nullspace of the system
is the space of all maps satisfying the hypothesis, returned as table-backed
DeltaMaps for end-to-end cross-checking against extraction.

The nullspace is found by incremental Gauss-Jordan elimination on the
coefficient dicts, one routine for every prime.  The pivot block is kept
fully reduced: each pivot row is 1 at its lead (its lowest column) and 0
at every other pivot's lead.  A new equation is then reduced in one pass,
subtracting f * pivot[c] for each pivot column c of its own support with
f read from the equation as given (a reduced pivot never changes another
pivot column).  A nonzero remainder is normalized at its lowest column,
that column is eliminated from the pivots that hold it, and it joins the
block.  Most of the equations are redundant and reduce to zero after
touching only the few pivots at their own 2n + 1 columns, and no
back-substitution pass is needed.  The reduced echelon form is unique, so
the basis (one vector per free column, ascending) does not depend on the
order of elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivations import DeltaDomain, DeltaMap
from .errors import PreconditionError, UsageError, guard
from .matrix import Matrix, _gen_rref, enumerate_rank_k, rank_count_formula

__all__ = [
    "ConstraintSystem",
    "build_constraint_system",
    "solution_space",
    "rank_count",
]

UNKNOWN_GUARD = 10 ** 6
BLOCK_GUARD = 200_000
COUNT_GUARD = 10 ** 6


@dataclass
class ConstraintSystem:
    """Sparse homogeneous system over F_q in the entries of delta.

    ``domain`` lists the rank <= s matrices in deterministic order; unknown
    ``idx * n^2 + a * n + b`` is entry (a, b) of delta(domain[idx]).  Each
    equation row is a coefficient dict.
    """

    n: int
    s: int
    field: object
    domain: list
    index: dict
    rows: list

    @property
    def unknown_count(self) -> int:
        return len(self.domain) * self.n * self.n

    @property
    def block_count(self) -> int:
        return len(self.rows) // (self.n * self.n)


def build_constraint_system(n: int, s: int, field) -> ConstraintSystem:
    """One block of n^2 equations per ordered pair of rank-s matrices."""
    if not field.is_finite:
        raise UsageError("constraint systems require a finite field")
    if not (1 <= s and 2 * s <= n):
        raise PreconditionError(f"need 1 <= s <= n/2, got s={s}, n={n}")
    q = field.order
    unknowns = sum(rank_count_formula(n, k, q) for k in range(s + 1)) * n * n
    guard(unknowns, UNKNOWN_GUARD, "unknowns", "solver")
    guard(rank_count_formula(n, s, q) ** 2, BLOCK_GUARD, "equation blocks", "solver")
    domain = []
    for k in range(s + 1):
        domain.extend(enumerate_rank_k(n, k, field))
    index = {m.rows: i for i, m in enumerate(domain)}
    nn = n * n
    rank_s = [m for m in domain if m.rank() == s]
    rows = []
    p = field.order
    for x in rank_s:
        ix = index[x.rows] * nn
        for y in rank_s:
            iy = index[y.rows] * nn
            xy = x * y
            ixy = index[xy.rows] * nn
            for a in range(n):
                xa = x.rows[a]
                for b in range(n):
                    coeffs = {}
                    coeffs[ixy + a * n + b] = 1
                    for c in range(n):
                        ycb = y.rows[c][b]
                        if ycb:
                            col = ix + a * n + c
                            coeffs[col] = (coeffs.get(col, 0) - ycb) % p
                        xac = xa[c]
                        if xac:
                            col = iy + c * n + b
                            coeffs[col] = (coeffs.get(col, 0) - xac) % p
                    rows.append({c: v for c, v in coeffs.items() if v})
    return ConstraintSystem(n, s, field, domain, index, rows)


def _subtract(row, f, pivot, p):
    """row -= f * pivot over F_p, in place, keeping only nonzero entries."""
    for k, v in pivot.items():
        nv = (row.get(k, 0) - f * v) % p
        if nv:
            row[k] = nv
        else:
            del row[k]


def _nullspace(rows, ncols, p):
    """Right kernel over F_p of ``rows``, coefficient dicts whose values lie
    in 1..p-1: one vector per free column, ascending, with 1 at its free
    column (incremental Gauss-Jordan; see the module docstring)."""
    pivots = {}
    for coeffs in rows:
        row = dict(coeffs)
        for c, f in coeffs.items():
            piv = pivots.get(c)
            if piv is not None:
                _subtract(row, f, piv, p)
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p)
        new = {c: (v * inv) % p for c, v in row.items()}
        for r in pivots.values():
            f = r.get(lead)
            if f:
                _subtract(r, f, new, p)
        pivots[lead] = new
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for lead, r in pivots.items():
            coef = r.get(free)
            if coef:
                v[lead] = (-coef) % p
        basis.append(v)
    return basis


def solution_space(n: int, s: int, field):
    """Exact nullspace of the constraint system: (dimension, basis DeltaMaps).

    The basis is canonicalized to the reduced echelon form of the nullspace,
    each vector reinterpreted as a table-backed map on the rank <= s domain.
    """
    system = build_constraint_system(n, s, field)
    ncols = system.unknown_count
    p = field.order
    basis = _nullspace(system.rows, ncols, p)
    if basis:
        rref_rows, _ = _gen_rref(basis, field)
        basis = rref_rows[: len(basis)]
    nn = n * n
    maps = []
    for vec in basis:
        table = {}
        for idx, m in enumerate(system.domain):
            vals = vec[idx * nn:(idx + 1) * nn]
            table[m] = Matrix._raw(field, [
                [vals[a * n + b] for b in range(n)] for a in range(n)])
        maps.append(DeltaMap.from_table(n, field, DeltaDomain.rank_leq(s), table))
    return len(basis), maps


def rank_count(n: int, k: int, field) -> int:
    """Count of rank-k matrices by exhaustive enumeration, cross-checked
    against the q-binomial product formula."""
    if not field.is_finite:
        raise UsageError("rank counting requires a finite field")
    expected = rank_count_formula(n, k, field.order)
    guard(expected, COUNT_GUARD, "matrices", "enumeration")
    count = sum(1 for _ in enumerate_rank_k(n, k, field))
    if count != expected:
        raise RuntimeError(
            f"enumeration found {count} rank-{k} matrices but the "
            f"counting formula gives {expected}")
    return count
