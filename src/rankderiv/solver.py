"""Independent verification oracle: the product rule over all rank-s pairs,
linearized as a homogeneous sparse system over F_q.

Unknowns are the entries of delta on the rank <= s domain
(``matrix.RankDomain``, which gives the place of each product xy);
each ordered pair (x, y) of rank-s matrices contributes the n^2 equations of
delta(xy) - delta(x) y - x delta(y) = 0.  The exact nullspace of the system
is the space of all maps satisfying the hypothesis, returned as table-backed
DeltaMaps keyed on the domain's matrices, for end-to-end cross-checking
against extraction.

The system never holds its equations: its ``rows`` is a sized view that
makes them again, one coefficient dict at a time, on each pass.  The
elimination reads each once and keeps only its pivots, so memory is bounded
by the domain and the pivot block, not by the number of pairs.

The nullspace is found by incremental Gauss-Jordan elimination on the
coefficient dicts, one routine for every prime.  The pivot block is kept
fully reduced: each pivot row is 1 at its lead (its highest column) and 0
at every other pivot's lead.  A new equation is then reduced in one pass,
subtracting f * pivot[c] for each pivot column c of its own support with
f read from the equation as given (a reduced pivot never changes another
pivot column).  A nonzero remainder is normalized at its highest column,
that column is eliminated from the pivots that hold it, and it joins the
block.  Most of the equations are redundant and reduce to zero after
touching only the few pivots at their own 2n + 1 columns, and no
back-substitution pass is needed.

The basis read off the block is already the reduced echelon form of the
kernel.  A new lead is never an older pivot's column, so clearing it from
an older row adds only columns below that row's lead: every pivot row stays
supported at or below its lead.  So the basis vector of a free column f is
1 at f, 0 at every other free column, and nonzero only at leads above f.
That form is unique, so the basis (one vector per free column, ascending)
does not depend on the order of elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivations import DeltaDomain, DeltaMap
from .errors import PreconditionError, UsageError, guard
from .matrix import (Matrix, RankDomain, enumerate_rank_k, rank_count_formula,
                     rank_total)

__all__ = [
    "ConstraintSystem",
    "build_constraint_system",
    "solution_space",
    "rank_count",
]

# The guards count with the formula, before anything is enumerated.  The
# equations are made one at a time as the elimination reads them, so
# BLOCK_GUARD bounds the time of a build, not its memory.
UNKNOWN_GUARD = 10 ** 6
BLOCK_GUARD = 200_000
COUNT_GUARD = 10 ** 6


@dataclass
class ConstraintSystem:
    """Sparse homogeneous system over F_q in the entries of delta.

    ``domain`` lists the rank <= s matrices in deterministic order; unknown
    ``idx * n^2 + a * n + b`` is entry (a, b) of delta(domain[idx]).
    ``rows`` is a sized view of the equations, not a list: each pass over it
    makes every equation again as a coefficient dict, in the same order, and
    its length is known without making any.
    """

    n: int
    s: int
    field: object
    domain: list
    rows: _Equations

    @property
    def unknown_count(self) -> int:
        return len(self.domain) * self.n * self.n

    @property
    def block_count(self) -> int:
        return len(self.rows) // (self.n * self.n)


class _Equations:
    """The n^2 equations of delta(xy) - delta(x) y - x delta(y) = 0 for each
    ordered pair (x, y) of rank-s matrices, x then y in domain order, entry
    (a, b) in row-major order."""

    __slots__ = ("domain", "rank_s", "n", "q")

    def __init__(self, domain: RankDomain, rank_s: list, n: int, q: int):
        self.domain = domain
        self.rank_s = rank_s
        self.n = n
        self.q = q

    def __len__(self):
        return len(self.rank_s) ** 2 * self.n * self.n

    def __iter__(self):
        domain, rank_s, n, q = self.domain, self.rank_s, self.n, self.q
        nn = n * n
        for i in rank_s:
            x, ix = domain[i], i * nn
            for j in rank_s:
                y, iy = domain[j], j * nn
                ixy = domain.product(i, j) * nn
                for a in range(n):
                    xa = x.rows[a]
                    for b in range(n):
                        coeffs = {ixy + a * n + b: 1}
                        for c in range(n):
                            ycb = y.rows[c][b]
                            if ycb:
                                col = ix + a * n + c
                                coeffs[col] = (coeffs.get(col, 0) - ycb) % q
                            xac = xa[c]
                            if xac:
                                col = iy + c * n + b
                                coeffs[col] = (coeffs.get(col, 0) - xac) % q
                        yield {c: v for c, v in coeffs.items() if v}


def build_constraint_system(n: int, s: int, field) -> ConstraintSystem:
    """One block of n^2 equations per ordered pair of rank-s matrices, as a
    view that makes them on each pass (``_Equations``); the guards, the
    domain and the places of its rank-s matrices are made here."""
    if not field.is_finite:
        raise UsageError("constraint systems require a finite field")
    if not (1 <= s and 2 * s <= n):
        raise PreconditionError(f"need 1 <= s <= n/2, got s={s}, n={n}")
    q = field.order
    guard(rank_total(n, range(s + 1), q) * n * n, UNKNOWN_GUARD, "unknowns", "solver")
    guard(rank_count_formula(n, s, q) ** 2, BLOCK_GUARD, "equation blocks", "solver")
    domain = RankDomain(n, range(s + 1), field)
    rank_s = [i for i, m in enumerate(domain) if m.rank() == s]
    return ConstraintSystem(n, s, field, domain.matrices, _Equations(domain, rank_s, n, q))


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
    in 1..p-1, in reduced echelon form: one vector per free column,
    ascending, with 1 at its free column (incremental Gauss-Jordan; see the
    module docstring)."""
    pivots = {}
    for coeffs in rows:
        row = dict(coeffs)
        for c, f in coeffs.items():
            piv = pivots.get(c)
            if piv is not None:
                _subtract(row, f, piv, p)
        if not row:
            continue
        lead = max(row)
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

    The basis is the reduced echelon form of the nullspace, as ``_nullspace``
    returns it, each vector reinterpreted as a table-backed map on the
    rank <= s domain.
    """
    system = build_constraint_system(n, s, field)
    basis = _nullspace(system.rows, system.unknown_count, field.order)
    nn = n * n
    maps = []
    for vec in basis:
        table = {}
        for idx, m in enumerate(system.domain):
            vals = vec[idx * nn:(idx + 1) * nn]
            table[m.rows] = Matrix._raw(field, [
                [vals[a * n + b] for b in range(n)] for a in range(n)])
        maps.append(DeltaMap._stored(n, field, DeltaDomain.rank_leq(s), table))
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
