"""Independent verification oracle: the product rule over all rank-s pairs,
linearized as a homogeneous sparse system over F_q.

Unknowns are the entries of delta on the rank <= s domain; each ordered
pair (x, y) of rank-s matrices contributes the n^2 equations of
delta(xy) - delta(x) y - x delta(y) = 0.  The exact nullspace of the system
is the space of all maps satisfying the hypothesis, returned as table-backed
DeltaMaps for end-to-end cross-checking against extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivations import DeltaDomain, DeltaMap
from .errors import PreconditionError, ResourceLimitError, UsageError
from .matrix import Matrix, enumerate_rank_k, rank_count_formula

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
    equation row is a coefficient dict, tagged in ``provenance`` with its
    generating pair and entry position.
    """

    n: int
    s: int
    field: object
    domain: list
    index: dict
    rows: list
    provenance: list

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
    if unknowns > UNKNOWN_GUARD:
        raise ResourceLimitError(
            f"{unknowns} unknowns exceed the {UNKNOWN_GUARD} guard; "
            f"use sampled verification instead")
    blocks = rank_count_formula(n, s, q) ** 2
    if blocks > BLOCK_GUARD:
        raise ResourceLimitError(
            f"{blocks} equation blocks exceed the {BLOCK_GUARD} guard; "
            f"use sampled verification instead")
    domain = []
    for k in range(s + 1):
        domain.extend(enumerate_rank_k(n, k, field))
    index = {m.rows: i for i, m in enumerate(domain)}
    nn = n * n
    rank_s = [m for m in domain if m.rank() == s]
    rows = []
    provenance = []
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
                    provenance.append((x, y, a, b))
    return ConstraintSystem(n, s, field, domain, index, rows, provenance)


def _nullspace_gf2(rows, ncols):
    pivots = {}
    for coeffs in rows:
        mask = 0
        for c in coeffs:
            mask |= 1 << c
        while mask:
            low = (mask & -mask).bit_length() - 1
            if low in pivots:
                mask ^= pivots[low]
            else:
                pivots[low] = mask
                break
    leads = sorted(pivots)
    for pos in range(len(leads) - 1, -1, -1):
        lead = leads[pos]
        r = pivots[lead]
        for other in leads[pos + 1:]:
            if (r >> other) & 1:
                r ^= pivots[other]
        pivots[lead] = r
    pivot_set = set(leads)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for lead in leads:
            if (pivots[lead] >> free) & 1:
                v[lead] = 1
        basis.append(v)
    return basis


def _nullspace_gfp(rows, ncols, p):
    pivots = {}
    for coeffs in rows:
        row = dict(coeffs)
        while row:
            low = min(row)
            if low in pivots:
                f = row[low]
                for c, v in pivots[low].items():
                    nv = (row.get(c, 0) - f * v) % p
                    if nv:
                        row[c] = nv
                    elif c in row:
                        del row[c]
            else:
                inv = pow(row[low], -1, p)
                pivots[low] = {c: (v * inv) % p for c, v in row.items()}
                break
    leads = sorted(pivots)
    for pos in range(len(leads) - 1, -1, -1):
        lead = leads[pos]
        r = pivots[lead]
        for other in leads[pos + 1:]:
            f = r.get(other, 0)
            if f:
                for c, v in pivots[other].items():
                    nv = (r.get(c, 0) - f * v) % p
                    if nv:
                        r[c] = nv
                    elif c in r:
                        del r[c]
        pivots[lead] = r
    pivot_set = set(leads)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for lead in leads:
            coef = pivots[lead].get(free, 0)
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
    if p == 2:
        basis = _nullspace_gf2(system.rows, ncols)
    else:
        basis = _nullspace_gfp(system.rows, ncols, p)
    if basis:
        from ._backend import kernels
        rref_rows, _ = kernels.mat_rref(basis, p)
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
    if expected > COUNT_GUARD:
        raise ResourceLimitError(
            f"{expected} matrices exceed the {COUNT_GUARD} enumeration guard")
    count = sum(1 for _ in enumerate_rank_k(n, k, field))
    if count != expected:
        raise RuntimeError(
            f"enumeration found {count} rank-{k} matrices but the "
            f"counting formula gives {expected}")
    return count
