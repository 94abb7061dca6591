"""Pure-Python mod-p matrix kernels, kept as a reference.

No library path calls these functions.  They are an independent mod-p
implementation, written with integer arithmetic rather than field
operations, that the tests and the benchmark compare the packed rows and
the generic elimination against: same functions as those paths, same
pivoting (first nonzero entry in column order), so equal outputs are
required.  Matrices are sequences of row sequences of canonical residues;
results are lists of lists.
"""

BACKEND = "pure"


def mat_add(a, b, p):
    return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b, p):
    return [[(x - y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b, p):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] = (oi[j] + aik * bk[j]) % p
    return out


def mat_rank(a, p):
    rows = [list(r) for r in a]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rank = 0
    for col in range(nc):
        piv = -1
        for i in range(rank, nr):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rp = rows[rank]
        inv = pow(rp[col], -1, p)
        for i in range(rank + 1, nr):
            ri = rows[i]
            if ri[col]:
                f = (ri[col] * inv) % p
                for j in range(col, nc):
                    ri[j] = (ri[j] - f * rp[j]) % p
        rank += 1
        if rank == nr:
            break
    return rank


def mat_rref(a, p):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in a]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    rank = 0
    for col in range(nc):
        piv = -1
        for i in range(rank, nr):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rp = rows[rank]
        inv = pow(rp[col], -1, p)
        if inv != 1:
            for j in range(col, nc):
                rp[j] = (rp[j] * inv) % p
        for i in range(nr):
            if i != rank and rows[i][col]:
                ri = rows[i]
                f = ri[col]
                for j in range(col, nc):
                    ri[j] = (ri[j] - f * rp[j]) % p
        pivots.append(col)
        rank += 1
        if rank == nr:
            break
    return rows, pivots


def mat_nullspace(a, p):
    """Basis of the right kernel, one vector per free column, ascending."""
    rows, pivots = mat_rref(a, p)
    nc = len(a[0]) if len(a) else 0
    pivot_set = set(pivots)
    basis = []
    for free in range(nc):
        if free in pivot_set:
            continue
        v = [0] * nc
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = (-rows[r][free]) % p
        basis.append(v)
    return basis


def mat_rnf(a, p):
    """Rank normal form of a square matrix: (P, k, Q) with P*J_k*Q = a."""
    n = len(a)
    m = [list(r) for r in a]
    P = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for _ in range(n):
        pi = pj = -1
        for j in range(r, n):
            for i in range(r, n):
                if m[i][j]:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            break
        if pi != r:
            m[r], m[pi] = m[pi], m[r]
            for t in range(n):
                Pt = P[t]
                Pt[r], Pt[pi] = Pt[pi], Pt[r]
        if pj != r:
            for t in range(n):
                mt = m[t]
                mt[r], mt[pj] = mt[pj], mt[r]
            Q[r], Q[pj] = Q[pj], Q[r]
        pv = m[r][r]
        if pv != 1:
            inv = pow(pv, -1, p)
            mr = m[r]
            for j in range(n):
                mr[j] = (mr[j] * inv) % p
            for t in range(n):
                P[t][r] = (P[t][r] * pv) % p
        mr = m[r]
        for i in range(n):
            if i != r and m[i][r]:
                c = m[i][r]
                mi = m[i]
                for j in range(n):
                    mi[j] = (mi[j] - c * mr[j]) % p
                for t in range(n):
                    P[t][r] = (P[t][r] + c * P[t][i]) % p
        for j in range(n):
            if j != r and mr[j]:
                c = mr[j]
                mr[j] = 0
                Qr, Qj = Q[r], Q[j]
                for t in range(n):
                    Qr[t] = (Qr[t] + c * Qj[t]) % p
        r += 1
    return P, r, Q
