"""Small exact linear-algebra kernel over Fraction matrices.

Matrices are lists of row lists (read-only inputs may be tuples of tuples).
Storage is dense; the sizes that occur in this package stay below ~60 x 60,
where fraction-exact Gaussian elimination is instantaneous and never rounds.
The kernels skip zeros: ``mat_vec`` multiplies only the nonzero entries of
the vector, ``charpoly`` (Hessenberg reduction, O(n^3)) skips zero pivots and
eliminations, and ``block_charpoly`` takes a matrix by sparse columns and
runs ``charpoly`` only on the strongly connected blocks of its nonzero
pattern that are larger than one entry.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    support = [(j, x) for j, x in enumerate(v) if x != 0]
    return [sum((row[j] * x for j, x in support), Fraction(0)) for row in a]


def _eliminate(a, pivot_cols=None):
    """Row-reduce a copy of `a` using pivots in the first `pivot_cols` columns;
    returns (echelon rows, rank, det_factor)."""
    m = [list(map(Fraction, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if pivot_cols is None:
        pivot_cols = cols
    rank = 0
    det = Fraction(1)
    for col in range(pivot_cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return m, rank, det


def rank(a) -> int:
    if not a:
        return 0
    return _eliminate(a)[1]


def det(a) -> Fraction:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    echelon, rk, d = _eliminate(a)
    return d if rk == n else Fraction(0)


def solve(a, b):
    """Solve a x = b for square invertible `a`; raises ValueError if singular."""
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a)]
    echelon, rk, _ = _eliminate(aug, pivot_cols=n)
    if rk < n or any(echelon[i][i] != 1 for i in range(n)):
        raise ValueError("singular linear system")
    return [echelon[i][n] for i in range(n)]


def inverse(a):
    n = len(a)
    eye = identity(n)
    aug = [list(map(Fraction, row)) + eye[i] for i, row in enumerate(a)]
    echelon, rk, _ = _eliminate(aug, pivot_cols=n)
    if rk < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in echelon]


def charpoly(a):
    """Monic characteristic polynomial of `a`, exactly, in O(n^3) field operations.

    Returns coefficients [1, c1, ..., cn] of x^n + c1 x^(n-1) + ... + cn.
    A copy of `a` is brought to upper Hessenberg form H by a similarity
    (each row swap or elimination is followed by the inverse column
    operation); zero pivots and zero entries are skipped.  The charpolys of
    the leading blocks of H then follow one from another by Hessenberg's
    recurrence, whose inner sum stops at the first zero subdiagonal entry
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    An all-zero matrix costs O(n^2) comparisons.  `a` is not modified.
    """
    n = len(a)
    h = [list(map(Fraction, row)) for row in a]
    for m in range(1, n - 1):
        c = m - 1
        pivot = next((i for i in range(m, n) if h[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = 1 / h[m][c]
        for i in range(m + 1, n):
            if h[i][c] == 0:
                continue
            u = h[i][c] * inv
            hm, hi = h[m], h[i]
            for j in range(c, n):
                if hm[j] != 0:
                    hi[j] -= u * hm[j]
            for row in h:
                if row[i] != 0:
                    row[m] += u * row[i]
    # polys[k] holds p_k in ascending powers of x
    polys = [[Fraction(1)]]
    for k in range(n):
        prev = polys[k]
        d = h[k][k]
        p = [Fraction(0)] + prev
        if d != 0:
            for e, x in enumerate(prev):
                p[e] -= d * x
        t = Fraction(1)
        for i in range(1, k + 1):
            t *= h[k - i + 1][k - i]
            if t == 0:
                break
            coef = t * h[k - i][k]
            if coef != 0:
                for e, x in enumerate(polys[k - i]):
                    p[e] -= coef * x
        polys.append(p)
    return polys[n][::-1]


def block_charpoly(columns):
    """Monic characteristic polynomial of the matrix whose column c is the sparse map columns[c].

    Each columns[c] maps a row index to a nonzero entry.  Ordered by the
    strongly connected components of the graph with an edge c -> r for each
    entry (r, c), the matrix is block upper triangular under a permutation,
    so its polynomial is the product of those of the diagonal blocks:
    x - a_cc for a one-vertex block and ``charpoly`` for a larger one.
    Returns [1, c1, ..., cn] as ``charpoly`` does.
    """
    poly = [Fraction(1)]
    for block in _strong_components(columns):
        if len(block) > 1:
            poly = _poly_mul(poly, charpoly([[columns[c].get(r, 0) for c in block] for r in block]))
        else:
            diagonal = columns[block[0]].get(block[0])
            if diagonal:
                poly = _poly_mul(poly, [Fraction(1), -Fraction(diagonal)])
            else:
                poly = poly + [Fraction(0)]  # times x
    return poly


def _poly_mul(p, q):
    """Product of two polynomials given by coefficients from the top power down."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _strong_components(columns):
    """The strongly connected components of the graph with an edge c -> r for
    every key r of columns[c], as lists of vertices (Tarjan, SIAM J. Comput.
    1, 1972), with an explicit stack in place of recursion."""
    index, low, on_stack, stack, components = {}, {}, set(), [], []
    for root in range(len(columns)):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(columns[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(columns[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components
