"""Exact linear algebra over Fraction entries and integer matrices.

Matrices are lists of row lists.  Everything here is elementary but
exact: no floating point enters any routine, so callers can build
certified comparisons on top of the results.

Elimination runs on integer rows in one fraction-free Gauss-Jordan kernel
(Bareiss 1968), _eliminate, whose symmetric form is ldl: a pivot p at (r, c)
sets every other row to (p * row - row[c] * W[r]) // p_prev, exact since
each entry is then a minor of the input.  Only final entries are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]


class SingularMatrixError(ValueError):
    pass


def frac_rows(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


def transpose(M: Sequence[Sequence]) -> list:
    return [list(col) for col in zip(*M)] if M else []


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> Matrix:
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_vec(A: Sequence[Sequence], v: Sequence) -> Vector:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def vec_dot(u: Sequence, v: Sequence) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def _common_scaled(M: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """(den * M as integer rows, den) for den the lcm of all denominators."""
    den = lcm(*(x.denominator for row in M for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in M], den


def _scaled_rows(M: Sequence[Sequence]) -> Tuple[List[List[int]], List[int]]:
    """Each row times the lcm of its own denominators, and those scales."""
    scales = [lcm(*(x.denominator for x in row)) for row in M]
    return [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(M, scales)], scales


def _eliminate(W: List[List[int]], ncols: int) -> Tuple[int, List[int], int, int]:
    """Eliminate the integer rows W in place, pivoting in the first ncols
    columns.  Returns (rank, pivot columns, d, sign): every pivot entry ends
    equal to the last pivot d, W[:rank] / d is the rref, and sign * d is the
    determinant of a square W of full rank."""
    d, sign, r, pivots = 1, 1, 0, []
    for c in range(ncols):
        piv = next((i for i in range(r, len(W)) if W[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            W[r], W[piv] = W[piv], W[r]
            sign = -sign
        prow = W[r]
        p = prow[c]
        for i, row in enumerate(W):
            a = row[c]
            if not a:
                W[i] = [p * x // d for x in row]
            elif i != r:
                W[i] = [(p * x - a * y) // d for x, y in zip(row, prow)]
        d = p
        pivots.append(c)
        r += 1
    return r, pivots, d, sign


def _int_det(W: List[List[int]]) -> int:
    r, _, d, sign = _eliminate(W, len(W))
    return sign * d if r == len(W) else 0


def det(M: Sequence[Sequence]) -> Fraction:
    W, scales = _scaled_rows(M)
    return Fraction(_int_det(W), prod(scales))


def solve_scaled(A: Sequence[Sequence], B: Sequence[Sequence]) -> Optional[Tuple[int, List[List[int]]]]:
    """(d, d A^-1 B) over the integers, d a nonzero integer, from one
    elimination of [A | B] in A's columns; None when A is singular.
    Scaling whole rows of [A | B] to integers leaves A^-1 B unchanged, and
    the kernel ends with d I in A's columns."""
    n = len(A)
    W, _ = _scaled_rows([list(a) + list(b) for a, b in zip(A, B)])
    r, _, d, _ = _eliminate(W, n)
    if r != n:
        return None
    return d, [row[n:] for row in W]


def _solve(A: Sequence[Sequence], B: Sequence[Sequence], message: str) -> Matrix:
    scaled = solve_scaled(A, B)
    if scaled is None:
        raise SingularMatrixError(message)
    d, W = scaled
    return [[Fraction(x, d) for x in row] for row in W]


def inverse(M: Sequence[Sequence]) -> Matrix:
    return _solve(M, identity(len(M)), "matrix is singular")


def solve_square(A: Sequence[Sequence], b: Sequence) -> Vector:
    return [row[0] for row in _solve(A, [[x] for x in b], "system is singular")]


def rref(M: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form with zero rows dropped.

    The result is the canonical representation of the row space, so two
    subspaces are equal iff their rref rows are equal.
    """
    W, _ = _scaled_rows(M)
    r, pivots, d, _ = _eliminate(W, len(W[0]) if W else 0)
    return [[Fraction(x, d) for x in row] for row in W[:r]], pivots


def rank(M: Sequence[Sequence]) -> int:
    W, _ = _scaled_rows(M)
    return _eliminate(W, len(W[0]))[0] if W else 0


def kernel(M: Sequence[Sequence], ncols: Optional[int] = None) -> Matrix:
    """Canonical basis (rref rows) of {x : M x = 0} as row vectors."""
    if ncols is None:
        ncols = len(M[0]) if M else 0
    R, pivots = rref(M)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return rref(basis)[0] if basis else []


def row_space_contains(R: Matrix, pivots: List[int], v: Sequence) -> bool:
    """Membership of v in the row space given its rref representation."""
    w = [Fraction(x) for x in v]
    for row, p in zip(R, pivots):
        if w[p] != 0:
            f = w[p]
            w = [a - f * b for a, b in zip(w, row)]
    return all(x == 0 for x in w)


def sum_row_spaces(A: Sequence[Sequence], B: Sequence[Sequence]) -> Matrix:
    return rref(list(A) + list(B))[0]


def intersect_row_spaces(A: Sequence[Sequence], B: Sequence[Sequence]) -> Matrix:
    """Canonical basis of rowspace(A) /\\ rowspace(B).

    A vector in the intersection is y·A = z·B; the pairs (y, z) form the
    kernel of [A^T | -B^T].
    """
    A = rref(A)[0]
    B = rref(B)[0]
    if not A or not B:
        return []
    ncols = len(A[0])
    stacked = [
        [A[i][c] for i in range(len(A))] + [-B[j][c] for j in range(len(B))]
        for c in range(ncols)
    ]
    combos = kernel(stacked, len(A) + len(B))
    vecs = []
    for combo in combos:
        y = combo[: len(A)]
        vecs.append([vec_dot(y, [A[i][c] for i in range(len(A))]) for c in range(ncols)])
    return rref(vecs)[0] if vecs else []


def kron(A: Sequence[Sequence], B: Sequence[Sequence]) -> Matrix:
    if not A or not B:
        return []
    out = []
    for arow in A:
        for brow in B:
            out.append([a * b for a in arow for b in brow])
    return out


def k_subsets(n: int, k: int) -> List[Tuple[int, ...]]:
    return list(combinations(range(n), k))


def submatrix(M: Sequence[Sequence], rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    return [[Fraction(M[i][j]) for j in cols] for i in rows]


def compound_matrix(M: Sequence[Sequence], k: int) -> Matrix:
    """k-th compound: entries are the k x k minors on sorted index sets,
    each taken on den * M and divided by den^k."""
    A, den = _common_scaled(M)
    subsets = k_subsets(len(M), k)
    return [[Fraction(_int_det([[A[i][j] for j in J] for i in I]), den**k) for J in subsets] for I in subsets]


def is_symmetric(M: Sequence[Sequence]) -> bool:
    n = len(M)
    return all(len(row) == n for row in M) and all(
        M[i][j] == M[j][i] for i in range(n) for j in range(i)
    )


def is_positive_definite(M: Sequence[Sequence]) -> bool:
    try:
        return is_symmetric(M) and ldl(M) is not None
    except SingularMatrixError:
        return False


def ldl(G: Sequence[Sequence]) -> Tuple[Matrix, Vector]:
    """G = L D L^T with L unit lower triangular, D positive diagonal.

    Exact; raises SingularMatrixError when G is not positive definite.  The
    lower triangle A of den * G is eliminated without row exchange: pivot k
    is its leading minor D_{k+1}, d_k = D_{k+1} / (D_k den), and L[i][k] is
    A[i][k] at step k over D_{k+1}."""
    A, den = _common_scaled([row[: i + 1] for i, row in enumerate(G)])
    n = len(A)
    D = [1]
    for k in range(n):
        p = A[k][k]
        if p <= 0:
            raise SingularMatrixError("matrix is not positive definite")
        col = [row[k] for row in A[k + 1 :]]
        for row in A[k + 1 :]:
            a = row[k]
            row[k + 1 :] = [(p * x - a * y) // D[-1] for x, y in zip(row[k + 1 :], col)]
        D.append(p)
    L = [[Fraction(A[i][j], D[j + 1]) if j < i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return L, [Fraction(D[k + 1], D[k] * den) for k in range(n)]


# ---------------------------------------------------------------------------
# integer matrices


def int_rows(rows) -> List[List[int]]:
    out = []
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError("expected integer entries")
                r.append(x.numerator)
            else:
                r.append(int(x))
        out.append(r)
    return out


def primitive_vector(v: Sequence[int]) -> List[int]:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = 0
    for x in v:
        g = gcd(g, int(x))
    if g == 0:
        return [0] * len(v)
    w = [int(x) // g for x in v]
    for x in w:
        if x != 0:
            if x < 0:
                w = [-y for y in w]
            break
    return w


def hnf_rows(A: Sequence[Sequence[int]]) -> List[List[int]]:
    """Canonical row-style Hermite form: echelon, positive pivots,
    entries above each pivot reduced into [0, pivot).  Zero rows dropped."""
    W = [row[:] for row in int_rows(A)]
    if not W:
        return []
    rows, cols = len(W), len(W[0])
    t = 0
    for c in range(cols):
        # gcd-eliminate below position t in column c
        while True:
            nz = [r for r in range(t, rows) if W[r][c] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(W[r][c]))
            W[t], W[r0] = W[r0], W[t]
            if W[t][c] < 0:
                W[t] = [-x for x in W[t]]
            done = True
            for r in range(t + 1, rows):
                if W[r][c] != 0:
                    q = W[r][c] // W[t][c]
                    W[r] = [a - q * b for a, b in zip(W[r], W[t])]
                    if W[r][c] != 0:
                        done = False
            if done:
                break
        if t < rows and W[t][c] != 0:
            for r in range(t):
                q = W[r][c] // W[t][c]
                if q:
                    W[r] = [a - q * b for a, b in zip(W[r], W[t])]
            t += 1
            if t == rows:
                break
    return [row for row in W[:t] if any(row)]


def hnf_columns(B: Sequence[Sequence[int]]) -> List[List[int]]:
    return transpose(hnf_rows(transpose(int_rows(B)))) if B else []


def int_diagonalize(B: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """Diagonalize an integer matrix by unimodular ops on both sides.

    Returns (Uinv, d) with B * V = Uinv * D for some unimodular V, where
    D is diagonal with entries d (nonzero entries first).  Columns of
    Uinv are a Z-basis of Z^r adapted to the column span of B: the first
    ``#nonzero(d)`` columns span the saturation of the span, and the
    remaining ones complete it to a basis of the ambient lattice.
    """
    W = [row[:] for row in int_rows(B)]
    r = len(W)
    k = len(W[0]) if W else 0
    Uinv = [[int(i == j) for j in range(r)] for i in range(r)]

    def row_swap(i, j):
        W[i], W[j] = W[j], W[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):  # W: row_i -= q*row_j ; Uinv: col_j += q*col_i
        W[i] = [a - q * b for a, b in zip(W[i], W[j])]
        for row in Uinv:
            row[j] += q * row[i]

    def row_neg(i):
        W[i] = [-x for x in W[i]]
        for row in Uinv:
            row[i] = -row[i]

    def col_swap(i, j):
        for row in W:
            row[i], row[j] = row[j], row[i]

    def col_sub(i, j, q):  # col_i -= q*col_j
        for row in W:
            row[i] -= q * row[j]

    t = 0
    while t < min(r, k):
        # locate a nonzero pivot in the remaining block
        pos = None
        for i in range(t, r):
            for j in range(t, k):
                if W[i][j] != 0:
                    if pos is None or abs(W[i][j]) < abs(W[pos[0]][pos[1]]):
                        pos = (i, j)
        if pos is None:
            break
        if pos[0] != t:
            row_swap(t, pos[0])
        if pos[1] != t:
            col_swap(t, pos[1])
        if W[t][t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, r):
            if W[i][t] != 0:
                q = W[i][t] // W[t][t]
                row_sub(i, t, q)
                if W[i][t] != 0:
                    dirty = True
        for j in range(t + 1, k):
            if W[t][j] != 0:
                q = W[t][j] // W[t][t]
                col_sub(j, t, q)
                if W[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        t += 1
    d = [W[i][i] if i < k else 0 for i in range(min(r, k))]
    return Uinv, [x for x in d if x != 0]


# ---------------------------------------------------------------------------
# lattice reduction on Gram matrices


def gram_lll(G: Sequence[Sequence], delta: Fraction = Fraction(3, 4)) -> Tuple[Matrix, List[List[int]]]:
    """Exact LLL working purely on the Gram matrix.

    Returns (G', U) with G' = U^T G U, U unimodular, and G' LLL-reduced
    (size-reduced and satisfying the Lovasz condition with parameter
    delta).  Used to keep short-vector enumeration trees small.

    The sweep runs on the Gram-Schmidt data alone, seeded from G; the
    reduced Gram matrix is formed once at the end, in integer arithmetic.
    """
    n = len(G)
    if n == 0:
        return [], []
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    # Gram-Schmidt data: Bv[i] = |b*_i|^2, mu[i][j] for j < i.  U starts as
    # the identity, so the GSO is the LDL^T factorisation of G itself; ldl
    # raises SingularMatrixError unless G is positive definite.
    mu, Bv = ldl(G)

    def col_op(i, j, q):  # basis op b_i -= q b_j
        for row in U:
            row[i] -= q * row[j]

    def col_swap(i, j):
        for row in U:
            row[i], row[j] = row[j], row[i]

    def size_reduce(kk, ll):
        if abs(mu[kk][ll]) > Fraction(1, 2):
            q = (mu[kk][ll] + Fraction(1, 2)).__floor__()
            col_op(kk, ll, q)
            for t in range(ll):
                mu[kk][t] -= q * mu[ll][t]
            mu[kk][ll] -= q
    kk = 1
    while kk < n:
        size_reduce(kk, kk - 1)
        if Bv[kk] < (delta - mu[kk][kk - 1] ** 2) * Bv[kk - 1]:
            col_swap(kk, kk - 1)
            # standard GSO update after swapping b_k, b_{k-1}
            mu_bar = mu[kk][kk - 1]
            B_bar = Bv[kk] + mu_bar**2 * Bv[kk - 1]
            mu[kk][kk - 1] = mu_bar * Bv[kk - 1] / B_bar
            Bv[kk] = Bv[kk - 1] * Bv[kk] / B_bar
            Bv[kk - 1] = B_bar
            for j in range(kk - 1):
                mu[kk - 1][j], mu[kk][j] = mu[kk][j], mu[kk - 1][j]
            for i in range(kk + 1, n):
                t = mu[i][kk]
                mu[i][kk] = mu[i][kk - 1] - mu_bar * t
                mu[i][kk - 1] = t + mu[kk][kk - 1] * mu[i][kk]
            kk = max(kk - 1, 1)
        else:
            for ll in range(kk - 2, -1, -1):
                size_reduce(kk, ll)
            kk += 1

    # U^T G U in integers: scale G to its common denominator, multiply
    # exactly, and build one Fraction per entry of the upper triangle
    # (G is symmetric, so U^T G U is too).
    Gint, den = _common_scaled(G)
    cols = transpose(U)
    Gcols = [[sum(g * u for g, u in zip(grow, col)) for grow in Gint] for col in cols]
    Gred: Matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            Gred[i][j] = Gred[j][i] = Fraction(sum(a * b for a, b in zip(cols[i], Gcols[j])), den)
    return Gred, U


def short_vectors_gram(G: Sequence[Sequence], bound: Fraction) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All nonzero v in Z^n with v^T G v <= bound, up to sign.

    Reduces G with gram_lll, then enumerates with short_vectors_reduced.
    A caller that already holds the reduction of G should call
    short_vectors_reduced directly.
    """
    Gred, U = gram_lll(G)
    return short_vectors_reduced(Gred, U, bound)


def short_vectors_reduced(
    Gred: Sequence[Sequence], U: Sequence[Sequence[int]], bound: Fraction
) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All nonzero v in Z^n with v^T G v <= bound, up to sign, given the
    reduction (Gred, U) = gram_lll(G), so that Gred = U^T G U.

    Exact Fincke-Pohst enumeration of x with x^T Gred x <= bound, each x
    mapped back to v = U x; the reduction only keeps the tree small.  Each
    returned vector has its first nonzero coordinate positive.  Results
    sorted by (norm, vector) for determinism.
    """
    n = len(Gred)
    bound = Fraction(bound)
    if n == 0 or bound < 0:
        return []
    L, d = ldl(Gred)
    out = {}
    v = [0] * n

    def centers(i):
        return sum(L[j][i] * v[j] for j in range(i + 1, n))

    def int_range(c: Fraction, cap: Fraction):
        # integers z with (z + c)^2 <= cap
        if cap < 0:
            return range(0)
        num = cap.numerator * cap.denominator
        s = Fraction(isqrt(num) + 1, cap.denominator)
        lo_f = -c - s
        hi_f = -c + s
        lo = -((-lo_f.numerator) // lo_f.denominator)  # ceil
        hi = hi_f.numerator // hi_f.denominator  # floor
        while lo <= hi and (lo + c) ** 2 > cap:
            lo += 1
        while hi >= lo and (hi + c) ** 2 > cap:
            hi -= 1
        return range(lo, hi + 1)

    def rec(i, remaining):
        if i < 0:
            if any(v):
                w = mat_vec(U, v)
                w_int = tuple(int(x) for x in w)
                for x in w_int:
                    if x != 0:
                        if x < 0:
                            w_int = tuple(-y for y in w_int)
                        break
                norm = bound - remaining
                prev = out.get(w_int)
                if prev is None:
                    out[w_int] = norm
            return
        c = centers(i)
        for z in int_range(c, remaining / d[i]):
            v[i] = z
            rec(i - 1, remaining - d[i] * (z + c) ** 2)
        v[i] = 0

    rec(n - 1, bound)
    return sorted(out.items(), key=lambda kv: (kv[1], kv[0]))
