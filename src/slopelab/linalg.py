"""Exact linear algebra over Fraction entries and integer matrices.

Matrices are lists of row lists.  Everything here is elementary but
exact: no floating point enters any routine, so callers can build
certified comparisons on top of the results.

Elimination runs on integer rows in one fraction-free Gauss-Jordan kernel
(Bareiss 1968), _eliminate, whose symmetric form is _ldl_scaled: a pivot p
at (r, c) sets every other row to (p * row - row[c] * W[r]) // p_prev, exact
since each entry is then a minor of the input.  Only final entries are
Fractions.

Lattice reduction stays on the integers as well: gram_lll is the integral
LLL on den * G, seeded from _ldl_scaled, and hands its final Gram-Schmidt
data (lam, D, den) to short_vectors_reduced, whose Fincke-Pohst enumeration
uses integer centers and isqrt ranges and builds one Fraction per node.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod
from typing import List, NamedTuple, Optional, Sequence, Tuple

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
    """(den * M as integer rows, den) for den the lcm of all denominators.

    The lcm arguments go in as a list: a generator would build its argument
    tuple by resizing, and each resized tuple then joins the interpreter's
    free list of its final size, which keeps up to 2000 of them."""
    den = lcm(*[x.denominator for row in M for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in M], den


def _scaled_rows(M: Sequence[Sequence]) -> Tuple[List[List[int]], List[int]]:
    """Each row times the lcm of its own denominators, and those scales."""
    scales = [lcm(*[x.denominator for x in row]) for row in M]
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
    each taken on den * M and divided by den^k.  The compound of a
    symmetric M is symmetric, so then each minor is taken once per
    unordered pair of index sets."""
    A, den = _common_scaled(M)
    subsets = k_subsets(len(M), k)
    sym = is_symmetric(A)
    C: Matrix = [[Fraction(0)] * len(subsets) for _ in subsets]
    for a, I in enumerate(subsets):
        rows = [A[i] for i in I]
        for b in range(a if sym else 0, len(subsets)):
            C[a][b] = Fraction(_int_det([[row[j] for j in subsets[b]] for row in rows]), den**k)
            if sym:
                C[b][a] = C[a][b]
    return C


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


def _ldl_scaled(G: Sequence[Sequence]) -> Tuple[List[List[int]], List[int], int]:
    """The symmetric Bareiss loop of ldl and gram_lll, over the integers.

    The lower triangle A of den * G, den the lcm of its denominators, is
    eliminated without row exchange: pivot k is the leading minor D[k+1] of
    den * G.  Returns (A, D, den) with D[0] = 1 and A[i][j] = D[j+1] L[i][j]
    for j <= i, where G = L diag(d) L^T.  Raises SingularMatrixError unless
    every pivot is positive."""
    A, den = _common_scaled([row[: i + 1] for i, row in enumerate(G)])
    D = [1]
    for k in range(len(A)):
        p = A[k][k]
        if p <= 0:
            raise SingularMatrixError("matrix is not positive definite")
        col = [row[k] for row in A[k + 1 :]]
        for row in A[k + 1 :]:
            a = row[k]
            row[k + 1 :] = [(p * x - a * y) // D[-1] for x, y in zip(row[k + 1 :], col)]
        D.append(p)
    return A, D, den


def ldl(G: Sequence[Sequence]) -> Tuple[Matrix, Vector]:
    """G = L D L^T with L unit lower triangular, D positive diagonal.

    Exact; raises SingularMatrixError when G is not positive definite.
    From _ldl_scaled: d_k = D_{k+1} / (D_k den) and L[i][k] = A[i][k] / D_{k+1}."""
    A, D, den = _ldl_scaled(G)
    n = len(A)
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


class GSO(NamedTuple):
    """Gram-Schmidt data of a basis with Gram matrix G, over the integers.

    D[k] is the k-th leading principal minor of den * G (D[0] = 1) and
    lam[i][j] = D[j+1] mu_ij for j < i, so |b*_i|^2 = D[i+1] / (D[i] den)."""

    lam: List[List[int]]
    D: List[int]
    den: int


def gram_lll(G: Sequence[Sequence]) -> Tuple[Matrix, List[List[int]], GSO]:
    """Exact integral LLL working purely on the Gram matrix.

    Returns (Gred, U, gso) with Gred = U^T G U, U unimodular, Gred
    LLL-reduced (size-reduced and satisfying the Lovasz condition with
    parameter 3/4), and gso the Gram-Schmidt data of Gred, which
    short_vectors_reduced enumerates on.  Raises SingularMatrixError unless
    G is positive definite.

    The sweep is Cohen's integral LLL (A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7) on den * G, seeded from _ldl_scaled (U starts
    as the identity, so the GSO is that of G itself).  It size-reduces when
    2 |lam_kl| > D_{l+1} and swaps when 4 (D_{k+1} D_{k-1} + lam^2) < 3 D_k^2,
    the decisions of the rational sweep with mu = lam / D.  The reduced
    Gram matrix is formed once at the end, in integer arithmetic.
    """
    n = len(G)
    if n == 0:
        return [], [], GSO([], [1], 1)
    A, D, den = _ldl_scaled(G)
    lam = [row[:i] for i, row in enumerate(A)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def size_reduce(k, l):  # b_k -= q b_l for q = floor(mu_kl + 1/2)
        d = D[l + 1]
        lk = lam[k]
        if 2 * abs(lk[l]) > d:
            q = (2 * lk[l] + d) // (2 * d)
            for row in U:
                row[k] -= q * row[l]
            for t, x in enumerate(lam[l]):
                lk[t] -= q * x
            lk[l] -= q * d

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * (D[k + 1] * D[k - 1] + lk * lk) < 3 * D[k] * D[k]:
            # swap b_k and b_{k-1}: of the GSO only D_k and the entries of
            # lam in rows and columns k-1, k change
            for row in U:
                row[k], row[k - 1] = row[k - 1], row[k]
            lam[k - 1], lam[k] = lam[k][: k - 1], lam[k - 1] + [lk]
            B = (D[k - 1] * D[k + 1] + lk * lk) // D[k]
            for row in lam[k + 1 :]:
                t = row[k]
                row[k] = (D[k + 1] * row[k - 1] - lk * t) // D[k]
                row[k - 1] = (B * t + lk * row[k]) // D[k + 1]
            D[k] = B
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1

    # U^T G U in integers: scale G to its common denominator, multiply
    # exactly, and build one Fraction per entry of the upper triangle
    # (G is symmetric, so U^T G U is too).
    Gint, gden = _common_scaled(G)
    cols = transpose(U)
    Gcols = [[sum(g * u for g, u in zip(grow, col)) for grow in Gint] for col in cols]
    Gred: Matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            Gred[i][j] = Gred[j][i] = Fraction(sum(a * b for a, b in zip(cols[i], Gcols[j])), gden)
    return Gred, U, GSO(lam, D, den)


def short_vectors_gram(G: Sequence[Sequence], bound: Fraction) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All nonzero v in Z^n with v^T G v <= bound, up to sign.

    Reduces G with gram_lll, then enumerates with short_vectors_reduced.
    A caller that already holds the reduction of G should call
    short_vectors_reduced directly.
    """
    _Gred, U, gso = gram_lll(G)
    return short_vectors_reduced(U, gso, bound)


def short_vectors_reduced(
    U: Sequence[Sequence[int]], gso: GSO, bound: Fraction
) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All nonzero v in Z^n with v^T G v <= bound, up to sign, given the
    reduction (Gred, U, gso) = gram_lll(G), so that Gred = U^T G U.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985) of x with
    x^T Gred x <= bound on the integer GSO alone: with the integer center
    c_i = sum_{j>i} lam_ji x_j and y_i = D_{i+1} x_i + c_i,
    x^T Gred x = sum_i y_i^2 / m_i for m_i = D_i D_{i+1} den.  So the range
    of x_i under a remaining radius R is |y_i| <= isqrt(floor(R m_i)), and
    each node builds one Fraction, its new remaining radius.  Of x and -x
    only the one whose last nonzero coordinate is positive is visited.
    Each x is mapped back to v = U x; the reduction only keeps the tree
    small.  Each returned vector has its first nonzero coordinate positive.
    Results sorted by (norm, vector) for determinism.
    """
    n = len(U)
    bound = Fraction(bound)
    if n == 0 or bound < 0:
        return []
    lam, D, den = gso
    lam_cols = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    scales = [D[i] * D[i + 1] * den for i in range(n)]
    out = []
    v = [0] * n

    def rec(i, remaining, zero_above):
        if i < 0:
            if not zero_above:
                w = tuple([sum(u * x for u, x in zip(row, v)) for row in U])
                if next(x for x in w if x) < 0:
                    w = tuple([-x for x in w])
                out.append((w, bound - remaining))
            return
        c = sum(a * x for a, x in zip(lam_cols[i], v[i + 1 :]))
        m, d = scales[i], D[i + 1]
        p, q = remaining.numerator, remaining.denominator
        s = isqrt(p * m // q)
        # with every coordinate above zero, c = 0 and the range is symmetric
        for z in range(0 if zero_above else -((s + c) // d), (s - c) // d + 1):
            v[i] = z
            y = d * z + c
            rec(i - 1, Fraction(p * m - y * y * q, q * m), zero_above and z == 0)
        v[i] = 0

    rec(n - 1, bound, True)
    # rec refers to itself through its closure cell; emptying the cell frees
    # the enumeration state now instead of at the next full gc collection
    rec = None
    return sorted(out, key=lambda kv: (kv[1], kv[0]))
