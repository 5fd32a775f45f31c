"""Exact linear algebra over Fraction entries and integer matrices.

Matrices are lists of row lists.  Everything here is elementary but
exact: no floating point enters any routine, so callers can build
certified comparisons on top of the results.

Elimination runs on integer rows in one fraction-free Gauss-Jordan kernel
(Bareiss 1968), _eliminate, whose symmetric form is _ldl_scaled: a pivot p
at (r, c) sets every other row to (p * row - row[c] * W[r]) // p_prev, exact
since each entry is then a minor of the input.  A determinant needs the
same step below each pivot alone: _int_det is that forward pass, on a
copy of its rows.  Only final entries are Fractions.

Lattice reduction stays on the integers as well: _lll_from is the
integral LLL on the Gram-Schmidt data (lam, D, den) of a basis, given by
the integer rows whose columns are that basis.  A Lattice stores a basis
with its data, the _ldl_scaled data of den * G in the standard basis, and
every sweep starts from that pair, so nothing is eliminated.  The GSO of a
Kronecker product is read off its factors' GSOs (_kron_gso): a tensor
product starts its sweep from the product of its factors' reduced bases,
and stores the basis it ends with.
The final GSO goes to short_vectors_reduced, whose Fincke-Pohst
enumeration (_fincke_pohst) walks an explicit stack with integer centers,
isqrt ranges and a remaining radius kept as a reduced integer pair, and
builds one Fraction per returned vector, its norm.  The reduced Gram
matrix, den U^T G U on integers, is formed (_congruent) only where a
caller reads its entries.

No exterior power is eliminated or reduced: _compound_gso reads the
Gram-Schmidt profile of each den^k Lambda^k(G) off the GSO of G, through
the Laplace minors of its integer LDL factor, and _fincke_pohst enumerates
it as it stands; a basis changes the size of the tree, never the set of
vectors found.  Each minor is computed the first time the enumeration
reads it (_Minors), so a pruned enumeration computes only the entries on
its paths and their cofactors, and _compound_floors gives the least
Gram-Schmidt norm of each level, below which a level holds no vector.
The index tables of those minors and of the wedge rows depend only on
(n, k) and are built once per process on first use (_subset_table).
An exterior power as a lattice is the last level of one integer Laplace
tower, _compound_tower.  Positive definiteness is Sylvester's criterion
on _ldl_scaled.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]


class SingularMatrixError(ValueError):
    pass


def frac_rows(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def transpose(M: Sequence[Sequence]) -> list:
    return [list(col) for col in zip(*M)] if M else []


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> Matrix:
    Bt = transpose(B)
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def mat_vec(A: Sequence[Sequence], v: Sequence) -> Vector:
    return [sum(map(mul, row, v)) for row in A]


def _common_scaled(M: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """(den * M as integer rows, den) for den the lcm of all denominators.

    The lcm arguments go in as a list: a generator would build its argument
    tuple by resizing, and each resized tuple then joins the interpreter's
    free list of its final size, which keeps up to 2000 of them.  An
    integer M, the common case, is read off the numerators alone."""
    den = lcm(*[x.denominator for row in M for x in row])
    if den == 1:
        return [[x.numerator for x in row] for row in M], 1
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


def _int_det(W: Sequence[Sequence[int]]) -> int:
    """The determinant of the square integer rows W, which are left as they
    are, by a forward fraction-free Bareiss pass: each pivot p clears the
    entries below it alone, the rest of the matrix shrinking to the rows
    and columns after the pivot's, whose entries (p * x - a * y) // d are
    then minors of W (up to the order of its rows).  A zero pivot takes
    the first row below with a nonzero entry, and the sign of the exchange;
    a column with none gives 0."""
    A, d, sign = list(W), 1, 1
    while A:
        piv = next((i for i, row in enumerate(A) if row[0]), None)
        if piv is None:
            return 0
        if piv:
            A[0], A[piv] = A[piv], A[0]
            sign = -sign
        p, *head = A[0]
        A = [[(p * x - row[0] * y) // d for x, y in zip(row[1:], head)] for row in A[1:]]
        d = p
    return sign * d


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


class _SubsetTable(NamedTuple):
    """Index tables of the k-subsets of range(n) in lex order (k >= 1).

    subsets lists the k-subsets, and rows[a] = (I[0], index of I[1:] among
    the (k-1)-subsets) for the subset I at index a.  wedge[b] lists (J[t],
    index of J without J[t] among the (k-1)-subsets) for the subset J at
    index b, split into even and odd t: the Laplace terms of a minor on the
    column set J along one row, and the nonzero entries of the wedge row of
    J.  heads[m - 1][b] is the same split of the first m terms alone, so
    heads[k - 1] is wedge: the terms of a minor on rows I and columns J of
    a lower-triangular F along the row F[I[0]] when J has exactly m
    entries J[t] <= I[0], as a later term has F[I[0]][J[t]] = 0.
    contract[p] lists (j, b, (-1)^t) for every k-subset J at index b that
    is the (k-1)-subset at index p with j = J[t] put in: the terms of the
    contraction of a k-vector by that (k-1)-subset."""

    subsets: List[Tuple[int, ...]]
    rows: List[Tuple[int, int]]
    wedge: List[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]
    heads: List[List[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]]
    contract: List[List[Tuple[int, int, int]]]


@functools.lru_cache(maxsize=None)
def _subset_table(n: int, k: int) -> _SubsetTable:
    """The tables of (n, k), built on first use and kept for the process.
    Every index is taken from one list, so the tables share their int
    objects."""
    subsets = k_subsets(n, k)
    prev = {S: t for t, S in enumerate(k_subsets(n, k - 1))}
    index = list(range(max(len(subsets), len(prev))))
    drops = [[(J[t], index[prev[J[:t] + J[t + 1 :]]]) for t in range(k)] for J in subsets]
    heads = [[(d[0:m:2], d[1:m:2]) for d in drops] for m in range(1, k + 1)]
    rows = [(I[0], index[prev[I[1:]]]) for I in subsets]
    contract: List[List[Tuple[int, int, int]]] = [[] for _ in prev]
    for b, d in enumerate(drops):
        for t, (j, q) in enumerate(d):
            contract[q].append((j, index[b], -1 if t % 2 else 1))
    return _SubsetTable(subsets, rows, heads[-1], heads, contract)


def _compound_tower(M: Sequence[Sequence], top: int) -> Iterator[Tuple[int, List[List[int]], int]]:
    """(k, T_k, den^k) for k = 1, ..., min(top, n): T_k = den^k Lambda^k(M)
    as integer rows, the k x k minors of den * M on sorted index sets, with
    den the lcm of the denominators of M.

    Each level is built from the one before on integers: a level-k minor is
    the Laplace expansion along the first row of its row set, with the
    level-(k-1) minors as cofactors.  The compound of a symmetric M is
    symmetric at every level, so then each minor is taken once per
    unordered pair of index sets."""
    if top < 1 or not M:
        return
    A, den = _common_scaled(M)
    n = len(A)
    sym = is_symmetric(A)
    T = A
    yield 1, T, den
    for m in range(2, min(top, n) + 1):
        table = _subset_table(n, m)
        wedge = table.wedge
        N = len(wedge)
        level = [[0] * N for _ in range(N)]
        for a, (i0, below) in enumerate(table.rows):
            row, cof = A[i0], T[below]
            out = level[a]
            for b in range(a if sym else 0, N):
                even, odd = wedge[b]
                x = 0
                for j, c in even:
                    x += row[j] * cof[c]
                for j, c in odd:
                    x -= row[j] * cof[c]
                out[b] = x
                if sym:
                    level[b][a] = x
        T = level
        yield m, T, den**m


class _MinorRow(dict):
    """Row a of a level of _compound_gso: entry b, the minor of F on the
    rows I = I_a and the columns J = I_b, is computed the first time it is
    read and then kept.  A minor of the lower-triangular F is zero unless
    I dominates J (J[t] <= I[t] for every t).  Otherwise it is the Laplace
    expansion along the row F[I[0]], whose terms past the m entries J[t]
    <= I[0] vanish: heads[m - 1][b] of _subset_table, with the cofactors
    on the rows I[1:] read from the level below (F itself at level 1).
    Each cofactor's columns J without J[t], t < m, are dominated by I[1:],
    so the expansion reads no entry above the diagonal of F."""

    __slots__ = ("I", "row", "cof", "table")

    def __init__(self, I: Tuple[int, ...], row: List[int], cof, table: _SubsetTable):
        self.I, self.row, self.cof, self.table = I, row, cof, table

    def __missing__(self, b: int) -> int:
        I, J = self.I, self.table.subsets[b]
        i0 = I[0]
        m = 0
        for i, j in zip(I, J):
            if j > i:
                self[b] = 0
                return 0
            if j <= i0:
                m += 1
        even, odd = self.table.heads[m - 1][b]
        row, cof = self.row, self.cof
        x = 0
        for j, c in even:
            x += row[j] * cof[c]
        for j, c in odd:
            x -= row[j] * cof[c]
        self[b] = x
        return x


class _Minors(dict):
    """The minors Lambda^k(F) of one level of _compound_gso as rows by
    index, each row a _MinorRow made the first time it is read.  The
    length is the level's dimension, and the rows made so far are the
    keys."""

    __slots__ = ("F", "below", "table")

    def __init__(self, F: List[List[int]], below, table: _SubsetTable):
        self.F, self.below, self.table = F, below, table

    def __len__(self) -> int:
        return len(self.table.subsets)

    def __missing__(self, a: int) -> _MinorRow:
        i0, at = self.table.rows[a]
        row = self[a] = _MinorRow(self.table.subsets[a], self.F[i0], self.below[at], self.table)
        return row


def _compound_gso(gso: GSO, top: int) -> Iterator[Tuple[int, Profile]]:
    """(k, Gram-Schmidt profile of T_k) for k = 2, ..., min(top, n), read
    off the GSO of a Gram matrix G, with T_k = den^k Lambda^k(G) as in
    _compound_tower.

    Write den G = mu diag(d) mu^T, mu unit lower-triangular.  By
    Cauchy-Binet Lambda^k(den G) = Lambda^k(mu) Lambda^k(d) Lambda^k(mu)^T,
    and Lambda^k(mu) is unit lower-triangular on lex-ordered k-subsets
    (Horn and Johnson, Matrix Analysis, 0.8.1), so by the uniqueness of LDL
    this is the LDL of T_k.  In integers, with F the lower-triangular
    matrix that has lam below the diagonal and D[i+1] on it, mu =
    F diag(1 / D[j+1]), so for the k-subsets I_a, I_b

        Lambda^k(mu)[a][b] = Lambda^k(F)[a][b] / P[b],
        |b*_a|^2 = P[a] / Q[a],

    with P[a] and Q[a] the products of D[i+1] and of D[i] over i in I_a:
    the Profile (Lambda^k(F), P, P Q).  Its entries are products of k
    entries of the lattice's own GSO, where the lam and D of T_k itself
    would grow with the index.  P and P Q, the product of D[i] D[i+1] over
    I_a, are built level by level; the minors of F are a _Minors per
    level, whose entries are computed when the enumeration, or an entry of
    the level above, first reads them.  So a level that is never
    enumerated costs its P and P Q alone, and a pruned enumeration
    computes the entries on its paths and their cofactors."""
    lam, D, _den = gso
    n = len(lam)
    F = [row + [D[i + 1]] for i, row in enumerate(lam)]  # level 1 is F itself
    minors = F
    pivots = [D[i] * D[i + 1] for i in range(n)]
    P, PQ = D[1:], pivots  # at level 1
    for k in range(2, min(top, n) + 1):
        table = _subset_table(n, k)
        minors = _Minors(F, minors, table)
        P = [D[i0 + 1] * P[at] for i0, at in table.rows]
        PQ = [pivots[i0] * PQ[at] for i0, at in table.rows]
        yield k, Profile(minors, P, PQ)


def _compound_floors(D: Sequence[int], top: int) -> List[Tuple[int, int]]:
    """floors[k] = (num, dnm) for k = 0, ..., min(top, n), with num / dnm
    the least Gram-Schmidt norm of the basis of T_k that _compound_gso
    gives, for D the leading minors of den G (D[0] = 1).

    Those norms are the products P[a] / Q[a] of k distinct pivots
    D[i+1] / D[i], so the least is the product of the k least pivots.
    Every nonzero vector of a basis is at least as long as its shortest
    Gram-Schmidt vector, so T_k holds no nonzero vector of norm below the
    floor.  The pivots are ordered on integers, by D[i+1] / D[i] times
    the product of D[0], ..., D[n-1]."""
    every = prod(D[:-1])
    order = sorted(range(len(D) - 1), key=lambda i: D[i + 1] * (every // D[i]))
    floors = [(1, 1)]
    for i in order[:top]:
        num, dnm = floors[-1]
        floors.append((num * D[i + 1], dnm * D[i]))
    return floors


def is_symmetric(M: Sequence[Sequence]) -> bool:
    n = len(M)
    return all(len(row) == n for row in M) and all(
        M[i][j] == M[j][i] for i in range(n) for j in range(i)
    )


def _ldl_scaled(G: Sequence[Sequence]) -> Tuple[List[List[int]], List[int], int]:
    """The symmetric Bareiss loop of the positive definiteness test, over
    the integers.

    The lower triangle A of den * G, den the lcm of its denominators, is
    eliminated without row exchange: pivot k is the leading minor D[k+1] of
    den * G.  Returns (A, D, den) with D[0] = 1 and A[i][j] = D[j+1] L[i][j]
    for j <= i, where G = L diag(d) L^T, d_k = D[k+1] / (D[k] den).  Raises
    SingularMatrixError unless every pivot is positive."""
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
    w = [int(x) for x in v]
    g = gcd(*w)
    if g == 0:
        return w
    for x in w:
        if x:
            if x < 0:
                g = -g
            break
    return w if g == 1 else [x // g for x in w]


def hnf_rows(A: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[List[int]]]:
    """Canonical row-style Hermite form with the inverse of its transform.

    Returns (H, Uinv): H is echelon with positive pivots and the entries
    above each pivot reduced into [0, pivot), zero rows dropped, and Uinv
    is unimodular with A = Uinv [H; 0].  Each row operation on A is mirrored
    by the inverse column operation on Uinv (H. Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).  For A of full column rank
    k the first k columns of Uinv are a basis of the saturation of the
    column span of A, and the remaining ones complete it to a basis of
    Z^rows; the span is saturated iff H is the identity."""
    W = [row[:] for row in int_rows(A)]
    rows = len(W)
    Uinv = [[int(i == j) for j in range(rows)] for i in range(rows)]
    if not W:
        return [], Uinv

    def row_sub(r, t, q):  # W: row_r -= q row_t ; Uinv: col_t += q col_r
        W[r] = [a - q * b for a, b in zip(W[r], W[t])]
        for row in Uinv:
            row[t] += q * row[r]

    t = 0
    for c in range(len(W[0])):
        # gcd-eliminate below position t in column c
        while True:
            nz = [r for r in range(t, rows) if W[r][c] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(W[r][c]))
            W[t], W[r0] = W[r0], W[t]
            for row in Uinv:
                row[t], row[r0] = row[r0], row[t]
            if W[t][c] < 0:
                W[t] = [-x for x in W[t]]
                for row in Uinv:
                    row[t] = -row[t]
            done = True
            for r in range(t + 1, rows):
                if W[r][c] != 0:
                    row_sub(r, t, W[r][c] // W[t][c])
                    if W[r][c] != 0:
                        done = False
            if done:
                break
        if t < rows and W[t][c] != 0:
            for r in range(t):
                q = W[r][c] // W[t][c]
                if q:
                    row_sub(r, t, q)
            t += 1
            if t == rows:
                break
    return W[:t], Uinv


# ---------------------------------------------------------------------------
# lattice reduction on Gram matrices


class GSO(NamedTuple):
    """Gram-Schmidt data of a basis with Gram matrix G, over the integers.

    D[k] is the k-th leading principal minor of den * G (D[0] = 1) and
    lam[i][j] = D[j+1] mu_ij for j < i, so |b*_i|^2 = D[i+1] / (D[i] den)."""

    lam: List[List[int]]
    D: List[int]
    den: int


class Profile(NamedTuple):
    """A basis as the Fincke-Pohst enumeration reads it, over the integers:
    lam[i][j] = d[j] mu_ij for j < i (entries at j >= i are not read) and
    |b*_i|^2 = d[i]^2 / m[i].  The GSO of a basis is the Profile
    (lam, D[1:], D[i] D[i+1] den); _compound_gso gives those of the
    exterior powers, whose lam is a _Minors that computes an entry when
    it is first read.  The dimension is len(d)."""

    lam: List[List[int]]
    d: List[int]
    m: List[int]


def _congruent(A: Sequence[Sequence[int]], U: Sequence[Sequence[int]]) -> List[List[int]]:
    """U^T A U for integer rows, A symmetric: one entry of the upper
    triangle at a time, each mirrored below."""
    n = len(U)
    cols = transpose(U)
    Acols = [[sum(map(mul, arow, col)) for arow in A] for col in cols]
    out = [[0] * n for _ in range(n)]
    for i, col in enumerate(cols):
        row = out[i]
        for j in range(i, n):
            row[j] = out[j][i] = sum(map(mul, col, Acols[j]))
    return out


def _lll_from(gso: GSO, U: Sequence[Sequence[int]]) -> Tuple[List[List[int]], GSO]:
    """(U V, the GSO of the reduced basis) for the LLL reduction of the
    basis whose Gram-Schmidt data gso is, which is updated in place: U
    holds the integer rows whose columns are that basis, V is the
    unimodular transform from it to the reduced one, and V acts on U's
    columns as they go.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7).  It size-reduces when 2 |lam_kl| > D_{l+1} and
    swaps when 4 (D_{k+1} D_{k-1} + lam^2) < 3 D_k^2, the decisions of the
    rational sweep with mu = lam / D.  A basis that is already reduced
    gives U itself and its own GSO."""
    lam, D, den = gso
    n = len(lam)
    # U V is kept as its columns, so that a column operation is one list
    cols = transpose(U)

    # b_k -= q b_l for q = floor(mu_kl + 1/2); run when 2 |lam_kl| > D_{l+1}
    def size_reduce(k, l):
        d = D[l + 1]
        lk = lam[k]
        x = lk[l]
        q = (2 * x + d) // (2 * d)
        cols[k] = [a - q * b for a, b in zip(cols[k], cols[l])]
        lk[:l] = [a - q * b for a, b in zip(lk, lam[l])]
        lk[l] = x - q * d

    k = 1
    while k < n:
        if 2 * abs(lam[k][k - 1]) > D[k]:
            size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * (D[k + 1] * D[k - 1] + lk * lk) < 3 * D[k] * D[k]:
            # swap b_k and b_{k-1}: of the GSO only D_k and the entries of
            # lam in rows and columns k-1, k change
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            lam[k - 1], lam[k] = lam[k][: k - 1], lam[k - 1] + [lk]
            B = (D[k - 1] * D[k + 1] + lk * lk) // D[k]
            for row in lam[k + 1 :]:
                t = row[k]
                row[k] = (D[k + 1] * row[k - 1] - lk * t) // D[k]
                row[k - 1] = (B * t + lk * row[k]) // D[k + 1]
            D[k] = B
            k = max(k - 1, 1)
        else:
            row = lam[k]
            for l in range(k - 2, -1, -1):
                if 2 * abs(row[l]) > D[l + 1]:
                    size_reduce(k, l)
            k += 1
    return transpose(cols), GSO(lam, D, den)


def _kron_gso(g1: GSO, g2: GSO) -> GSO:
    """The GSO of the basis b_i (x) c_j, at index i n2 + j, whose scaled
    Gram matrix is kron(A1, A2), from the GSOs of A1 and A2 (den1 A1 and
    den2 A2 scaled; den = den1 den2), with no elimination.

    The LDL factor of a Kronecker product is the Kronecker product of the
    factors' LDL factors (Horn and Johnson, Topics in Matrix Analysis,
    4.2): mu[(i,j)][(k,l)] = mu1[i][k] mu2[j][l] and the pivots multiply.
    So, with Lf[i][k] = lam[i][k] below the diagonal and D[i+1] on it,

        D[t+1] = D[t] D1[i+1] D2[j+1] / (D1[i] D2[j])           (t = i n2 + j),
        lam[u][v] = D[v+1] L1[i][k] L2[j][l] / (D1[k+1] D2[l+1])  (v = k n2 + l),

    both exact divisions, as every entry of an integer GSO is an integer.
    lam[u][v] is zero unless k <= i and l <= j."""
    lam1, D1, den1 = g1
    lam2, D2, den2 = g2
    n2 = len(lam2)
    L1 = [[*row, D1[i + 1]] for i, row in enumerate(lam1)]
    L2 = [[*row, D2[j + 1]] for j, row in enumerate(lam2)]
    D = [1]
    for i in range(len(lam1)):
        for j in range(n2):
            D.append(D[-1] * D1[i + 1] * D2[j + 1] // (D1[i] * D2[j]))
    lam = []
    for i, row1 in enumerate(L1):
        for j, row2 in enumerate(L2):
            u = i * n2 + j
            row = [0] * u
            for k, a in enumerate(row1):
                if a:
                    v = k * n2
                    for l in range(j + 1 if k < i else j):
                        if row2[l]:
                            row[v + l] = D[v + l + 1] * a * row2[l] // (D1[k + 1] * D2[l + 1])
            lam.append(row)
    return GSO(lam, D, den1 * den2)


def _gso_divided(gso: GSO, g: int) -> GSO:
    """The GSO of the same basis for the scaled Gram matrix divided by g,
    g a divisor of den and of every entry: each leading minor D[k] is
    divided by g^k and lam[i][j] = D[j+1] mu_ij by g^(j+1), exactly, as
    the result is again the integer GSO of an integer matrix."""
    lam, D, den = gso
    return GSO(
        [[x // g ** (j + 1) for j, x in enumerate(row)] for row in lam],
        [x // g**k for k, x in enumerate(D)],
        den // g,
    )


def short_vectors_reduced(
    U: Sequence[Sequence[int]], gso: GSO, bound: Fraction
) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All nonzero v in Z^n with v^T G v <= bound, up to sign, given a
    reduction (U, gso) of G as _lll_from returns it, so that U^T G U is
    the reduced Gram matrix: _fincke_pohst on the Profile of gso."""
    lam, D, den = gso
    return _fincke_pohst(U, Profile(lam, D[1:], [D[i] * D[i + 1] * den for i in range(len(lam))]), bound)


def _fincke_pohst(
    U: Optional[Sequence[Sequence[int]]], basis: Profile, bound: Fraction
) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All nonzero v = U x with x^T Gred x <= bound, up to sign, for Gred
    the Gram matrix of the basis whose Profile is given; U = None stands
    for the identity, and nothing is mapped.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985) on integers: with the
    integer center c_i = sum_{j>i} lam_ji x_j and y_i = d_i x_i + c_i,
    x^T Gred x = sum_i y_i^2 / m_i.  So under a remaining radius p / q the
    range of x_i is |y_i| <= isqrt(floor(p m_i / q)), and the radius left
    below it is (p m_i - y_i^2 q) / (q m_i), kept as an integer pair in
    lowest terms.  The center sums over the nonzero coordinates above i
    alone, so lam[j][i] is read only for an x_j != 0 on the current path:
    a store such as _Minors computes no other entry.  Of x and -x only the
    one whose last nonzero coordinate is positive is visited.

    The tree is walked depth first, i = n - 1 down to 0 and each x_i
    upward, over per-level state instead of recursion, so its depth is not
    bounded by the interpreter's recursion limit; the leaves, level 0, run
    in one loop.  Only a returned vector builds a Fraction: its norm,
    bound less the radius left.  The basis changes only the size of the
    tree, never the set of vectors found.  Each returned vector has its
    first nonzero coordinate positive.  Results sorted by (norm, vector)
    for determinism.
    """
    lam, dd, mm = basis
    n = len(dd)
    if type(bound) is not int and type(bound) is not Fraction:
        bound = Fraction(bound)
    P, Q = bound.numerator, bound.denominator
    if n == 0 or P < 0:
        return []
    out = []
    v = [0] * n
    # per level: the next x_i and the last of its range, its center, the
    # radius num / dnm left at it, and the nonzero (j, x_j) above it
    nxt = [0] * n
    last = [0] * n
    cen = [0] * n
    num = [0] * n
    dnm = [0] * n
    above: List[Tuple[Tuple[int, int], ...]] = [()] * n
    i = n - 1
    num[i] = P
    dnm[i] = Q
    while True:
        nz = above[i]
        c = 0
        for j, x in nz:
            c += lam[j][i] * x
        p, q, m, d = num[i], dnm[i], mm[i], dd[i]
        s = isqrt(p * m // q)
        # with every coordinate above zero, c = 0 and the range is symmetric
        lo, hi = -((s + c) // d) if nz else 0, (s - c) // d
        if i and lo <= hi:
            nxt[i] = lo + 1
            last[i] = hi
            cen[i] = c
            z = lo
        else:
            if not i and lo <= hi:
                b, pm = q * m, p * m
                for z in range(lo, hi + 1):
                    if z or nz:
                        v[0] = z
                        y = d * z + c
                        w = tuple(v) if U is None else tuple([sum(map(mul, row, v)) for row in U])
                        for x in w:
                            if x:
                                break
                        if x < 0:
                            w = tuple([-x for x in w])
                        a, e = P * b - (pm - y * y * q) * Q, Q * b
                        whole, rem = divmod(a, e)  # an integral norm needs no gcd
                        out.append((w, Fraction(a, e) if rem else Fraction(whole)))
                v[0] = 0
            # climb to the nearest level above with a value left in its range
            while True:
                i += 1
                if i == n:
                    out.sort(key=lambda kv: (kv[1], kv[0]))
                    return out
                z = nxt[i]
                if z <= last[i]:
                    nxt[i] = z + 1
                    break
                v[i] = 0
        # descend from level i with x_i = z
        v[i] = z
        y = dd[i] * z + cen[i]
        m, q = mm[i], dnm[i]
        a, b = num[i] * m - y * y * q, q * m
        g = gcd(a, b)
        i -= 1
        num[i] = a // g
        dnm[i] = b // g
        above[i] = above[i + 1] + ((i + 1, z),) if z else above[i + 1]
