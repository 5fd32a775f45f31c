"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own algorithms: determinants by
cofactor expansion, Gauss-Jordan elimination over Fraction entries (the
library eliminates fraction-free on integers), LLL reduction and
Fincke-Pohst enumeration over Fraction Gram-Schmidt data (the library runs
both on an integer GSO), the recursive integer Fincke-Pohst with one
Fraction radius per node (the library walks an explicit stack and builds
Fractions only for the vectors it returns), the Fraction LDL factors of a Gram matrix (the
library keeps only the integer loop), the candidate pass of mu_max over
Fraction compounds built one exterior power at a time (the library walks
one integer compound tower per lattice) and without pruning (the library
bounds each rank by the best slope or the HN hull found so far), the
Laplace pattern of the subset tables by filtering all pairs (the library
generates it), decomposability of a k-vector by eliminating its wedge rows
(the library tests k contractions), short vectors by certified box
enumeration, and Hilbert-Mumford values by direct evaluation over a jump
grid, the scalar product of filtrations as a sum over a common compatible basis
(the library computes it from ranks alone), and the minimum-norm point of
a convex hull by scanning subsets (the library runs Wolfe's algorithm),
and the value of a tensor filtration at a point by a Fraction change of
coordinates (the library changes coordinates over the integers).  Greedy
extension of a span takes one Fraction rref per pick, and the Kempf seed
bases are built and inverted afresh for every point, each seed changing
the coordinates of the point afresh (the library reduces on one integer
echelon, builds point-independent seeds once and walks the seeds as a
tree that shares axis changes).  They are
slow and simple on purpose.

The compatible-basis calculus of filtrations (row-space sums and
intersections, common compatible bases, coordinates along them, assembly
from subquotient filtrations) lives here too: the library pairs filtrations
from ranks and never builds a common basis, so only the tests use it.  So
does the decimal rendering through a float that the library's exact
renderer must reproduce.

Sublattices have references of their own: saturation and the saturation
test by diagonalizing the basis with row and column pivoting (the library
reads both off one Hermite form with its transform), and the induced
metric of a sublattice as a Lattice whose Gram matrix is multiplied out in
Fractions (the library takes its determinant on integers).  The quotient
metric by a saturated sublattice, the basis completion it is taken along,
and the Harder-Narasimhan filtration by recursion on such quotients live
here as well: the library reads the filtration off the upper hull of the
least determinant at each rank, so it never forms a quotient.  The
canonical basis of a sublattice, the Hermite form of its columns, is here
too (the library builds it inside saturate), and so is the candidate
pass under radius rules that keep every tie, with no level skipped (the
library leaves out ties with a smaller rank and points on a chord of the
hull, and skips a level below its Gram-Schmidt floor).

Morphism heights are bisected over Fractions with a Fraction LDL at each
midpoint, and atanh is summed term by term in Fractions; the library runs
both on integers over one common denominator.  Log enclosures are built
without the library's cache and summed as Fraction intervals (the library
sums integer endpoints over one common denominator), and LogValues are
added and built through a dict of coefficients (the library merges sorted
terms).

Small matrix helpers that only the tests call sit here as well, as thin
wrappers over the library's integer kernels: identity, vec_dot, det,
inverse, the compound matrix, Sylvester's criterion, short vectors of a
Gram matrix, the LLL reduction of a Gram matrix from the standard basis
with its reduced Gram matrix (gram_lll), and the determinant and degree
of a sublattice.  So is the minimum of the Kempf functional over tuples
compatible with fixed bases (minimize_fixed_basis), which the library's
search builds from the same per-support minimum, and one round of
re-adapting the bases to a minimizer's flags (adaptation_round), which the
library's one-pass search no longer runs.  Other names only the tests
call sit here too: the Gram rows and the norm of a vector of a lattice,
the midpoint of an interval, the log enclosure of a rational (log_interval)
and the AlgValue square root of one, the trivial filtration, and the
Bogomolov sign test of one lattice rendered as a report (check_bogomolov;
the library runs the same evaluations in its campaign).

The sampled optimality checks of the Kempf minimizer run here as oracles:
the estimation inequality at random challenge tuples, the subquotient
inequality reduced_mu >= 0 at random block filtrations, and the
coordinate test in random block bases.  None of them is a certificate;
the library certifies the minimizer by one Levi witness instead, and the
tests check that these samplers never fail where it found one.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import isqrt
from operator import mul
from typing import NamedTuple, Sequence

from slopelab import exactnum
from slopelab import filtration as fil
from slopelab import gitstab as gs
from slopelab import harness
from slopelab import invariants
from slopelab import lattice as lat
from slopelab import linalg as la
from slopelab.exactnum import AlgValue, Interval, LogValue, Order, compare, factorize, log_of
from slopelab.lattice import Lattice, SubLattice
from slopelab.linalg import SingularMatrixError, solve_square


def kernel(M, ncols=None):
    """Canonical basis (rref rows) of {x : M x = 0} as row vectors."""
    if ncols is None:
        ncols = len(M[0]) if M else 0
    R, pivots = la.rref(M)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return la.rref(basis)[0] if basis else []


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def det(M):
    """Determinant of a rational matrix: each row scaled to integers and
    the library's Bareiss forward pass (_int_det)."""
    W, scales = la._scaled_rows(M)
    return Fraction(la._int_det(W), math.prod(scales))


def inverse(M):
    """The inverse of a rational matrix by the library's elimination of
    [M | I]; SingularMatrixError when M is singular."""
    return la._solve(M, identity(len(M)), "matrix is singular")


def compound_matrix(M, k):
    """k-th compound: entries are the k x k minors on sorted index sets,
    the last level of the library's _compound_tower(M, k) divided by den^k."""
    if k > len(M):
        return []
    T, scale = [[1]], 1  # level 0 is the empty minor, 1
    for _k, T, scale in la._compound_tower(M, k):
        pass
    sym = la.is_symmetric(M)
    C = []
    for a, row in enumerate(T):
        # on symmetric input the lower triangle shares the upper's Fractions
        head = [C[b][a] for b in range(a)] if sym else [Fraction(x, scale) for x in row[:a]]
        C.append(head + [Fraction(x, scale) for x in row[a:]])
    return C


def is_positive_definite(M):
    """Sylvester's criterion: M is symmetric and the library's _ldl_scaled
    finds every leading minor positive."""
    if not la.is_symmetric(M):
        return False
    try:
        la._ldl_scaled(M)
    except SingularMatrixError:
        return False
    return True


def short_vectors_gram(G, bound):
    """All nonzero v in Z^n with v^T G v <= bound, up to sign: G reduced
    by lll_sweep and enumerated by the library's short_vectors_reduced."""
    return la.short_vectors_reduced(*lll_sweep(G), bound)


def lll_sweep(G):
    """(U, gso) for the LLL reduction of G: the library's _lll_from on the
    unreduced data gso_of(G), from the standard basis."""
    return la._lll_from(gso_of(G), lat._identity(len(G)))


def gram_lll(G):
    """(Gred, U, gso): U is unimodular and U^T G U LLL-reduced, gso its
    Gram-Schmidt data over den, the lcm of the denominators of G, and Gred
    = den U^T G U as integer rows, formed by the library's _congruent.  An
    integer G gives Gred = U^T G U."""
    A, den = la._common_scaled(G)
    U, (lam, D, _one) = lll_sweep(A)
    return la._congruent(A, U), U, la.GSO(lam, D, den)


def sub_det(S):
    """det(B^T G B) for the basis B of S, multiplied out on the integer
    rows of den * G and divided by den^rank once."""
    return Fraction(lat._scaled_sub_det(S.ambient.rows, S.basis_rows), S.ambient.den**S.rank)


def sub_degree(S):
    """Degree of S with the metric induced from its ambient lattice."""
    return log_of(sub_det(S), Fraction(-1, 2))


def gram_rows(L):
    """The Gram matrix of L as Fraction rows (lists)."""
    return [list(row) for row in L.gram]


def norm_of(L, v):
    """v^T G v for the Gram matrix G of L, on its integer rows."""
    return Fraction(sum(map(mul, v, la.mat_vec(L.rows, v))), L.den)


def midpoint(iv):
    """The midpoint of an Interval."""
    return (iv.lo + iv.hi) / 2


def log_interval(q, bits):
    """Certified enclosure of log(q) for rational q > 0, width <= 2**-bits;
    that of an integer is read from the library's cache (_log_grid)."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log_interval needs a positive argument")
    if q.denominator == 1:
        return exactnum._dyadic(exactnum._log_grid(q.numerator, bits), bits + 1)
    return exactnum._log_enclosure(q, bits)


def sqrt_of(q):
    """The AlgValue sqrt(q) of a rational q >= 0."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt_of needs a nonnegative rational")
    if q == 0:
        return AlgValue.zero()
    return AlgValue(1, q)


def check_bogomolov(L, flag_budget=10, seed=0):
    """Sign test for flag line bundle degrees on one lattice: the report of
    the library's evaluations (harness._bogomolov), one outcome each.

    Semistable lattices must give a nonpositive degree for every
    enumerated flag and weight vector; unstable ones must expose a
    strictly positive value on the two-step witness flag built from the
    maximal destabilizing subbundle.
    """
    if L.rank > lat.EXACT_RANK_LIMIT:
        raise ValueError("rank exceeds the exact search limit")
    params = {"seed": seed, "flag_budget": flag_budget, "rank": L.rank}
    zero = LogValue.zero()
    inputs = L.to_json()
    outcomes = tuple(
        harness._outcome(
            i,
            verdict,
            value,
            zero,
            inputs,
            {"flag": [S.basis_rows for S in flag], "a": list(a), "expect": expect},
        )
        for i, (verdict, value, flag, a, expect) in enumerate(
            harness._bogomolov(L, lat.hn_filtration(L), flag_budget, seed)
        )
    )
    return harness.TrialReport("bogomolov", params, outcomes)


def minimize_fixed_basis(x, bases):
    """Exact minimum of the functional over tuples compatible with the
    given bases: the library's per-support minimum (gs._support_minimum)
    of the support of v_x in those bases, built on them (gs._build) when
    it destabilizes, and the all-trivial tuple with c = 0 otherwise."""
    if len(bases) != len(x.shape):
        raise ValueError("one basis per tensor factor required")
    for basis, r in zip(bases, x.shape):
        if len(basis.vectors) != r:
            raise ValueError("basis size does not match shape")
    support = gs._support(x, [b.change for b in bases])
    m = gs._support_minimum(x.shape, support)
    if m.parts is None:
        triv = fil.FiltrationTuple(tuple(trivial(r) for r in x.shape))
        return gs.MinimizationResult(triv, AlgValue.zero(), Fraction(0), tuple(bases), support)
    return gs._build(x.shape, bases, support, m)


def adaptation_round(x, M):
    """Whether one round of re-adapting the bases to the flags of the
    minimizer M lowers it: the support of v_x in M's adapted bases, its
    minimum (gs._support_minimum), and whether that minimum is strictly
    lower than M's value.  kempf_minimize once repeated this until it
    returned False."""
    support = gs._support(x, [B.change for B in M.adapted])
    return gs._support_minimum(x.shape, support).pnorm_sq > M.c.square


def trivial(dim):
    """The filtration of a space of dimension dim with one member, of
    weight zero."""
    return fil.Filtration(dim, (Fraction(0),), ())


def unit_lattice(rank):
    return Lattice.from_rows(identity(rank))


def coord_map(x):
    """The nonzero coordinates of a tensor point as a dict."""
    return dict(x.coords)


def is_trivial(F):
    """A filtration with one member, of weight zero."""
    return F.depth == 1 and F.jumps[0] == 0


def big_lambda(x, T):
    """The destabilization functional (sum E[F_i] - lambda(v_x))^2 / sum
    |F_i|^2 with the sign of its base; zero on all-trivial tuples and
    invariant under simultaneous dilation."""
    gs._check_shapes(x, T)
    denom_sq = sum((fil.norm_squared(F) for F in T.components), Fraction(0))
    if denom_sq == 0:
        return AlgValue.zero()
    num = sum((fil.expectation(F) for F in T.components), Fraction(0))
    num -= gs.tensor_lambda(x, T)
    if num == 0:
        return AlgValue.zero()
    return AlgValue(1 if num > 0 else -1, num * num / denom_sq)


def cofactor_det(M):
    n = len(M)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(M[0][0])
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [[M[i][t] for t in range(n) if t != j] for i in range(1, n)]
        total += sign * Fraction(M[0][j]) * cofactor_det(minor)
        sign = -sign
    return total


def bareiss_compound_matrix(M, k):
    """k-th compound with each minor a separate Bareiss determinant on
    den * M (one per unordered pair of index sets on symmetric input),
    divided by den^k."""
    A, den = la._common_scaled(M)
    subsets = la.k_subsets(len(M), k)
    sym = la.is_symmetric(A)
    C = [[Fraction(0)] * len(subsets) for _ in subsets]
    for a, I in enumerate(subsets):
        rows = [A[i] for i in I]
        for b in range(a if sym else 0, len(subsets)):
            C[a][b] = Fraction(la._int_det([[row[j] for j in subsets[b]] for row in rows]), den**k)
            if sym:
                C[b][a] = C[a][b]
    return C


def _frac_rows(M):
    return [[Fraction(x) for x in row] for row in M]


def fraction_det(M):
    """Determinant by Gaussian elimination over Fraction entries."""
    n = len(M)
    if n == 0:
        return Fraction(1)
    W = _frac_rows(M)
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if W[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            W[c], W[pivot] = W[pivot], W[c]
            result = -result
        result *= W[c][c]
        inv = 1 / W[c][c]
        for r in range(c + 1, n):
            if W[r][c] != 0:
                f = W[r][c] * inv
                W[r] = [a - f * b for a, b in zip(W[r], W[c])]
    return result


def _gauss_jordan_square(W, n, message):
    """Reduce the first n columns of the Fraction rows W to the identity."""
    for c in range(n):
        pivot = next((r for r in range(c, n) if W[r][c] != 0), None)
        if pivot is None:
            raise SingularMatrixError(message)
        W[c], W[pivot] = W[pivot], W[c]
        inv = 1 / W[c][c]
        W[c] = [a * inv for a in W[c]]
        for r in range(n):
            if r != c and W[r][c] != 0:
                f = W[r][c]
                W[r] = [a - f * b for a, b in zip(W[r], W[c])]
    return W


def fraction_inverse(M):
    n = len(M)
    W = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(_frac_rows(M))]
    return [row[n:] for row in _gauss_jordan_square(W, n, "matrix is singular")]


def fraction_solve_square(A, b):
    n = len(A)
    W = [row + [Fraction(x)] for row, x in zip(_frac_rows(A), b)]
    return [row[n] for row in _gauss_jordan_square(W, n, "system is singular")]


def fraction_rref(M):
    """Reduced row echelon form over Fraction entries, zero rows dropped."""
    if not M:
        return [], []
    W = _frac_rows(M)
    rows, cols = len(W), len(W[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if W[i][c] != 0), None)
        if pivot is None:
            continue
        W[r], W[pivot] = W[pivot], W[r]
        inv = 1 / W[r][c]
        W[r] = [a * inv for a in W[r]]
        for i in range(rows):
            if i != r and W[i][c] != 0:
                f = W[i][c]
                W[i] = [a - f * b for a, b in zip(W[i], W[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return W[:r], pivots


def fraction_ldl(G):
    """G = L D L^T by the Cholesky-Crout recurrence over Fraction entries,
    reading G[i][j] for i >= j only."""
    n = len(G)
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        dj = Fraction(G[j][j]) - sum(L[j][k] * L[j][k] * d[k] for k in range(j))
        if dj <= 0:
            raise SingularMatrixError("matrix is not positive definite")
        d[j] = dj
        for i in range(j + 1, n):
            s = Fraction(G[i][j]) - sum(L[i][k] * L[j][k] * d[k] for k in range(j))
            L[i][j] = s / dj
    return L, d


def ldl(G):
    """G = L D L^T with L unit lower triangular, D positive diagonal, read
    off la._ldl_scaled: d_k = D_{k+1} / (D_k den) and L[i][k] = A[i][k] /
    D_{k+1}.  Exact; raises SingularMatrixError when G is not positive
    definite.  The library keeps only the integer loop."""
    A, D, den = la._ldl_scaled(G)
    n = len(A)
    L = [[Fraction(A[i][j], D[j + 1]) if j < i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return L, [Fraction(D[k + 1], D[k] * den) for k in range(n)]


def fraction_gram_lll(G):
    """LLL with parameter 3/4 on the Gram matrix over Fraction entries:
    (U^T G U, U).  The Gram-Schmidt data start from fraction_ldl(G) and
    every size reduction and swap updates mu and |b*|^2 as rationals."""
    n = len(G)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 0:
        return [], U
    mu, Bv = fraction_ldl(G)

    def size_reduce(kk, ll):
        if abs(mu[kk][ll]) > Fraction(1, 2):
            q = (mu[kk][ll] + Fraction(1, 2)).__floor__()
            for row in U:
                row[kk] -= q * row[ll]
            for t in range(ll):
                mu[kk][t] -= q * mu[ll][t]
            mu[kk][ll] -= q

    kk = 1
    while kk < n:
        size_reduce(kk, kk - 1)
        if Bv[kk] < (Fraction(3, 4) - mu[kk][kk - 1] ** 2) * Bv[kk - 1]:
            for row in U:
                row[kk], row[kk - 1] = row[kk - 1], row[kk]
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
    Gred = [
        [sum(U[a][i] * Fraction(G[a][b]) * U[b][j] for a in range(n) for b in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return Gred, U


def fraction_short_vectors_reduced(Gred, U, bound):
    """Fincke-Pohst over Fraction entries: every nonzero U x, up to sign,
    with x^T Gred x <= bound, from fraction_ldl(Gred), with rational
    centers and ranges; sorted by (norm, vector)."""
    n = len(Gred)
    bound = Fraction(bound)
    if n == 0 or bound < 0:
        return []
    L, d = fraction_ldl(Gred)
    out = {}
    v = [0] * n

    def int_range(c, cap):
        # integers z with (z + c)^2 <= cap
        if cap < 0:
            return range(0)
        s = Fraction(isqrt(cap.numerator * cap.denominator) + 1, cap.denominator)
        lo = (-c - s).__ceil__()
        hi = (-c + s).__floor__()
        while lo <= hi and (lo + c) ** 2 > cap:
            lo += 1
        while hi >= lo and (hi + c) ** 2 > cap:
            hi -= 1
        return range(lo, hi + 1)

    def rec(i, remaining):
        if i < 0:
            if any(v):
                w = tuple(sum(u * x for u, x in zip(row, v)) for row in U)
                for x in w:
                    if x != 0:
                        if x < 0:
                            w = tuple(-y for y in w)
                        break
                out.setdefault(w, bound - remaining)
            return
        c = sum(L[j][i] * v[j] for j in range(i + 1, n))
        for z in int_range(c, remaining / d[i]):
            v[i] = z
            rec(i - 1, remaining - d[i] * (z + c) ** 2)
        v[i] = 0

    rec(n - 1, bound)
    return sorted(out.items(), key=lambda kv: (kv[1], kv[0]))


def recursive_fincke_pohst(U, basis, bound):
    """(la._fincke_pohst(U, basis, bound), its node count), from the
    enumeration as the library ran it before it walked an explicit stack:
    one recursive call per node, with the remaining radius of each node
    below the root built as a Fraction.  The nodes are the calls below the
    root, each interior level entered and each leaf; the recursion depth
    is the dimension, so it stops at the interpreter's recursion limit."""
    lam, dd, mm = basis
    n = len(lam)
    bound = Fraction(bound)
    if n == 0 or bound < 0:
        return [], 0
    out = []
    v = [0] * n
    nodes = [0]

    def rec(i, remaining, nonzero):
        if i < 0:
            if nonzero:
                w = tuple(v) if U is None else tuple([sum(u * x for u, x in zip(row, v)) for row in U])
                if next(x for x in w if x) < 0:
                    w = tuple([-x for x in w])
                out.append((w, bound - remaining))
            return
        c = sum(lam[j][i] * x for j, x in nonzero)
        m, d = mm[i], dd[i]
        p, q = remaining.numerator, remaining.denominator
        s = isqrt(p * m // q)
        for z in range(-((s + c) // d) if nonzero else 0, (s - c) // d + 1):
            v[i] = z
            y = d * z + c
            nodes[0] += 1
            rec(i - 1, Fraction(p * m - y * y * q, q * m), nonzero + [(i, z)] if z else nonzero)
        v[i] = 0

    rec(n - 1, bound, [])
    return sorted(out, key=lambda kv: (kv[1], kv[0])), nodes[0]


def isqrt_fraction_floor(q):
    """The largest integer n with n*n <= q, for a rational q >= 0."""
    if q < 0:
        raise ValueError("needs a nonnegative rational")
    n = isqrt(q.numerator * q.denominator) // q.denominator
    while (n + 1) * (n + 1) <= q:
        n += 1
    while n * n > q:
        n -= 1
    return Fraction(n)


def mat_eq(A, B):
    return len(A) == len(B) and all(list(r) == list(s) for r, s in zip(A, B))


def wedge_of_columns(B, k):
    """Pluecker coordinates of the wedge of the k columns of B (r x k),
    as cofactor-expanded k x k minors in lexicographic row order."""
    return [
        cofactor_det([[B[i][j] for j in range(k)] for i in rows])
        for rows in combinations(range(len(B)), k)
    ]


def naive_inverse_entry(M, i, j):
    """(i, j) entry of M^-1 via cofactors (used for box bounds)."""
    n = len(M)
    minor = [[M[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
    return (-1) ** (i + j) * cofactor_det(minor) / cofactor_det(M)


def box_short_vectors(G, bound):
    """All nonzero v (up to sign) with v^T G v <= bound, by box search.

    Uses the Cauchy-Schwarz bound v_i^2 <= (G^-1)_ii * (v^T G v), which
    is exact, so the box provably contains every solution.
    """
    n = len(G)
    bound = Fraction(bound)
    radii = []
    for i in range(n):
        gii = naive_inverse_entry(G, i, i)
        cap = gii * bound
        m = 0
        while (m + 1) * (m + 1) <= cap:
            m += 1
        radii.append(m)
    found = {}
    for v in product(*[range(-m, m + 1) for m in radii]):
        if not any(v):
            continue
        norm = sum(
            Fraction(G[i][j]) * v[i] * v[j] for i in range(n) for j in range(n)
        )
        if norm <= bound:
            w = v
            for x in w:
                if x != 0:
                    if x < 0:
                        w = tuple(-y for y in w)
                    break
            found[w] = norm
    return dict(sorted(found.items(), key=lambda kv: (kv[1], kv[0])))


def random_spd_matrix(rng, n, bound=5):
    """Random positive definite Gram matrix B^T B with invertible B."""
    while True:
        B = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(n)]
        if fraction_det(B) != 0:
            break
    return [
        [Fraction(sum(B[k][i] * B[k][j] for k in range(n))) for j in range(n)]
        for i in range(n)
    ]


def random_unimodular(rng, n, steps=12):
    """Product of elementary integer operations applied to the identity."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randrange(-3, 4)
        for r in range(n):
            U[r][i] += q * U[r][j]
    if rng.random() < 0.5 and n > 1:
        for r in range(n):
            U[r][0], U[r][1] = U[r][1], U[r][0]
    return U


def int_diagonalize(B):
    """Diagonalize an integer matrix by unimodular ops on both sides.

    Returns (Uinv, d) with B * V = Uinv * D for some unimodular V, where
    D is diagonal with entries d (nonzero entries first).  Columns of
    Uinv are a Z-basis of Z^r adapted to the column span of B: the first
    ``#nonzero(d)`` columns span the saturation of the span, and the
    remaining ones complete it to a basis of the ambient lattice.
    """
    W = [row[:] for row in la.int_rows(B)]
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


def canonical(S):
    """S with the canonical basis of its column span: the columns of the
    Hermite form of its basis columns, as lat.saturate gives a
    saturation."""
    H = la.hnf_rows(la.transpose(S.basis_rows))[0]
    return SubLattice(S.ambient, tuple(zip(*H)))


def diagonal_saturate(S):
    """Saturation of S from the first columns of int_diagonalize's Uinv,
    with canonical HNF basis."""
    Uinv, d = int_diagonalize(S.basis_rows)
    cols = [[Uinv[i][j] for i in range(S.ambient.rank)] for j in range(len(d))]
    return canonical(SubLattice.from_columns(S.ambient, cols))


def diagonal_is_saturated(S):
    return all(x == 1 for x in int_diagonalize(S.basis_rows)[1])


def sub_bundle(S):
    """S with the metric induced from its ambient lattice: the Gram matrix
    B^T G B of its basis B, multiplied out in Fractions."""
    B = S.basis_rows
    G = gram_rows(S.ambient)
    return Lattice.from_rows(la.mat_mul(la.transpose(B), la.mat_mul(G, B)))


class NotSaturatedError(ValueError):
    pass


def _saturated_transform(S):
    """Uinv of la.hnf_rows(B) for the basis B of S when S is saturated,
    i.e. when H is the identity, so that B is the first k columns of the
    unimodular Uinv; None otherwise."""
    H, Uinv = la.hnf_rows(S.basis_rows)
    k = S.rank
    return Uinv if H == [[int(i == j) for j in range(k)] for i in range(k)] else None


def basis_completion(S):
    """Integer columns C with [basis | C] unimodular; needs S saturated."""
    Uinv = _saturated_transform(S)
    if Uinv is None:
        raise NotSaturatedError("only saturated sublattices admit a completion")
    return [row[S.rank :] for row in Uinv]


def quotient_bundle(S):
    """Quotient metric on ambient/S (orthogonal projection away from S).

    In the basis Uinv = [B | C] of the ambient lattice the Gram matrix
    splits into blocks [[A, X], [X^T, D]], and the quotient Gram is the
    Schur complement D - X^T A^-1 X, the inverse of the trailing block of
    the inverse Gram."""
    Uinv = _saturated_transform(S)
    if Uinv is None:
        raise NotSaturatedError("quotient by a non-saturated sublattice")
    k = S.rank
    if k == S.ambient.rank:
        return Lattice(0, ())
    inv = inverse(la.mat_mul(la.transpose(Uinv), la.mat_mul(gram_rows(S.ambient), Uinv)))
    return Lattice.from_rows(inverse([row[k:] for row in inv[k:]]))


def saturated_from_rational_rows(L, rows):
    """The saturation of the span of rational rows, each first scaled to
    the primitive integer vector of its direction."""
    prim = [la.primitive_vector(row) for row in la._scaled_rows(rows)[0]]
    return lat.saturate(SubLattice.from_columns(L, prim))


def fraction_rank_candidates(L, Gred, U, shortest):
    """lat._rank_candidates with each exterior power built on its own by
    compound_matrix, as Fractions, and enumerated with its norms as they
    come.  Gred is den U^T G U, as gram_lll returns it, so the norm of a
    rank-k vector is den^k det S, the determinant the library lists; the
    rank-one norms of ``shortest``, norms of G, are multiplied by den.
    Each rank k is enumerated within C[0][0], the leading k x k minor of
    Gred, the realized cap of the library's pass."""
    r = L.rank
    den = la._common_scaled(gram_rows(L))[1]
    found = [(1, norm * den, [list(v)]) for v, norm in shortest if r > 1 and math.gcd(*v) == 1]
    for k in range(2, r):
        C = compound_matrix(Gred, k)
        for w, norm in short_vectors_gram(C, C[0][0]):
            ker = lat._decomposable_kernel(w, r, k) if math.gcd(*w) == 1 else None
            if ker is not None:
                found.append((k, norm, la.mat_mul(ker, la.transpose(U))))
    found.append((r, det(Gred), [[int(i == j) for j in range(r)] for i in range(r)]))
    return found


def elimination_decomposable_kernel(w, r, k):
    """lat._decomposable_kernel by eliminating the wedge rows, as the
    library did before it tested contractions: the kernel of x -> x /\\ w,
    one row per (k+1)-subset, has dimension k iff w is decomposable, and
    is read off d * rref.  Returned as primitive integer rows, or None."""
    W = []
    for even, odd in la._subset_table(r, k + 1).wedge:
        row = [0] * r
        for j, t in even:
            row[j] = w[t]
        for j, t in odd:
            row[j] = -w[t]
        W.append(row)
    rank, pivots, d, _sign = la._eliminate(W, r)
    if r - rank != k:
        return None
    ker = []
    for f in [c for c in range(r) if c not in pivots]:
        v = [0] * r
        v[f] = d
        for i, p in enumerate(pivots):
            v[p] = -W[i][f]
        ker.append(la.primitive_vector(v))
    return ker


def gso_of(G):
    """The library's integer Gram-Schmidt data of G itself, unreduced,
    from its symmetric Bareiss loop."""
    A, D, den = la._ldl_scaled(G)
    return la.GSO([row[:i] for i, row in enumerate(A)], D, den)


def _root_floor(x, j):
    """The largest y >= 0 with y^j <= x, by bisection between 0 and
    2^(bits(x) / j + 1)."""
    lo, hi = 0, 2 ** (x.bit_length() // j + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**j <= x else (lo, mid)
    return lo


def inclusive_steepest_radius(k, least):
    """lat._steepest_radius with every tie kept: every rank-k norm N at
    least as steep as a realized rank-j norm X, N^j <= X^k, whether j is
    below k or above it."""
    return min(_root_floor(X**k, j) for j, X in least.items())


def inclusive_hull_radius(k, least):
    """lat._hull_radius with every point on a chord kept: every rank-k
    norm N on or above each chord from (i, X) to (l, Y), i < k < l, of the
    realized points and the origin, N^(l-i) <= X^(l-k) Y^(k-i)."""
    points = [(0, 1), *least.items()]
    return min(
        _root_floor(X ** (l - k) * Y ** (k - i), l - i) for i, X in points if i < k for l, Y in points if l > k
    )


def inclusive_rank_candidates(L, U, gso, shortest, radius):
    """lat._rank_candidates as it ran before ties were left out: under the
    inclusive rules above, each rank k strictly between 1 and r is
    enumerated within min(gso.D[k], radius(k, least)), the cap inclusive
    too, with least the least determinant found at each rank so far, and
    no level is skipped by a floor.  Determinants are the integers den^k
    det S; that of rank r is den^r det G, by elimination."""
    r, D, den = L.rank, gso.D, gso.den
    found = [(1, int(norm * den), [list(v)]) for v, norm in shortest if r > 1 and math.gcd(*v) == 1]
    least = {r: D[r], **({1: found[0][1]} if found else {})}
    if r > 2:
        for k, level in la._compound_gso(gso, r - 1):
            for w, norm in la._fincke_pohst(None, level, min(D[k], radius(k, least))):
                ker = lat._decomposable_kernel(w, r, k) if math.gcd(*w) == 1 else None
                if ker is not None:
                    least.setdefault(k, int(norm))
                    found.append((k, int(norm), la.mat_mul(ker, la.transpose(U))))
    found.append((r, int(det(L.gram) * den**r), [[int(i == j) for j in range(r)] for i in range(r)]))
    return found


def unpruned_rank_candidates(L, U, gso, shortest, radius=None):
    """lat._rank_candidates with every rank strictly between 1 and r
    enumerated within its realized radius gso.D[k] alone, and no rule
    (radius is ignored, so this can stand in for the library's pass) and
    no floor: the pass before each rank was pruned by the best slope or
    the HN hull, without its compound LLL sweeps, and before a level
    could be skipped.  Every least determinant and every tie is listed at
    every rank.  Determinants are den^k det S, as the library lists them;
    that of rank r is den^r det G, by elimination."""
    return inclusive_rank_candidates(L, U, gso, shortest, lambda k, least: math.inf)


def filtered_laplace(n, k):
    """The Laplace pattern of the k-subsets of range(n) by filtering: for
    each I in lex order, one (b, even, odd) per k-subset J at index b that
    I dominates (J[t] <= I[t] for all t), with the even and odd terms
    (J[t], index of J without J[t]) whose row entry F[I[0]][J[t]] and
    cofactor on rows I[1:] lie in the lower-triangular pattern.  All pairs
    and all terms are tested; the library generates the pattern instead."""
    subsets = la.k_subsets(n, k)
    below = la.k_subsets(n, k - 1)
    prev = {S: t for t, S in enumerate(below)}

    def dominates(I, J):
        return all(j <= i for i, j in zip(I, J))

    out = []
    for I in subsets:
        entries = []
        for b, J in enumerate(subsets):
            if dominates(I, J):
                terms = [(t, (J[t], prev[J[:t] + J[t + 1 :]])) for t in range(k)]
                kept = [(t, term) for t, term in terms if term[0] <= I[0] and dominates(I[1:], below[term[1]])]
                entries.append((b, [term for t, term in kept if t % 2 == 0], [term for t, term in kept if t % 2]))
        out.append(entries)
    return out


def recursive_hn_filtration(L):
    """HN filtration by recursion on quotients: the first step saturates the
    sum of all sublattices of maximal slope (compared as LogValues), the
    rest is the filtration of the quotient metric, lifted back along a
    completion of the step's basis."""

    def build(Q):
        Gred, U, gso = gram_lll(gram_rows(Q))
        candidates = unpruned_rank_candidates(Q, U, gso, lat._shortest_reduced(U, gso))
        slopes = [lat._slope_of_det(Fraction(d, gso.den**k), k) for k, d, _cols in candidates]
        best = slopes[0]
        for val in slopes:
            if compare(val, best) is Order.GT:
                best = val
        stacked = []
        G = la._common_scaled(Q.gram)[0]
        for c, val in zip(candidates, slopes):
            if val == best:
                stacked.extend(la.transpose(lat._saturated(Q, c).basis_rows))
        des = saturated_from_rational_rows(
            Q, la.rref([[Fraction(x) for x in row] for row in stacked])[0]
        )
        if des.rank == Q.rank:
            return [[[int(i == j) for j in range(Q.rank)] for i in range(Q.rank)]]
        C = basis_completion(des)
        chain = [des.basis_rows]
        for member in build(quotient_bundle(des)):
            lifted_cols = la.transpose(des.basis_rows)
            for col in la.transpose(member):
                lifted_cols.append(la.mat_vec(C, col))
            chain.append(la.transpose([[int(x) for x in col] for col in lifted_cols]))
        return chain

    chain = tuple(
        canonical(SubLattice(L, tuple(tuple(int(x) for x in row) for row in B)))
        for B in build(L)
    )
    slopes = []
    prev_deg, prev_rank = LogValue.zero(), 0
    for S in chain:
        deg = sub_degree(S)
        slopes.append((deg - prev_deg) / (S.rank - prev_rank))
        prev_deg, prev_rank = deg, S.rank
    return lat.HNResult(chain, tuple(slopes))


def wedge_square_gram(G):
    """Gram of the second wedge power, entries as 2x2 minors."""
    n = len(G)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for a, b in pairs:
        row = []
        for c, d in pairs:
            row.append(
                Fraction(G[a][c]) * Fraction(G[b][d])
                - Fraction(G[a][d]) * Fraction(G[b][c])
            )
        out.append(row)
    return out


def best_slope_witness_det(G):
    """(k, det) whose k-th root of det is minimal, for rank <= 3.

    Enumerates every sublattice determinant directly: rank one through
    shortest vectors, rank two (in ambient dimension three) through the
    wedge-square metric where every vector is a wedge, and the full rank
    through the determinant.  Root comparison d^(1/k) stays in exact
    arithmetic via cross powers.  Ties prefer the smaller rank.
    """
    r = len(G)
    assert 1 <= r <= 3
    per_rank = {}
    b1 = min(Fraction(G[i][i]) for i in range(r))
    per_rank[1] = min(box_short_vectors(G, b1).values())
    if r == 3:
        W = wedge_square_gram(G)
        b2 = min(W[i][i] for i in range(3))
        per_rank[2] = min(box_short_vectors(W, b2).values())
    if r >= 2:
        per_rank[r] = cofactor_det(G)
    best_k, best_d = 1, per_rank[1]
    for k in sorted(per_rank):
        d = per_rank[k]
        if d**best_k < best_d**k:  # d^(1/k) < best_d^(1/best_k)
            best_k, best_d = k, d
    return best_k, best_d


def _echelon(rows):
    W = [[Fraction(x) for x in row] for row in rows]
    out = []
    for row in W:
        cur = list(row)
        for done in out:
            lead = next((j for j, x in enumerate(done) if x != 0), None)
            if lead is not None and cur[lead] != 0:
                f = cur[lead] / done[lead]
                cur = [a - f * b for a, b in zip(cur, done)]
        if any(x != 0 for x in cur):
            out.append(cur)
    return out


def _extend_rows_to_square(rows, r):
    out = _echelon(rows)
    for k in range(r):
        unit = [Fraction(int(j == k)) for j in range(r)]
        probe = _echelon(out + [unit])
        if len(probe) > len(out):
            out.append(unit)
    return out


def oracle_bases(shape, coords):
    """Per-axis basis options: coordinate basis plus extensions of the
    echelonized slice span of the point (and its reversal)."""
    per_axis = []
    for axis, r in enumerate(shape):
        slices = {}
        for idx, val in coords.items():
            rest = tuple(j for t, j in enumerate(idx) if t != axis)
            col = slices.setdefault(rest, [Fraction(0)] * r)
            col[idx[axis]] = Fraction(val)
        ident = [[Fraction(int(a == b)) for b in range(r)] for a in range(r)]
        options = [ident]
        ech = _extend_rows_to_square(list(slices.values()), r)
        if ech != ident:
            options.append(ech)
            options.append(list(reversed(ech)))
        per_axis.append(options)
    return per_axis


def _cmp_signed_sqrt(a, b):
    """Compare sign_a*sqrt(q_a) with sign_b*sqrt(q_b) exactly."""
    (sa, qa), (sb, qb) = a, b
    if sa != sb:
        return -1 if sa < sb else 1
    if qa == qb:
        return 0
    mag = -1 if qa < qb else 1
    return mag if sa >= 0 else -mag


def grid_min_lambda(shape, coords, grid=range(-3, 4)):
    """Minimum of the normalized destabilization value over all integer
    jump vectors from the grid across the oracle basis family.

    Returns (sign, square) representing sign*sqrt(square).  Direct
    formula evaluation: (sum of means - min support sum)/sqrt(weighted
    norm); no library calls.
    """
    n = len(shape)
    total_dim = 1
    for r in shape:
        total_dim *= r
    flat = [Fraction(0)] * total_dim
    for idx, val in coords.items():
        pos = 0
        for j, r in zip(idx, shape):
            pos = pos * r + j
        flat[pos] = Fraction(val)

    best = (0, Fraction(0))  # the all-trivial tuple gives 0
    for bases in product(*oracle_bases(shape, coords)):
        # coordinates of the point in the product basis, one axis at a time
        vec = list(flat)
        for axis, basis in enumerate(bases):
            Bcols = [[basis[t][row] for t in range(shape[axis])] for row in range(shape[axis])]
            inv_rows = []
            for k in range(shape[axis]):
                unit = [Fraction(int(i == k)) for i in range(shape[axis])]
                inv_rows.append(fraction_solve_square(Bcols, unit))
            inv = [[inv_rows[j][i] for j in range(shape[axis])] for i in range(shape[axis])]
            stride = 1
            for r in shape[axis + 1:]:
                stride *= r
            r = shape[axis]
            out = [Fraction(0)] * total_dim
            for pos, v in enumerate(vec):
                if v == 0:
                    continue
                j = (pos // stride) % r
                base = pos - j * stride
                for jp in range(r):
                    if inv[jp][j]:
                        out[base + jp * stride] += inv[jp][j] * v
            vec = out
        support = []
        for pos, v in enumerate(vec):
            if v == 0:
                continue
            idx = []
            rest = pos
            for r in reversed(shape):
                rest, j = divmod(rest, r)
                idx.append(j)
            support.append(tuple(reversed(idx)))
        for y in product(*(list(grid) for r in shape for _ in range(r))):
            parts = []
            at = 0
            for r in shape:
                parts.append(y[at:at + r])
                at += r
            den = sum(Fraction(sum(v * v for v in part), r) for part, r in zip(parts, shape))
            if den == 0:
                continue
            num = sum(Fraction(sum(part), r) for part, r in zip(parts, shape))
            num -= min(sum(parts[i][s[i]] for i in range(n)) for s in support)
            cand = (0, Fraction(0)) if num == 0 else (
                1 if num > 0 else -1,
                Fraction(num * num, 1) / den,
            )
            if _cmp_signed_sqrt(cand, best) < 0:
                best = cand
    return best


def perm_sign(perm):
    """Parity via cycle decomposition."""
    seen = [False] * len(perm)
    sign = 1
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        t = s
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def composed_det_value(points, alphas, sigma, ranks):
    """Evaluate the permuted determinant contraction on a product of
    copies, expanding the full product tensor with no early exits.

    points[j] is a dict index->Fraction for copy j; alphas[j] its
    exponent vector; sigma[i] the slot permutation of factor i.
    """
    from itertools import permutations

    n = len(ranks)
    tables = [
        {p: perm_sign(p) for p in permutations(range(r))} for r in ranks
    ]
    total = Fraction(0)
    for pick in product(*[list(p.items()) for p in points]):
        coeff = Fraction(1)
        per_factor = [[] for _ in range(n)]
        for (idx, val), alpha in zip(pick, alphas):
            coeff *= val
            pos = 0
            for i in range(n):
                for _ in range(alpha[i]):
                    per_factor[i].append(idx[pos])
                    pos += 1
        term = coeff
        for i in range(n):
            seq = tuple(per_factor[i][sigma[i][t]] for t in range(len(sigma[i])))
            r = ranks[i]
            for k in range(0, len(seq), r):
                term *= tables[i].get(seq[k : k + r], 0)
        total += term
    return total


def witness_exists_all_perms(point_map, shape, b, m, D_max):
    """Existence of a nonvanishing contraction by scanning every slot
    permutation (no coset pruning), for the one-slot-per-factor case."""
    from itertools import permutations

    n = len(shape)
    if any(m != b[i] * shape[i] for i in range(n)):
        return False
    for D in range(1, D_max + 1):
        cnt = m * D
        points = [point_map] * cnt
        alphas = [(1,) * n] * cnt
        options = [list(permutations(range(cnt))) for _ in range(n)]
        for sig in product(*options):
            if composed_det_value(points, alphas, sig, shape) != 0:
                return True
    return False


def sum_row_spaces(A, B):
    return la.rref(list(A) + list(B))[0]


def intersect_row_spaces(A, B):
    """Canonical basis of rowspace(A) /\\ rowspace(B).

    A vector in the intersection is y·A = z·B; the pairs (y, z) form the
    kernel of [A^T | -B^T].
    """
    A = la.rref(A)[0]
    B = la.rref(B)[0]
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
    return la.rref(vecs)[0] if vecs else []


def common_compatible_basis(F, G, rng=None):
    """Basis compatible with both flags at once.

    Works cell by cell on the intersections T_ij = V_i meet W_j: by
    modularity T_{i+1,j} + T_{i,j+1} sits inside T_ij with codimension
    equal to the cell count, and any complement basis works, so choices
    stay local.  Deterministic by default; an rng mixes each cell's
    candidate rows (the result is still verified compatible).
    """
    if F.dim != G.dim:
        raise ValueError("dimension mismatch")
    inter = {}
    for i in range(F.depth + 1):
        for j in range(G.depth + 1):
            inter[(i, j)] = intersect_row_spaces(F.member_rows(i), G.member_rows(j))
    chosen = []
    cells = sorted(
        ((i, j) for i in range(F.depth) for j in range(G.depth)),
        key=lambda ij: (-(ij[0] + ij[1]), -ij[0]),
    )
    for i, j in cells:
        target = inter[(i, j)]
        below = sum_row_spaces(inter[(i + 1, j)], inter[(i, j + 1)])
        count = len(target) - len(below)
        if count == 0:
            continue
        cands = [list(r) for r in target]
        if rng is not None:
            mixed = None
            while mixed is None:
                M = [
                    [Fraction(rng.randrange(-2, 3)) for _ in range(len(cands))]
                    for _ in range(len(cands))
                ]
                if det(M) != 0:
                    mixed = la.mat_mul(M, cands)
            cands = mixed
        picked = fil._extend(below, cands)
        assert len(picked) == count
        chosen.extend(picked)
    basis = fil.CompatibleBasis(fil._freeze(chosen))
    assert is_compatible(F, basis) and is_compatible(G, basis)
    return basis


def is_compatible(F, basis):
    if len(basis.vectors) != F.dim:
        return False
    for i in range(1, F.depth):
        rows = F.flag[i - 1]
        piv = fil._pivots(rows)
        inside = sum(
            1 for v in basis.vectors if la.row_space_contains(rows, piv, list(v))
        )
        if inside != F.member_dim(i):
            return False
    return True


def coordinates(F, basis):
    if not is_compatible(F, basis):
        raise ValueError("basis is not compatible with the filtration")
    return tuple(fil.lambda_of(F, v) for v in basis.vectors)


def from_coordinates(basis, values):
    return fil.from_weighted_basis([list(v) for v in basis.vectors], values)


def assemble_from_subquotients(F, blocks):
    """Filtration on the whole space induced by filtrations on the
    successive subquotients V_j / V_{j+1} of F.

    Block j must be expressed in the coordinates of the adapted basis
    vectors of F at level j (see fil.adapted_basis; vectors at jump value
    F.jumps[j] project to a basis of the subquotient).  The expectation
    and the pairing against F then satisfy exact weighted-average
    identities, asserted here.
    """
    if len(blocks) != F.depth:
        raise ValueError("need exactly one block per flag step")
    mults = F.multiplicities()
    by_level = [[] for _ in range(F.depth)]
    for vec, w in fil.adapted_basis(F):
        by_level[F.jumps.index(w)].append(vec)
    vecs, ws = [], []
    for j, block in enumerate(blocks):
        if block.dim != mults[j]:
            raise ValueError("block dimension must match the subquotient rank")
        level = by_level[j]
        for u, w in fil.adapted_basis(block):
            lifted = [Fraction(0)] * F.dim
            for t, coef in enumerate(u):
                for c in range(F.dim):
                    lifted[c] += coef * level[t][c]
            vecs.append(lifted)
            ws.append(w)
    G = fil.from_weighted_basis(vecs, ws)
    expect = sum(
        fil.expectation(block) * m for block, m in zip(blocks, mults)
    ) / F.dim
    assert fil.expectation(G) == expect
    pair = sum(
        lam * fil.expectation(block) * m
        for lam, block, m in zip(F.jumps, blocks, mults)
    ) / F.dim
    assert fil.scalar_product(F, G) == pair
    return G


def scalar_product_by_basis(F, G):
    """(1/r) sum of lambda_F(e) lambda_G(e) over the vectors e of a common
    compatible basis built cell by cell, with each value found by flag
    membership: the pairing by its definition."""
    basis = common_compatible_basis(F, G)
    total = sum(
        (fil.lambda_of(F, v) * fil.lambda_of(G, v) for v in basis.vectors), Fraction(0)
    )
    return total / F.dim


def subset_scan_min_norm_point(points, ip_weights):
    """Minimum-norm point of conv(points) under <u,v> = sum w_k u_k v_k by
    scanning subsets in order of size, Gauss-Jordan over Fraction on each.

    Caratheodory guarantees some affinely independent subset carries the
    optimum with nonnegative coefficients and a nonsingular bordered Gram
    system; the first subset whose point passes <u,q> >= <q,q> for every
    input u is returned.  Exponential, so capped at 14 distinct points.
    """
    uniq = sorted(set(points))
    if len(uniq) > 14:
        raise ValueError("support too large for exact subset search")

    def ip(u, v):
        return sum(w * a * b for w, a, b in zip(ip_weights, u, v))

    gram = [[ip(u, v) for v in uniq] for u in uniq]
    for size in range(1, len(uniq) + 1):
        for subset in combinations(range(len(uniq)), size):
            rows = [[gram[s][t] for t in subset] + [Fraction(1)] for s in subset]
            rows.append([Fraction(1)] * size + [Fraction(0)])
            rhs = [Fraction(0)] * size + [Fraction(1)]
            try:
                alphas = solve_square(rows, rhs)[:size]
            except SingularMatrixError:
                continue
            if any(a < 0 for a in alphas):
                continue
            q = [sum((a * uniq[s][k] for a, s in zip(alphas, subset)), Fraction(0))
                 for k in range(len(uniq[0]))]
            qq = ip(q, q)
            if all(ip(u, q) >= qq for u in uniq):
                return q
    raise AssertionError("no verified minimum-norm point")


def minimizers_proportional(a, b):
    """Whether two destabilizing tuples agree up to dilation: compare
    coordinates in a common compatible basis componentwise."""
    if len(a.minimizer.components) != len(b.minimizer.components):
        return False
    ratio = None
    for F, G in zip(a.minimizer.components, b.minimizer.components):
        if F.dim != G.dim:
            return False
        basis = common_compatible_basis(F, G)
        xs = coordinates(F, basis)
        ys = coordinates(G, basis)
        for p, q in zip(xs, ys):
            if p == 0 and q == 0:
                continue
            if ratio is None:
                ratio = (p, q)
                continue
            if p * ratio[1] != q * ratio[0]:
                return False
    return True


def fraction_random_rows(rng, r):
    """Rows of a random invertible r x r matrix with entries in -2..2, drawn
    row by row and redrawn while its Fraction determinant is zero: the draw sequence of the Kempf challenges, with the number of
    attempts it took."""
    attempts = 0
    while True:
        attempts += 1
        M = [[Fraction(rng.randrange(-2, 3)) for _ in range(r)] for _ in range(r)]
        if fraction_det(M) != 0:
            return M, attempts


def fraction_lambda_in_bases(shape, coords, bases, weights):
    """Value at the tensor point {index: value} of the tensor product of the
    filtrations given by a basis and one weight per vector of each factor:
    coordinates by a Fraction inverse of each basis, applied axis by axis to
    the dense point, then the least weight sum over the nonzero ones."""
    vec = _change_axes(shape, coords, [fraction_inverse([list(col) for col in zip(*basis)]) for basis in bases])
    return min(
        sum((Fraction(w[j]) for w, j in zip(weights, idx)), Fraction(0))
        for idx, v in vec.items() if v
    )


def _change_axes(shape, coords, matrices):
    """The dense point {index: value} with matrices[i] applied to axis i,
    one axis after the other, as a dict over every cell in flat order."""
    cells = list(product(*(range(r) for r in shape)))
    vec = {idx: Fraction(coords.get(idx, 0)) for idx in cells}
    for axis, M in enumerate(matrices):
        out = {idx: Fraction(0) for idx in cells}
        for idx, v in vec.items():
            if v:
                for jp in range(shape[axis]):
                    target = idx[:axis] + (jp,) + idx[axis + 1:]
                    out[target] += M[jp][idx[axis]] * v
        vec = out
    return vec


def fraction_extend(base, candidates):
    """Rows of candidates that greedily enlarge the span of base, with one
    Fraction rref of the span per pick and one Fraction membership test per
    candidate (the library reduces on one integer echelon)."""
    picked = []
    span, piv = la.rref(base) if base else ([], [])
    for cand in candidates:
        if not la.row_space_contains(span, piv, cand):
            picked.append(list(cand))
            span, piv = la.rref(span + [picked[-1]])
    return picked


def fraction_adapted_basis(F):
    """fil.adapted_basis with fraction_extend: members deepest first, each
    vector paired with its filtration value."""
    acc = []
    out = []
    for i in range(F.depth - 1, -1, -1):
        for row in fraction_extend(acc, F.member_rows(i)):
            out.append((tuple(row), F.jumps[i]))
            acc.append(row)
    assert len(acc) == F.dim
    return out


def integer_inverse_transpose(rows):
    """(d, d (rows^T)^-1) by one la.solve_scaled of [rows^T | I], or None
    when the rows are dependent."""
    n = len(rows)
    return la.solve_scaled(la.transpose(rows), [[int(i == k) for k in range(n)] for i in range(n)])


def matricization(x, axis):
    """The Fraction matrix of x with the indices of this axis as rows and
    the other indices, in row-major order, as columns: its columns are the
    slices of v_x along the axis."""
    rows = x.shape[axis]
    cols = 1
    for i, r in enumerate(x.shape):
        if i != axis:
            cols *= r
    M = [[Fraction(0)] * cols for _ in range(rows)]
    for idx, val in x.coords:
        col = 0
        for i, r in enumerate(x.shape):
            if i != axis:
                col = col * r + idx[i]
        M[idx[axis]][col] = val
    return M


def _echelon_options(rows, r):
    """The identity of rank r, then the echelon basis of the rref rows
    completed by fraction_extend unless it is the identity."""
    options = [gs._identity_basis(r)]
    ech = fil.CompatibleBasis(tuple(map(tuple, rows + fraction_extend(rows, identity(r)))))
    if ech not in options:
        options.append(ech)
    return options


def fresh_seed_bases(x, rng_seed):
    """The seed tuples of gitstab.kempf_minimize with every basis built and
    inverted afresh, each basis paired with its own integer inverse from
    integer_inverse_transpose: the identity of each axis, the echelon basis
    of the slices (the Fraction rref of the transposed matricization)
    completed by fraction_extend when it is not the identity, in product
    order, then three random tuples drawn by fraction_random_rows from
    random.Random(rng_seed).  (The library reads the span of the slices
    off the integer point, builds the options once per rank and span and
    draws the random tuples once per shape and seed.)"""
    per_axis = []
    for axis, r in enumerate(x.shape):
        options = _echelon_options(la.rref(la.transpose(matricization(x, axis)))[0], r)
        per_axis.append([(b, integer_inverse_transpose(b.vectors)) for b in options])
    rng = random.Random(rng_seed)
    randoms = []
    for _ in range(3):
        bases = [fil.CompatibleBasis(fil._freeze(fraction_random_rows(rng, r)[0])) for r in x.shape]
        randoms.append(tuple((b, integer_inverse_transpose(b.vectors)) for b in bases))
    return list(product(*per_axis)) + randoms


def span_options_with_reversal(span):
    """The axis options of gitstab._span_options for a canonical span, built
    afresh from its Fraction rref, with the echelon basis reversed after
    the echelon option: the seed family of a search that also walks the
    reversals.  The reversal is validated by its own CompatibleBasis and
    left out when it equals an earlier option."""
    rows = la.rref(la.frac_rows([list(row) for row in span]))[0]
    options = _echelon_options(rows, len(span[0]))
    # ech is the identity when options has one entry, as in the library
    reversal = fil.CompatibleBasis(options[-1].vectors[::-1])
    if reversal not in options:
        options.append(reversal)
    return tuple(options)


def support_in_changes(x, changes):
    """Cells, in flat order, where the coordinates of v_x are nonzero after
    the integer inverses (d, W) of a seed are applied axis by axis to the
    dense Fraction point: one fresh coordinate change per seed (the library
    scales v_x to integers once and shares each axis change among the seeds
    with the same prefix)."""
    vec = _change_axes(x.shape, coord_map(x), [W for _, W in changes])
    return tuple(idx for idx, v in vec.items() if v)


# ---------------------------------------------------------------------------
# sampled Kempf optimality checks, replaced in the library by the Levi witness


def draw(rng, r):
    """Rows of a random invertible r x r matrix with entries in -2..2 and
    their integer inverse (d, d (rows^T)^-1): one elimination per attempt
    (integer_inverse_transpose), which is also the invertibility test."""
    while True:
        rows = [[rng.randrange(-2, 3) for _ in range(r)] for _ in range(r)]
        inv = integer_inverse_transpose(rows)
        if inv is not None:
            return (rows, *inv)


class Drawn(NamedTuple):
    """A drawn weighted basis: what gitstab._lambda_weighted reads of a
    weighted basis (the weights and the change), and the rows."""

    rows: Sequence[Sequence[int]]
    weights: Sequence[int]
    change: tuple


def draw_weighted(rng, r, w):
    """A random invertible basis, then one weight in -w..w per vector."""
    rows, d, inv = draw(rng, r)
    return Drawn(rows, [rng.randrange(-w, w + 1) for _ in range(r)], (d, inv))


def scalar_product_with_basis(F, vectors, weights):
    """fil.scalar_product(F, from_weighted_basis(vectors, weights)) without
    building the second filtration: its member at each jump mu is spanned
    by the vectors of weight >= mu, and a rank needs no echelon form."""
    if len(vectors) != F.dim or len(weights) != F.dim:
        raise ValueError("need a basis of the space with one weight per vector")
    jumps = sorted(set(weights))
    members = [[v for v, w in zip(vectors, weights) if w >= mu] for mu in jumps[1:]]
    return fil._pairing_from_ranks(F, jumps, members)


def challenge_sides(x, comps, c_tilde, drawn):
    """Both sides of the estimation inequality E[G] - lambda_G(v_x) >=
    c_tilde <F, G> at the challenge G whose factors are the drawn weighted
    bases, scored in those bases."""
    lhs = sum((Fraction(sum(B.weights), len(B.weights)) for B in drawn), Fraction(0))
    lhs -= gs._lambda_weighted(x, drawn)
    rhs = c_tilde * sum(
        (scalar_product_with_basis(F, B.rows, B.weights) for F, B in zip(comps, drawn)),
        Fraction(0),
    )
    return lhs, rhs


def kempf_challenges(x, M, rng_seed=0, challenges=100):
    """The estimation inequality at random challenge tuples, a random
    invertible basis per factor with a weight in -3..3 per vector, drawn
    as kempf_minimize(x, rng_seed) once drew them; raises
    SearchNotConverged at the first failure."""
    rng = random.Random(rng_seed * 7919 + 13)
    for _ in range(challenges):
        drawn = [draw_weighted(rng, r, 3) for r in x.shape]
        lhs, rhs = challenge_sides(x, M.minimizer.components, M.c_tilde, drawn)
        if lhs < rhs:
            raise gs.SearchNotConverged("estimation inequality failed for a challenge")


def reduced_mu_weighted(R, blocks):
    """reduced_mu at the block filtrations given as weighted bases, scored
    in those bases: b_j r_j E[G^(i,j)] is b_j times the weight sum."""
    total = sum(
        (R.b[i][j] * sum(B.weights) for i, per in enumerate(blocks) for j, B in enumerate(per)),
        Fraction(0),
    )
    lam = min(
        gs._lambda_weighted(point, [blocks[i][gi] for i, gi in enumerate(g)])
        for g, point in zip(R.groups, R.reduced)
    )
    return total - R.N * lam


def reduced_mu(R, blocks):
    """Weight sum b_j r_j E[G^(i,j)] - N * lambda of the reduced point at
    the block filtration tuple; nonnegative for all choices iff the
    reduced point is semistable for the graded group."""
    for i, per in enumerate(blocks):
        if len(per) != len(R.block_ranks[i]):
            raise ValueError("one block filtration per graded piece required")
        for j, G in enumerate(per):
            if G.dim != R.block_ranks[i][j]:
                raise ValueError("block dimension mismatch")
    return reduced_mu_weighted(R, [[gs._adapted(G) for G in per] for per in blocks])


def sampled_reduced_mu(R, samples=25, rng_seed=5):
    """reduced_mu >= 0 at random block filtrations (an invertible integer
    basis with a weight in -2..2 per vector), drawn as rr_reduce once drew
    them; raises SearchNotConverged at the first failure."""
    rng = random.Random(rng_seed)
    for _ in range(samples):
        blocks = [[draw_weighted(rng, rk, 2) for rk in ranks] for ranks in R.block_ranks]
        if reduced_mu_weighted(R, blocks) < 0:
            raise gs.SearchNotConverged("the reduced point failed a sampled block filtration")


def block_rounds_semistable(R, rng_seed=0, rounds=6):
    """The coordinate test of reduced_is_semistable repeated in random
    bases of the blocks of rank above one; False when some round finds a
    negative weight."""
    rng = random.Random(rng_seed)
    for _ in range(rounds):
        changes = {
            (i, j): draw(rng, rk)[1:]
            for i, per in enumerate(R.block_ranks)
            for j, rk in enumerate(per)
            if rk > 1
        }
        transformed = []
        for g, point in zip(R.groups, R.reduced):
            coords, _ = gs._scaled_coordinates(
                point, [changes.get((i, gi), (1, [[1]])) for i, gi in enumerate(g)]
            )
            cmap = {idx: Fraction(v) for v, idx in zip(coords, gs._cells(point.shape)) if v}
            transformed.append(gs.TensorPoint.from_map(point.shape, cmap))
        if not gs.reduced_is_semistable(replace(R, reduced=tuple(transformed))).semistable:
            return False
    return True


def levi_letters(R):
    """The reduced point as the Levi witness search reads it: exponent
    vector over the blocks, flattened in factor order -> coordinate map."""
    sizes = [len(per) for per in R.block_ranks]
    out = {}
    for g, point in zip(R.groups, R.reduced):
        alpha = [0] * sum(sizes)
        for i, gi in enumerate(g):
            alpha[sum(sizes[:i]) + gi] = 1
        out[tuple(alpha)] = dict(point.coords)
    return out


def levi_witness_value(R):
    """R.witness re-evaluated by composed_det_value on the copies its
    alphas name, one connected component at a time.

    Copies are linked when a block holds slots of both.  The blocks of one
    component hold only its own copies, so the sum over assignments splits
    into a product over components: each is evaluated on its own copies
    with their slots renumbered in order, which keeps the full expansion
    small for a product of many low-degree contractions."""
    W = R.witness
    letters = levi_letters(R)
    ranks = [rk for per in R.block_ranks for rk in per]
    owner = []  # per factor: slot -> copy
    for i in range(len(ranks)):
        owner.append([j for j, alpha in enumerate(W.alphas) for _ in range(alpha[i])])
    parent = list(range(len(W.alphas)))

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    blocks = []  # (factor, slots) in sigma order
    for i, perm in enumerate(W.sigma):
        for k in range(0, len(perm), ranks[i]):
            block = perm[k : k + ranks[i]]
            blocks.append((i, block))
            for slot in block[1:]:
                parent[root(owner[i][slot])] = root(owner[i][block[0]])
    value = Fraction(1)
    for top in sorted({root(j) for j in range(len(W.alphas))}):
        copies = [j for j in range(len(W.alphas)) if root(j) == top]
        renumber = [
            {slot: t for t, slot in enumerate(s for s, j in enumerate(owner[i]) if j in copies)}
            for i in range(len(ranks))
        ]
        sigma = [
            [renumber[i][slot] for f, block in blocks if f == i and owner[i][block[0]] in copies for slot in block]
            for i in range(len(ranks))
        ]
        alphas = [W.alphas[j] for j in copies]
        value *= composed_det_value([letters[a] for a in alphas], alphas, sigma, ranks)
    return value


def fraction_rr_reduce(x, M):
    """rr_reduce computed afresh for every point, in Fractions throughout:
    the level beta as the least weight sum over the adapted support, N, a
    and b from c_tilde and the jumps as Fractions, and the level-beta cells
    summed per (group, position) (the library plans all of that once per
    canonical datum, on integers).  The letters and the Levi witness search
    are the library's, with the same budget, so the result and every
    refusal message must match rr_reduce exactly."""
    if not M.is_destabilizing:
        raise ValueError("reduction needs a destabilizing result (c < 0)")
    comps = M.minimizer.components
    for F in comps:
        if any(l.denominator != 1 for l in F.jumps):
            raise ValueError("reduction needs integer jumps")
    gs._check_shapes(x, M.minimizer)
    n = len(comps)
    adapted = M.adapted
    coords, scale = gs._scaled_coordinates(x, [B.change for B in adapted])
    cells = list(product(*(range(r) for r in x.shape)))
    beta_q = min(
        sum(B.weights[j] for B, j in zip(adapted, idx)) for c, idx in zip(coords, cells) if c
    )
    if beta_q.denominator != 1:
        raise gs.SearchNotConverged("the minimizer value at v_x is not an integer")
    beta = int(beta_q)
    c_tilde = M.c_tilde

    block_jumps = tuple([F.jumps for F in comps])
    block_ranks = tuple([F.multiplicities() for F in comps])

    N = math.lcm(
        *[F.dim for F in comps], *[(c_tilde * lam / F.dim).denominator for F in comps for lam in F.jumps]
    )
    a = tuple([tuple([int(-N * c_tilde * lam / F.dim) for lam in F.jumps]) for F in comps])
    b = tuple([tuple([N // F.dim + aj for aj in arow]) for F, arow in zip(comps, a)])
    for i in range(n):
        if sum(aj * rj for aj, rj in zip(a[i], block_ranks[i])) != 0:
            raise gs.SearchNotConverged("sum of a_j r_j is not zero")
        if any(bj < 0 for bj in b[i]):
            raise gs.SearchNotConverged("negative b_j")

    levels = [[F.jumps.index(w) for w in B.weights] for F, B in zip(comps, adapted)]
    positions = []
    for lv in levels:
        seen = {}
        pos = []
        for j in lv:
            pos.append(seen.get(j, 0))
            seen[j] = seen.get(j, 0) + 1
        positions.append(pos)

    grouped = {}
    for cval, idx in zip(coords, cells):
        if not cval:
            continue
        g = tuple([levels[i][idx[i]] for i in range(n)])
        if sum(comps[i].jumps[g[i]] for i in range(n)) != beta:
            continue
        t = tuple([positions[i][idx[i]] for i in range(n)])
        cell = grouped.setdefault(g, {})
        cell[t] = cell.get(t, Fraction(0)) + Fraction(cval, scale)
    grouped = {g: {t: v for t, v in m.items() if v} for g, m in grouped.items()}
    grouped = {g: m for g, m in grouped.items() if m}
    if not grouped:
        raise gs.SearchNotConverged("the level-beta projection of the minimal layer is zero")
    groups = tuple(sorted(grouped))
    reduced = tuple([
        gs.TensorPoint.from_map([block_ranks[i][g[i]] for i in range(n)], grouped[g]) for g in groups
    ])

    offsets = list(accumulate((len(row) for row in block_ranks), initial=0))
    letters = {}
    for g, point in zip(groups, reduced):
        alpha = [0] * offsets[-1]
        for i, gi in enumerate(g):
            alpha[offsets[i] + gi] = 1
        letters[tuple(alpha)] = point
    twists = [bj for row in b for bj in row]
    g = math.gcd(N, *twists)
    witness = invariants.invariant_witness_search(
        letters,
        [t // g for t in twists],
        N // g,
        2 * g,
        budget=gs.LEVI_BUDGET,
        ranks=[rk for row in block_ranks for rk in row],
    )
    if witness is None:
        raise gs.SearchNotConverged("no Levi witness up to degree %d" % (2 * N))
    if witness == invariants.BUDGET_EXCEEDED:
        raise gs.SearchNotConverged(
            "the Levi witness search exceeded its budget of %d steps" % gs.LEVI_BUDGET
        )
    return gs.ReducedInstance(beta, M.minimizer, block_jumps, block_ranks, N, a, b, groups, reduced, witness)


# ---------------------------------------------------------------------------
# filtration operations with no caller in the library


def direct_sum(parts):
    if not parts:
        raise ValueError("direct sum of an empty list")
    total = sum(F.dim for F in parts)
    vecs, ws = [], []
    offset = 0
    for F in parts:
        for v, w in fil.adapted_basis(F):
            vecs.append(
                [Fraction(0)] * offset + list(v) + [Fraction(0)] * (total - offset - F.dim)
            )
            ws.append(w)
        offset += F.dim
    return fil.from_weighted_basis(vecs, ws)


def norm(F):
    return sqrt_of(fil.norm_squared(F))


def float_decimal(box):
    """Decimal rendering of a LogValue from its enclosure, as the campaigns
    and the command line once made it: the midpoint converted to a float
    and formatted to nine places."""
    return "%.9f" % float((box.lo + box.hi) / 2)


def fraction_atanh_interval(z, bits):
    """atanh(z) enclosure for 0 <= z <= 1/2 by the series summed term by
    term in Fractions, each term and the tail bound reduced on its own."""
    if not (0 <= z <= Fraction(1, 2)):
        raise ValueError("atanh series restricted to [0, 1/2]")
    if z == 0:
        return Interval(Fraction(0), Fraction(0))
    target = Fraction(1, 1 << bits)
    one_minus = 1 - z * z
    total = Fraction(0)
    power = z  # z^(2k+1)
    k = 0
    while True:
        tail = power / ((2 * k + 1) * one_minus)
        if tail <= target:
            return Interval(total, total + tail)
        total += power / (2 * k + 1)
        power *= z * z
        k += 1


def _interval_div(I, J):
    """I / J as an interval, for J of positive endpoints."""
    if J.lo <= 0:
        raise ValueError("division by an interval containing nonpositive values")
    quots = [I.lo / J.lo, I.lo / J.hi, I.hi / J.lo, I.hi / J.hi]
    return Interval(min(quots), max(quots))


def fraction_morphism_height(phi, tolerance_bits=40):
    """morphism_height with the operator norm bisected over Fractions: lo
    and hi are Fractions, each midpoint t is tested by a Fraction LDL of
    t * G_E - A^T G_F A, and the logs are the Fraction series of
    fraction_log_interval, divided as intervals."""
    if phi.is_zero:
        raise ValueError("the zero morphism has no finite height")
    finite_map = {}
    entries = [x for row in phi.matrix for x in row if x != 0]
    valuations = []
    for x in entries:
        vp = {}
        for p, e in factorize(abs(x.numerator)):
            vp[p] = e
        for p, e in factorize(x.denominator):
            vp[p] = vp.get(p, 0) - e
        valuations.append(vp)
    for p in sorted({p for vp in valuations for p in vp}):
        low = min(vp.get(p, 0) for vp in valuations)
        if low:
            finite_map[p] = Fraction(-low)
    finite = LogValue.from_map(finite_map)

    A = phi.matrix_rows
    GE = gram_rows(phi.source)
    GF = gram_rows(phi.target)
    M = la.mat_mul(la.transpose(A), la.mat_mul(GF, A))
    k = phi.source.rank
    inv = fraction_inverse(GE)
    tr = sum(la.mat_mul(inv, M)[i][i] for i in range(k))
    lo, hi = tr / k, tr
    eps = Fraction(1, 1 << (tolerance_bits + 2))

    def above(t):  # True when lambda_max < t
        try:
            fraction_ldl([[t * GE[i][j] - M[i][j] for j in range(k)] for i in range(k)])
        except SingularMatrixError:
            return False
        return True

    while hi - lo > lo * eps:
        mid = (lo + hi) / 2
        if above(mid):
            hi = mid
        else:
            lo = mid

    m = tolerance_bits + 3
    mag = sum(q.numerator.bit_length() + q.denominator.bit_length() for q in (lo, hi))
    prec = m + 8 + mag.bit_length()
    log2 = fraction_log_interval(Fraction(2), prec)
    ylo = _interval_div(fraction_log_interval(lo, prec).scaled(Fraction(1 << (m - 1))), log2)
    yhi = _interval_div(fraction_log_interval(hi, prec).scaled(Fraction(1 << (m - 1))), log2)
    j_lo = ylo.lo.numerator // ylo.lo.denominator
    j_hi = -((-yhi.hi.numerator) // yhi.hi.denominator)
    grid = log_of(2, Fraction(1, 1 << m))
    return lat.HeightBracket(finite + grid.scaled(j_lo), finite + grid.scaled(j_hi), finite)


def _fraction_round_outward(iv, bits):
    scale = 1 << bits
    return Interval(
        Fraction(math.floor(iv.lo * scale), scale), Fraction(math.ceil(iv.hi * scale), scale)
    )


def fraction_log_interval(q, bits):
    """log_interval with no cache: log q = e log 2 + 2 atanh((m-1)/(m+1))
    for q = 2^e m, m in [1, 2), the two atanh enclosures from
    fraction_atanh_interval at sub + 1 bits, rounded outward to
    2^-(bits+1)."""
    q = Fraction(q)
    if q == 1:
        return Interval(Fraction(0), Fraction(0))
    if q < 1:
        return -fraction_log_interval(1 / q, bits)
    e = q.numerator.bit_length() - q.denominator.bit_length()
    m = q / Fraction(2) ** e
    if m < 1:
        e, m = e - 1, m * 2
    elif m >= 2:
        e, m = e + 1, m / 2
    sub = bits + 2 + max(1, abs(e)).bit_length()
    body = fraction_atanh_interval((m - 1) / (m + 1), sub + 1).scaled(Fraction(2))
    if e:
        body = body + fraction_atanh_interval(Fraction(1, 3), sub + 1).scaled(Fraction(2 * e))
    return _fraction_round_outward(body, bits + 1)


def fraction_approximate(a, bits):
    """approximate as a sum of Fraction intervals c * [log p], each log p
    enclosed at the same sub bits as the library, rounded outward once."""
    if a.is_zero:
        return Interval(Fraction(0), Fraction(0))
    slack = bits + 2 + max(1, len(a.terms)).bit_length()
    total = Interval(Fraction(0), Fraction(0))
    for p, c in a.terms:
        log2_c = abs(c.numerator).bit_length() - c.denominator.bit_length() + 1
        total = total + fraction_log_interval(p, slack + max(0, log2_c)).scaled(c)
    return _fraction_round_outward(total, bits + 1)


def dict_add(a, b):
    """a + b through a dict of coefficients and LogValue.from_map."""
    acc = dict(a.terms)
    for p, c in b.terms:
        acc[p] = acc.get(p, Fraction(0)) + c
    return LogValue.from_map(acc)


def dict_sub(a, b):
    return dict_add(a, -b)


def dict_log_of(q, scale=Fraction(1)):
    """scale * log(q) through a dict of coefficients and LogValue.from_map."""
    q, scale = Fraction(q), Fraction(scale)
    acc = {}
    for p, e in factorize(q.numerator):
        acc[p] = acc.get(p, Fraction(0)) + e * scale
    for p, e in factorize(q.denominator):
        acc[p] = acc.get(p, Fraction(0)) - e * scale
    return LogValue.from_map(acc)
