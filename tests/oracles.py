"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own algorithms: determinants by
cofactor expansion, Gauss-Jordan elimination over Fraction entries (the
library eliminates fraction-free on integers), LLL reduction and
Fincke-Pohst enumeration over Fraction Gram-Schmidt data (the library runs
both on an integer GSO), short vectors by certified box enumeration, and
Hilbert-Mumford values by direct evaluation over a jump grid, the
scalar product of filtrations as a sum over a common compatible basis
(the library computes it from ranks alone), and the minimum-norm point of
a convex hull by scanning subsets (the library runs Wolfe's algorithm),
and the value of a tensor filtration at a point by a Fraction change of
coordinates (the library changes coordinates over the integers).  They are
slow and simple on purpose.

The compatible-basis calculus of filtrations (row-space sums and
intersections, common compatible bases, coordinates along them, assembly
from subquotient filtrations) lives here too: the library pairs filtrations
from ranks and never builds a common basis, so only the tests use it.  So
does the decimal rendering through a float that the library's exact
renderer must reproduce.
"""

from fractions import Fraction
from itertools import combinations, product
from math import isqrt

from slopelab import filtration as fil
from slopelab import linalg as la
from slopelab.linalg import SingularMatrixError, solve_square


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
        if cofactor_det(B) != 0:
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
    combos = la.kernel(stacked, len(A) + len(B))
    vecs = []
    for combo in combos:
        y = combo[: len(A)]
        vecs.append([la.vec_dot(y, [A[i][c] for i in range(len(A))]) for c in range(ncols)])
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
                if la.det(M) != 0:
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
    cells = list(product(*(range(r) for r in shape)))
    vec = {idx: Fraction(coords.get(idx, 0)) for idx in cells}
    for axis, basis in enumerate(bases):
        inv = fraction_inverse([list(col) for col in zip(*basis)])
        out = {idx: Fraction(0) for idx in cells}
        for idx, v in vec.items():
            if v:
                for jp in range(shape[axis]):
                    target = idx[:axis] + (jp,) + idx[axis + 1:]
                    out[target] += inv[jp][idx[axis]] * v
        vec = out
    return min(
        sum((Fraction(w[j]) for w, j in zip(weights, idx)), Fraction(0))
        for idx, v in vec.items() if v
    )



def float_decimal(box):
    """Decimal rendering of a LogValue from its enclosure, as the campaigns
    and the command line once made it: the midpoint converted to a float
    and formatted to nine places."""
    return "%.9f" % float((box.lo + box.hi) / 2)
