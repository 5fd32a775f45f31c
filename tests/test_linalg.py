"""Exact linear algebra helpers against independent oracles."""

from fractions import Fraction
import math
from math import comb, lcm
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from slopelab import linalg as la

from oracles import (
    bareiss_compound_matrix,
    box_short_vectors,
    cofactor_det,
    compound_matrix,
    det,
    filtered_laplace,
    fraction_det,
    fraction_gram_lll,
    fraction_inverse,
    fraction_ldl,
    fraction_rref,
    fraction_short_vectors_reduced,
    fraction_solve_square,
    gram_lll,
    gso_of,
    identity,
    intersect_row_spaces,
    inverse,
    is_positive_definite,
    kernel,
    ldl,
    lll_sweep,
    mat_eq,
    random_spd_matrix,
    random_unimodular,
    short_vectors_gram,
    sum_row_spaces,
    vec_dot,
    wedge_of_columns,
)


def _empty_tables():
    # the (n, k) subset tables live for the whole process; a test that
    # empties them first cannot pass only on tables another test built
    la._subset_table.cache_clear()


def rand_matrix(rng, m, n, bound=6):
    return [
        [Fraction(rng.randrange(-bound, bound + 1), rng.randrange(1, 4)) for _ in range(n)]
        for _ in range(m)
    ]


DENOMINATORS = (2, 3, 4, 6, 7, 9)


def mixed_matrix(rng, m, n):
    """int and Fraction entries with mixed denominators; about half of the
    matrices get a zero row, a zero column or a row that is a combination
    of two others."""
    M = [
        [
            rng.choice((0, rng.randrange(-9, 10), Fraction(rng.randrange(-9, 10), rng.choice(DENOMINATORS))))
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    style = rng.randrange(6)
    if style == 0:
        M[rng.randrange(m)] = [0] * n
    elif style == 1:
        c = rng.randrange(n)
        for row in M:
            row[c] = Fraction(0) if rng.random() < 0.5 else 0
    elif style == 2 and m >= 3:
        i, j, t = rng.sample(range(m), 3)
        a, b = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)), rng.randrange(-3, 4)
        M[t] = [a * x + b * y for x, y in zip(M[i], M[j])]
    return M


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except la.SingularMatrixError as exc:
        return ("raised", type(exc), str(exc))


def test_elimination_matches_fraction_oracles():
    # the fraction-free kernel against Gauss-Jordan over Fraction entries:
    # square sizes 1-7, wide and tall shapes, singular and rank-deficient
    rng = random.Random(401)
    shapes = [(n, n) for n in range(1, 8)] + [(2, 5), (3, 7), (1, 4), (4, 6), (5, 2), (7, 3), (4, 1), (6, 4)]
    checked = singular = 0
    for _ in range(40):
        for m, n in shapes:
            M = mixed_matrix(rng, m, n)
            R, piv = fraction_rref(M)
            got = la.rref(M)
            assert got == (R, piv)
            assert all(type(x) is Fraction for row in got[0] for x in row)
            assert la.rank(M) == len(R)
            checked += 1
            if m != n:
                continue
            assert det(M) == fraction_det(M)
            assert type(det(M)) is Fraction
            b = [rng.choice((rng.randrange(-5, 6), Fraction(rng.randrange(-5, 6), 4))) for _ in range(n)]
            inv, sol = outcome(inverse, M), outcome(la.solve_square, M, b)
            assert inv == outcome(fraction_inverse, M)
            assert sol == outcome(fraction_solve_square, M, b)
            singular += det(M) == 0
    assert checked >= 500 and singular >= 50
    assert det([]) == 1 and la.rank([]) == 0 and inverse([]) == []


def test_ldl_matches_fraction_oracle():
    rng = random.Random(409)
    for _ in range(60):
        n = rng.randrange(1, 8)
        B = mixed_matrix(rng, n, n)
        if det(B) == 0:
            continue
        G = la.mat_mul(la.transpose(B), B)
        # ldl reads the lower triangle only, so the upper one may be anything
        if rng.random() < 0.5:
            for i in range(n):
                for j in range(i + 1, n):
                    G[i][j] = Fraction(rng.randrange(-50, 50), 7)
        assert ldl(G) == fraction_ldl(G)
    # a factorisation that breaks down at index j: positive pivots before
    # it, a pivot <= 0 at j; ldl accepts the leading j x j block only
    for n in range(1, 7):
        for j in range(n):
            L = [
                [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) if c < r else Fraction(int(r == c)) for c in range(n)]
                for r in range(n)
            ]
            d = [Fraction(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(n)]
            d[j] = Fraction(-rng.randrange(0, 3))
            G = la.mat_mul(L, [[d[r] * L[c][r] for c in range(n)] for r in range(n)])
            with pytest.raises(la.SingularMatrixError):
                fraction_ldl(G)
            with pytest.raises(la.SingularMatrixError):
                ldl(G)
            lead = [row[:j] for row in G[:j]]
            assert ldl(lead) == fraction_ldl(lead)
            assert not is_positive_definite(G)


def test_compound_matrix_against_cofactor_minors():
    # every k from 0 to n + 1, on non-symmetric and symmetric input with
    # int and Fraction entries: cofactor expansion up to n = 5, the
    # per-minor Bareiss reference up to n = 8
    _empty_tables()
    rng = random.Random(419)
    for t in range(24):
        n = 1 + t % 8
        M = mixed_matrix(rng, n, n)
        S = [[M[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        for A in (M, S):
            for k in range(n + 2):
                got = compound_matrix(A, k)
                assert got == bareiss_compound_matrix(A, k)
                assert len(got) == comb(n, k)
                assert all(type(x) is Fraction for row in got for x in row)
                if n <= 5:
                    subsets = la.k_subsets(n, k)
                    assert got == [[cofactor_det([[A[i][j] for j in J] for i in I]) for J in subsets] for I in subsets]
    assert compound_matrix([], 0) == [[Fraction(1)]]


def test_compound_of_reduced_gram_matrices():
    # the compounds mu_max enumerates: reduced Gram matrices of rank 2..8,
    # integer and rational, every k
    _empty_tables()
    rng = random.Random(421)
    for n in range(2, 9):
        for scale in (1, 6):
            G = [[Fraction(x, scale) for x in row] for row in random_spd_matrix(rng, n, 3)]
            Gred = gram_lll(G)[0]
            for k in range(n + 1):
                got = compound_matrix(Gred, k)
                assert got == bareiss_compound_matrix(Gred, k)
                assert la.is_symmetric(got)
                assert all(type(x) is Fraction for row in got for x in row)


def test_compound_tower_levels_against_bareiss():
    # every level k = 1..n of one tower is den^k times the per-minor
    # Bareiss compound, as integers, with den the lcm of the denominators;
    # on non-symmetric and symmetric input with int and Fraction entries
    _empty_tables()
    rng = random.Random(433)
    for t in range(24):
        n = 1 + t % 8
        M = mixed_matrix(rng, n, n)
        S = [[M[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        for A in (M, S):
            den = lcm(*[Fraction(x).denominator for row in A for x in row])
            levels = list(la._compound_tower(A, n + 1))
            assert [k for k, _T, _s in levels] == list(range(1, n + 1))
            for k, T, scale in levels:
                assert scale == den**k
                assert all(type(x) is int for row in T for x in row)
                assert T == [[int(x * scale) for x in row] for row in bareiss_compound_matrix(A, k)]
            assert [k for k, _T, _s in la._compound_tower(A, n - 1)] == list(range(1, n))
    assert list(la._compound_tower([], 3)) == []
    assert list(la._compound_tower([[Fraction(1, 2)]], 0)) == []


def test_integer_compound_enumeration_matches_fraction_compound():
    # the hand-off of mu_max: level k of the tower of a reduced Gram matrix,
    # enumerated within min diag T_k, gives the vectors of the Fraction
    # compound within its own least diagonal entry, with each norm den^k
    # times as large
    _empty_tables()
    rng = random.Random(437)
    for n in range(2, 7):
        for scale in (1, 6):
            G = [[Fraction(x, scale) for x in row] for row in random_spd_matrix(rng, n, 3)]
            Gred = gram_lll(G)[0]
            for k, T, den_k in la._compound_tower(Gred, n - 1):
                if k < 2:
                    continue
                C = compound_matrix(Gred, k)
                got = short_vectors_gram(T, min(T[t][t] for t in range(len(T))))
                want = short_vectors_gram(C, min(C[t][t] for t in range(len(C))))
                assert [(w, norm / den_k) for w, norm in got] == want
                assert lll_sweep(T)[0] == lll_sweep(C)[0]


def test_det_against_cofactor_oracle():
    rng = random.Random(41)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            M = rand_matrix(rng, n, n)
            assert det(M) == cofactor_det(M)
    assert det([]) == 1


def test_int_det_matches_elimination_and_leaves_its_argument():
    """The forward Bareiss pass of _int_det gives the determinant of the
    Gauss-Jordan kernel _eliminate and of the cofactor oracle, on seeded
    square integer matrices: singular ones (a repeated row, a zero column,
    a rank drop), ones whose leading minors vanish so that rows must be
    exchanged, and full ones.  The rows handed in are left as they were."""
    rng = random.Random(46)
    cases = [[], [[0]], [[2, 1, 0], [1, 3, 1], [0, 1, 4]], [[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]]
    for t in range(300):
        n = 1 + t % 6
        W = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        kind = t % 5
        if kind == 0 and n > 1:  # a repeated row
            W[rng.randrange(1, n)] = list(W[0])
        elif kind == 1:  # a zero column
            c = rng.randrange(n)
            for row in W:
                row[c] = 0
        elif kind == 2 and n > 1:  # a zero leading entry: a row exchange
            W[0][0] = 0
        elif kind == 3 and n > 2:  # a rank drop in the middle: the sum of two rows
            W[2] = [a + b for a, b in zip(W[0], W[1])]
        cases.append(W)
    swaps = singular = 0
    for W in cases:
        before = [list(row) for row in W]
        n = len(W)
        r, _, d, sign = la._eliminate([list(row) for row in W], n)
        want = sign * d if r == n else 0
        assert la._int_det(W) == want == cofactor_det(W)
        assert W == before
        singular += want == 0
        swaps += bool(W) and W[0][0] == 0 and want != 0
    assert singular >= 100 and swaps >= 20
    # the matrix of a full-rank saturation keeps its entries
    G = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert la._int_det(G) == 18 and G == [[2, 1, 0], [1, 3, 1], [0, 1, 4]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=3), st.integers(0, 2**32 - 1))
def test_kron_gso_matches_ldl_of_kron(ranks, seed):
    """The GSO of a Kronecker product folded pairwise from its factors'
    GSOs, with no elimination, is the one _ldl_scaled gives the integer
    Kronecker product, for two and three factors of ranks 1-4; den
    multiplies, and the factors' GSOs are left as they were."""
    rng = random.Random(seed)
    grams = [la._common_scaled(random_spd_matrix(rng, r, 3))[0] for r in ranks]
    dens = [rng.choice((1, 2, 6)) for _ in ranks]
    gsos = [gso_of(A)._replace(den=den) for A, den in zip(grams, dens)]
    before = [(list(map(list, g.lam)), list(g.D)) for g in gsos]
    K, gso = grams[0], gsos[0]
    for A, g in zip(grams[1:], gsos[1:]):
        K, gso = la.kron(K, A), la._kron_gso(gso, g)
    want = gso_of(K)
    assert (gso.lam, gso.D) == (want.lam, want.D)
    assert gso.den == math.prod(dens)
    assert [(g.lam, g.D) for g in gsos] == before


def test_inverse_and_solve():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(1, 5)
        M = rand_matrix(rng, n, n)
        if det(M) == 0:
            continue
        assert mat_eq(la.mat_mul(M, inverse(M)), identity(n))
        b = [Fraction(rng.randrange(-9, 10)) for _ in range(n)]
        x = la.solve_square(M, b)
        assert la.mat_vec(M, x) == b
    with pytest.raises(la.SingularMatrixError):
        inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_rref_canonical_under_row_ops():
    rng = random.Random(47)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 6)
        M = rand_matrix(rng, m, n)
        R1, p1 = la.rref(M)
        scrambled = [row[:] for row in M]
        rng.shuffle(scrambled)
        factors = [Fraction(rng.randrange(1, 5)) for _ in scrambled]
        scrambled = [[x * f for x in row] for row, f in zip(scrambled, factors)]
        coeffs = [Fraction(rng.randrange(-2, 3)) for _ in range(m)]
        scrambled.append(
            [sum(coeffs[i] * M[i][c] for i in range(m)) for c in range(n)]
        )
        R2, p2 = la.rref(scrambled)
        assert R1 == R2 and p1 == p2
    assert la.rref([]) == ([], [])


def test_kernel_and_rank():
    rng = random.Random(53)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 6)
        M = rand_matrix(rng, m, n)
        K = kernel(M, n)
        assert len(K) == n - la.rank(M)
        for v in K:
            assert all(x == 0 for x in la.mat_vec(M, v))


def test_sum_and_intersection_dimension_formula():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randrange(1, 6)
        A = la.rref(rand_matrix(rng, rng.randrange(1, 4), n))[0]
        B = la.rref(rand_matrix(rng, rng.randrange(1, 4), n))[0]
        S = sum_row_spaces(A, B)
        I = intersect_row_spaces(A, B)
        assert len(S) + len(I) == len(A) + len(B)
        RA, pA = la.rref(A)
        RB, pB = la.rref(B)
        for v in I:
            assert la.row_space_contains(RA, pA, v)
            assert la.row_space_contains(RB, pB, v)


def test_kron_action():
    rng = random.Random(61)
    for _ in range(20):
        A = rand_matrix(rng, 2, 2)
        B = rand_matrix(rng, 3, 3)
        x = [Fraction(rng.randrange(-4, 5)) for _ in range(2)]
        y = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
        xy = [a * b for a in x for b in y]
        lhs = la.mat_vec(la.kron(A, B), xy)
        Ax, By = la.mat_vec(A, x), la.mat_vec(B, y)
        rhs = [a * b for a in Ax for b in By]
        assert lhs == rhs


def test_subset_tables_built_once_on_first_use():
    # importing the package builds no table
    src = str(Path(la.__file__).resolve().parents[1])
    probe = "import slopelab.cli, slopelab.harness; from slopelab import linalg; print(linalg._subset_table.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
    _empty_tables()
    rng = random.Random(441)
    for n in range(1, 10):
        for k in range(1, n + 1):
            table = la._subset_table(n, k)
            assert la._subset_table(n, k) is table  # built once, then looked up
            subsets = la.k_subsets(n, k)
            below = la.k_subsets(n, k - 1)
            for b, J in enumerate(subsets):
                drops = [(J[t], below.index(J[:t] + J[t + 1 :])) for t in range(k)]
                assert table.wedge[b] == (drops[0::2], drops[1::2])
                assert [heads[b] for heads in table.heads] == [(drops[0:m:2], drops[1:m:2]) for m in range(1, k + 1)]
                for t, (j, q) in enumerate(drops):
                    assert (j, b, (-1) ** t) in table.contract[q]
            assert sum(map(len, table.contract)) == k * len(subsets)
            # the index sets alone give each minor of a lower-triangular F:
            # rows holds I[0] and the cofactor row I[1:], and for a pair
            # that I dominates, the head of J up to the m entries J[t] <=
            # I[0] holds the terms that filtering all pairs keeps
            want = filtered_laplace(n, k)
            for a, (i0, at) in enumerate(table.rows):
                I = subsets[a]
                assert (i0, at) == (I[0], below.index(I[1:]))
                dominated = [b for b, J in enumerate(subsets) if all(j <= i for i, j in zip(I, J))]
                heads = [table.heads[sum(1 for j in subsets[b] if j <= i0) - 1][b] for b in dominated]
                assert sorted((b, *terms) for b, terms in zip(dominated, heads)) == want[a]
            if n > 6:
                continue
            # and the minors store of each level, entry by entry, on F and
            # the levels below it, gives those minors and zero elsewhere
            F = [[rng.choice((-3, -2, -1, 1, 2, 3)) if j <= i else 0 for j in range(n)] for i in range(n)]
            minors = F
            for j in range(2, k + 1):
                minors = la._Minors(F, minors, la._subset_table(n, j))
            C = bareiss_compound_matrix(F, k)
            assert k == 1 or len(minors) == len(subsets)
            assert [[minors[a][b] for b in range(len(subsets))] for a in range(len(subsets))] == C
    # one build for each (n, k) with 1 <= k <= n <= 9, and no other
    info = la._subset_table.cache_info()
    assert info.currsize == info.misses == len([(n, k) for n in range(1, 10) for k in range(1, n + 1)])


def test_compound_multiplicative():
    # Cauchy-Binet: C_k(AB) = C_k(A) C_k(B)
    rng = random.Random(67)
    for k in (1, 2, 3):
        for _ in range(10):
            A = rand_matrix(rng, 4, 4, 3)
            B = rand_matrix(rng, 4, 4, 3)
            lhs = compound_matrix(la.mat_mul(A, B), k)
            rhs = la.mat_mul(compound_matrix(A, k), compound_matrix(B, k))
            assert mat_eq(lhs, rhs)
    G = rand_matrix(rng, 3, 3)
    assert mat_eq(compound_matrix(G, 1), G)


def test_wedge_norm_identity():
    # |b_1 /\ ... /\ b_k|^2 under the compound Gram equals det(B^T G B)
    rng = random.Random(71)
    for _ in range(30):
        r = rng.randrange(2, 5)
        k = rng.randrange(1, r + 1)
        G = random_spd_matrix(rng, r, 4)
        B = [[Fraction(rng.randrange(-3, 4)) for _ in range(k)] for _ in range(r)]
        w = wedge_of_columns(B, k)
        C = compound_matrix(G, k)
        lhs = vec_dot(w, la.mat_vec(C, w))
        BtGB = la.mat_mul(la.transpose(B), la.mat_mul(G, B))
        assert lhs == det(BtGB)


def test_hnf_rows_canonical():
    rng = random.Random(73)
    for _ in range(50):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        H = la.hnf_rows(A)[0]
        # same row lattice: mutual integer membership via rational rref
        assert la.rref(A)[0] == la.rref(H)[0] if H else la.rank(A) == 0
        assert la.hnf_rows(H)[0] == H
        U = random_unimodular(rng, m)
        UA = la.mat_mul(U, A)
        assert la.hnf_rows(la.int_rows(UA))[0] == H


def test_hnf_pivot_normalization():
    H = la.hnf_rows([[2, 4], [0, 3]])[0]
    # pivots positive, entry above pivot reduced into [0, pivot)
    assert H == [[2, 1], [0, 3]]


def test_hnf_rows_transform():
    """A = Uinv [H; 0] with Uinv unimodular, for every shape: tall, wide,
    square, rank deficient and zero matrices.  H is the canonical form
    that test_hnf_rows_canonical checks."""
    rng = random.Random(79)
    shapes = [(r, k) for r in range(1, 7) for k in range(1, 7)]
    for t in range(180):
        r, k = shapes[t % len(shapes)]
        A = [[rng.randrange(-6, 7) for _ in range(k)] for _ in range(r)]
        if t % 9 == 0:
            A[-1] = [2 * x for x in A[0]]  # rank deficient when r > 1
        if t % 36 == 35:
            A = [[0] * k for _ in range(r)]
        H, Uinv = la.hnf_rows(A)
        assert H == la.hnf_rows(A)[0] == la.hnf_rows(H)[0]
        assert len(H) == la.rank(A)
        assert abs(det(Uinv)) == 1
        assert la.mat_mul(Uinv, H + [[0] * k for _ in range(r - len(H))]) == A


def test_ldl():
    rng = random.Random(83)
    for _ in range(30):
        n = rng.randrange(1, 6)
        G = random_spd_matrix(rng, n)
        L, d = ldl(G)
        D = [[d[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        assert mat_eq(la.mat_mul(L, la.mat_mul(D, la.transpose(L))), G)
        assert all(x > 0 for x in d)
    with pytest.raises(la.SingularMatrixError):
        ldl([[Fraction(0)]])


def test_positive_definite_check():
    assert is_positive_definite([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert not is_positive_definite([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert not is_positive_definite([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]])
    assert not is_positive_definite([[0, 1], [1, 0]])
    # non-symmetric with positive leading minors
    assert not is_positive_definite([[2, 1], [0, 2]])
    # positive semidefinite: B^T B with a singular B
    assert not is_positive_definite([[1, 1], [1, 1]])
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert not is_positive_definite([[quarter, half, 0], [half, 1, 0], [0, 0, 3]])
    # Sylvester's criterion over Fraction determinants on random symmetric input
    rng = random.Random(421)
    verdicts = set()
    for _ in range(60):
        n = rng.randrange(1, 6)
        M = mixed_matrix(rng, n, n)
        S = [[M[max(i, j)][min(i, j)] + (2 * n if i == j else 0) for j in range(n)] for i in range(n)]
        want = all(fraction_det([row[:t] for row in S[:t]]) > 0 for t in range(1, n + 1))
        assert is_positive_definite(S) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def _assert_lll_reduced(G, scaled, U, gso):
    # gram_lll returns den U^T G U as integer rows, den = gso.den
    n = len(G)
    assert gso.den == lcm(*[Fraction(x).denominator for row in G for x in row])
    assert all(type(x) is int for row in scaled for x in row)
    Gred = [[Fraction(x, gso.den) for x in row] for row in scaled]
    assert abs(det([[Fraction(x) for x in row] for row in U])) == 1
    assert mat_eq(Gred, la.mat_mul(la.transpose(U), la.mat_mul(G, U)))
    assert det(Gred) == det(G)
    # verify the reduction conditions on the output
    L, d = ldl(Gred)
    for i in range(n):
        for j in range(i):
            assert abs(L[i][j]) <= Fraction(1, 2)
    for kk in range(1, n):
        lhs = d[kk]
        rhs = (Fraction(3, 4) - L[kk][kk - 1] ** 2) * d[kk - 1]
        assert lhs >= rhs


def test_gram_lll_invariants():
    rng = random.Random(89)
    for _ in range(25):
        n = rng.randrange(1, 6)
        G = random_spd_matrix(rng, n)
        _assert_lll_reduced(G, *gram_lll(G))
    # rational Gram matrices with denominators > 1
    for _ in range(15):
        n = rng.randrange(2, 6)
        B = rand_matrix(rng, n, n, 5)
        if det(B) == 0:
            continue
        G = la.mat_mul(la.transpose(B), B)
        assert any(x.denominator > 1 for row in G for x in row)
        _assert_lll_reduced(G, *gram_lll(G))
    # compound Gram matrices of random rank-6 lattices, dimensions 6, 15, 20
    for k in (1, 2, 3):
        G = compound_matrix(random_spd_matrix(rng, 6, 3), k)
        _assert_lll_reduced(G, *gram_lll(G))
    # already-reduced input comes back unchanged with U = identity
    for n in (1, 3, 5, 15):
        G = random_spd_matrix(rng, n, 3) if n < 6 else compound_matrix(
            random_spd_matrix(rng, 6, 3), 2
        )
        Gred, _U, _gso = gram_lll(G)
        again, U, _gso = gram_lll(Gred)
        assert U == [[int(i == j) for j in range(n)] for i in range(n)]
        assert again == Gred


def test_short_vectors_against_box_oracle():
    rng = random.Random(97)
    for _ in range(25):
        n = rng.randrange(1, 4)
        G = random_spd_matrix(rng, n, 3)
        bound = Fraction(rng.randrange(1, 40))
        got = {v: norm for v, norm in short_vectors_gram(G, bound)}
        want = box_short_vectors(G, bound)
        assert got == want


def test_enumeration_deeper_than_the_recursion_limit():
    # the walk keeps per-level state instead of recursing, so a profile
    # deeper than the interpreter's recursion limit is enumerated: the
    # identity Gram matrix of dimension 1500 within radius 1 has the 1500
    # unit vectors, sorted by (norm, vector)
    n = 1500
    assert n > sys.getrecursionlimit()
    zero = [0] * n  # lam is read below the diagonal only, and is zero there
    out = la._fincke_pohst(None, la.Profile([zero] * n, [1] * n, [1] * n), 1)
    assert out == [(tuple(int(i == j) for j in range(n)), Fraction(1)) for i in reversed(range(n))]


def test_short_vectors_diag_frozen():
    G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(4)]]
    out = short_vectors_gram(G, Fraction(4))
    assert out == [
        ((1, 0), Fraction(1)),
        ((0, 1), Fraction(4)),
        ((2, 0), Fraction(4)),
    ]


def test_primitive_vector():
    assert la.primitive_vector([-2, 4, -6]) == [1, -2, 3]
    assert la.primitive_vector([0, 0]) == [0, 0]
    assert la.primitive_vector([0, -5]) == [0, 1]


def _lll_cases(rng):
    """Seeded Gram matrices for the oracle cross-checks: integer, rational
    with denominators > 1, compounds of dimension 6, 15 and 20, and
    already-reduced input."""
    cases = [random_spd_matrix(rng, n) for n in (1, 2, 3, 4, 5, 6) for _ in range(3)]
    while len(cases) < 30:
        n = rng.randrange(2, 7)
        B = rand_matrix(rng, n, n, 5)
        if det(B) != 0:
            cases.append(la.mat_mul(la.transpose(B), B))
    assert sum(any(x.denominator > 1 for row in G for x in row) for G in cases) >= 10
    for k in (1, 2, 3):
        cases.append(compound_matrix(random_spd_matrix(rng, 6, 3), k))
    cases += [gram_lll(G)[0] for G in cases[-4:]]
    return cases


def test_integral_lll_matches_fraction_oracle():
    # U, Gred and the Gram-Schmidt data of the integral LLL equal those of
    # the rational sweep; the enumeration on (U, gso) equals the Fraction
    # Fincke-Pohst on Gred for bound 0, a realized norm (the tight radius
    # of mu_max), a bound with a denominator and a negative bound
    rng = random.Random(433)
    sizes, swapped, found = set(), 0, 0
    for G in _lll_cases(rng):
        n = len(G)
        scaled, U, gso = gram_lll(G)
        want_Gred, want_U = fraction_gram_lll(G)
        assert all(type(x) is int for row in scaled for x in row)
        assert U == want_U and scaled == [[x * gso.den for x in row] for row in want_Gred]
        Gred = [[Fraction(x, gso.den) for x in row] for row in scaled]
        L, d = fraction_ldl(Gred)
        assert [[Fraction(gso.lam[i][j], gso.D[j + 1]) for j in range(i)] for i in range(n)] == [
            L[i][:i] for i in range(n)
        ]
        assert [Fraction(gso.D[i + 1], gso.D[i] * gso.den) for i in range(n)] == d
        assert len(gso.D) == n + 1 and gso.D[0] == 1
        sizes.add(n)
        swapped += U != [[int(i == j) for j in range(n)] for i in range(n)]
        tight = min(Gred[i][i] for i in range(n))
        bounds = [Fraction(0), tight, tight + Fraction(1, 3), Fraction(-1, 2)]
        if n <= 6:
            bounds.append(Fraction(rng.randrange(1, 60), rng.choice(DENOMINATORS)))
        for bound in bounds:
            got = la.short_vectors_reduced(U, gso, bound)
            assert got == fraction_short_vectors_reduced(Gred, U, bound)
            assert all(type(norm) is Fraction for _v, norm in got)
            found += len(got)
    assert {1, 6, 15, 20} <= sizes and swapped >= 20 and found >= 200
    assert gram_lll([]) == ([], [], la.GSO([], [1], 1))
    assert la.short_vectors_reduced([], la.GSO([], [1], 1), 5) == []
