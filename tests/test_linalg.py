"""Exact linear algebra helpers against independent oracles."""

from fractions import Fraction
import random

import pytest

from slopelab import linalg as la

from oracles import (
    box_short_vectors,
    cofactor_det,
    fraction_det,
    fraction_gram_lll,
    fraction_inverse,
    fraction_ldl,
    fraction_rref,
    fraction_short_vectors_reduced,
    fraction_solve_square,
    intersect_row_spaces,
    mat_eq,
    random_spd_matrix,
    random_unimodular,
    sum_row_spaces,
    wedge_of_columns,
)


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
            assert la.det(M) == fraction_det(M)
            assert type(la.det(M)) is Fraction
            b = [rng.choice((rng.randrange(-5, 6), Fraction(rng.randrange(-5, 6), 4))) for _ in range(n)]
            inv, sol = outcome(la.inverse, M), outcome(la.solve_square, M, b)
            assert inv == outcome(fraction_inverse, M)
            assert sol == outcome(fraction_solve_square, M, b)
            singular += la.det(M) == 0
    assert checked >= 500 and singular >= 50
    assert la.det([]) == 1 and la.rank([]) == 0 and la.inverse([]) == []


def test_ldl_matches_fraction_oracle():
    rng = random.Random(409)
    for _ in range(60):
        n = rng.randrange(1, 8)
        B = mixed_matrix(rng, n, n)
        if la.det(B) == 0:
            continue
        G = la.mat_mul(la.transpose(B), B)
        # ldl reads the lower triangle only, so the upper one may be anything
        if rng.random() < 0.5:
            for i in range(n):
                for j in range(i + 1, n):
                    G[i][j] = Fraction(rng.randrange(-50, 50), 7)
        assert la.ldl(G) == fraction_ldl(G)
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
                la.ldl(G)
            lead = [row[:j] for row in G[:j]]
            assert la.ldl(lead) == fraction_ldl(lead)
            assert not la.is_positive_definite(G)


def test_compound_matrix_against_cofactor_minors():
    rng = random.Random(419)
    for _ in range(12):
        n = rng.randrange(1, 6)
        M = mixed_matrix(rng, n, n)
        S = [[M[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        for A in (M, S):
            for k in range(1, n + 1):
                subsets = la.k_subsets(n, k)
                want = [[cofactor_det([[A[i][j] for j in J] for i in I]) for J in subsets] for I in subsets]
                got = la.compound_matrix(A, k)
                assert got == want
                assert all(type(x) is Fraction for row in got for x in row)


def test_det_against_cofactor_oracle():
    rng = random.Random(41)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            M = rand_matrix(rng, n, n)
            assert la.det(M) == cofactor_det(M)
    assert la.det([]) == 1


def test_inverse_and_solve():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(1, 5)
        M = rand_matrix(rng, n, n)
        if la.det(M) == 0:
            continue
        assert mat_eq(la.mat_mul(M, la.inverse(M)), la.identity(n))
        b = [Fraction(rng.randrange(-9, 10)) for _ in range(n)]
        x = la.solve_square(M, b)
        assert la.mat_vec(M, x) == b
    with pytest.raises(la.SingularMatrixError):
        la.inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


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
        K = la.kernel(M, n)
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


def test_compound_multiplicative():
    # Cauchy-Binet: C_k(AB) = C_k(A) C_k(B)
    rng = random.Random(67)
    for k in (1, 2, 3):
        for _ in range(10):
            A = rand_matrix(rng, 4, 4, 3)
            B = rand_matrix(rng, 4, 4, 3)
            lhs = la.compound_matrix(la.mat_mul(A, B), k)
            rhs = la.mat_mul(la.compound_matrix(A, k), la.compound_matrix(B, k))
            assert mat_eq(lhs, rhs)
    G = rand_matrix(rng, 3, 3)
    assert mat_eq(la.compound_matrix(G, 1), G)


def test_wedge_norm_identity():
    # |b_1 /\ ... /\ b_k|^2 under the compound Gram equals det(B^T G B)
    rng = random.Random(71)
    for _ in range(30):
        r = rng.randrange(2, 5)
        k = rng.randrange(1, r + 1)
        G = random_spd_matrix(rng, r, 4)
        B = [[Fraction(rng.randrange(-3, 4)) for _ in range(k)] for _ in range(r)]
        w = wedge_of_columns(B, k)
        C = la.compound_matrix(G, k)
        lhs = la.vec_dot(w, la.mat_vec(C, w))
        BtGB = la.mat_mul(la.transpose(B), la.mat_mul(G, B))
        assert lhs == la.det(BtGB)


def test_hnf_rows_canonical():
    rng = random.Random(73)
    for _ in range(50):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        H = la.hnf_rows(A)
        # same row lattice: mutual integer membership via rational rref
        assert la.rref(A)[0] == la.rref(H)[0] if H else la.rank(A) == 0
        assert la.hnf_rows(H) == H
        U = random_unimodular(rng, m)
        UA = la.mat_mul(U, A)
        assert la.hnf_rows(la.int_rows(UA)) == H


def test_hnf_pivot_normalization():
    H = la.hnf_rows([[2, 4], [0, 3]])
    # pivots positive, entry above pivot reduced into [0, pivot)
    assert H == [[2, 1], [0, 3]]


def test_int_diagonalize_properties():
    rng = random.Random(79)
    for _ in range(50):
        r = rng.randrange(1, 5)
        k = rng.randrange(1, r + 1)
        B = [[rng.randrange(-6, 7) for _ in range(k)] for _ in range(r)]
        Uinv, d = la.int_diagonalize(B)
        assert abs(la.det(Uinv)) == 1
        assert all(x > 0 for x in d)
        assert len(d) == la.rank(B)
        # Q-column span of B equals span of the first len(d) columns of Uinv
        first = [[Fraction(Uinv[i][j]) for j in range(len(d))] for i in range(r)]
        assert la.rref(la.transpose(B))[0] == la.rref(la.transpose(first))[0]


def test_ldl():
    rng = random.Random(83)
    for _ in range(30):
        n = rng.randrange(1, 6)
        G = random_spd_matrix(rng, n)
        L, d = la.ldl(G)
        D = [[d[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        assert mat_eq(la.mat_mul(L, la.mat_mul(D, la.transpose(L))), G)
        assert all(x > 0 for x in d)
    with pytest.raises(la.SingularMatrixError):
        la.ldl([[Fraction(0)]])


def test_positive_definite_check():
    assert la.is_positive_definite([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert not la.is_positive_definite([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert not la.is_positive_definite([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]])
    assert not la.is_positive_definite([[0, 1], [1, 0]])
    # non-symmetric with positive leading minors
    assert not la.is_positive_definite([[2, 1], [0, 2]])
    # positive semidefinite: B^T B with a singular B
    assert not la.is_positive_definite([[1, 1], [1, 1]])
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert not la.is_positive_definite([[quarter, half, 0], [half, 1, 0], [0, 0, 3]])
    # Sylvester's criterion over Fraction determinants on random symmetric input
    rng = random.Random(421)
    verdicts = set()
    for _ in range(60):
        n = rng.randrange(1, 6)
        M = mixed_matrix(rng, n, n)
        S = [[M[max(i, j)][min(i, j)] + (2 * n if i == j else 0) for j in range(n)] for i in range(n)]
        want = all(fraction_det([row[:t] for row in S[:t]]) > 0 for t in range(1, n + 1))
        assert la.is_positive_definite(S) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def _assert_lll_reduced(G, Gred, U, _gso):
    n = len(G)
    assert abs(la.det([[Fraction(x) for x in row] for row in U])) == 1
    assert mat_eq(Gred, la.mat_mul(la.transpose(U), la.mat_mul(G, U)))
    assert la.det(Gred) == la.det(G)
    # verify the reduction conditions on the output
    L, d = la.ldl(Gred)
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
        _assert_lll_reduced(G, *la.gram_lll(G))
    # rational Gram matrices with denominators > 1
    for _ in range(15):
        n = rng.randrange(2, 6)
        B = rand_matrix(rng, n, n, 5)
        if la.det(B) == 0:
            continue
        G = la.mat_mul(la.transpose(B), B)
        assert any(x.denominator > 1 for row in G for x in row)
        _assert_lll_reduced(G, *la.gram_lll(G))
    # compound Gram matrices of random rank-6 lattices, dimensions 6, 15, 20
    for k in (1, 2, 3):
        G = la.compound_matrix(random_spd_matrix(rng, 6, 3), k)
        _assert_lll_reduced(G, *la.gram_lll(G))
    # already-reduced input comes back unchanged with U = identity
    for n in (1, 3, 5, 15):
        G = random_spd_matrix(rng, n, 3) if n < 6 else la.compound_matrix(
            random_spd_matrix(rng, 6, 3), 2
        )
        Gred, _U, _gso = la.gram_lll(G)
        again, U, _gso = la.gram_lll(Gred)
        assert U == [[int(i == j) for j in range(n)] for i in range(n)]
        assert again == Gred


def test_short_vectors_against_box_oracle():
    rng = random.Random(97)
    for _ in range(25):
        n = rng.randrange(1, 4)
        G = random_spd_matrix(rng, n, 3)
        bound = Fraction(rng.randrange(1, 40))
        got = {v: norm for v, norm in la.short_vectors_gram(G, bound)}
        want = box_short_vectors(G, bound)
        assert got == want


def test_short_vectors_diag_frozen():
    G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(4)]]
    out = la.short_vectors_gram(G, Fraction(4))
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
        if la.det(B) != 0:
            cases.append(la.mat_mul(la.transpose(B), B))
    assert sum(any(x.denominator > 1 for row in G for x in row) for G in cases) >= 10
    for k in (1, 2, 3):
        cases.append(la.compound_matrix(random_spd_matrix(rng, 6, 3), k))
    cases += [la.gram_lll(G)[0] for G in cases[-4:]]
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
        Gred, U, gso = la.gram_lll(G)
        want_Gred, want_U = fraction_gram_lll(G)
        assert U == want_U and Gred == want_Gred
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
    assert la.gram_lll([]) == ([], [], la.GSO([], [1], 1))
    assert la.short_vectors_reduced([], la.GSO([], [1], 1), 5) == []
