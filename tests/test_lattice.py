import ast
import gc
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb, gcd, inf, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from slopelab import lattice as lat
from slopelab import linalg as la
from slopelab.exactnum import Interval, LogValue, Order, approximate, compare, log_of, rat_to_str
from slopelab.harness import random_lattice
from oracles import (
    NotSaturatedError,
    basis_completion,
    best_slope_witness_det,
    box_short_vectors,
    canonical,
    compound_matrix,
    det,
    diagonal_is_saturated,
    diagonal_saturate,
    elimination_decomposable_kernel,
    fraction_rank_candidates,
    fraction_morphism_height,
    gram_lll,
    gso_of,
    inclusive_hull_radius,
    inclusive_rank_candidates,
    inclusive_steepest_radius,
    inverse,
    lll_sweep,
    quotient_bundle,
    random_spd_matrix,
    random_unimodular,
    recursive_fincke_pohst,
    recursive_hn_filtration,
    short_vectors_gram,
    sub_bundle,
    sub_degree,
    sub_det,
    unit_lattice,
    unpruned_rank_candidates,
)


def frozen(rows):
    return lat.Lattice.from_rows(rows)


def _empty_tables():
    # the (n, k) subset tables live for the whole process; a test that
    # empties them first cannot pass only on tables another test built
    la._subset_table.cache_clear()


# ---------------------------------------------------------------------------
# degrees of fixed instances (hand-checked determinants)


def test_degree_frozen_values():
    assert lat.degree(frozen([[1, 0], [0, 4]])) == log_of(2, Fraction(-1))
    # det 324 = 2^2 * 3^4
    assert lat.degree(frozen([[9, 0], [0, 36]])) == LogValue.from_map(
        {2: Fraction(-1), 3: Fraction(-2)}
    )
    assert lat.degree(unit_lattice(3)).is_zero
    assert lat.degree(lat.Lattice(0, ())).is_zero


def test_slope_frozen():
    L = frozen([[1, 0], [0, 4]])
    assert lat.slope(L) == log_of(2, Fraction(-1, 2))
    with pytest.raises(ValueError):
        lat.slope(lat.Lattice(0, ()))


def test_gram_must_be_positive_definite():
    with pytest.raises(ValueError):
        frozen([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        frozen([[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        frozen([[1, 1], [0, 1]])  # not symmetric


def test_duality_and_products_random():
    rng = random.Random(412)
    for _ in range(40):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 3)
        L = lat.Lattice.from_rows(random_spd_matrix(rng, n, 3))
        M = lat.Lattice.from_rows(random_spd_matrix(rng, m, 3))
        assert lat.degree(lat.dual(L)) == -lat.degree(L)
        assert lat.degree(lat.direct_sum(L, M)) == lat.degree(L) + lat.degree(M)
        expect = lat.degree(L).scaled(Fraction(m)) + lat.degree(M).scaled(Fraction(n))
        assert lat.degree(lat.tensor(L, M)) == expect


def test_exterior_power_degree_random():
    rng = random.Random(413)
    for _ in range(20):
        n = rng.randrange(2, 5)
        L = lat.Lattice.from_rows(random_spd_matrix(rng, n, 2))
        for k in range(1, n + 1):
            binom = 1
            for t in range(k - 1):
                binom = binom * (n - 1 - t) // (t + 1)
            got = lat.degree(lat.exterior_power(L, k))
            assert got == lat.degree(L).scaled(Fraction(binom))


def test_degree_invariant_under_unimodular_change():
    rng = random.Random(414)
    for _ in range(25):
        n = rng.randrange(1, 4)
        G = random_spd_matrix(rng, n, 3)
        U = random_unimodular(rng, n)
        Gu = la.mat_mul(la.transpose(la.frac_rows(U)), la.mat_mul(G, la.frac_rows(U)))
        A, B = lat.Lattice.from_rows(G), lat.Lattice.from_rows(Gu)
        assert lat.degree(A) == lat.degree(B)
        assert lat.udeg_max(A)[0] == lat.udeg_max(B)[0]
        assert lat.mu_max(A)[0] == lat.mu_max(B)[0]


# ---------------------------------------------------------------------------
# sublattices: saturation, metrized subquotients


def test_saturate_frozen():
    U = unit_lattice(2)
    S = lat.SubLattice.from_columns(U, [[2, 4]])
    assert lat.saturate(S).basis == ((1,), (2,))
    S2 = lat.SubLattice.from_columns(U, [[2, 0], [0, 2]])
    sat = lat.saturate(S2)
    assert sat.basis == ((1, 0), (0, 1))
    assert lat.is_saturated(sat)
    assert not lat.is_saturated(S2)


def test_basis_completion_unimodular():
    rng = random.Random(415)
    for _ in range(30):
        n = rng.randrange(2, 5)
        k = rng.randrange(1, n)
        L = lat.Lattice.from_rows(random_spd_matrix(rng, n, 2))
        cols = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(k)]
        if la.rank(la.frac_rows(cols)) < k:
            continue
        S = lat.saturate(lat.SubLattice.from_columns(L, cols))
        C = basis_completion(S)
        full = [list(S.basis[i]) + list(C[i]) for i in range(n)]
        assert abs(det(la.frac_rows(full))) == 1
    with pytest.raises(NotSaturatedError):
        basis_completion(
            lat.SubLattice.from_columns(unit_lattice(2), [[2, 0]])
        )


def test_quotient_frozen_schur():
    U = unit_lattice(2)
    S = lat.SubLattice.from_columns(U, [[1, 1]])
    Q = quotient_bundle(S)
    assert Q.rank == 1 and Q.gram[0][0] == Fraction(1, 2)
    with pytest.raises(NotSaturatedError):
        quotient_bundle(lat.SubLattice.from_columns(U, [[2, 0]]))


def test_short_exact_sequence_degree_additivity():
    rng = random.Random(416)
    for _ in range(60):
        n = rng.randrange(2, 5)
        k = rng.randrange(1, n + 1)
        L = lat.Lattice.from_rows(random_spd_matrix(rng, n, 3))
        cols = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(k)]
        if la.rank(la.frac_rows(cols)) < k:
            continue
        S = lat.saturate(lat.SubLattice.from_columns(L, cols))
        total = lat.degree(sub_bundle(S)) + lat.degree(quotient_bundle(S))
        assert total == lat.degree(L)


def test_hermite_sublattices_match_diagonalization_oracle():
    """saturate, is_saturated, basis_completion and sub_degree on 300
    seeded bases against the two-sided diagonalization and the Fraction
    sub_bundle.  Every fourth basis gets a column scaled by 2 or 3, and
    both saturated and non-saturated inputs occur at every ambient rank."""
    rng = random.Random(10)
    seen = set()
    checked = 0
    while checked < 300:
        r = 1 + checked % 6
        k = rng.randint(1, r)
        cols = [[rng.randint(-6, 6) for _ in range(r)] for _ in range(k)]
        if checked % 4 == 0:
            cols[-1] = [rng.choice((2, 3)) * x for x in cols[-1]]
        if la.rank(cols) < k:
            continue
        checked += 1
        L = lat.Lattice.from_rows(random_spd_matrix(rng, r, 3))
        S = lat.SubLattice.from_columns(L, cols)
        sat = lat.saturate(S)
        assert sat == diagonal_saturate(S)
        saturated = lat.is_saturated(S)
        assert saturated == diagonal_is_saturated(S)
        assert lat.is_saturated(sat)
        seen.add((r, saturated))
        C = basis_completion(sat)
        full = [list(sat.basis[i]) + list(C[i]) for i in range(r)]
        assert abs(det(full)) == 1
        if not saturated:
            with pytest.raises(NotSaturatedError):
                basis_completion(S)
        for T in (S, sat):
            assert sub_degree(T) == lat.degree(sub_bundle(T))
    assert seen == {(r, b) for r in range(1, 7) for b in (True, False)}


@st.composite
def saturated_sublattices(draw):
    r = draw(st.integers(1, 5))
    entries = st.integers(-4, 4)
    B = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r))
    assume(det(B) != 0)
    L = lat.Lattice.from_rows(la.mat_mul(la.transpose(B), B))
    k = draw(st.integers(1, r))
    cols = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=k, max_size=k))
    assume(la.rank(cols) == k)
    return L, lat.saturate(lat.SubLattice.from_columns(L, cols))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(saturated_sublattices())
def test_degree_is_additive_in_short_exact_sequences(case):
    """deg L = deg S + deg L/S for a saturated S, with deg S from sub_det
    and L/S under the quotient metric."""
    L, S = case
    assert lat.degree(L) == sub_degree(S) + lat.degree(quotient_bundle(S))


def test_short_vectors_frozen():
    L = frozen([[1, 0], [0, 4]])
    assert lat.short_vectors(L, 4) == [
        ((1, 0), Fraction(1)),
        ((0, 1), Fraction(4)),
        ((2, 0), Fraction(4)),
    ]


def test_short_vectors_match_box_oracle():
    rng = random.Random(417)
    for _ in range(20):
        n = rng.randrange(1, 4)
        G = random_spd_matrix(rng, n, 3)
        bound = Fraction(min(G[i][i] for i in range(n)))
        got = dict(lat.short_vectors(lat.Lattice.from_rows(G), bound))
        assert got == box_short_vectors(G, bound)


# ---------------------------------------------------------------------------
# minimal vectors and maximal slopes


def test_udeg_max_frozen():
    val, wit = lat.udeg_max(frozen([[1, 0], [0, 4]]))
    assert val.is_zero and wit == (1, 0)
    val, wit = lat.udeg_max(frozen([[4, 0], [0, 9]]))
    assert val == log_of(2, Fraction(-1)) and wit == (1, 0)
    # det-one lattice with two minimal vectors; lexicographic witness
    val, wit = lat.udeg_max(frozen([[5, 3], [3, 2]]))
    assert val.is_zero and wit == (1, -2)


def test_mu_max_frozen():
    val, S = lat.mu_max(frozen([[1, 0], [0, 4]]))
    assert val.is_zero and S.basis == ((1,), (0,))
    val, S = lat.mu_max(frozen([[4, 0], [0, 9]]))
    assert val == log_of(2, Fraction(-1)) and S.basis == ((1,), (0,))


def test_mu_max_matches_exhaustive_oracle():
    _empty_tables()
    rng = random.Random(418)
    for _ in range(30):
        n = rng.randrange(1, 4)
        G = random_spd_matrix(rng, n, 2)
        k, d = best_slope_witness_det(G)
        expect = log_of(d, Fraction(-1, 2 * k))
        val, S = lat.mu_max(lat.Lattice.from_rows(G))
        assert val == expect
        # the witness realizes the value and is saturated
        assert lat.is_saturated(S)
        assert lat.slope(sub_bundle(S)) == val


def test_mu_max_witness_ties_prefer_small_rank():
    val, S = lat.mu_max(unit_lattice(3))
    assert val.is_zero and S.rank == 1


def test_mu_max_rank_limit_bracket():
    L = frozen([[1, 0], [0, 4]])
    with pytest.raises(lat.ExactSearchUnavailable) as err:
        lat.mu_max(L, rank_limit=1)
    info = err.value
    assert compare(info.best_found, info.upper_bound) is not Order.GT
    # the bracket must contain the true value
    true_val, _ = lat.mu_max(L)
    assert compare(info.best_found, true_val) is not Order.GT
    assert compare(true_val, info.upper_bound) is not Order.GT


# Seeded tensor lattices A (x) B of ranks 4 and 6: (seed, factor ranks,
# mu_max, its witness basis, udeg_max, its witness), with values as
# prime -> coefficient maps.  Witness ranks 1, 2 and 3 all occur.
TENSOR_FROZEN = [
    (5, (2, 2), {3: "-1"}, ((1,), (1,), (1,), (1,)), {3: "-1"}, (1, 1, 1, 1)),
    (7, (2, 2), {2: "-1"}, ((1,), (-1,), (0,), (0,)), {2: "-1"}, (1, -1, 0, 0)),
    (8, (2, 2), {2: "-2", 3: "-1/2"}, ((1, 0), (0, 1), (0, 0), (0, 0)),
     {2: "-1", 13: "-1/2"}, (0, 1, 0, 0)),
    (9, (2, 3), {2: "-1/2", 3: "-1/2"}, ((1,), (0,), (1,), (-1,), (0,), (-1,)),
     {2: "-1/2", 3: "-1/2"}, (1, 0, 1, -1, 0, -1)),
    (24, (2, 3), {2: "-7/4"}, ((0, 0), (0, 0), (0, 0), (1, 0), (0, 0), (0, 1)),
     {2: "-1", 3: "-1/2"}, (0, 0, 0, 0, 0, 1)),
    (68, (2, 3), {2: "-4/3"},
     ((0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
     {2: "-3/2"}, (0, 0, 0, 0, 1, 0)),
]


def _log_value(terms):
    return LogValue.from_map({p: Fraction(c) for p, c in terms.items()})


def test_mu_max_tensor_frozen():
    _empty_tables()
    for seed, ranks, mu, basis, udeg, vec in TENSOR_FROZEN:
        rng = random.Random(seed)
        A = random_lattice(ranks[0], 3, rng)
        B = random_lattice(ranks[1], 3, rng)
        T = lat.tensor(A, B)
        val, S = lat.mu_max(T)
        assert val == _log_value(mu) and S.basis == basis
        assert lat.udeg_max(T) == (_log_value(udeg), vec)


# Seeded tensor lattices beyond the exact rank limit: (seed, factor ranks,
# mu_max(T, rank_limit=T.rank), its witness basis), factors drawn in order
# from random.Random(seed) with entry bound 3.  The first five were
# recorded with the per-minor Bareiss compounds and the Fraction
# decomposability kernel, the last three with each compound eliminated
# (_ldl_scaled) before its LLL sweep.
RANK_FRONTIER_FROZEN = [
    (1, (2, 2, 2), {2: "-3/2", 3: "-1", 5: "-1/2"}, ((0,), (1,), (0,), (0,), (0,), (-1,), (0,), (0,))),
    (2, (2, 2, 2), {2: "-1", 5: "-1/2"}, ((0,), (0,), (0,), (0,), (1,), (0,), (0,), (0,))),
    (3, (2, 2, 2), {2: "-1/2"}, ((0,), (1,), (0,), (0,), (0,), (1,), (0,), (0,))),
    (1, (3, 3), {3: "-1"}, ((0,), (0,), (3,), (0,), (0,), (-1,), (0,), (0,), (2,))),
    (3, (3, 3), {2: "-1/2", 5: "-1/2"}, ((0,), (1,), (0,), (0,), (-1,), (0,), (0,), (2,), (0,))),
    (2, (3, 3), {2: "-1/2", 3: "-1/4", 7: "-3/4"},
     ((0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, 0))),
    (4, (3, 3), {2: "-1", 5: "-1/2"}, ((0,), (0,), (0,), (1,), (-1,), (1,), (-1,), (1,), (-1,))),
    (1, (2, 5), {2: "-1", 3: "-1"}, ((1,), (2,), (1,), (-1,), (-1,), (-1,), (-2,), (-1,), (1,), (1,))),
]


def test_mu_max_rank_frontier_frozen():
    _empty_tables()
    for seed, ranks, mu, basis in RANK_FRONTIER_FROZEN:
        rng = random.Random(seed)
        T = random_lattice(ranks[0], 3, rng)
        for r in ranks[1:]:
            T = lat.tensor(T, random_lattice(r, 3, rng))
        val, S = lat.mu_max(T, rank_limit=T.rank)
        assert val == _log_value(mu) and S.basis == basis


# Seeded rank-12 tensors, as in RANK_FRONTIER_FROZEN, recorded with the
# unpruned candidate pass of the oracles (every compound enumerated within
# min diag T_k, with no LLL sweep and no pruning by the best slope).
RANK_TWELVE_FROZEN = [
    (1, (3, 4), {3: "-1"}, ((3,), (0,), (0,), (0,), (-1,), (0,), (0,), (0,), (2,), (0,), (0,), (0,))),
    (1, (2, 6), {3: "-3/2"}, ((2,), (1,), (-2,), (0,), (0,), (-2,), (-2,), (-1,), (2,), (0,), (0,), (2,))),
    (1, (2, 2, 3), {2: "-1/2", 3: "-1", 5: "-1/2"}, ((0,), (1,), (1,), (0,), (0,), (0,), (0,), (-1,), (-1,), (0,), (0,), (0,))),
]


def test_mu_max_rank_twelve_frozen():
    _empty_tables()
    for seed, ranks, mu, basis in RANK_TWELVE_FROZEN:
        rng = random.Random(seed)
        T = random_lattice(ranks[0], 3, rng)
        for r in ranks[1:]:
            T = lat.tensor(T, random_lattice(r, 3, rng))
        val, S = lat.mu_max(T, rank_limit=T.rank)
        assert val == _log_value(mu) and S.basis == basis


# Seeded tensors of rank 14 and 16, built as in RANK_FRONTIER_FROZEN at
# seed 1: (factor ranks, mu_max(T, rank_limit=T.rank)), the values first
# measured with the recursive enumeration under a raised recursion limit.
RANK_SIXTEEN = [
    ((2, 7), {2: "-1/2", 3: "-3/2"}),
    ((4, 4), {3: "-1"}),
    ((2, 2, 4), {2: "-1", 3: "-1", 5: "-1/2"}),
    ((2, 2, 2, 2), {2: "-3/2", 3: "-2", 5: "-1/2"}),
]


def test_mu_max_rank_frontier_past_twelve():
    """The seeded rank-14 and rank-16 tensors have the recorded mu_max, and
    each witness has that slope."""
    _empty_tables()
    for ranks, mu in RANK_SIXTEEN:
        rng = random.Random(1)
        T = random_lattice(ranks[0], 3, rng)
        for r in ranks[1:]:
            T = lat.tensor(T, random_lattice(r, 3, rng))
        val, S = lat.mu_max(T, rank_limit=T.rank)
        assert val == _log_value(mu)
        assert sub_degree(S) / S.rank == val
    _empty_tables()  # the rank-16 tables are large; later tests build their own


def _is_lll_reduced(gso):
    """Size-reduced (2 |lam_kl| <= D_{l+1}) and Lovasz with 3/4, on the
    integer GSO."""
    lam, D, _den = gso
    size = all(2 * abs(x) <= D[l + 1] for row in lam for l, x in enumerate(row))
    return size and all(4 * (D[k + 1] * D[k - 1] + lam[k][k - 1] ** 2) >= 3 * D[k] ** 2 for k in range(1, len(lam)))


def test_tensor_reduction_starts_from_the_factors(monkeypatch):
    """tensor reduces each factor from its stored pair (_reduced), reads
    the GSO of the product of their reduced bases off theirs with one
    la._kron_gso, and sweeps once: no elimination, and the factors'
    stored data are left as they were.  The basis it stores is unimodular
    and LLL-reduced, its ldl is the LDL data of U^T (den G) U over T.den,
    the product of the factors' den less the common factor tensor divides
    out, and _reduced(T) gives that pair back with one sweep that changes
    nothing.  Its mu_max is that of the same Gram matrix in the standard
    basis.  Two and three factors, duals (rational Gram matrices) and rank
    one; a part of the starts are reduced already and a part are not, and
    a part of the tensors divide a common factor out."""
    rng = random.Random(446)
    started_reduced = swept = divided = 0
    ldl, sweeps, kron = [], [], []
    real_ldl, real_sweep, real_kron = la._ldl_scaled, la._lll_from, la._kron_gso
    monkeypatch.setattr(la, "_ldl_scaled", lambda G: (ldl.append(len(G)), real_ldl(G))[1])
    monkeypatch.setattr(la, "_lll_from", lambda gso, U: (sweeps.append(len(gso.D) - 1), real_sweep(gso, U))[1])
    monkeypatch.setattr(la, "_kron_gso", lambda g1, g2: (kron.append(len(g1.lam) * len(g2.lam)), real_kron(g1, g2))[1])
    for t in range(120):
        ranks = [(2, 2), (2, 3), (1, 3), (3, 1), (2, 1, 2), (1, 1, 1)][t % 6]
        factors = [random_lattice(r, 3, rng) for r in ranks]
        factors = [lat.dual(L) if (t + i) % 3 == 0 else L for i, L in enumerate(factors)]
        before = [(L.basis, L.ldl) for L in factors]
        for log in (ldl, sweeps, kron):
            log.clear()
        T, folds = factors[0], []
        for L in factors[1:]:
            folds.append((T.rank, L.rank))
            T = lat.tensor(T, L)
        assert ldl == [] and [(L.basis, L.ldl) for L in factors] == before
        assert kron == [a * b for a, b in folds]
        assert sweeps == [x for a, b in folds for x in (a, b, a * b)]
        den = math.prod(L.den for L in factors)
        divided += den > T.den
        assert den % T.den == 0
        U = [list(row) for row in T.basis]
        assert abs(det(U)) == 1
        assert lat._gso(T) == gso_of(la.mat_mul(la.transpose(U), la.mat_mul(T.rows, U)))._replace(den=T.den)
        assert _is_lll_reduced(lat._gso(T))
        sweeps.clear()
        assert lat._reduced(T) == (U, lat._gso(T)) and sweeps == [T.rank]
        if len(ranks) == 2:
            start = real_kron(*[lat._reduced(L)[1] for L in factors])
            started_reduced += _is_lll_reduced(start)
            swept += not _is_lll_reduced(start)
        assert lat.mu_max(T) == lat.mu_max(lat.Lattice.from_json(T.to_json()))
    assert started_reduced >= 10 and swept >= 10 and divided >= 10


def _root_lattice(kind, n):
    """The root lattice A_n or D_4 on its simple roots (Cartan matrix)."""
    if kind == "A":
        return lat.Lattice.from_rows([[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)])
    return lat.Lattice.from_rows([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])


def test_semistable_root_products_frozen():
    """A3 (x) A3 and A2 (x) D4 are semistable: mu_max is the slope, with the
    full lattice as witness (recorded with the unpruned oracle), and the HN
    filtration is the one step of the full lattice."""
    _empty_tables()
    for a, b in ((("A", 3), ("A", 3)), (("A", 2), ("D", 4))):
        T = lat.tensor(_root_lattice(*a), _root_lattice(*b))
        val, S = lat.mu_max(T, rank_limit=T.rank)
        assert val == lat.slope(T)
        assert S.basis == tuple(tuple(int(i == j) for j in range(T.rank)) for i in range(T.rank))
        hn = lat.hn_filtration(T, rank_limit=T.rank)
        assert hn.is_semistable and hn.slopes == (val,)


def _counting_nodes(monkeypatch, run, U, basis, bound):
    """(run(), its nodes) for a run that makes the one enumeration
    la._fincke_pohst(U, basis, bound), checked against the recursive
    enumeration of the oracle: the same vectors, and as many nodes.  The
    nodes are those below the root, interior levels and leaves.  The
    library builds no Fraction per node: it calls isqrt once per interior
    level entered, the root included, and its leaves are the vectors it
    returns and the zero vector, so its nodes are its isqrt calls plus
    the vectors it returns."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return isqrt(x)

    monkeypatch.setattr(la, "isqrt", counted)
    try:
        found = run()
    finally:
        monkeypatch.setattr(la, "isqrt", isqrt)
    want, nodes = recursive_fincke_pohst(U, basis, bound)
    assert found == want
    assert calls[0] + len(found) == nodes
    return found, nodes


def _structure_watch(monkeypatch):
    """Patch the reduction, compound and enumeration steps of the candidate
    pass with recorders: the size of each reduced Gram matrix formed
    (_congruent), LLL sweep (_lll_from),
    enumeration and _ldl_scaled, the levels of each _compound_gso walk, the name of
    every elimination run inside a compound GSO level or an enumeration,
    every call of the Laplace tower, the (level
    dimension, node count) of each enumeration of an exterior power, and
    the minors store of each."""
    log = {name: [] for name in ("gram", "sweep", "short", "ldl", "gso", "eliminated_inside", "tower", "nodes", "minors")}
    depth = [0]
    real = {name: getattr(la, name) for name in (
        "_congruent", "_lll_from", "_fincke_pohst", "_ldl_scaled", "_eliminate",
        "_compound_gso", "_compound_tower",
    )}

    def recording(name, key, size, watched=False):
        fn = real[name]

        def recorded(*args, **kwargs):
            log[key].append(size(*args))
            depth[0] += watched
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= watched

        return recorded

    def eliminating(name, key=None):
        fn = real[name]

        def watched(*args, **kwargs):
            if key:
                log[key].append(len(args[0]))
            if depth[0]:
                log["eliminated_inside"].append(name)
            return fn(*args, **kwargs)

        return watched

    def compound_gso(gso, top):
        # a generator: its levels are built inside next()
        log["gso"].append([])
        levels = real["_compound_gso"](gso, top)
        while True:
            depth[0] += 1
            try:
                level = next(levels, None)
            finally:
                depth[0] -= 1
            if level is None:
                return
            log["gso"][-1].append(level[0])
            yield level

    def never(name):
        def called(*args, **kwargs):
            log["tower"].append(name)
            return real[name](*args, **kwargs)

        return called

    enumerate_ = recording("_fincke_pohst", "short", lambda U, basis, bound: len(basis.lam), True)

    def counting(U, basis, bound):
        if U is not None:  # the lattice's own enumeration
            return enumerate_(U, basis, bound)
        found, nodes = _counting_nodes(monkeypatch, lambda: enumerate_(U, basis, bound), U, basis, bound)
        log["nodes"].append((len(basis.lam), nodes))
        log["minors"].append(basis.lam)
        return found

    monkeypatch.setattr(la, "_congruent", recording("_congruent", "gram", lambda A, U: len(A)))
    monkeypatch.setattr(la, "_lll_from", recording("_lll_from", "sweep", lambda gso, U=None: len(gso.D) - 1))
    monkeypatch.setattr(la, "_fincke_pohst", counting)
    monkeypatch.setattr(la, "_ldl_scaled", eliminating("_ldl_scaled", "ldl"))
    monkeypatch.setattr(la, "_eliminate", eliminating("_eliminate"))
    monkeypatch.setattr(la, "_compound_gso", compound_gso)
    monkeypatch.setattr(la, "_compound_tower", never("_compound_tower"))
    return log


def test_one_reduction_per_lattice(monkeypatch):
    # The lattice eliminates once, when it is built (_ldl_scaled, its
    # Sylvester certificate and the seed of every sweep).  mu_max reduces
    # and enumerates the lattice once (udeg and the rank-one candidates
    # share one radius) and each compound of rank 2..r-1 once; udeg_max
    # reduces the lattice once.  Only the lattice's reduction sweeps
    # (_lll_from), starting from the stored basis and data, no reduced Gram
    # matrix is formed, and nothing in mu_max eliminates.  One _compound_gso
    # per lattice reads the GSO of every compound off the lattice's, each
    # level once, and each compound is enumerated from it once, with no
    # sweep of its own, unless its floor, which _walked_levels recomputes,
    # shows that it holds no vector within its radius; no elimination runs
    # on a compound, and neither the Laplace tower nor compound_matrix runs
    # at all.  The radii and the determinant at rank r are read off the
    # lattice's GSO.  A level computes only the minors its enumeration
    # reads and their cofactors.
    _empty_tables()
    log = _structure_watch(monkeypatch)
    rng = random.Random(431)
    computed = lower = 0
    for r in range(1, 7):
        rows = random_spd_matrix(rng, r, 2)
        walked = _walked_levels(lat.Lattice.from_rows(rows), lat._steepest_radius)
        for entries in log.values():
            entries.clear()
        L = lat.Lattice.from_rows(rows)
        assert log["ldl"] == [r] and log["sweep"] == []  # one elimination, at construction
        lat.mu_max(L)
        middle = list(range(2, r))
        assert log["gram"] == []  # no reduced Gram matrix below the rank limit
        assert log["ldl"] == [r]  # and no elimination after the construction's
        assert log["gso"] == ([middle] if middle else [])
        assert log["sweep"] == [r]  # the lattice's own sweep only
        # the lattice, then each compound its floor does not rule out, once
        assert log["short"] == [r] + [comb(r, k) for k in walked]
        assert log["eliminated_inside"] == []
        assert log["tower"] == []
        computed += sum(len(row) for minors in log["minors"] for row in minors.values())
        lower += sum(comb(len(minors), 2) for minors in log["minors"])
        log["sweep"].clear()
        lat.udeg_max(L)
        assert log["sweep"] == [r] and log["ldl"] == [r] and log["gram"] == []
    assert 0 < computed < lower
    # a lattice whose middle levels hold no vector within the radius 1 of
    # its unit line: the floor skips every one of them, which builds no
    # minor and no enumeration
    L = lat.Lattice.from_rows([[int(i == j) * (1 if i == 0 else 96 + i) for j in range(5)] for i in range(5)])
    log["short"].clear()
    val, S = lat.mu_max(L)
    assert val == LogValue.zero() and S.basis == ((1,), (0,), (0,), (0,), (0,))
    assert log["short"] == [5] and _walked_levels(L, lat._steepest_radius) == []


def _replayed_pass(L, gso, every, radius):
    """(the middle ranks walked, the candidates) of the candidate pass of L
    under a radius rule, replayed on the candidates ``every`` that the
    unpruned oracle lists from the reduction with GSO gso.  Rank k keeps
    the oracle's candidates within R_k = min(D[k], radius(k, least)), with
    least replayed from the candidates kept, and is walked when R_k
    reaches the least Gram-Schmidt norm of its level, the product of the
    k least pivots D[i+1] / D[i], taken as Fractions."""
    r, D = L.rank, gso.D
    pivots = sorted(Fraction(D[i + 1], D[i]) for i in range(r))
    least = {r: D[r]}
    kept = [c for c in every if c[0] == 1]
    if kept:
        least[1] = int(kept[0][1])  # a Fraction of denominator 1: den times a norm of G
    walked = []
    for k in range(2, r):
        R = min(D[k], radius(k, least))
        if R >= prod(pivots[:k]):
            walked.append(k)
        within = [c for c in every if c[0] == k and c[1] <= R]
        if within:
            least[k] = int(min(d for _k, d, _cols in within))
        kept += within
    return walked, kept + [c for c in every if c[0] == r > 1]


def _walked_levels(L, radius):
    """The middle ranks whose level the pass of L under the radius rule
    enumerates, replayed on the unpruned oracle."""
    Gred, U, gso = gram_lll(L.gram_rows)
    return _replayed_pass(L, gso, unpruned_rank_candidates(L, U, gso, lat._shortest_reduced(U, gso)), radius)[0]


# ---------------------------------------------------------------------------
# canonical slope filtration


def test_hn_frozen_diag14():
    hn = lat.hn_filtration(frozen([[1, 0], [0, 4]]))
    assert [S.basis for S in hn.chain] == [((1,), (0,)), ((1, 0), (0, 1))]
    assert hn.slopes[0].is_zero
    assert hn.slopes[1] == log_of(2, Fraction(-1))
    assert not hn.is_semistable


def test_hn_frozen_diag114():
    hn = lat.hn_filtration(frozen([[1, 0, 0], [0, 1, 0], [0, 0, 4]]))
    assert len(hn.chain) == 2
    assert hn.chain[0].rank == 2
    assert hn.chain[0].basis == ((1, 0), (0, 1), (0, 0))
    assert hn.slopes[0].is_zero
    assert hn.slopes[1] == log_of(2, Fraction(-1))


def test_hn_semistable_single_step():
    hn = lat.hn_filtration(unit_lattice(3))
    assert hn.is_semistable and hn.chain[0].rank == 3
    assert hn.slopes[0].is_zero


def test_hn_structure_random():
    rng = random.Random(419)
    for _ in range(25):
        n = rng.randrange(1, 5)
        L = lat.Lattice.from_rows(random_spd_matrix(rng, n, 2))
        hn = lat.hn_filtration(L)
        ranks = [S.rank for S in hn.chain]
        assert ranks == sorted(set(ranks)) and ranks[-1] == n
        assert hn.slopes[0] == lat.mu_max(L)[0]
        for a, b in zip(hn.slopes, hn.slopes[1:]):
            assert compare(a, b) is Order.GT
        for S in hn.chain:
            assert lat.is_saturated(S)
        # successive minima reconstruct the degree
        total = LogValue.zero()
        prev = 0
        for S, mu in zip(hn.chain, hn.slopes):
            total = total + mu.scaled(Fraction(S.rank - prev))
            prev = S.rank
        assert total == lat.degree(L)
        # mu_min(L) <= slope(L) <= mu_max(L)
        assert compare(lat.mu_min(L), lat.slope(L)) is not Order.GT
        assert compare(lat.slope(L), lat.mu_max(L)[0]) is not Order.GT


def _conjugate(G, U):
    """Gram matrix U^T G U: the same lattice in the basis of U's columns."""
    return la.mat_mul(la.transpose(U), la.mat_mul(la.frac_rows(G), U))


def test_hn_matches_recursive_oracle():
    """The upper-hull HN against the recursion on quotient metrics, on 300
    seeded lattices of rank 1-6.  Every other one is a unimodular conjugate
    of a diagonal with at least three distinct entries when the rank allows
    it, so that long chains are well represented."""
    rng = random.Random(11)
    long_chains = 0
    for i in range(300):
        r = 1 + i % 6
        if i % 2:
            G = random_spd_matrix(rng, r, 3)
        else:
            values = rng.sample((1, 2, 3, 5, 7), min(r, 3))
            values += [rng.choice(values) for _ in range(r - len(values))]
            diag = [[values[a] if a == b else 0 for b in range(r)] for a in range(r)]
            G = _conjugate(diag, random_unimodular(rng, r, steps=6))
        L = lat.Lattice.from_rows(G)
        hn = lat.hn_filtration(L)
        ref = recursive_hn_filtration(L)
        assert hn.chain == ref.chain
        assert hn.slopes == ref.slopes
        long_chains += len(hn.chain) >= 3
    assert long_chains >= 100


def test_hn_is_one_candidate_pass(monkeypatch):
    # the one reduction, compound walk and candidate pass of mu_max, and no
    # quotient metric (the library has no inverse) at all
    _empty_tables()
    log = _structure_watch(monkeypatch)
    assert not hasattr(la, "inverse")
    rng = random.Random(432)
    for r in range(1, 7):
        diag = [[(1, 4, 16)[a % 3] if a == b else 0 for b in range(r)] for a in range(r)]
        rows = _conjugate(diag, random_unimodular(rng, r, steps=6))
        for entries in log.values():
            entries.clear()
        L = lat.Lattice.from_rows(rows)  # its one elimination
        hn = lat.hn_filtration(L)
        middle = list(range(2, r))
        assert len(hn.chain) == min(r, 3)
        assert log["ldl"] == log["sweep"] == [r] and log["gram"] == []
        assert log["gso"] == ([middle] if middle else [])
        # every middle level is enumerated but rank 5 of rank 6, whose least
        # determinant 1*1*4*4*16 = 256 lies on the chord from (4, 16) to
        # (6, 4096) of the hull (256^2 = 16 * 4096), so it is no vertex: the
        # strict hull radius there is 255, below 256, the product of the five
        # least Gram-Schmidt norms 1, 1, 4, 4, 16, and the floor skips it
        walked = [k for k in middle if (r, k) != (6, 5)]
        assert log["short"] == [r] + [comb(r, k) for k in walked]
        assert log["eliminated_inside"] == log["tower"] == []


# An enumeration of an exterior power, straight from the compound GSO and
# within its pruned radius, may visit at most this many times the nodes
# that the LLL-reduced exterior power visits within min diag T_k.  Measured
# on the inputs below: at most 1.32 with the cap D[k] (1.17 with the cap
# min diag T_k).
TREE_GROWTH_BOUND = 2


def _swept_nodes(monkeypatch, L):
    """Per compound level k = 2..r-1 of L, the nodes of the enumeration of
    the LLL-reduced T_k within min diag T_k, as the pass ran before each
    exterior power went unreduced."""
    Gred = gram_lll(L.gram_rows)[0]
    counts = []
    for k, T, _scale in la._compound_tower(Gred, L.rank - 1):
        if k > 1:
            U, gso = lll_sweep(T)
            radius = min(T[t][t] for t in range(len(T)))
            lam, D, den = gso
            basis = la.Profile(lam, D[1:], [D[i] * D[i + 1] * den for i in range(len(lam))])
            counts.append(_counting_nodes(monkeypatch, lambda: la.short_vectors_reduced(U, gso, radius), U, basis, radius)[1])
    return counts


def test_integer_root_is_the_floor_of_the_root():
    rng = random.Random(444)
    cases = [(x, j) for x in range(40) for j in range(1, 5)]
    cases += [(rng.randrange(10 ** rng.randrange(1, 80)), rng.randrange(1, 12)) for _ in range(400)]
    cases += [(y**j + e, j) for y in (2, 3, 10**9 + 7) for j in (2, 5, 11) for e in (-1, 0, 1)]
    for x, j in cases:
        y = lat._iroot(x, j)
        assert y**j <= x < (y + 1) ** j


def test_compound_tree_size_guard(monkeypatch):
    """On adversarial inputs (entry bound 12, duals, and lattices given in
    skewed bases like SKEWED_Z3), no compound level of mu_max or
    hn_filtration visits more than TREE_GROWTH_BOUND times the nodes of
    the swept enumeration of that level: each level is walked once unless
    its floor, recomputed by _walked_levels, rules it out, and then it
    visits no node."""
    _empty_tables()
    rng = random.Random(443)
    lattices = [lat.Lattice.from_rows(SKEWED_Z3)]
    for i in range(10):
        L = random_lattice(4 + i % 4, 12, rng)
        lattices.append(lat.dual(L) if i % 2 else L)
    for i in range(6):
        r = 4 + i % 3
        skew = random_unimodular(rng, r, steps=6)
        lattices.append(lat.Lattice.from_rows(_conjugate(random_lattice(r, 2, rng).gram_rows, skew)))
    swept = [_swept_nodes(monkeypatch, L) for L in lattices]
    log = _structure_watch(monkeypatch)
    levels = 0
    for L, before in zip(lattices, swept):
        for run, rule in ((lat.mu_max, lat._steepest_radius), (lat.hn_filtration, lat._hull_radius)):
            # each level is walked once, unless its floor rules it out
            walked = _walked_levels(L, rule)
            log["nodes"].clear()
            run(L, rank_limit=L.rank)
            assert [n for n, _nodes in log["nodes"]] == [comb(L.rank, k) for k in walked]
            # a level below its floor visits no node
            visited = dict(zip(walked, (nodes for _n, nodes in log["nodes"])))
            for k in range(2, L.rank):
                assert visited.get(k, 0) <= TREE_GROWTH_BOUND * before[k - 2]
                levels += 1
    assert levels >= 100


def _unpruned(k, least):
    """A radius rule that prunes nothing: each rank keeps its realized
    cap D[k], the leading k x k minor of den Gred."""
    return inf


def _candidates(L, radius):
    Gred, U, gso = gram_lll(L.gram_rows)
    return lat._rank_candidates(L, U, gso, lat._shortest_reduced(U, gso), radius)


def test_candidate_pass_builds_only_winners(monkeypatch):
    """mu_max builds only the tied candidates of its witness's rank and
    determinant, and of tied lines only the least vector, and
    hn_filtration one candidate per vertex; every other candidate is kept
    as the determinant its enumeration norm gave it.  A build of rank one
    or full rank is closed-form; only ranks strictly between run
    saturate."""
    rng = random.Random(434)
    cases = []
    tied_lines = 0
    for rb in (2, 2, 3, 2, 3, 2, 3, 3):
        T = lat.tensor(random_lattice(2, 3, rng), random_lattice(rb, 3, rng))
        _val, W = lat.mu_max(T)
        cands = _candidates(T, lat._steepest_radius)
        tied = [cols for k, d, cols in cands if k == W.rank and d == sub_det(W) * T.den**k]
        if W.rank == 1:
            tied_lines += len(tied) > 1
            assert [list(row) for row in W.basis] == la.transpose(min(tied))
            tied = tied[:1]
        cases.append((T, len(tied), len(lat.hn_filtration(T).chain), len(cands), len(_candidates(T, lat._hull_radius))))
    assert tied_lines >= 1
    real_saturated, real_saturate = lat._saturated, lat.saturate
    real_post_init = lat.SubLattice.__post_init__
    built, counts = [], {"saturate": 0, "sublattice": 0}

    def counting_saturated(L, candidate):
        built.append(candidate[0])
        return real_saturated(L, candidate)

    def counting_saturate(S):
        counts["saturate"] += 1
        return real_saturate(S)

    def counting_post_init(self):
        counts["sublattice"] += 1
        real_post_init(self)

    monkeypatch.setattr(lat, "_saturated", counting_saturated)
    monkeypatch.setattr(lat, "saturate", counting_saturate)
    monkeypatch.setattr(lat.SubLattice, "__post_init__", counting_post_init)
    middle_ranks = 0
    for T, tied, vertices, _n, _m in cases:
        for run, expect in ((lat.mu_max, tied), (lat.hn_filtration, vertices)):
            built.clear()
            counts.update(saturate=0, sublattice=0)
            run(T)
            assert len(built) == expect >= 1
            middle = sum(1 for k in built if 1 < k < T.rank)
            assert counts["saturate"] == middle
            # a closed form builds its one SubLattice; saturate builds two
            # more: from the columns, the saturation and its canonical basis
            assert counts["sublattice"] <= len(built) + 2 * middle
            middle_ranks += middle
    # the saturate branch is reached, and each pass leaves candidates unbuilt
    assert middle_ranks >= 1
    assert all(n > tied for _T, tied, _v, n, _m in cases)
    assert sum(v for *_rest, v, _n, _m in cases) < sum(m for *_rest, m in cases)


def _check_candidate_determinants(L):
    """Each candidate's determinant is sub_det of the saturation of its
    columns, at its rank, and no saturation is listed twice, under either
    radius rule and none.  Ranks come in order; ranks one and r are always
    there, and with no pruning every rank is."""
    for radius in (lat._steepest_radius, lat._hull_radius, _unpruned):
        cands = _candidates(L, radius)
        built = [lat.saturate(lat.SubLattice.from_columns(L, cols)) for _k, _d, cols in cands]
        for (k, d, _cols), S in zip(cands, built):
            assert S.rank == k and sub_det(S) == d
        assert len({S.basis for S in built}) == len(built)
        ranks = [k for k, _d, _cols in cands]
        assert ranks == sorted(ranks) and {1, L.rank} <= set(ranks) <= set(range(1, L.rank + 1))
        if radius is _unpruned:
            assert set(ranks) == set(range(1, L.rank + 1))


def test_candidate_determinants_are_sub_dets():
    rng = random.Random(435)
    for i in range(60):
        _check_candidate_determinants(lat.Lattice.from_rows(random_spd_matrix(rng, 1 + i % 6, 3)))


# Z^3 in the unimodular basis (2,1,1), (2,1,0), (1,0,2), left unreduced:
# every coordinate line and plane has determinant at least 5, so within
# the enumeration radii (5 at ranks one and two) lie twice a unit vector
# and twice a unit plane of Z^3, at norm 4.
SKEWED_Z3 = [[6, 5, 4], [5, 5, 2], [4, 2, 5]]


def _plucker(S):
    """Sign-normalised k x k minors of the basis of S, in k_subsets order."""
    B = S.basis_rows
    minors = [det([B[i] for i in I]) for I in la.k_subsets(len(B), S.rank)]
    sign = 1 if next(x for x in minors if x) > 0 else -1
    return tuple(int(sign * x) for x in minors)


def test_non_primitive_enumerated_vectors_are_skipped():
    """Run in the lattice's own basis (U = 1), the candidate pass meets
    non-primitive vectors g u at ranks one and two.  Each is skipped, and
    its primitive part u is the candidate, with determinant |g u|^2 / g^2."""
    L = lat.Lattice.from_rows(SKEWED_Z3)
    G = L.gram_rows
    C = compound_matrix(G, 2)
    # every vector of rank one, and every 2-vector in dimension 3, is decomposable
    enumerated = {1: short_vectors_gram(G, 5), 2: short_vectors_gram(C, min(C[t][t] for t in range(3)))}
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    cands = lat._rank_candidates(L, eye, gso_of(G), enumerated[1], _unpruned)
    assert cands[-1][0] == 3
    dets = {(c[0], _plucker(lat._saturated(L, c))): c[1] for c in cands[:-1]}
    assert len(dets) == len(cands) - 1
    for k, vecs in enumerated.items():
        assert sum(1 for c in cands if c[0] == k) == sum(1 for w, _n in vecs if gcd(*w) == 1)
    skipped = [(k, w, n) for k, vecs in enumerated.items() for w, n in vecs if gcd(*w) > 1]
    assert sorted(k for k, _w, _n in skipped) == [1, 1, 1, 2, 2, 2]
    for k, w, n in skipped:
        g = gcd(*w)
        assert (k, w) not in dets
        assert dets[(k, tuple(x // g for x in w))] == n / g**2


def _seeded_candidate_lattices():
    """Seeded lattices of rank 1-7, integer and rational (duals), and
    tensors of ranks (2,2) and (2,3)."""
    rng = random.Random(438)
    out = []
    for i in range(42):
        L = lat.Lattice.from_rows(random_spd_matrix(rng, 1 + i % 7, 3))
        out.append(lat.dual(L) if i % 3 == 0 else L)
    for rb in (2, 3, 2, 3, 2, 3):
        out.append(lat.tensor(random_lattice(2, 3, rng), random_lattice(rb, 3, rng)))
    return out


def test_candidate_pass_matches_fraction_compound_oracle():
    """The candidates from compounds enumerated as integers straight from
    the lattice's own GSO, with no sweep and no pruning, equal those from
    Fraction compounds built and reduced one at a time: the same (k, det,
    columns) in the same order, from the library's pass under a rule that
    never prunes and from the unpruned oracle."""
    _empty_tables()
    for L in _seeded_candidate_lattices():
        Gred, U, gso = gram_lll(L.gram_rows)
        shortest = lat._shortest_reduced(U, gso)
        want = fraction_rank_candidates(L, Gred, U, shortest)
        assert lat._rank_candidates(L, U, gso, shortest, _unpruned) == want
        assert unpruned_rank_candidates(L, U, gso, shortest) == want
    # unreduced, where non-primitive vectors are enumerated and skipped
    L = lat.Lattice.from_rows(SKEWED_Z3)
    G = L.gram_rows
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    shortest = short_vectors_gram(G, 5)
    want = fraction_rank_candidates(L, G, eye, shortest)
    assert lat._rank_candidates(L, eye, gso_of(G), shortest, _unpruned) == want
    assert unpruned_rank_candidates(L, eye, gso_of(G), shortest) == want


def _pruning_lattices():
    """The 42-lattice set above and 60 seeded lattices of rank 5-8, with
    entry bounds 2-12 and a third of them duals."""
    rng = random.Random(442)
    out = _seeded_candidate_lattices()
    for i in range(60):
        L = random_lattice(5 + i % 4, 2 + i % 11, rng)
        out.append(lat.dual(L) if i % 3 == 0 else L)
    return out


def _pruned_against_replay(lattices):
    """(pruned, mismatched) over the lattices and both radius rules: how
    many unpruned candidates each pruned pass leaves out, and how many
    passes do not list exactly the candidates _replayed_pass keeps.  Each
    pruned pass lists a part of the unpruned candidates, in their order."""
    pruned, mismatched = [], 0
    for L in lattices:
        Gred, U, gso = gram_lll(L.gram_rows)
        shortest = lat._shortest_reduced(U, gso)
        every = unpruned_rank_candidates(L, U, gso, shortest)
        for radius in (lat._steepest_radius, lat._hull_radius):
            cands = lat._rank_candidates(L, U, gso, shortest, radius)
            kept = iter(every)
            assert all(c in kept for c in cands)  # a subsequence of the unpruned list
            pruned.append(len(every) - len(cands))
            mismatched += cands != _replayed_pass(L, gso, every, radius)[1]
    return pruned, mismatched


def test_pruned_pass_matches_unpruned_oracle(monkeypatch):
    """mu_max (value and witness) and the HN filtration (chain and slopes)
    equal those read off the unpruned oracle, and each pruned pass lists a
    part of the unpruned candidates, in their order: exactly those within
    the radii replayed on the oracle, the levels below their floor
    included."""
    _empty_tables()
    lattices = _pruning_lattices()
    pruned, mismatched = _pruned_against_replay(lattices)
    assert mismatched == 0
    got = [(lat.mu_max(L, rank_limit=8), lat.hn_filtration(L, rank_limit=8)) for L in lattices]
    monkeypatch.setattr(lat, "_rank_candidates", unpruned_rank_candidates)
    want = [(lat.mu_max(L, rank_limit=8), lat.hn_filtration(L, rank_limit=8)) for L in lattices]
    assert got == want
    assert sum(1 for n in pruned if n) >= len(pruned) // 2  # the rules do prune


def test_a_doubled_floor_fails_the_oracle(monkeypatch):
    """With the floor of every level doubled, the pass skips levels that
    hold candidates within their radius, and the comparison of
    test_pruned_pass_matches_unpruned_oracle fails."""
    _empty_tables()
    real = la._compound_floors
    monkeypatch.setattr(la, "_compound_floors", lambda D, top: [(2 * num, dnm) for num, dnm in real(D, top)])
    assert _pruned_against_replay(_pruning_lattices())[1] >= 10


def test_enumerations_match_recursive_oracle(monkeypatch):
    """Every enumeration that mu_max and hn_filtration run, the lattice's
    own and each compound level's, returns the vectors of the recursive
    enumeration with one Fraction per node, and visits as many nodes, on
    the 42-lattice set and 64 seeded lattices of rank 5-8.  The four drawn
    here keep the compound enumerations above 500: the strict radii leave
    out levels that hold only ties, 487 on the other lattices."""
    _empty_tables()
    real = la._fincke_pohst
    nodes = []

    def checked(U, basis, bound):
        found, count = _counting_nodes(monkeypatch, lambda: real(U, basis, bound), U, basis, bound)
        nodes.append((U is None, count))
        return found

    monkeypatch.setattr(la, "_fincke_pohst", checked)
    rng = random.Random(446)
    lattices = _pruning_lattices()
    for i in range(4):
        L = random_lattice(5 + i, 2 + i, rng)
        lattices.append(lat.dual(L) if i % 3 == 0 else L)
    for L in lattices:
        lat.mu_max(L, rank_limit=8)
        lat.hn_filtration(L, rank_limit=8)
    assert sum(1 for compound, _n in nodes if not compound) == 2 * len(lattices)
    assert sum(1 for compound, _n in nodes if compound) >= 500
    assert sum(n for _c, n in nodes) >= 20000


def _tensor_mu_max_lattices():
    """The 600 lattice pairs of the tensor_mu_max benchmark at seed 10003,
    drawn as perfbench/workloads.py draws them, each with its tensor."""
    rng = random.Random("tensor_mu_max:10003")
    out = []
    for _ in range(120):
        big = rng.randrange(5)
        for k in range(5):
            A = random_lattice(2, 3, rng)
            B = random_lattice(3 if k == big else 2, 3, rng)
            out += [A, B, lat.tensor(A, B)]
    return out


def _doubled_lattices():
    """M + M for 48 seeded M of rank 2-4 whose mu_max witness is M itself,
    so that a proper sublattice, M + 0 or 0 + M, ties the whole lattice
    and wins mu_max on the tie."""
    rng = random.Random(447)
    out = []
    while len(out) < 48:
        M = random_lattice(2 + len(out) % 3, 3, rng)
        if lat.mu_max(M)[1].rank == M.rank:
            out.append(lat.direct_sum(M, M))
    return out


def _slope_results(L):
    """mu_max, the HN filtration and udeg_max of L, or the message of the
    CertificateError the pass raises."""
    try:
        return lat.mu_max(L, rank_limit=L.rank), lat.hn_filtration(L, rank_limit=L.rank), lat.udeg_max(L)
    except lat.CertificateError as e:
        return str(e)


def _against_inclusive(monkeypatch, lattices, fault=None):
    """(changed, listed, inclusive): how many lattices have a mu_max (value
    and witness), HN filtration (chain and slopes) or udeg_max other than
    under the oracle's inclusive pass and rules, with fault(m) applied to
    the library's pass first, and how many candidates the two passes
    list."""
    counts = []

    def counting(m):
        real = lat._rank_candidates
        counts.append(0)

        def counted(*args):
            found = real(*args)
            counts[-1] += len(found)
            return found

        m.setattr(lat, "_rank_candidates", counted)

    with monkeypatch.context() as m:
        m.setattr(lat, "_steepest_radius", inclusive_steepest_radius)
        m.setattr(lat, "_hull_radius", inclusive_hull_radius)
        m.setattr(lat, "_rank_candidates", inclusive_rank_candidates)
        counting(m)
        want = [_slope_results(L) for L in lattices]
    with monkeypatch.context() as m:
        if fault:
            fault(m)
        counting(m)
        got = [_slope_results(L) for L in lattices]
    return sum(a != b for a, b in zip(got, want)), counts[1], counts[0]


def test_strict_radii_match_inclusive_oracle(monkeypatch):
    """The strict radius rules leave out only ties that cannot change the
    result: mu_max, the HN filtration and udeg_max equal those under the
    inclusive rules on the tensor_mu_max inputs at seed 10003 and their
    tensors, on the pruning set and its duals, and on M + M, where a
    proper sublattice ties the whole lattice; and on each set the strict
    rules list fewer candidates."""
    _empty_tables()
    pruning = _pruning_lattices()
    for lattices in (_tensor_mu_max_lattices(), pruning + [lat.dual(L) for L in pruning], _doubled_lattices()):
        changed, listed, inclusive = _against_inclusive(monkeypatch, lattices)
        assert changed == 0 and listed < inclusive


def test_a_strict_radius_above_the_rank_fails_the_oracle(monkeypatch):
    """A rank-k tie with the whole lattice wins mu_max, so a rule that is
    strict against the whole lattice too changes the witness of M + M."""
    _empty_tables()

    def strict_everywhere(k, least):
        return min(lat._iroot(X**k - 1, j) for j, X in least.items())

    fault = lambda m: m.setattr(lat, "_steepest_radius", strict_everywhere)
    assert _against_inclusive(monkeypatch, _doubled_lattices(), fault)[0] >= 3


def test_a_strict_cap_fails_the_oracle(monkeypatch):
    """Ties at one rank choose the mu_max witness and an HN vertex must be
    attained once, so a cap D[k] - 1 in place of D[k] changes results on
    the tensor_mu_max inputs."""
    _empty_tables()
    real = lat._rank_candidates

    def strict_cap(L, U, gso, shortest, radius):
        return real(L, U, gso, shortest, lambda k, least: min(gso.D[k] - 1, radius(k, least)))

    fault = lambda m: m.setattr(lat, "_rank_candidates", strict_cap)
    assert _against_inclusive(monkeypatch, _tensor_mu_max_lattices(), fault)[0] >= 500


def test_decomposable_kernel_matches_wedge_elimination():
    """The contraction test decides decomposability as the elimination of
    the wedge rows does, and its rows span the same plane, on wedges of
    random integer k-frames (decomposable) and on random k-vectors (most
    of them not), for 2 <= k < r <= 7."""
    _empty_tables()
    rng = random.Random(445)
    seen = {True: 0, False: 0}
    for t in range(600):
        r = 3 + t % 5
        k = 2 + rng.randrange(r - 2)
        if t % 2:
            B = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)]
            w = [int(det([B[i] for i in I])) for I in la.k_subsets(r, k)]
        else:
            w = [rng.choice((0, 0, 1, -1, 2)) for _ in range(comb(r, k))]
        if not any(w):
            continue
        got = lat._decomposable_kernel(w, r, k)
        want = elimination_decomposable_kernel(w, r, k)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == k and all(gcd(*row) == 1 for row in got)
            assert la.rref(la.frac_rows(got))[0] == la.rref(la.frac_rows(want))[0]
        seen[got is not None] += 1
    assert min(seen.values()) >= 100


def test_compound_gso_matches_ldl_of_compound():
    """Each level of _compound_gso has the mu and the Gram-Schmidt norms of
    the LDL that _ldl_scaled gives the level T_k = den^k Lambda^k(Gred) of
    the Laplace tower, and enumerated with no sweep it gives the vectors
    of T_k within min diag T_k that the LLL-reduced T_k gives; on reduced
    Gram matrices of rank 1-9 (integer, rational, duals and tensors) and
    on the unreduced SKEWED_Z3.  The GSO handed in is left as it was."""
    _empty_tables()
    rng = random.Random(439)
    grams = [SKEWED_Z3]
    for r in [*range(1, 7), *range(1, 10)]:
        # integer, dual and rational Gram matrices; one each above rank 6
        G = random_lattice(r, 3 if r <= 6 else 1, rng).gram_rows
        variants = [
            G,
            lat.dual(lat.Lattice.from_rows(G)).gram_rows,
            [[Fraction(x, 6) for x in row] for row in G],
        ]
        for V in variants if r <= 6 else variants[r % 3 : r % 3 + 1]:
            grams.append(gram_lll(V)[0])
    for ra, rb in ((2, 2), (2, 3), (2, 4)):
        T = lat.tensor(random_lattice(ra, 2, rng), random_lattice(rb, 2, rng))
        grams.append(gram_lll(T.gram_rows)[0])
    levels = 0
    for G in grams:
        n = len(G)
        gso = gso_of(G)
        before = (list(map(list, gso.lam)), list(gso.D), gso.den)
        tower = {k: T for k, T, _scale in la._compound_tower(G, n)}
        got = list(la._compound_gso(gso, n + 1))
        assert [k for k, _g in got] == list(range(2, n + 1))
        assert (gso.lam, gso.D, gso.den) == before
        for k, level in got:
            A, D, den = la._ldl_scaled(tower[k])
            N = len(D) - 1
            assert den == 1 and len(level.lam) == len(level.d) == len(level.m) == N
            assert all(
                Fraction(level.lam[a][b], level.d[b]) == Fraction(A[a][b], D[b + 1]) for a in range(N) for b in range(a)
            )
            assert [Fraction(d * d, m) for d, m in zip(level.d, level.m)] == [Fraction(D[a + 1], D[a]) for a in range(N)]
            radius = min(tower[k][t][t] for t in range(N))
            assert la._fincke_pohst(None, level, radius) == short_vectors_gram(tower[k], radius)
            levels += 1
        assert [k for k, _g in la._compound_gso(gso_of(G), n - 1)] == list(range(2, n))
    assert levels >= 125


def test_closed_form_witnesses_equal_saturations():
    """At ranks one and r, _saturated builds the saturation without a
    Hermite form; it equals saturate of the candidate's columns, and its
    sub_det is the candidate's determinant, which is listed as den^k
    sub_det."""
    extremes = 0
    for L in _seeded_candidate_lattices() + [lat.Lattice.from_rows(SKEWED_Z3)]:
        den = L.den
        for c in _candidates(L, _unpruned):
            if c[0] in (1, L.rank):
                S = lat._saturated(L, c)
                assert S == lat.saturate(lat.SubLattice.from_columns(L, c[2]))
                assert type(c[1]) is int and sub_det(S) * den ** c[0] == c[1]
                extremes += 1
    assert extremes >= 100


def test_closed_form_witness_faults_raise():
    """A non-primitive rank-one column and a determinant off by one each
    fail the certificate of their closed form."""
    L = lat.Lattice.from_rows([[1, 0], [0, 4]])
    with pytest.raises(lat.CertificateError):
        lat._saturated(L, (1, Fraction(4), [[2, 0]]))  # the saturation (1, 0) has norm 1
    assert lat._saturated(L, (1, Fraction(1), [[-1, 0]])).basis == ((1,), (0,))
    for M in (L, lat.Lattice.from_rows(SKEWED_Z3)):
        for k, d, cols in _candidates(M, _unpruned):
            lat._saturated(M, (k, d, cols))
            with pytest.raises(lat.CertificateError):
                lat._saturated(M, (k, d + 1, cols))


@st.composite
def lattices_and_unimodulars(draw):
    r = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    B = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r))
    assume(det(B) != 0)
    U = random_unimodular(random.Random(draw(st.integers(0, 10**6))), r, steps=6)
    return la.mat_mul(la.transpose(B), B), U


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lattices_and_unimodulars())
def test_hn_is_unique_under_change_of_basis(case):
    """The HN filtration is canonical: in the basis of the columns of U
    (Gram U^T G U) it is U^-1 applied to the filtration of G."""
    G, U = case
    hn = lat.hn_filtration(lat.Lattice.from_rows(G))
    moved = lat.Lattice.from_rows(_conjugate(G, U))
    Uinv = [[int(x) for x in row] for row in inverse(la.frac_rows(U))]
    expect = tuple(
        canonical(lat.SubLattice(moved, tuple(map(tuple, la.mat_mul(Uinv, S.basis_rows)))))
        for S in hn.chain
    )
    hn_moved = lat.hn_filtration(moved)
    assert hn_moved.chain == expect
    assert hn_moved.slopes == hn.slopes


@st.composite
def integral_lattices(draw):
    r = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    B = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r))
    assume(det(B) != 0)
    return lat.Lattice.from_rows(la.mat_mul(la.transpose(B), B))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(integral_lattices())
def test_candidate_determinants_are_sub_dets_property(L):
    _check_candidate_determinants(L)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(integral_lattices())
def test_mu_min_is_dual_to_mu_max(L):
    """mu_min(E) = -mu_max(E^v): the dual has the inverse Gram matrix."""
    assert lat.mu_min(L) == -lat.mu_max(lat.dual(L))[0]


# ---------------------------------------------------------------------------
# morphism heights


def test_morphism_height_identity_exact_zero():
    Z = unit_lattice(1)
    hb = lat.morphism_height(lat.Morphism.from_rows(Z, Z, [[1]]))
    assert hb.lower.is_zero and hb.upper.is_zero and hb.finite.is_zero


def test_morphism_height_product_formula_scalars():
    Z = unit_lattice(1)
    # multiplication by 2 and by 1/3 are isometries onto their images in
    # the adelic sense: total height zero
    for c in (Fraction(2), Fraction(1, 3)):
        hb = lat.morphism_height(lat.Morphism.from_rows(Z, Z, [[c]]))
        assert compare(hb.lower, LogValue.zero()) is not Order.GT
        assert compare(LogValue.zero(), hb.upper) is not Order.GT
    hb2 = lat.morphism_height(lat.Morphism.from_rows(Z, Z, [[2]]))
    assert hb2.finite == log_of(2, Fraction(-1))
    hb3 = lat.morphism_height(lat.Morphism.from_rows(Z, Z, [[Fraction(1, 3)]]))
    assert hb3.finite == log_of(3, Fraction(1))


def test_morphism_height_finite_part_frozen():
    U = unit_lattice(2)
    hb = lat.morphism_height(lat.Morphism.from_rows(U, U, [[2, 4], [6, 8]]))
    assert hb.finite == log_of(2, Fraction(-1))
    V = unit_lattice(1)
    W = unit_lattice(2)
    hb = lat.morphism_height(
        lat.Morphism.from_rows(W, V, [[Fraction(1, 6), Fraction(1, 4)]])
    )
    assert hb.finite == LogValue.from_map({2: Fraction(2), 3: Fraction(1)})


def test_morphism_height_arch_bracket():
    U = unit_lattice(2)
    hb = lat.morphism_height(lat.Morphism.from_rows(U, U, [[1, 1], [0, 1]]), 50)
    # largest singular value squared is (3 + sqrt 5) / 2
    truth = 0.4812118250596034
    lo = float(approximate(hb.lower, 60).midpoint)
    hi = float(approximate(hb.upper, 60).midpoint)
    assert lo <= truth + 1e-12 and truth - 1e-12 <= hi
    assert hi - lo < 1e-14


def test_morphism_height_bracket_width_contract():
    rng = random.Random(420)
    for bits in (10, 30, 48):
        E = lat.Lattice.from_rows(random_spd_matrix(rng, 2, 2))
        F = lat.Lattice.from_rows(random_spd_matrix(rng, 2, 2))
        rows = [[rng.randrange(-4, 5) for _ in range(2)] for _ in range(2)]
        if all(x == 0 for row in rows for x in row):
            continue
        hb = lat.morphism_height(lat.Morphism.from_rows(E, F, rows), bits)
        width = approximate(hb.width, bits + 4)
        assert width.hi <= Fraction(1, 1 << bits)
        assert compare(hb.lower, hb.upper) is not Order.GT


def test_morphism_height_subadditive_composition():
    rng = random.Random(421)
    U = unit_lattice(2)
    done = 0
    while done < 15:
        A = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(2)]
        B = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(2)]
        AB = la.mat_mul(la.frac_rows(A), la.frac_rows(B))
        if all(x == 0 for row in A for x in row) or all(
            x == 0 for row in B for x in row
        ):
            continue
        if all(x == 0 for row in AB for x in row):
            continue
        ha = lat.morphism_height(lat.Morphism.from_rows(U, U, A))
        hb = lat.morphism_height(lat.Morphism.from_rows(U, U, B))
        hab = lat.morphism_height(lat.Morphism.from_rows(U, U, AB))
        assert compare(hab.lower, ha.upper + hb.upper) is not Order.GT
        done += 1


def test_morphism_scaling_brackets_overlap():
    rng = random.Random(422)
    E = lat.Lattice.from_rows(random_spd_matrix(rng, 2, 3))
    F = lat.Lattice.from_rows(random_spd_matrix(rng, 2, 3))
    rows = [[1, 2], [0, 1]]
    h1 = lat.morphism_height(lat.Morphism.from_rows(E, F, rows))
    doubled = [[2 * x for x in row] for row in rows]
    h2 = lat.morphism_height(lat.Morphism.from_rows(E, F, doubled))
    # the product formula makes both brackets enclose the same number
    assert compare(h1.lower, h2.upper) is not Order.GT
    assert compare(h2.lower, h1.upper) is not Order.GT


def _rational_lattice(rng, rank):
    """B^T B for a nonsingular B with entries p/q, so a Gram matrix with
    denominators."""
    while True:
        B = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rank)] for _ in range(rank)]
        if det(B) != 0:
            return lat.Lattice.from_rows(la.mat_mul(la.transpose(B), B))


def _seeded_morphisms(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        E = _rational_lattice(rng, rng.randint(1, 6))
        F = _rational_lattice(rng, rng.randint(1, 4))
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(E.rank)] for _ in range(F.rank)]
        if any(x for row in rows for x in row):
            out.append(lat.Morphism.from_rows(E, F, rows))
    return out


def test_morphism_height_matches_fraction_oracle():
    # the integer Sylvester bisection ends on the same lo and hi as the
    # Fraction one, so every bracket is the same LogValue triple
    for t, phi in enumerate(_seeded_morphisms(402, 4242)):
        bits = (10, 40, 64)[t % 3]
        assert lat.morphism_height(phi, bits) == fraction_morphism_height(phi, bits), (t, bits)


def _count_ldl(monkeypatch):
    """A list that la._ldl_scaled appends to on each call."""
    calls = []
    real = la._ldl_scaled

    def counting(G):
        calls.append(len(G))
        return real(G)

    monkeypatch.setattr(la, "_ldl_scaled", counting)
    return calls


def test_morphism_height_runs_few_definiteness_tests(monkeypatch):
    # the enclosure decides almost every midpoint; the two end tests and
    # at most two undecided midpoints remain
    morphisms = _seeded_morphisms(402, 4242)  # Lattice validation runs _ldl_scaled
    calls = _count_ldl(monkeypatch)
    counts = []
    for t, phi in enumerate(morphisms):
        calls.clear()
        lat.morphism_height(phi, (10, 40, 64)[t % 3])
        counts.append(len(calls))
    assert max(counts) <= 4
    assert sum(counts) < 2 * len(counts)


def _edge_morphisms(count, seed):
    """(phi, family) for source ranks 1-6: rank-one maps, whose lambda is
    the trace bound itself, and c * identity on E, whose M = c^2 G_E has
    lambda as a root of multiplicity k."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        E = _rational_lattice(rng, 1 + len(out) // 2 % 6)
        F = _rational_lattice(rng, rng.randint(1, 4))
        u = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(F.rank)]
        v = [rng.randint(-4, 4) for _ in range(E.rank)]
        if any(u) and any(v):
            out.append((lat.Morphism.from_rows(E, F, [[a * b for b in v] for a in u]), "rank one"))
        c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        out.append((lat.Morphism.from_rows(E, E, [[c * (i == j) for j in range(E.rank)] for i in range(E.rank)]), "scalar"))
    return out


def test_morphism_height_edge_families_match_fraction_oracle(monkeypatch):
    calls = _count_ldl(monkeypatch)
    scalars = 0
    for t, (phi, family) in enumerate(_edge_morphisms(72, 4244)):
        bits = (10, 40, 64)[t // 12 % 3]  # each rank and family at each tolerance
        calls.clear()
        assert lat.morphism_height(phi, bits) == fraction_morphism_height(phi, bits), (t, family, bits)
        if family == "rank one":
            # the upper end stays the trace and is not tested: lambda reaches it
            assert len(calls) == 1, (t, bits)
        elif phi.source.rank > 1:
            # lambda is a root of multiplicity k: the squarefree part
            # encloses it exactly, and only the two end tests run
            assert len(calls) == 2, (t, bits)
            scalars += 1
    assert scalars >= 20


def _repeated_top_morphisms(seed):
    """(phi, family) for source ranks 2-6: c * identity on a seeded lattice
    E, whose lambda = c^2 is a root of multiplicity k, and a diagonal map
    on a diagonal lattice whose two largest entries are equal, so lambda
    is a double root with the other roots distinct or not."""
    rng = random.Random(seed)
    out = []
    for rank in range(2, 7):
        for _ in range(3):
            E = _rational_lattice(rng, rank)
            c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            out.append((lat.Morphism.from_rows(E, E, [[c * (i == j) for j in range(rank)] for i in range(rank)]), "scalar"))
            diag = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(rank)]
            D = lat.Lattice.from_rows([[diag[i] * (i == j) for j in range(rank)] for i in range(rank)])
            top = Fraction(rng.randint(3, 7), rng.randint(1, 2))
            entries = [top, -top] + [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rank - 2)]
            out.append((lat.Morphism.from_rows(D, D, [[entries[i] * (i == j) for j in range(rank)] for i in range(rank)]), "diagonal"))
    return out


def test_morphism_height_at_a_multiple_root_runs_few_definiteness_tests(monkeypatch):
    """Scalar maps and diagonal maps with a repeated top entry, ranks 2-6,
    at 10, 40 and 64 bits: at most five Sylvester tests each, and the
    brackets of the Fraction bisection.  A scalar map leaves Newton's upper
    end stalled at a multiple root, where only definiteness tests would
    decide the midpoints, some 70 of them at rank 6 and 64 bits."""
    morphisms = _repeated_top_morphisms(4245)
    calls = _count_ldl(monkeypatch)
    for t, (phi, family) in enumerate(morphisms):
        for bits in (10, 40, 64):
            calls.clear()
            assert lat.morphism_height(phi, bits) == fraction_morphism_height(phi, bits), (t, family, bits)
            assert len(calls) <= 5, (t, family, bits, len(calls))


def test_morphism_height_width_check_raises(monkeypatch):
    # an enclosure of the width that is wider than the tolerance is a
    # broken certificate
    monkeypatch.setattr(lat, "approximate", lambda value, bits: Interval(Fraction(0), Fraction(1)))
    U = unit_lattice(2)
    with pytest.raises(lat.CertificateError, match="height bracket wider"):
        lat.morphism_height(lat.Morphism.from_rows(U, U, [[1, 1], [0, 1]]))


def test_zero_morphism_rejected():
    U = unit_lattice(2)
    with pytest.raises(ValueError):
        lat.morphism_height(lat.Morphism.from_rows(U, U, [[0, 0], [0, 0]]))


# ---------------------------------------------------------------------------
# serialization


def test_lattice_json_roundtrip():
    L = frozen([[Fraction(9, 2), 1], [1, Fraction(2, 3)]])
    again = lat.Lattice.from_json(L.to_json())
    assert again == L
    bad = L.to_json()
    bad["rank"] = 3
    with pytest.raises(ValueError):
        lat.Lattice.from_json(bad)


def test_sublattice_and_morphism_json_roundtrip():
    L = frozen([[2, 1], [1, 1]])
    S = lat.SubLattice.from_columns(L, [[1, 1]])
    assert lat.SubLattice.from_json(S.to_json()) == S
    phi = lat.Morphism.from_rows(L, unit_lattice(2), [[1, 0], [Fraction(1, 2), 1]])
    assert lat.Morphism.from_json(phi.to_json()) == phi


# ---------------------------------------------------------------------------
# the stored integer form


@st.composite
def rational_grams(draw):
    """B^T B for a nonsingular B with entries p/q, with at least one
    denominator left over: a rational Gram matrix with den > 1."""
    r = draw(st.integers(1, 4))
    entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    B = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r))
    assume(det(B) != 0)
    G = la.mat_mul(la.transpose(B), B)
    assume(any(x.denominator > 1 for row in G for x in row))
    return G


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rational_grams())
def test_stored_form_matches_the_fraction_gram(G):
    """den, the integer rows of den * G and the LDL data of den * G stand in
    for the Fraction Gram matrix G: gram, to_json (byte for byte), ==,
    hash (that of (rank, gram), as for a dataclass of the two), the degree
    and the JSON round trip all agree with G itself, whichever way the
    lattice is built."""
    r = len(G)
    gram = tuple(map(tuple, G))
    den = math.lcm(*[x.denominator for row in G for x in row])
    L = lat.Lattice(r, gram)
    assert L.den == den > 1 and L.rows == tuple(tuple(int(x * den) for x in row) for row in G)
    A, D, _one = la._ldl_scaled(L.rows)
    assert L.ldl == tuple(x for i, row in enumerate(A) for x in row[: i + 1])
    assert lat._gso(L) == la.GSO([row[:i] for i, row in enumerate(A)], D, den)
    assert L.gram == gram and L.gram_rows == [list(row) for row in G]
    text = json.dumps({"rank": r, "gram": [[rat_to_str(x) for x in row] for row in G]}, sort_keys=True)
    assert json.dumps(L.to_json(), sort_keys=True) == text
    assert hash(L) == hash((r, gram))
    assert lat.degree(L) == log_of(det(G), Fraction(-1, 2))
    for M in (
        lat.Lattice.from_rows(G),
        lat.Lattice.from_json(json.loads(text)),
        lat.Lattice.from_scaled([[3 * x for x in row] for row in L.rows], 3 * den),
    ):
        assert M == L and hash(M) == hash(L) and repr(M) == repr(L)
        assert (M.den, M.rows, M.ldl) == (L.den, L.rows, L.ldl)
    other = [list(row) for row in G]
    other[0][0] += Fraction(1, den)
    assert lat.Lattice.from_rows(other) != L
    with pytest.raises(AttributeError):
        L.den = 1


def test_tensor_pivots_equal_the_ldl_of_the_kronecker_product():
    """A tensor product eliminates nothing: its rows are the Kronecker
    product of its factors', over the product of their den with any common
    factor divided out, and its (lam, D) are those _ldl_scaled gives that
    product in the stored basis U, U^T rows U.  It equals the lattice of
    the Fraction Kronecker product of the Gram matrices.  Two and three
    factors, duals, rank one."""
    rng = random.Random(449)
    divided = 0
    for t in range(200):
        ranks = [(2, 2), (2, 3), (1, 3), (3, 2), (2, 1, 2), (1, 1)][t % 6]
        factors = [random_lattice(r, 3, rng) for r in ranks]
        factors = [lat.dual(L) if (t + i) % 3 == 0 else L for i, L in enumerate(factors)]
        T = factors[0]
        fraction_gram = factors[0].gram_rows
        for L in factors[1:]:
            T = lat.tensor(T, L)
            fraction_gram = la.kron(fraction_gram, L.gram_rows)
        U = [list(row) for row in T.basis]
        A, D, _one = la._ldl_scaled(la.mat_mul(la.transpose(U), la.mat_mul(T.rows, U)))
        assert lat._gso(T) == la.GSO([row[:i] for i, row in enumerate(A)], D, T.den)
        assert T == lat.Lattice.from_rows(fraction_gram)
        divided += T.den < math.prod(L.den for L in factors)
    assert divided >= 10


def _assert_certified_basis(L):
    """The stored basis U of L is unimodular, its ldl is the LDL data of
    U^T (den G) U over L.den, and the degree read off it is that of the
    Fraction Gram matrix."""
    U = [list(row) for row in L.basis]
    assert abs(det(U)) == 1
    assert lat._gso(L) == gso_of(la.mat_mul(la.transpose(U), la.mat_mul(L.rows, U)))._replace(den=L.den)
    assert lat.degree(L) == log_of(det(L.gram_rows), Fraction(-1, 2))


def test_every_constructor_stores_a_certified_basis():
    """Every constructor stores a unimodular basis with the LDL data of the
    Gram matrix in it.  A lattice built from a Gram matrix stores the
    standard basis, one shared identity per rank; a tensor product of two
    or three factors stores an LLL-reduced basis."""
    rng = random.Random(450)
    reduced = 0
    for t in range(60):
        A = random_lattice(1 + t % 3, 3, rng)
        B = random_lattice(1 + t % 4, 3, rng)
        if t % 3 == 0:
            B = lat.dual(B)
        built = [
            lat.Lattice(A.rank, A.gram),
            lat.Lattice.from_scaled(B.rows, B.den * (1 + t % 5)),
            lat.Lattice.from_json(B.to_json()),
            lat.dual(A),
            lat.direct_sum(A, B),
            lat.exterior_power(B, 1 + t % B.rank),
        ]
        for L in built:
            _assert_certified_basis(L)
            assert L.basis is lat._identity(L.rank)
        for T in (lat.tensor(A, B), lat.tensor(lat.tensor(B, A), lat.dual(A))):
            _assert_certified_basis(T)
            assert _is_lll_reduced(lat._gso(T))
            reduced += T.basis != lat._identity(T.rank)
    assert reduced >= 20


def test_tensor_results_do_not_depend_on_the_stored_basis():
    """mu_max, hn_filtration, udeg_max and short_vectors of a tensor
    product, which stores a reduced basis, equal those of the same Gram
    matrix read back from JSON, which stores the standard basis: seeded
    pairs and triples, with duals and rational Gram matrices."""
    rng = random.Random(451)
    moved = 0
    for t in range(90):
        ranks = [(2, 2), (2, 3), (3, 2), (1, 3), (2, 1, 2)][t % 5]
        factors = [random_lattice(r, 3, rng) for r in ranks]
        factors = [lat.dual(L) if (t + i) % 3 == 0 else L for i, L in enumerate(factors)]
        if t % 4 == 0:
            factors[0] = lat.Lattice.from_scaled(factors[0].rows, factors[0].den * 3)
        T = factors[0]
        for L in factors[1:]:
            T = lat.tensor(T, L)
        M = lat.Lattice.from_json(T.to_json())
        assert M == T and M.basis is lat._identity(T.rank)
        moved += T.basis != M.basis
        assert lat.mu_max(T) == lat.mu_max(M)
        assert lat.hn_filtration(T) == lat.hn_filtration(M)
        assert lat.udeg_max(T) == lat.udeg_max(M)
        bound = 2 * min(T.gram[i][i] for i in range(T.rank))
        assert lat.short_vectors(T, bound) == lat.short_vectors(M, bound)
    assert moved >= 30


def test_asymmetric_and_indefinite_grams_raise():
    """Every way of building a lattice runs Sylvester's criterion: an
    asymmetric, indefinite, semidefinite or ragged Gram matrix raises
    ValueError, with integer and with rational entries."""
    bad = [
        [[1, 1], [0, 1]],
        [[1, 2], [2, 1]],
        [[0, 0], [0, 1]],
        [[1, 1], [1, 1]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 1]],
        [[Fraction(1, 2), 1], [1, Fraction(1, 2)]],
        [[-1]],
        [[1, 0], [0]],
    ]
    for rows in bad:
        with pytest.raises(ValueError):
            lat.Lattice.from_rows(rows)
        with pytest.raises(ValueError):
            lat.Lattice(len(rows), tuple(tuple(Fraction(x) for x in row) for row in rows))
        with pytest.raises(ValueError):
            lat.Lattice.from_json({"rank": len(rows), "gram": [[str(x) for x in row] for row in rows]})
        den = math.lcm(*[Fraction(x).denominator for row in rows for x in row])
        with pytest.raises(ValueError):
            lat.Lattice.from_scaled([[int(Fraction(x) * den) for x in row] for row in rows], den)
    with pytest.raises(ValueError):
        lat.Lattice(3, ((Fraction(1),),))


# the size of the 1,200 lattices of the tensor_mu_max benchmark inputs at
# seed 10003, with the list of 600 pairs, when a lattice stored its Gram
# matrix as Fractions
FRACTION_INPUT_KIB = 589


def test_benchmark_inputs_take_less_memory_than_fraction_grams():
    """The 600 input pairs of the tensor_mu_max benchmark at seed 10003 (two
    random_lattice draws per pair, of ranks (2, 2), or (2, 3) once in five)
    hold less memory, with the stored integer form and its certificate,
    than the Fraction Gram matrices alone did."""

    def inputs(seed):
        rng = random.Random("tensor_mu_max:%d" % seed)
        out = []
        for _ in range(120):
            big = rng.randrange(5)
            for k in range(5):
                out.append((random_lattice(2, 3, rng), random_lattice(3 if k == big else 2, 3, rng)))
        return out

    inputs(1)  # a first draw fills whatever the process caches
    gc.collect()
    tracemalloc.start()
    try:
        pairs = inputs(10003)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 600
    assert held < FRACTION_INPUT_KIB * 1024, held / 1024


def test_mu_min_equals_the_last_hn_slope():
    """mu_min, taken as -mu_max of the integer dual, is the last slope of
    the HN filtration on 1,050 seeded lattices of ranks 1-6: a third
    duals, and tensor products of ranks 4 and 6.  Above the rank limit it
    raises as hn_filtration does."""
    rng = random.Random(450)
    count = 0
    for t in range(1050):
        kind = t % 3
        if kind == 2:
            rb = (2, 3)[t // 3 % 2]
            L = lat.tensor(random_lattice(2, 2 + t % 2, rng), random_lattice(rb, 2, rng))
        else:
            L = random_lattice(1 + t % 6, 3, rng)
            if kind == 1:
                L = lat.dual(L)
        assert lat.mu_min(L) == lat.hn_filtration(L).slopes[-1], t
        count += 1
    assert count >= 1000
    big = random_lattice(lat.EXACT_RANK_LIMIT + 1, 2, random.Random(1))
    with pytest.raises(lat.ExactSearchUnavailable):
        lat.mu_min(big)
    with pytest.raises(lat.ExactSearchUnavailable):
        lat.mu_min(random_lattice(3, 2, rng), rank_limit=2)


# ---------------------------------------------------------------------------
# certificates are checks, not asserts


def test_lattice_has_no_assert():
    # python -O strips assert statements; every check here must be an error
    tree = ast.parse(Path(lat.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


BRACKET_FAULT_UNDER_O = """
import sys
from slopelab import lattice as lat
from slopelab.exactnum import log_of
assert sys.flags.optimize  # run under python -O: library asserts are stripped
exact = lat._slope_of_det

def shifted(*args):
    return exact(*args) + log_of(2)

lat._slope_of_det = shifted
try:
    lat.mu_max(lat.Lattice.from_rows([[1, 0], [0, 1]]))
except lat.CertificateError as exc:
    print("CertificateError:", exc)
"""


def test_minkowski_bracket_check_survives_python_O():
    # mu_max(Z^2) = 0 moved up by log 2 leaves [0, log(2)/2]
    src = str(Path(lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", BRACKET_FAULT_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("CertificateError: mu_max outside its Minkowski bracket")


WINNER_FAULT_UNDER_O = """
import sys
from slopelab import lattice as lat
assert sys.flags.optimize  # run under python -O: library asserts are stripped
exact = lat._rank_candidates

def whole_only(*args):
    return exact(*args)[-1:]  # the line (1, 0) of determinant 1 is lost

lat._rank_candidates = whole_only
try:
    lat.mu_max(lat.Lattice.from_rows([[1, 0], [0, 4]]))
except lat.CertificateError as exc:
    print("CertificateError:", exc)
"""


def test_minkowski_bracket_catches_a_wrong_determinant_under_python_O():
    # the winner's determinant is wrong, not the value: with the rank-one
    # candidates gone, the whole lattice wins with d = 4 and its own
    # saturation agrees, but d <= b^k fails for the least norm b = 1
    src = str(Path(lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", WINNER_FAULT_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("CertificateError: mu_max outside its Minkowski bracket")


ENCLOSURE_FAULT_UNDER_O = """
import sys
from slopelab import lattice as lat
assert sys.flags.optimize  # run under python -O: library asserts are stripped
exact = lat._top_root_enclosure

def below(*args):
    A, B = exact(*args)
    return A - 1, A - 1  # one grid step below the true lower end

lat._top_root_enclosure = below
U = lat.Lattice.from_rows([[1, 0], [0, 1]])
F = lat.Lattice.from_rows([[3, 0], [0, 1]])
try:
    lat.morphism_height(lat.Morphism.from_rows(U, F, [[1, 0], [0, 1]]))
except lat.CertificateError as exc:
    print("CertificateError:", exc)
"""


def test_height_end_tests_catch_a_wrong_enclosure_under_python_O():
    # lambda = 3 is the walk's first midpoint: an enclosure just below it
    # sends that midpoint to hi, and the end test at hi = 3 fails
    src = str(Path(lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", ENCLOSURE_FAULT_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("CertificateError: the operator norm lies above its height bracket")


@st.composite
def minkowski_cases(draw):
    """(k, r, den, d, b): a rank-k determinant d / den^k of a rank-r
    lattice and a least norm b / den, with the equality cases b^k = d and
    b^k = r^k d drawn on purpose."""
    r = draw(st.integers(1, 6))
    k = draw(st.integers(1, r))
    den = draw(st.sampled_from((1, 2, 3, 6)))
    case = draw(st.sampled_from(("free", "low", "high")))
    if case == "free":
        return k, r, den, draw(st.integers(1, 10**4)), draw(st.integers(1, 60))
    c = draw(st.integers(1, 40))
    if case == "low":  # b^k = d
        return k, r, den, c**k, c
    return k, r, den, c**k, r * c  # b^k = r^k d


@given(minkowski_cases(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_integer_minkowski_bracket_agrees_with_logvalue_compare(case, shifted):
    """The integer bracket d <= b^k <= r^k d, with the value checked to
    multiply back to d, decides udeg <= val <= udeg + log(r)/2 as compare
    does on LogValues, and refuses a value that is not the slope of d."""
    k, r, den, d, b = case
    val = lat._slope_of_det(Fraction(d, den**k), k)
    if shifted:
        val = val + log_of(2)
    udeg = log_of(Fraction(b, den), Fraction(-1, 2))
    upper = udeg + log_of(r, Fraction(1, 2))
    want = compare(udeg, val) is not Order.GT and compare(val, upper) is not Order.GT
    got = lat._in_minkowski_bracket(val, k, d, b, r, den)
    assert got == (want and not shifted)


DUPLICATE_VERTEX_UNDER_O = """
import sys
from slopelab import lattice as lat
assert sys.flags.optimize  # run under python -O: library asserts are stripped
exact = lat._rank_candidates

def doubled(*args):
    found = exact(*args)
    return found + found[-1:]  # the whole lattice, a vertex, listed twice

lat._rank_candidates = doubled
try:
    lat.hn_filtration(lat.Lattice.from_rows([[1, 0], [0, 4]]))
except lat.CertificateError as exc:
    print("CertificateError:", exc)
"""


def test_hn_vertex_uniqueness_check_survives_python_O():
    src = str(Path(lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", DUPLICATE_VERTEX_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("CertificateError: an HN vertex must be attained by exactly one sublattice")


DET_FAULT_UNDER_O = """
import sys
from slopelab import lattice as lat
assert sys.flags.optimize  # run under python -O: library asserts are stripped
exact = lat._rank_candidates

def doubled(*args):
    return [(k, 2 * d, cols) for k, d, cols in exact(*args)]

lat._rank_candidates = doubled
for run in (lat.mu_max, lat.hn_filtration):
    try:
        run(lat.Lattice.from_rows([[1, 0], [0, 4]]))
    except lat.CertificateError as exc:
        print("CertificateError:", exc)
"""


def test_candidate_determinant_check_survives_python_O():
    # every determinant doubled: the witness (1, 0) and the HN vertices
    # have sub_det 1 and 4, not 2 and 8
    src = str(Path(lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", DET_FAULT_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    message = "CertificateError: a candidate's determinant must equal sub_det of its saturation"
    assert done.stdout.splitlines() == [message, message]
