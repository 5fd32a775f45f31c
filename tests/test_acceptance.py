"""End-to-end acceptance suite.

One test per acceptance criterion, each an exact (zero-tolerance)
property checked over a pinned randomized population, with the wall
clock budgeted per criterion.  All comparisons are LogValue, AlgValue,
or Fraction equalities and inequalities; no floating point enters any
verdict.
"""

import math
import random
import time
from fractions import Fraction as F

from oracles import (
    coord_map,
    grid_min_lambda,
    levi_witness_value,
    minimizers_proportional,
    quotient_bundle,
    random_unimodular,
    sub_bundle,
)

from slopelab import filtration as fil
from slopelab import gitstab as gs
from slopelab import linalg as la
from slopelab.exactnum import AlgValue, log_of
from slopelab.harness import bk_bracket, random_lattice, tensor_slope_data
from slopelab.harness import TrialConfig, check_bogomolov, check_reduction_chain
from slopelab.invariants import det_tensor
from slopelab.lattice import (
    Lattice,
    SubLattice,
    degree,
    dual,
    exterior_power,
    hn_filtration,
    is_saturated,
    saturate,
    tensor,
)


def random_saturated_sub(L, k, rng):
    while True:
        cols = [
            [rng.randint(-3, 3) for _ in range(L.rank)] for _ in range(k)
        ]
        if la.rank(la.frac_rows(cols)) == k:
            return saturate(SubLattice.from_columns(L, cols))


def test_criterion_1_exact_identity_suite():
    start = time.monotonic()
    rng = random.Random(10001)
    pool = [random_lattice(1 + rng.randrange(3), 10, rng) for _ in range(500)]
    for L in pool:
        assert degree(dual(L)) == degree(L).scaled(-1)
        assert degree(exterior_power(L, L.rank)) == degree(L)
        U = random_unimodular(rng, L.rank)
        G = la.mat_mul(la.frac_rows(U), la.mat_mul(list(map(list, L.gram_rows)), la.transpose(la.frac_rows(U))))
        assert degree(Lattice.from_rows(G)) == degree(L)
        if L.rank >= 2:
            S = random_saturated_sub(L, 1 + rng.randrange(L.rank - 1), rng)
            assert is_saturated(S)
            assert degree(L) == degree(sub_bundle(S)) + degree(quotient_bundle(S))
    for A, B in zip(pool[0::2], pool[1::2]):
        lhs = degree(tensor(A, B))
        assert lhs == degree(A).scaled(B.rank) + degree(B).scaled(A.rank)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print("criterion 1 PASS: exact identity suite, 500 lattices, %.1fs" % elapsed)


def test_criterion_2_bost_kunnemann_bracket():
    start = time.monotonic()
    rng = random.Random(10002)
    for _ in range(200):
        L = random_lattice(1 + rng.randrange(4), 5, rng)
        box = bk_bracket(L)
        assert box["udeg"] <= box["mu_max"]
        assert box["mu_max"] <= box["upper"]
        assert box["upper"] == box["udeg"] + log_of(L.rank, F(1, 2))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print("criterion 2 PASS: Bost-Kunnemann bracket, 200 lattices, %.1fs" % elapsed)


def test_criterion_3_main_theorem_bound():
    start = time.monotonic()
    rng = random.Random(10003)
    pairs = [(2, 2)] * 100 + [(2, 3)] * 25
    for ra, rb in pairs:
        A = random_lattice(ra, 3, rng)
        B = random_lattice(rb, 3, rng)
        data = tensor_slope_data([A, B])
        assert data["lower"] <= data["lhs"]
        assert data["lhs"] <= data["rhs"]
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print("criterion 3 PASS: main theorem, 100+25 pairs, %.1fs" % elapsed)


def rand_weights(rng, n):
    return [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]


def test_criterion_4_filtration_calculus():
    start = time.monotonic()
    rng = random.Random(10004)
    # scalar product against the weight-vector oracle, ten bases
    for _ in range(10):
        n = 1 + rng.randrange(5)
        basis = random_unimodular(rng, n)
        for _ in range(20):
            w1, w2 = rand_weights(rng, n), rand_weights(rng, n)
            Ff = fil.from_weighted_basis(basis, w1)
            Gf = fil.from_weighted_basis(basis, w2)
            # rank-normalized inner product: (1/n) sum of lambda products
            # over any common compatible basis
            assert fil.scalar_product(Ff, Gf) == F(sum(a * b for a, b in zip(w1, w2)), n)
            assert fil.scalar_product(Ff, Gf) == fil.scalar_product(Gf, Ff)
            assert fil.norm_squared(Ff) == F(sum(a * a for a in w1), n)
            # squared distance through the lambda coordinates of the basis
            dist = F(sum((a - b) ** 2 for a, b in zip(w1, w2)), n)
            assert (
                fil.norm_squared(Ff) - 2 * fil.scalar_product(Ff, Gf) + fil.norm_squared(Gf)
                == dist
            )
    # presentation independence: mixing a higher-weight vector into a
    # lower one changes the basis but not the filtration
    for _ in range(40):
        n = 2 + rng.randrange(4)
        basis = random_unimodular(rng, n)
        w = rand_weights(rng, n)
        order = sorted(range(n), key=lambda t: w[t])
        lo, hi = order[0], order[-1]
        mixed = [list(row) for row in basis]
        if w[hi] >= w[lo] and hi != lo:
            mixed[lo] = [a + 2 * b for a, b in zip(mixed[lo], mixed[hi])]
        assert fil.from_weighted_basis(mixed, w) == fil.from_weighted_basis(basis, w)
    # dilation identities
    for _ in range(50):
        n = 1 + rng.randrange(5)
        Ff = fil.from_weighted_basis(random_unimodular(rng, n), rand_weights(rng, n))
        Gf = fil.from_weighted_basis(random_unimodular(rng, n), rand_weights(rng, n))
        eps = F(1 + rng.randrange(6), 1 + rng.randrange(4))
        D = fil.dilate(Ff, eps)
        assert fil.expectation(D) == eps * fil.expectation(Ff)
        assert fil.scalar_product(D, Gf) == eps * fil.scalar_product(Ff, Gf)
        assert fil.norm_squared(D) == eps * eps * fil.norm_squared(Ff)
        v = [F(rng.randint(-3, 3)) for _ in range(n)]
        if any(v):
            assert fil.lambda_of(D, v) == eps * fil.lambda_of(Ff, v)
    # tensor lambda sum rule on decomposable vectors
    for _ in range(50):
        n1, n2 = 1 + rng.randrange(3), 1 + rng.randrange(3)
        F1 = fil.from_weighted_basis(random_unimodular(rng, n1), rand_weights(rng, n1))
        F2 = fil.from_weighted_basis(random_unimodular(rng, n2), rand_weights(rng, n2))
        T = fil.tensor([F1, F2])
        u = [F(rng.randint(-3, 3)) for _ in range(n1)]
        v = [F(rng.randint(-3, 3)) for _ in range(n2)]
        if not any(u) or not any(v):
            continue
        uv = [a * b for a in u for b in v]
        assert fil.lambda_of(T, uv) == fil.lambda_of(F1, u) + fil.lambda_of(F2, v)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print("criterion 4 PASS: filtration calculus, %.1fs" % elapsed)


SHAPES = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
_KEMPF_CACHE = None


def rand_small_point(rng):
    shape = SHAPES[rng.randrange(len(SHAPES))]
    if len(shape) == 1:
        cells = [(k,) for k in range(shape[0])]
    else:
        cells = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
    rng.shuffle(cells)
    coords = {}
    for cell in cells[: rng.randrange(1, min(4, len(cells)) + 1)]:
        coords[cell] = F(rng.choice([-3, -2, -1, 1, 2, 3]))
    return gs.TensorPoint.from_map(shape, coords)


def kempf_instances():
    """100 random small-shape points with their minimization results,
    computed once and shared by the Kempf and reduction criteria."""
    global _KEMPF_CACHE
    if _KEMPF_CACHE is None:
        rng = random.Random(10005)
        out = []
        for _ in range(100):
            x = rand_small_point(rng)
            out.append((x, gs.kempf_minimize(x, rng_seed=0)))
        _KEMPF_CACHE = out
    return _KEMPF_CACHE


def test_criterion_5_kempf_minimizer():
    start = time.monotonic()
    unstable = 0
    challenge_rng = random.Random(99055)
    for x, res in kempf_instances():
        sign, _ = grid_min_lambda(x.shape, coord_map(x))
        assert (res is None) == (sign == 0)
        if res is None:
            continue
        unstable += 1
        other = gs.kempf_minimize(x, rng_seed=99)
        assert other is not None
        assert other.c == res.c
        assert minimizers_proportional(res, other)
        for comp in res.minimizer.components:
            assert fil.expectation(comp) == 0
        # estimation inequality against fresh challenge tuples,
        # cleared of the square root by AlgValue arithmetic
        norm_sq = sum((fil.norm_squared(c) for c in res.minimizer.components), F(0))
        for _ in range(100):
            comps = []
            for r in x.shape:
                vecs = random_unimodular(challenge_rng, r)
                comps.append(
                    fil.from_weighted_basis(
                        vecs, [F(challenge_rng.randrange(-3, 4)) for _ in range(r)]
                    )
                )
            tup = gs.FiltrationTuple(tuple(comps))
            lhs = sum((fil.expectation(c) for c in comps), F(0))
            lhs -= gs.tensor_lambda(x, tup)
            pairing = sum(
                (fil.scalar_product(a, b) for a, b in zip(res.minimizer.components, comps)),
                F(0),
            )
            assert AlgValue.from_rational(lhs) * AlgValue.sqrt_of(norm_sq) >= res.c.scaled(pairing)
    assert unstable >= 10
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        "criterion 5 PASS: Kempf vs grid oracle, 100 points (%d unstable), %.1fs"
        % (unstable, elapsed)
    )


def test_criterion_6_rr_reduction():
    start = time.monotonic()
    reduced_count = 0
    for x, res in kempf_instances():
        if res is None:
            continue
        R = gs.rr_reduce(x, res)
        for a_row, r_row, b_row in zip(R.a, R.block_ranks, R.b):
            assert sum(ai * ri for ai, ri in zip(a_row, r_row)) == 0
            assert all(bi >= 0 for bi in b_row)
            assert all(t < s for t, s in zip(a_row, a_row[1:]))
        assert R.reduced and all(p.coords for p in R.reduced)
        # the Levi witness certifies the minimizer; re-evaluated independently
        assert levi_witness_value(R) == R.witness.value != 0
        verdict = gs.reduced_is_semistable(R)
        assert verdict.semistable
        reduced_count += 1
    assert reduced_count >= 10
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        "criterion 6 PASS: RR reduction on %d unstable instances, %.1fs"
        % (reduced_count, elapsed)
    )


def test_criterion_7_det_tensor_norm():
    start = time.monotonic()
    for d in range(1, 7):
        point, norm = det_tensor(d)
        assert norm == log_of(math.factorial(d), F(1, 2))
        assert len(point.coords) == math.factorial(d)
    elapsed = time.monotonic() - start
    print("criterion 7 PASS: det tensor norm through d=6, %.1fs" % elapsed)


def test_criterion_8_bogomolov_criterion():
    start = time.monotonic()
    rng = random.Random(10008)
    semistable = unstable = 0
    for k in range(100):
        L = random_lattice(1 + rng.randrange(3), 4, rng)
        rep = check_bogomolov(L, flag_budget=4, seed=k)
        assert rep.ok, rep.failures
        if hn_filtration(L).is_semistable:
            semistable += 1
            for o in rep.outcomes:
                assert o.detail["expect"] == "lhs <= rhs"
        else:
            unstable += 1
            first = rep.outcomes[0]
            assert first.detail["expect"] == "lhs > rhs"
            assert first.verdict == "pass"
    assert semistable >= 10 and unstable >= 10
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        "criterion 8 PASS: Bogomolov on 100 lattices (%d ss, %d us), %.1fs"
        % (semistable, unstable, elapsed)
    )


def test_criterion_9_reduction_chain_bound():
    start = time.monotonic()
    report = check_reduction_chain(
        TrialConfig(seed=10009, ranks=(2, 2), entry_bound=2, trials=6)
    )
    assert report.ok, report.failures
    assert all(o.verdict == "pass" for o in report.outcomes)
    lines = sum(len(o.detail["subbundles"]) for o in report.outcomes)
    assert lines >= 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        "criterion 9 PASS: reduction chain bound, 6 semistable pairs, %d lines, %.1fs"
        % (lines, elapsed)
    )
