import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slopelab import filtration as fil
from slopelab import linalg as la
from oracles import (
    assemble_from_subquotients,
    common_compatible_basis,
    coordinates,
    det,
    direct_sum,
    fraction_adapted_basis,
    fraction_extend,
    from_coordinates,
    is_compatible,
    is_trivial,
    norm,
    scalar_product_by_basis,
)


def rand_filtration(rng, dim, pool=(-2, -1, 0, 1, 2)):
    while True:
        M = [[Fraction(rng.randrange(-3, 4)) for _ in range(dim)] for _ in range(dim)]
        if det(M) != 0:
            break
    ws = [Fraction(rng.choice(pool)) for _ in range(dim)]
    if rng.random() < 0.3:
        shift = Fraction(1, rng.randrange(2, 5))
        ws = [w + shift for w in ws]
    return fil.from_weighted_basis(M, ws)


FLAG_E1 = fil.make(2, [[[1, 0]]], [0, 1])


# ---------------------------------------------------------------------------
# construction and evaluation


def test_make_validation():
    assert fil.trivial(2).depth == 1
    fil.make(2, [[[1, 0]]], [0, 1])
    with pytest.raises(ValueError):
        fil.make(2, [[[1, 0]]], [1, 0])  # jumps must increase
    with pytest.raises(ValueError):
        fil.make(3, [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]], [0, 1, 2])  # not nested
    with pytest.raises(ValueError):
        fil.make(2, [[[1, 0]], [[1, 0]]], [0, 1, 2])  # ranks must decrease
    with pytest.raises(ValueError):
        fil.make(2, [[[1, 0, 0]]], [0, 1])  # ambient dimension mismatch


def _t(*xs):
    return tuple(Fraction(x) for x in xs)


J2 = (Fraction(0), Fraction(1))
J3 = (Fraction(0), Fraction(1), Fraction(2))

# Direct Filtration(dim, jumps, flag) construction: the flag must already be
# canonical echelon rows, stored as tuples.  Verdicts recorded with the
# elimination-based check that the structural check replaced.
CONSTRUCTOR_CASES = [
    ("canonical", 3, J3, ((_t(1, 0, 0), _t(0, 1, 0)), (_t(1, 0, 0),)), True),
    ("scaled_pivot", 2, J2, ((_t(2, 0),),), False),
    ("unsorted_pivots", 3, J2, ((_t(0, 1, 0), _t(1, 0, 0)),), False),
    ("entry_above_pivot", 3, J2, ((_t(1, 1, 0), _t(0, 1, 0)),), False),
    ("zero_row", 3, J2, ((_t(1, 0, 0), _t(0, 0, 0)),), False),
    ("only_zero_row", 2, J2, ((_t(0, 0),),), False),
    ("member_as_lists", 2, J2, ([[Fraction(1), Fraction(0)]],), False),
    ("rows_as_lists", 2, J2, (([Fraction(1), Fraction(0)],),), False),
    ("int_entries", 3, J2, (((1, 0, 2), (0, 1, -1)),), True),
    ("not_nested", 3, J3, ((_t(1, 0, 0), _t(0, 1, 0)), (_t(0, 0, 1),)), False),
    ("wrong_dimension", 2, J2, ((_t(1, 0, 0),),), False),
    ("empty_member", 2, J2, ((),), False),
    ("rank_not_decreasing", 2, J3, ((_t(1, 0),), (_t(1, 0),)), False),
]


@pytest.mark.parametrize(
    "dim,jumps,flag,accepted",
    [case[1:] for case in CONSTRUCTOR_CASES],
    ids=[case[0] for case in CONSTRUCTOR_CASES],
)
def test_constructor_verdicts(dim, jumps, flag, accepted):
    if accepted:
        F = fil.Filtration(dim, jumps, flag)
        assert F == fil.make(dim, flag, jumps)
    else:
        with pytest.raises(ValueError):
            fil.Filtration(dim, jumps, flag)


def test_expectation_frozen():
    assert fil.expectation(fil.trivial(4)) == 0
    assert fil.expectation(FLAG_E1) == Fraction(1, 2)
    F = fil.make(3, [[[1, 0, 0]]], [-1, 2])
    assert fil.expectation(F) == 0


def test_lambda_of_frozen():
    assert fil.lambda_of(FLAG_E1, [0, 0]) == math.inf
    assert fil.lambda_of(FLAG_E1, [1, 0]) == 1
    assert fil.lambda_of(FLAG_E1, [0, 1]) == 0
    assert fil.lambda_of(FLAG_E1, [1, 1]) == 0
    T = fil.trivial(3)
    assert fil.lambda_of(T, [5, -1, 2]) == 0
    with pytest.raises(ValueError):
        fil.lambda_of(FLAG_E1, [1, 0, 0])


def test_dilate():
    assert fil.dilate(FLAG_E1, 1) == FLAG_E1
    D = fil.dilate(FLAG_E1, 3)
    assert D.jumps == (Fraction(0), Fraction(3))
    assert fil.expectation(D) == 3 * fil.expectation(FLAG_E1)
    assert fil.dilate(fil.trivial(2), Fraction(7, 2)) == fil.trivial(2)
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            fil.dilate(FLAG_E1, bad)


# ---------------------------------------------------------------------------
# sums and tensor products


def test_direct_sum_values():
    rng = random.Random(500)
    for _ in range(20):
        F = rand_filtration(rng, rng.randrange(1, 4))
        G = rand_filtration(rng, rng.randrange(1, 4))
        S = direct_sum([F, G])
        assert S.dim == F.dim + G.dim
        total = fil.expectation(F) * F.dim + fil.expectation(G) * G.dim
        assert fil.expectation(S) * S.dim == total
        for _ in range(5):
            u = [Fraction(rng.randrange(-2, 3)) for _ in range(F.dim)]
            lifted = u + [Fraction(0)] * G.dim
            if any(u):
                assert fil.lambda_of(S, lifted) == fil.lambda_of(F, u)


def test_tensor_frozen_product_rule():
    T = fil.tensor([FLAG_E1, FLAG_E1])
    assert T.jumps == (Fraction(0), Fraction(1), Fraction(2))
    assert fil.lambda_of(T, [1, 0, 0, 0]) == 2  # e1 (x) e1
    assert fil.lambda_of(T, [0, 1, 0, 0]) == 1  # e1 (x) e2
    assert fil.lambda_of(T, [0, 0, 0, 1]) == 0  # e2 (x) e2
    assert fil.tensor([fil.trivial(2), fil.trivial(3)]) == fil.trivial(6)


def test_tensor_lambda_two_routes():
    # flag-membership evaluation against the minimum over nonzero
    # coordinates in a product compatible basis
    rng = random.Random(501)
    for _ in range(15):
        F = rand_filtration(rng, rng.randrange(1, 4))
        G = rand_filtration(rng, rng.randrange(1, 4))
        T = fil.tensor([F, G])
        bf = fil.adapted_basis(F)
        bg = fil.adapted_basis(G)
        cols = []
        vals = []
        for u, a in bf:
            for v, b in bg:
                cols.append([x * y for x in u for y in v])
                vals.append(a + b)
        B = la.transpose(cols)
        for _ in range(5):
            w = [Fraction(rng.randrange(-2, 3)) for _ in range(T.dim)]
            if not any(w):
                continue
            coords = la.solve_square(B, w)
            bymin = min(vals[t] for t in range(len(vals)) if coords[t] != 0)
            assert fil.lambda_of(T, w) == bymin


def test_adapted_basis_checks_its_length(monkeypatch):
    # a flag whose members fail to extend to a basis is an error, also under -O
    monkeypatch.setattr(fil, "_extend", lambda base, candidates: [])
    with pytest.raises(RuntimeError, match="adapted basis has 0 vectors in dimension 2"):
        fil.adapted_basis(FLAG_E1)


@st.composite
def extension_cases(draw):
    """(base, candidates) in dimension 1-5 with entries n/d.  Rows are
    fresh, repeats of an earlier row, zero, or sums of two earlier rows, so
    the base may be empty or dependent and candidates may repeat or depend
    on the base and on each other."""
    n = draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3, 5)))
    fresh = st.lists(entry, min_size=n, max_size=n)
    rows = []
    for _ in range(draw(st.integers(0, 2 * n + 2))):
        kind = draw(st.sampled_from(("fresh", "fresh", "repeat", "zero", "sum")))
        if kind == "fresh" or not rows:
            rows.append(draw(fresh))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append([Fraction(0)] * n)
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a + b for a, b in zip(u, v)])
    k = draw(st.integers(0, len(rows)))
    return rows[:k], rows[k:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(extension_cases())
def test_extend_matches_fraction_oracle(case):
    """The integer greedy extension picks the rows the Fraction rref
    oracle picks, in its order, as the same Fraction lists."""
    base, candidates = case
    got = fil._extend(base, candidates)
    want = fraction_extend(base, candidates)
    assert got == want
    assert all(type(a) is Fraction for row in got for a in row)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(0, 2**32))
def test_adapted_basis_matches_fraction_oracle(dim, seed):
    """Adapted bases of seeded flags, vectors and values, equal those built
    with the Fraction greedy extension."""
    F = rand_filtration(random.Random(seed), dim)
    assert fil.adapted_basis(F) == fraction_adapted_basis(F)


def test_dilation_tensor_identity():
    lhs = fil.dilate(fil.tensor([FLAG_E1, FLAG_E1]), 2)
    rhs = fil.tensor([fil.dilate(FLAG_E1, 2), fil.dilate(FLAG_E1, 2)])
    assert lhs == rhs
    rng = random.Random(502)
    for _ in range(10):
        F = rand_filtration(rng, rng.randrange(1, 4))
        G = rand_filtration(rng, rng.randrange(1, 4))
        eps = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
        assert fil.dilate(fil.tensor([F, G]), eps) == fil.tensor(
            [fil.dilate(F, eps), fil.dilate(G, eps)]
        )
        assert fil.expectation(fil.dilate(F, eps)) == eps * fil.expectation(F)


# ---------------------------------------------------------------------------
# compatible bases and the scalar product


def test_common_basis_frozen():
    F = FLAG_E1
    G = fil.make(2, [[[0, 1]]], [0, 1])
    cb = common_compatible_basis(F, G)
    assert [list(v) for v in cb.vectors] == [[1, 0], [0, 1]]
    H = fil.make(2, [[[1, 1]]], [0, 1])
    cb = common_compatible_basis(F, H)
    assert [list(v) for v in cb.vectors] == [[1, 0], [1, 1]]
    same = common_compatible_basis(F, F)
    assert is_compatible(F, same)


def test_common_basis_random_pairs():
    rng = random.Random(503)
    for _ in range(25):
        n = rng.randrange(1, 6)
        F = rand_filtration(rng, n)
        G = rand_filtration(rng, n)
        cb = common_compatible_basis(F, G)
        assert is_compatible(F, cb) and is_compatible(G, cb)
        again = common_compatible_basis(F, G)
        assert cb == again  # deterministic


def test_scalar_product_frozen():
    assert fil.scalar_product(fil.trivial(2), FLAG_E1) == 0
    ONE = fil.make(2, [], [1])
    assert fil.scalar_product(ONE, ONE) == 1
    assert fil.norm_squared(FLAG_E1) == Fraction(1, 2)
    assert norm(FLAG_E1).square == Fraction(1, 2)


# (seed 520, pair k has rank 1 + k % 5): values recorded with the
# basis-sum pairing before the scalar product was computed from ranks
SCALAR_PRODUCT_FROZEN = [
    Fraction(-2), Fraction(4, 3), Fraction(-4, 3), Fraction(-11, 8), Fraction(-6, 5),
    Fraction(-3, 2), Fraction(-3), Fraction(-2), Fraction(-5, 6), Fraction(-1),
]


def test_scalar_product_frozen_pairs():
    rng = random.Random(520)
    got = []
    for k in range(len(SCALAR_PRODUCT_FROZEN)):
        n = 1 + k % 5
        F = rand_filtration(rng, n)
        G = rand_filtration(rng, n)
        got.append(fil.scalar_product(F, G))
    assert got == SCALAR_PRODUCT_FROZEN


def _partner(rng, F):
    """A second filtration on F's space: random, or one of the degenerate
    cases (equal, dilated, sharing a flag member, trivial)."""
    kind = rng.randrange(6)
    if kind == 0:
        return F
    if kind == 1:
        return fil.dilate(F, Fraction(rng.randrange(1, 5), rng.randrange(1, 4)))
    if kind == 2 and F.depth > 1:
        shared = F.flag[rng.randrange(F.depth - 1)]
        flag = [shared] + ([shared[:1]] if len(shared) > 1 else [])
        return fil.make(F.dim, flag, range(len(flag) + 1))
    if kind == 3:
        return fil.trivial(F.dim)
    return rand_filtration(rng, F.dim)


def test_scalar_product_matches_basis_oracle():
    rng = random.Random(521)
    for _ in range(320):
        n = rng.randrange(1, 6)
        F = rand_filtration(rng, n)
        G = _partner(rng, F)
        if rng.random() < 0.5:
            F, G = G, F
        assert fil.scalar_product(F, G) == scalar_product_by_basis(F, G)
    assert fil.scalar_product(fil.trivial(3), fil.trivial(3)) == 0


def test_membership_and_pairing_do_not_eliminate(monkeypatch):
    rng = random.Random(522)
    pairs = [(rand_filtration(rng, n), rand_filtration(rng, n)) for n in (1, 2, 3, 4, 5, 5)]
    bases = [common_compatible_basis(F, G) for F, G in pairs]
    calls = []
    rref = la.rref

    def counting_rref(M):
        calls.append(1)
        return rref(M)

    monkeypatch.setattr(la, "rref", counting_rref)
    for (F, G), cb in zip(pairs, bases):
        calls.clear()
        for v in cb.vectors:
            fil.lambda_of(F, v)
        assert is_compatible(F, cb) and is_compatible(G, cb)
        assert fil.Filtration(G.dim, G.jumps, G.flag) == G
        assert not calls
        fil.scalar_product(F, G)
        assert len(calls) <= (F.depth - 1) * (G.depth - 1)


def test_scalar_product_basis_independent():
    rng = random.Random(504)
    for _ in range(8):
        n = rng.randrange(2, 6)
        F = rand_filtration(rng, n)
        G = rand_filtration(rng, n)
        reference = fil.scalar_product(F, G)
        for seed in range(10):
            mixer = random.Random(1000 + seed)
            cb = common_compatible_basis(F, G, mixer)
            val = sum(
                fil.lambda_of(F, v) * fil.lambda_of(G, v) for v in cb.vectors
            ) / Fraction(n)
            assert val == reference


def test_scalar_product_symmetric_and_dilation_linear():
    rng = random.Random(505)
    for _ in range(15):
        n = rng.randrange(1, 5)
        F = rand_filtration(rng, n)
        G = rand_filtration(rng, n)
        assert fil.scalar_product(F, G) == fil.scalar_product(G, F)
        eps = Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
        assert fil.scalar_product(fil.dilate(F, eps), G) == eps * fil.scalar_product(F, G)


def test_norm_zero_iff_trivial():
    assert fil.norm_squared(fil.trivial(3)) == 0
    rng = random.Random(506)
    for _ in range(20):
        F = rand_filtration(rng, rng.randrange(1, 5))
        assert (fil.norm_squared(F) == 0) == is_trivial(F)


# ---------------------------------------------------------------------------
# coordinates


def test_coordinates_frozen():
    eye = fil.CompatibleBasis(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    assert coordinates(fil.trivial(2), eye) == (0, 0)
    assert coordinates(FLAG_E1, eye) == (1, 0)
    bad = fil.CompatibleBasis(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
    with pytest.raises(ValueError):
        coordinates(FLAG_E1, bad)


def test_coordinates_roundtrip_and_euclidean():
    rng = random.Random(507)
    for _ in range(100):
        n = rng.randrange(1, 6)
        F = rand_filtration(rng, n)
        cb = common_compatible_basis(F, F, rng)
        values = coordinates(F, cb)
        assert from_coordinates(cb, values) == F
        x = [Fraction(rng.randrange(-3, 4)) for _ in range(n)]
        y = [Fraction(rng.randrange(-3, 4)) for _ in range(n)]
        P = from_coordinates(cb, x)
        Q = from_coordinates(cb, y)
        assert fil.scalar_product(P, Q) * n == sum(a * b for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# subquotient assembly


def test_assemble_frozen():
    B0 = fil.make(1, [], [Fraction(5)])
    B1 = fil.make(1, [], [Fraction(7)])
    G = assemble_from_subquotients(FLAG_E1, [B0, B1])
    assert fil.scalar_product(FLAG_E1, G) == Fraction(7, 2)
    assert fil.expectation(G) == Fraction(5 + 7, 2)


def test_assemble_trivial_blocks():
    F = fil.make(3, [[[1, 0, 0]]], [0, 2])
    G = assemble_from_subquotients(F, [fil.trivial(2), fil.trivial(1)])
    assert G == fil.trivial(3)


def test_assemble_single_block_is_lift():
    F = fil.make(3, [], [Fraction(4)])
    block = fil.make(3, [[[1, 2, 0]]], [0, 1])
    G = assemble_from_subquotients(F, [block])
    assert G == block


def test_assemble_errors():
    with pytest.raises(ValueError):
        assemble_from_subquotients(FLAG_E1, [fil.trivial(1)])
    with pytest.raises(ValueError):
        assemble_from_subquotients(FLAG_E1, [fil.trivial(2), fil.trivial(2)])


def test_assemble_random_identities():
    rng = random.Random(508)
    for _ in range(15):
        n = rng.randrange(2, 5)
        F = rand_filtration(rng, n)
        blocks = [rand_filtration(rng, m) for m in F.multiplicities()]
        G = assemble_from_subquotients(F, blocks)
        # the identities are asserted inside; check them here too, since
        # python -O strips the asserts of the oracle module
        assert fil.expectation(G) == sum(
            fil.expectation(b) * m for b, m in zip(blocks, F.multiplicities())
        ) / Fraction(n)
        expect = sum(
            lam * fil.expectation(b) * m
            for lam, b, m in zip(F.jumps, blocks, F.multiplicities())
        ) / Fraction(n)
        assert fil.scalar_product(F, G) == expect


# ---------------------------------------------------------------------------
# serialization


def test_filtration_json_roundtrip():
    rng = random.Random(509)
    for _ in range(20):
        F = rand_filtration(rng, rng.randrange(1, 5))
        assert fil.Filtration.from_json(F.to_json()) == F
    tup = fil.FiltrationTuple((FLAG_E1, fil.trivial(3)))
    assert fil.FiltrationTuple.from_json(tup.to_json()) == tup
    with pytest.raises(ValueError):
        fil.FiltrationTuple(())
