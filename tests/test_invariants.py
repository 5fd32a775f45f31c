import math
import random
from fractions import Fraction

import pytest

from slopelab.exactnum import LogValue, log_of
from slopelab.gitstab import TensorPoint, is_semistable
from slopelab.invariants import (
    BUDGET_EXCEEDED,
    WitnessInvariant,
    det_tensor,
    invariant_witness_search,
    semistable_degree_bound,
)

from oracles import composed_det_value, coord_map, witness_exists_all_perms


def point(shape, entries):
    return TensorPoint.from_map(
        shape, {idx: Fraction(v) for idx, v in entries.items()}
    )


IDENT = point((2, 2), {(0, 0): 1, (1, 1): 1})
PURE = point((2, 2), {(0, 0): 1})
SWAP = point((2, 2), {(0, 1): 1, (1, 0): 1})


class TestDetTensor:
    def test_small_dimensions_frozen(self):
        t1, n1 = det_tensor(1)
        assert t1.coords == (((0,), Fraction(1)),)
        assert n1 == LogValue.zero()
        t2, n2 = det_tensor(2)
        assert t2.coords == (((0, 1), Fraction(1)), ((1, 0), Fraction(-1)))
        assert n2 == log_of(Fraction(2), Fraction(1, 2))
        _, n3 = det_tensor(3)
        assert n3 == log_of(Fraction(6), Fraction(1, 2))

    def test_coefficient_sum_matches_norm_up_to_six(self):
        for d in range(1, 7):
            t, norm = det_tensor(d)
            square_sum = sum(c * c for _, c in t.coords)
            assert square_sum == math.factorial(d)
            assert norm == log_of(square_sum, Fraction(1, 2))
            assert len(t.coords) == math.factorial(d)
            assert all(abs(c) == 1 for _, c in t.coords)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            det_tensor(0)


class TestWitnessSearch:
    def test_identity_tensor_found(self):
        w = invariant_witness_search(IDENT, (1, 1), 2, 1)
        assert isinstance(w, WitnessInvariant)
        assert w.D == 1
        assert w.alphas == ((1, 1), (1, 1))
        assert w.sigma == ((0, 1), (0, 1))
        assert w.value == 2
        assert w.to_json() == {
            "D": 1,
            "alphas": [[1, 1], [1, 1]],
            "sigma": [[0, 1], [0, 1]],
            "value": "2",
        }

    def test_pure_tensor_exhausts_to_none(self):
        assert invariant_witness_search(PURE, (1, 1), 2, 2) is None

    def test_scalar_case(self):
        v = point((1,), {(0,): 3})
        w = invariant_witness_search(v, (3,), 3, 1)
        assert w.D == 1
        assert w.sigma == ((0, 1, 2),)
        assert w.value == 27

    def test_swap_tensor_found_with_sign(self):
        w = invariant_witness_search(SWAP, (1, 1), 2, 1)
        assert w.value == -2

    def test_many_copies_run_on_an_explicit_stack(self):
        # 1500 copies are deeper than the interpreter's recursion limit
        v = point((1,), {(0,): 2})
        w = invariant_witness_search(v, (1500,), 1500, 1)
        assert w.D == 1 and len(w.alphas) == 1500
        assert w.value == 2**1500

    def test_budget_sentinel_distinct_from_none(self):
        out = invariant_witness_search(IDENT, (1, 1), 2, 1, budget=2)
        assert out == BUDGET_EXCEEDED
        assert out is not None

    def test_component_mapping_input(self):
        as_map = invariant_witness_search({(1, 1): IDENT}, (1, 1), 2, 1)
        direct = invariant_witness_search(IDENT, (1, 1), 2, 1)
        assert as_map == direct

    def test_two_letter_alphabet(self):
        comps = {
            (1, 0): point((1,), {(0,): 2}),
            (0, 1): point((1,), {(0,): 5}),
        }
        w = invariant_witness_search(comps, (1, 1), 2, 1)
        assert w.alphas == ((0, 1), (1, 0))
        assert w.value == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            invariant_witness_search(IDENT, (1, 1), 0, 1)
        with pytest.raises(ValueError):
            invariant_witness_search(IDENT, (1, 1), 2, 0)
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget must be positive"):
                invariant_witness_search(IDENT, (1, 1), 2, 1, budget=budget)
        with pytest.raises(ValueError):
            invariant_witness_search(IDENT, (1,), 2, 1)
        with pytest.raises(ValueError):
            invariant_witness_search({(1, 1): point((2,), {(0,): 1})}, (1, 1), 2, 1)
        with pytest.raises(ValueError):
            WitnessInvariant(1, ((1, 1),), ((0,), (0,)), Fraction(0))
        with pytest.raises(ValueError):
            WitnessInvariant(0, ((1, 1),), ((0,), (0,)), Fraction(1))
        with pytest.raises(ValueError):
            WitnessInvariant(1, ((1, 1),), ((0, 0), (0, 1)), Fraction(1))

    def test_agrees_with_all_permutation_scan(self):
        rng = random.Random(20260814)
        found_some = none_some = False
        for _ in range(40):
            support = rng.randint(1, 3)
            coords = {}
            while len(coords) < support:
                idx = (rng.randint(0, 1), rng.randint(0, 1))
                coords[idx] = Fraction(rng.choice([-2, -1, 1, 2]))
            x = TensorPoint.from_map((2, 2), coords)
            w = invariant_witness_search(x, (1, 1), 2, 1)
            exists = witness_exists_all_perms(coord_map(x), (2, 2), (1, 1), 2, 1)
            assert (w is not None) == exists
            if w is None:
                none_some = True
            else:
                found_some = True
                copies = [coord_map(x)] * len(w.alphas)
                redone = composed_det_value(copies, w.alphas, w.sigma, (2, 2))
                assert redone == w.value != 0
        assert found_some and none_some

    def test_witness_implies_not_unstable(self):
        rng = random.Random(7)
        cases = []
        for _ in range(12):
            coords = {}
            while len(coords) < 2:
                idx = (rng.randint(0, 1), rng.randint(0, 1))
                coords[idx] = Fraction(rng.choice([-2, -1, 1, 2]))
            cases.append((TensorPoint.from_map((2, 2), coords), (1, 1), 2))
        for _ in range(4):
            coords = {}
            while len(coords) < 2:
                idx = (rng.randint(0, 1), rng.randint(0, 2))
                coords[idx] = Fraction(rng.choice([-2, -1, 1, 2]))
            cases.append((TensorPoint.from_map((2, 3), coords), (3, 2), 6))
        hits = 0
        for x, b, m in cases:
            w = invariant_witness_search(x, b, m, 1)
            if isinstance(w, WitnessInvariant):
                hits += 1
                assert is_semistable(x).semistable
        assert hits >= 1


class TestDegreeBound:
    def test_frozen_examples(self):
        assert semistable_degree_bound([(LogValue.zero(), 1)], [1], 1) == LogValue.zero()
        two = semistable_degree_bound(
            [(LogValue.zero(), 2), (LogValue.zero(), 2)], [3, 3], 3
        )
        assert two == log_of(Fraction(2))
        mixed = semistable_degree_bound(
            [
                (log_of(Fraction(2), Fraction(-1)), 2),
                (log_of(Fraction(2), Fraction(-1, 2)), 2),
            ],
            [2, 2],
            2,
        )
        assert mixed == log_of(Fraction(2), Fraction(-1, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            semistable_degree_bound([(LogValue.zero(), 1)], [1], 0)
        with pytest.raises(ValueError):
            semistable_degree_bound([(LogValue.zero(), 0)], [1], 1)
        with pytest.raises(ValueError):
            semistable_degree_bound([(LogValue.zero(), 1)], [1, 2], 1)

    def test_dominates_factorial_variant(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(1, 4)
            mus, ranks, b = [], [], []
            for _ in range(n):
                q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                scale = Fraction(rng.randint(-3, 3))
                mus.append(log_of(q, scale) if scale else LogValue.zero())
                ranks.append(rng.randint(1, 5))
                b.append(rng.randint(0, 4))
            m = rng.randint(1, 4)
            bound = semistable_degree_bound(list(zip(mus, ranks)), b, m)
            sharper = LogValue.zero()
            for mu, r, b_i in zip(mus, ranks, b):
                term = mu + log_of(
                    Fraction(math.factorial(r)), Fraction(1, 2 * r)
                )
                sharper = sharper + term.scaled(Fraction(b_i, m))
            assert sharper <= bound
