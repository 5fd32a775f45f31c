import ast
import dataclasses
import functools
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from slopelab import exactnum
from slopelab import filtration as fil
from slopelab import gitstab as gs
from slopelab import linalg as la
from slopelab.exactnum import AlgValue
from slopelab.filtration import CompatibleBasis, FiltrationTuple
import oracles
from oracles import (
    big_lambda,
    block_rounds_semistable,
    challenge_sides,
    coord_map,
    draw,
    draw_weighted,
    fraction_det,
    fraction_inverse,
    fraction_lambda_in_bases,
    fraction_random_rows,
    fraction_rr_reduce,
    fresh_seed_bases,
    grid_min_lambda,
    is_trivial,
    kempf_challenges,
    levi_witness_value,
    minimize_fixed_basis,
    minimizers_proportional,
    reduced_mu,
    sampled_reduced_mu,
    scalar_product_by_basis,
    scalar_product_with_basis,
    span_options_with_reversal,
    subset_scan_min_norm_point,
    support_in_changes,
)
from slopelab import invariants as inv

F = Fraction


def point(shape, coords):
    return gs.TensorPoint.from_map(shape, {k: F(v) for k, v in coords.items()})


def weighted(vectors, weights):
    return fil.from_weighted_basis(vectors, [F(w) for w in weights])


E1_POINT = point((2,), {(0,): 1})
E11_POINT = point((2, 2), {(0, 0): 1})
IDENT_POINT = point((2, 2), {(0, 0): 1, (1, 1): 1})
PM_FILT = weighted([[1, 0], [0, 1]], [1, -1])  # weight 1 on e1, -1 on e2


def rand_point(rng, shapes=((2,), (2, 2))):
    shape = shapes[rng.randrange(len(shapes))]
    total = 1
    for r in shape:
        total *= r
    cells = [tuple(divmod(k, shape[-1]))[-len(shape):] if len(shape) == 2 else (k,)
             for k in range(total)]
    rng.shuffle(cells)
    coords = {}
    for cell in cells[: rng.randrange(1, min(4, total) + 1)]:
        coords[cell] = F(rng.choice([-3, -2, -1, 1, 2, 3]))
    return gs.TensorPoint.from_map(shape, coords)


def alg_from_pair(pair):
    sign, square = pair
    return AlgValue(sign, F(square))


# ---------------------------------------------------------------------------
# tensor point plumbing


def test_tensor_point_validation():
    with pytest.raises(ValueError):
        gs.TensorPoint((2,), ())
    with pytest.raises(ValueError):
        point((2,), {(2,): 1})
    with pytest.raises(ValueError):
        gs.TensorPoint((2,), (((0,), F(0)),))
    with pytest.raises(ValueError):
        point((2, 2), {(0,): 1})


def test_tensor_point_json_roundtrip():
    x = point((2, 3), {(0, 2): F(3, 2), (1, 0): -2})
    payload = x.to_json()
    assert payload["coords"] == {"1,3": "3/2", "2,1": "-2"}
    assert gs.TensorPoint.from_json(payload) == x
    # two keys that name one cell are refused, not merged
    for twin in ("01,3", " 1,3", "1,03"):
        with pytest.raises(ValueError, match="duplicate index"):
            gs.TensorPoint.from_json({"shape": [2, 3], "coords": {"1,3": "1", twin: "2"}})


# ---------------------------------------------------------------------------
# the tensor filtration value and the functional


def test_tensor_lambda_frozen():
    triv = FiltrationTuple((fil.trivial(2), fil.trivial(2)))
    assert gs.tensor_lambda(IDENT_POINT, triv) == 0
    flag_e1 = fil.make(2, [[[1, 0]]], [0, 1])
    both = FiltrationTuple((flag_e1, flag_e1))
    assert gs.tensor_lambda(IDENT_POINT, both) == 0  # min(2, 0)
    assert gs.tensor_lambda(E11_POINT, both) == 2
    with pytest.raises(ValueError):
        gs.tensor_lambda(E1_POINT, both)


def test_tensor_lambda_basis_choice_irrelevant():
    rng = random.Random(11)
    flag = weighted([[1, 1], [0, 1]], [2, -1])
    tup = FiltrationTuple((flag, PM_FILT))
    x = point((2, 2), {(0, 0): 1, (1, 0): 2, (1, 1): -1})
    want = gs.tensor_lambda(x, tup)
    # dilation scales the value linearly, a cheap independent cross-check
    for _ in range(5):
        k = rng.randrange(2, 6)
        scaled = FiltrationTuple(tuple(fil.dilate(Fl, F(k)) for Fl in tup.components))
        assert gs.tensor_lambda(x, scaled) == k * want


def test_lambda_in_drawn_basis_matches_tensor_lambda():
    # the Kempf challenge scores lambda in the basis it draws; that basis is
    # compatible with the challenge filtration, so the value is the same
    rng = random.Random(17)
    for shape in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        cells = list(itertools.product(*[range(r) for r in shape]))
        for _ in range(15):
            x = gs.TensorPoint.from_map(
                shape, {c: F(rng.choice((-3, -2, -1, 1, 2, 3))) for c in rng.sample(cells, rng.randrange(1, len(cells) + 1))}
            )
            drawn = [draw_weighted(rng, r, 3) for r in shape]
            tup = FiltrationTuple(tuple(fil.from_weighted_basis(B.rows, B.weights) for B in drawn))
            assert gs._lambda_weighted(x, drawn) == gs.tensor_lambda(x, tup)


def test_big_lambda_frozen():
    tup = FiltrationTuple((PM_FILT,))
    assert big_lambda(E1_POINT, tup) == AlgValue(-1, F(1))
    triv = FiltrationTuple((fil.trivial(2),))
    assert big_lambda(E1_POINT, triv) == AlgValue.zero()


def test_big_lambda_dilation_invariant():
    rng = random.Random(23)
    for _ in range(10):
        x = rand_point(rng)
        comps = []
        for r in x.shape:
            while True:
                vecs = [[rng.randrange(-2, 3) for _ in range(r)] for _ in range(r)]
                try:
                    comps.append(weighted(vecs, [rng.randrange(-3, 4) for _ in range(r)]))
                    break
                except ValueError:
                    continue
        tup = FiltrationTuple(tuple(comps))
        base = big_lambda(x, tup)
        for eps in (F(7), F(2, 3)):
            scaled = FiltrationTuple(tuple(fil.dilate(c, eps) for c in tup.components))
            assert big_lambda(x, scaled) == base


# ---------------------------------------------------------------------------
# mu


def test_mu_invariant_frozen():
    triv = FiltrationTuple((fil.trivial(2),))
    x = point((2,), {(0,): 1, (1,): 1})
    assert gs.mu_invariant(x, triv, 3) == 0
    T = FiltrationTuple((weighted([[1, 0], [0, 1]], [1, 0]),))
    assert gs.mu_invariant(x, T, 2) == 1  # 2*(1/2 - 0)
    both = FiltrationTuple((PM_FILT, PM_FILT))
    assert gs.mu_invariant(IDENT_POINT, both, 2) == 4  # 2*(0 - (-2))


def test_mu_invariant_errors():
    T = FiltrationTuple((weighted([[1, 0], [0, 1]], [1, 0]),))
    x = point((2,), {(0,): 1, (1,): 1})
    with pytest.raises(ValueError):
        gs.mu_invariant(x, T, 0)
    with pytest.raises(ValueError):
        gs.mu_invariant(x, T, 1)  # 1 * E = 1/2 is not integral
    with pytest.raises(ValueError):
        gs.mu_invariant(x, T, 2, twists=[2, 2])
    half = FiltrationTuple((weighted([[1, 0], [0, 1]], [F(1, 2), 0]),))
    with pytest.raises(ValueError):
        gs.mu_invariant(x, half, 2)


def test_mu_matches_functional_sign():
    # mu with default twists is m*(sum E - lambda), so the sign agrees
    # with the numerator of the functional
    rng = random.Random(37)
    for _ in range(20):
        x = rand_point(rng)
        m = 2
        comps = tuple(
            weighted(
                [[int(a == b) for b in range(r)] for a in range(r)],
                [rng.randrange(-2, 3) for _ in range(r)],
            )
            for r in x.shape
        )
        tup = FiltrationTuple(comps)
        num = sum((fil.expectation(c) for c in comps), F(0))
        num -= gs.tensor_lambda(x, tup)
        assert gs.mu_invariant(x, tup, m) == 2 * num


# ---------------------------------------------------------------------------
# fixed-basis minimization


def test_minimize_fixed_basis_destabilized_line():
    res = minimize_fixed_basis(E1_POINT, [gs._identity_basis(2)])
    assert res.c == AlgValue(-1, F(1))
    assert res.c_tilde == -1
    Fl = res.minimizer.components[0]
    assert fil.lambda_of(Fl, [F(1), F(0)]) == 1
    assert fil.lambda_of(Fl, [F(0), F(1)]) == -1
    assert res.support == ((0,),)


def test_minimize_fixed_basis_semistable_cases():
    ident_bases = [gs._identity_basis(2), gs._identity_basis(2)]
    res = minimize_fixed_basis(IDENT_POINT, ident_bases)
    assert res.c == AlgValue.zero() and not res.is_destabilizing
    assert all(is_trivial(c) for c in res.minimizer.components)
    x = point((2,), {(0,): 1, (1,): 1})
    res2 = minimize_fixed_basis(x, [gs._identity_basis(2)])
    assert res2.c == AlgValue.zero()
    assert set(res2.support) == {(0,), (1,)}


def test_minimize_fixed_basis_is_minimal():
    rng = random.Random(41)
    for _ in range(12):
        x = rand_point(rng)
        bases = [gs._identity_basis(r) for r in x.shape]
        res = minimize_fixed_basis(x, bases)
        # every grid tuple in the same bases is at least the reported c
        for _ in range(40):
            ws = [[rng.randrange(-3, 4) for _ in range(r)] for r in x.shape]
            comps = tuple(
                weighted([[int(a == b) for b in range(r)] for a in range(r)], w)
                for r, w in zip(x.shape, ws)
            )
            val = big_lambda(x, FiltrationTuple(comps))
            assert res.c <= val


def test_min_norm_fifteen_gradients_is_minimal():
    # fifteen cells of a (4,4) point: fifteen distinct gradients, one more
    # than a subset scan can afford
    x = point((4, 4), {(i, j): 1 for i in range(4) for j in range(4) if (i, j) != (3, 3)})
    res = minimize_fixed_basis(x, [gs._identity_basis(4), gs._identity_basis(4)])
    assert len(res.support) == 15
    rng = random.Random(43)
    for _ in range(40):
        ws = [[rng.randrange(-3, 4) for _ in range(r)] for r in x.shape]
        comps = tuple(
            weighted([[int(a == b) for b in range(r)] for a in range(r)], w)
            for r, w in zip(x.shape, ws)
        )
        assert res.c <= big_lambda(x, FiltrationTuple(comps))


def _support_gradients(shape, cells):
    """The gradients minimize_fixed_basis builds for a support in
    coordinate bases: entries 1 - r_i [j = s_i]."""
    return [
        tuple(F(1 - r * (j == s[i])) for i, r in enumerate(shape) for j in range(r))
        for s in cells
    ]


def _gradient_sets(rng):
    """Seeded (points, inner product weights) pairs for the min-norm
    cross-check, 80 of each kind."""
    out = []
    for _ in range(80):  # random integer points, either inner product
        d, n = rng.randrange(2, 9), rng.randrange(1, 13)
        # half of the boxes off centre, where the optimum has a small support
        off = rng.randrange(2)
        shift = [off * rng.randrange(-3, 4) for _ in range(d)]
        pts = [tuple(F(rng.randrange(-3, 4) + c) for c in shift) for _ in range(n)]
        out.append((pts, rng.choice([[F(1)] * d, [F(1, rng.randrange(1, 5)) for _ in range(d)]])))
    for _ in range(80):  # duplicates and affinely dependent points
        d, n = rng.randrange(2, 9), rng.randrange(2, 7)
        pts = [tuple(F(rng.randrange(-3, 4)) for _ in range(d)) for _ in range(n)]
        for _ in range(rng.randrange(1, 5)):
            a, b, c = (rng.choice(pts) for _ in range(3))
            kind = rng.randrange(3)
            if kind == 0:
                pts.append(a)
            elif kind == 1:  # the midpoint of a and b, inside the hull
                pts.append(tuple((u + v) / 2 for u, v in zip(a, b)))
            else:  # an affine combination outside the segment
                pts.append(tuple(u + v - w for u, v, w in zip(a, b, c)))
        rng.shuffle(pts)
        out.append((pts, [F(1, rng.randrange(1, 5)) for _ in range(d)]))
    for _ in range(80):  # hulls that contain the origin
        d, n = rng.randrange(2, 9), rng.randrange(1, 7)
        pts = [tuple(F(rng.randrange(-3, 4)) for _ in range(d)) for _ in range(n)]
        if rng.randrange(2):
            pts += [tuple(-u for u in p) for p in pts]
        else:
            pts.append(tuple(-sum(col) for col in zip(*pts)))
        rng.shuffle(pts)
        out.append((pts, rng.choice([[F(1)] * d, [F(1, rng.randrange(1, 5)) for _ in range(d)]])))
    shapes = ((2, 2), (2, 3), (3, 3), (2, 2, 2))
    for _ in range(80):  # minimize_fixed_basis gradients on the benchmark shapes
        shape = rng.choice(shapes)
        cells = list(itertools.product(*[range(r) for r in shape]))
        grads = _support_gradients(shape, rng.sample(cells, rng.randrange(1, len(cells) + 1)))
        out.append((grads, gs._weighted_ip_weights(shape)))
    return out


def test_min_norm_matches_subset_scan_oracle():
    sets = _gradient_sets(random.Random(2024))
    assert len(sets) >= 300
    zero = 0
    for pts, ws in sets:
        want = subset_scan_min_norm_point(pts, ws)
        assert gs._min_norm_point(pts, ws) == want
        zero += all(q == 0 for q in want)
    assert zero >= 80  # the origin is the answer for every hull built around it


def test_min_norm_corral_failure_is_search_not_converged(monkeypatch):
    def singular(rows, rhs):
        raise gs.la.SingularMatrixError("system is singular")

    # an empty support cache, so that Wolfe runs and meets the fault
    gs._support_minimum.cache_clear()
    monkeypatch.setattr(gs.la, "solve_square", singular)
    with pytest.raises(gs.SearchNotConverged):
        minimize_fixed_basis(point((2, 2), {(0, 0): 1, (1, 0): 1}), [gs._identity_basis(2)] * 2)


FAULT_UNDER_O = """
import sys
from fractions import Fraction
from slopelab import gitstab as gs
assert sys.flags.optimize  # run under python -O: library asserts are stripped
exact = gs._min_norm_point
gs._min_norm_point = lambda points, weights: [2 * q for q in exact(points, weights)]
x = gs.TensorPoint.from_map((2,), {(0,): Fraction(1)})
try:
    gs.kempf_minimize(x)
except gs.SearchNotConverged as exc:
    print("SearchNotConverged:", exc)
"""


def test_min_norm_consistency_check_survives_python_O():
    src = str(Path(gs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", FAULT_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("SearchNotConverged:")


# ---------------------------------------------------------------------------
# one checked min-norm point per (shape, support)

# the (shape, support size) kinds of the kempf_reduce benchmark
KEMPF_KINDS = (
    ((2, 2), 1), ((2, 2), 3),
    ((2, 3), 1), ((2, 3), 3), ((2, 3), 6),
    ((3, 3), 1), ((3, 3), 3), ((3, 3), 9),
    ((2, 2, 2), 1), ((2, 2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2), 8),
)


def _memos(module):
    """The process memos of a module: every global with a cache_info."""
    return {name: obj for name, obj in vars(module).items() if hasattr(obj, "cache_info")}


def _empty_caches():
    for module in (gs, exactnum, la):
        for memo in _memos(module).values():
            memo.cache_clear()


def test_kempf_search_solves_each_support_once(monkeypatch):
    _empty_caches()
    exact, lookup = gs._min_norm_point, gs._support_minimum
    solved, looked_up = Counter(), Counter()

    def counting_solve(points, weights):
        solved[(tuple(weights), tuple(points))] += 1
        return exact(points, weights)

    def counting_lookup(shape, support):
        looked_up[(shape, support)] += 1
        return lookup(shape, support)

    monkeypatch.setattr(gs, "_min_norm_point", counting_solve)
    monkeypatch.setattr(gs, "_support_minimum", counting_lookup)
    rng = random.Random(15001)
    for _ in range(10):
        for shape, size in KEMPF_KINDS:
            for x in _seeded_points(rng, shape, [size], 1):
                gs.kempf_minimize(x)
    # one Wolfe solve per distinct (shape, support), though most are met
    # again by other seeds and other points
    assert set(solved.values()) == {1}
    assert len(solved) == len(looked_up) == lookup.cache_info().currsize
    assert sum(looked_up.values()) > 3 * len(looked_up)


# every shape of the benchmark and of the dense campaign, with its support sizes
CACHE_SHAPES = (
    ((2, 2), (1, 2, 3, 4)),
    ((2, 3), (1, 2, 3, 4, 6)),
    ((3, 3), (1, 3, 5, 9)),
    ((2, 2, 2), (1, 2, 3, 5, 8)),
    ((2, 2, 2, 2), (1, 2, 4, 8)),
    ((4, 4), (1, 3, 6, 16)),
    ((3, 3, 2), (1, 3, 6, 18)),
)


def _reports(x):
    """is_semistable(x) and, for an unstable point, rr_reduce and
    reduced_is_semistable, as JSON (or the message of the check that
    stopped them)."""
    out = []
    try:
        verdict = gs.is_semistable(x)
        out.append(json.dumps(verdict.to_json(), sort_keys=True))
        if not verdict.semistable:
            R = gs.rr_reduce(x, verdict.witness)
            out.append(json.dumps(R.to_json(), sort_keys=True))
            out.append(json.dumps(gs.reduced_is_semistable(R).to_json(), sort_keys=True))
    except gs.SearchNotConverged as exc:
        out.append("SearchNotConverged: %s" % exc)
    return out


def test_reports_equal_with_cold_and_warm_cache(monkeypatch):
    # refused minimizers stop sooner on a lower witness budget; both runs
    # use the same one
    monkeypatch.setattr(gs, "LEVI_BUDGET", 20_000)
    rng = random.Random(15002)
    points = [
        x for shape, sizes in CACHE_SHAPES for x in _seeded_points(rng, shape, sizes, 8 if len(sizes) == 5 else 10)
    ]
    assert len(points) >= 200
    _empty_caches()
    for x in points:
        gs.kempf_minimize(x)
    warm = [_reports(x) for x in points]
    cold = []
    for x in points:
        _empty_caches()
        cold.append(_reports(x))
    assert cold == warm
    assert sum(len(r) == 3 for r in warm) >= 60  # unstable points, reduced


def _plain(obj):
    """A fresh copy of a memo value as plain tuples and lists, the
    coordinate change of each basis included (it is no field of equality)."""
    if isinstance(obj, CompatibleBasis):
        d, W = obj.change
        return ("basis", obj.vectors, d, [list(row) for row in W])
    if isinstance(obj, tuple):
        return tuple(_plain(a) for a in obj)
    if isinstance(obj, list):
        return [_plain(a) for a in obj]
    return obj


def _record_memos(patch):
    """Every gitstab memo, wrapped anew at its bound around a builder that
    records each key it builds with the value, the object the memo then
    shares: {name: [(key, value), ...]}."""
    built = {}
    for name, memo in _memos(gs).items():
        log = built[name] = []

        def build(*key, _build=memo.__wrapped__, _log=log):
            value = _build(*key)
            _log.append((key, value))
            return value

        patch.setattr(gs, name, functools.lru_cache(maxsize=memo.cache_info().maxsize)(build))
    return built


def _memo_snapshot(built):
    return {name: [(_plain(k), _plain(v)) for k, v in log] for name, log in built.items()}


def test_no_memo_entry_changes_over_a_pass(monkeypatch):
    """Memo values are shared by every point that meets their key: a seed
    option, a built filtration and an adapted basis go into many results.
    A second pass over the same points, reductions included, leaves every
    entry as the first pass stored it."""
    monkeypatch.setattr(gs, "LEVI_BUDGET", 20_000)
    built = _record_memos(monkeypatch)
    rng = random.Random(23001)
    points = [x for shape, size in KEMPF_KINDS for x in _seeded_points(rng, shape, [size], 4)]
    first = [_reports(x) for x in points]
    before = _memo_snapshot(built)
    assert len(before) == 9 and all(before.values())
    assert [_reports(x) for x in points] == first
    assert _memo_snapshot(built) == before


def test_support_values_equal_the_built_filtrations():
    rng = random.Random(15003)
    checked = 0
    for shape, sizes in CACHE_SHAPES:
        for x in _seeded_points(rng, shape, sizes, 3):
            bases = [gs._random_basis(rng, r) for r in shape]
            support = gs._support(x, [b.change for b in bases])
            m = gs._support_minimum(shape, support)
            # each gradient block sums to zero, so every factor's weights do
            assert all(sum(ws) == 0 for ws in m.parts or ())
            weights = [[rng.randrange(-4, 5) for _ in range(r)] for r in shape]
            for parts in ([m.parts] if m.parts else []) + [weights]:
                tup = FiltrationTuple(
                    tuple(weighted([list(v) for v in b.vectors], ws) for b, ws in zip(bases, parts))
                )
                norm_sq, expect, least = gs._weighted_basis_values(shape, support, parts)
                assert norm_sq == sum((fil.norm_squared(G) for G in tup.components), F(0))
                assert expect == sum((fil.expectation(G) for G in tup.components), F(0))
                assert least == gs.tensor_lambda(x, tup)
                checked += 1
    assert checked >= 80


def test_faulted_min_norm_point_stores_nothing(monkeypatch):
    _empty_caches()
    exact = gs._min_norm_point
    monkeypatch.setattr(gs, "_min_norm_point", lambda points, weights: [2 * q for q in exact(points, weights)])
    x = point((2, 2), {(0, 0): 1})
    with pytest.raises(gs.SearchNotConverged, match="disagrees with the min-norm point"):
        minimize_fixed_basis(x, [gs._identity_basis(2)] * 2)
    with pytest.raises(gs.SearchNotConverged, match="disagrees with the min-norm point"):
        gs.kempf_minimize(x)
    assert gs._support_minimum.cache_info().currsize == 0


def test_minimizer_component_with_nonzero_expectation_is_caught(monkeypatch):
    """A support minimum whose first factor's weights are shifted by one
    builds a component of nonzero expectation, which the component builder
    refuses and does not store, for the Kempf search and for a fixed basis
    alike."""
    _empty_caches()
    exact = gs._support_minimum

    def shifted(shape, support):
        m = exact(shape, support)
        if m.parts is None:
            return m
        return m._replace(parts=(tuple(w + 1 for w in m.parts[0]),) + m.parts[1:])

    monkeypatch.setattr(gs, "_support_minimum", shifted)
    with pytest.raises(gs.SearchNotConverged, match="minimizer expectation is not zero"):
        gs.kempf_minimize(E11_POINT)
    with pytest.raises(gs.SearchNotConverged, match="minimizer expectation is not zero"):
        minimize_fixed_basis(E11_POINT, [gs._identity_basis(2)] * 2)
    assert gs._component.cache_info().currsize == 0


def test_caches_stop_at_their_cap(monkeypatch):
    memos = _memos(gs)
    assert {name: memo.cache_info().maxsize for name, memo in memos.items()} == {
        "_adapted": 4096, "_cells": 4096, "_component": 4096, "_coordinate_test": 4096,
        "_identity_basis": 4096, "_random_seeds": 64, "_reduction_plan": 4096, "_span_options": 4096,
        "_support_minimum": 4096,
    }
    for name, memo in memos.items():
        monkeypatch.setattr(gs, name, functools.lru_cache(maxsize=5)(memo.__wrapped__))

    def sizes():
        return {name: getattr(gs, name).cache_info().currsize for name in memos}

    rng = random.Random(15004)
    for x in _seeded_points(rng, (2, 3), (2, 3, 4), 4):
        for rng_seed in range(8):
            fresh = gs.kempf_minimize(x, rng_seed=rng_seed)
            # a full cache still answers, with the same result
            assert max(sizes().values()) <= 5
            again = gs.kempf_minimize(x, rng_seed=rng_seed)
            assert (fresh and fresh.to_json()) == (again and again.to_json())
            if fresh is not None:
                R = gs.rr_reduce(x, fresh)
                verdict = gs.reduced_is_semistable(R)
                assert max(sizes().values()) <= 5
                assert gs.reduced_is_semistable(R) == verdict
                assert gs.rr_reduce(x, again) == R
    # one shape of two ranks: one list of cells, two identities
    per_point = [n for name, n in sizes().items() if name not in ("_cells", "_identity_basis")]
    assert per_point == [5] * 7
    assert (sizes()["_cells"], sizes()["_identity_basis"]) == (1, 2)
    for r in range(1, 9):
        assert gs._cells((r, 2)) == tuple(itertools.product(range(r), range(2)))
        identity = tuple(tuple(F(int(a == b)) for b in range(r)) for a in range(r))
        assert gs._identity_basis(r) == CompatibleBasis(identity)
    assert sizes()["_cells"] == sizes()["_identity_basis"] == 5


def _seed_walk_points():
    rng = random.Random(18001)
    points = [x for shape, size in KEMPF_KINDS for x in _seeded_points(rng, shape, [size], 3)]
    for shape in ((2, 2, 2, 2), (4, 4), (3, 3, 2)):
        total = 1
        for r in shape:
            total *= r
        points += _seeded_points(rng, shape, (1, 3, total // 2, total), 2)
    return points


def _seed_walk_mismatches(points):
    """(points whose seed walk differs from the fresh seeds, bases checked).
    The walk must list the same seed tuples, basis for basis and in order,
    each with the support that one fresh coordinate change gives; and every
    basis change (d, W) of the walk must be an integer inverse: W B^T = d I
    exactly.  That is checked by multiplication, independently of the
    elimination that built the change."""
    mismatches = checked = 0
    for k, x in enumerate(points):
        got = gs._seed_supports(x, k % 3)
        want = [
            (tuple(b for b, _ in seed), support_in_changes(x, [c for _, c in seed]))
            for seed in fresh_seed_bases(x, k % 3)
        ]
        mismatches += [(tuple(seed), support) for seed, support in got] != want
        for seed, _ in got:
            for basis in seed:
                d, W = basis.change
                r = len(basis.vectors)
                assert d != 0
                assert [
                    [sum(w * b for w, b in zip(row, vec)) for vec in basis.vectors] for row in W
                ] == [[d * (i == j) for j in range(r)] for i in range(r)]
                checked += 1
    return mismatches, checked


def _option_counts(x):
    """The number of seed options of each axis of x."""
    vec, _ = gs._integer_point(x)
    return [len(gs._span_options(gs._slice_span(vec, x.shape, axis))) for axis in range(len(x.shape))]


def test_seed_bases_match_parent_oracle():
    """The seed tree walks the seeds of a search that builds, inverts and
    changes coordinates afresh for every seed, with the same supports, and
    every change it applies is exact."""
    _empty_caches()
    points = _seed_walk_points()
    echelons = sum(n == 2 for x in points for n in _option_counts(x))
    mismatches, checked = _seed_walk_mismatches(points)
    assert mismatches == 0
    assert len(points) == 60 and checked > 700 and echelons >= 30


def test_seed_walk_that_reorders_or_drops_an_option_is_caught(monkeypatch):
    points = _seed_walk_points()
    options = gs._span_options
    # an axis whose echelon basis is the identity has one option, which
    # neither fault changes; every point with a second option on some axis
    # must see its walk change
    with_echelon = [x for x in points if 2 in _option_counts(x)]
    assert len(with_echelon) == 32
    for fault in (lambda span: options(span)[::-1], lambda span: options(span)[:1]):
        monkeypatch.setattr(gs, "_span_options", fault)
        assert _seed_walk_mismatches(points)[0] == len(with_echelon)


def _pivot_key(span):
    """The rank and the pivots of a span, without its other entries."""
    return len(span[0]), tuple(next(c for c, a in enumerate(row) if a) for row in span)


def test_axis_memo_keyed_on_pivots_alone_is_caught(monkeypatch):
    # the options are keyed on the whole canonical span: spans with the same
    # pivots, such as those of (1, 0) and (1, 1) slices, have different
    # echelon bases
    _empty_caches()
    build = gs._span_options.__wrapped__
    spans = []

    def recording(span):
        spans.append(span)
        return build(span)

    monkeypatch.setattr(gs, "_span_options", functools.lru_cache(maxsize=4096)(recording))
    points = _seed_walk_points()
    assert _seed_walk_mismatches(points)[0] == 0
    assert len(spans) == len(set(spans)) > len({_pivot_key(span) for span in spans})
    by_pivots = {}

    def pivot_keyed(span):
        key = _pivot_key(span)
        if key not in by_pivots:
            by_pivots[key] = build(span)
        return by_pivots[key]

    monkeypatch.setattr(gs, "_span_options", pivot_keyed)
    assert _seed_walk_mismatches(points)[0] > 0


REVERSAL_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 2), (2, 3, 3), (2, 2, 2, 2), (4, 4))


def _reversal_before_echelon(span):
    options = span_options_with_reversal(span)
    return options if len(options) < 3 else (options[0], options[2], options[1])


def _minimizers(points):
    """kempf_minimize(x, k % 3) of the k-th point, from empty memos."""
    _empty_caches()
    return [gs.kempf_minimize(x, k % 3) for k, x in enumerate(points)]


def _json(result):
    return result and json.dumps(result.to_json(), sort_keys=True)


def test_reversal_seeds_never_win(monkeypatch):
    """The echelon basis reversed is no seed option, because it could not
    win (gitstab._span_options): a search that also walks each reversal,
    after its echelon option, finds the same minimizer, bases and support
    included.  The points exercise the tie: many winners have a
    non-identity basis, whose reversal has the same value.  With each
    reversal before its echelon option, the reversal wins those ties, and
    the comparison must see it."""
    rng = random.Random(30001)
    points = []
    for shape in REVERSAL_SHAPES:
        cells = len(list(itertools.product(*[range(r) for r in shape])))
        for _ in range(50):
            points += _seeded_points(rng, shape, [rng.randint(1, cells)], 1)
    got = _minimizers(points)
    non_identity = sum(
        m is not None and any(basis != gs._identity_basis(len(basis.vectors)) for basis in m.bases)
        for m in got
    )
    assert len(points) == 400 and non_identity >= 70
    want = [_json(m) for m in got]
    monkeypatch.setattr(gs, "_span_options", span_options_with_reversal)
    assert [_json(m) for m in _minimizers(points)] == want
    monkeypatch.setattr(gs, "_span_options", _reversal_before_echelon)
    assert sum(_json(m) != w for m, w in zip(_minimizers(points), want)) == non_identity


def test_reduced_test_solves_each_gradient_set_once(monkeypatch):
    """The coordinate test of reduced_is_semistable runs one Wolfe solve
    per distinct gradient set, its whole input; the verdicts of a warm
    memo equal those of a cold one.  A reduced instance of a Kempf
    minimizer is semistable; the same instance with N raised by one is
    not, so both verdicts go through the memo."""
    monkeypatch.setattr(gs, "LEVI_BUDGET", 20_000)
    _empty_caches()
    rng = random.Random(22001)
    instances = []
    for _ in range(4):
        for shape, size in KEMPF_KINDS:
            for x in _seeded_points(rng, shape, [size], 1):
                M = gs.kempf_minimize(x)
                if M is not None:
                    R = gs.rr_reduce(x, M)
                    instances += [R, dataclasses.replace(R, N=R.N + 1)]
    exact = gs._min_norm_point
    solved = Counter()

    def counting_solve(points, weights):
        if sys._getframe(1).f_code.co_name == "_coordinate_test":
            solved[tuple(sorted(set(points)))] += 1
        return exact(points, weights)

    monkeypatch.setattr(gs, "_min_norm_point", counting_solve)
    warm = [gs.reduced_is_semistable(R) for R in instances]
    assert set(solved.values()) == {1}
    assert len(solved) == gs._coordinate_test.cache_info().currsize < len(instances) // 2
    cold = []
    for R in instances:
        gs._coordinate_test.cache_clear()
        cold.append(gs.reduced_is_semistable(R))
    assert cold == warm
    assert sum(solved.values()) == len(solved) + len(instances)
    assert [v.semistable for v in warm] == [True, False] * (len(instances) // 2)


INDEPENDENT_UNDER_O = """
import sys
from fractions import Fraction
from slopelab.filtration import CompatibleBasis
assert sys.flags.optimize  # run under python -O: library asserts are stripped
try:
    CompatibleBasis(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))
except ValueError as exc:
    print("ValueError:", exc)
"""


def test_dependent_basis_raises_also_under_python_O():
    with pytest.raises(ValueError, match="independent"):
        CompatibleBasis(((F(1), F(2), F(0)), (F(0), F(1), F(1)), (F(1), F(3), F(1))))
    with pytest.raises(ValueError, match="square"):
        CompatibleBasis(((F(1), F(0)),))
    src = str(Path(gs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", INDEPENDENT_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ValueError:")


def test_rr_reduce_reuses_the_minimizer_adapted_bases(monkeypatch):
    """On emptied memos, each distinct filtration that the Kempf search
    adapts gets one adapted basis for the whole run (_adapted), every
    component of every minimizer among them, and rr_reduce builds none:
    it reads the adapted bases of its minimizer."""
    _empty_caches()
    adapted = Counter()
    in_reduce = 0
    adapted_basis = fil.adapted_basis

    def counting_adapted_basis(F):
        adapted[F] += 1
        return adapted_basis(F)

    monkeypatch.setattr(fil, "adapted_basis", counting_adapted_basis)
    rng = random.Random(18002)
    components = set()
    for _ in range(2):
        for shape, size in KEMPF_KINDS:
            for x in _seeded_points(rng, shape, [size], 3):
                res = gs.kempf_minimize(x)
                if res is None:
                    continue
                components.update(res.minimizer.components)
                before = sum(adapted.values())
                gs.rr_reduce(x, res)
                in_reduce += sum(adapted.values()) - before
    assert set(adapted.values()) == {1}
    assert components <= set(adapted)
    assert in_reduce == 0
    assert len(components) >= 20


def test_dense_campaign_has_no_inconclusive_point():
    # at half and at full support: in the echelon and random bases of the
    # Kempf search these points have more than 14 support cells, beyond
    # any subset scan
    rng = random.Random(4242)
    inconclusive, unstable, decided = [], 0, 0
    for shape in ((2, 2, 2, 2), (4, 4), (3, 3, 2)):
        cells = list(itertools.product(*[range(r) for r in shape]))
        for size in (len(cells) // 2, len(cells)):
            for _ in range(4):
                x = gs.TensorPoint.from_map(
                    shape, {c: F(rng.choice((-3, -2, -1, 1, 2, 3))) for c in rng.sample(cells, size)}
                )
                try:
                    verdict = gs.is_semistable(x)
                    if shape == (4, 4):
                        # a square matrix is SL x SL semistable iff det != 0
                        M = [[coord_map(x).get((i, j), 0) for j in range(4)] for i in range(4)]
                        assert verdict.semistable == (fraction_det(M) != 0)
                    if not verdict.semistable:
                        R = gs.rr_reduce(x, verdict.witness)
                        gs.reduced_is_semistable(R)
                        unstable += 1
                except gs.SearchNotConverged as exc:
                    inconclusive.append((x.to_json(), str(exc)))
                    continue
                decided += 1
    assert inconclusive == []
    assert decided == 24 and unstable >= 1


# ---------------------------------------------------------------------------
# kempf search


def test_kempf_frozen_pure_tensor():
    res = gs.kempf_minimize(E11_POINT)
    assert res.c == AlgValue(-1, F(2))
    assert res.c_tilde == -1
    for comp in res.minimizer.components:
        assert comp.jumps == (F(-1), F(1))
        assert fil.expectation(comp) == 0
        assert fil.lambda_of(comp, [F(1), F(0)]) == 1
    payload = res.to_json()
    assert payload["c"] == {"sign": "-1", "square": "2"}
    assert payload["c_tilde"] == "-1"


def test_kempf_semistable_cases():
    assert gs.kempf_minimize(IDENT_POINT) is None
    assert gs.is_semistable(IDENT_POINT).semistable
    one = point((1,), {(0,): 5})
    assert gs.is_semistable(one).semistable
    verdict = gs.is_semistable(E11_POINT)
    assert not verdict.semistable
    assert verdict.witness.c == AlgValue(-1, F(2))


def test_kempf_agrees_with_grid_oracle():
    rng = random.Random(6101)
    for _ in range(12):
        x = rand_point(rng)
        oracle = alg_from_pair(grid_min_lambda(x.shape, coord_map(x)))
        res = gs.kempf_minimize(x)
        if res is None:
            assert oracle == AlgValue.zero()
        else:
            assert oracle.is_negative
            assert res.c <= oracle


def test_kempf_two_seeds_proportional():
    rng = random.Random(77)
    found = 0
    while found < 8:
        x = rand_point(rng)
        a = gs.kempf_minimize(x, rng_seed=0)
        if a is None:
            continue
        b = gs.kempf_minimize(x, rng_seed=99)
        assert b is not None and a.c == b.c
        assert minimizers_proportional(a, b)
        found += 1


def test_estimation_inequality_alg_arithmetic():
    rng = random.Random(505)
    res = gs.kempf_minimize(E11_POINT)
    norm_sq = sum(
        (fil.norm_squared(c) for c in res.minimizer.components), F(0)
    )
    for _ in range(30):
        comps = []
        for r in E11_POINT.shape:
            vecs = [list(v) for v in gs._random_basis(rng, r).vectors]
            comps.append(weighted(vecs, [rng.randrange(-3, 4) for _ in range(r)]))
        tup = FiltrationTuple(tuple(comps))
        lhs = sum((fil.expectation(c) for c in comps), F(0))
        lhs -= gs.tensor_lambda(E11_POINT, tup)
        pairing = sum(
            (
                fil.scalar_product(Fc, Gc)
                for Fc, Gc in zip(res.minimizer.components, comps)
            ),
            F(0),
        )
        # lhs >= c * pairing / sqrt(norm_sq), cleared of the square root
        left = AlgValue.from_rational(lhs) * AlgValue.sqrt_of(norm_sq)
        right = res.c.scaled(pairing)
        assert left >= right


def test_mu_negative_iff_unstable_on_small_shapes():
    rng = random.Random(999)
    for _ in range(10):
        x = rand_point(rng)
        oracle = grid_min_lambda(x.shape, coord_map(x))
        res = gs.kempf_minimize(x)
        if oracle[0] < 0:
            assert res is not None
            m = 2 if len(x.shape) == 1 else 2 * max(x.shape)
            assert gs.mu_invariant(x, res.minimizer, m) < 0
        else:
            assert res is None


# ---------------------------------------------------------------------------
# challenges scored in the basis they were drawn in

CHALLENGE_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4), (2, 2, 2, 2), (3, 3, 2))


def test_draws_follow_the_challenge_rng_order():
    # the rows, the rejected singular draws and the weights come from the
    # same rng calls as the Fraction draw with a determinant test
    rejected = {1: 0, 2: 0, 3: 0, 4: 0}
    for seed in range(120):
        r = 1 + seed % 4
        new, old = random.Random(seed), random.Random(seed)
        rows, d, scaled_inverse = draw(new, r)
        want, attempts = fraction_random_rows(old, r)
        assert rows == want
        assert new.getstate() == old.getstate()
        assert scaled_inverse == [[d * a for a in row] for row in fraction_inverse([list(col) for col in zip(*rows)])]
        rejected[r] += attempts - 1
    assert rejected[2] >= 5
    # a whole challenge stream: per factor the rows, then the weights
    for shape in CHALLENGE_SHAPES:
        new, old = random.Random(str(shape)), random.Random(str(shape))
        for _ in range(20):
            for r in shape:
                B = draw_weighted(new, r, 3)
                rows, _ = fraction_random_rows(old, r)
                ws = [F(old.randrange(-3, 4)) for _ in range(r)]
                assert (B.rows, B.weights) == (rows, ws)
        assert new.getstate() == old.getstate()


def _random_filtration(rng, r):
    """from_weighted_basis on a random basis with weights drawn with
    repeats, or the trivial filtration."""
    if rng.randrange(6) == 0:
        return fil.trivial(r)
    rows, _ = fraction_random_rows(rng, r)
    return fil.from_weighted_basis(rows, [rng.choice((-2, -1, 0, 0, 1, 1, 3)) for _ in range(r)])


def test_challenge_scores_equal_parent_composition():
    # E[G], <F, G>, lambda and both sides of the inequality, scored in the
    # drawn bases, against from_weighted_basis, expectation, scalar_product,
    # the pairing over a common compatible basis and a Fraction change of
    # coordinates
    rng = random.Random(6006)
    values = (-3, -2, -1, 1, 2, 3, F(1, 2), F(-2, 3), F(5, 4))
    count, fractional, repeated_f, repeated_g = 0, 0, 0, 0
    for shape in CHALLENGE_SHAPES:
        cells = list(itertools.product(*[range(r) for r in shape]))
        for _ in range(45):
            coords = {c: F(rng.choice(values)) for c in rng.sample(cells, rng.randrange(1, len(cells) + 1))}
            x = gs.TensorPoint.from_map(shape, coords)
            comps = [_random_filtration(rng, r) for r in shape]
            c_tilde = -F(rng.randrange(1, 7), rng.randrange(1, 5))
            drawn = [draw_weighted(rng, r, 3) for r in shape]
            G = [fil.from_weighted_basis(B.rows, B.weights) for B in drawn]

            expect = sum((fil.expectation(Gi) for Gi in G), F(0))
            pairing = sum((scalar_product_by_basis(Fi, Gi) for Fi, Gi in zip(comps, G)), F(0))
            lam = fraction_lambda_in_bases(shape, coords, [B.rows for B in drawn], [B.weights for B in drawn])
            assert lam == gs.tensor_lambda(x, FiltrationTuple(tuple(G)))

            for B, Gi in zip(drawn, G):
                assert F(sum(B.weights), len(B.weights)) == fil.expectation(Gi)
            for Fi, B, Gi in zip(comps, drawn, G):
                got = scalar_product_with_basis(Fi, B.rows, B.weights)
                assert got == fil.scalar_product(Fi, Gi) == scalar_product_by_basis(Fi, Gi)
            assert gs._lambda_weighted(x, drawn) == lam
            assert challenge_sides(x, comps, c_tilde, drawn) == (expect - lam, c_tilde * pairing)

            count += 1
            fractional += any(v.denominator != 1 for v in coords.values())
            repeated_f += any(Fi.depth < Fi.dim for Fi in comps)
            repeated_g += any(len(set(B.weights)) < len(B.weights) for B in drawn)
    assert count >= 300
    assert min(fractional, repeated_f, repeated_g) >= 100


def test_challenge_loop_eliminates_once_per_draw(monkeypatch):
    # the challenge loop, now an oracle of the minimizer, builds no
    # filtration and inverts nothing, and apart from the ranks of the
    # scalar product it eliminates once per draw attempt
    x = point((2, 3), {(0, 0): 1, (1, 2): 2, (0, 1): -1})
    calls = Counter()
    in_rank = [0]
    elim, rank = gs.la._eliminate, gs.la.rank

    def counting_elim(W, ncols):
        calls["_eliminate"] += not in_rank[0]
        return elim(W, ncols)

    def counting_rank(M):
        calls["rank"] += 1
        in_rank[0] += 1
        try:
            return rank(M)
        finally:
            in_rank[0] -= 1

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(gs.la, "_eliminate", counting_elim)
    monkeypatch.setattr(gs.la, "rank", counting_rank)
    for module, name in ((oracles, "inverse"), (gs.la, "rref"), (oracles, "det"), (fil, "make")):
        counting(module, name)

    challenges, seed = 40, 3
    best = gs.kempf_minimize(x, rng_seed=seed)
    calls.clear()
    kempf_challenges(x, best, seed, challenges)
    loop = Counter(calls)

    rng = random.Random(seed * 7919 + 13)
    attempts = 0
    for _ in range(challenges):
        for r in x.shape:
            attempts += fraction_random_rows(rng, r)[1]
            [rng.randrange(-3, 4) for _ in range(r)]
    assert attempts > challenges * len(x.shape)  # some draws were singular
    assert {k: loop[k] for k in ("inverse", "rref", "det", "make")} == dict.fromkeys(("inverse", "rref", "det", "make"), 0)
    assert loop["_eliminate"] == attempts
    per_challenge = sum((Fi.depth - 1) * (r - 1) for Fi, r in zip(best.minimizer.components, x.shape))
    assert 0 < loop["rank"] <= challenges * per_challenge


def test_shifted_challenge_lambda_is_caught(monkeypatch):
    exact = gs._lambda_weighted

    def shifted(x, bases):
        value = exact(x, bases)
        return value + 10**6 if sys._getframe(1).f_code.co_name == "challenge_sides" else value

    best = gs.kempf_minimize(E11_POINT)
    monkeypatch.setattr(gs, "_lambda_weighted", shifted)
    with pytest.raises(gs.SearchNotConverged, match="estimation inequality"):
        kempf_challenges(E11_POINT, best)


# ---------------------------------------------------------------------------
# subquotient reduction


def test_rr_frozen_pure_tensor():
    res = gs.kempf_minimize(E11_POINT)
    R = gs.rr_reduce(E11_POINT, res)
    assert R.beta == 2 and R.N == 2
    assert R.a == ((-1, 1), (-1, 1))
    assert R.b == ((0, 2), (0, 2))
    assert R.groups == ((1, 1),)
    assert R.block_ranks == ((1, 1), (1, 1))
    assert [p.to_json() for p in R.reduced] == [
        {"shape": [1, 1], "coords": {"1,1": "1"}}
    ]
    # (N, b) = 2 (1, (0, 1), (0, 1)): one copy of the reduced point, one
    # slot in each rank-one block of weight 1
    assert R.to_json()["witness"] == {"D": 1, "alphas": [[0, 1, 0, 1]], "sigma": [[], [0], [], [0]], "value": "1"}
    verdict = gs.reduced_is_semistable(R)
    assert verdict.semistable and verdict.note == "Levi witness of degree 1"


def test_rr_frozen_single_factor():
    res = gs.kempf_minimize(E1_POINT)
    R = gs.rr_reduce(E1_POINT, res)
    assert R.beta == 1 and R.N == 2
    assert R.a == ((-1, 1),) and R.b == ((0, 2),)
    assert R.block_ranks == ((1, 1),)
    assert gs.reduced_is_semistable(R).semistable
    payload = R.to_json()
    assert payload["beta"] == 1 and payload["groups"] == [[2]]


def test_rr_rejects_semistable_input():
    res = minimize_fixed_basis(IDENT_POINT, [gs._identity_basis(2)] * 2)
    with pytest.raises(ValueError):
        gs.rr_reduce(IDENT_POINT, res)


def test_rr_invariants_on_random_unstable_points():
    rng = random.Random(31415)
    found = 0
    while found < 8:
        x = rand_point(rng)
        res = gs.kempf_minimize(x)
        if res is None:
            continue
        R = gs.rr_reduce(x, res)
        for i, F_i in enumerate(res.minimizer.components):
            assert sum(
                a * r for a, r in zip(R.a[i], R.block_ranks[i])
            ) == 0
            assert all(b >= 0 for b in R.b[i])
            assert R.N % F_i.dim == 0
        assert R.groups  # the reduced point is nonzero
        assert levi_witness_value(R) == R.witness.value != 0
        assert gs.reduced_is_semistable(R).semistable
        found += 1


# the eight shapes of the ROADMAP's 2,400-point set
PLAN_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 2), (2, 3, 3), (2, 2, 2, 2), (4, 4))


def _drawn_points(rng, shape, count):
    """Points of the shape with a support of randint(1, cells) cells and
    entries in +-{1, 2, 3}, drawn in the order of the ROADMAP's point set."""
    cells = list(itertools.product(*[range(r) for r in shape]))
    for _ in range(count):
        size = rng.randint(1, len(cells))
        coords = {c: F(rng.choice((-3, -2, -1, 1, 2, 3))) for c in rng.sample(cells, size)}
        yield gs.TensorPoint.from_map(shape, coords)


def _reduction_or_refusal(reduce, x, M):
    try:
        return json.dumps(reduce(x, M).to_json(), sort_keys=True)
    except gs.SearchNotConverged as exc:
        return str(exc)


def test_reduction_plan_matches_fraction_oracle(monkeypatch):
    """rr_reduce read off its plan gives the JSON of the Fraction reduction
    computed afresh (oracles.fraction_rr_reduce) byte for byte, refusal
    messages included, on every unstable point of the 2,400-point set: 150
    points per shape from random.Random(g), g = 1, 2."""
    monkeypatch.setattr(gs, "LEVI_BUDGET", 2_000)
    unstable = refused = 0
    for g in (1, 2):
        rng = random.Random(g)
        for shape in PLAN_SHAPES:
            for x in _drawn_points(rng, shape, 150):
                M = gs.kempf_minimize(x)
                if M is None:
                    continue
                got = _reduction_or_refusal(gs.rr_reduce, x, M)
                assert got == _reduction_or_refusal(fraction_rr_reduce, x, M), x.to_json()
                unstable += 1
                refused += not got.startswith("{")
    assert unstable == 1097
    assert 55 <= refused < unstable // 10


def _plan_key(x, M):
    """The canonical datum rr_reduce looks its plan up by: the shape, the
    integer adapted weights, c_tilde and the support of v_x in the adapted
    bases."""
    weights = tuple([tuple([int(w) for w in B.weights]) for B in M.adapted])
    return x.shape, weights, M.c_tilde, gs._support(x, [B.change for B in M.adapted])


def test_reduction_plan_blocks_are_the_minimizer_filtrations():
    rng = random.Random(32001)
    checked = 0
    for shape, sizes in CACHE_SHAPES:
        for x in _seeded_points(rng, shape, sizes, 3):
            M = gs.kempf_minimize(x)
            if M is None:
                continue
            plan = gs._reduction_plan(*_plan_key(x, M))
            comps = M.minimizer.components
            assert plan.block_jumps == tuple(F.jumps for F in comps)
            assert plan.block_ranks == tuple(F.multiplicities() for F in comps)
            assert all(type(v) is int for row in plan.block_jumps + plan.a + plan.b for v in row)
            checked += 1
    assert checked >= 40


def test_points_with_one_adapted_support_share_a_plan(monkeypatch):
    """The plan is keyed on canonical data, never on a point: a multiple of
    a point meets its plan, and on seeded points the plan is built once per
    distinct key, while points with other coordinates hit it."""
    monkeypatch.setattr(gs, "LEVI_BUDGET", 20_000)
    _empty_caches()
    for x in (E11_POINT, point((2, 2), {(0, 0): 3})):
        gs.rr_reduce(x, gs.kempf_minimize(x))
    info = gs._reduction_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    _empty_caches()
    points = {}
    rng = random.Random(32002)
    for shape, size in KEMPF_KINDS:
        for x in _seeded_points(rng, shape, [size], 10):
            M = gs.kempf_minimize(x)
            if M is None:
                continue
            _reduction_or_refusal(gs.rr_reduce, x, M)
            points.setdefault(_plan_key(x, M), []).append(x)
    info = gs._reduction_plan.cache_info()
    assert info.misses == info.currsize == len(points)
    assert info.hits == sum(len(xs) for xs in points.values()) - len(points)
    assert sum(len(set(xs)) > 1 for xs in points.values()) >= 10


# (adapted weights of a (2,) minimizer, c_tilde = -1): the first gives
# a = (-5, 5), b = (-4, 6); the second a = (-1, 2), whose sum is not zero
PLAN_FAULTS = (
    (((-5, 5),), "negative b_j"),
    (((-1, 2),), "sum of a_j r_j is not zero"),
)


@pytest.mark.parametrize("weights, message", PLAN_FAULTS, ids=["b", "a"])
def test_failed_plan_check_stores_nothing(weights, message):
    _empty_caches()
    with pytest.raises(gs.SearchNotConverged, match=message):
        gs._reduction_plan((2,), weights, F(-1), ((0,), (1,)))
    assert gs._reduction_plan.cache_info().currsize == 0


def test_reduced_mu_rejects_bad_blocks():
    res = gs.kempf_minimize(E11_POINT)
    R = gs.rr_reduce(E11_POINT, res)
    with pytest.raises(ValueError):
        reduced_mu(R, [[fil.trivial(1)], [fil.trivial(1)]])
    with pytest.raises(ValueError):
        reduced_mu(R, [[fil.trivial(2), fil.trivial(1)], [fil.trivial(1), fil.trivial(1)]])


# the two ways a Levi witness search ends without a witness, and the limit
# each must name (N = 2 for the pure tensor, so the degree limit is 2N = 4)
WITNESS_FAULTS = (
    (None, "no Levi witness up to degree 4"),
    (inv.BUDGET_EXCEEDED, "the Levi witness search exceeded its budget of 2000000 steps"),
)


@pytest.mark.parametrize("found, message", WITNESS_FAULTS, ids=["none", "budget"])
def test_faulted_witness_search_names_the_limit(monkeypatch, found, message):
    res = gs.kempf_minimize(E11_POINT)
    monkeypatch.setattr(inv, "invariant_witness_search", lambda *args, **kwargs: found)
    with pytest.raises(gs.SearchNotConverged) as err:
        gs.rr_reduce(E11_POINT, res)
    assert str(err.value) == message


WITNESS_FAULT_UNDER_O = """
import sys
from fractions import Fraction
from slopelab import gitstab as gs
from slopelab import invariants as inv
assert sys.flags.optimize  # run under python -O: library asserts are stripped
x = gs.TensorPoint.from_map((2, 2), {(0, 0): Fraction(1)})
M = gs.kempf_minimize(x)
for found in (None, inv.BUDGET_EXCEEDED):
    inv.invariant_witness_search = lambda *args, **kwargs: found
    try:
        gs.rr_reduce(x, M)
    except gs.SearchNotConverged as exc:
        print("SearchNotConverged:", exc)
"""


def test_faulted_witness_search_survives_python_O():
    src = str(Path(gs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", WITNESS_FAULT_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["SearchNotConverged: " + message for _, message in WITNESS_FAULTS]


def _seeded_points(rng, shape, sizes, count):
    cells = list(itertools.product(*[range(r) for r in shape]))
    for size in sizes:
        for _ in range(count):
            coords = {c: F(rng.choice((-3, -2, -1, 1, 2, 3))) for c in rng.sample(cells, size)}
            yield gs.TensorPoint.from_map(shape, coords)


def _reduce_with_stand_in(monkeypatch, x, res):
    """rr_reduce with the witness search replaced by a stand-in witness,
    to inspect a reduced point that has no Levi witness."""
    stand_in = inv.WitnessInvariant(1, ((1,),), ((0,),), F(1))
    with monkeypatch.context() as patch:
        patch.setattr(inv, "invariant_witness_search", lambda *args, **kwargs: stand_in)
        return gs.rr_reduce(x, res)


def _levi_outcome(monkeypatch, x):
    """None for a semistable point.  Otherwise "witness" when rr_reduce
    carries a Levi witness that an independent evaluation finds nonzero,
    and the retired samplers of the minimizer and of the reduced point do
    not fail on it; or "refused" when rr_reduce stops without a witness
    and the block rounds show the reduced point unstable, so that the
    minimizer is not optimal and no witness exists."""
    res = gs.kempf_minimize(x)
    if res is None:
        return None
    try:
        R = gs.rr_reduce(x, res)
    except gs.SearchNotConverged:
        R = _reduce_with_stand_in(monkeypatch, x, res)
        assert not block_rounds_semistable(R, rounds=50)
        return "refused"
    assert R.witness.D >= 1
    assert levi_witness_value(R) == R.witness.value != 0
    kempf_challenges(x, res)
    sampled_reduced_mu(R)
    assert block_rounds_semistable(R)
    assert gs.reduced_is_semistable(R).semistable
    return "witness"


def test_levi_witness_on_seeded_kempf_shapes(monkeypatch):
    # the shapes of the kempf_reduce benchmark, one cell to dense: every
    # unstable point gets a witness
    rng = random.Random(14014)
    outcomes = Counter()
    for shape in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        total = 1
        for r in shape:
            total *= r
        outcomes.update(_levi_outcome(monkeypatch, x) for x in _seeded_points(rng, shape, range(1, total + 1), 4))
    assert outcomes["witness"] >= 40 and outcomes["refused"] == 0


def test_levi_witness_on_seeded_dense_shapes(monkeypatch):
    # the shapes of the dense campaign at every support size.  On sparse
    # (3, 3, 2) points the Kempf search can end at a destabilizer that is
    # not optimal, and rr_reduce must refuse it.  Every witness here takes
    # fewer than 200 000 steps, and the same search order finds it under
    # the full budget; the lower budget only ends the refusals sooner
    monkeypatch.setattr(gs, "LEVI_BUDGET", 200_000)
    rng = random.Random(14015)
    outcomes = Counter()
    for shape in ((2, 2, 2, 2), (4, 4), (3, 3, 2)):
        total = 1
        for r in shape:
            total *= r
        outcomes.update(_levi_outcome(monkeypatch, x) for x in _seeded_points(rng, shape, range(1, total + 1), 2))
    assert outcomes["witness"] >= 30 and outcomes["refused"] <= 2


# a sparse (3, 3, 2) point whose Kempf search ends at a destabilizer that is
# not optimal: the reduced point is unstable in a random block basis
NOT_OPTIMAL = {(0, 1, 1): -3, (1, 0, 1): 3, (2, 0, 1): 1, (2, 1, 0): -3, (2, 2, 0): 3}


def test_non_optimal_minimizer_gets_no_witness(monkeypatch):
    x = point((3, 3, 2), NOT_OPTIMAL)
    res = gs.kempf_minimize(x)
    assert res.c == AlgValue(-1, F(1, 16))
    kempf_challenges(x, res)  # the challenges pass it
    R = _reduce_with_stand_in(monkeypatch, x, res)
    sampled_reduced_mu(R)  # and so do the block samples
    assert not block_rounds_semistable(R)
    # no Levi witness exists, and the search stops on its budget
    monkeypatch.setattr(gs, "LEVI_BUDGET", 20_000)
    with pytest.raises(gs.SearchNotConverged, match="budget of 20000 steps"):
        gs.rr_reduce(x, res)


def test_gitstab_has_no_assert():
    # python -O strips assert statements; every check here must be an error
    tree = ast.parse(Path(gs.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
