"""Exact number substrate: frozen cases first, then randomized properties.

Expected values below were computed independently before wiring them to
the library: factorizations by hand or long division, comparison signs
by integer exponentiation (2^3 = 8 < 9 = 3^2), and the log 2 bracket
from its classical decimal expansion.
"""

from fractions import Fraction
import functools
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from slopelab import exactnum, harness
from slopelab.exactnum import (
    AlgValue,
    Interval,
    LogValue,
    Order,
    approximate,
    compare,
    decimal_str,
    factorize,
    is_prime,
    log_of,
    rat_from_str,
    rat_to_str,
)
from slopelab.harness import (
    TrialConfig,
    check_bogomolov_campaign,
    check_main_theorem,
    check_reduction_chain,
    check_slope_inequalities,
)
from slopelab.lattice import Lattice, Morphism, morphism_height
from oracles import (
    dict_add,
    dict_log_of,
    dict_sub,
    float_decimal,
    fraction_approximate,
    fraction_atanh_interval,
    fraction_log_interval,
    isqrt_fraction_floor,
    log_interval,
    midpoint,
    sqrt_of,
)


# --- factorization -------------------------------------------------------

def test_factorize_frozen():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(324) == [(2, 2), (3, 4)]  # 324 = 4 * 81
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(1009 * 1013) == [(1009, 1), (1013, 1)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_reconstructs():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        prod = 1
        last = 1
        for p, e in factorize(n):
            assert p > last and e >= 1 and is_prime(p)
            last = p
            prod *= p**e
        assert prod == n


# --- rational strings ----------------------------------------------------

def test_rat_strings():
    assert rat_to_str(Fraction(3, 1)) == "3"
    assert rat_to_str(Fraction(-3, 2)) == "-3/2"
    assert rat_from_str("7/4") == Fraction(7, 4)
    assert rat_from_str("-5") == Fraction(-5)
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 500))
        assert rat_from_str(rat_to_str(q)) == q


@pytest.mark.parametrize("text", ["1/0", "0/0", " -3/0 "])
def test_rat_from_str_rejects_a_zero_denominator(text):
    # a ValueError, which every loader reports as bad input
    with pytest.raises(ValueError, match="zero denominator"):
        rat_from_str(text)


# --- LogValue construction and linear structure --------------------------

def test_log_of_frozen():
    assert dict(log_of(Fraction(9, 2)).terms) == {2: Fraction(-1), 3: Fraction(2)}
    assert log_of(Fraction(1)).is_zero
    assert dict(log_of(Fraction(8, 9)).terms) == {2: Fraction(3), 3: Fraction(-2)}
    assert dict(log_of(Fraction(2), Fraction(-1, 2)).terms) == {2: Fraction(-1, 2)}


def test_log_of_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_of(Fraction(0))
    with pytest.raises(ValueError):
        log_of(Fraction(-3, 7))


def test_logvalue_is_additive_in_argument():
    rng = random.Random(11)
    for _ in range(300):
        a = Fraction(rng.randrange(1, 400), rng.randrange(1, 400))
        b = Fraction(rng.randrange(1, 400), rng.randrange(1, 400))
        assert log_of(a * b) == log_of(a) + log_of(b)
        assert log_of(a / b) == log_of(a) - log_of(b)
        assert log_of(a**3) == log_of(a).scaled(3)


def test_logvalue_vector_space_ops():
    rng = random.Random(13)
    for _ in range(200):
        a = log_of(Fraction(rng.randrange(1, 500)), Fraction(rng.randrange(-5, 6)))
        b = log_of(Fraction(rng.randrange(1, 500), rng.randrange(1, 500)))
        assert (a + b) - b == a
        assert a + (-a) == LogValue.zero()
        assert (a * Fraction(3, 2)) / Fraction(3, 2) == a
        assert a * 0 == LogValue.zero()


def test_logvalue_rejects_bad_terms():
    with pytest.raises(ValueError):
        LogValue(((4, Fraction(1)),))  # not prime
    with pytest.raises(ValueError):
        LogValue(((3, Fraction(1)), (2, Fraction(1))))  # unsorted
    with pytest.raises(ValueError):
        LogValue(((2, Fraction(0)),))  # zero coefficient


def test_logvalue_json_roundtrip():
    v = log_of(Fraction(45, 28), Fraction(-7, 3))
    assert LogValue.from_json(v.to_json()) == v
    assert LogValue.from_json({}) == LogValue.zero()


# --- comparisons ---------------------------------------------------------

def test_compare_frozen():
    # 3 log 2 vs 2 log 3 decided by 8 < 9
    assert compare(log_of(2).scaled(3), log_of(3).scaled(2)) is Order.LT
    assert compare(log_of(3).scaled(2), log_of(2).scaled(3)) is Order.GT
    assert compare(log_of(6), log_of(2) + log_of(3)) is Order.EQ
    assert compare(log_of(Fraction(1, 2)), LogValue.zero()) is Order.LT


def test_compare_matches_rational_order():
    rng = random.Random(17)
    for _ in range(300):
        a = Fraction(rng.randrange(1, 2000), rng.randrange(1, 2000))
        b = Fraction(rng.randrange(1, 2000), rng.randrange(1, 2000))
        got = compare(log_of(a), log_of(b))
        want = Order.EQ if a == b else (Order.LT if a < b else Order.GT)
        assert got is want


def test_compare_close_values():
    # 1 + 1/2^40 on either side: tiny but decidable separations
    q = Fraction(2**40 + 1, 2**40)
    assert compare(log_of(q), LogValue.zero()) is Order.GT
    assert compare(log_of(1 / q), LogValue.zero()) is Order.LT
    assert log_of(q) > LogValue.zero()


# --- certified enclosures ------------------------------------------------

def test_log2_bracket_frozen():
    # log 2 = 0.69314718055994530941... (classical expansion)
    lo = Fraction(6931471805, 10**10)
    hi = Fraction(6931471806, 10**10)
    iv = approximate(log_of(2), 40)
    assert iv.width <= Fraction(1, 2**40)
    assert lo < midpoint(iv) < hi
    assert iv.lo < hi and iv.hi > lo


def test_log3_bracket_frozen():
    # log 3 = 1.09861228866810969140...
    iv = approximate(log_of(3), 40)
    assert Fraction(10986122886, 10**10) < midpoint(iv) < Fraction(10986122887, 10**10)


def test_approximate_width_and_dyadic_endpoints():
    rng = random.Random(23)
    for bits in (8, 24, 60):
        for _ in range(40):
            v = log_of(
                Fraction(rng.randrange(1, 10**4), rng.randrange(1, 10**4)),
                Fraction(rng.randrange(-20, 21) or 1, rng.randrange(1, 9)),
            )
            iv = approximate(v, bits)
            assert iv.width <= Fraction(1, 2**bits)
            for end in (iv.lo, iv.hi):
                d = end.denominator
                assert d & (d - 1) == 0  # power of two


def test_approximate_contains_value():
    # coarse enclosures must contain the midpoint of much finer ones
    rng = random.Random(29)
    for _ in range(60):
        v = log_of(Fraction(rng.randrange(2, 5000)), Fraction(rng.randrange(1, 7)))
        fine = midpoint(approximate(v, 120))
        coarse = approximate(v, 12)
        assert coarse.lo <= fine <= coarse.hi


def test_log_interval_any_rational():
    # works on arguments with large unfactored parts
    big = Fraction(10**30 + 57, 10**15 + 9)
    iv = log_interval(big, 50)
    assert iv.width <= Fraction(1, 2**50)
    import math

    assert abs(float(midpoint(iv)) - math.log(float(big))) < 1e-12


def test_atanh_matches_fraction_oracle():
    # the one-denominator series gives the same two rationals as the
    # Fraction series summed term by term, for a/b reduced or not
    rng = random.Random(3000)
    zs = [Fraction(0), Fraction(1, 3), Fraction(1, 2)]
    while len(zs) < 3000:
        b = rng.randrange(1, 1 << rng.choice((4, 12, 40, 70)))
        zs.append(Fraction(rng.randrange(0, b // 2 + 1), b))
    for z in zs:
        a, b = z.numerator, z.denominator
        for bits in (8, 33, 67, 140):
            want = fraction_atanh_interval(z, bits)
            for lo, hi, den in (exactnum._atanh_ends(a, b, bits), exactnum._atanh_ends(3 * a, 3 * b, bits)):
                assert (Fraction(lo, den), Fraction(hi, den)) == (want.lo, want.hi), (z, bits)


def _seeded_rationals(count, seed):
    """Positive rationals of 1 to 90 bits on either side: q < 1, q = 1,
    integers and their inverses, q in [1, 2) (e = 0) and q in [1/2, 1)."""
    rng = random.Random(seed)
    qs = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(1, 7), Fraction(7)]
    while len(qs) < count:
        kind = len(qs) % 5
        n = rng.randrange(1, 1 << rng.choice((2, 10, 30, 60, 90)))
        d = 1 if kind == 0 else rng.randrange(1, 1 << rng.choice((2, 10, 30, 60, 90)))
        if kind == 1:
            n, d = 1, n  # 1/q an integer
        elif kind == 2:
            n = d + rng.randrange(0, d)  # [1, 2): no power of two split off
        elif kind == 3:
            n, d = d, d + rng.randrange(1, d + 1)  # [1/2, 1)
        qs.append(Fraction(n, d))
    return qs


def test_log_enclosure_matches_fraction_oracle():
    # the enclosure summed over one integer denominator ends on the same
    # dyadic endpoints as the Fraction series rounded outward
    for t, q in enumerate(_seeded_rationals(3000, 3001)):
        bits = (3, 40, 77)[t % 3]
        assert exactnum._log_enclosure(q, bits) == fraction_log_interval(q, bits), (q, bits)


def test_log_two_series_is_built_once_per_precision():
    memo = exactnum._atanh_third
    memo.cache_clear()
    qs = _seeded_rationals(200, 3002)
    for q in qs:
        exactnum._log_enclosure(q, 50)
    # one precision per bit length of e, and |e| < 2^7 here
    info = memo.cache_info()
    assert info.currsize == info.misses <= 7 and info.hits > 100
    for q in qs:
        exactnum._log_enclosure(q, 50)
    assert memo.cache_info().misses == info.misses


def _record_log_grid(patch):
    """exactnum._log_grid wrapped anew at its bound around a builder that
    records each enclosure it builds: {(n, bits): (lo, hi)}."""
    built = {}
    build = exactnum._log_grid.__wrapped__

    def recording(n, bits):
        built[n, bits] = build(n, bits)
        return built[n, bits]

    maxsize = exactnum._log_grid.cache_info().maxsize
    patch.setattr(exactnum, "_log_grid", functools.lru_cache(maxsize=maxsize)(recording))
    return built


def test_log_cache_keeps_only_integer_arguments(monkeypatch):
    # heights take logs of one-shot rationals; caching them would crowd
    # out the prime logs that comparisons and renderings ask for again
    built = _record_log_grid(monkeypatch)
    rng = random.Random(50)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        E = Lattice.from_rows([[Fraction(int(i == j) * rng.randint(1, 5), rng.randint(1, 3)) for j in range(n)] for i in range(n)])
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if any(x for row in rows for x in row):
            morphism_height(Morphism.from_rows(E, E, rows))
            done += 1
    assert built
    assert all(type(n) is int for n, _bits in built)
    # a rational that is no integer, and its inverse, are not stored
    log_interval(Fraction(2, 3), 40)
    assert exactnum._log_grid.cache_info().currsize == len(built)


log_values = st.builds(
    LogValue.from_map,
    st.dictionaries(
        st.sampled_from((2, 3, 5, 7, 11)),
        st.fractions(min_value=-6, max_value=6, max_denominator=12),
        max_size=4,
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_values, log_values, st.booleans())
def test_compare_is_antisymmetric(a, b, same):
    if same:
        b = a
    assert compare(a, b) == -compare(b, a)
    assert (compare(a, b) is Order.EQ) == (a == b)


# --- integer enclosure sums and merged terms, against Fraction oracles ---

PRIMES_TO_97 = [p for p in range(2, 98) if all(p % d for d in range(2, p))]

wide_log_values = st.builds(
    LogValue.from_map,
    st.dictionaries(
        st.sampled_from(PRIMES_TO_97),
        st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 60)),
        max_size=6,
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(wide_log_values, st.integers(1, 200))
def test_approximate_matches_fraction_oracle(a, bits):
    assert approximate(a, bits) == fraction_approximate(a, bits)


def test_approximate_matches_fraction_oracle_on_campaign_values(monkeypatch):
    # every enclosure seeded campaigns ask for, the rendered decimals and
    # the refinements of every comparison included
    asked = []
    exact = exactnum.approximate

    def recording(a, bits):
        asked.append((a, bits))
        return exact(a, bits)

    monkeypatch.setattr(exactnum, "approximate", recording)
    monkeypatch.setattr(harness, "approximate", recording)
    for check in (check_main_theorem, check_slope_inequalities, check_bogomolov_campaign):
        check(TrialConfig(seed=41, ranks=(2, 3), entry_bound=3, trials=7))
    check_reduction_chain(TrialConfig(seed=41, ranks=(2, 2), entry_bound=2, trials=1))
    monkeypatch.undo()
    assert len(asked) > 100
    assert {bits for _a, bits in asked} >= {16, 30}
    for a, bits in asked:
        assert approximate(a, bits) == fraction_approximate(a, bits), (str(a), bits)


def test_log_cache_holds_the_oracle_enclosures(monkeypatch):
    built = _record_log_grid(monkeypatch)
    rng = random.Random(97)
    for _ in range(200):
        v = log_of(Fraction(rng.randrange(1, 10**4), rng.randrange(1, 10**4)), Fraction(rng.randrange(1, 99), 7))
        approximate(v, rng.randrange(1, 120))
    assert built
    for (n, bits), (lo, hi) in built.items():
        cached = Interval(Fraction(lo, 2 << bits), Fraction(hi, 2 << bits))
        assert cached == fraction_log_interval(n, bits), (n, bits)
        assert log_interval(n, bits) == cached


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wide_log_values, wide_log_values)
def test_logvalue_add_sub_match_dict_oracle(a, b):
    assert a + b == dict_add(a, b)
    assert a - b == dict_sub(a, b)
    assert a - a == LogValue.zero()
    zero = LogValue.zero()
    assert a + zero is a and a - zero is a
    if a.terms:
        assert zero + a is a
    assert zero - a == -a


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
def test_log_of_matches_dict_oracle(q, scale):
    assert log_of(q, scale) == dict_log_of(q, scale)


def test_prime_memo_keeps_validation():
    memo = exactnum._is_prime
    memo.cache_clear()
    for n in range(2, 200):
        log_of(Fraction(n))
    # the 46 primes below 200, each factored once and then looked up
    info = memo.cache_info()
    assert info.currsize == info.misses == 46 and info.hits > 0
    with pytest.raises(ValueError):
        LogValue(((4, Fraction(1)),))
    with pytest.raises(ValueError):
        LogValue(((91, Fraction(1)),))  # 7 * 13, both memoized
    # the memo holds both refusals, and answers them again
    hits = memo.cache_info().hits
    assert not is_prime(4) and not is_prime(91)
    assert memo.cache_info().hits == hits + 2


def test_prime_memo_holds_no_composite_and_stops_at_its_cap():
    memo = exactnum._is_prime
    memo.cache_clear()
    found = [n for n in range(-3, 40_000) if is_prime(n)]
    assert len(found) == 4203  # pi(40000)
    assert memo.cache_info().currsize == 4096
    # the memo holds the last 4096 numbers asked, and no composite among
    # them answers prime
    held = range(40_000 - 4096, 40_000)
    hits = memo.cache_info().hits
    assert [n for n in held if is_prime(n)] == [n for n in held if factorize(n) == [(n, 1)]]
    assert memo.cache_info().hits == hits + 4096
    # a full memo still answers
    assert is_prime(found[-1]) and not is_prime(3 * found[-1])
    assert memo.cache_info().currsize == 4096


OFF_GRID_UNDER_O = """
import sys
from fractions import Fraction
from slopelab import exactnum
assert sys.flags.optimize  # run under python -O: library asserts are stripped
exact = exactnum._log_enclosure

def off_grid(q, bits):
    iv = exact(q, bits)
    return exactnum.Interval(iv.lo - Fraction(1, 4 << bits), iv.hi)

exactnum._log_enclosure = off_grid
try:
    exactnum.approximate(exactnum.log_of(3), 30)
except ArithmeticError as exc:
    print("ArithmeticError:", exc)
"""


def test_off_grid_enclosure_check_survives_python_O():
    # half a grid step below the enclosure of log 3 is no integer over 2^(sub+1)
    src = str(Path(exactnum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", OFF_GRID_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ArithmeticError: log enclosure")
    assert "off its 2^-" in done.stdout


def test_interval_arith():
    a = Interval(Fraction(1, 4), Fraction(1, 2))
    b = Interval(Fraction(-1), Fraction(1))
    assert (a + b).lo == Fraction(-3, 4)
    assert a.scaled(Fraction(-2)) == Interval(Fraction(-1), Fraction(-1, 2))
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_decimal_str(monkeypatch):
    assert decimal_str(log_of(2), 40, 6) == "0.693147"
    assert decimal_str(LogValue.zero()) == "0.000000000"
    assert decimal_str(log_of(Fraction(1, 2)), 40, 6) == "-0.693147"

    # every LogValue a seeded campaign report renders, against the float
    # rendering the reports were first written with
    rendered = []

    def recording(v):
        rendered.append(v)
        return decimal_str(v)

    monkeypatch.setattr(harness, "decimal_str", recording)
    check_main_theorem(TrialConfig(seed=31, ranks=(2, 2), entry_bound=2, trials=4))
    monkeypatch.undo()
    assert len(rendered) == 12
    for v in rendered:
        assert decimal_str(v) == float_decimal(approximate(v, 30))

    # midpoints k / 2**32 with |k| < 2**50: the float is exact there
    mid = Fraction(0)
    monkeypatch.setattr(exactnum, "approximate", lambda a, bits: Interval(mid, mid))
    rng = random.Random(71)
    ks = [0, 1 << 22, 3 << 22, -(1 << 22), -1, 1, (1 << 50) - 1, 1 - (1 << 50)]
    ks += [(2 * rng.randrange(-(1 << 26), 1 << 26) + 1) << 22 for _ in range(2000)]  # ties
    ks += [rng.randrange(-(1 << 12), 1 << 12) for _ in range(2000)]  # near zero
    ks += [rng.randrange(1 - (1 << 50), 1 << 50) for _ in range(100_000)]
    for k in ks:
        mid = Fraction(k, 1 << 32)
        assert decimal_str(LogValue.zero()) == float_decimal(Interval(mid, mid)), k
    rendered = {}
    for k in (1 << 22, 3 << 22, -1, 0):
        mid = Fraction(k, 1 << 32)
        rendered[k] = decimal_str(LogValue.zero())
    # ties go to even and a negative value that rounds to zero keeps its sign
    assert rendered == {
        1 << 22: "0.000976562", 3 << 22: "0.002929688", -1: "-0.000000000", 0: "0.000000000",
    }


# --- AlgValue ------------------------------------------------------------

def test_algvalue_frozen():
    r2 = sqrt_of(2)
    assert AlgValue.from_rational(1) < r2 < AlgValue.from_rational(2)
    assert -r2 < AlgValue.zero() < r2
    assert (r2 * r2) == AlgValue.from_rational(2)
    assert r2.scaled(-3) == AlgValue(-1, Fraction(18))


def test_algvalue_ordering_random():
    rng = random.Random(31)
    vals = []
    for _ in range(80):
        q = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        vals.append(AlgValue.from_rational(q))
        vals.append(sqrt_of(abs(q)))
    for a in vals:
        for b in vals:
            fa, fb = (v.sign * float(v.square) ** 0.5 for v in (a, b))
            if abs(fa - fb) > 1e-9:
                assert (a < b) == (fa < fb)
            assert (a <= b) == (not (b < a))


def test_algvalue_validation():
    with pytest.raises(ValueError):
        AlgValue(2, Fraction(1))
    with pytest.raises(ValueError):
        AlgValue(0, Fraction(1))
    with pytest.raises(ValueError):
        sqrt_of(-1)


def test_algvalue_json_roundtrip():
    v = AlgValue(-1, Fraction(7, 3))
    assert AlgValue.from_json(v.to_json()) == v


# --- integer square root helper ------------------------------------------

def test_isqrt_fraction_floor():
    assert isqrt_fraction_floor(Fraction(0)) == 0
    assert isqrt_fraction_floor(Fraction(8)) == 2
    assert isqrt_fraction_floor(Fraction(9)) == 3
    assert isqrt_fraction_floor(Fraction(1, 2)) == 0
    rng = random.Random(37)
    for _ in range(300):
        q = Fraction(rng.randrange(0, 10**8), rng.randrange(1, 10**4))
        n = isqrt_fraction_floor(q)
        assert n * n <= q < (n + 1) * (n + 1)
