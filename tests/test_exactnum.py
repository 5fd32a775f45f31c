"""Exact number substrate: frozen cases first, then randomized properties.

Expected values below were computed independently before wiring them to
the library: factorizations by hand or long division, comparison signs
by integer exponentiation (2^3 = 8 < 9 = 3^2), and the log 2 bracket
from its classical decimal expansion.
"""

from fractions import Fraction
import random

import pytest

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
    log_interval,
    log_of,
    rat_from_str,
    rat_to_str,
    sign,
)
from slopelab.harness import TrialConfig, check_main_theorem
from oracles import float_decimal, isqrt_fraction_floor


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


# --- LogValue construction and linear structure --------------------------

def test_log_of_frozen():
    assert log_of(Fraction(9, 2)).as_dict == {2: Fraction(-1), 3: Fraction(2)}
    assert log_of(Fraction(1)).is_zero
    assert log_of(Fraction(8, 9)).as_dict == {2: Fraction(3), 3: Fraction(-2)}
    assert log_of(Fraction(2), Fraction(-1, 2)).as_dict == {2: Fraction(-1, 2)}


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
    assert sign(log_of(Fraction(1, 2))) is Order.LT


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
    assert lo < iv.midpoint < hi
    assert iv.lo < hi and iv.hi > lo


def test_log3_bracket_frozen():
    # log 3 = 1.09861228866810969140...
    iv = approximate(log_of(3), 40)
    assert Fraction(10986122886, 10**10) < iv.midpoint < Fraction(10986122887, 10**10)


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
        fine = approximate(v, 120).midpoint
        coarse = approximate(v, 12)
        assert coarse.lo <= fine <= coarse.hi


def test_log_interval_any_rational():
    # works on arguments with large unfactored parts
    big = Fraction(10**30 + 57, 10**15 + 9)
    iv = log_interval(big, 50)
    assert iv.width <= Fraction(1, 2**50)
    import math

    assert abs(float(iv.midpoint) - math.log(float(big))) < 1e-12


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
    r2 = AlgValue.sqrt_of(2)
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
        vals.append(AlgValue.sqrt_of(abs(q)))
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
        AlgValue.sqrt_of(-1)


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
