"""Exact arithmetic substrate: rationals, prime logs, certified enclosures.

Rationals are plain ``fractions.Fraction``.  Degrees, slopes and heights
live in the Q-vector space of finite sums ``sum_p c_p * log p`` over
primes.  Unique factorization makes the representation unique, so
equality is structural; strict order is decided by refining certified
dyadic enclosures of the real value until zero is excluded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

Rational = Fraction


def rat_from_str(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction (raises ValueError on junk)."""
    return Fraction(text.strip())


def rat_to_str(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# prime factorization (trial division; operands here are desk scale)


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor a positive integer into sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    out: list[tuple[int, int]] = []
    m = n
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    # remaining factors are coprime to 6; step through 6k +/- 1
    d = 5
    while d * d <= m:
        for q in (d, d + 2):
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            if e:
                out.append((q, e))
        d += 6
    if m > 1:
        out.append((m, 1))
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factorize(n) == [(n, 1)]


# ---------------------------------------------------------------------------
# dyadic intervals and certified logarithms


@dataclass(frozen=True)
class Interval:
    """Closed interval with dyadic rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scaled(self, c: Fraction) -> "Interval":
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)


def _dyadic_floor(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(x.numerator * scale // x.denominator, scale)


def _dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-x.numerator) * scale // x.denominator), scale)


def _round_outward(iv: Interval, bits: int) -> Interval:
    return Interval(_dyadic_floor(iv.lo, bits), _dyadic_ceil(iv.hi, bits))


def _atanh_interval(z: Fraction, bits: int) -> Interval:
    """Enclosure of atanh(z) for 0 <= z <= 1/2, width <= 2**-bits.

    Alternating-free positive series sum z^(2k+1)/(2k+1); the tail after
    K terms is bounded by z^(2K+1) / ((2K+1)(1-z^2)).
    """
    if not (0 <= z <= Fraction(1, 2)):
        raise ValueError("atanh series restricted to [0, 1/2]")
    if z == 0:
        return Interval(Fraction(0), Fraction(0))
    target = Fraction(1, 1 << bits)
    one_minus = 1 - z * z
    total = Fraction(0)
    power = z  # z^(2k+1)
    k = 0
    while True:
        tail = power / ((2 * k + 1) * one_minus)
        if tail <= target:
            return Interval(total, total + tail)
        total += power / (2 * k + 1)
        power *= z * z
        k += 1


_LOG_CACHE: Dict[Tuple[Fraction, int], Interval] = {}


def log_interval(q: Fraction, bits: int) -> Interval:
    """Certified enclosure of log(q) for rational q > 0, width <= 2**-bits.

    Argument reduction q = 2**e * m with m in [1, 2), then
    log q = e*log 2 + 2*atanh((m-1)/(m+1)).  Needs only big-integer
    arithmetic; q does not have to be factored or even reduced.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log_interval needs a positive argument")
    key = (q, bits)
    hit = _LOG_CACHE.get(key)
    if hit is not None:
        return hit
    if q == 1:
        return Interval(Fraction(0), Fraction(0))
    if q < 1:
        return -log_interval(1 / q, bits)
    e = q.numerator.bit_length() - q.denominator.bit_length()
    m = q / (1 << e) if e >= 0 else q * (1 << (-e))
    if m < 1:
        e -= 1
        m *= 2
    elif m >= 2:
        e += 1
        m /= 2
    if not 1 <= m < 2:
        raise ArithmeticError(f"argument reduction left {m} outside [1, 2)")
    sub = bits + 2 + max(1, abs(e)).bit_length()
    z = (m - 1) / (m + 1)  # in [0, 1/3]
    body = _atanh_interval(z, sub + 1).scaled(Fraction(2))
    if e:
        log2 = _atanh_interval(Fraction(1, 3), sub + 1).scaled(Fraction(2))
        body = body + log2.scaled(Fraction(e))
    out = _round_outward(body, bits + 1)
    if len(_LOG_CACHE) < 4096:
        _LOG_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# the field of values  sum_p c_p log p


def _ceil_log2_abs(c: Fraction) -> int:
    """Integer upper bound for log2|c|, c != 0."""
    return abs(c.numerator).bit_length() - c.denominator.bit_length() + 1


class Order(enum.IntEnum):
    LT = -1
    EQ = 0
    GT = 1


@dataclass(frozen=True)
class LogValue:
    """Finite sum of rational multiples of logs of primes.

    ``terms`` is sorted by prime and never carries zero coefficients, so
    two LogValues are equal as reals iff they are equal structurally.
    """

    terms: Tuple[Tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        last = 1
        for p, c in self.terms:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if not isinstance(c, Fraction) or c == 0:
                raise ValueError("coefficients must be nonzero Fractions")
            last = p

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(())

    @staticmethod
    def from_map(mapping: Mapping[int, Fraction]) -> "LogValue":
        items = tuple(
            (int(p), Fraction(c)) for p, c in sorted(mapping.items()) if c != 0
        )
        return LogValue(items)

    @property
    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, p: int) -> Fraction:
        for q, c in self.terms:
            if q == p:
                return c
        return Fraction(0)

    def __add__(self, other: "LogValue") -> "LogValue":
        acc = dict(self.terms)
        for p, c in other.terms:
            acc[p] = acc.get(p, Fraction(0)) + c
        return LogValue.from_map(acc)

    def __neg__(self) -> "LogValue":
        return LogValue(tuple((p, -c) for p, c in self.terms))

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def scaled(self, c) -> "LogValue":
        c = Fraction(c)
        if c == 0:
            return LogValue.zero()
        return LogValue(tuple((p, k * c) for p, k in self.terms))

    def __mul__(self, c) -> "LogValue":
        return self.scaled(c)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "LogValue":
        return self.scaled(Fraction(1, 1) / Fraction(c))

    # order on real values; equality stays structural (the same relation)
    def __lt__(self, other: "LogValue") -> bool:
        return compare(self, other) is Order.LT

    def __le__(self, other: "LogValue") -> bool:
        return compare(self, other) is not Order.GT

    def __gt__(self, other: "LogValue") -> bool:
        return compare(self, other) is Order.GT

    def __ge__(self, other: "LogValue") -> bool:
        return compare(self, other) is not Order.LT

    def to_json(self) -> Dict[str, str]:
        return {str(p): rat_to_str(c) for p, c in self.terms}

    @staticmethod
    def from_json(payload: Mapping[str, str]) -> "LogValue":
        return LogValue.from_map(
            {int(p): rat_from_str(str(c)) for p, c in payload.items()}
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p, c in self.terms:
            parts.append(f"{rat_to_str(c)}*log({p})")
        return " + ".join(parts).replace("+ -", "- ")


def log_of(q: Fraction, scale=Fraction(1)) -> LogValue:
    """scale * log(q) for rational q > 0, as an exact LogValue."""
    q = Fraction(q)
    scale = Fraction(scale)
    if q <= 0:
        raise ValueError("log_of needs a positive rational")
    acc: Dict[int, Fraction] = {}
    for p, e in factorize(q.numerator):
        acc[p] = acc.get(p, Fraction(0)) + e * scale
    for p, e in factorize(q.denominator):
        acc[p] = acc.get(p, Fraction(0)) - e * scale
    return LogValue.from_map(acc)


def approximate(a: LogValue, bits: int) -> Interval:
    """Dyadic enclosure of the real value of ``a`` with width <= 2**-bits."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if a.is_zero:
        return Interval(Fraction(0), Fraction(0))
    nterms = len(a.terms)
    slack = bits + 2 + max(1, nterms).bit_length()
    total = Interval(Fraction(0), Fraction(0))
    for p, c in a.terms:
        sub = slack + max(0, _ceil_log2_abs(c))
        total = total + log_interval(Fraction(p), sub).scaled(c)
    return _round_outward(total, bits + 1)


def compare(a: LogValue, b: LogValue) -> Order:
    """Exact trichotomy for LogValues.

    Equality is structural (unique factorization); otherwise the
    difference is a nonzero real, so interval refinement terminates.
    """
    d = a - b
    if d.is_zero:
        return Order.EQ
    bits = 16
    while True:
        iv = approximate(d, bits)
        if iv.lo > 0:
            return Order.GT
        if iv.hi < 0:
            return Order.LT
        bits *= 2
        if bits > 1 << 20:  # nonzero values separate long before this
            raise RuntimeError(f"comparison failed to separate {a} vs {b}")


def sign(a: LogValue) -> Order:
    return compare(a, LogValue.zero())


def decimal_str(a: LogValue, bits: int = 30, digits: int = 9) -> str:
    """Decimal rendering of the midpoint of a width <= 2**-bits enclosure.

    The exact midpoint is rounded half to even to ``digits`` places, and a
    negative midpoint keeps its minus sign even when it rounds to zero.
    These are the rules of fixed-point float formatting, so whenever the
    midpoint is exactly a float the text is the same, without the float.
    """
    mid = approximate(a, bits).midpoint
    whole, frac = divmod(round(abs(mid) * 10**digits), 10**digits)
    sign_str = "-" if mid < 0 else ""
    return f"{sign_str}{whole}.{str(frac).zfill(digits)}"


# ---------------------------------------------------------------------------
# exact signed square roots of rationals


@dataclass(frozen=True)
class AlgValue:
    """Value sign * sqrt(square) with square a nonnegative rational.

    Closed under negation and products, enough for Hilbert-Mumford
    normalizations; comparisons are exact rational comparisons of
    squares with the obvious sign bookkeeping.
    """

    sign: int
    square: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        if not isinstance(self.square, Fraction) or self.square < 0:
            raise ValueError("square must be a nonnegative Fraction")
        if (self.sign == 0) != (self.square == 0):
            raise ValueError("sign is zero exactly when square is zero")

    @staticmethod
    def zero() -> "AlgValue":
        return AlgValue(0, Fraction(0))

    @staticmethod
    def from_rational(q) -> "AlgValue":
        q = Fraction(q)
        if q == 0:
            return AlgValue.zero()
        return AlgValue(1 if q > 0 else -1, q * q)

    @staticmethod
    def sqrt_of(q) -> "AlgValue":
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt_of needs a nonnegative rational")
        if q == 0:
            return AlgValue.zero()
        return AlgValue(1, q)

    def __neg__(self) -> "AlgValue":
        if self.sign == 0:
            return self
        return AlgValue(-self.sign, self.square)

    def __mul__(self, other: "AlgValue") -> "AlgValue":
        s = self.sign * other.sign
        if s == 0:
            return AlgValue.zero()
        return AlgValue(s, self.square * other.square)

    def scaled(self, q) -> "AlgValue":
        return self * AlgValue.from_rational(q)

    def _cmp(self, other: "AlgValue") -> int:
        if self.sign != other.sign:
            return -1 if self.sign < other.sign else 1
        if self.square == other.square:
            return 0
        mag = -1 if self.square < other.square else 1
        return mag if self.sign >= 0 else -mag

    def __lt__(self, other: "AlgValue") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "AlgValue") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "AlgValue") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "AlgValue") -> bool:
        return self._cmp(other) >= 0

    @property
    def is_negative(self) -> bool:
        return self.sign < 0

    def to_json(self) -> Dict[str, str]:
        return {"sign": str(self.sign), "square": rat_to_str(self.square)}

    @staticmethod
    def from_json(payload: Mapping[str, str]) -> "AlgValue":
        return AlgValue(int(payload["sign"]), rat_from_str(str(payload["square"])))

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else ""
        return f"{prefix}sqrt({rat_to_str(self.square)})"

