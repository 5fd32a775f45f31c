"""Exact arithmetic substrate: rationals, prime logs, certified enclosures.

Rationals are plain ``fractions.Fraction``.  Degrees, slopes and heights
live in the Q-vector space of finite sums ``sum_p c_p * log p`` over
primes.  Unique factorization makes the representation unique, so
equality is structural; strict order is decided by refining certified
dyadic enclosures of the real value until zero is excluded.  The largest
root of a real-rooted integer polynomial, the operator norm behind a
morphism height, is enclosed on a dyadic grid by integer Newton steps,
and a failed certificate raises CertificateError.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Sequence, Tuple


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
    return _is_prime(n)


# LogValue validation asks about the same few primes over and over
@functools.lru_cache(maxsize=4096)
def _is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


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

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scaled(self, c: Fraction) -> "Interval":
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)


def _dyadic(ends: Tuple[int, int], bits: int) -> Interval:
    """The interval whose endpoints are ends over 2**bits."""
    return Interval(Fraction(ends[0], 1 << bits), Fraction(ends[1], 1 << bits))


def _atanh_ends(a: int, b: int, bits: int) -> Tuple[int, int, int]:
    """(lo, hi, den) with atanh(a/b) in [lo/den, hi/den], for integers
    0 <= a <= b/2, b > 0, a width <= 2**-bits; a/b need not be reduced.

    Positive series sum z^(2k+1)/(2k+1); the tail after K terms is
    bounded by z^(2K+1) / ((2K+1)(1-z^2)).  With z = a/b that bound is
    <= 2**-bits iff a^(2K+1) b^2 2^bits <= (2K+1)(b^2-a^2) b^(2K+1), an
    integer test that is the same for a/b and ta/tb, and the K terms are
    summed as one integer over the common denominator
    lcm(1, 3, ..., 2K-1) * b^(2K-1).
    """
    a2, b2 = a * a, b * b
    gap = b2 - a2
    pa, pb = a, b  # a^(2K+1), b^(2K+1)
    powers = []
    while (pa * b2) << bits > (2 * len(powers) + 1) * gap * pb:
        powers.append(pa)
        pa *= a2
        pb *= b2
    K = len(powers)
    den = lcm(*range(1, 2 * K, 2))
    num = 0  # sum_k den/(2k+1) * a^(2k+1) * b^(2(K-1-k))
    for k, p in enumerate(powers):
        num = num * b2 + den // (2 * k + 1) * p
    odd = 2 * K + 1
    lo = num * odd * gap
    return lo * b2, b2 * (lo + den * pa), den * odd * gap * pb


# log 2 = 2 atanh(1/3) enters every enclosure of a q outside [1, 2), at
# the few precisions that heights and comparisons ask for
@functools.lru_cache(maxsize=256)
def _atanh_third(bits: int) -> Tuple[int, int, int]:
    return _atanh_ends(1, 3, bits)


def _on_grid(iv: Interval, bits: int) -> Tuple[int, int]:
    """The endpoints of iv as integer numerators over 2**bits."""
    lo, hi = iv.lo * (1 << bits), iv.hi * (1 << bits)
    if lo.denominator != 1 or hi.denominator != 1:
        raise ArithmeticError(f"log enclosure [{iv.lo}, {iv.hi}] is off its 2^-{bits} grid")
    return lo.numerator, hi.numerator


def log_interval(q: Fraction, bits: int) -> Interval:
    """Certified enclosure of log(q) for rational q > 0, width <= 2**-bits;
    that of an integer is read from _log_grid."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log_interval needs a positive argument")
    if q.denominator == 1:
        return _dyadic(_log_grid(q.numerator, bits), bits + 1)
    return _log_enclosure(q, bits)


# Logs of integers only: prime logs recur across comparisons and
# renderings, while the rational arguments of height brackets never do.
# Each enclosure is a pair of integer numerators over 2**(bits+1), which
# approximate and morphism_height divide against without a Fraction.
@functools.lru_cache(maxsize=4096)
def _log_grid(n: int, bits: int) -> Tuple[int, int]:
    """The endpoint numerators of the enclosure of log n, n >= 1 an
    integer, over 2**(bits+1)."""
    return _on_grid(_log_enclosure(Fraction(n), bits), bits + 1)


def _log_enclosure(q: Fraction, bits: int) -> Interval:
    """log_interval of a rational q > 0, computed afresh by _log_ends."""
    return _dyadic(_log_ends(q.numerator, q.denominator, bits), bits + 1)


def _log_ends(n: int, d: int, bits: int) -> Tuple[int, int]:
    """The endpoint numerators over 2**(bits+1) of the enclosure of
    log(n/d), n and d positive integers, not necessarily coprime.

    Argument reduction n/d = 2**e * a/b with a/b in [1, 2), then
    log(n/d) = e*log 2 + 2*atanh((a-b)/(a+b)), and log(d/n) = -log(n/d).
    The two atanh enclosures (_atanh_ends; that of 1/3 from _atanh_third)
    are summed over one common denominator and rounded outward by integer
    floor division, so no rational is ever reduced.
    """
    if n < d:
        lo, hi = _log_ends(d, n, bits)
        return -hi, -lo
    if n == d:
        return 0, 0
    e = n.bit_length() - d.bit_length()
    a, b = n, d << e
    if a < b:
        e -= 1
        a <<= 1
    if not b <= a < 2 * b:
        raise ArithmeticError(f"argument reduction left {a}/{b} outside [1, 2)")
    sub = bits + 2 + max(1, e).bit_length()
    lo, hi, den = _atanh_ends(a - b, a + b, sub + 1)  # (a-b)/(a+b) in [0, 1/3)
    if e:
        tlo, thi, tden = _atanh_third(sub + 1)
        lo, hi, den = lo * tden + e * tlo * den, hi * tden + e * thi * den, den * tden
    one = bits + 2  # 2 * atanh, over 2**(bits+1)
    return (lo << one) // den, -((-hi << one) // den)


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
            # the exact type first: isinstance goes through the ABC machinery
            if not (type(c) is Fraction or isinstance(c, Fraction)) or not c:
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
    def is_zero(self) -> bool:
        return not self.terms

    def _merged(self, b: Sequence[Tuple[int, Fraction]]) -> "LogValue":
        """self plus the sorted terms b, by one merge."""
        a, out, i, j = self.terms, [], 0, 0
        while i < len(a) and j < len(b):
            (p, c), (q, d) = a[i], b[j]
            if p < q:
                out.append(a[i])
            elif q < p:
                out.append(b[j])
            elif s := c + d:
                out.append((p, s))
            i, j = i + (p <= q), j + (q <= p)
        return LogValue((*out, *a[i:], *b[j:]))

    def __add__(self, other: "LogValue") -> "LogValue":
        if not other.terms:
            return self
        if not self.terms:
            return other
        return self._merged(other.terms)

    def __neg__(self) -> "LogValue":
        return LogValue(tuple((p, -c) for p, c in self.terms))

    def __sub__(self, other: "LogValue") -> "LogValue":
        if not other.terms:
            return self
        return self._merged([(q, -d) for q, d in other.terms])

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
    if type(q) is not int and type(q) is not Fraction:
        q = Fraction(q)
    if type(scale) is not Fraction:
        scale = Fraction(scale)
    if q.numerator <= 0:
        raise ValueError("log_of needs a positive rational")
    a, b = scale.numerator, scale.denominator
    if not a:
        return LogValue.zero()
    # numerator and denominator are coprime: no prime occurs in both
    terms = [(p, Fraction(e * a, b)) for p, e in factorize(q.numerator)]
    if q.denominator == 1:  # factorize lists the primes in order
        return LogValue(tuple(terms))
    terms += [(p, Fraction(-e * a, b)) for p, e in factorize(q.denominator)]
    return LogValue(tuple(sorted(terms)))


def approximate(a: LogValue, bits: int) -> Interval:
    """Dyadic enclosure of the real value of ``a`` with width <= 2**-bits.

    The enclosure of log p for the term c log p is a pair of integers over
    2**(sub+1).  The terms are summed exactly over the common denominator
    den * 2**top, den the lcm of the denominators of the c, and the sum is
    rounded outward once, by integer floor division.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if a.is_zero:
        return Interval(Fraction(0), Fraction(0))
    slack = bits + 2 + len(a.terms).bit_length()
    den = lcm(*[c.denominator for _p, c in a.terms])
    top = slack + 1 + max(0, *[_ceil_log2_abs(c) for _p, c in a.terms])
    lo = hi = 0
    for p, c in a.terms:
        sub = slack + max(0, _ceil_log2_abs(c))
        grid = _log_grid(p, sub)
        w = c.numerator * (den // c.denominator) << (top - sub - 1)
        l, h = grid if w > 0 else grid[::-1]
        lo, hi = lo + w * l, hi + w * h
    shift = den << (top - bits - 1)
    return _dyadic((lo // shift, -(-hi // shift)), bits + 1)


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


def decimal_str(a: LogValue, bits: int = 30, digits: int = 9) -> str:
    """Decimal rendering of the midpoint of a width <= 2**-bits enclosure.

    The exact midpoint is rounded half to even to ``digits`` places, and a
    negative midpoint keeps its minus sign even when it rounds to zero.
    These are the rules of fixed-point float formatting, so whenever the
    midpoint is exactly a float the text is the same, without the float.
    The midpoint is rounded on integers: with the endpoints a / b and
    c / d it is (a d + c b) / 2 b d, and b = d = 2**(bits+1) for an
    enclosure from approximate."""
    iv = approximate(a, bits)
    lo, hi = iv.lo, iv.hi
    num = lo.numerator * hi.denominator + hi.numerator * lo.denominator
    den = 2 * lo.denominator * hi.denominator
    q, rem = divmod(abs(num) * 10**digits, den)
    if 2 * rem > den or (2 * rem == den and q & 1):
        q += 1
    whole, frac = divmod(q, 10**digits)
    sign_str = "-" if num < 0 else ""
    return f"{sign_str}{whole}.{str(frac).zfill(digits)}"


# ---------------------------------------------------------------------------
# the largest root of a real-rooted integer polynomial


class CertificateError(RuntimeError):
    """Raised when an exact certificate fails its own check: a result that
    the mathematics rules out, so a bug or a corrupted input, never a
    search limit."""


def _primitive_poly(c: List[int]) -> List[int]:
    """c without trailing zero coefficients, divided by the gcd of its
    coefficients, with its leading coefficient positive."""
    while c and not c[-1]:
        c = c[:-1]
    g = gcd(*c)
    if c and c[-1] < 0:
        g = -g
    return [x // g for x in c] if g not in (0, 1) else c


def _squarefree(c: List[int]) -> List[int]:
    """The squarefree part p / gcd(p, p') of p = sum c_i x^i on integers,
    primitive with its leading coefficient positive: the same roots as p,
    each simple.  The gcd is the last nonzero remainder of the primitive
    pseudo-remainder sequence of p and p', and the quotient is exact by
    Gauss's lemma."""
    a, b = _primitive_poly(c), _primitive_poly([i * x for i, x in enumerate(c)][1:])
    while len(b) > 1:
        r = a
        while len(r) >= len(b):  # r <- b[-1] r - r[-1] x^s b, which drops r's top
            s, top = len(r) - len(b), r[-1]
            r = [b[-1] * x - (top * b[i - s] if i >= s else 0) for i, x in enumerate(r)][:-1]
        a, b = b, _primitive_poly(r)
    if b:  # p and p' are coprime
        return c
    q, r = [], list(c)
    while len(r) >= len(a):
        s = len(r) - len(a)
        t = r[-1] // a[-1]
        q.append(t)
        r = [x - t * a[i - s] if i >= s else x for i, x in enumerate(r)][:-1]
    return _primitive_poly(q[::-1])


def _top_root_enclosure(c: List[int], lo: int, hi: int, D: int) -> Tuple[int, int]:
    """(A, B) with A <= lambda D <= B, for lambda > 0 the largest root of a
    real-rooted p = sum c_i x^i with c_k > 0, given lo <= lambda D <= hi.

    Newton's method from above on the grid 1/D.  At any x > lambda, p and
    p' are positive, and with d_i = x - lambda_i >= d = x - lambda the
    sums S1 = sum 1/d_i = p'/p and S2 = sum 1/d_i^2 = (p'^2 - p p'')/p^2
    satisfy S1 >= 1/d and S2 <= S1/d.  So Newton's step x - 1/S1 = x - p/p'
    stays >= lambda, and x - S1/S2 (Schroeder's step) is <= lambda; the
    latter is exact at a root of multiplicity k and tends to lambda
    quadratically at any multiplicity.  The upper end is rounded up and
    the lower end down; an upper end x with p(x) = 0 is lambda itself.
    Roots at zero, the kernel of the map, are divided out first.  The
    steps stop at width one, or once a step no longer halves the width.
    Newton's step shrinks the distance only linearly at a multiple root,
    so at the first such stall p is replaced by its squarefree part
    (_squarefree), whose roots are p's, each simple, and the steps go on.
    Far above the roots a step can stall too, and the caller's
    definiteness tests take over."""
    while not c[0]:
        c = c[1:]
    reduced = False
    while True:
        k = len(c) - 1
        scaled = [x * D ** (k - i) for i, x in enumerate(c)]  # P(X) = D^k p(X / D)
        A, B = lo, hi
        while B - A > 1:
            P = dP = ddP = 0  # P(B), P'(B) and P''(B) / 2
            for x in reversed(scaled):
                ddP = ddP * B + dP
                dP = dP * B + P
                P = P * B + x
            if not P:
                return B, B
            S2 = dP * dP - 2 * P * ddP
            if P < 0 or dP <= 0 or S2 <= 0:
                raise CertificateError("a real-rooted polynomial must increase above its largest root")
            width = B - A
            A = max(A, B + (-P * dP) // S2)
            B -= P // dP
            if 2 * (B - A) > width:
                break
        if B - A <= 1 or reduced:
            return A, B
        reduced, simple = True, _squarefree(c)
        if len(simple) == len(c):
            return A, B
        c, lo, hi = simple, A, B


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

