"""Euclidean lattices over Z with exact rational Gram matrices.

A lattice here is a hermitian vector bundle over Spec Z presented in a
fixed basis: the free module Z^r together with a positive definite
symmetric rational Gram matrix, stored as integers with one basis of Z^r
and the Sylvester certificate of the Gram matrix in that basis (Lattice):
the standard basis, or for a tensor product the LLL-reduced basis it is
found in.  Degrees are -1/2 * log det(Gram) as exact
LogValues, so all the classical identities (duality, direct sums, tensor
products, exterior powers, short exact sequences) can be checked
structurally instead of numerically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg as la
from .exactnum import (
    CertificateError,
    LogValue,
    Order,
    _log_ends,
    _log_grid,
    _top_root_enclosure,
    approximate,
    compare,
    log_of,
    rat_from_str,
    rat_to_str,
)


# Largest rank for which mu_max and hn_filtration search exactly; the
# campaigns in harness read their limits from here.
EXACT_RANK_LIMIT = 6


class ExactSearchUnavailable(RuntimeError):
    """Raised when the decomposable-vector search is out of configured range.

    Carries a certified bracket: ``best_found`` is the slope of an actual
    sublattice (lower bound), ``upper_bound`` is the Minkowski-type cap
    udeg_max + (1/2) log rank.
    """

    def __init__(self, message, best_found, upper_bound):
        super().__init__(message)
        self.best_found = best_found
        self.upper_bound = upper_bound


class Lattice:
    """Z^r with a positive definite symmetric rational Gram matrix G.

    Stored as integers: den, the lcm of the denominators of G, the rows
    of den * G, one basis of Z^r, and the Sylvester certificate of den * G
    in that basis.  basis holds the integer rows U whose columns are the
    basis vectors, and ldl the Gram-Schmidt data (lam, D) of U^T (den G) U
    as la._ldl_scaled gives it: D[k] is the k-th leading principal minor,
    every one positive, and lam[i][j] = D[j+1] mu_ij for j < i.  U is
    unimodular, and a unimodular change of basis keeps positive
    definiteness, so that data certifies G.  It is kept as one flat tuple,
    ldl, of the rows lam[i] + [D[i+1]] of the integer LDL factor, its
    lower triangle (_gso unpacks it).  A lattice built from a Gram matrix
    stores the standard basis, one identity per rank (_identity), and the
    LDL data of den * G itself; a tensor product stores the LLL-reduced
    basis that tensor finds from its factors'.  Every reduction (_reduced)
    sweeps from the stored pair.  The Fraction Gram matrix, equality,
    hashing and JSON are derived from (den, rows) alone, and equal those
    of the Gram matrix itself: den is canonical, so two lattices are equal
    iff their Gram matrices are, whatever basis they store.  Immutable."""

    __slots__ = ("rank", "den", "rows", "basis", "ldl")

    def __init__(self, rank: int, gram: Sequence[Sequence]) -> None:
        if rank < 0 or len(gram) != rank:
            raise ValueError("gram size does not match rank")
        rows, den = la._common_scaled(gram)
        self._certify(rows, den)

    def _certify(
        self, rows: Sequence[Sequence[int]], den: int, reduction: Optional[Tuple[List[List[int]], la.GSO]] = None
    ) -> None:
        """Store den * G = rows with a basis and its certificate: the
        reduction (U, gso) that tensor finds, or else the standard basis
        with the data of la._ldl_scaled, after Sylvester's criterion:
        symmetric, and every pivot positive."""
        if reduction is None:
            try:
                if not la.is_symmetric(rows):
                    raise la.SingularMatrixError("not symmetric")
                A, D, _one = la._ldl_scaled(rows)
            except la.SingularMatrixError:
                raise ValueError("gram matrix must be symmetric positive definite") from None
            basis = _identity(len(rows))
            ldl = tuple([x for i, row in enumerate(A) for x in row[: i + 1]])
        else:
            U, (lam, D, _den) = reduction
            basis = tuple([tuple(row) for row in U])
            ldl = tuple([x for i, row in enumerate(lam) for x in (*row, D[i + 1])])
        put = object.__setattr__
        put(self, "rank", len(rows))
        put(self, "den", den)
        put(self, "rows", tuple([tuple(row) for row in rows]))
        put(self, "basis", basis)
        put(self, "ldl", ldl)

    def __setattr__(self, *args):
        raise AttributeError("Lattice is immutable")

    __delattr__ = __setattr__

    @staticmethod
    def from_scaled(rows: Sequence[Sequence[int]], den: int = 1) -> "Lattice":
        """The lattice of Gram matrix rows / den, for integer rows and an
        integer den > 0, validated as Lattice(rank, gram) is; a common
        factor of den and every entry is divided out first."""
        if den < 1:
            raise ValueError("den must be a positive integer")
        g = gcd(den, *[x for row in rows for x in row])
        if g > 1:
            rows, den = [[x // g for x in row] for row in rows], den // g
        L = object.__new__(Lattice)
        L._certify(rows, den)
        return L

    @staticmethod
    def from_rows(rows) -> "Lattice":
        rows = la.frac_rows(rows)
        return Lattice(len(rows), rows)

    @property
    def gram(self) -> Tuple[Tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.rows)

    @property
    def gram_rows(self) -> la.Matrix:
        return [list(row) for row in self.gram]

    def norm_of(self, v: Sequence[int]) -> Fraction:
        return Fraction(sum(map(mul, v, la.mat_vec(self.rows, v))), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.den == other.den and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rank, self.gram))

    def __repr__(self) -> str:
        return "Lattice(rank=%r, gram=%r)" % (self.rank, self.gram)

    def to_json(self) -> dict:
        den = self.den
        return {
            "rank": self.rank,
            "gram": [[_over(x, den) for x in row] for row in self.rows],
        }

    @staticmethod
    def from_json(payload: dict) -> "Lattice":
        gram = [[rat_from_str(str(x)) for x in row] for row in payload["gram"]]
        lat = Lattice.from_rows(gram)
        if lat.rank != int(payload["rank"]):
            raise ValueError("rank field disagrees with gram size")
        return lat


def _over(x: int, den: int) -> str:
    """rat_to_str(Fraction(x, den)) for den > 0, without the Fraction."""
    g = gcd(x, den)
    return str(x // g) if g == den else "%d/%d" % (x // g, den // g)


@dataclass(frozen=True)
class SubLattice:
    """Sublattice of ambient Z^r spanned by the integer columns of basis."""

    ambient: Lattice
    basis: Tuple[Tuple[int, ...], ...]  # r rows, k columns

    def __post_init__(self) -> None:
        r = self.ambient.rank
        if len(self.basis) != r:
            raise ValueError("basis must have one row per ambient coordinate")
        k = self.rank
        if any(len(row) != k for row in self.basis):
            raise ValueError("ragged basis matrix")
        if k == 0 or k > r:
            raise ValueError("basis must have between 1 and rank columns")
        # one column is independent iff it is nonzero
        independent = any(row[0] for row in self.basis) if k == 1 else la.rank([list(row) for row in self.basis]) == k
        if not independent:
            raise ValueError("basis columns must be linearly independent")

    @property
    def rank(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    @property
    def basis_rows(self) -> List[List[int]]:
        return [list(row) for row in self.basis]

    @staticmethod
    def from_columns(ambient: Lattice, columns: Sequence[Sequence[int]]) -> "SubLattice":
        rows = la.transpose([list(c) for c in columns])
        return SubLattice(ambient, tuple(tuple(int(x) for x in row) for row in rows))

    def to_json(self) -> dict:
        payload = self.ambient.to_json()
        payload["basis"] = [list(row) for row in self.basis]
        return payload

    @staticmethod
    def from_json(payload: dict) -> "SubLattice":
        amb = Lattice.from_json(payload)
        return SubLattice(amb, tuple(tuple(int(x) for x in row) for row in payload["basis"]))


@dataclass(frozen=True)
class HNResult:
    """Canonical destabilizing chain 0 != F_1 < ... < F_s = E with the
    strictly decreasing successive quotient slopes."""

    chain: Tuple[SubLattice, ...]
    slopes: Tuple[LogValue, ...]

    @property
    def is_semistable(self) -> bool:
        return len(self.chain) == 1


@dataclass(frozen=True)
class Morphism:
    source: Lattice
    target: Lattice
    matrix: Tuple[Tuple[Fraction, ...], ...]  # target.rank x source.rank

    def __post_init__(self) -> None:
        if len(self.matrix) != self.target.rank or any(
            len(row) != self.source.rank for row in self.matrix
        ):
            raise ValueError("matrix shape must be target.rank x source.rank")

    @staticmethod
    def from_rows(source: Lattice, target: Lattice, rows) -> "Morphism":
        rows = la.frac_rows(rows)
        return Morphism(source, target, tuple(tuple(r) for r in rows))

    @property
    def matrix_rows(self) -> la.Matrix:
        return [list(row) for row in self.matrix]

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "matrix": [[rat_to_str(x) for x in row] for row in self.matrix],
        }

    @staticmethod
    def from_json(payload: dict) -> "Morphism":
        rows = [[rat_from_str(str(x)) for x in row] for row in payload["matrix"]]
        return Morphism.from_rows(
            Lattice.from_json(payload["source"]),
            Lattice.from_json(payload["target"]),
            rows,
        )


@dataclass(frozen=True)
class HeightBracket:
    """Certified enclosure of a morphism height: exact finite part plus a
    dyadic-grid bracket of the archimedean operator norm."""

    lower: LogValue
    upper: LogValue
    finite: LogValue

    @property
    def width(self) -> LogValue:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# degrees and functorial constructions


def degree(L: Lattice) -> LogValue:
    """Arakelov degree -1/2 log det(Gram), with det(Gram) = D[r] / den^r
    read off the stored certificate; the zero bundle has degree 0."""
    if L.rank == 0:
        return LogValue.zero()
    return log_of(Fraction(L.ldl[-1], L.den**L.rank), Fraction(-1, 2))


def slope(L: Lattice) -> LogValue:
    if L.rank == 0:
        raise ValueError("slope of the zero bundle is undefined")
    return degree(L) / L.rank


def dual(L: Lattice) -> Lattice:
    """The inverse Gram matrix, den A^-1 for A = den * G: one elimination
    of [A | 1] on integers ends in [d 1 | d A^-1]."""
    r = L.rank
    W = [[*row, *(int(i == j) for j in range(r))] for i, row in enumerate(L.rows)]
    d = la._eliminate(W, r)[2]
    if d < 0:
        W, d = [[-x for x in row] for row in W], -d
    return Lattice.from_scaled([[L.den * x for x in row[r:]] for row in W], d)


def direct_sum(L1: Lattice, L2: Lattice) -> Lattice:
    r1, r2 = L1.rank, L2.rank
    den = lcm(L1.den, L2.den)
    a, b = den // L1.den, den // L2.den
    rows = [[a * x for x in row] + [0] * r2 for row in L1.rows]
    rows += [[0] * r1 + [b * x for x in row] for row in L2.rows]
    return Lattice.from_scaled(rows, den)


def tensor(L1: Lattice, L2: Lattice) -> Lattice:
    """The Kronecker product of the Gram matrices, on the integer rows of
    den1 * G1 and den2 * G2 over den1 * den2, stored with an LLL-reduced
    basis.

    Each factor is reduced (_reduced), and the tensor starts from the
    product U1 (x) U2 of the factors' reduced bases.  Its Gram-Schmidt
    data is read off the factors' (la._kron_gso): the LDL factor of a
    Kronecker product is the product of the factors' LDL factors, and
    each pivot a product of a pivot of each factor (Horn and Johnson,
    Topics in Matrix Analysis, 4.2), so every pivot is positive and
    nothing is eliminated; that is the Sylvester certificate.  A common
    factor g of den1 * den2 and every entry is divided out, which divides
    D[k] by g^k and lam[i][j] by g^(j+1).  One la._lll_from sweep on the
    columns of U1 (x) U2 finishes the reduction, a unimodular change that
    keeps every pivot positive, and the tensor stores its result, so
    _reduced of the tensor makes no swap.  A product of three or more
    factors is folded pairwise, each fold from the reduction of the one
    before."""
    rows = la.kron(L1.rows, L2.rows)
    (U1, gso1), (U2, gso2) = _reduced(L1), _reduced(L2)
    gso = la._kron_gso(gso1, gso2)
    g = gcd(gso.den, *[x for row in rows for x in row])
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
        gso = la._gso_divided(gso, g)
    if any(d <= 0 for d in gso.D):
        raise CertificateError("a tensor product of positive definite Gram matrices must be positive definite")
    T = object.__new__(Lattice)
    T._certify(rows, gso.den, la._lll_from(gso, la.kron(U1, U2)))
    return T


def exterior_power(L: Lattice, k: int) -> Lattice:
    if not 0 < k <= L.rank:
        raise ValueError("exterior power degree out of range")
    for _k, T, _one in la._compound_tower(L.rows, k):
        pass
    return Lattice.from_scaled(T, L.den**k)


# ---------------------------------------------------------------------------
# sublattices: saturation


def saturate(S: SubLattice) -> SubLattice:
    """Saturation: ambient intersect the Q-span, with canonical HNF basis.

    With B = Uinv [H; 0] from la.hnf_rows, the first k columns of Uinv
    span it, and the Hermite form of those columns, read as columns, is
    its canonical basis, built once."""
    H, Uinv = la.hnf_rows(S.basis_rows)
    k = S.rank
    if len(H) != k:
        raise CertificateError("sublattice basis columns are not independent")
    H = la.hnf_rows(la.transpose(Uinv)[:k])[0]
    if len(H) != k:
        raise CertificateError("a saturation basis must have the rank of its sublattice")
    return SubLattice(S.ambient, tuple(zip(*H)))


def is_saturated(S: SubLattice) -> bool:
    """The basis B of S is saturated iff H is the identity in
    B = Uinv [H; 0] from la.hnf_rows."""
    k = S.rank
    return la.hnf_rows(S.basis_rows)[0] == [[int(i == j) for j in range(k)] for i in range(k)]


# ---------------------------------------------------------------------------
# short vectors and slope maximization


def short_vectors(L: Lattice, bound) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All nonzero vectors with norm^2 <= bound, up to sign, sorted."""
    return la.short_vectors_reduced(*_reduced(L), Fraction(bound))


def udeg_max(L: Lattice) -> Tuple[LogValue, Tuple[int, ...]]:
    """Max degree of a metrized line sublattice: -log(shortest vector).

    The witness is the lexicographically smallest shortest vector (sign
    normalized); it is automatically primitive.
    """
    if L.rank == 0:
        raise ValueError("udeg_max needs positive rank")
    return _udeg_of_shortest(_shortest_reduced(*_reduced(L)))


@functools.lru_cache(maxsize=None)
def _identity(r: int) -> Tuple[Tuple[int, ...], ...]:
    """The standard basis of Z^r as integer rows, built once per rank in
    a process and shared by every lattice of that rank that stores it."""
    return tuple([tuple([int(i == j) for j in range(r)]) for i in range(r)])


def _gso(L: Lattice) -> la.GSO:
    """The stored Gram-Schmidt data of L as a GSO of its own lists, which
    la._lll_from may update in place: row i of the flat L.ldl is lam[i]
    followed by D[i+1]."""
    ldl, lam, D, t = L.ldl, [], [1], 0
    for i in range(L.rank):
        lam.append(list(ldl[t : t + i]))
        D.append(ldl[t + i])
        t += i + 1
    return la.GSO(lam, D, L.den)


def _reduced(L: Lattice) -> Tuple[List[List[int]], la.GSO]:
    """(U, gso): the LLL reduction of L, U the integer rows whose columns
    are the reduced basis and gso its Gram-Schmidt data over den = L.den.
    The sweep (la._lll_from) starts from a copy of the stored basis and
    data, so nothing is eliminated, and the basis a tensor stores is
    reduced already: its sweep makes no swap."""
    return la._lll_from(_gso(L), L.basis)


def _shortest_reduced(U: List[List[int]], gso: la.GSO) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """Every lattice vector within D[1] / den, the norm of the first
    vector of the reduced basis (U, gso) that _reduced gives: a realized
    radius, as D[k] is at every level k >= 2 of _rank_candidates, so every
    shortest vector lies within it.  udeg and the rank-one candidates both
    read this one enumeration.  The norms are those of G."""
    least = gso.D[1]
    return la.short_vectors_reduced(U, gso, least if gso.den == 1 else Fraction(least, gso.den))


def _scaled_norm(norm: Fraction, den: int) -> int:
    """den * norm for a norm of G, an integer as den * G is."""
    return norm.numerator * den // norm.denominator


def _udeg_of_shortest(
    vecs: List[Tuple[Tuple[int, ...], Fraction]]
) -> Tuple[LogValue, Tuple[int, ...]]:
    """udeg_max from the output of _shortest_reduced."""
    best = vecs[0][1]
    witness = min(v for v, norm in vecs if norm == best)
    return log_of(best, Fraction(-1, 2)), witness


def _decomposable_kernel(w: Sequence[int], r: int, k: int) -> Optional[List[List[int]]]:
    """Support of a decomposable integer k-vector w, or None.

    w is decomposable iff the kernel of x -> x /\\ w has dimension k; the
    kernel is then exactly the k-plane whose wedge is w.  For I the first
    k-subset with w_I != 0, the contraction of w by I without I[t],
    m_t[j] = +-w_(I - I[t] + j), lies in that plane when w is decomposable,
    and m_t is w_I at I[t] and 0 at the rest of I, so the k vectors m_t are
    independent.  Since the kernel of a nonzero w has dimension at most k,
    w is decomposable iff each m_t /\\ w = 0, and the m_t then span the
    plane.  The contractions read the (r, k) subset table and the wedge
    products the (r, k + 1) one, all on integers.  Returned as primitive
    integer rows.
    """
    table = la._subset_table(r, k)
    even, odd = table.wedge[next(b for b, x in enumerate(w) if x)]
    rows = []
    for _i, p in sorted(even + odd):  # I[t] and the index of I without it
        m = [0] * r
        for j, b, sign in table.contract[p]:
            m[j] = sign * w[b]
        rows.append(m)
    for even, odd in la._subset_table(r, k + 1).wedge:
        for m in rows:
            x = 0
            for j, c in even:
                x += m[j] * w[c]
            for j, c in odd:
                x -= m[j] * w[c]
            if x:
                return None
    return [la.primitive_vector(m) for m in rows]


def _slope_of_det(detval, k: int) -> LogValue:
    """-log(detval) / 2k, the slope of a rank-k sublattice of determinant
    detval, an int or a Fraction."""
    return log_of(detval, Fraction(-1, 2 * k))


def _steeper(k: int, d, j: int, e) -> bool:
    """True when a rank-k determinant d gives a larger slope than a rank-j
    determinant e: -log(d)/2k > -log(e)/2j iff d^j < e^k, compared on the
    numerators and denominators of d and e, integers or Fractions."""
    return d.numerator**j * e.denominator**k < e.numerator**k * d.denominator**j


def _iroot(x: int, j: int) -> int:
    """The integer j-th root of x >= 0: the largest y with y^j <= x, by
    Newton's iteration from above."""
    if x < 2 or j == 1:
        return x
    y = 1 << -(-x.bit_length() // j)
    while True:
        z = ((j - 1) * y + x // y ** (j - 1)) // j
        if z >= y:
            return y
        y = z


def _steepest_radius(k: int, least: Dict[int, int]) -> int:
    """The radius of mu_max at rank k: a rank-k norm N is steeper than
    the rank-j norm X iff N^j < X^k, so for the steepest realized (j, X) so
    far every sublattice that can still win lies within the largest N with
    N^j < X^k when j < k, as ties go to the smaller rank and the maximum is
    at least that slope, and within the integer j-th root of X^k when j > k
    (the whole lattice), where a rank-k tie wins."""
    return min(_iroot(X**k - (j < k), j) for j, X in least.items())


def _hull_radius(k: int, least: Dict[int, int]) -> int:
    """The radius of hn_filtration at rank k: the HN polygon is concave and
    lies above every realized point (Stuhler; Grayson), and a vertex is an
    extreme point of it, so a rank-k vertex lies strictly above each chord
    from (i, X) to (l, Y), i < k < l, of the points found so far and the
    origin: N^(l-i) < X^(l-k) Y^(k-i).  A point on a chord is never a
    vertex."""
    points = [(0, 1), *least.items()]
    return min(
        _iroot(X ** (l - k) * Y ** (k - i) - 1, l - i) for i, X in points if i < k for l, Y in points if l > k
    )


def _rank_candidates(
    L: Lattice,
    U: List[List[int]],
    gso: la.GSO,
    shortest: List[Tuple[Tuple[int, ...], Fraction]],
    radius: Callable[[int, Dict[int, int]], int],
) -> List[Tuple[int, int, List[List[int]]]]:
    """(k, den^k det S, columns) for saturated sublattices S of rank k, in
    order of rank, with den = gso.den; _saturated builds S from the k
    integer columns that span it.  Every determinant is an integer,
    scaled by den^k: a rank-k determinant d and a rank-j determinant e
    compare in slope as d^j against e^k whatever den is (_steeper).
    Rank one lists the primitive vectors of ``shortest`` and rank r the
    lattice itself; a rank k strictly between lists every S within the
    radius of the rule radius(k, least), where least maps each rank found
    so far to its least scaled determinant: with _steepest_radius every S
    that can win mu_max or tie its winner at the same rank, with
    _hull_radius every S that can be an HN vertex.

    The least determinant at rank k is the squared norm of the shortest
    decomposable vector of the k-th exterior power.  The search runs in
    the LLL-reduced basis U with GSO gso that _reduced gives, whose Gram
    matrix is Gred = den U^T G U on integers; Gred itself is never formed.
    For rank one that pass is ``shortest`` = _shortest_reduced(U, gso),
    within D[1].  The norm of w is det(B^T Gred B) for
    any B whose k x k minors are w (Cauchy-Binet), and a saturated S has a
    primitive Plucker vector: so a primitive decomposable w has norm
    det S, and a non-primitive w = g u is skipped, as u lies within the
    radius too.  Each S is listed once, as its sign-normalised Plucker
    vector.

    The exterior power of rank k is T_k = Lambda^k(Gred) = den^k
    Lambda^k(U^T G U) on integers, and it is enumerated straight from the
    GSO that la._compound_gso reads off gso, with no reduction of its own:
    the basis changes the size of the tree, never the set of vectors
    found.  The radius is also at most gso.D[k], the leading k x k minor
    of Gred, the norm of the first k reduced basis vectors: a realized
    norm, so the least determinant at rank k always lies within it, as
    the least norm lies within D[1] at rank one.  A
    level whose radius lies below the least Gram-Schmidt norm of its basis
    (la._compound_floors) holds no vector within it and is not walked.
    All norms are integers.  The cap D[k] is inclusive, so every tie at
    rank k is kept, and so is the rank-one radius D[1]; the rules leave
    out only ties that cannot change the result: a tie with a smaller
    rank in mu_max, a point on a chord of the hull in hn_filtration.
    The determinant at rank r is D[r] = den^r det G.
    """
    r = L.rank
    D = gso.D
    found = [(1, _scaled_norm(norm, gso.den), [list(v)]) for v, norm in shortest if r > 1 and gcd(*v) == 1]
    least = {r: D[r]}
    if found:
        least[1] = found[0][1]
    if r > 2:
        floors = la._compound_floors(D, r - 1)
        for k, level in la._compound_gso(gso, r - 1):
            bound = min(D[k], radius(k, least))
            num, dnm = floors[k]
            if bound * dnm < num:  # below the floor: T_k holds no vector within it
                continue
            for w, norm in la._fincke_pohst(None, level, bound):
                ker = _decomposable_kernel(w, r, k) if gcd(*w) == 1 else None
                if ker is not None:  # kernel rows mapped back under U: integer columns of S
                    norm = norm.numerator  # an integer: T_k is
                    least.setdefault(k, norm)  # the first is the least: sorted by norm
                    found.append((k, norm, [[sum(map(mul, m, row)) for row in U] for m in ker]))
    found.append((r, D[r], [[int(i == j) for j in range(r)] for i in range(r)]))
    return found


def _saturated(L: Lattice, candidate: Tuple[int, int, List[List[int]]]) -> SubLattice:
    """The saturated sublattice of a _rank_candidates entry, checked against
    its determinant, den^k det S on integers, on the integer rows G =
    L.rows of den * L.gram.

    Ranks one and r need no Hermite form: the saturation of a line is its
    primitive vector, whose norm is taken on the integers of G, and that
    of a full-rank sublattice is Z^r, of determinant det G, by integer
    Bareiss."""
    k, d, columns = candidate
    r, G = L.rank, L.rows
    if k == r:
        S = SubLattice(L, _identity(r))
        exact = la._int_det(G)
    elif k == 1:
        v = la.primitive_vector(columns[0])
        S = SubLattice(L, tuple((x,) for x in v))
        exact = sum(map(mul, v, la.mat_vec(G, v)))
    else:
        S = saturate(SubLattice.from_columns(L, columns))
        exact = _scaled_sub_det(G, S.basis_rows)
    if exact != d:
        raise CertificateError("a candidate's determinant must equal sub_det of its saturation")
    return S


def _scaled_sub_det(G: Sequence[Sequence[int]], B: List[List[int]]) -> int:
    """det(B^T G B) for integer rows G and an integer basis B, by integer
    Bareiss: den^k sub_det when G = den * Gram."""
    return la._int_det(la.mat_mul(la.transpose(B), la.mat_mul(G, B)))


def mu_max(L: Lattice, rank_limit: int = EXACT_RANK_LIMIT) -> Tuple[LogValue, SubLattice]:
    """Exact maximal slope over saturated sublattices, with witness.

    Ties are broken toward the smallest rank, then the lexicographically
    smallest canonical basis.  Ranks above ``rank_limit`` raise
    ExactSearchUnavailable carrying a certified bracket instead.

    The whole pass runs on integers: the reduction, the enumerations, the
    choice of the steepest candidate and the Minkowski check
    (_in_minkowski_bracket).  Its only LogValue is the value returned.
    """
    val, witness, _shortest = _mu_max_udeg(L, rank_limit)
    return val, witness


def _in_minkowski_bracket(val: LogValue, k: int, d: int, b: int, r: int, den: int) -> bool:
    """Whether val, the mu_max of a rank-r lattice with a rank-k winner of
    determinant d / den^k, lies in udeg_max <= val <= udeg_max + log(r)/2,
    with b / den the least norm of a nonzero vector, decided on integers.

    With udeg_max = -log(b / den)/2 and val = -log(d / den^k)/2k the
    bracket is d <= b^k <= r^k d.  That val is this value is checked
    exactly too: its terms c log p multiply back to the determinant,
    prod p^(-2k c) = d / den^k."""
    num = dnm = 1
    for p, c in val.terms:
        e, rem = divmod(-2 * k * c.numerator, c.denominator)
        if rem:
            return False
        if e > 0:
            num *= p**e
        else:
            dnm *= p**-e
    return num * den**k == d * dnm and d <= b**k <= r**k * d


def _mu_max_udeg(L: Lattice, rank_limit: int) -> Tuple[LogValue, SubLattice, List[Tuple[Tuple[int, ...], Fraction]]]:
    """(mu_max, witness, shortest) of L from the one reduction and
    enumeration that mu_max runs, with shortest = _shortest_reduced of
    _reduced(L), from which _udeg_of_shortest reads udeg_max.  Any
    LLL-reduced basis gives the same value and witness, so the basis L
    stores does not change them."""
    if L.rank == 0:
        raise ValueError("mu_max needs positive rank")
    # one reduction serves the candidate search and the Minkowski bracket
    U, gso = _reduced(L)
    shortest = _shortest_reduced(U, gso)
    r, den = L.rank, gso.den
    if r > rank_limit:
        # contiguous windows of the reduced basis: realized sublattices,
        # each determinant den^k times that of G
        Gred = la._congruent(L.rows, U)
        best = None
        for k in range(1, r + 1):
            dmin = min(la._int_det([row[s : s + k] for row in Gred[s : s + k]]) for s in range(r - k + 1))
            if best is None or _steeper(k, dmin, *best):
                best = (k, dmin)
        udeg = _udeg_of_shortest(shortest)[0]
        lower = max(udeg, _slope_of_det(Fraction(best[1], den ** best[0]), best[0]))
        upper = udeg + log_of(r, Fraction(1, 2))
        raise ExactSearchUnavailable(
            f"exact search unavailable beyond rank {rank_limit}", lower, upper
        )
    candidates = _rank_candidates(L, U, gso, shortest, _steepest_radius)
    k, d, _cols = candidates[0]
    for j, e, _cols in candidates:
        if _steeper(j, e, k, d):
            k, d = j, e
    tied = [c for c in candidates if c[:2] == (k, d)]
    if k == 1:
        # the basis of a line is its vector, and a rank-one candidate is
        # already primitive with its first nonzero entry positive: the
        # least vector is the least basis, built alone
        tied = [min(tied, key=lambda c: c[2][0])]
    witness = min((_saturated(L, c) for c in tied), key=lambda S: S.basis)
    val = _slope_of_det(d if den == 1 else Fraction(d, den**k), k)
    if not _in_minkowski_bracket(val, k, d, _scaled_norm(shortest[0][1], den), r, den):
        raise CertificateError("mu_max outside its Minkowski bracket [udeg_max, udeg_max + log(rank)/2]")
    return val, witness, shortest


def mu_min(L: Lattice, rank_limit: int = EXACT_RANK_LIMIT) -> LogValue:
    """Minimal successive quotient slope, the last HN slope, as
    -mu_max(L^v): the HN filtration of the dual is the annihilators of the
    steps of L's, with the slopes negated and in reverse order."""
    if L.rank == 0:
        raise ValueError("hn filtration needs positive rank")
    if L.rank > rank_limit:
        raise ExactSearchUnavailable(
            f"exact search unavailable beyond rank {rank_limit}",
            None,
            None,
        )
    return -_mu_max_udeg(dual(L), rank_limit)[0]


def hn_filtration(L: Lattice, rank_limit: int = EXACT_RANK_LIMIT) -> HNResult:
    """Canonical slope filtration from one candidate pass.

    The HN polygon is the upper convex hull of the points (rk S, deg S)
    over saturated sublattices S, so of (k, -1/2 log d_k) with d_k the
    least determinant at rank k and d_0 = 1.  At each vertex exactly one
    sublattice attains d_k, and those sublattices form the chain (U.
    Stuhler, Arch. Math. 27, 1976; D. Grayson, Comment. Math. Helv. 59,
    1984).  The pass enumerates rank k only strictly above the upper hull
    of the points found before it (_hull_radius), so a rank with no
    candidate lies on or below that hull: it is no vertex and is left out.
    """
    if L.rank == 0:
        raise ValueError("hn filtration needs positive rank")
    if L.rank > rank_limit:
        raise ExactSearchUnavailable(
            f"exact search unavailable beyond rank {rank_limit}",
            None,
            None,
        )
    U, gso = _reduced(L)
    candidates = _rank_candidates(L, U, gso, _shortest_reduced(U, gso), _hull_radius)
    # least determinants at each rank, each den^k times that of G
    d = {0: 1}
    for k, e, _cols in candidates:
        d[k] = min(d.get(k, e), e)
    # upper hull over the ranks found: j stays a vertex only if it lies
    # strictly above the segment from i to l, i.e.
    # (d_j/d_i)^(l-i) < (d_l/d_i)^(j-i)
    hull = [0]
    for l in list(d)[1:]:
        while len(hull) > 1:
            i, j = hull[-2], hull[-1]
            if _steeper(j - i, Fraction(d[j], d[i]), l - i, Fraction(d[l], d[i])):
                break
            hull.pop()
        hull.append(l)
    chain = []
    slopes = []
    den = gso.den
    for i, l in zip(hull, hull[1:]):
        attained = [c for c in candidates if c[:2] == (l, d[l])]
        if len(attained) != 1:
            raise CertificateError("an HN vertex must be attained by exactly one sublattice")
        chain.append(_saturated(L, attained[0]))
        slopes.append(_slope_of_det(Fraction(d[l], d[i] * den ** (l - i)), l - i))
    for a, b in zip(slopes, slopes[1:]):
        if compare(a, b) is not Order.GT:
            raise CertificateError("HN slopes must strictly decrease")
    return HNResult(tuple(chain), tuple(slopes))


# ---------------------------------------------------------------------------
# morphism heights


def _char_poly(GEi: List[List[int]], Mi: List[List[int]]) -> List[int]:
    """Coefficients c_0, ..., c_k of p(x) = det(x GEi - Mi) for k x k
    integer rows.

    p is read off its values at x = 0, ..., k by divided differences.  p
    has integer coefficients, so each divided difference over consecutive
    integer nodes is an integer (Delta^j p / j!), every division is exact,
    and the Newton form turns into the monomial one on integers."""
    k = len(GEi)
    c = [la._int_det([[x * g - m for g, m in zip(grow, mrow)] for grow, mrow in zip(GEi, Mi)]) for x in range(k + 1)]
    for j in range(1, k + 1):
        for i in range(k, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) // j
    # sum_j c[j] x (x - 1) ... (x - j + 1), by Horner: poly * (x - j) + c[j]
    poly = [c[k]]
    for j in range(k - 1, -1, -1):
        poly = [c[j] - j * poly[0], *[a - j * b for a, b in zip(poly, poly[1:])], poly[-1]]
    return poly


def morphism_height(phi: Morphism, tolerance_bits: int = 40) -> HeightBracket:
    """Height of a nonzero morphism: exact finite part plus archimedean
    operator norm bracketed on a dyadic multiple-of-log-2 grid.

    The finite part is sum_p log max_ij |a_ij|_p = log(a / g), for a the
    lcm of the denominators of the entries and g the gcd of their
    numerators.  The archimedean part is half the log of the largest
    generalized eigenvalue lambda of (M, G_E), M = A^T G_F A, bracketed
    from [tr(G_E^-1 M) / k, tr(G_E^-1 M)] by halving until hi - lo <=
    lo * 2^-(tolerance_bits + 2); the final bracket width is below
    2^-tolerance_bits.  Everything runs on integers: G_E = GEi / den and
    M = Mi / den over one common denominator, lo = L / q and hi = H / q
    over one q that doubles at each step, and lambda < n / q iff the
    integer matrix n * GEi - q * Mi is positive definite: by Sylvester's
    criterion, iff la._ldl_scaled finds all its leading minors positive.

    Each halving is decided from an enclosure of lambda instead of a
    definiteness test.  p(x) = det(x GEi - Mi) has integer coefficients
    (_char_poly), and since G_E is positive definite and M symmetric, all
    its roots are real: they are the eigenvalues of the symmetric matrix
    G_E^-1/2 M G_E^-1/2.  They are also >= 0, as M is positive
    semidefinite, so lambda <= tr = -c_(k-1) / c_k.  Newton's method from
    tr encloses lambda (_top_root_enclosure), and a midpoint the
    enclosure does not decide is tested for definiteness as above.  Two
    Sylvester tests then certify the ends: L GEi - q Mi is not positive
    definite (lambda >= lo) and H GEi - q Mi is (lambda < hi), unless hi
    is still tr, which lambda reaches when M has rank one.  With lambda in
    [lo, hi] every midpoint of the walk was <= lo or >= hi, so each
    decision was the one the definiteness test gives: a wrong enclosure
    ends in CertificateError, never in another bracket.
    """
    if phi.is_zero:
        raise ValueError("the zero morphism has no finite height")
    # A = Ai / a, G_F = GFi / f and G_E = GEi / e, so M = Ai^T GFi Ai / n
    # with n = a^2 f; GEi and Mi are G_E and M times den = lcm(e, n)
    Ai, a = la._common_scaled(phi.matrix_rows)
    # -min_ij v_p(a_ij) = v_p(a) - v_p(g) for g the gcd of the numerators:
    # an entry whose denominator p divides has a numerator p does not
    finite = log_of(Fraction(a, gcd(*[x.numerator for row in phi.matrix for x in row])))
    GFi, f = phi.target.rows, phi.target.den
    GEi, e = phi.source.rows, phi.source.den
    Mi = la.mat_mul(la.transpose(Ai), la.mat_mul(GFi, Ai))
    n = a * a * f
    c = gcd(e, n)
    GEi = [[x * (n // c) for x in row] for row in GEi]
    Mi = [[x * (e // c) for x in row] for row in Mi]
    k = phi.source.rank
    poly = _char_poly(GEi, Mi)
    tr = Fraction(-poly[k - 1], poly[k])
    # lo = tr / k and hi = tr over q = k * den(tr)
    L, q = tr.numerator, k * tr.denominator
    H = top = k * L
    shift = tolerance_bits + 2
    # lambda * D in [A, B] for D = q * 2^fine, on a grid finer than the walk's
    fine = shift + 8
    D = q << fine
    A, B = _top_root_enclosure(poly, L << fine, H << fine, D)
    lower = [(g[: i + 1], m[: i + 1]) for i, (g, m) in enumerate(zip(GEi, Mi))]

    def definite(n: int, q: int) -> bool:
        """lambda < n / q: n * GEi - q * Mi is positive definite."""
        try:
            la._ldl_scaled([[n * x - q * y for x, y in zip(g, m)] for g, m in lower])
        except la.SingularMatrixError:
            return False
        return True

    j = 0  # halvings so far: mid / q against [A, B] / D is mid * 2^fine against [A, B] * 2^j
    while (H - L) << shift > L:
        L, H, q, j = 2 * L, 2 * H, 2 * q, j + 1
        mid = (L + H) // 2
        x = mid << fine
        if x <= A << j:
            L = mid
        elif x > B << j:
            H = mid
        elif definite(mid, q):  # a new upper end for Newton's method to go on from
            H = mid
            A, B = _top_root_enclosure(poly, A, -(-x >> j), D)
        else:
            L = mid
            A = x >> j
    if definite(L, q):
        raise CertificateError("the operator norm lies below its height bracket")
    if H != top << j and not definite(H, q):
        raise CertificateError("the operator norm lies above its height bracket")
    lo, hi = Fraction(L, q), Fraction(H, q)

    # place 1/2*log(lo..hi) between grid points (j / 2^m) * log 2: the
    # enclosures are numerators over 2^(prec+1), so the floor and ceiling
    # of 2^(m-1) log(lo..hi) / log 2 are integer divisions by the end of
    # the log 2 enclosure that makes them widest
    m = tolerance_bits + 3
    mag = sum(
        q.numerator.bit_length() + q.denominator.bit_length() for q in (lo, hi)
    )
    prec = m + 8 + mag.bit_length()
    two_lo, two_hi = _log_grid(2, prec)
    ylo = _log_ends(lo.numerator, lo.denominator, prec)[0] << (m - 1)
    yhi = _log_ends(hi.numerator, hi.denominator, prec)[1] << (m - 1)
    j_lo = ylo // (two_hi if ylo >= 0 else two_lo)
    j_hi = -(-yhi // (two_lo if yhi >= 0 else two_hi))
    grid = log_of(2, Fraction(1, 1 << m))
    out = HeightBracket(
        finite + grid.scaled(j_lo), finite + grid.scaled(j_hi), finite
    )
    width_iv = approximate(out.width, tolerance_bits + 1)
    if width_iv.hi > Fraction(1, 1 << tolerance_bits):
        raise CertificateError("height bracket wider than 2^-tolerance_bits")
    return out
