"""Euclidean lattices over Z with exact rational Gram matrices.

A lattice here is a hermitian vector bundle over Spec Z presented in a
fixed basis: the free module Z^r together with a positive definite
symmetric rational Gram matrix.  Degrees are -1/2 * log det(Gram) as
exact LogValues, so all the classical identities (duality, direct sums,
tensor products, exterior powers, short exact sequences) can be checked
structurally instead of numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg as la
from .exactnum import (
    Interval,
    LogValue,
    Order,
    approximate,
    compare,
    factorize,
    log_interval,
    log_of,
    rat_from_str,
    rat_to_str,
)


# Largest rank for which mu_max and hn_filtration search exactly; the
# campaigns in harness read their limits from here.
EXACT_RANK_LIMIT = 6


class NotSaturatedError(ValueError):
    pass


class CertificateError(RuntimeError):
    """Raised when an exact certificate fails its own check: a result that
    the mathematics rules out, so a bug or a corrupted input, never a
    search limit."""


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


@dataclass(frozen=True)
class Lattice:
    rank: int
    gram: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rank < 0 or len(self.gram) != self.rank:
            raise ValueError("gram size does not match rank")
        rows = [list(row) for row in self.gram]
        if self.rank and not la.is_positive_definite(rows):
            raise ValueError("gram matrix must be symmetric positive definite")

    @staticmethod
    def from_rows(rows) -> "Lattice":
        rows = la.frac_rows(rows)
        return Lattice(len(rows), tuple(tuple(r) for r in rows))

    @property
    def gram_rows(self) -> la.Matrix:
        return [list(row) for row in self.gram]

    def norm_of(self, v: Sequence[int]) -> Fraction:
        return la.vec_dot(v, la.mat_vec(self.gram_rows, v))

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "gram": [[rat_to_str(x) for x in row] for row in self.gram],
        }

    @staticmethod
    def from_json(payload: dict) -> "Lattice":
        gram = [[rat_from_str(str(x)) for x in row] for row in payload["gram"]]
        lat = Lattice.from_rows(gram)
        if lat.rank != int(payload["rank"]):
            raise ValueError("rank field disagrees with gram size")
        return lat


def unit_lattice(rank: int) -> Lattice:
    return Lattice.from_rows(la.identity(rank))


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
        if la.rank([list(row) for row in self.basis]) != k:
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

    def canonical(self) -> "SubLattice":
        H = la.hnf_columns(self.basis_rows)
        return SubLattice(self.ambient, tuple(tuple(row) for row in H))

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

    @property
    def is_injective(self) -> bool:
        return la.rank(self.matrix_rows) == self.source.rank

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
    """Arakelov degree -1/2 log det(Gram); the zero bundle has degree 0."""
    if L.rank == 0:
        return LogValue.zero()
    return log_of(la.det(L.gram_rows), Fraction(-1, 2))


def slope(L: Lattice) -> LogValue:
    if L.rank == 0:
        raise ValueError("slope of the zero bundle is undefined")
    return degree(L) / L.rank


def dual(L: Lattice) -> Lattice:
    return Lattice.from_rows(la.inverse(L.gram_rows))


def direct_sum(L1: Lattice, L2: Lattice) -> Lattice:
    r1, r2 = L1.rank, L2.rank
    out = la.zeros(r1 + r2, r1 + r2)
    for i in range(r1):
        for j in range(r1):
            out[i][j] = L1.gram[i][j]
    for i in range(r2):
        for j in range(r2):
            out[r1 + i][r1 + j] = L2.gram[i][j]
    return Lattice.from_rows(out)


def tensor(L1: Lattice, L2: Lattice) -> Lattice:
    return Lattice.from_rows(la.kron(L1.gram_rows, L2.gram_rows))


def exterior_power(L: Lattice, k: int) -> Lattice:
    if not 0 < k <= L.rank:
        raise ValueError("exterior power degree out of range")
    return Lattice.from_rows(la.compound_matrix(L.gram_rows, k))


# ---------------------------------------------------------------------------
# sublattices: saturation, metrized sub and quotient bundles


def saturate(S: SubLattice) -> SubLattice:
    """Saturation: ambient intersect the Q-span, with canonical HNF basis."""
    Uinv, d = la.int_diagonalize(S.basis_rows)
    k = S.rank
    if len(d) != k:
        raise CertificateError("sublattice basis columns are not independent")
    cols = [[Uinv[i][j] for i in range(S.ambient.rank)] for j in range(k)]
    return SubLattice.from_columns(S.ambient, cols).canonical()


def is_saturated(S: SubLattice) -> bool:
    _, d = la.int_diagonalize(S.basis_rows)
    return all(x == 1 for x in d)


def sub_bundle(S: SubLattice) -> Lattice:
    B = S.basis_rows
    G = S.ambient.gram_rows
    return Lattice.from_rows(la.mat_mul(la.transpose(B), la.mat_mul(G, B)))


def basis_completion(S: SubLattice) -> List[List[int]]:
    """Integer columns C with [basis | C] unimodular; needs S saturated."""
    Uinv, d = la.int_diagonalize(S.basis_rows)
    if not all(x == 1 for x in d):
        raise NotSaturatedError("only saturated sublattices admit a completion")
    r, k = S.ambient.rank, S.rank
    return [[Uinv[i][j] for j in range(k, r)] for i in range(r)]


def quotient_bundle(S: SubLattice) -> Lattice:
    """Quotient metric on ambient/S (orthogonal projection away from S).

    In a basis [B | C] of the ambient lattice the Gram splits into
    blocks [[A, X], [X^T, D]]; the quotient Gram is the Schur complement
    D - X^T A^-1 X, which makes degrees exactly additive in short exact
    sequences.
    """
    if not is_saturated(S):
        raise NotSaturatedError("quotient by a non-saturated sublattice")
    r, k = S.ambient.rank, S.rank
    if k == r:
        return Lattice(0, ())
    C = basis_completion(S)
    full = [
        [Fraction(S.basis[i][j]) for j in range(k)] + [Fraction(C[i][j]) for j in range(r - k)]
        for i in range(r)
    ]
    Gf = la.mat_mul(la.transpose(full), la.mat_mul(S.ambient.gram_rows, full))
    A = [row[:k] for row in Gf[:k]]
    X = [row[k:] for row in Gf[:k]]
    D = [row[k:] for row in Gf[k:]]
    Ainv = la.inverse(A)
    schur = la.mat_mul(la.transpose(X), la.mat_mul(Ainv, X))
    quot = [[D[i][j] - schur[i][j] for j in range(r - k)] for i in range(r - k)]
    return Lattice.from_rows(quot)


# ---------------------------------------------------------------------------
# short vectors and slope maximization


def short_vectors(L: Lattice, bound) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All nonzero vectors with norm^2 <= bound, up to sign, sorted."""
    return la.short_vectors_gram(L.gram_rows, Fraction(bound))


def udeg_max(L: Lattice) -> Tuple[LogValue, Tuple[int, ...]]:
    """Max degree of a metrized line sublattice: -log(shortest vector).

    The witness is the lexicographically smallest shortest vector (sign
    normalized); it is automatically primitive.
    """
    if L.rank == 0:
        raise ValueError("udeg_max needs positive rank")
    return _udeg_of_shortest(_shortest_reduced(*la.gram_lll(L.gram_rows)))


def _shortest_reduced(
    Gred: la.Matrix, U: List[List[int]], gso: la.GSO
) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """Every lattice vector within the least diagonal entry of the reduced
    Gram matrix Gred = U^T G U of (Gred, U, gso) = gram_lll(G): a
    realized, tight radius that both udeg and the rank-one candidates
    enumerate."""
    return la.short_vectors_reduced(U, gso, min(Gred[i][i] for i in range(len(Gred))))


def _udeg_of_shortest(
    vecs: List[Tuple[Tuple[int, ...], Fraction]]
) -> Tuple[LogValue, Tuple[int, ...]]:
    """udeg_max from the output of _shortest_reduced."""
    best = vecs[0][1]
    witness = min(v for v, norm in vecs if norm == best)
    return log_of(best, Fraction(-1, 2)), witness


def _decomposable_kernel(w: Sequence[Fraction], r: int, k: int) -> Optional[la.Matrix]:
    """Support of a decomposable k-vector, or None.

    w is decomposable iff the kernel of x -> x /\\ w has dimension k; the
    kernel is then exactly the k-plane whose wedge is w.
    """
    subsets = la.k_subsets(r, k)
    index = {I: t for t, I in enumerate(subsets)}
    bigs = la.k_subsets(r, k + 1)
    rows = []
    for I in bigs:
        row = [Fraction(0)] * r
        for pos, j in enumerate(I):
            rest = I[:pos] + I[pos + 1 :]
            row[j] = (-1) ** pos * w[index[rest]]
        rows.append(row)
    ker = la.kernel(rows, r)
    if len(ker) != k:
        return None
    return ker


def _primitive_rows(rows: Sequence[Sequence]) -> List[List[int]]:
    """Each rational row scaled to the primitive integer vector of its
    direction, the first nonzero entry positive."""
    return [la.primitive_vector(row) for row in la._scaled_rows(rows)[0]]


def _saturated_from_rational_rows(L: Lattice, rows: Sequence[Sequence]) -> SubLattice:
    return saturate(SubLattice.from_columns(L, _primitive_rows(rows)))


def _slope_of_det(detval: Fraction, k: int) -> LogValue:
    return log_of(detval, Fraction(-1, 2 * k))


def _max_slope_candidates(
    L: Lattice,
    Gred: la.Matrix,
    U: List[List[int]],
    shortest: List[Tuple[Tuple[int, ...], Fraction]],
) -> Tuple[LogValue, List[Tuple[SubLattice, Fraction]]]:
    """Exact max slope plus every saturated sublattice attaining it.

    For each rank k the best determinant is the squared norm of the
    shortest decomposable vector of the k-th exterior power.  The search
    runs in the LLL-reduced basis Gred = U^T G U of gram_lll(L.gram_rows),
    where the best coordinate sublattice gives a realized and therefore
    certified enumeration radius that is also tight enough to keep the
    pass small.  For rank one that pass is ``shortest`` =
    _shortest_reduced(Gred, U, gso).
    """
    r = L.rank
    per_rank: List[Tuple[int, SubLattice, Fraction]] = []
    for k in range(1, r + 1):
        if k == r:
            eye = [[int(i == j) for j in range(r)] for i in range(r)]
            full = SubLattice(L, tuple(tuple(row) for row in eye))
            per_rank.append((k, full.canonical(), la.det(Gred)))
            continue
        seen = set()
        if k == 1:
            for v, _norm in shortest:
                S = saturate(SubLattice.from_columns(L, [v]))
                if S.basis in seen:
                    continue
                seen.add(S.basis)
                per_rank.append((k, S, sub_det(S)))
            continue
        C = la.compound_matrix(Gred, k)
        radius = min(C[t][t] for t in range(len(C)))
        for w, _norm in la.short_vectors_gram(C, radius):
            ker = _decomposable_kernel([Fraction(x) for x in w], r, k)
            if ker is None:
                continue
            # each kernel row times a positive integer keeps the direction
            # of its image under U, so the back-map multiplies integers
            back = la.mat_mul(_primitive_rows(ker), la.transpose(U))
            S = _saturated_from_rational_rows(L, back)
            if S.basis in seen:
                continue
            seen.add(S.basis)
            per_rank.append((k, S, sub_det(S)))
    best_val: Optional[LogValue] = None
    for k, S, d in per_rank:
        val = _slope_of_det(d, k)
        if best_val is None or compare(val, best_val) is Order.GT:
            best_val = val
    if best_val is None:
        raise CertificateError("no candidate sublattice")
    winners = [
        (S, d) for k, S, d in per_rank if _slope_of_det(d, k) == best_val
    ]
    return best_val, winners


def sub_det(S: SubLattice) -> Fraction:
    """det(B^T G B) for the basis B of S, multiplied out on the integer
    rows of den * G and divided by den^rank once."""
    B = S.basis_rows
    Gint, den = la._common_scaled(S.ambient.gram)
    return la.det(la.mat_mul(la.transpose(B), la.mat_mul(Gint, B))) / den**S.rank


def mu_max(L: Lattice, rank_limit: int = EXACT_RANK_LIMIT) -> Tuple[LogValue, SubLattice]:
    """Exact maximal slope over saturated sublattices, with witness.

    Ties are broken toward the smallest rank, then the lexicographically
    smallest canonical basis.  Ranks above ``rank_limit`` raise
    ExactSearchUnavailable carrying a certified bracket instead.
    """
    if L.rank == 0:
        raise ValueError("mu_max needs positive rank")
    # one reduction serves the candidate search and the Minkowski bracket
    Gred, U, gso = la.gram_lll(L.gram_rows)
    shortest = _shortest_reduced(Gred, U, gso)
    udeg, _ = _udeg_of_shortest(shortest)
    if L.rank > rank_limit:
        coord_best = None
        for k in range(1, L.rank + 1):
            # contiguous windows of the reduced basis: realized sublattices
            dmin = min(
                la.det(la.submatrix(Gred, w, w))
                for w in (
                    tuple(range(s, s + k)) for s in range(L.rank - k + 1)
                )
            )
            val = _slope_of_det(dmin, k)
            if coord_best is None or compare(val, coord_best) is Order.GT:
                coord_best = val
        lower = max(udeg, coord_best)
        upper = udeg + log_of(L.rank, Fraction(1, 2))
        raise ExactSearchUnavailable(
            f"exact search unavailable beyond rank {rank_limit}", lower, upper
        )
    val, winners = _max_slope_candidates(L, Gred, U, shortest)
    witness = min(winners, key=lambda sd: (sd[0].rank, sd[0].basis))[0]
    half_log_rank = log_of(L.rank, Fraction(1, 2))
    if compare(udeg, val) is Order.GT or compare(val, udeg + half_log_rank) is Order.GT:
        raise CertificateError("mu_max outside its Minkowski bracket [udeg_max, udeg_max + log(rank)/2]")
    return val, witness


def mu_min(L: Lattice, rank_limit: int = EXACT_RANK_LIMIT) -> LogValue:
    """Minimal successive quotient slope (the last HN slope)."""
    return hn_filtration(L, rank_limit).slopes[-1]


def hn_filtration(L: Lattice, rank_limit: int = EXACT_RANK_LIMIT) -> HNResult:
    """Canonical slope filtration.

    The first step is the saturation of the sum of all maximal-slope
    sublattices; the rest is obtained recursively on the quotient metric
    and lifted back along a completion of the step's basis.
    """
    if L.rank == 0:
        raise ValueError("hn filtration needs positive rank")
    if L.rank > rank_limit:
        raise ExactSearchUnavailable(
            f"exact search unavailable beyond rank {rank_limit}",
            None,
            None,
        )

    def build(lat: Lattice) -> List[List[List[int]]]:
        Gred, U, gso = la.gram_lll(lat.gram_rows)
        _val, winners = _max_slope_candidates(lat, Gred, U, _shortest_reduced(Gred, U, gso))
        stacked = []
        for S, _d in winners:
            stacked.extend(la.transpose(S.basis_rows))
        des = _saturated_from_rational_rows(
            lat, la.rref([[Fraction(x) for x in row] for row in stacked])[0]
        )
        if des.rank == lat.rank:
            return [[[int(i == j) for j in range(lat.rank)] for i in range(lat.rank)]]
        C = basis_completion(des)
        quot = quotient_bundle(des)
        tail = build(quot)
        chain = [des.basis_rows]
        for member in tail:
            lifted_cols = la.transpose(des.basis_rows)
            for col in la.transpose(member):
                lifted_cols.append(la.mat_vec(C, col))
            chain.append(la.transpose([[int(x) for x in col] for col in lifted_cols]))
        return chain

    bases = build(L)
    chain = tuple(
        SubLattice(L, tuple(tuple(int(x) for x in row) for row in B)).canonical()
        for B in bases
    )
    slopes = []
    prev_deg = LogValue.zero()
    prev_rank = 0
    for S in chain:
        deg = degree(sub_bundle(S))
        step = (deg - prev_deg) / (S.rank - prev_rank)
        slopes.append(step)
        prev_deg, prev_rank = deg, S.rank
    for a, b in zip(slopes, slopes[1:]):
        if compare(a, b) is not Order.GT:
            raise CertificateError("HN slopes must strictly decrease")
    return HNResult(chain, tuple(slopes))


# ---------------------------------------------------------------------------
# morphism heights


def _interval_div(I: Interval, J: Interval) -> Interval:
    if J.lo <= 0:
        raise ValueError("division by an interval containing nonpositive values")
    quots = [I.lo / J.lo, I.lo / J.hi, I.hi / J.lo, I.hi / J.hi]
    return Interval(min(quots), max(quots))


def morphism_height(phi: Morphism, tolerance_bits: int = 40) -> HeightBracket:
    """Height of a nonzero morphism: exact finite part plus archimedean
    operator norm bracketed on a dyadic multiple-of-log-2 grid.

    The finite part is sum_p log max_ij |a_ij|_p, computed from entry
    valuations.  The archimedean part is half the log of the largest
    generalized eigenvalue of (A^T G_F A, G_E), bracketed by exact
    positive-definiteness bisection; the bracket width is below
    2^-tolerance_bits.
    """
    if phi.is_zero:
        raise ValueError("the zero morphism has no finite height")
    entries = [x for row in phi.matrix for x in row if x != 0]
    valuations: List[Dict[int, int]] = []
    for x in entries:
        vp: Dict[int, int] = {}
        for p, e in factorize(abs(x.numerator)):
            vp[p] = e
        for p, e in factorize(x.denominator):
            vp[p] = vp.get(p, 0) - e
        valuations.append(vp)
    finite_map: Dict[int, Fraction] = {}
    for p in sorted({p for vp in valuations for p in vp}):
        low = min(vp.get(p, 0) for vp in valuations)
        if low:
            finite_map[p] = Fraction(-low)
    finite = LogValue.from_map(finite_map)

    A = phi.matrix_rows
    GE = phi.source.gram_rows
    GF = phi.target.gram_rows
    M = la.mat_mul(la.transpose(A), la.mat_mul(GF, A))
    k = phi.source.rank
    tr = sum(la.mat_mul(la.inverse(GE), M)[i][i] for i in range(k))
    lo, hi = tr / k, tr
    eps = Fraction(1, 1 << (tolerance_bits + 2))

    def above(t: Fraction) -> bool:  # True when lambda_max < t
        test = [[t * GE[i][j] - M[i][j] for j in range(k)] for i in range(k)]
        return la.is_positive_definite(test)

    while hi - lo > lo * eps:
        mid = (lo + hi) / 2
        if above(mid):
            hi = mid
        else:
            lo = mid

    # place 1/2*log(lo..hi) between grid points (j / 2^m) * log 2
    m = tolerance_bits + 3
    mag = sum(
        q.numerator.bit_length() + q.denominator.bit_length() for q in (lo, hi)
    )
    prec = m + 8 + mag.bit_length()
    log2 = log_interval(Fraction(2), prec)
    ylo = _interval_div(log_interval(lo, prec).scaled(Fraction(1 << (m - 1))), log2)
    yhi = _interval_div(log_interval(hi, prec).scaled(Fraction(1 << (m - 1))), log2)
    j_lo = ylo.lo.numerator // ylo.lo.denominator
    j_hi = -((-yhi.hi.numerator) // yhi.hi.denominator)
    grid = log_of(2, Fraction(1, 1 << m))
    out = HeightBracket(
        finite + grid.scaled(j_lo), finite + grid.scaled(j_hi), finite
    )
    width_iv = approximate(out.width, tolerance_bits + 1)
    if width_iv.hi > Fraction(1, 1 << tolerance_bits):
        raise CertificateError("height bracket wider than 2^-tolerance_bits")
    return out
