"""Stability of rational tensor points under products of linear groups.

A point of P(W*) with W = V1 (x) ... (x) Vn is destabilized exactly when
the functional

    Lambda_x(G1..Gn) = (sum E[Gi] - lambda_{(x)Gi}(v_x)) / sqrt(sum |Gi|^2)

takes a negative value over filtration tuples.  Restricted to tuples
compatible with fixed bases, the numerator is a maximum of finitely many
linear forms indexed by the support of v_x, so the minimum over the unit
sphere is minus the distance from the origin to the convex hull of the
form gradients.  That distance is computed exactly over Q by Wolfe's
minimum-norm-point algorithm on an integer Gram matrix, which returns
only through the optimality certificate <p, q> >= <q, q> for every
gradient p, so every verdict stays certifiable.

The gradients depend on the shape and the support of v_x alone, and so
do the min-norm point, the weights of the minimizing tuple and its norm,
expectation and lambda: in a filtration built from a weighted basis, the
multiplicity of a weight is the number of basis vectors that carry it.
That minimum, with its consistency check c = c_tilde |T|, is computed
once per (shape, support) in a process and stored only after the check
passes; the Kempf search reads the support of each seed and builds the
filtration tuple of the winning seed alone.  The values are the exact
ones a fresh solve would give, because a fresh solve has no other input.

A filtration given by a basis of its factor and one weight per vector
(a weighted basis) is evaluated in that basis.  Every basis pays for one
elimination: a CompatibleBasis is validated by the integer elimination
of [B^T | I] that yields its coordinate change d (B^T)^-1, d a nonzero
integer, and carries that change.  v_x is scaled to integers once per
point and changed axis by axis over the integers, and the seeds are
walked as a tree (_seed_supports), so that each axis change is applied
once per prefix of the seed product.  lambda of a tensor
filtration needs only the support of those coordinates, so it is never
divided; the reduction divides once.

Points share small canonical data, and what depends on such a datum alone
is built once per datum in a process: each such builder is a private
function under functools.lru_cache, keyed on its whole canonical input and
never on a point, and its cache_info() counts hits and misses.  Besides
the support minimum: the seed options of an axis per span of the slices
of v_x, read off the integer point by one elimination (_span_options); the
checked filtration of a weighted basis per (basis, weights) (_component);
the adapted basis per filtration (_adapted); the reduction data of
rr_reduce, checks included, per (shape, integer adapted weights, c_tilde,
support in the adapted bases) (_reduction_plan); and the outcome of the
coordinate test of reduced_is_semistable per set of gradients.  A memo
hands the same object to every caller, so no caller mutates what it gets.

That the minimizer found is the global (Kempf) one is certified by the
Kirwan-Ness criterion (F. Kirwan, Cohomology of Quotients in Symplectic
and Algebraic Geometry, 1984; L. Ness, A stratification of the null cone
via the moment map, Amer. J. Math. 106, 1984): a one-parameter subgroup
lambda of an unstable point x is optimal if and only if the limit point
of x under lambda is semistable for the Levi subgroup centralizing
lambda, with the linearization shifted by the character dual to lambda.
Both directions are used: by "if", a witness found for the limit point
proves the minimizer optimal; by "only if", a true minimizer always has
one, so a search that finds none within its limits is inconclusive, not
a refutation.  Here the limit point is the projection of v_x onto the
graded pieces of the minimizer, the Levi subgroup is the product of the
GL of the blocks, and the shifted linearization is O(N) twisted by
det^{b_j} on block j, which are the data rr_reduce computes.  rr_reduce
certifies the limit point by one nonvanishing determinant contraction
(invariants.invariant_witness_search) and attaches it to the reduced
instance.  Every certificate check raises SearchNotConverged, so
python -O keeps it.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import filtration as fil
from . import invariants as inv
from . import linalg as la
from .exactnum import AlgValue, rat_from_str, rat_to_str
from .filtration import CompatibleBasis, Filtration, FiltrationTuple


ADAPT_ROUNDS = 40  # cap on re-adapting the bases to the minimizing flags
LEVI_BUDGET = 2_000_000  # contraction steps the Levi witness search may take


class SearchNotConverged(RuntimeError):
    """A certification check failed, or the basis adaptation or the Levi
    witness search hit its limit: the search stops instead of returning
    an uncertified answer."""


@dataclass(frozen=True)
class TensorPoint:
    """Nonzero point of V1 (x) ... (x) Vn in sparse coordinates."""

    shape: Tuple[int, ...]
    coords: Tuple[Tuple[Tuple[int, ...], Fraction], ...]

    def __post_init__(self) -> None:
        if not self.shape or any(r < 1 for r in self.shape):
            raise ValueError("shape must list positive ranks")
        if not self.coords:
            raise ValueError("a tensor point must have a nonzero coordinate")
        seen = set()
        for idx, val in self.coords:
            if len(idx) != len(self.shape):
                raise ValueError("index arity does not match shape")
            if any(not 0 <= j < r for j, r in zip(idx, self.shape)):
                raise ValueError("index out of range")
            if val == 0:
                raise ValueError("stored coordinates must be nonzero")
            if idx in seen:
                raise ValueError("duplicate index")
            seen.add(idx)

    @staticmethod
    def from_map(shape: Sequence[int], coords: Dict[Tuple[int, ...], Fraction]) -> "TensorPoint":
        items = tuple(
            [(tuple(idx), Fraction(v)) for idx, v in sorted(coords.items()) if v != 0]
        )
        return TensorPoint(tuple([int(r) for r in shape]), items)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "coords": {
                ",".join(str(j + 1) for j in idx): rat_to_str(v)
                for idx, v in self.coords
            },
        }

    @staticmethod
    def from_json(payload: dict) -> "TensorPoint":
        shape = [int(r) for r in payload["shape"]]
        coords = {}
        for key, val in payload["coords"].items():
            idx = tuple(int(part) - 1 for part in str(key).split(","))
            # "1,1", "01,1" and " 1,1" name one cell
            if idx in coords:
                raise ValueError("duplicate index")
            coords[idx] = rat_from_str(str(val))
        return TensorPoint.from_map(shape, coords)


@dataclass(frozen=True)
class MinimizationResult:
    minimizer: FiltrationTuple
    c: AlgValue
    c_tilde: Fraction
    bases: Tuple[CompatibleBasis, ...]
    support: Tuple[Tuple[int, ...], ...]

    @property
    def is_destabilizing(self) -> bool:
        return self.c.is_negative

    @functools.cached_property
    def adapted(self) -> Tuple[_WeightedBasis, ...]:
        """The adapted weighted basis of each minimizer component
        (_adapted, built once per filtration in a process), looked up once
        per result: the last adaptation round of kempf_minimize and
        rr_reduce read the same bases.  Not a field, so equality, hashing
        and to_json do not see it."""
        return tuple([_adapted(F) for F in self.minimizer.components])

    def to_json(self) -> dict:
        return {
            "minimizer": self.minimizer.to_json(),
            "c": self.c.to_json(),
            "c_tilde": rat_to_str(self.c_tilde),
            "bases": [
                [[rat_to_str(x) for x in vec] for vec in basis.vectors]
                for basis in self.bases
            ],
            "support": [[j + 1 for j in idx] for idx in self.support],
        }


@dataclass(frozen=True)
class Verdict:
    semistable: bool
    witness: Optional[MinimizationResult]
    note: str

    def to_json(self) -> dict:
        out = {"semistable": self.semistable, "note": self.note}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


@dataclass(frozen=True)
class ReducedInstance:
    """Subquotient datum: the point induced on the minimizer's graded
    pieces together with the integer linearization data, and the Levi
    witness that certifies the reduced point semistable."""

    beta: int
    minimizer: FiltrationTuple
    block_jumps: Tuple[Tuple[int, ...], ...]
    block_ranks: Tuple[Tuple[int, ...], ...]
    N: int
    a: Tuple[Tuple[int, ...], ...]
    b: Tuple[Tuple[int, ...], ...]
    groups: Tuple[Tuple[int, ...], ...]
    reduced: Tuple[TensorPoint, ...]
    witness: inv.WitnessInvariant

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "N": self.N,
            "minimizer": self.minimizer.to_json(),
            "block_jumps": [[rat_to_str(x) for x in row] for row in self.block_jumps],
            "block_ranks": [list(row) for row in self.block_ranks],
            "a": [list(row) for row in self.a],
            "b": [list(row) for row in self.b],
            "groups": [[j + 1 for j in g] for g in self.groups],
            "reduced": [p.to_json() for p in self.reduced],
            "witness": self.witness.to_json(),
        }


# ---------------------------------------------------------------------------
# evaluation of the functional


_Change = Tuple[int, List[List[int]]]  # (d, d (rows^T)^-1) of a basis


class _WeightedBasis(NamedTuple):
    """A validated basis of one factor and the filtration value of each of
    its vectors; the basis carries its coordinate change (d, d (rows^T)^-1),
    so change[1] v is d times the coordinates of v."""

    basis: CompatibleBasis
    weights: Sequence

    @property
    def change(self) -> _Change:
        return self.basis.change


@functools.lru_cache(maxsize=4096)
def _adapted(F: Filtration) -> _WeightedBasis:
    """The adapted weighted basis of F, built once per filtration in a
    process."""
    ad = fil.adapted_basis(F)
    return _WeightedBasis(CompatibleBasis(tuple(v for v, _ in ad)), tuple(w for _, w in ad))


def _apply_axis(vec: List[int], shape: Sequence[int], axis: int, M: List[List[int]]) -> List[int]:
    stride = math.prod(shape[axis + 1 :])
    r = shape[axis]
    out = [0] * len(vec)
    for flat, v in enumerate(vec):
        if not v:
            continue
        j = (flat // stride) % r
        base = flat - j * stride
        for jp in range(r):
            if M[jp][j]:
                out[base + jp * stride] += M[jp][j] * v
    return out


def _integer_point(x: TensorPoint) -> Tuple[List[int], int]:
    """(s v_x, s): v_x flat in row-major order, scaled to integers by the
    least common denominator s of its coordinates."""
    den = math.lcm(*[v.denominator for _, v in x.coords])
    vec = [0] * math.prod(x.shape)
    for idx, val in x.coords:
        flat = 0
        for j, r in zip(idx, x.shape):
            flat = flat * r + j
        vec[flat] = val.numerator * (den // val.denominator)
    return vec, den


def _scaled_coordinates(x: TensorPoint, changes: Sequence[_Change]) -> Tuple[List[int], int]:
    """(s c, s) with c the coordinates of v_x in the product of the bases
    whose integer inverses (d, d (rows^T)^-1) are given, flat in row-major
    order, and s a nonzero integer: v_x is scaled to integers and
    each axis changed by its integer inverse.  A caller that needs only
    the support of c never divides."""
    vec, den = _integer_point(x)
    for axis, (d, inv) in enumerate(changes):
        vec = _apply_axis(vec, x.shape, axis, inv)
        den *= d
    return vec, den


@functools.lru_cache(maxsize=4096)
def _cells(shape: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Multi-indices in flat order, listed once per shape in a process, so
    that the supports of one shape share their cells."""
    return tuple(itertools.product(*(range(r) for r in shape)))


def _lambda_weighted(x: TensorPoint, bases: Sequence[_WeightedBasis]):
    """Value at v_x of the tensor product of the filtrations the weighted
    bases define, the least weight sum over the support of v_x in the
    bases.  It depends only on which coordinates are nonzero, so the
    integer coordinate change is never divided."""
    coords, _ = _scaled_coordinates(x, [B.change for B in bases])
    support = _nonzero_cells(coords, _cells(x.shape))
    return min(sum(B.weights[j] for B, j in zip(bases, idx)) for idx in support)


def _check_shapes(x: TensorPoint, T: FiltrationTuple) -> None:
    if T.dims != x.shape:
        raise ValueError("filtration dimensions do not match the point shape")


def tensor_lambda(x: TensorPoint, T: FiltrationTuple) -> Fraction:
    """Value of the tensor-product filtration at v_x: express the vector
    in a product compatible basis, take the minimal weight sum over the
    nonzero coordinates."""
    _check_shapes(x, T)
    return _lambda_weighted(x, [_adapted(F) for F in T.components])


def mu_invariant(
    x: TensorPoint,
    T: FiltrationTuple,
    m: int,
    twists: Optional[Sequence[int]] = None,
) -> int:
    """Hilbert-Mumford weight of the composite line bundle O(m) twisted
    by the determinant powers: -m*lambda + sum of twist_i * E[F_i].

    With the default twists (all equal to m) this is
    m*(sum E[F_i] - lambda(v_x)).
    """
    _check_shapes(x, T)
    if m < 1:
        raise ValueError("m must be a positive integer")
    for F in T.components:
        if any(l.denominator != 1 for l in F.jumps):
            raise ValueError("mu needs integer jumps (a one-parameter subgroup)")
    if twists is None:
        twists = [m] * len(T.components)
    if len(twists) != len(T.components):
        raise ValueError("one twist per component required")
    total = -Fraction(m) * tensor_lambda(x, T)
    for mi, F in zip(twists, T.components):
        total += Fraction(mi) * fil.expectation(F)
    if total.denominator != 1:
        raise ValueError(
            "non-integer weight: the bundle data does not satisfy the "
            "integrality precondition"
        )
    return int(total)


# ---------------------------------------------------------------------------
# exact minimum-norm point over the convex hull of rational vectors


def _min_norm_point(points: List[Tuple[Fraction, ...]], ip_weights: List[Fraction]) -> List[Fraction]:
    """Minimum-norm point of conv(points) under the diagonal inner
    product <u,v> = sum w_k u_k v_k, by Wolfe's algorithm in exact
    arithmetic (P. Wolfe, Math. Programming 11, 1976).

    Points and weights are scaled by the lcm of their denominators, so
    the Gram matrix is computed once over integers; that multiplies every
    inner product by one positive constant, which moves neither the
    convex coefficients of the optimum nor the certificate.  The current
    point x = sum lam_s p_s is carried on a corral S of affinely
    independent points.  A major cycle returns x when <p_t, x> >= <x, x>
    for every t, the optimality certificate and the only way out;
    otherwise it adds the point of least <p_t, x> to S.  Minor cycles
    move x towards the affine minimizer of S, stop at the boundary of
    the simplex and drop the points whose weight reaches zero.  In exact
    arithmetic every major cycle lowers the norm strictly, so no corral
    repeats and the loop ends without an iteration cap.
    """
    uniq = sorted(set(points))
    scale = math.lcm(*(a.denominator for u in uniq for a in u))
    ints = [[int(a * scale) for a in u] for u in uniq]
    wscale = math.lcm(*(w.denominator for w in ip_weights))
    ws = [int(w * wscale) for w in ip_weights]
    gram = [[sum(w * a * b for w, a, b in zip(ws, u, v)) for v in ints] for u in ints]
    n = len(uniq)

    corral = [min(range(n), key=lambda s: gram[s][s])]
    lam = [Fraction(1)]
    while True:
        # den * <p_t, x> and den^2 * <x, x>, with den the common denominator of lam
        den = math.lcm(*(l.denominator for l in lam))
        nums = [l.numerator * (den // l.denominator) for l in lam]
        xp = [sum(c * row[s] for c, s in zip(nums, corral)) for row in gram]
        xx = sum(c * xp[s] for c, s in zip(nums, corral))
        j = min(range(n), key=xp.__getitem__)
        if xp[j] * den >= xx:
            return [
                sum((l * uniq[s][k] for l, s in zip(lam, corral)), Fraction(0))
                for k in range(len(uniq[0]))
            ]
        corral.append(j)
        lam.append(Fraction(0))
        while True:
            alpha = _affine_minimizer(gram, corral)
            if all(a > 0 for a in alpha):
                lam = alpha
                break
            theta = min(l / (l - a) for l, a in zip(lam, alpha) if a <= 0)
            lam = [l + theta * (a - l) for l, a in zip(lam, alpha)]
            corral = [s for s, l in zip(corral, lam) if l != 0]
            lam = [l for l in lam if l != 0]


def _affine_minimizer(gram: List[List[int]], corral: List[int]) -> List[Fraction]:
    """Affine coefficients of the minimum-norm point of the affine hull of
    the corral, from the bordered system [[G_S, 1], [1^T, 0]]."""
    size = len(corral)
    rows = [[gram[s][t] for t in corral] + [1] for s in corral]
    rows.append([1] * size + [0])
    try:
        sol = la.solve_square(rows, [0] * size + [1])
    except la.SingularMatrixError as exc:
        raise SearchNotConverged("affinely dependent corral in the min-norm search") from exc
    return sol[:size]


def _weighted_ip_weights(shape: Sequence[int]) -> List[Fraction]:
    return [Fraction(1, r) for r in shape for _ in range(r)]


def _split_by_shape(flat: Sequence[int], shape: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    at = list(itertools.accumulate(shape, initial=0))
    return tuple(tuple(flat[a:b]) for a, b in zip(at, at[1:]))


def _coprime_integer_direction(flat: Sequence[Fraction]) -> List[int]:
    den = math.lcm(*(q.denominator for q in flat))
    ints = [int(q * den) for q in flat]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g else ints


class _SupportMinimum(NamedTuple):
    """Minimum of the functional over the tuples compatible with any bases
    in which v_x has a given support: the value -sqrt(pnorm_sq), attained
    by the tuple that gives basis vector j of factor i the integer weight
    parts[i][j] (None when pnorm_sq is 0, where no destabilizer exists),
    and c_tilde, that value divided by the norm of the tuple."""

    pnorm_sq: Fraction
    parts: Optional[Tuple[Tuple[int, ...], ...]]
    c_tilde: Fraction


_Support = Tuple[Tuple[int, ...], ...]
_Span = Tuple[Tuple[int, ...], ...]  # canonical rows of a span (_slice_span)


def _weighted_basis_values(
    shape: Sequence[int], support: _Support, parts: Sequence[Sequence]
) -> Tuple[Fraction, Fraction, Fraction]:
    """(sum |T_i|^2, sum E[T_i], lambda_T(v_x)) for the tuple T that gives
    basis vector j of factor i the weight parts[i][j], in bases where v_x
    has the given support.  In a filtration built from a weighted basis
    each weight has as its multiplicity the number of basis vectors that
    carry it, so the norm and the expectation are means over the basis;
    lambda is the least weight sum over the support."""
    norm_sq = sum((Fraction(sum(w * w for w in ws), r) for ws, r in zip(parts, shape)), Fraction(0))
    expect = sum((Fraction(sum(ws), r) for ws, r in zip(parts, shape)), Fraction(0))
    least = min(sum(ws[j] for ws, j in zip(parts, s)) for s in support)
    return norm_sq, expect, Fraction(least)


@functools.lru_cache(maxsize=4096)
def _support_minimum(shape: Tuple[int, ...], support: _Support) -> _SupportMinimum:
    """The minimum over tuples compatible with bases in which v_x has this
    support, computed once per (shape, support) in a process.

    Each support tuple s contributes the linear form
    sum_i mean(y_i) - sum_i y_i[s_i]; its gradient in the weighted inner
    product has entries 1 - r_i [j = s_i].  The sphere minimum is minus
    the norm of the minimum-norm point p of the gradient hull, attained
    at y = -p; p = 0 means no destabilizer exists in this basis family.
    None of this involves the point or the bases, and neither do the
    norm, the expectation and lambda of the minimizing tuple
    (_weighted_basis_values), so the consistency check c = c_tilde |T|
    runs here, before the entry is stored, and a failed check stores
    nothing.
    """
    grads = [
        tuple(Fraction(1 - r * (j == s[i])) for i, r in enumerate(shape) for j in range(r))
        for s in support
    ]
    weights = _weighted_ip_weights(shape)
    p = _min_norm_point(grads, weights)
    pnorm_sq = sum(w * a * a for w, a in zip(weights, p))
    if pnorm_sq == 0:
        return _SupportMinimum(pnorm_sq, None, Fraction(0))
    direction = _coprime_integer_direction([-q for q in p])
    parts = _split_by_shape(direction, shape)
    norm_sq, expect, least = _weighted_basis_values(shape, support, parts)
    c_tilde = (expect - least) / norm_sq
    # consistency: c = c_tilde * sqrt(norm_sq)
    if not (c_tilde < 0 and c_tilde * c_tilde * norm_sq == pnorm_sq):
        raise SearchNotConverged("minimizer value disagrees with the min-norm point")
    return _SupportMinimum(pnorm_sq, parts, c_tilde)


def _nonzero_cells(coords: Sequence[int], cells) -> _Support:
    """The cells, listed in flat order, where coords is nonzero.

    Tuples on the per-point path are built from lists, as are the argument
    tuples of math.lcm: a tuple built from a generator is allocated at a
    guessed size and shrunk, and on release it joins the interpreter's
    free list of its final size, which keeps up to 2000 tuples of each
    size for the life of the process (as in linalg._common_scaled)."""
    support = tuple([idx for c, idx in zip(coords, cells) if c])
    if not support:
        raise ValueError("a nonzero point has a nonzero coordinate in every basis")
    return support


def _support(x: TensorPoint, changes: Sequence[_Change]) -> _Support:
    """Cells, in flat order, where the coordinates of v_x in the product of
    the bases whose integer inverses are given are nonzero."""
    return _nonzero_cells(_scaled_coordinates(x, changes)[0], _cells(x.shape))


@functools.lru_cache(maxsize=4096)
def _component(basis: CompatibleBasis, weights: Tuple[int, ...]) -> Filtration:
    """The minimizer component that gives each vector of a validated basis
    its integer weight (filtration._from_basis), built once per (basis,
    weights) in a process.  A minimizer has expectation zero in every
    component, so that is checked here, once per distinct component."""
    F = fil._from_basis(basis, weights)
    if fil.expectation(F) != 0:
        raise SearchNotConverged("minimizer expectation is not zero")
    return F


def _build(
    shape: Sequence[int], bases: Sequence[CompatibleBasis], support: _Support, m: _SupportMinimum
) -> MinimizationResult:
    """The minimizing tuple of a checked support minimum, in the given bases,
    one checked component per basis (_component)."""
    if m.parts is None:
        trivial = FiltrationTuple(tuple(fil.trivial(r) for r in shape))
        return MinimizationResult(trivial, AlgValue.zero(), Fraction(0), tuple(bases), support)
    comps = tuple([_component(basis, ws) for basis, ws in zip(bases, m.parts)])
    return MinimizationResult(
        FiltrationTuple(comps), AlgValue(-1, m.pnorm_sq), m.c_tilde, tuple(bases), support
    )


# ---------------------------------------------------------------------------
# global minimization over basis families


_Seed = Tuple[CompatibleBasis, ...]


@functools.lru_cache(maxsize=4096)
def _identity_basis(r: int) -> CompatibleBasis:
    """The identity basis of rank r, which every axis option set of that
    rank shares, built once per rank in a process."""
    return CompatibleBasis(
        tuple(tuple(Fraction(int(a == b)) for b in range(r)) for a in range(r))
    )


def _random_basis(rng: random.Random, r: int) -> CompatibleBasis:
    """Rows of a random invertible r x r matrix with entries in -2..2,
    redrawn while CompatibleBasis finds them dependent."""
    while True:
        rows = tuple(tuple(Fraction(rng.randrange(-2, 3)) for _ in range(r)) for _ in range(r))
        try:
            return CompatibleBasis(rows)
        except ValueError:
            pass


@functools.lru_cache(maxsize=64)
def _random_seeds(shape: Tuple[int, ...], rng_seed: int) -> Tuple[_Seed, ...]:
    """Three random seed tuples from random.Random(rng_seed).  They depend
    on the shape and the seed alone, so they are drawn and validated once
    per (shape, rng_seed) in a process; a run uses few seeds, and an entry
    holds 3 n bases, so the bound is small."""
    rng = random.Random(rng_seed)
    return tuple([tuple(_random_basis(rng, r) for r in shape) for _ in range(3)])


def _slice_span(vec: Sequence[int], shape: Sequence[int], axis: int) -> _Span:
    """The span of the slices of the integer point vec (flat, row-major)
    along axis, the column space of its matricization, as canonical rows:
    the rows of its reduced echelon form, each scaled to a primitive
    integer row with a positive pivot.  One integer elimination of the
    nonzero slices; every spanning set of one space gives the same rows."""
    r = shape[axis]
    stride = math.prod(shape[axis + 1 :])
    block = r * stride
    W = [
        row
        for start in range(0, len(vec), block)
        for first in range(start, start + stride)
        if any(row := vec[first : first + block : stride])
    ]
    rank, _, d, _ = la._eliminate(W, r)
    sign = 1 if d > 0 else -1
    rows = []
    for row in W[:rank]:
        g = sign * math.gcd(*row)
        rows.append(tuple([a // g for a in row]))
    return tuple(rows)


@functools.lru_cache(maxsize=4096)
def _span_options(span: _Span) -> Tuple[CompatibleBasis, ...]:
    """The seed bases of one axis with this span of slices of v_x: the
    identity, and the echelon basis of the span completed by the greedy
    extension, left out when it is the identity.  They depend on the rank
    and the span alone (the rows of _slice_span have length r), so they
    are built once per span in a process: a point pays one elimination per
    axis and a lookup.

    The echelon basis reversed is no option, because it could never win.
    _support_minimum depends on the support of v_x alone, and its inner
    product gives every coordinate of one axis the same weight 1/r_i.
    Reversing a basis permutes the support along its axis, and the
    min-norm point with it, so pnorm_sq is unchanged.  The tuple with the
    echelon basis (the identity, when that is the echelon basis) in place
    of each reversal comes earlier in product order, and kempf_minimize
    takes a later seed only when it is strictly lower.  So the winning
    seed, and every adaptation round after it, are those of a search that
    also walks the reversals."""
    ident = _identity_basis(len(span[0]))
    # the rref rows of the span lead, as the leading flag directions
    rows = [tuple(Fraction(a, next(filter(None, row))) for a in row) for row in span]
    ech = CompatibleBasis(tuple(rows) + tuple(map(tuple, fil._extend(rows, ident.vectors))))
    return (ident,) if ech == ident else (ident, ech)


def _seed_supports(x: TensorPoint, rng_seed: int) -> List[Tuple[_Seed, _Support]]:
    """Every seed tuple of bases with the support of v_x in it, in search
    order: the product of the axis options (_span_options) in
    itertools.product order, then the random seeds (_random_seeds).

    v_x is scaled to integers once, and the axis options are read off that
    integer point.  The product is walked as a tree, one axis per level,
    so that each axis change is applied once per prefix: at most
    2 + 4 + 8 axis products for (2,2,2), where changing every seed afresh
    takes 8 x 3.
    The identity option's change is (1, I), so under it the prefix's
    vector is reused, not copied; no vector of the walk is mutated.
    Expanding each level prefix by prefix, option by option, keeps the
    product order."""
    vec, _ = _integer_point(x)
    level: List[Tuple[_Seed, List[int]]] = [((), vec)]
    for axis in range(len(x.shape)):
        options = _span_options(_slice_span(vec, x.shape, axis))
        ident = _identity_basis(x.shape[axis])
        level = [
            (prefix + (basis,), v if basis is ident else _apply_axis(v, x.shape, axis, basis.change[1]))
            for prefix, v in level
            for basis in options
        ]
    for seed in _random_seeds(x.shape, rng_seed):
        v = vec
        for axis, basis in enumerate(seed):
            v = _apply_axis(v, x.shape, axis, basis.change[1])
        level.append((seed, v))
    cells = _cells(x.shape)
    return [(seed, _nonzero_cells(v, cells)) for seed, v in level]


def kempf_minimize(x: TensorPoint, rng_seed: int = 0) -> Optional[MinimizationResult]:
    """Search for the global minimizer of the functional.

    Seeds: coordinate bases, bases extending echelon forms of each
    matricization of v_x, and a few seeded random bases.  From any
    negative result the search re-adapts the bases to the current
    minimizing flags until the value stops decreasing.

    The seeds and the support of v_x in each come from one tree walk
    (_seed_supports) that applies each axis change once per prefix, with
    the options of each axis built once per span of the slices of v_x
    (_span_options); each minimum comes from _support_minimum, solved and
    checked once per (shape, support), and only the winning seed's
    filtration tuple is built, each component built and checked once per
    (basis, weights) on bases that are not validated again (_component).
    Each adaptation round reads the adapted bases of the current result
    (MinimizationResult.adapted), built once per filtration, and
    rr_reduce reads those of the returned minimizer again.  The seeds,
    their order and the tie rule (a later seed must be strictly lower) are
    those of a search that builds every seed, so the same seed wins with
    the same exact value.

    Returns None when no destabilizer is found by the basis family.  A
    negative result is an exact destabilizing tuple whose minimizer has
    expectation zero in every component (_component raises
    SearchNotConverged otherwise).  That it is the global minimizer is not
    decided here: by the Kirwan-Ness criterion in the module docstring it
    is exactly the semistability of the limit point for the Levi
    subgroup, which rr_reduce certifies with a Levi witness.
    """
    winner = None
    best_sq = Fraction(0)  # the value is -sqrt(pnorm_sq): larger is lower
    for seed, support in _seed_supports(x, rng_seed):
        m = _support_minimum(x.shape, support)
        if m.pnorm_sq > best_sq:
            winner, best_sq = (seed, support, m), m.pnorm_sq
    if winner is None:
        return None
    seed, support, m = winner
    best = _build(x.shape, seed, support, m)
    rounds = 0
    while True:
        rounds += 1
        if rounds > ADAPT_ROUNDS:
            raise SearchNotConverged("basis adaptation failed to stabilize")
        adapted = best.adapted
        support = _support(x, [B.change for B in adapted])
        m = _support_minimum(x.shape, support)
        if m.pnorm_sq <= best.c.square:
            break
        best = _build(x.shape, [B.basis for B in adapted], support, m)
    return best


def is_semistable(x: TensorPoint, rng_seed: int = 0) -> Verdict:
    """Hilbert-Mumford decision for the tensor point.

    Unstable verdicts carry a certified negative minimizer.  Semistable
    verdicts mean only that the configured basis family found no
    destabilizer; they are not certified yet.  On three-factor shapes the
    family can miss: 7 of 400 seeded (2,2,2) points were measured
    semistable with a vanishing hyperdeterminant (ROADMAP.md, open item 1).
    """
    result = kempf_minimize(x, rng_seed=rng_seed)
    if result is None:
        return Verdict(True, None, "no destabilizer found (search over basis family)")
    return Verdict(False, result, "destabilizing filtration tuple found")


# ---------------------------------------------------------------------------
# reduction to the graded subquotient instance


class _ReductionPlan(NamedTuple):
    """What rr_reduce reads off the canonical data of a minimizer: the
    level beta, the blocks, N, a, b and the groups with their shapes, and
    for each group the (flat index, position) of its level-beta support
    cells in position order.  Only ints and tuples of ints."""

    beta: int
    block_jumps: Tuple[Tuple[int, ...], ...]
    block_ranks: Tuple[Tuple[int, ...], ...]
    N: int
    a: Tuple[Tuple[int, ...], ...]
    b: Tuple[Tuple[int, ...], ...]
    groups: Tuple[Tuple[int, ...], ...]
    shapes: Tuple[Tuple[int, ...], ...]
    cells: Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], ...]


@functools.lru_cache(maxsize=4096)
def _reduction_plan(
    shape: Tuple[int, ...], weights: Tuple[Tuple[int, ...], ...], c_tilde: Fraction, support: _Support
) -> _ReductionPlan:
    """The reduction data of a minimizer with these integer adapted weights
    and this c_tilde, at a point with this support in the adapted bases,
    built once per such datum in a process.

    The jumps of factor i are its distinct weights and their ranks the
    counts.  With c_tilde = p/q, N is the least common multiple of the r_i
    and of the denominators of p lam / (q r_i), a_j = -N p lam_j / (q r_i)
    and b_j = N / r_i + a_j, all on integers.  The checks sum a_j r_j = 0
    and b_j >= 0 run before the plan is stored, so a failed check stores
    nothing.  A support cell lies in the group of its weight levels, at the
    position of each basis vector within its level; a (level, position)
    pair names one adapted basis vector, so distinct cells never meet."""
    jumps = [sorted(set(ws)) for ws in weights]
    ranks = tuple([tuple([ws.count(lam) for lam in js]) for ws, js in zip(weights, jumps)])
    p, q = c_tilde.numerator, c_tilde.denominator
    N = math.lcm(*shape, *[q * r // math.gcd(p * lam, q * r) for js, r in zip(jumps, shape) for lam in js])
    a = tuple([tuple([-N * p * lam // (q * r) for lam in js]) for js, r in zip(jumps, shape)])
    b = tuple([tuple([N // r + aj for aj in row]) for row, r in zip(a, shape)])
    for arow, brow, rks in zip(a, b, ranks):
        if sum(aj * rj for aj, rj in zip(arow, rks)) != 0:
            raise SearchNotConverged("sum of a_j r_j is not zero")
        if any(bj < 0 for bj in brow):
            raise SearchNotConverged("negative b_j")
    levels = [[js.index(w) for w in ws] for ws, js in zip(weights, jumps)]
    positions = [[ws[:j].count(w) for j, w in enumerate(ws)] for ws in weights]
    sums = {idx: sum(ws[j] for ws, j in zip(weights, idx)) for idx in support}
    beta = min(sums.values())
    grouped: Dict[Tuple[int, ...], List[Tuple[int, Tuple[int, ...]]]] = {}
    for flat, idx in enumerate(_cells(shape)):
        if sums.get(idx) == beta:
            g = tuple([lv[j] for lv, j in zip(levels, idx)])
            grouped.setdefault(g, []).append((flat, tuple([pos[j] for pos, j in zip(positions, idx)])))
    if not grouped:
        raise SearchNotConverged("the level-beta projection of the minimal layer is zero")
    groups = tuple(sorted(grouped))
    return _ReductionPlan(
        beta, tuple(map(tuple, jumps)), ranks, N, a, b, groups,
        tuple([tuple([rks[gi] for rks, gi in zip(ranks, g)]) for g in groups]),
        tuple([tuple(sorted(grouped[g], key=lambda cell: cell[1])) for g in groups]),
    )


def rr_reduce(x: TensorPoint, M: MinimizationResult) -> ReducedInstance:
    """Project an unstable point onto the graded pieces of its minimizer
    and certify the minimizer optimal.

    Builds the level-beta layer of the tensor filtration, the minimal
    integer N making all a = -N c l / r integral, and b = N/r + a.  All of
    that depends on the minimizer's integer weights in its adapted bases
    (M.adapted, built once per filtration in a process), on c_tilde and on
    the support of v_x in those bases alone, so it is planned once per such
    datum (_reduction_plan), checks included.  Per point there remain one
    integer coordinate change, its support and a plan lookup, one division
    per level-beta cell for the projection, the letters and the witness
    search.
    The projection is the limit point of the Kirwan-Ness criterion (see
    the module docstring), so M is the Kempf minimizer exactly when it is
    semistable for the Levi subgroup, the product of the GL of the blocks,
    under O(N) twisted by det^{b_j} on block j.  That is certified by one
    nonvanishing determinant contraction, the Levi witness, found by
    invariants.invariant_witness_search with one letter per block.  With
    g = gcd(N, b) it searches the multiples k (N, b) / g for k = 1..2g, so
    every contraction of degree N or 2N in v_x is in scope, and takes at
    most LEVI_BUDGET contraction steps.  Every check raises
    SearchNotConverged when it fails, and a witness search that ends
    without a witness names the limit it hit.
    """
    if not M.is_destabilizing:
        raise ValueError("reduction needs a destabilizing result (c < 0)")
    for F in M.minimizer.components:
        if any(l.denominator != 1 for l in F.jumps):
            raise ValueError("reduction needs integer jumps")
    _check_shapes(x, M.minimizer)
    adapted = M.adapted
    coords, scale = _scaled_coordinates(x, [B.change for B in adapted])
    plan = _reduction_plan(
        x.shape,
        tuple([tuple([w.numerator for w in B.weights]) for B in adapted]),
        M.c_tilde,
        _nonzero_cells(coords, _cells(x.shape)),
    )
    reduced = tuple([
        TensorPoint(shape, tuple([(t, Fraction(coords[flat], scale)) for flat, t in cells]))
        for shape, cells in zip(plan.shapes, plan.cells)
    ])
    N, b, block_ranks = plan.N, plan.b, plan.block_ranks

    # blocks flattened in factor order are the letters; the point of group
    # g feeds one slot to each block (i, g_i)
    offsets = list(itertools.accumulate((len(row) for row in block_ranks), initial=0))
    letters = {}
    for g, point in zip(plan.groups, reduced):
        alpha = [0] * offsets[-1]
        for i, gi in enumerate(g):
            alpha[offsets[i] + gi] = 1
        letters[tuple(alpha)] = point
    # semistability does not change under a positive multiple of the
    # linearization, so the search starts at the primitive multiple
    twists = [bj for row in b for bj in row]
    g = math.gcd(N, *twists)
    witness = inv.invariant_witness_search(
        letters,
        [t // g for t in twists],
        N // g,
        2 * g,
        budget=LEVI_BUDGET,
        ranks=[rk for row in block_ranks for rk in row],
    )
    if witness is None:
        raise SearchNotConverged("no Levi witness up to degree %d" % (2 * N))
    if witness == inv.BUDGET_EXCEEDED:
        raise SearchNotConverged(
            "the Levi witness search exceeded its budget of %d steps" % LEVI_BUDGET
        )
    return ReducedInstance(
        plan.beta, M.minimizer, plan.block_jumps, block_ranks, N, plan.a, b, plan.groups, reduced, witness
    )


@functools.lru_cache(maxsize=4096)
def _coordinate_test(grads: Tuple[Tuple[int, ...], ...]) -> bool:
    """Whether the minimum-norm point of the gradients, in the standard
    inner product, is nonzero: a destabilizer of the reduced point."""
    return any(q != 0 for q in _min_norm_point(list(grads), [Fraction(1)] * len(grads[0])))


def reduced_is_semistable(R: ReducedInstance) -> Verdict:
    """Decision for the reduced point under the graded group.

    Semistable rests on R.witness, the nonvanishing Levi semi-invariant
    that rr_reduce found.  Unstable rests on the coordinate test, checked
    first: in coordinates adapted to the blocks the weight of a
    one-parameter subgroup is a maximum of linear forms with gradients
    b_j - N [block coordinate hit by the support element], so a nonzero
    minimum-norm point of those gradients, in the standard inner product,
    is a destabilizer.  The gradients are the test's whole input, so its
    outcome is kept per sorted gradient set (_coordinate_test): the seeded
    instances repeat few sets.
    """
    flat = [(i, j, rk) for i, per in enumerate(R.block_ranks) for j, rk in enumerate(per)]
    offsets = {(i, j): sum(rk for _, _, rk in flat[:k]) for k, (i, j, _) in enumerate(flat)}
    twist = [R.b[i][j] for i, j, rk in flat for _ in range(rk)]
    grads = set()
    for g, point in zip(R.groups, R.reduced):
        for idx, _val in point.coords:
            vec = list(twist)
            for i, gi in enumerate(g):
                vec[offsets[(i, gi)] + idx[i]] -= R.N
            grads.add(tuple(vec))
    if _coordinate_test(tuple(sorted(grads))):
        return Verdict(False, None, "negative weight in block coordinates")
    # the witness is a product of len(alphas) copies of the reduced point
    return Verdict(True, None, "Levi witness of degree %d" % len(R.witness.alphas))
