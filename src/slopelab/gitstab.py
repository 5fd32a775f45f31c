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

A filtration given by a basis of its factor and one weight per vector
(a weighted basis) is evaluated in that basis.  The coordinate change to
it is one integer elimination of [B^T | I], which yields d (B^T)^-1 with
d a nonzero integer; v_x, scaled to integers, is changed axis by axis
over the integers.  lambda of a tensor filtration needs only the support
of those coordinates, so it is never divided; the reduction divides once.
The Kempf challenges and the sampled block filtrations of the reduction
are drawn as weighted bases and scored where they were drawn: the one
elimination that tests a draw for invertibility also gives its
coordinate change, E[G] is the mean weight, and <F, G> is the rank
formula of filtration.scalar_product_with_basis on the drawn rows.
Every certificate check raises SearchNotConverged, so python -O keeps it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import filtration as fil
from . import linalg as la
from .exactnum import AlgValue, rat_from_str, rat_to_str
from .filtration import CompatibleBasis, Filtration, FiltrationTuple


ADAPT_ROUNDS = 40  # cap on re-adapting the bases to the minimizing flags
BLOCK_ROUNDS = 6  # random block bases tried by reduced_is_semistable


class SearchNotConverged(RuntimeError):
    """A certification check failed or the basis adaptation hit its round
    cap: the search stops instead of returning an uncertified answer."""


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
            (tuple(idx), Fraction(v)) for idx, v in sorted(coords.items()) if v != 0
        )
        return TensorPoint(tuple(int(r) for r in shape), items)

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
    pieces together with the integer linearization data."""

    beta: int
    minimizer: FiltrationTuple
    block_jumps: Tuple[Tuple[Fraction, ...], ...]
    block_ranks: Tuple[Tuple[int, ...], ...]
    N: int
    a: Tuple[Tuple[int, ...], ...]
    b: Tuple[Tuple[int, ...], ...]
    groups: Tuple[Tuple[int, ...], ...]
    reduced: Tuple[TensorPoint, ...]

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
        }


# ---------------------------------------------------------------------------
# evaluation of the functional


class _WeightedBasis(NamedTuple):
    """A basis of one factor, the filtration value of each of its vectors,
    and the coordinate change to it scaled to integers:
    inv = d (rows^T)^-1, so inv v is d times the coordinates of v."""

    rows: Sequence[Sequence]
    weights: Sequence
    d: int
    inv: List[List[int]]


def _inverse_transpose(rows: Sequence[Sequence]) -> Optional[Tuple[int, List[List[int]]]]:
    """(d, d (rows^T)^-1) over the integers, or None when the rows are
    dependent: one elimination of [rows^T | I]."""
    n = len(rows)
    return la.solve_scaled(la.transpose(rows), [[int(i == k) for k in range(n)] for i in range(n)])


def _adapted(F: Filtration) -> _WeightedBasis:
    ad = fil.adapted_basis(F)
    rows = [v for v, _ in ad]  # a basis, so the inverse exists
    return _WeightedBasis(rows, [w for _, w in ad], *_inverse_transpose(rows))


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


def _scaled_coordinates(
    x: TensorPoint, changes: Sequence[Tuple[int, List[List[int]]]]
) -> Tuple[List[int], int]:
    """(s c, s) with c the coordinates of v_x in the product of the bases
    whose integer inverses (d, d (rows^T)^-1) are given, flat in row-major
    order, and s a nonzero integer: v_x is scaled to integers and
    each axis changed by its integer inverse.  A caller that needs only
    the support of c never divides."""
    den = math.lcm(*(v.denominator for _, v in x.coords))
    vec = [0] * math.prod(x.shape)
    for idx, val in x.coords:
        flat = 0
        for j, r in zip(idx, x.shape):
            flat = flat * r + j
        vec[flat] = val.numerator * (den // val.denominator)
    for axis, (d, inv) in enumerate(changes):
        vec = _apply_axis(vec, x.shape, axis, inv)
        den *= d
    return vec, den


def _cells(shape: Sequence[int]):
    """Multi-indices in flat order."""
    return itertools.product(*(range(r) for r in shape))


def _min_weight(shape: Sequence[int], coords: Sequence[int], weights: Sequence[Sequence]):
    """Least weight sum over the support of coords."""
    sums = [
        sum(w[j] for w, j in zip(weights, idx)) for c, idx in zip(coords, _cells(shape)) if c
    ]
    if not sums:
        raise ValueError("a nonzero point has a nonzero coordinate in every basis")
    return min(sums)


def _lambda_weighted(x: TensorPoint, bases: Sequence[_WeightedBasis]):
    """Value at v_x of the tensor product of the filtrations the weighted
    bases define.  It depends only on which coordinates are nonzero, so the
    integer coordinate change is never divided."""
    coords, _ = _scaled_coordinates(x, [(B.d, B.inv) for B in bases])
    return _min_weight(x.shape, coords, [B.weights for B in bases])


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
    out: List[Fraction] = []
    for r in shape:
        out.extend([Fraction(1, r)] * r)
    return out


def _split_by_shape(flat: Sequence[Fraction], shape: Sequence[int]) -> List[List[Fraction]]:
    parts = []
    at = 0
    for r in shape:
        parts.append(list(flat[at : at + r]))
        at += r
    return parts


def _coprime_integer_direction(flat: Sequence[Fraction]) -> List[int]:
    den = 1
    for q in flat:
        den = den * q.denominator // math.gcd(den, q.denominator)
    ints = [int(q * den) for q in flat]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    return [v // g for v in ints] if g else [0 for _ in ints]


def minimize_fixed_basis(
    x: TensorPoint, bases: Sequence[CompatibleBasis]
) -> MinimizationResult:
    """Exact minimum of the functional over tuples compatible with the
    given bases.

    Each support tuple s contributes the linear form
    sum_i mean(y_i) - sum_i y_i[s_i]; its gradient in the weighted inner
    product has entries 1 - r_i [j = s_i].  The sphere minimum is minus
    the norm of the minimum-norm point p of the gradient hull, attained
    at y = -p; p = 0 means no destabilizer exists in this basis family.
    """
    if len(bases) != len(x.shape):
        raise ValueError("one basis per tensor factor required")
    for basis, r in zip(bases, x.shape):
        if len(basis.vectors) != r:
            raise ValueError("basis size does not match shape")
    # CompatibleBasis rows are independent, so every inverse exists
    coords, _ = _scaled_coordinates(x, [_inverse_transpose(b.vectors) for b in bases])
    support = [idx for c, idx in zip(coords, _cells(x.shape)) if c]
    if not support:
        raise ValueError("a nonzero point has a nonzero coordinate in every basis")

    grads = []
    for s in support:
        g: List[Fraction] = []
        for i, r in enumerate(x.shape):
            g.extend(Fraction(1 - r * (j == s[i])) for j in range(r))
        grads.append(tuple(g))
    weights = _weighted_ip_weights(x.shape)
    p = _min_norm_point(grads, weights)
    pnorm_sq = sum(w * a * a for w, a in zip(weights, p))

    if pnorm_sq == 0:
        trivial = FiltrationTuple(tuple(fil.trivial(r) for r in x.shape))
        return MinimizationResult(
            trivial, AlgValue.zero(), Fraction(0), tuple(bases), tuple(support)
        )

    direction = _coprime_integer_direction([-q for q in p])
    parts = _split_by_shape([Fraction(v) for v in direction], x.shape)
    comps = []
    for basis, ws in zip(bases, parts):
        comps.append(fil.from_weighted_basis([list(v) for v in basis.vectors], ws))
    tup = FiltrationTuple(tuple(comps))
    norm_sq = sum((fil.norm_squared(F) for F in tup.components), Fraction(0))
    expect = sum((fil.expectation(F) for F in tup.components), Fraction(0))
    # the bases are compatible with tup, so lambda is read off the support
    c_tilde = (expect - _min_weight(x.shape, coords, parts)) / norm_sq
    c = AlgValue(-1, pnorm_sq)
    # consistency: c = c_tilde * sqrt(norm_sq)
    if not (c_tilde < 0 and c_tilde * c_tilde * norm_sq == pnorm_sq):
        raise SearchNotConverged("minimizer value disagrees with the min-norm point")
    return MinimizationResult(tup, c, c_tilde, tuple(bases), tuple(support))


# ---------------------------------------------------------------------------
# global minimization over basis families


def _identity_basis(r: int) -> CompatibleBasis:
    return CompatibleBasis(
        tuple(tuple(Fraction(int(a == b)) for b in range(r)) for a in range(r))
    )


def _matricization(x: TensorPoint, axis: int) -> la.Matrix:
    rows = x.shape[axis]
    cols = 1
    for i, r in enumerate(x.shape):
        if i != axis:
            cols *= r
    M = [[Fraction(0)] * cols for _ in range(rows)]
    for idx, val in x.coords:
        col = 0
        for i, r in enumerate(x.shape):
            if i != axis:
                col = col * r + idx[i]
        M[idx[axis]][col] = val
    return M


def _extend_to_basis(rows: la.Matrix, r: int) -> CompatibleBasis:
    eye = [[Fraction(int(a == b)) for b in range(r)] for a in range(r)]
    span, piv = la.rref(rows)
    chosen = list(span)
    for cand in eye:
        if not la.row_space_contains(span, piv, cand):
            chosen.append(cand)
            span, piv = la.rref(span + [cand])
    return CompatibleBasis(tuple(tuple(v) for v in chosen))


def _draw(rng: random.Random, r: int) -> Tuple[List[List[int]], int, List[List[int]]]:
    """Rows of a random invertible r x r matrix with entries in -2..2 and
    their integer inverse (d, d (rows^T)^-1): one elimination per attempt,
    which is also the invertibility test."""
    while True:
        rows = [[rng.randrange(-2, 3) for _ in range(r)] for _ in range(r)]
        inv = _inverse_transpose(rows)
        if inv is not None:
            return (rows, *inv)


def _draw_weighted(rng: random.Random, r: int, w: int) -> _WeightedBasis:
    """A random invertible basis, then one weight in -w..w per vector."""
    rows, d, inv = _draw(rng, r)
    return _WeightedBasis(rows, [rng.randrange(-w, w + 1) for _ in range(r)], d, inv)


def _random_basis(rng: random.Random, r: int) -> CompatibleBasis:
    return CompatibleBasis(tuple(tuple(Fraction(a) for a in row) for row in _draw(rng, r)[0]))


def _seed_bases(x: TensorPoint, rng_seed: int) -> List[Tuple[CompatibleBasis, ...]]:
    per_axis: List[List[CompatibleBasis]] = []
    for axis, r in enumerate(x.shape):
        options = [_identity_basis(r)]
        # slices of v_x along this axis span the column space of the
        # matricization; echelonize that as the leading flag directions
        rows = la.rref(la.transpose(_matricization(x, axis)))[0]
        ech = _extend_to_basis(rows, r)
        if ech not in options:
            options.append(ech)
        rev = CompatibleBasis(tuple(reversed(ech.vectors)))
        if rev not in options:
            options.append(rev)
        per_axis.append(options)
    seeds = [tuple(choice) for choice in itertools.product(*per_axis)]
    rng = random.Random(rng_seed)
    for _ in range(3):
        seeds.append(tuple(_random_basis(rng, r) for r in x.shape))
    return seeds


def _better(a: AlgValue, b: Optional[AlgValue]) -> bool:
    return b is None or a < b


def _challenge_sides(
    x: TensorPoint, comps: Sequence[Filtration], c_tilde: Fraction, drawn: Sequence[_WeightedBasis]
) -> Tuple[Fraction, Fraction]:
    """Both sides of the estimation inequality E[G] - lambda_G(v_x) >=
    c_tilde <F, G> at the challenge G whose factors are the drawn weighted
    bases, scored in those bases: E[G_i] is the mean drawn weight,
    lambda_G(v_x) the least weight sum over the support of v_x in the
    drawn bases, and <F_i, G_i> the rank formula against the drawn rows."""
    lhs = sum((Fraction(sum(B.weights), len(B.weights)) for B in drawn), Fraction(0))
    lhs -= _lambda_weighted(x, drawn)
    rhs = c_tilde * sum(
        (fil.scalar_product_with_basis(F, B.rows, B.weights) for F, B in zip(comps, drawn)),
        Fraction(0),
    )
    return lhs, rhs


def kempf_minimize(
    x: TensorPoint,
    rng_seed: int = 0,
    challenges: int = 100,
) -> Optional[MinimizationResult]:
    """Search for the global minimizer of the functional.

    Seeds: coordinate bases, bases extending echelon forms of each
    matricization of v_x (and their reversals), and a few seeded random
    bases.  From any negative result the search re-adapts the bases to
    the current minimizing flags until the value stops decreasing.

    Returns None when no destabilizer is found by the basis family.  A
    negative result is certified before returning: the minimizer must
    have expectation zero in every component and must satisfy the
    estimation inequality against random challenge tuples; any failure
    raises SearchNotConverged rather than returning a wrong answer.  A
    challenge is a random invertible integer basis per factor with a
    weight in -3..3 per vector.  It is scored in the basis it was drawn
    in (see _challenge_sides): the one elimination that tests the draw
    for invertibility also gives the integer coordinate change, and no
    challenge filtration is built.
    """
    best: Optional[MinimizationResult] = None
    for bases in _seed_bases(x, rng_seed):
        res = minimize_fixed_basis(x, bases)
        if res.is_destabilizing and (best is None or _better(res.c, best.c)):
            best = res
    rounds = 0
    while best is not None:
        rounds += 1
        if rounds > ADAPT_ROUNDS:
            raise SearchNotConverged("basis adaptation failed to stabilize")
        adapted = tuple(
            CompatibleBasis(tuple(v for v, _ in fil.adapted_basis(F)))
            for F in best.minimizer.components
        )
        res = minimize_fixed_basis(x, adapted)
        if res.is_destabilizing and _better(res.c, best.c):
            best = res
            continue
        break
    if best is None:
        return None

    comps = best.minimizer.components
    for F in comps:
        if fil.expectation(F) != 0:
            raise SearchNotConverged("minimizer expectation is not zero")
    rng = random.Random(rng_seed * 7919 + 13)
    for _ in range(challenges):
        drawn = [_draw_weighted(rng, r, 3) for r in x.shape]
        lhs, rhs = _challenge_sides(x, comps, best.c_tilde, drawn)
        if lhs < rhs:
            raise SearchNotConverged("estimation inequality failed for a challenge")
    return best


def is_semistable(x: TensorPoint, rng_seed: int = 0) -> Verdict:
    """Hilbert-Mumford decision for the tensor point.

    Unstable verdicts carry a certified negative minimizer.  Semistable
    verdicts mean the configured basis family found no destabilizer,
    which is exhaustive on shapes small enough for the brute-force cross
    check used in the test suite.
    """
    result = kempf_minimize(x, rng_seed=rng_seed)
    if result is None:
        return Verdict(True, None, "no destabilizer found (search over basis family)")
    return Verdict(False, result, "destabilizing filtration tuple found")


# ---------------------------------------------------------------------------
# reduction to the graded subquotient instance


def rr_reduce(x: TensorPoint, M: MinimizationResult, samples: int = 25, rng_seed: int = 5) -> ReducedInstance:
    """Project an unstable point onto the graded pieces of its minimizer.

    Builds the level-beta layer of the tensor filtration, the minimal
    integer N making all a = -N c l / r integral, and b = N/r + a.  The
    coordinates of v_x in the adapted bases of the minimizer come from one
    integer coordinate change and are divided once, for the projection.
    The subquotient semistability inequality reduced_mu >= 0 is then
    sampled at random block filtrations, each drawn as a weighted basis
    (an invertible integer basis with a weight in -2..2 per vector) and
    scored in that basis, as the Kempf challenges are.  Every check raises
    SearchNotConverged when it fails.
    """
    if not M.is_destabilizing:
        raise ValueError("reduction needs a destabilizing result (c < 0)")
    comps = M.minimizer.components
    for F in comps:
        if any(l.denominator != 1 for l in F.jumps):
            raise ValueError("reduction needs integer jumps")
    _check_shapes(x, M.minimizer)
    n = len(comps)
    # coordinates of v_x in the product of adapted bases, tagged by level
    adapted = [_adapted(F) for F in comps]
    coords, scale = _scaled_coordinates(x, [(B.d, B.inv) for B in adapted])
    beta_q = _min_weight(x.shape, coords, [B.weights for B in adapted])
    if beta_q.denominator != 1:
        raise SearchNotConverged("the minimizer value at v_x is not an integer")
    beta = int(beta_q)
    c_tilde = M.c_tilde

    block_jumps = tuple(F.jumps for F in comps)
    block_ranks = tuple(F.multiplicities() for F in comps)

    N = 1
    for F in comps:
        N = N * F.dim // math.gcd(N, F.dim)
    for i, F in enumerate(comps):
        for lam in F.jumps:
            q = c_tilde * lam / F.dim
            N = N * q.denominator // math.gcd(N, q.denominator)
    a = tuple(
        tuple(int(-N * c_tilde * lam / F.dim) for lam in F.jumps)
        for F in comps
    )
    b = tuple(
        tuple(N // F.dim + aj for aj in arow) for F, arow in zip(comps, a)
    )
    for i in range(n):
        if sum(aj * rj for aj, rj in zip(a[i], block_ranks[i])) != 0:
            raise SearchNotConverged("sum of a_j r_j is not zero")
        if any(bj < 0 for bj in b[i]):
            raise SearchNotConverged("negative b_j")

    levels = [[F.jumps.index(w) for w in B.weights] for F, B in zip(comps, adapted)]
    positions: List[List[int]] = []
    for lv in levels:
        seen: Dict[int, int] = {}
        pos = []
        for j in lv:
            pos.append(seen.get(j, 0))
            seen[j] = seen.get(j, 0) + 1
        positions.append(pos)

    grouped: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
    for cval, idx in zip(coords, _cells(x.shape)):
        if not cval:
            continue
        g = tuple(levels[i][idx[i]] for i in range(n))
        if sum(comps[i].jumps[g[i]] for i in range(n)) != beta:
            continue
        t = tuple(positions[i][idx[i]] for i in range(n))
        cell = grouped.setdefault(g, {})
        cell[t] = cell.get(t, 0) + cval
    grouped = {
        g: {t: Fraction(v, scale) for t, v in m.items() if v} for g, m in grouped.items()
    }
    grouped = {g: m for g, m in grouped.items() if m}
    if not grouped:
        raise SearchNotConverged("the level-beta projection of the minimal layer is zero")
    groups = tuple(sorted(grouped))
    reduced = tuple(
        TensorPoint.from_map([block_ranks[i][g[i]] for i in range(n)], grouped[g])
        for g in groups
    )
    out = ReducedInstance(
        beta, M.minimizer, block_jumps, block_ranks, N, a, b, groups, reduced
    )

    rng = random.Random(rng_seed)
    for _ in range(samples):
        blocks = [[_draw_weighted(rng, rk, 2) for rk in block_ranks[i]] for i in range(n)]
        if _reduced_mu_weighted(out, blocks) < 0:
            raise SearchNotConverged("the reduced point failed a sampled block filtration")
    return out


def reduced_mu(R: ReducedInstance, blocks: Sequence[Sequence[Filtration]]) -> Fraction:
    """Weight sum b_j r_j E[G^(i,j)] - N * lambda of the reduced point at
    the block filtration tuple; nonnegative for all choices iff the
    reduced point is semistable for the graded group."""
    for i, per in enumerate(blocks):
        if len(per) != len(R.block_ranks[i]):
            raise ValueError("one block filtration per graded piece required")
        for j, G in enumerate(per):
            if G.dim != R.block_ranks[i][j]:
                raise ValueError("block dimension mismatch")
    return _reduced_mu_weighted(R, [[_adapted(G) for G in per] for per in blocks])


def _reduced_mu_weighted(R: ReducedInstance, blocks: Sequence[Sequence[_WeightedBasis]]) -> Fraction:
    """reduced_mu at the block filtrations given as weighted bases, scored
    in those bases: b_j r_j E[G^(i,j)] is b_j times the weight sum."""
    if not R.groups:
        raise ValueError("a reduced instance has at least one graded point")
    total = sum(
        (R.b[i][j] * sum(B.weights) for i, per in enumerate(blocks) for j, B in enumerate(per)),
        Fraction(0),
    )
    lam = min(
        _lambda_weighted(point, [blocks[i][gi] for i, gi in enumerate(g)])
        for g, point in zip(R.groups, R.reduced)
    )
    return total - R.N * lam


def reduced_is_semistable(R: ReducedInstance, rng_seed: int = 0) -> Verdict:
    """Decision for the reduced point under the graded group.

    In coordinates adapted to the blocks the weight of a one-parameter
    subgroup is a maximum of linear forms with gradients
    b_j - N [block coordinate hit by the support element], so the fixed
    basis decision is again a minimum-norm-point test, here in the
    standard inner product.  Blocks of rank one admit no basis freedom,
    which makes the coordinate test complete; otherwise random block
    bases are also tried.
    """
    n = len(R.block_ranks)
    dims: List[Tuple[int, int]] = []  # (i, j) in flat order
    for i, per in enumerate(R.block_ranks):
        for j, _ in enumerate(per):
            dims.append((i, j))
    offsets = {}
    at = 0
    for (i, j) in dims:
        offsets[(i, j)] = at
        at += R.block_ranks[i][j]
    D = at

    def decide(points_per_group: Sequence[TensorPoint]) -> bool:
        grads = []
        for g, point in zip(R.groups, points_per_group):
            for idx, _val in point.coords:
                vec = [Fraction(0)] * D
                for (i, j) in dims:
                    base = offsets[(i, j)]
                    for t in range(R.block_ranks[i][j]):
                        vec[base + t] = Fraction(R.b[i][j])
                for i in range(n):
                    vec[offsets[(i, g[i])] + idx[i]] -= R.N
                grads.append(tuple(vec))
        p = _min_norm_point(grads, [Fraction(1)] * D)
        return all(q == 0 for q in p)

    if not decide(R.reduced):
        return Verdict(False, None, "negative weight in block coordinates")
    if all(all(rk == 1 for rk in per) for per in R.block_ranks):
        return Verdict(True, None, "complete: all blocks have rank one")
    rng = random.Random(rng_seed)
    for _ in range(BLOCK_ROUNDS):
        transformed = []
        changes = {
            (i, j): _draw(rng, R.block_ranks[i][j])[1:]
            for (i, j) in dims
            if R.block_ranks[i][j] > 1
        }
        for g, point in zip(R.groups, R.reduced):
            # rank-one blocks keep their basis; decide reads only the
            # support, so the point is kept as the integer multiple
            # _scaled_coordinates returns
            coords, _ = _scaled_coordinates(
                point, [changes.get((i, gi), (1, [[1]])) for i, gi in enumerate(g)]
            )
            cmap = {idx: Fraction(v) for v, idx in zip(coords, _cells(point.shape)) if v}
            transformed.append(TensorPoint.from_map(point.shape, cmap))
        if not decide(transformed):
            return Verdict(False, None, "negative weight found in a random block basis")
    return Verdict(True, None, "no destabilizer found (search over block bases)")
