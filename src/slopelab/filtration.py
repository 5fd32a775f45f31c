"""Decreasing filtrations of rational vector spaces with rational jumps.

A filtration is stored as its flag of distinct subspaces together with
the strictly increasing jump values: V = V_0 > V_1 > ... > V_d = 0 with
jumps l_0 < ... < l_{d-1}, where F_l V is the union of the V_i with
l_i >= l.  Flags keep canonical reduced-echelon bases so that equality
of filtrations is plain structural equality.  The same canonical rows
make membership tests elimination-free: the pivots are read off the
rows, and a vector lies in a member iff reducing it by those rows
leaves zero.  The scalar product needs only the ranks of the pairs of
members, not a basis, so a filtration given by a basis and one weight per
vector is paired without being built (scalar_product_with_basis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg as la
from .exactnum import AlgValue, rat_from_str, rat_to_str

Rows = Tuple[Tuple[Fraction, ...], ...]


def _freeze(rows: la.Matrix) -> Rows:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _pivots(rows: Rows) -> List[int]:
    """Pivot columns of echelon rows: the first nonzero entry of each."""
    return [next(c for c, x in enumerate(row) if x != 0) for row in rows]


def _is_canonical(member) -> bool:
    """Whether member is a tuple of tuples in reduced row echelon form:
    no zero row, strictly increasing pivots, each pivot column a unit
    vector.  These are exactly the rows that la.rref returns unchanged."""
    if not isinstance(member, tuple) or not all(isinstance(r, tuple) for r in member):
        return False
    if any(all(x == 0 for x in row) for row in member):
        return False
    piv = _pivots(member)
    if any(b <= a for a, b in zip(piv, piv[1:])):
        return False
    return all(
        other[p] == int(t == k)
        for k, p in enumerate(piv)
        for t, other in enumerate(member)
    )


@dataclass(frozen=True)
class Filtration:
    dim: int
    jumps: Tuple[Fraction, ...]
    flag: Tuple[Rows, ...]  # proper members V_1 > ... > V_{d-1}

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("filtration needs a positive dimension")
        if not self.jumps:
            raise ValueError("at least one jump required")
        if any(b <= a for a, b in zip(self.jumps, self.jumps[1:])):
            raise ValueError("jumps must be strictly increasing")
        if len(self.flag) != len(self.jumps) - 1:
            raise ValueError("flag must list one member per jump after the first")
        prev: Optional[Rows] = None
        prev_dim = self.dim
        for member in self.flag:
            if any(len(r) != self.dim for r in member):
                raise ValueError("flag member of wrong ambient dimension")
            if not _is_canonical(member):
                raise ValueError("flag members must be canonical echelon bases")
            if not 0 < len(member) < prev_dim:
                raise ValueError("flag ranks must strictly decrease and stay proper")
            if prev is not None:
                piv = _pivots(prev)
                for row in member:
                    if not la.row_space_contains(prev, piv, row):
                        raise ValueError("flag members must be nested")
            prev, prev_dim = member, len(member)

    @property
    def depth(self) -> int:
        return len(self.jumps)

    def member_rows(self, i: int) -> la.Matrix:
        """Basis rows of V_i; V_0 is the whole space, V_depth is zero."""
        if i <= 0:
            return [[Fraction(int(a == b)) for b in range(self.dim)] for a in range(self.dim)]
        if i >= self.depth:
            return []
        return [list(r) for r in self.flag[i - 1]]

    def member_dim(self, i: int) -> int:
        if i <= 0:
            return self.dim
        if i >= self.depth:
            return 0
        return len(self.flag[i - 1])

    def multiplicities(self) -> Tuple[int, ...]:
        return tuple(
            self.member_dim(i) - self.member_dim(i + 1) for i in range(self.depth)
        )

    @property
    def is_trivial(self) -> bool:
        return self.depth == 1 and self.jumps[0] == 0

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "jumps": [rat_to_str(x) for x in self.jumps],
            "flag": [
                [[rat_to_str(x) for x in row] for row in member]
                for member in self.flag
            ],
        }

    @staticmethod
    def from_json(payload: dict) -> "Filtration":
        jumps = [rat_from_str(str(x)) for x in payload["jumps"]]
        flag = [
            [[rat_from_str(str(x)) for x in row] for row in member]
            for member in payload["flag"]
        ]
        return make(int(payload["dim"]), flag, jumps)


@dataclass(frozen=True)
class FiltrationTuple:
    components: Tuple[Filtration, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a filtration tuple needs at least one component")

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(F.dim for F in self.components)

    def to_json(self) -> list:
        return [F.to_json() for F in self.components]

    @staticmethod
    def from_json(payload: list) -> "FiltrationTuple":
        return FiltrationTuple(tuple(Filtration.from_json(p) for p in payload))


@dataclass(frozen=True)
class CompatibleBasis:
    vectors: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.vectors)
        if n == 0 or any(len(v) != n for v in self.vectors):
            raise ValueError("basis must be square")
        if la.rank([list(v) for v in self.vectors]) != n:
            raise ValueError("basis vectors must be independent")


# ---------------------------------------------------------------------------
# construction


def make(dim: int, flag, jumps) -> Filtration:
    """Validated filtration from proper flag members V_1, ..., V_{d-1}.

    Flag bases may be any spanning rows; they are put in canonical
    echelon form here.
    """
    jumps = tuple(Fraction(x) for x in jumps)
    canon = []
    for member in flag:
        rows, _ = la.rref(la.frac_rows([list(r) for r in member]))
        canon.append(_freeze(rows))
    return Filtration(dim, jumps, tuple(canon))


def trivial(dim: int) -> Filtration:
    return Filtration(dim, (Fraction(0),), ())


def from_weighted_basis(vectors, weights) -> Filtration:
    """Filtration whose value at each basis vector is the given weight."""
    vecs = la.frac_rows([list(v) for v in vectors])
    ws = [Fraction(w) for w in weights]
    n = len(vecs)
    if len(ws) != n or (n and len(vecs[0]) != n):
        raise ValueError("need a square basis with one weight per vector")
    if la.rank(vecs) != n:
        raise ValueError("vectors must form a basis")
    jumps = sorted(set(ws))
    flag = []
    for lam in jumps[1:]:
        rows = [vecs[t] for t in range(n) if ws[t] >= lam]
        flag.append([list(r) for r in rows])
    return make(n, flag, jumps)


# ---------------------------------------------------------------------------
# evaluation


def expectation(F: Filtration) -> Fraction:
    total = sum(
        Fraction(m) * lam for m, lam in zip(F.multiplicities(), F.jumps)
    )
    return total / F.dim


def lambda_of(F: Filtration, v: Sequence) -> "Fraction | float":
    """Largest jump whose member contains v; +infinity at the origin."""
    vec = [Fraction(x) for x in v]
    if len(vec) != F.dim:
        raise ValueError("vector dimension mismatch")
    if all(x == 0 for x in vec):
        return math.inf
    for i in range(F.depth - 1, 0, -1):
        rows = F.flag[i - 1]
        if la.row_space_contains(rows, _pivots(rows), vec):
            return F.jumps[i]
    return F.jumps[0]


def dilate(F: Filtration, eps) -> Filtration:
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("dilation factor must be positive")
    return Filtration(F.dim, tuple(eps * l for l in F.jumps), F.flag)


# ---------------------------------------------------------------------------
# adapted bases, sums, tensors


def _extend(base: la.Matrix, candidates: la.Matrix) -> la.Matrix:
    """Rows of candidates that greedily enlarge the span of base."""
    picked: la.Matrix = []
    span, piv = la.rref(base) if base else ([], [])
    for cand in candidates:
        if not la.row_space_contains(span, piv, cand):
            picked.append(list(cand))
            span, piv = la.rref(span + [picked[-1]])
    return picked


def adapted_basis(F: Filtration) -> List[Tuple[Tuple[Fraction, ...], Fraction]]:
    """Deterministic compatible basis listed deepest member first,
    paired with the filtration value of each vector."""
    acc: la.Matrix = []
    out: List[Tuple[Tuple[Fraction, ...], Fraction]] = []
    for i in range(F.depth - 1, -1, -1):
        for row in _extend(acc, F.member_rows(i)):
            out.append((tuple(row), F.jumps[i]))
            acc.append(row)
    if len(acc) != F.dim:
        raise RuntimeError(f"adapted basis has {len(acc)} vectors in dimension {F.dim}")
    return out


def direct_sum(parts: Sequence[Filtration]) -> Filtration:
    if not parts:
        raise ValueError("direct sum of an empty list")
    total = sum(F.dim for F in parts)
    vecs, ws = [], []
    offset = 0
    for F in parts:
        for v, w in adapted_basis(F):
            vecs.append(
                [Fraction(0)] * offset + list(v) + [Fraction(0)] * (total - offset - F.dim)
            )
            ws.append(w)
        offset += F.dim
    return from_weighted_basis(vecs, ws)


def tensor(parts: Sequence[Filtration]) -> Filtration:
    """Tensor product filtration; on a product compatible basis the value
    of a pure tensor is the sum of the component values."""
    if not parts:
        raise ValueError("tensor of an empty list")
    vecs = [[Fraction(1)]]
    ws = [Fraction(0)]
    for F in parts:
        base = adapted_basis(F)
        vecs = [
            [x * y for x in v for y in list(u)] for v in vecs for u, _ in base
        ]
        ws = [w + a for w in ws for _, a in base]
    return from_weighted_basis(vecs, ws)


# ---------------------------------------------------------------------------
# scalar product


def scalar_product(F: Filtration, G: Filtration) -> Fraction:
    """(1/r) sum of lambda_F(e) lambda_G(e) over a common compatible
    basis, computed from ranks alone (see _pairing_from_ranks)."""
    if F.dim != G.dim:
        raise ValueError("dimension mismatch")
    return _pairing_from_ranks(F, G.jumps, G.flag)


def scalar_product_with_basis(F: Filtration, vectors, weights) -> Fraction:
    """scalar_product(F, from_weighted_basis(vectors, weights)) without
    building the second filtration: its member at each jump mu is spanned
    by the vectors of weight >= mu, and a rank needs no echelon form.  The
    vectors must form a basis of the space of F."""
    if len(vectors) != F.dim or len(weights) != F.dim:
        raise ValueError("need a basis of the space with one weight per vector")
    jumps = sorted(set(weights))
    members = [[v for v, w in zip(vectors, weights) if w >= mu] for mu in jumps[1:]]
    return _pairing_from_ranks(F, jumps, members)


def _pairing_from_ranks(F: Filtration, mus: Sequence, members: Sequence) -> Fraction:
    """Scalar product of F with the filtration G of the same space whose
    jumps are mus and whose proper members W_1 > ... > W_{e-1} are spanned
    by the independent rows of members.

    A common compatible basis has dim gr^F_i gr^G_j vectors in cell
    (i, j), each of value lambda_i mu_j, so the sum is
    (1/r) sum_ij lambda_i mu_j (d_ij - d_{i+1,j} - d_{i,j+1} + d_{i+1,j+1})
    with d_ij = dim(V_i meet W_j).  That is min(dim V_i, dim W_j) when
    either member is the whole space, 0 when either is zero, and
    dim V_i + dim W_j - rank[V_i; W_j] otherwise: one rank per pair of
    proper members.
    """
    n, e = F.dim, len(mus)
    w_dim = [n] + [len(m) for m in members] + [0]
    d = {}
    for i in range(F.depth + 1):
        for j in range(e + 1):
            a, b = F.member_dim(i), w_dim[j]
            if i == 0 or j == 0:
                d[(i, j)] = min(a, b)
            elif i == F.depth or j == e:
                d[(i, j)] = 0
            else:
                d[(i, j)] = a + b - la.rank([*F.flag[i - 1], *members[j - 1]])
    total = Fraction(0)
    for i, lam in enumerate(F.jumps):
        row = sum(
            (d[(i, j)] - d[(i + 1, j)] - d[(i, j + 1)] + d[(i + 1, j + 1)]) * mu
            for j, mu in enumerate(mus)
        )
        if row:
            total += lam * row
    return total / n


def norm_squared(F: Filtration) -> Fraction:
    total = sum(
        Fraction(m) * lam * lam for m, lam in zip(F.multiplicities(), F.jumps)
    )
    return total / F.dim


def norm(F: Filtration) -> AlgValue:
    return AlgValue.sqrt_of(norm_squared(F))
