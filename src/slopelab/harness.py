"""Randomized verification campaigns for slope identities and bounds.

Each check draws reproducible random instances from a seeded generator,
decides the exact inequalities it names, and collects the results in a
machine-readable report.  Trials run one after another in index order,
each from its own generator, so a report depends only on the check and
its config, and any trial replays in isolation from (check, seed, index).
A failing trial carries its full inputs.  A trial that stops on a search
limit (SearchNotConverged) is reported inconclusive, and one whose exact
certificate breaks (CertificateError) is reported as a fail; both keep
the error text as the reason.  Decimal columns are exactnum.decimal_str
renderings of the exact values.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg as la
from .exactnum import LogValue, approximate, decimal_str, factorize, log_of
from .filtration import Filtration
from .gitstab import SearchNotConverged, TensorPoint, is_semistable, reduced_is_semistable, rr_reduce
from .lattice import (
    EXACT_RANK_LIMIT,
    CertificateError,
    HNResult,
    Lattice,
    Morphism,
    SubLattice,
    _mu_max_udeg,
    _scaled_sub_det,
    _udeg_of_shortest,
    degree,
    hn_filtration,
    is_saturated,
    morphism_height,
    mu_max,
    mu_min,
    saturate,
    short_vectors,
    slope,
    tensor,
)


@dataclass(frozen=True)
class TrialConfig:
    seed: int
    ranks: Tuple[int, ...]
    entry_bound: int = 3
    trials: int = 20
    tolerance_bits: int = 40

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if not self.ranks or any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be positive")
        if self.entry_bound < 1:
            raise ValueError("entry bound must be positive")
        if self.trials < 1:
            raise ValueError("at least one trial is required")
        if self.tolerance_bits < 1:
            raise ValueError("tolerance bits must be positive")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "ranks": list(self.ranks),
            "entry_bound": self.entry_bound,
            "trials": self.trials,
            "tolerance_bits": self.tolerance_bits,
        }


@dataclass(frozen=True)
class TrialOutcome:
    index: int
    verdict: str  # pass, fail, or inconclusive
    lhs: str
    rhs: str
    lhs_decimal: str
    rhs_decimal: str
    inputs: dict
    detail: dict

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "verdict": self.verdict,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "lhs_decimal": self.lhs_decimal,
            "rhs_decimal": self.rhs_decimal,
            "inputs": self.inputs,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TrialReport:
    check: str
    params: dict
    outcomes: Tuple[TrialOutcome, ...]

    @property
    def counts(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "inconclusive": 0}
        for o in self.outcomes:
            out[o.verdict] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    @property
    def failures(self) -> List[TrialOutcome]:
        return [o for o in self.outcomes if o.verdict == "fail"]

    @property
    def inconclusive_rate(self) -> Fraction:
        if not self.outcomes:
            return Fraction(0)
        return Fraction(self.counts["inconclusive"], len(self.outcomes))

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "counts": self.counts,
            "ok": self.ok,
            "inconclusive_rate": str(self.inconclusive_rate),
            "outcomes": [o.to_json() for o in self.outcomes],
        }

    def csv_rows(self) -> List[List[str]]:
        rows = [["check", "seed", "trial", "verdict", "lhs_decimal", "rhs_decimal", "lhs", "rhs"]]
        seed = str(self.params.get("seed", ""))
        for o in self.outcomes:
            rows.append(
                [self.check, seed, str(o.index), o.verdict, o.lhs_decimal, o.rhs_decimal, o.lhs, o.rhs]
            )
        return rows

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(self.csv_rows())
        return buf.getvalue()


def _outcome(i, verdict, lhs, rhs, inputs, detail) -> TrialOutcome:
    return TrialOutcome(i, verdict, str(lhs), str(rhs), decimal_str(lhs), decimal_str(rhs), inputs, detail)


def _run_trials(trials: int, trial: Callable[[int], TrialOutcome]) -> Tuple[TrialOutcome, ...]:
    outcomes = []
    for i in range(trials):
        try:
            outcomes.append(trial(i))
        except SearchNotConverged as exc:
            outcomes.append(TrialOutcome(i, "inconclusive", "", "", "", "", {}, {"reason": str(exc)}))
        except CertificateError as exc:
            outcomes.append(TrialOutcome(i, "fail", "", "", "", "", {}, {"reason": str(exc)}))
    return tuple(outcomes)


def _trial_rng(config: TrialConfig, index: int) -> random.Random:
    return random.Random("%d:%d" % (config.seed, index))


def random_lattice(rank: int, entry_bound: int, rng: random.Random) -> Lattice:
    """Gram matrix B^T B for a uniform nonsingular integer B."""
    if rank < 1:
        raise ValueError("rank must be positive")
    if entry_bound < 1:
        raise ValueError("entry bound must be positive")
    while True:
        B = [[rng.randint(-entry_bound, entry_bound) for _ in range(rank)] for _ in range(rank)]
        if la._int_det(B):
            break
    return Lattice.from_scaled(la.mat_mul(la.transpose(B), B))


# ---------------------------------------------------------------------------
# tensor slope bounds


def _tensor_product(factors: Sequence[Lattice]) -> Lattice:
    """The tensor product of the factors, folded pairwise in order."""
    return functools.reduce(tensor, factors)


def _slope_bound(factors: Sequence[Lattice]) -> LogValue:
    """sum_i (slope(L_i) + 1/2 log rk L_i), the bound of the reduction
    chain on the degree of a line in the tensor product."""
    bound = LogValue.zero()
    for L in factors:
        bound = bound + slope(L) + log_of(Fraction(L.rank), Fraction(1, 2))
    return bound


def tensor_slope_data(factors: Sequence[Lattice]) -> Dict[str, object]:
    """Maximal slope of the tensor product with its two-sided bounds, and
    under "factors" the maximal slope of each factor."""
    T = _tensor_product(factors)
    if T.rank > EXACT_RANK_LIMIT:
        raise ValueError("tensor rank exceeds the exact search limit")
    per = [mu_max(L)[0] for L in factors]
    lhs = mu_max(T)[0]
    lower = LogValue.zero()
    for m in per:
        lower = lower + m
    # sum_i (mu_max(L_i) + log rk L_i), with the logs of the ranks summed
    # as the log of their product: LogValues are exact, so the terms agree
    rhs = lower + log_of(math.prod(L.rank for L in factors))
    return {"lhs": lhs, "rhs": rhs, "lower": lower, "factors": per}


def check_main_theorem(config: TrialConfig) -> TrialReport:
    """Maximal tensor slope against the sum of shifted factor slopes.

    Each trial also exercises the rank-one equality path: twisting the
    first factor by a random line shifts its maximal slope by exactly
    the degree of the line.
    """
    if math.prod(config.ranks) > EXACT_RANK_LIMIT:
        raise ValueError("rank product exceeds the exact search limit")

    def trial(i: int) -> TrialOutcome:
        rng = _trial_rng(config, i)
        factors = [random_lattice(r, config.entry_bound, rng) for r in config.ranks]
        line = random_lattice(1, config.entry_bound, rng)
        data = tensor_slope_data(factors)
        twisted = mu_max(tensor(factors[0], line))[0]
        shifted = data["factors"][0] + degree(line)
        ok = data["lhs"] <= data["rhs"] and data["lower"] <= data["lhs"] and twisted == shifted
        inputs = {
            "factors": [L.to_json() for L in factors],
            "line": line.to_json(),
        }
        detail = {
            "lower": str(data["lower"]),
            "lower_decimal": decimal_str(data["lower"]),
            "line_twisted": str(twisted),
            "line_shifted": str(shifted),
        }
        return _outcome(i, "pass" if ok else "fail", data["lhs"], data["rhs"], inputs, detail)

    outcomes = _run_trials(config.trials, trial)
    return TrialReport("main_theorem", config.to_json(), outcomes)


def bk_bracket(L: Lattice) -> Dict[str, LogValue]:
    """Minkowski-type bracket: udeg <= mu_max <= udeg + half log rank."""
    m, _, shortest = _mu_max_udeg(L, EXACT_RANK_LIMIT)
    u = _udeg_of_shortest(shortest)[0]
    return {"udeg": u, "mu_max": m, "upper": u + log_of(Fraction(L.rank), Fraction(1, 2))}


def check_bost_kunnemann(config: TrialConfig) -> TrialReport:
    if max(config.ranks) > EXACT_RANK_LIMIT:
        raise ValueError("rank exceeds the exact search limit")

    def trial(i: int) -> TrialOutcome:
        rng = _trial_rng(config, i)
        rank = rng.choice(config.ranks)
        L = random_lattice(rank, config.entry_bound, rng)
        data = bk_bracket(L)
        ok = data["udeg"] <= data["mu_max"] <= data["upper"]
        detail = {"udeg": str(data["udeg"]), "udeg_decimal": decimal_str(data["udeg"])}
        return _outcome(
            i, "pass" if ok else "fail", data["mu_max"], data["upper"], L.to_json(), detail
        )

    outcomes = _run_trials(config.trials, trial)
    return TrialReport("bost_kunnemann", config.to_json(), outcomes)


# ---------------------------------------------------------------------------
# flag line bundles


def flag_line_degree(L: Lattice, members: Sequence[SubLattice], a: Sequence[int]) -> LogValue:
    """Degree of the flag line bundle, by the telescoping form
    sum_j (a_j - a_{j-1}) rank(E_j) (slope(E_j) - slope(E)).

    ``members`` lists the proper nonzero flag steps E_1 > ... > E_{d-1}
    in decreasing order; ``a`` is the strictly increasing weight vector,
    either with every entry divisible by rank(E) or with zero
    rank-weighted sum over the flag quotients.
    """
    return _flag_degree(L, members, _flag_dets(L, members), a)[0]


# the factored determinants of a flag: det(den G), then det(B_j^T den G B_j)
# for each member
_FlagDets = Tuple[List[Tuple[int, int]], List[List[Tuple[int, int]]]]


def _flag_dets(L: Lattice, members: Sequence[SubLattice]) -> _FlagDets:
    """The factored determinants of a checked flag: strictly decreasing
    ranks, saturated members of L, each inside the one before.  The Gram
    matrix is scaled to den G on integers once, and each determinant is
    taken on it by integer Bareiss and factored once."""
    dims = [L.rank] + [S.rank for S in members] + [0]
    if any(t >= s for s, t in zip(dims, dims[1:])):
        raise ValueError("flag members must strictly decrease in rank")
    for S in members:
        if S.ambient != L:
            raise ValueError("flag members must live in the given lattice")
        if not is_saturated(S):
            raise ValueError("flag members must be saturated")
    for big, small in zip(members, members[1:]):
        stacked = la.transpose(big.basis_rows) + la.transpose(small.basis_rows)
        if la.rank(stacked) != big.rank:
            raise ValueError("flag members must be nested")
    G = L.rows
    return factorize(la._int_det(G)), [factorize(_scaled_sub_det(G, S.basis_rows)) for S in members]


def _flag_degree(
    L: Lattice, members: Sequence[SubLattice], dets: _FlagDets, a: Sequence[int]
) -> Tuple[LogValue, int]:
    """(flag_line_degree, its sign) of a flag with dets = _flag_dets(L,
    members), after checking the weights a.

    With dL = det(den G), d_j = det(B_j^T den G B_j), r_j = rank E_j and
    r = rank E, slope(E_j) - slope(E) = log(dL) / 2r - log(d_j) / 2r_j, as
    den cancels.  So with t_j = a_j - a_{j-1} and E = sum_j t_j r_j,

        2r * value = log(dL^E / prod_j d_j^(r t_j)),

    whose exponent of each prime is summed on integers.  The sign is that
    of num - dnm, for num and dnm the products of the prime powers with
    positive and with negative exponents."""
    d = len(members) + 1
    a = [int(x) for x in a]
    if len(a) != d:
        raise ValueError("need one weight per flag quotient")
    if any(y <= x for x, y in zip(a, a[1:])):
        raise ValueError("weights must be strictly increasing")
    r = L.rank
    dims = [r] + [S.rank for S in members] + [0]
    quot = [dims[j] - dims[j + 1] for j in range(d)]
    if any(x % r for x in a) and sum(q * x for q, x in zip(quot, a)) != 0:
        raise ValueError("weights must be rank multiples or have zero weighted sum")
    whole, parts = dets
    exps: Dict[int, int] = {}
    E = 0
    for j in range(1, d):
        t = a[j] - a[j - 1]
        E += t * dims[j]
        for p, e in parts[j - 1]:
            exps[p] = exps.get(p, 0) - r * t * e
    for p, e in whole:
        exps[p] = exps.get(p, 0) + E * e
    num = dnm = 1
    terms = []
    for p in sorted(exps):
        e = exps[p]
        if e > 0:
            num *= p**e
        elif e < 0:
            dnm *= p**-e
        if e:
            terms.append((p, Fraction(e, 2 * r)))
    return LogValue(tuple(terms)), (num > dnm) - (num < dnm)


@functools.lru_cache(maxsize=None)
def _weight_vectors(quot: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The weight vectors check_bogomolov tries on a flag with quotient
    ranks quot, in order, built once per quot: the increasing vectors over
    -4..4 with zero rank-weighted sum, then the increasing rank multiples
    -2r..2r not already listed."""
    r = sum(quot)
    seen = {a: None for a in itertools.combinations(range(-4, 5), len(quot)) if sum(map(mul, quot, a)) == 0}
    for a in itertools.combinations([r * t for t in range(-2, 3)], len(quot)):
        seen.setdefault(a)
    return tuple(seen)


def _random_flag(L: Lattice, rng: random.Random) -> Optional[List[SubLattice]]:
    vectors = []
    for _ in range(L.rank - 1):
        v = [rng.randint(-2, 2) for _ in range(L.rank)]
        if any(v):
            vectors.append(v)
    if not vectors:
        return None
    members = []
    for k in range(len(vectors), 0, -1):
        cols = vectors[:k]
        if la.rank(cols) != k or k >= L.rank:
            continue
        S = saturate(SubLattice.from_columns(L, [list(c) for c in cols]))
        if members and members[-1].rank <= S.rank:
            continue
        members.append(S)
    return members or None


def check_bogomolov(L: Lattice, flag_budget: int = 10, seed: int = 0) -> TrialReport:
    """Sign test for flag line bundle degrees on one lattice.

    Semistable lattices must give a nonpositive degree for every
    enumerated flag and weight vector; unstable ones must expose a
    strictly positive value on the two-step witness flag built from the
    maximal destabilizing subbundle.
    """
    if L.rank > EXACT_RANK_LIMIT:
        raise ValueError("rank exceeds the exact search limit")
    params = {"seed": seed, "flag_budget": flag_budget, "rank": L.rank}
    zero = LogValue.zero()
    inputs = L.to_json()
    outcomes = tuple(
        _outcome(
            i,
            verdict,
            value,
            zero,
            inputs,
            {"flag": [S.basis_rows for S in flag], "a": list(a), "expect": expect},
        )
        for i, (verdict, value, flag, a, expect) in enumerate(
            _bogomolov(L, hn_filtration(L), flag_budget, seed)
        )
    )
    return TrialReport("bogomolov", params, outcomes)


# (verdict, value, flag, weights, expectation) of one flag degree
_Evaluation = Tuple[str, LogValue, List[SubLattice], Tuple[int, ...], str]


def _bogomolov(L: Lattice, hn: HNResult, flag_budget: int, seed: int) -> List[_Evaluation]:
    """The evaluations of check_bogomolov on the HN filtration hn of L,
    unrendered."""
    rng = random.Random("bogomolov:%d" % seed)
    evaluations: List[_Evaluation] = []

    if not hn.is_semistable:
        members = [hn.chain[0]]
        a = (0, L.rank)
        value, sign = _flag_degree(L, members, _flag_dets(L, members), a)
        evaluations.append(("pass" if sign > 0 else "fail", value, members, a, "lhs > rhs"))

    flags: List[List[SubLattice]] = []
    if len(hn.chain) > 1:
        flags.append([S for S in reversed(hn.chain[:-1])])
    for _ in range(12):
        if len(flags) >= 3 or L.rank == 1:
            break
        extra = _random_flag(L, rng)
        if extra is not None and all(
            [S.basis_rows for S in extra] != [S.basis_rows for S in flag] for flag in flags
        ):
            flags.append(extra)

    for flag in flags:
        if len(evaluations) >= 3 * flag_budget:
            break
        dets = _flag_dets(L, flag)
        quot_dims = [L.rank] + [S.rank for S in flag] + [0]
        quot = tuple(quot_dims[j] - quot_dims[j + 1] for j in range(len(flag) + 1))
        for a in _weight_vectors(quot)[:flag_budget]:
            if len(evaluations) >= 3 * flag_budget:
                break
            value, sign = _flag_degree(L, flag, dets, a)
            if hn.is_semistable:
                evaluations.append(("pass" if sign <= 0 else "fail", value, flag, a, "lhs <= rhs"))
            else:
                evaluations.append(("pass", value, flag, a, "none"))
    return evaluations


def check_bogomolov_campaign(config: TrialConfig) -> TrialReport:
    """One Bogomolov sign test per random lattice; only the first
    evaluation's value is rendered."""
    if max(config.ranks) > EXACT_RANK_LIMIT:
        raise ValueError("rank exceeds the exact search limit")

    def trial(i: int) -> TrialOutcome:
        rng = _trial_rng(config, i)
        rank = rng.choice(config.ranks)
        L = random_lattice(rank, config.entry_bound, rng)
        hn = hn_filtration(L)
        evaluations = _bogomolov(L, hn, 8, rng.getrandbits(32))
        counts = {"pass": 0, "fail": 0, "inconclusive": 0}
        for evaluation in evaluations:
            counts[evaluation[0]] += 1
        verdict = "pass" if counts["fail"] == 0 else "fail"
        if evaluations:
            first = evaluations[0][1]
            lhs, lhs_dec = str(first), decimal_str(first)
        else:
            lhs, lhs_dec = "0", "0.000000000"
        detail = {
            "semistable": hn.is_semistable,
            "evaluations": len(evaluations),
            "counts": counts,
        }
        return TrialOutcome(i, verdict, lhs, "0", lhs_dec, "0.000000000", L.to_json(), detail)

    outcomes = _run_trials(config.trials, trial)
    return TrialReport("bogomolov_campaign", config.to_json(), outcomes)


# ---------------------------------------------------------------------------
# slope inequalities under morphisms


def check_slope_inequalities(config: TrialConfig) -> TrialReport:
    """Slope bounds through a nonzero morphism phi: E -> F.

    Uses the certified upper end of the height bracket, so a violation is
    a genuine failure: morphism_height raises CertificateError, a reported
    fail, rather than return a bracket wider than the tolerance.
    """
    if max(config.ranks) > EXACT_RANK_LIMIT:
        raise ValueError("rank exceeds the exact search limit")

    def trial(i: int) -> TrialOutcome:
        rng = _trial_rng(config, i)
        rank_e = rng.choice(config.ranks)
        rank_f = rng.choice(config.ranks)
        E = random_lattice(rank_e, config.entry_bound, rng)
        F = random_lattice(rank_f, config.entry_bound, rng)
        while True:
            rows = [
                [rng.randint(-config.entry_bound, config.entry_bound) for _ in range(rank_e)]
                for _ in range(rank_f)
            ]
            if any(any(row) for row in rows):
                break
        phi = Morphism.from_rows(E, F, rows)
        h = morphism_height(phi, config.tolerance_bits)
        rhs = mu_max(F)[0] + h.upper
        lhs = mu_min(E)
        injective = la.rank(rows) == rank_e
        ok = lhs <= rhs
        detail = {
            "height_upper": str(h.upper),
            "height_lower": str(h.lower),
            "injective": injective,
        }
        if injective:
            mu_e = slope(E)
            detail["slope"] = str(mu_e)
            ok = ok and mu_e <= rhs
        return _outcome(i, "pass" if ok else "fail", lhs, rhs, {"phi": phi.to_json()}, detail)

    outcomes = _run_trials(config.trials, trial)
    return TrialReport("slope_inequalities", config.to_json(), outcomes)


# ---------------------------------------------------------------------------
# the reduction chain


def _unflatten_index(flat: int, ranks: Sequence[int]) -> Tuple[int, ...]:
    out = []
    for r in reversed(ranks):
        out.append(flat % r)
        flat //= r
    return tuple(reversed(out))


def _primitive_candidates(T: Lattice, radius: Fraction) -> List[Tuple[int, ...]]:
    """The primitive vectors among the short vectors of T within radius,
    in enumeration order."""
    return [v for v, _ in short_vectors(T, radius) if math.gcd(*v) == 1]


def _filtration_members(L: Lattice, F: Filtration) -> List[SubLattice]:
    return [
        saturate(SubLattice.from_columns(L, la._scaled_rows(F.member_rows(j))[0]))
        for j in range(1, F.depth)
    ]


def reduction_chain_instance(
    factors: Sequence[Lattice], vector: Sequence[int], rng_seed: int = 0
) -> dict:
    """line-subbundle bound analysis for one primitive tensor vector.

    Returns the exact degree of the generated line, the bound, the
    branch taken (semistable or reduced), and for the reduced branch the
    telescoping, middle, and final inequalities of the chain.
    """
    ranks = [L.rank for L in factors]
    # the norm in the tensor product: v^T kron(rows_i) v / prod den_i
    rows = functools.reduce(la.kron, [L.rows for L in factors])
    norm_sq = Fraction(sum(map(mul, vector, la.mat_vec(rows, vector))), math.prod(L.den for L in factors))
    deg = log_of(norm_sq, Fraction(-1, 2))
    rhs = _slope_bound(factors)
    coords = {
        _unflatten_index(t, ranks): Fraction(c) for t, c in enumerate(vector) if c
    }
    x = TensorPoint.from_map(tuple(ranks), coords)
    verdict = is_semistable(x, rng_seed=rng_seed)
    record = {
        "vector": [int(c) for c in vector],
        "norm_sq": norm_sq,
        "degree": deg,
        "bound": rhs,
        "bound_holds": deg <= rhs,
        "branch": "semistable" if verdict.semistable else "reduced",
    }
    if verdict.semistable:
        return record
    R = rr_reduce(x, verdict.witness)
    telescoping = []
    tele_sum = LogValue.zero()
    for L, F, a in zip(factors, R.minimizer.components, R.a):
        members = _filtration_members(L, F)
        t_i = flag_line_degree(L, members, a)
        telescoping.append(t_i)
        tele_sum = tele_sum + t_i
    middle = tele_sum.scaled(Fraction(1, R.N))
    for L, block_ranks, b in zip(factors, R.block_ranks, R.b):
        middle = middle + slope(L)
        for r_j, b_j in zip(block_ranks, b):
            middle = middle + log_of(Fraction(r_j), Fraction(r_j * b_j, 2 * R.N))
    record.update(
        {
            "N": R.N,
            "a": [list(t) for t in R.a],
            "b": [list(t) for t in R.b],
            "telescoping": telescoping,
            "telescoping_nonpositive": all(t <= LogValue.zero() for t in telescoping),
            "middle": middle,
            "middle_holds": deg <= middle,
            "middle_below_bound": middle <= rhs,
            "reduced_semistable": reduced_is_semistable(R).semistable,
        }
    )
    return record


def check_reduction_chain(config: TrialConfig) -> TrialReport:
    """Degree bound for every enumerated line subbundle of a tensor
    product of semistable factors.

    The enumeration radius certifies coverage of all lines with degree
    at least the bound minus a margin of log 2; shorter-degree lines
    satisfy the bound a fortiori.  Unstable generic fibers are pushed
    through the graded reduction and the middle inequality of the chain
    is re-asserted exactly.
    """
    if math.prod(config.ranks) > EXACT_RANK_LIMIT:
        raise ValueError("rank product exceeds the exact search limit")

    def trial(i: int) -> TrialOutcome:
        rng = _trial_rng(config, i)
        factors = []
        for r in config.ranks:
            for _ in range(400):
                L = random_lattice(r, config.entry_bound, rng)
                if hn_filtration(L).is_semistable:
                    factors.append(L)
                    break
            else:
                raise SearchNotConverged(f"no semistable rank-{r} factor in 400 draws")
        T = _tensor_product(factors)
        rhs = _slope_bound(factors)
        margin = log_of(Fraction(2))
        box = approximate((rhs - margin).scaled(Fraction(-2)), 20)
        radius = Fraction(max(1, math.ceil(math.exp(float(box.hi)) * 2)))
        records = []
        worst: Optional[LogValue] = None
        ok = True
        for prim in _primitive_candidates(T, radius):
            rec = reduction_chain_instance(factors, prim, rng_seed=config.seed)
            ok = ok and rec["bound_holds"]
            if rec["branch"] == "reduced":
                ok = ok and rec["telescoping_nonpositive"]
                ok = ok and rec["middle_holds"] and rec["middle_below_bound"]
            if worst is None or rec["degree"] > worst:
                worst = rec["degree"]
            records.append(
                {
                    "vector": rec["vector"],
                    "degree": str(rec["degree"]),
                    "branch": rec["branch"],
                    "middle": str(rec["middle"]) if "middle" in rec else "",
                }
            )
        inputs = {"factors": [L.to_json() for L in factors]}
        detail = {
            "radius": str(radius),
            "margin": str(margin),
            "subbundles": records,
        }
        lhs = worst if worst is not None else rhs - margin
        if worst is None:
            detail["note"] = "no candidate lines within the coverage radius"
        return _outcome(i, "pass" if ok else "fail", lhs, rhs, inputs, detail)

    outcomes = _run_trials(config.trials, trial)
    return TrialReport("reduction_chain", config.to_json(), outcomes)
