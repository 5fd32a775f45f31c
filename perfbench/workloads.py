"""The three benchmark workloads: inputs from a seed, one item, its check.

Every workload is a closed loop: one process runs one item at a time.
Inputs come in blocks of fixed composition, and a run always ends on a
block boundary, so the mix of item kinds is the same in every run and on
every seed; only the random contents of each item change with the seed.

The benchmark drives slopelab only through public functions of
``harness``, ``lattice`` and ``gitstab``.  ``invariants`` and ``cli`` are
deliberately not measured: no ROADMAP workload drives them.

Each item's check re-derives the certified inequalities outside the
package (``decimal`` logarithms, Fraction arithmetic on the returned
filtrations), and its digest covers the exact outputs, so that a faster
program can be shown to return identical results.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

WHY = {
    "tensor_mu_max": (
        "The paper's main theorem, mu_max of a tensor product against the "
        "factor slopes. It puts linalg.gram_lll on the blocking path, on "
        "compound matrices up to dimension 20, with short_vectors_gram, "
        "lattice.mu_max and exactnum.compare; it never touches filtration "
        "or gitstab. Rank-4 items set p50, where LogValue and compare "
        "overhead has the biggest share; rank-6 items set p90, where the "
        "O(n^4) GSO cost shows."
    ),
    "kempf_reduce": (
        "Kempf minimizers and Ramanan-Ramanathan reduction. Time goes to the "
        "challenge loop (filtration.scalar_product -> common_compatible_basis "
        "-> linalg.rref) and to the min-norm subset search "
        "(linalg.solve_square), with zero LLL or enumeration. About a third "
        "of the points are semistable and skip the challenge loop; support "
        "size varies the min-norm work. Every shape stays at or below 9 "
        "support cells, under the 14-gradient cap."
    ),
    "verify_campaigns": (
        "The five slopelab verify campaigns through the harness API, each "
        "report rendered to JSON and CSV as the CLI does. The only workload "
        "through harness._run_trials, the trial scheduler; it uses lattice "
        "differently (hn_filtration, mu_min, quotients, morphism_height "
        "brackets) and exactnum differently (approximate for decimal "
        "renderings). It carries acceptance criterion 9, the reduction chain, "
        "which takes about a third of the workload's time."
    ),
}

NOT_MEASURED = {
    "invariants": "no ROADMAP workload drives it",
    "cli": "no ROADMAP workload drives it; verify_campaigns renders reports the way cli._verify does",
}

# Seeds whose per-item output digests are recorded in reference.json.
DEFAULT_SEED = {"tensor_mu_max": 10003, "kempf_reduce": 10005, "verify_campaigns": 10009}

MIN_ITEMS = 100  # a timed run has at least this many, so p90 leaves ten beyond it
DIGEST_ITEMS = 100  # the printed run digest covers this many leading items


# ---------------------------------------------------------------------------
# independent re-check of LogValue inequalities


def _terms_of(value) -> Dict[int, Fraction]:
    """Prime -> coefficient map of a LogValue or of its str() rendering."""
    if not isinstance(value, str):
        return dict(value.terms)
    out: Dict[int, Fraction] = {}
    if value.strip() == "0":
        return out
    for part in value.replace(" - ", " + -").split(" + "):
        coef, rest = part.split("*log(")
        out[int(rest.rstrip(")"))] = Fraction(coef)
    return out


def log_leq(a, b) -> bool:
    """a <= b for values sum c_p log p, decided with 60-digit decimal logs.

    Raises ValueError when the difference is nonzero but too small to
    decide at that precision, which no workload input comes near.
    """
    diff = _terms_of(b)
    for p, c in _terms_of(a).items():
        diff[p] = diff.get(p, Fraction(0)) - c
    diff = {p: c for p, c in diff.items() if c}
    if not diff:
        return True
    with localcontext() as ctx:
        ctx.prec = 60
        total = sum(
            (Decimal(c.numerator) / Decimal(c.denominator) * Decimal(p).ln() for p, c in diff.items()),
            Decimal(0),
        )
    if abs(total) < Decimal(10) ** -40:
        raise ValueError("difference too close to zero to decide")
    return total > 0


def digest(payload) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Item:
    """Outcome of one item: 'ok', 'error' or 'inconclusive', its digest,
    and a reason when it is not ok."""

    __slots__ = ("status", "digest", "reason")

    def __init__(self, status: str, digest_hex: str = "", reason: str = "") -> None:
        self.status = status
        self.digest = digest_hex
        self.reason = reason


# ---------------------------------------------------------------------------
# tensor_mu_max


class TensorMuMax:
    """One item is harness.tensor_slope_data([A, B]) for a lattice pair of
    ranks (2,2), or (2,3) in one item of every five; entries bounded by 3."""

    name = "tensor_mu_max"
    block = 5
    min_items = MIN_ITEMS
    trace_items = 25
    n_inputs = 600
    witness_items = 10  # leading items whose digest also covers mu_max witnesses

    def __init__(self, sl) -> None:
        self.harness = sl.harness
        self.lattice = sl.lattice

    def inputs(self, seed: int) -> List[tuple]:
        rng = random.Random("tensor_mu_max:%d" % seed)
        out = []
        for _ in range(self.n_inputs // self.block):
            big = rng.randrange(self.block)
            for k in range(self.block):
                rb = 3 if k == big else 2
                A = self.harness.random_lattice(2, 3, rng)
                B = self.harness.random_lattice(rb, 3, rng)
                out.append((A, B))
        return out

    def run(self, pair):
        return self.harness.tensor_slope_data(list(pair))

    def check(self, index: int, pair, data) -> Item:
        lower, lhs, rhs = data["lower"], data["lhs"], data["rhs"]
        payload = [str(lower), str(lhs), str(rhs)]
        if index < self.witness_items:
            value, witness = self.lattice.mu_max(self.lattice.tensor(*pair))
            payload += [str(value), witness.basis_rows]
        d = digest(payload)
        if not (log_leq(lower, lhs) and log_leq(lhs, rhs)):
            return Item("error", d, "lower <= lhs <= rhs does not hold")
        return Item("ok", d)


# ---------------------------------------------------------------------------
# kempf_reduce


def _expectation(F) -> Fraction:
    return sum((m * lam for m, lam in zip(F.multiplicities(), F.jumps)), Fraction(0)) / F.dim


def _norm_squared(F) -> Fraction:
    return sum((m * lam * lam for m, lam in zip(F.multiplicities(), F.jumps)), Fraction(0)) / F.dim


class KempfReduce:
    """One item is gitstab.is_semistable(x); an unstable point also runs
    rr_reduce and reduced_is_semistable.  A block holds one point of each
    (shape, support size) in KINDS, with random support cells and entries
    in +-{1,2,3}."""

    name = "kempf_reduce"
    # Supports run from one cell to dense.  (2,3) points and single cells
    # are always unstable, three cells of a (2,2) always semistable, so
    # about a third of a block is semistable whatever the seed, and the
    # median item falls among the single-cell and two-cell (2,2,2) points
    # rather than on the edge between two latency clusters.
    KINDS = (
        ((2, 2), 1), ((2, 2), 3),
        ((2, 3), 1), ((2, 3), 3), ((2, 3), 6),
        ((3, 3), 1), ((3, 3), 3), ((3, 3), 9),
        ((2, 2, 2), 1), ((2, 2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2), 8),
    )
    block = len(KINDS)
    min_items = MIN_ITEMS
    trace_items = block
    n_inputs = 30 * block

    def __init__(self, sl) -> None:
        self.gitstab = sl.gitstab

    def inputs(self, seed: int) -> list:
        rng = random.Random("kempf_reduce:%d" % seed)
        out = []
        for _ in range(self.n_inputs // self.block):
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            for shape, size in kinds:
                cells = list(itertools.product(*[range(r) for r in shape]))
                coords = {c: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for c in rng.sample(cells, size)}
                out.append(self.gitstab.TensorPoint.from_map(shape, coords))
        return out

    def run(self, x):
        verdict = self.gitstab.is_semistable(x)
        if verdict.semistable:
            return verdict, None, None
        R = self.gitstab.rr_reduce(x, verdict.witness)
        return verdict, R, self.gitstab.reduced_is_semistable(R)

    def check(self, index: int, x, out) -> Item:
        verdict, R, reduced = out
        if verdict.semistable:
            ok = verdict.witness is None
            return Item("ok" if ok else "error", digest({"semistable": True}), "" if ok else "witness on a semistable verdict")
        W = verdict.witness
        payload = {
            "semistable": False,
            "c": W.c.to_json(),
            "N": R.N,
            "a": [list(row) for row in R.a],
            "b": [list(row) for row in R.b],
            "reduced_semistable": reduced.semistable,
        }
        d = digest(payload)
        comps = W.minimizer.components
        norm_sq = sum((_norm_squared(F) for F in comps), Fraction(0))
        problems = []
        if not (W.c.sign < 0 and W.c_tilde < 0):
            problems.append("minimum is not negative")
        if W.c_tilde * W.c_tilde * norm_sq != W.c.square:
            problems.append("c != c_tilde * |minimizer|")
        if any(_expectation(F) != 0 for F in comps):
            problems.append("minimizer expectation is not zero")
        for a_row, r_row, b_row in zip(R.a, R.block_ranks, R.b):
            if sum(a * r for a, r in zip(a_row, r_row)) != 0:
                problems.append("sum a_j r_j != 0")
            if any(b < 0 for b in b_row) or any(t <= s for s, t in zip(a_row, a_row[1:])):
                problems.append("b negative or a not increasing")
        if not reduced.semistable:
            problems.append("reduced point is not semistable")
        return Item("error" if problems else "ok", d, "; ".join(problems))


# ---------------------------------------------------------------------------
# verify_campaigns


def _render(report) -> Tuple[str, str]:
    """JSON and CSV texts exactly as ``slopelab verify`` prints them."""
    return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n", report.csv_text()


class VerifyCampaigns:
    """One item is one campaign invocation with a seeded TrialConfig,
    rendered to JSON and CSV.  Each block opens with a reduction-chain
    campaign (criterion 9: ranks (2,2), entry bound 2, one trial) followed
    by 25 rounds of the four light campaigns."""

    name = "verify_campaigns"
    rounds = 25
    block = 1 + 4 * rounds
    min_items = 2 * block  # two reduction-chain items per run, not one
    trace_items = block
    n_inputs = 10 * block

    def __init__(self, sl) -> None:
        self.harness = sl.harness
        self.light = (
            ("check_main_theorem", {"ranks": (2, 2), "trials": 2}),
            ("check_bost_kunnemann", {"ranks": (2, 3), "trials": 4}),
            ("check_slope_inequalities", {"ranks": (2, 3), "trials": 4}),
            ("check_bogomolov_campaign", {"ranks": (2, 3), "trials": 2}),
        )
        self.chain = ("check_reduction_chain", {"ranks": (2, 2), "trials": 1, "entry_bound": 2})

    def inputs(self, seed: int) -> list:
        rng = random.Random("verify_campaigns:%d" % seed)
        TrialConfig = self.harness.TrialConfig
        out = []
        for _ in range(self.n_inputs // self.block):
            for check, params in (self.chain,) + self.light * self.rounds:
                out.append((check, TrialConfig(seed=rng.getrandbits(48), **params)))
        return out

    def run(self, job):
        check, config = job
        # looked up per call, so that the traced run sees the recorder's wrapper
        return _render(getattr(self.harness, check)(config))

    def check(self, index: int, job, texts) -> Item:
        as_json, as_csv = texts
        d = digest(as_json + as_csv)
        report = json.loads(as_json)
        if report["counts"]["inconclusive"]:
            return Item("inconclusive", d, "inconclusive trial")
        if not report["ok"]:
            return Item("error", d, "campaign reported a failure")
        check = report["check"]
        for o in report["outcomes"]:
            if o["verdict"] != "pass":
                return Item("error", d, "trial verdict %s" % o["verdict"])
            if check in ("main_theorem", "bost_kunnemann", "slope_inequalities", "reduction_chain"):
                if not log_leq(o["lhs"], o["rhs"]):
                    return Item("error", d, "lhs > rhs in a passing trial")
            if check == "main_theorem" and not log_leq(o["detail"]["lower"], o["lhs"]):
                return Item("error", d, "lower > lhs in a passing trial")
            if check == "bost_kunnemann" and not log_leq(o["detail"]["udeg"], o["lhs"]):
                return Item("error", d, "udeg > mu_max in a passing trial")
        return Item("ok", d)


WORKLOADS: Dict[str, Callable] = {
    "tensor_mu_max": TensorMuMax,
    "kempf_reduce": KempfReduce,
    "verify_campaigns": VerifyCampaigns,
}


def run_digest(digests: Sequence[str]) -> str:
    """Digest of the leading DIGEST_ITEMS item digests of a run."""
    return digest("\n".join(digests[:DIGEST_ITEMS]))
