import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from slopelab import harness
from slopelab import invariants as inv
from slopelab import lattice as lat
from slopelab import linalg as la
from slopelab.exactnum import LogValue, decimal_str, log_of
from slopelab.harness import (
    TrialConfig,
    TrialReport,
    bk_bracket,
    check_bogomolov_campaign,
    check_bost_kunnemann,
    check_main_theorem,
    check_reduction_chain,
    check_slope_inequalities,
    flag_line_degree,
    random_lattice,
    reduction_chain_instance,
    tensor_slope_data,
)
from slopelab.lattice import (
    EXACT_RANK_LIMIT,
    CertificateError,
    Lattice,
    Morphism,
    SubLattice,
    hn_filtration,
    morphism_height,
    mu_max,
    mu_min,
    slope,
)

from oracles import check_bogomolov, cofactor_det, gram_rows, norm_of, unit_lattice

ID2 = unit_lattice(2)
ID3 = unit_lattice(3)
D14 = Lattice.from_rows([[1, 0], [0, 4]])


def sub(L, *vectors):
    return SubLattice.from_columns(L, [list(v) for v in vectors])


class TestTrialConfig:
    def test_coercion_and_json(self):
        cfg = TrialConfig(seed=7, ranks=[2, 3], trials=5)
        assert cfg.ranks == (2, 3)
        assert cfg.to_json() == {
            "seed": 7,
            "ranks": [2, 3],
            "entry_bound": 3,
            "trials": 5,
            "tolerance_bits": 40,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(seed=-1, ranks=(2,))
        with pytest.raises(ValueError):
            TrialConfig(seed=1 << 64, ranks=(2,))
        with pytest.raises(ValueError):
            TrialConfig(seed=0, ranks=())
        with pytest.raises(ValueError):
            TrialConfig(seed=0, ranks=(0,))
        with pytest.raises(ValueError):
            TrialConfig(seed=0, ranks=(2,), trials=0)
        with pytest.raises(ValueError):
            TrialConfig(seed=0, ranks=(2,), entry_bound=0)
        with pytest.raises(ValueError):
            TrialConfig(seed=0, ranks=(2,), tolerance_bits=0)


class TestRandomLattice:
    def test_rank_one_unit_bound(self):
        rng = random.Random(3)
        for _ in range(20):
            L = random_lattice(1, 1, rng)
            assert L.gram == ((Fraction(1),),)

    def test_reproducible(self):
        a = random_lattice(3, 4, random.Random(11))
        b = random_lattice(3, 4, random.Random(11))
        assert a.gram == b.gram

    def test_positive_definite_minors(self):
        rng = random.Random(9)
        for _ in range(10):
            G = gram_rows(random_lattice(2, 3, rng))
            assert G[0][0] > 0
            assert cofactor_det(G) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            random_lattice(0, 1, random.Random(0))
        with pytest.raises(ValueError):
            random_lattice(2, 0, random.Random(0))


class TestMainTheorem:
    def test_frozen_pairs(self):
        for L in (D14, ID2):
            data = tensor_slope_data([L, L])
            assert data["lhs"] == LogValue.zero()
            assert data["rhs"] == log_of(Fraction(2), Fraction(2))
            assert data["lower"] == LogValue.zero()

    def test_campaign_passes(self):
        rep = check_main_theorem(TrialConfig(seed=3, ranks=(2, 2), entry_bound=2, trials=6))
        assert rep.ok and rep.counts == {"pass": 6, "fail": 0, "inconclusive": 0}

    def test_rank_one_equality_path(self):
        rep = check_main_theorem(TrialConfig(seed=5, ranks=(1, 1), entry_bound=4, trials=4))
        assert rep.ok
        for o in rep.outcomes:
            assert o.detail["line_twisted"] == o.detail["line_shifted"]

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            check_main_theorem(TrialConfig(seed=0, ranks=(EXACT_RANK_LIMIT + 1,), trials=1))

    def test_tensor_data_equals_mu_max_of_each_lattice(self):
        """tensor_slope_data, whose tensor product starts its reduction from
        the factors' reduced bases, gives mu_max of the tensor product and
        of each factor as mu_max computes them on lattices read back from
        their JSON, which store the standard basis:
        1,000 seeded tuples of two and three factors, a third of them
        duals (rational Gram matrices), with rank-one factors and the
        shape (2, 1, 2)."""
        rng = random.Random(447)
        shapes = [(2, 2), (2, 3), (3, 2), (1, 2), (2, 1), (1, 1), (1, 6), (3, 1), (2, 1, 2), (1, 2, 3), (1, 1, 1)]
        duals = 0
        for t in range(1000):
            ranks = shapes[t % len(shapes)]
            factors = [random_lattice(r, 3, rng) for r in ranks]
            factors = [lat.dual(L) if rng.randrange(3) == 0 else L for L in factors]
            duals += any(x.denominator > 1 for L in factors for row in L.gram for x in row)
            T = factors[0]
            for L in factors[1:]:
                T = lat.tensor(T, L)
            data = tensor_slope_data(factors)
            assert data["lhs"] == mu_max(Lattice.from_json(T.to_json()))[0]
            assert data["factors"] == [mu_max(L)[0] for L in factors]
        assert duals >= 300


class TestBostKunnemann:
    def test_frozen_examples(self):
        data = bk_bracket(ID3)
        assert data["udeg"] == data["mu_max"] == LogValue.zero()
        assert data["upper"] == log_of(Fraction(3), Fraction(1, 2))
        data = bk_bracket(D14)
        assert data["udeg"] == data["mu_max"] == LogValue.zero()
        assert data["upper"] == log_of(Fraction(2), Fraction(1, 2))

    def test_campaign_passes(self):
        rep = check_bost_kunnemann(TrialConfig(seed=13, ranks=(2, 3, 4), trials=10))
        assert rep.ok and rep.counts["pass"] == 10

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            check_bost_kunnemann(TrialConfig(seed=0, ranks=(EXACT_RANK_LIMIT + 1,), trials=1))


class TestFlagLineDegree:
    def test_frozen_values(self):
        assert flag_line_degree(ID2, [sub(ID2, [1, 0])], (0, 2)) == LogValue.zero()
        assert flag_line_degree(D14, [sub(D14, [1, 0])], (0, 2)) == log_of(Fraction(2))

    def test_equal_slope_flags_vanish(self):
        for a in ((0, 2), (-2, 0), (-1, 1), (-2, 2)):
            assert flag_line_degree(ID2, [sub(ID2, [1, 0])], a) == LogValue.zero()

    def test_validation(self):
        member = sub(D14, [1, 0])
        with pytest.raises(ValueError):
            flag_line_degree(D14, [member], (2, 0))
        with pytest.raises(ValueError):
            flag_line_degree(D14, [member], (0, 1, 2))
        with pytest.raises(ValueError):
            flag_line_degree(D14, [member], (0, 1))
        with pytest.raises(ValueError):
            flag_line_degree(D14, [sub(D14, [2, 0])], (0, 2))
        with pytest.raises(ValueError):
            flag_line_degree(ID2, [member], (0, 2))
        with pytest.raises(ValueError):
            flag_line_degree(
                ID3, [sub(ID3, [1, 0, 0], [0, 1, 0]), sub(ID3, [0, 0, 1])], (0, 1, 2)
            )


class TestBogomolov:
    def test_unstable_witness_frozen(self):
        rep = check_bogomolov(D14, seed=1)
        assert rep.ok
        first = rep.outcomes[0]
        assert first.detail["expect"] == "lhs > rhs"
        assert first.lhs == str(log_of(Fraction(2)))
        assert first.detail["a"] == [0, 2]

    def test_semistable_all_nonpositive(self):
        rep = check_bogomolov(ID2, seed=1)
        assert rep.ok and rep.counts["fail"] == 0
        assert all(o.detail["expect"] == "lhs <= rhs" for o in rep.outcomes)

    def test_rank_one_is_vacuous(self):
        rep = check_bogomolov(unit_lattice(1), seed=0)
        assert rep.ok and not rep.outcomes

    def test_random_lattices(self):
        rng = random.Random(42)
        semistable = unstable = 0
        for i in range(30):
            L = random_lattice(rng.choice([2, 3]), 2, rng)
            rep = check_bogomolov(L, seed=i)
            assert rep.ok
            if hn_filtration(L).is_semistable:
                semistable += 1
            else:
                unstable += 1
                assert rep.outcomes[0].detail["expect"] == "lhs > rhs"
        assert semistable and unstable

    def test_campaign_reproducible(self):
        cfg = TrialConfig(seed=8, ranks=(2, 3), entry_bound=2, trials=6)
        a = json.dumps(check_bogomolov_campaign(cfg).to_json(), sort_keys=True)
        b = json.dumps(check_bogomolov_campaign(cfg).to_json(), sort_keys=True)
        assert a == b
        assert check_bogomolov_campaign(cfg).ok


class TestOneComputationPerTrial:
    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        real = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)
        return calls

    def test_bogomolov_campaign_filters_each_lattice_once(self, monkeypatch):
        cfg = TrialConfig(seed=10009, ranks=(2, 3), trials=20)
        calls = self.counting(monkeypatch, "hn_filtration")
        rep = check_bogomolov_campaign(cfg)
        assert len(calls) == 20
        # each trial reports what the public check reports on its lattice,
        # with the flag seed replayed from the trial's generator
        for o in rep.outcomes:
            L = Lattice.from_json(o.inputs)
            rng = harness._trial_rng(cfg, o.index)
            rng.choice(cfg.ranks)
            random_lattice(L.rank, cfg.entry_bound, rng)
            single = check_bogomolov(L, flag_budget=8, seed=rng.getrandbits(32))
            assert o.detail["counts"] == single.counts
            assert o.detail["semistable"] == hn_filtration(L).is_semistable
            assert o.lhs == (single.outcomes[0].lhs if single.outcomes else "0")

    def test_main_theorem_takes_each_factor_mu_max_once(self, monkeypatch):
        cfg = TrialConfig(seed=7, ranks=(2, 3), trials=3)
        passes = []
        real_pass = lat._mu_max_udeg
        monkeypatch.setattr(lat, "_mu_max_udeg", lambda L, limit: (passes.append(L.rank), real_pass(L, limit))[1])
        public = self.counting(monkeypatch, "mu_max")
        sweeps, formed, eliminations, kron = [], [], [], []
        real_sweep, real_congruent, real_ldl, real_kron = la._lll_from, la._congruent, la._ldl_scaled, la._kron_gso
        monkeypatch.setattr(la, "_lll_from", lambda gso, U: (sweeps.append(len(gso.D) - 1), real_sweep(gso, U))[1])
        monkeypatch.setattr(la, "_congruent", lambda A, U: (formed.append(len(A)), real_congruent(A, U))[1])
        monkeypatch.setattr(la, "_ldl_scaled", lambda G: (eliminations.append(len(G)), real_ldl(G))[1])
        monkeypatch.setattr(la, "_kron_gso", lambda g1, g2: (kron.append(len(g1.lam) * len(g2.lam)), real_kron(g1, g2))[1])
        rep = check_main_theorem(cfg)
        assert rep.ok
        # one public mu_max, and one pass, per lattice: the tensor product
        # and the two factors in tensor_slope_data, and the line twist
        assert len(public) == 4 * cfg.trials
        assert sorted(passes) == sorted([6, 2, 3, 2] * cfg.trials)
        # each tensor reduces its factors and sweeps once from the product
        # of their reduced bases, one _kron_gso per tensor; each mu_max
        # then sweeps from the stored basis
        assert sorted(kron) == sorted([6, 2] * cfg.trials)
        assert sorted(sweeps) == sorted([2, 3, 6] * 2 * cfg.trials + [2, 1, 2, 2] * cfg.trials)
        # no reduced Gram matrix is formed below the rank limit
        assert formed == []
        # one elimination per drawn lattice, when it is built (the factors
        # and the line); the tensors take their pivots from their factors'
        assert sorted(eliminations) == sorted([2, 3, 1] * cfg.trials)

    def test_bk_bracket_reduces_each_lattice_once(self, monkeypatch):
        rng = random.Random(10009)
        lattices = [random_lattice(rng.choice([2, 3]), 3, rng) for _ in range(20)]
        calls = []
        real = la._lll_from

        def counting(gso, U):
            calls.append(len(U))
            return real(gso, U)

        monkeypatch.setattr(la, "_lll_from", counting)
        brackets = [bk_bracket(L) for L in lattices]
        assert calls == [L.rank for L in lattices]
        del calls[:]
        assert [b["mu_max"] for b in brackets] == [mu_max(L)[0] for L in lattices]
        assert calls == [L.rank for L in lattices]

    def test_bogomolov_checks_each_flag_once(self, monkeypatch):
        checks = self.counting(monkeypatch, "is_saturated")
        rng = random.Random(10009)
        repeated = 0
        for i in range(20):
            L = random_lattice(rng.choice([2, 3]), 3, rng)
            del checks[:]
            rep = check_bogomolov(L, flag_budget=8, seed=i)
            witness = [o for o in rep.outcomes if o.detail["expect"] == "lhs > rhs"]
            flags = []
            for o in rep.outcomes:
                if o not in witness and o.detail["flag"] not in flags:
                    flags.append(o.detail["flag"])
            members = sum(len(o.detail["flag"]) for o in witness) + sum(len(f) for f in flags)
            assert len(checks) == members
            repeated += len(rep.outcomes) > len(witness) + len(flags)
        # flags evaluated at several weight vectors, once checked each
        assert repeated >= 10

    def test_bogomolov_campaign_renders_only_the_reported_lhs(self, monkeypatch):
        # each trial renders at most one decimal, its lhs; the counts still
        # cover every evaluation
        cfg = TrialConfig(seed=10009, ranks=(2, 3), trials=12)
        rendered = self.counting(monkeypatch, "decimal_str")
        rep = check_bogomolov_campaign(cfg)
        evaluated = [o for o in rep.outcomes if o.detail["evaluations"]]
        assert len(rendered) == len(evaluated) <= cfg.trials
        assert [o.lhs_decimal for o in evaluated] == [decimal_str(v) for v in rendered]
        assert sum(o.detail["evaluations"] for o in evaluated) > 3 * len(evaluated)


class TestSlopeInequalities:
    def test_frozen_diagonal_morphism(self):
        phi = Morphism.from_rows(ID2, ID2, [[1, 0], [0, 2]])
        h = morphism_height(phi)
        assert h.lower <= log_of(Fraction(2)) <= h.upper
        assert slope(ID2) <= mu_max(ID2)[0] + h.upper
        assert mu_min(ID2) <= mu_max(ID2)[0] + h.upper

    def test_campaign_passes_without_inconclusive(self):
        rep = check_slope_inequalities(
            TrialConfig(seed=21, ranks=(2, 3), entry_bound=2, trials=15)
        )
        assert rep.ok
        assert rep.inconclusive_rate == 0
        assert any(o.detail["injective"] for o in rep.outcomes)
        assert any(not o.detail["injective"] for o in rep.outcomes)


    def test_violation_is_a_reported_fail(self, monkeypatch):
        # mu_max(F) lowered by log 1000 breaks the inequality on every trial;
        # the bracket's upper end is certified, so each break is a fail
        real = harness.mu_max

        def lowered(L, *args):
            val, witness = real(L, *args)
            return val - log_of(1000), witness

        monkeypatch.setattr(harness, "mu_max", lowered)
        rep = check_slope_inequalities(TrialConfig(seed=7, ranks=(2, 3), trials=6))
        assert rep.counts == {"pass": 0, "fail": 6, "inconclusive": 0}
        assert all("reason" not in o.detail for o in rep.outcomes)


class TestReductionChain:
    def test_campaign_folds_one_tensor_per_trial(self, monkeypatch):
        # a trial folds its factors once, for the enumeration; a candidate's
        # norm is read off the Kronecker product of the factors' rows, with
        # no tensor (reduction and sweep) of its own.  The report's
        # sorted-key JSON hashes as it did when each candidate built one
        calls = TestOneComputationPerTrial.counting(monkeypatch, "tensor")
        rep = check_reduction_chain(TrialConfig(seed=7, ranks=(2, 2), entry_bound=2, trials=2))
        assert len(calls) == 2
        assert sum(len(o.detail["subbundles"]) for o in rep.outcomes) == 24
        digest = hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()
        assert digest == "6f9c30d65ebe2b579d65e50f2514a44925710b7278767ea0939379c451426556"

    def test_instance_norm_is_the_tensor_norm(self):
        # rational factors too: the norm is over the product of the dens
        rng = random.Random(29)
        A, B = lat.dual(random_lattice(2, 3, rng)), random_lattice(2, 3, rng)
        assert A.den > 1
        T = lat.tensor(A, B)
        for v in ((1, 0, 0, 0), (1, -1, 2, 1), (0, 3, 1, -2)):
            assert reduction_chain_instance([A, B], v)["norm_sq"] == norm_of(T, v)

    def test_pure_tensor_instance(self):
        rec = reduction_chain_instance([ID2, ID2], (1, 0, 0, 0))
        assert rec["branch"] == "reduced"
        assert rec["degree"] == LogValue.zero()
        assert rec["bound"] == log_of(Fraction(2))
        assert rec["bound_holds"] and rec["middle_holds"] and rec["middle_below_bound"]
        assert rec["telescoping_nonpositive"]
        assert rec["reduced_semistable"]
        assert rec["N"] == 2

    def test_identity_tensor_instance(self):
        rec = reduction_chain_instance([ID2, ID2], (1, 0, 0, 1))
        assert rec["branch"] == "semistable"
        assert rec["degree"] == log_of(Fraction(2), Fraction(-1, 2))
        assert rec["bound_holds"]

    def test_mixed_rank_instance(self):
        vector = [0] * 6
        vector[5] = 1
        rec = reduction_chain_instance([ID2, ID3], vector)
        assert rec["branch"] == "reduced"
        assert rec["degree"] == LogValue.zero()
        assert rec["bound"] == log_of(Fraction(6), Fraction(1, 2))
        assert rec["bound_holds"] and rec["middle_holds"]

    def test_campaign_passes_with_both_branches(self):
        rep = check_reduction_chain(TrialConfig(seed=11, ranks=(2, 2), entry_bound=1, trials=3))
        assert rep.ok
        branches = {
            r["branch"] for o in rep.outcomes for r in o.detail["subbundles"]
        }
        assert branches == {"semistable", "reduced"}

    @pytest.mark.parametrize(
        "found, reason",
        [(None, r"no Levi witness up to degree \d+"), (inv.BUDGET_EXCEEDED, "the Levi witness search exceeded its budget")],
        ids=["none", "budget"],
    )
    def test_faulted_witness_search_is_inconclusive(self, monkeypatch, found, reason):
        # a reduced point without a Levi witness stops rr_reduce; the
        # campaign reports the limit that was hit and carries on
        monkeypatch.setattr(inv, "invariant_witness_search", lambda *args, **kwargs: found)
        rep = check_reduction_chain(TrialConfig(seed=11, ranks=(2, 2), entry_bound=1, trials=3))
        reasons = [o.detail["reason"] for o in rep.outcomes if o.verdict == "inconclusive"]
        assert reasons
        assert all(re.match(reason, r) for r in reasons)
        assert rep.counts["fail"] == 0

    def test_rank_one_factors(self):
        rep = check_reduction_chain(TrialConfig(seed=2, ranks=(1, 1), entry_bound=1, trials=2))
        assert rep.ok
        for o in rep.outcomes:
            assert o.lhs == o.rhs

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            check_reduction_chain(TrialConfig(seed=0, ranks=(EXACT_RANK_LIMIT + 1,), trials=1))


class TestReports:
    def test_csv_layout(self):
        rep = check_bost_kunnemann(TrialConfig(seed=4, ranks=(2,), trials=3))
        rows = rep.csv_rows()
        assert rows[0] == [
            "check", "seed", "trial", "verdict", "lhs_decimal", "rhs_decimal", "lhs", "rhs",
        ]
        assert len(rows) == 4
        assert rows[1][0] == "bost_kunnemann" and rows[1][1] == "4"
        assert rep.csv_text().count("\n") == 4

    def test_json_reproducible_and_counted(self):
        cfg = TrialConfig(seed=6, ranks=(2, 2), entry_bound=2, trials=4)
        a = check_main_theorem(cfg)
        b = check_main_theorem(cfg)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
        payload = a.to_json()
        assert payload["check"] == "main_theorem"
        assert payload["counts"]["pass"] == 4
        assert payload["inconclusive_rate"] == "0"
        assert len(payload["outcomes"]) == 4

    def test_broken_certificate_is_a_reported_fail(self, monkeypatch):
        # a trial whose certificate breaks becomes a fail outcome that names
        # the error; the campaign runs on, and (check, seed, index) replays it
        def broken(*args):
            raise CertificateError("injected: mu_max outside its Minkowski bracket")

        monkeypatch.setattr(harness, "mu_max", broken)
        rep = check_main_theorem(TrialConfig(seed=9, ranks=(2, 2), entry_bound=2, trials=3))
        assert not rep.ok
        assert rep.counts == {"pass": 0, "fail": 3, "inconclusive": 0}
        assert [o.index for o in rep.failures] == [0, 1, 2]
        assert {o.detail["reason"] for o in rep.failures} == {
            "injected: mu_max outside its Minkowski bracket"
        }
