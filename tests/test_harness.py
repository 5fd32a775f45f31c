import json
import random
from fractions import Fraction

import pytest

from slopelab import gitstab as gs
from slopelab import harness
from slopelab import linalg as la
from slopelab.exactnum import LogValue, log_of
from slopelab.harness import (
    TrialConfig,
    TrialReport,
    bk_bracket,
    check_bogomolov,
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
    CertificateError,
    Lattice,
    Morphism,
    SubLattice,
    hn_filtration,
    morphism_height,
    mu_max,
    mu_min,
    slope,
    unit_lattice,
)

from oracles import cofactor_det

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
            G = random_lattice(2, 3, rng).gram_rows
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
            check_main_theorem(TrialConfig(seed=0, ranks=(3, 3), trials=1))


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
            check_bost_kunnemann(TrialConfig(seed=0, ranks=(7,), trials=1))


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


class TestReductionChain:
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

    def test_failed_sample_is_inconclusive(self, monkeypatch):
        # a reduced point that fails a sampled block filtration stops
        # rr_reduce; the campaign reports it and carries on
        monkeypatch.setattr(gs, "_reduced_mu_weighted", lambda R, blocks: Fraction(-1))
        rep = check_reduction_chain(TrialConfig(seed=11, ranks=(2, 2), entry_bound=1, trials=3))
        reasons = [o.detail["reason"] for o in rep.outcomes if o.verdict == "inconclusive"]
        assert reasons
        assert set(reasons) == {"the reduced point failed a sampled block filtration"}

    def test_rank_one_factors(self):
        rep = check_reduction_chain(TrialConfig(seed=2, ranks=(1, 1), entry_bound=1, trials=2))
        assert rep.ok
        for o in rep.outcomes:
            assert o.lhs == o.rhs

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            check_reduction_chain(TrialConfig(seed=0, ranks=(3, 3), trials=1))


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
