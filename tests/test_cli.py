import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from slopelab import cli
from slopelab import filtration as fil
from slopelab import harness
from slopelab import invariants as inv
from slopelab.exactnum import log_of
from slopelab.gitstab import TensorPoint
from slopelab.harness import TrialOutcome, TrialReport
from slopelab.lattice import (
    EXACT_RANK_LIMIT,
    CertificateError,
    ExactSearchUnavailable,
    Lattice,
    mu_max,
)


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def lattice_file(tmp_path, name, gram):
    L = Lattice(len(gram), tuple(tuple(Fraction(v) for v in row) for row in gram))
    return write(tmp_path / name, L.to_json())


def point_file(tmp_path, name, shape, coords):
    x = TensorPoint.from_map(shape, {k: Fraction(v) for k, v in coords.items()})
    return write(tmp_path / name, x.to_json())


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestLatVerbs:
    def test_info_unit_lattice(self, tmp_path, capsys):
        path = lattice_file(tmp_path, "id2.json", [[1, 0], [0, 1]])
        code, doc = run_json(capsys, ["lat", "info", "--in", path])
        assert code == 0
        assert doc["rank"] == 2
        assert doc["degree"]["exact"] == "0"
        assert doc["slope"]["terms"] == {}

    def test_info_diag(self, tmp_path, capsys):
        path = lattice_file(tmp_path, "d14.json", [[1, 0], [0, 4]])
        code, doc = run_json(capsys, ["lat", "info", "--in", path])
        assert code == 0
        assert doc["degree"]["terms"] == {"2": "-1"}
        assert doc["slope"]["terms"] == {"2": "-1/2"}
        assert doc["slope"]["decimal"] == "-0.346573590"

    def test_dual_round_trip(self, tmp_path, capsys):
        path = lattice_file(tmp_path, "d14.json", [[1, 0], [0, 4]])
        out = str(tmp_path / "dual.json")
        code = cli.run(["lat", "dual", "--in", path, "--out", out])
        capsys.readouterr()
        assert code == 0
        code, doc = run_json(capsys, ["lat", "info", "--in", out])
        assert code == 0
        assert doc["degree"]["terms"] == {"2": "1"}

    def test_sum_and_tensor_need_two_inputs(self, tmp_path, capsys):
        path = lattice_file(tmp_path, "id2.json", [[1, 0], [0, 1]])
        assert cli.run(["lat", "sum", "--in", path]) == 2
        assert cli.run(["lat", "tensor", "--in", path, path, path]) == 2
        err = capsys.readouterr().err
        assert "two lattice files" in err

    def test_tensor_rank(self, tmp_path, capsys):
        a = lattice_file(tmp_path, "a.json", [[1, 0], [0, 4]])
        b = lattice_file(tmp_path, "b.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        out = str(tmp_path / "prod.json")
        code = cli.run(["lat", "tensor", "--in", a, b, "--out", out])
        capsys.readouterr()
        assert code == 0
        code, doc = run_json(capsys, ["lat", "info", "--in", out])
        assert doc["rank"] == 6

    def test_hn_and_mumax(self, tmp_path, capsys):
        path = lattice_file(tmp_path, "d14.json", [[1, 0], [0, 4]])
        code, doc = run_json(capsys, ["lat", "hn", "--in", path])
        assert code == 0
        assert doc["semistable"] is False
        assert doc["chain"][0] == [[1], [0]]
        assert doc["slopes"][0]["exact"] == "0"
        code, doc = run_json(capsys, ["lat", "mumax", "--in", path])
        assert doc["mu_max"]["exact"] == "0"
        assert doc["witness"] == [[1], [0]]

    def test_hn_and_mumax_beyond_the_rank_limit(self, tmp_path, capsys):
        L = harness.random_lattice(EXACT_RANK_LIMIT + 1, 2, random.Random(1))
        path = write(tmp_path / "big.json", L.to_json())
        for verb in ("hn", "mumax"):
            code = cli.run(["lat", verb, "--in", path])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "beyond rank %d" % EXACT_RANK_LIMIT in captured.err
            assert "Traceback" not in captured.err
        # mumax names the certified bracket of the error
        with pytest.raises(ExactSearchUnavailable) as info:
            mu_max(L)
        bracket = "%s <= mu_max <= %s" % (info.value.best_found, info.value.upper_bound)
        assert bracket in captured.err

    def test_ext_power(self, tmp_path, capsys):
        path = lattice_file(tmp_path, "d14.json", [[1, 0], [0, 4]])
        code, doc = run_json(capsys, ["lat", "ext", "--in", path, "--power", "2"])
        assert code == 0
        assert doc["gram"] == [["4"]]

    def test_udeg(self, tmp_path, capsys):
        path = lattice_file(tmp_path, "d49.json", [[4, 0], [0, 9]])
        code, doc = run_json(capsys, ["lat", "udeg", "--in", path])
        assert code == 0
        assert doc["udeg"]["terms"] == {"2": "-1"}
        assert doc["witness"] in ([1, 0], [-1, 0])


class TestFilVerbs:
    def filtration_path(self, tmp_path):
        F = fil.from_weighted_basis(
            [[1, 0], [0, 1]], [Fraction(1), Fraction(-1)]
        )
        return write(tmp_path / "filt.json", F.to_json())

    def test_eval(self, tmp_path, capsys):
        path = self.filtration_path(tmp_path)
        code, doc = run_json(capsys, ["fil", "eval", "--in", path, "--vector", "1,0"])
        assert code == 0
        assert doc == {"expectation": "0", "lambda": "1"}

    def test_eval_origin(self, tmp_path, capsys):
        path = self.filtration_path(tmp_path)
        code, doc = run_json(capsys, ["fil", "eval", "--in", path, "--vector", "0,0"])
        assert code == 0
        assert doc["lambda"] is None

    def test_eval_rejects_bad_vector(self, tmp_path, capsys):
        path = self.filtration_path(tmp_path)
        assert cli.run(["fil", "eval", "--in", path, "--vector", "1,x"]) == 2
        assert cli.run(["fil", "eval", "--in", path, "--vector", "1,0,0"]) == 2
        assert cli.run(["fil", "eval", "--in", path]) == 2
        capsys.readouterr()

    def test_scalar_product(self, tmp_path, capsys):
        path = self.filtration_path(tmp_path)
        code, doc = run_json(capsys, ["fil", "scalar", "--in", path, path])
        assert code == 0
        assert doc == {"norms_squared": ["1", "1"], "scalar_product": "1"}

    def test_dilate_then_eval(self, tmp_path, capsys):
        path = self.filtration_path(tmp_path)
        out = str(tmp_path / "half.json")
        code = cli.run(["fil", "dilate", "--in", path, "--factor", "1/2", "--out", out])
        capsys.readouterr()
        assert code == 0
        code, doc = run_json(capsys, ["fil", "eval", "--in", out, "--vector", "1,0"])
        assert doc["lambda"] == "1/2"
        assert cli.run(["fil", "dilate", "--in", path, "--factor", "-1"]) == 2
        capsys.readouterr()

    def test_tensor(self, tmp_path, capsys):
        path = self.filtration_path(tmp_path)
        code, doc = run_json(capsys, ["fil", "tensor", "--in", path, path])
        assert code == 0
        assert doc["dim"] == 4


class TestGitVerbs:
    def test_check_pure_tensor_unstable(self, tmp_path, capsys):
        path = point_file(tmp_path, "pure.json", (2, 2), {(0, 0): 1})
        code, doc = run_json(capsys, ["git", "check", "--in", path])
        assert code == 0
        assert doc["semistable"] is False
        assert "witness" in doc

    def test_check_identity_semistable(self, tmp_path, capsys):
        path = point_file(tmp_path, "ident.json", (2, 2), {(0, 0): 1, (1, 1): 1})
        code, doc = run_json(capsys, ["git", "check", "--in", path])
        assert code == 0
        assert doc["semistable"] is True

    def test_check_fifteen_cell_point(self, tmp_path, capsys):
        # fifteen support cells of a (4,4) point: more gradients than a
        # subset scan of the hull can afford.  As a 4x4 matrix the point
        # has rank 2, so it is unstable (det = 0).
        cells = {(i, j): 1 for i in range(4) for j in range(4) if (i, j) != (3, 3)}
        path = point_file(tmp_path, "big44.json", (4, 4), cells)
        code, doc = run_json(capsys, ["git", "check", "--in", path])
        assert code == 0
        assert doc["semistable"] is False
        assert doc["witness"]["c"]["sign"] == "-1"

    def test_lambda_and_mu(self, tmp_path, capsys):
        F = fil.from_weighted_basis([[1, 0], [0, 1]], [Fraction(1), Fraction(-1)])
        tpath = write(tmp_path / "tuple.json", [F.to_json(), F.to_json()])
        ppath = point_file(tmp_path, "ident.json", (2, 2), {(0, 0): 1, (1, 1): 1})
        code, doc = run_json(
            capsys, ["git", "lambda", "--in", ppath, "--filtration", tpath]
        )
        assert code == 0
        assert doc == {"lambda": "-2"}
        code, doc = run_json(
            capsys,
            ["git", "mu", "--in", ppath, "--filtration", tpath, "--m", "2"],
        )
        assert doc == {"mu": 4}

    def test_mu_twists(self, tmp_path, capsys):
        F = fil.from_weighted_basis([[1, 0], [0, 1]], [Fraction(1), Fraction(-1)])
        tpath = write(tmp_path / "tuple.json", [F.to_json(), F.to_json()])
        ppath = point_file(tmp_path, "pure.json", (2, 2), {(0, 0): 1})
        code, doc = run_json(
            capsys,
            ["git", "mu", "--in", ppath, "--filtration", tpath,
             "--m", "2", "--twists", "2,2"],
        )
        assert code == 0
        assert doc == {"mu": -4}

    def test_reduce_unstable_point(self, tmp_path, capsys):
        path = point_file(tmp_path, "pure.json", (2, 2), {(0, 0): 1})
        code, doc = run_json(capsys, ["git", "reduce", "--in", path])
        assert code == 0
        assert doc["N"] >= 1
        assert "groups" in doc
        assert doc["witness"]["D"] >= 1 and doc["witness"]["value"] != "0"

    @pytest.mark.parametrize("verb", ["minimize", "reduce"])
    @pytest.mark.parametrize("found", [None, inv.BUDGET_EXCEEDED], ids=["none", "budget"])
    def test_faulted_witness_search_is_usage_error(self, tmp_path, capsys, monkeypatch, verb, found):
        # without a Levi witness the minimizer is not certified: neither
        # verb prints it, and the message names the limit that was hit
        monkeypatch.setattr(inv, "invariant_witness_search", lambda *args, **kwargs: found)
        path = point_file(tmp_path, "pure.json", (2, 2), {(0, 0): 1})
        assert cli.run(["git", verb, "--in", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Levi witness" in err

    def test_reduce_semistable_is_usage_error(self, tmp_path, capsys):
        path = point_file(tmp_path, "ident.json", (2, 2), {(0, 0): 1, (1, 1): 1})
        assert cli.run(["git", "reduce", "--in", path]) == 2
        assert "semistable" in capsys.readouterr().err

    @pytest.mark.parametrize("twin", ["01,1", " 1,1", "1,01"])
    def test_two_keys_for_one_cell_are_usage_error(self, tmp_path, capsys, twin):
        # merged, the later value would win, and the point decided would not
        # be the file's
        coords = {"1,1": "1", twin: "2", "2,2": "1"}
        path = write(tmp_path / "twice.json", {"shape": [2, 2], "coords": coords})
        assert cli.run(["git", "check", "--in", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "duplicate index" in err

    def test_minimize(self, tmp_path, capsys):
        path = point_file(tmp_path, "pure.json", (2, 2), {(0, 0): 1})
        code, doc = run_json(capsys, ["git", "minimize", "--in", path])
        assert code == 0
        assert doc["semistable"] is False
        assert "minimizer" in doc


class TestInvVerbs:
    def test_detnorm(self, capsys):
        code, doc = run_json(capsys, ["inv", "detnorm", "--dim", "3"])
        assert code == 0
        assert doc["terms"] == 6
        assert doc["norm"]["terms"] == {"2": "1/2", "3": "1/2"}
        assert cli.run(["inv", "detnorm", "--dim", "0"]) == 2
        capsys.readouterr()

    def test_witness_found(self, tmp_path, capsys):
        path = point_file(tmp_path, "ident.json", (2, 2), {(0, 0): 1, (1, 1): 1})
        code, doc = run_json(
            capsys,
            ["inv", "witness", "--in", path, "--b", "1,1", "--m", "2", "--dmax", "2"],
        )
        assert code == 0
        assert doc["witness"]["value"] == "2"
        assert doc["witness"]["D"] == 1

    def test_witness_none_and_budget(self, tmp_path, capsys):
        path = point_file(tmp_path, "pure.json", (2, 2), {(0, 0): 1})
        code, doc = run_json(
            capsys,
            ["inv", "witness", "--in", path, "--b", "1,1", "--m", "2", "--dmax", "2"],
        )
        assert code == 0
        assert doc == {"witness": None}
        code, doc = run_json(
            capsys,
            ["inv", "witness", "--in", path, "--b", "1,1", "--m", "2",
             "--dmax", "2", "--budget", "1"],
        )
        assert code == 0
        assert doc == {"witness": "budget"}

    def test_witness_rejects_a_budget_below_one(self, tmp_path, capsys):
        path = point_file(tmp_path, "pure.json", (2, 2), {(0, 0): 1})
        for budget in ("0", "-5"):
            argv = ["inv", "witness", "--in", path, "--b", "1,1", "--m", "2", "--dmax", "2", "--budget", budget]
            assert cli.run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "budget must be positive" in captured.err

    def test_bound(self, tmp_path, capsys):
        path = write(
            tmp_path / "mus.json",
            [{"mu": {}, "rank": 2}, {"mu": {"2": "1"}, "rank": 3}],
        )
        code, doc = run_json(
            capsys, ["inv", "bound", "--in", path, "--b", "2,3", "--m", "6"]
        )
        assert code == 0
        assert doc["bound"]["terms"] == {"2": "2/3", "3": "1/4"}

    def test_bound_rejects_malformed_entries(self, tmp_path, capsys):
        path = write(tmp_path / "mus.json", [{"rank": 2}])
        assert cli.run(["inv", "bound", "--in", path, "--b", "1", "--m", "1"]) == 2
        assert "term map" in capsys.readouterr().err


class TestVerifyVerbs:
    def test_main_theorem_passes(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "main", "--ranks", "2,2", "--trials", "2", "--seed", "7"]
        )
        assert code == 0
        assert doc["counts"] == {"pass": 2, "fail": 0, "inconclusive": 0}
        assert doc["check"] == "main_theorem"

    def test_repeat_invocations_byte_identical(self, capsys):
        argv = ["verify", "bk", "--ranks", "2,3", "--trials", "4", "--seed", "1"]
        assert cli.run(argv) == 0
        first = capsys.readouterr().out
        assert cli.run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "verb, fmt, sha256",
        [
            ("slopes", "--json", "a2fed442c42c695d9ac783cad3833f05b4e405e3d86b43d41a14ef97d943325a"),
            ("slopes", "--csv", "c8c8fdf62b96007e8eb662e128ab8e9cbb8aa71a0a7fba8732d27f3fe253fe98"),
            ("bogomolov", "--json", "4a127556dead943a68d62a8b6bd3962ac0128b1aa33aa616b20d2e0754e53820"),
            ("bogomolov", "--csv", "ef30a312ad2a9bf268b18434bcfe7889f4b500c2462a3c79fc6a29585ab3ed59"),
        ],
    )
    def test_report_bytes_pinned(self, capsys, verb, fmt, sha256):
        # heights, logs and flag degrees feed these reports; the digests
        # pin every byte of them across changes to those computations
        assert cli.run(["verify", verb, "--ranks", "2,3", "--trials", "6", "--seed", "3", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_csv_output(self, capsys):
        code = cli.run(
            ["verify", "bk", "--ranks", "2", "--trials", "2", "--seed", "1", "--csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "check,seed,trial,verdict,lhs_decimal,rhs_decimal,lhs,rhs"
        assert len(lines) == 3

    def test_failure_writes_counterexample(self, tmp_path, capsys, monkeypatch):
        bad = TrialOutcome(
            index=0, verdict="fail", lhs="1", rhs="0",
            lhs_decimal="1.0", rhs_decimal="0.0", inputs={}, detail={},
        )
        report = TrialReport(check="bk", params={"seed": 1}, outcomes=(bad,))
        monkeypatch.setitem(cli.VERIFY_CHECKS, "bk", lambda config: report)
        monkeypatch.chdir(tmp_path)
        code = cli.run(["verify", "bk", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "counterexample" in captured.err
        saved = json.loads((tmp_path / "counterexample-bk.json").read_text())
        assert saved["failures"][0]["verdict"] == "fail"

    def test_broken_certificate_exits_one_with_counterexample(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise CertificateError("injected: mu_max outside its Minkowski bracket")

        monkeypatch.setattr(harness, "mu_max", broken)
        monkeypatch.chdir(tmp_path)
        code = cli.run(["verify", "main", "--ranks", "2,2", "--trials", "2", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert "counterexample written to counterexample-main.json" in captured.err
        saved = json.loads((tmp_path / "counterexample-main.json").read_text())
        assert [o["index"] for o in saved["failures"]] == [0, 1]
        assert saved["failures"][0]["detail"]["reason"].startswith("injected")

    def test_violated_slope_inequality_exits_one_with_counterexample(self, tmp_path, capsys, monkeypatch):
        real = harness.mu_max

        def lowered(L, *args):
            val, witness = real(L, *args)
            return val - log_of(1000), witness

        monkeypatch.setattr(harness, "mu_max", lowered)
        monkeypatch.chdir(tmp_path)
        code = cli.run(["verify", "slopes", "--ranks", "2,3", "--trials", "6", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 1
        assert "counterexample written to counterexample-slopes.json" in captured.err
        saved = json.loads((tmp_path / "counterexample-slopes.json").read_text())
        assert [o["verdict"] for o in saved["failures"]] == ["fail"] * 6

    def test_unsampled_factor_is_inconclusive(self, capsys, monkeypatch):
        # no draw is semistable: each trial stops at the draw limit, a
        # reported inconclusive that names it, not a traceback
        monkeypatch.setattr(harness, "hn_filtration", lambda L: SimpleNamespace(is_semistable=False))
        code = cli.run(["verify", "reduction", "--ranks", "2,2", "--trials", "2", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        doc = json.loads(captured.out)
        assert doc["counts"] == {"fail": 0, "inconclusive": 2, "pass": 0}
        for outcome in doc["outcomes"]:
            assert outcome["verdict"] == "inconclusive"
            assert outcome["detail"]["reason"] == "no semistable rank-2 factor in 400 draws"

    def test_bad_ranks_flag(self, capsys):
        assert cli.run(["verify", "main", "--ranks", "2,x"]) == 2
        assert cli.run(["verify", "main", "--ranks", "2,2", "--trials", "0"]) == 2
        capsys.readouterr()


class TestErrorHandling:
    def test_invalid_json_points_at_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"gram": [[\n')
        assert cli.run(["lat", "info", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON at line" in err

    def test_missing_field_names_it(self, tmp_path, capsys):
        path = write(tmp_path / "miss.json", {"rows": 1})
        assert cli.run(["lat", "info", "--in", str(path)]) == 2
        assert "'gram'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, payload, what",
        [
            (["lat", "info"], {"rank": 1, "gram": [["1/0"]]}, "bad lattice"),
            (
                ["fil", "eval", "--vector", "1,0"],
                {"dim": 2, "jumps": ["-1", "1"], "flag": [[["1", "1/0"]]]},
                "bad filtration",
            ),
            (["git", "check"], {"shape": [2, 2], "coords": {"1,1": "1", "2,2": "1/0"}}, "bad tensor point"),
        ],
    )
    def test_zero_denominator_is_usage_error(self, tmp_path, capsys, argv, payload, what):
        # each loader reads its rationals through rat_from_str
        path = write(tmp_path / "zero-den.json", payload)
        assert cli.run(argv + ["--in", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert path in err and what in err and "zero denominator" in err

    def test_missing_file(self, capsys):
        assert cli.run(["lat", "info", "--in", "/nonexistent/x.json"]) == 2
        capsys.readouterr()

    def test_usage_errors_exit_two(self, capsys):
        assert cli.run(["lat", "nosuch"]) == 2
        assert cli.run(["nosuch"]) == 2
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "slopelab" in capsys.readouterr().out

    def test_main_calls_sys_exit(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["slopelab", "--help"])
        with pytest.raises(SystemExit):
            cli.main()
        capsys.readouterr()
