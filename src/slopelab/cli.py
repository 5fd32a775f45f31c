"""Command-line front end.

Every verb reads JSON artifacts in the formats of the owning modules,
prints a deterministic JSON (or CSV) document, and signals through the
exit code: 0 for success, 1 when a verification campaign finds a
mathematical failure, 2 for malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import filtration as fil
from . import gitstab as git
from . import invariants as inv
from .exactnum import LogValue, decimal_str, rat_from_str, rat_to_str
from .harness import (
    TrialConfig,
    TrialReport,
    check_bogomolov_campaign,
    check_bost_kunnemann,
    check_main_theorem,
    check_reduction_chain,
    check_slope_inequalities,
)
from .lattice import (
    HNResult,
    Lattice,
    degree,
    direct_sum,
    dual,
    exterior_power,
    hn_filtration,
    mu_max,
    slope,
    tensor,
    udeg_max,
)

VERIFY_CHECKS = {
    "main": check_main_theorem,
    "bk": check_bost_kunnemann,
    "bogomolov": check_bogomolov_campaign,
    "slopes": check_slope_inequalities,
    "reduction": check_reduction_chain,
}


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _log_json(v: LogValue) -> dict:
    return {"exact": str(v), "terms": v.to_json(), "decimal": decimal_str(v)}


def _read_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(2, "%s: %s" % (path, exc.strerror or "cannot read"))
    except json.JSONDecodeError as exc:
        raise CliError(
            2, "%s: invalid JSON at line %d column %d" % (path, exc.lineno, exc.colno)
        )


def _parse_with(path: str, loader, what: str):
    payload = _read_json(path)
    try:
        return loader(payload)
    except KeyError as exc:
        raise CliError(2, "%s: missing %s field %s" % (path, what, exc))
    except (ValueError, TypeError) as exc:
        raise CliError(2, "%s: bad %s: %s" % (path, what, exc))


def _load_lattice(path: str) -> Lattice:
    return _parse_with(path, Lattice.from_json, "lattice")


def _load_filtration(path: str) -> fil.Filtration:
    return _parse_with(path, fil.Filtration.from_json, "filtration")


def _load_tuple(path: str) -> fil.FiltrationTuple:
    return _parse_with(path, fil.FiltrationTuple.from_json, "filtration tuple")


def _load_point(path: str) -> git.TensorPoint:
    return _parse_with(path, git.TensorPoint.from_json, "tensor point")


def _ints(raw: str, what: str) -> List[int]:
    try:
        return [int(x) for x in raw.split(",") if x != ""]
    except ValueError:
        raise CliError(2, "%s must be a comma-separated integer list" % what)


def _fractions(raw: str, what: str) -> List[Fraction]:
    try:
        return [rat_from_str(x) for x in raw.split(",") if x != ""]
    except (ValueError, ZeroDivisionError):
        raise CliError(2, "%s must be a comma-separated rational list" % what)


def _emit(payload, out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verb handlers


def _lat(args) -> int:
    verb = args.verb
    if verb in ("sum", "tensor"):
        if len(args.inputs) != 2:
            raise CliError(2, "%s needs exactly two lattice files" % verb)
        A, B = (_load_lattice(p) for p in args.inputs)
        combined = direct_sum(A, B) if verb == "sum" else tensor(A, B)
        _emit(combined.to_json(), args.out)
        return 0
    if len(args.inputs) != 1:
        raise CliError(2, "%s needs exactly one lattice file" % verb)
    L = _load_lattice(args.inputs[0])
    if verb == "info":
        _emit(
            {
                "rank": L.rank,
                "degree": _log_json(degree(L)),
                "slope": _log_json(slope(L)),
            },
            args.out,
        )
    elif verb == "dual":
        _emit(dual(L).to_json(), args.out)
    elif verb == "ext":
        _emit(exterior_power(L, args.power).to_json(), args.out)
    elif verb == "hn":
        hn = hn_filtration(L)
        _emit(
            {
                "semistable": hn.is_semistable,
                "chain": [S.basis_rows for S in hn.chain],
                "slopes": [_log_json(s) for s in hn.slopes],
            },
            args.out,
        )
    elif verb == "mumax":
        value, witness = mu_max(L)
        _emit({"mu_max": _log_json(value), "witness": witness.basis_rows}, args.out)
    else:
        value, vec = udeg_max(L)
        _emit({"udeg": _log_json(value), "witness": list(vec)}, args.out)
    return 0


def _fil(args) -> int:
    verb = args.verb
    if verb == "tensor":
        parts = [_load_filtration(p) for p in args.inputs]
        _emit(fil.tensor(parts).to_json(), args.out)
        return 0
    if verb == "scalar":
        if len(args.inputs) != 2:
            raise CliError(2, "scalar needs exactly two filtration files")
        F, G = (_load_filtration(p) for p in args.inputs)
        _emit(
            {
                "scalar_product": rat_to_str(fil.scalar_product(F, G)),
                "norms_squared": [
                    rat_to_str(fil.norm_squared(F)),
                    rat_to_str(fil.norm_squared(G)),
                ],
            },
            args.out,
        )
        return 0
    if len(args.inputs) != 1:
        raise CliError(2, "%s needs exactly one filtration file" % verb)
    F = _load_filtration(args.inputs[0])
    if verb == "eval":
        if args.vector is None:
            raise CliError(2, "eval needs --vector")
        v = _fractions(args.vector, "--vector")
        if len(v) != F.dim:
            raise CliError(2, "--vector length must match the filtration dimension")
        value = fil.lambda_of(F, v)
        _emit(
            {
                "lambda": rat_to_str(value) if any(v) else None,
                "expectation": rat_to_str(fil.expectation(F)),
            },
            args.out,
        )
    else:
        if args.factor is None:
            raise CliError(2, "dilate needs --factor")
        try:
            eps = rat_from_str(args.factor)
        except (ValueError, ZeroDivisionError):
            raise CliError(2, "--factor must be a rational number")
        _emit(fil.dilate(F, eps).to_json(), args.out)
    return 0


def _one_input(args) -> str:
    if len(args.inputs) != 1:
        raise CliError(2, "%s needs exactly one input file" % args.verb)
    return args.inputs[0]


def _git(args) -> int:
    verb = args.verb
    x = _load_point(_one_input(args))
    if verb == "lambda":
        T = _load_tuple(args.filtration)
        try:
            value = git.tensor_lambda(x, T)
        except ValueError as exc:
            raise CliError(2, str(exc))
        _emit({"lambda": rat_to_str(value)}, args.out)
        return 0
    if verb == "mu":
        T = _load_tuple(args.filtration)
        twists = _ints(args.twists, "--twists") if args.twists else None
        try:
            value = git.mu_invariant(x, T, args.m, twists)
        except ValueError as exc:
            raise CliError(2, str(exc))
        _emit({"mu": value}, args.out)
        return 0
    try:
        if verb == "minimize":
            result = git.kempf_minimize(x, rng_seed=args.seed)
            payload = {"semistable": result is None}
            if result is not None:
                payload["minimizer"] = result.to_json()
            _emit(payload, args.out)
        elif verb == "check":
            _emit(git.is_semistable(x, rng_seed=args.seed).to_json(), args.out)
        else:
            verdict = git.is_semistable(x, rng_seed=args.seed)
            if verdict.semistable:
                raise CliError(2, "the point is semistable; nothing to reduce")
            _emit(git.rr_reduce(x, verdict.witness).to_json(), args.out)
    except git.SearchNotConverged as exc:
        raise CliError(2, "search did not converge: %s" % exc)
    return 0


def _inv(args) -> int:
    verb = args.verb
    if verb == "detnorm":
        if args.dim < 1:
            raise CliError(2, "--dim must be positive")
        point, norm = inv.det_tensor(args.dim)
        _emit(
            {
                "dim": args.dim,
                "terms": len(point.coords),
                "norm": _log_json(norm),
            },
            args.out,
        )
        return 0
    if verb == "witness":
        x = _load_point(_one_input(args))
        b = _ints(args.b, "--b")
        found = inv.invariant_witness_search(x, b, args.m, args.dmax, budget=args.budget)
        if found == inv.BUDGET_EXCEEDED:
            payload = {"witness": "budget"}
        elif found is None:
            payload = {"witness": None}
        else:
            payload = {"witness": found.to_json()}
        _emit(payload, args.out)
        return 0
    path = _one_input(args)
    data = _read_json(path)
    try:
        mu_list = [
            (LogValue.from_json(entry["mu"]), int(entry["rank"])) for entry in data
        ]
    except (KeyError, TypeError, ValueError, AttributeError):
        raise CliError(2, "%s: expected a list of {mu: term map, rank: int}" % path)
    b = _ints(args.b, "--b")
    try:
        bound = inv.semistable_degree_bound(mu_list, b, args.m)
    except ValueError as exc:
        raise CliError(2, str(exc))
    _emit({"bound": _log_json(bound)}, args.out)
    return 0


def _verify(args) -> int:
    try:
        config = TrialConfig(
            seed=args.seed,
            ranks=tuple(_ints(args.ranks, "--ranks")),
            entry_bound=args.bound,
            trials=args.trials,
            tolerance_bits=args.tolerance_bits,
        )
        report: TrialReport = VERIFY_CHECKS[args.verb](config)
    except ValueError as exc:
        raise CliError(2, str(exc))
    if args.csv:
        text = report.csv_text()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        sys.stdout.write(text)
    else:
        _emit(report.to_json(), args.out)
    if not report.ok:
        path = "counterexample-%s.json" % args.verb
        with open(path, "w") as handle:
            json.dump(
                {"check": report.check, "params": report.params,
                 "failures": [o.to_json() for o in report.failures]},
                handle, sort_keys=True, indent=2,
            )
        print("FAIL: counterexample written to %s" % path, file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopelab",
        description="Exact slope computations, filtration calculus, and "
        "semistability checks on Euclidean lattices.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    def common(p, inputs=True):
        if inputs:
            p.add_argument("--in", dest="inputs", nargs="+", required=True,
                           help="input JSON file(s)")
        p.add_argument("--out", help="also write the JSON output to this file")

    lat = groups.add_parser("lat", help="lattice constructions and invariants")
    lat_verbs = lat.add_subparsers(dest="verb", required=True)
    for name in ("info", "dual", "sum", "tensor", "hn", "mumax", "udeg"):
        common(lat_verbs.add_parser(name))
    ext = lat_verbs.add_parser("ext")
    common(ext)
    ext.add_argument("--power", type=int, required=True, help="exterior power degree")

    filp = groups.add_parser("fil", help="filtration calculus")
    fil_verbs = filp.add_subparsers(dest="verb", required=True)
    ev = fil_verbs.add_parser("eval")
    common(ev)
    ev.add_argument("--vector", help="comma-separated rational coordinates")
    common(fil_verbs.add_parser("tensor"))
    common(fil_verbs.add_parser("scalar"))
    dil = fil_verbs.add_parser("dilate")
    common(dil)
    dil.add_argument("--factor", help="rational dilation factor")

    gitp = groups.add_parser("git", help="one-parameter subgroup semistability")
    git_verbs = gitp.add_subparsers(dest="verb", required=True)
    for name in ("lambda", "mu"):
        p = git_verbs.add_parser(name)
        common(p)
        p.add_argument("--filtration", required=True, help="filtration tuple JSON file")
        if name == "mu":
            p.add_argument("--m", type=int, required=True, help="linearization twist")
            p.add_argument("--twists", help="per-factor twists, comma separated")
    for name in ("minimize", "check", "reduce"):
        p = git_verbs.add_parser(name)
        common(p)
        p.add_argument("--seed", type=int, default=0)

    invp = groups.add_parser("inv", help="determinant invariants")
    inv_verbs = invp.add_subparsers(dest="verb", required=True)
    dn = inv_verbs.add_parser("detnorm")
    common(dn, inputs=False)
    dn.add_argument("--dim", type=int, required=True)
    wit = inv_verbs.add_parser("witness")
    common(wit)
    wit.add_argument("--b", required=True, help="twist vector, comma separated")
    wit.add_argument("--m", type=int, required=True)
    wit.add_argument("--dmax", type=int, required=True)
    wit.add_argument("--budget", type=int, default=200_000)
    bnd = inv_verbs.add_parser("bound")
    common(bnd)
    bnd.add_argument("--b", required=True, help="twist vector, comma separated")
    bnd.add_argument("--m", type=int, required=True)

    ver = groups.add_parser("verify", help="randomized verification campaigns")
    ver_verbs = ver.add_subparsers(dest="verb", required=True)
    for name in VERIFY_CHECKS:
        p = ver_verbs.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=20)
        p.add_argument("--ranks", default="2,2")
        p.add_argument("--bound", type=int, default=3, help="entry bound for random lattices")
        p.add_argument("--tolerance-bits", type=int, default=40)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", default=True)
        fmt.add_argument("--csv", action="store_true", default=False)
        p.add_argument("--out")
    return parser


HANDLERS = {"lat": _lat, "fil": _fil, "git": _git, "inv": _inv, "verify": _verify}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return HANDLERS[args.group](args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
