"""Command-line front end: analyze, plan, sweep, single-copy, table1, simulate.

Every numeric result carries a provenance label naming the method that
produced it, so reports can be audited.  Output formats: text (default),
json, csv.  Exit codes: 0 success, 1 input error, 2 infeasible query,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import (
    adversarial,
    bounds,
    hedging,
    homogeneous,
    nonadversarial,
    protocols,
    simulate,
    single_copy,
    spectrum,
)
from . import errors
from .errors import NumericalRange, SizeLimit, VerificationError
from .nonadversarial import PrecisionTarget

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _fmt6(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt6(v) for v in value) + "]"
    return str(value)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        rounded = {
            "request": report["request"],
            "results": {k: _round12(v) for k, v in report["results"].items()},
            "provenance": report["provenance"],
            "warnings": report["warnings"],
        }
        print(json.dumps(rounded, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["key", "value", "provenance"])
        for key, value in report["results"].items():
            writer.writerow(
                [key, _round12(value), report["provenance"].get(key, "")]
            )
        for warning in report["warnings"]:
            writer.writerow(["warning", warning, ""])
    else:
        for key, value in report["results"].items():
            label = report["provenance"].get(key, "")
            print(f"{key} = {_fmt6(value)}  [{label}]")
        for warning in report["warnings"]:
            print(f"warning: {warning}")


def _read_json_input(path: str | None):
    if path is None or path == "-":
        return json.loads(sys.stdin.read())
    with open(path) as fh:
        return json.load(fh)


def cmd_analyze(args) -> int:
    obj = _read_json_input(args.input)
    s = spectrum.from_json_dict(obj)
    results = {
        "beta": s.beta,
        "tau": s.tau,
        "nu": s.nu,
        "distinct": list(s.distinct),
    }
    provenance = {
        "beta": "second largest distinct eigenvalue",
        "tau": "smallest eigenvalue",
        "nu": "spectral gap 1 - beta",
        "distinct": "deduped eigenvalues",
    }
    warnings = []
    if s.tau > 0.0:
        hc = bounds.h_of(s)
        results["h"] = hc.h
        results["beta_tilde"] = hc.beta_tilde
        provenance["h"] = "overhead prefactor 1/min(x ln(1/x)) over extremes"
        provenance["beta_tilde"] = "eigenvalue attaining the prefactor"
    else:
        warnings.append("singular strategy (tau = 0): prefactor h undefined")
    if args.N is not None:
        results["delta_c"] = adversarial.delta_c(args.N, s)
        provenance["delta_c"] = "critical pass level (zero joint weight)"
    if args.epsilon is not None:
        results["max_pass_prob"] = nonadversarial.max_pass_prob(s, args.epsilon)
        provenance["max_pass_prob"] = "1 - nu*eps"
        if args.delta is not None:
            t = PrecisionTarget(args.epsilon, args.delta)
            try:
                results["n_tests_honest"] = nonadversarial.num_tests_na(s, t)
                provenance["n_tests_honest"] = "honest-exact count"
            except NumericalRange:
                approx = -math.log(t.delta) / (s.nu * t.epsilon)
                results["n_tests_honest_asymptotic"] = approx
                provenance["n_tests_honest_asymptotic"] = (
                    "ln(1/delta)/(nu*eps); exact count out of float range"
                )
                warnings.append("nu*eps too small for the exact count")
            results["single_test_honest"] = nonadversarial.single_test_sufficient_na(
                s, t
            )
            provenance["single_test_honest"] = "nu*eps + delta >= 1"
    _emit(
        {
            "request": {"command": "analyze", "strategy": obj},
            "results": results,
            "provenance": provenance,
            "warnings": warnings,
        },
        args.format,
    )
    return EXIT_OK


def cmd_plan(args) -> int:
    obj = _read_json_input(args.input)
    t = PrecisionTarget(args.epsilon, args.delta)
    warnings: list[str] = []

    if "protocol" in obj:
        desc = protocols.protocol_from_json(obj)
        p = protocols.plan(desc, t, args.adversarial)
        results = {
            "family": desc.family.value,
            "nu": desc.nu,
            "settings": desc.settings,
            "n_tests_honest": p.n_na,
        }
        provenance = {
            "family": "protocol catalog",
            "nu": "catalog spectral gap",
            "settings": "catalog measurement settings",
            "n_tests_honest": "honest-exact count",
        }
        if args.adversarial:
            results["n_tests_adversarial"] = p.n_adv
            results["hedge_p"] = p.hedge_p
            provenance["n_tests_adversarial"] = p.formula
            provenance["hedge_p"] = "trivial-test probability"
            if p.lambda_effective is not None:
                results["lambda_effective"] = p.lambda_effective
                provenance["lambda_effective"] = "hedged common eigenvalue"
        _emit(
            {
                "request": {"command": "plan", "input": obj, "epsilon": t.epsilon,
                            "delta": t.delta, "adversarial": args.adversarial},
                "results": results,
                "provenance": provenance,
                "warnings": warnings,
            },
            args.format,
        )
        return EXIT_OK

    s = spectrum.from_json_dict(obj)
    results = {"n_tests_honest": nonadversarial.num_tests_na(s, t)}
    provenance = {"n_tests_honest": "honest-exact count"}

    if args.adversarial:
        p, label = _hedge_choice(args.hedge, s, warnings)
        hedged = hedging.hedge(s, p)
        results["hedge_p"] = p
        provenance["hedge_p"] = label
        if hedged.singular:
            warnings.append(
                "strategy is singular: the count scales like 1/delta, "
                "not ln(1/delta); consider hedging"
            )
        gb = bounds.tests_bounds_general(hedged, t)
        results["n_upper_universal"] = gb.upper
        provenance["n_upper_universal"] = "universal count bound"
        if gb.exact is not None:
            results["n_exact_singular"] = gb.exact
            provenance["n_exact_singular"] = "singular large-gap exact count"
        if hedged.tau > 0.0:
            nb = bounds.tests_bounds_nonsingular(hedged, t)
            results["n_lower_prefactor"] = nb.lower
            results["n_upper_prefactor"] = nb.upper
            provenance["n_lower_prefactor"] = "two-level lower bound"
            provenance["n_upper_prefactor"] = "prefactor upper bound"
        try:
            hb = hedging.hedged_tests_upper(s, t, p)
            results["n_upper_hedged"] = hb.bound_int
            provenance["n_upper_hedged"] = "hedged planning bound"
        except (errors.OutOfRange, errors.SingularHedge):
            pass
        try:
            results["n_tests_adversarial"] = adversarial.min_tests_adv(
                hedged, t, cap=args.cap
            )
            provenance["n_tests_adversarial"] = "hull-exact count"
        except SizeLimit as exc:
            warnings.append(f"exact count skipped: {exc}; bounds reported instead")
    _emit(
        {
            "request": {"command": "plan", "input": obj, "epsilon": t.epsilon,
                        "delta": t.delta, "adversarial": args.adversarial,
                        "hedge": args.hedge},
            "results": results,
            "provenance": provenance,
            "warnings": warnings,
        },
        args.format,
    )
    return EXIT_OK


def _hedge_choice(flag: str, s: spectrum.Spectrum, warnings: list[str]):
    if flag == "none":
        return 0.0, "no hedging requested"
    if flag.startswith("p="):
        return float(flag[2:]), "explicit trivial-test probability"
    if flag == "auto":
        p = hedging.p_star(s.nu, s.tau)
        return p, "balance-optimal trivial-test probability"
    raise VerificationError(f"bad --hedge value {flag!r}")


def cmd_sweep(args) -> int:
    lo, hi, num = _parse_range(args.range)
    grid = [lo + (hi - lo) * i / (num - 1) if num > 1 else lo for i in range(num)]
    # Every row is computed before any is written, so an error prints nothing.
    rows: list[list] = []

    if args.param == "lambda":
        t = PrecisionTarget(args.epsilon, args.delta)
        header = [
            "lambda",
            "n_tests_honest:honest-exact",
            "n_tests_adversarial:two-level-exact",
            "n_tests_approx:log-rate-formula",
        ]
        for lam in grid:
            s = spectrum.homogeneous(lam)
            n_na = nonadversarial.num_tests_na(s, t)
            n_adv = homogeneous.min_tests_homo(t.epsilon, t.delta, lam)
            approx = (
                math.log(t.delta) / (lam * t.epsilon * math.log(lam))
                if lam > 0.0
                else (1.0 - t.delta) / (t.epsilon * t.delta)
            )
            rows.append([f"{lam:.12g}", n_na, n_adv, f"{approx:.12g}"])
    elif args.param == "delta":
        header = [
            "delta",
            "n_tests_adversarial:two-level-exact",
            "n_tests_approx:singular-rate-formula"
            if args.lam == 0.0
            else "n_tests_approx:log-rate-formula",
        ]
        for dlt in grid:
            n_adv = homogeneous.min_tests_homo(args.epsilon, dlt, args.lam)
            if args.lam == 0.0:
                approx = (1.0 - dlt) / (args.epsilon * dlt)
            else:
                approx = math.log(dlt) / (args.lam * args.epsilon * math.log(args.lam))
            rows.append([f"{dlt:.12g}", n_adv, f"{approx:.12g}"])
    elif args.param == "epsilon":
        header = [
            "epsilon",
            "lambda_star:optimal-eigenvalue-root",
            "normalized_overhead:rate-vs-benchmark",
        ]
        for eps in grid:
            summary = homogeneous.normalized_overhead(eps)
            rows.append(
                [
                    f"{eps:.12g}",
                    f"{summary.lambda_star:.12g}",
                    f"{summary.normalized_best:.12g}",
                ]
            )
    elif args.param == "nu":
        header = [
            "nu",
            "p_star:balance-root",
            "h_star:minimal-prefactor",
            "nu_h_star:overhead",
            "nu_h_p0:overhead-at-nu-over-e",
        ]
        for nu in grid:
            ps = hedging.p_star(nu, 0.0)
            hs = hedging.h_star(nu, 0.0)
            h0 = hedging.h_p(hedging.p_zero(nu), nu, 0.0)
            rows.append(
                [
                    f"{nu:.12g}",
                    f"{ps:.12g}",
                    f"{hs:.12g}",
                    f"{nu * hs:.12g}",
                    f"{nu * h0:.12g}",
                ]
            )
    else:
        raise VerificationError(f"unknown sweep parameter {args.param!r}")
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)
    return EXIT_OK


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise VerificationError("range must be a:b:n")
    lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise VerificationError("range bounds must be finite numbers")
    if num < 1 or hi < lo:
        raise VerificationError("range must satisfy a <= b and n >= 1")
    return lo, hi, num


def cmd_single_copy(args) -> int:
    t = PrecisionTarget(args.epsilon, args.delta)
    warnings: list[str] = []
    results: dict = {}
    provenance: dict = {}

    if args.beta is not None:
        tau = args.tau if args.tau is not None else args.beta
        joint = single_copy.zeta_one_general(t.delta, args.beta, tau)
        feasible = joint >= t.delta * (1.0 - t.epsilon) - 1e-12
        results.update(
            {
                "feasible": feasible,
                "joint_weight": joint,
                "required_joint_weight": t.delta * (1.0 - t.epsilon),
            }
        )
        provenance.update(
            {
                "feasible": "single-test piecewise formula vs target",
                "joint_weight": "single-test piecewise formula",
                "required_joint_weight": "delta*(1-eps)",
            }
        )
        if t.delta <= 0.5:
            results["feasible_criterion"] = single_copy.single_copy_feasible_strategy(
                args.beta, tau, t
            )
            provenance["feasible_criterion"] = "extreme-eigenvalue criterion"
    else:
        feasible = single_copy.single_copy_feasible(t)
        value, optimizers = single_copy.max_zeta_one(t.delta)
        results.update(
            {
                "feasible": feasible,
                "delta_threshold": single_copy.feasibility_threshold(t.epsilon),
                "best_joint_weight": value,
                "optimal_lambdas": optimizers,
            }
        )
        provenance.update(
            {
                "feasible": "single-test feasibility threshold",
                "delta_threshold": "min(4(1-eps)/(2-eps)^2, 1/(1+eps))",
                "best_joint_weight": "best single-test joint weight",
                "optimal_lambdas": "optimizing two-level eigenvalues",
            }
        )
        if t.delta <= 0.5:
            window = single_copy.lambda_window(t)
            if window is None:
                results["lambda_window"] = None
                provenance["lambda_window"] = "no feasible two-level eigenvalue"
            else:
                results["lambda_window"] = list(window)
                provenance["lambda_window"] = "feasible two-level eigenvalue interval"
    _emit(
        {
            "request": {
                "command": "single-copy",
                "epsilon": t.epsilon,
                "delta": t.delta,
                "beta": args.beta,
                "tau": args.tau,
            },
            "results": results,
            "provenance": provenance,
            "warnings": warnings,
        },
        args.format,
    )
    return EXIT_OK if results["feasible"] else EXIT_INFEASIBLE


def cmd_table1(args) -> int:
    t = PrecisionTarget(args.epsilon, args.delta)
    rows = protocols.table1(
        t, d=args.d, qudit_d=args.qudit_d, chi=args.chi, dicke_n=args.n
    )
    if args.format == "json":
        doc = {
            "request": {"command": "table1", "epsilon": t.epsilon, "delta": t.delta},
            "results": {
                "rows": [
                    {
                        "family": r.family,
                        "nu": _round12(r.nu),
                        "homogeneous": r.homogeneous,
                        "n_tests_honest": r.n_na,
                        "n_tests_adversarial": r.n_adv,
                    }
                    for r in rows
                ]
            },
            "provenance": {
                "rows": "catalog display formulas (see per-row formula fields)"
            },
            "warnings": [],
        }
        print(json.dumps(doc, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(
            [
                "family",
                "nu",
                "homogeneous",
                "n_tests_honest",
                "n_tests_adversarial",
                "honest_formula",
                "adversarial_formula",
            ]
        )
        for r in rows:
            writer.writerow(
                [
                    r.family,
                    f"{r.nu:.6g}",
                    r.homogeneous,
                    r.n_na,
                    r.n_adv,
                    r.na_formula,
                    r.adv_formula,
                ]
            )
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.game == "iid":
        s = spectrum.from_json_dict(_read_json_input(args.input))
        weights = tuple(float(x) for x in args.weights.split(","))
        stats = simulate.run_iid(
            s, simulate.StateModel(weights), args.n_tests, args.trials, args.seed
        )
        results = {
            "pass_frequency": stats.pass_frequency,
            "std_error": stats.std_error,
            "expected": stats.expected,
            "rng": stats.rng,
        }
        provenance = {
            "pass_frequency": "Monte Carlo",
            "std_error": "binomial standard error",
            "expected": "(sum x_j lam_j)^N",
            "rng": "generator id",
        }
    elif args.game == "block":
        doc = _read_json_input(args.input)
        s = spectrum.from_json_dict(doc)
        model = simulate.block_model_from_json(doc["mixture"])
        n = sum(next(iter(model.mixture))) - 1
        stats = simulate.run_block(s, model, n, args.trials, args.seed)
        results = {
            "p_hat": stats.p_hat,
            "f_hat": stats.f_hat,
            "p_expected": stats.p_expected,
            "f_expected": stats.f_expected,
            "rng": stats.rng,
        }
        provenance = {
            "p_hat": "Monte Carlo all-pass frequency",
            "f_hat": "Monte Carlo joint frequency",
            "p_expected": "mixture average of per-multiset points",
            "f_expected": "mixture average of per-multiset points",
            "rng": "generator id",
        }
    elif args.game == "estimator":
        stats = simulate.run_estimator(
            args.lam, args.fidelity, args.n_tests, args.trials, args.seed
        )
        results = {
            "mean_estimate": stats.mean_estimate,
            "std_estimate": stats.std_estimate,
            "predicted_std": stats.predicted_std,
            "std_bound": stats.std_bound,
            "rng": stats.rng,
        }
        provenance = {
            "mean_estimate": "Monte Carlo",
            "std_estimate": "Monte Carlo (ddof=1)",
            "predicted_std": "sqrt(p(1-p))/(nu sqrt(N))",
            "std_bound": "1/(2 nu sqrt(N))",
            "rng": "generator id",
        }
    else:
        raise VerificationError(f"unknown simulate game {args.game!r}")
    _emit(
        {
            "request": {"command": f"simulate {args.game}", "seed": args.seed,
                        "trials": args.trials},
            "results": results,
            "provenance": provenance,
            "warnings": [],
        },
        args.format,
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsverify",
        description="Figures of merit and test planning for pure-state verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = sub.add_parser("analyze", help="spectral summary of a strategy")
    p.add_argument("--input", default=None, help="strategy JSON file ('-' = stdin)")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plan", help="test counts for a strategy or protocol")
    p.add_argument("--input", default=None)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--adversarial", action="store_true")
    p.add_argument("--hedge", default="auto", help="auto | none | p=VALUE")
    p.add_argument("--cap", type=int, default=adversarial.DEFAULT_CAP,
                   help="most label multisets one exact hull may enumerate: "
                        "C(N+3, 2) at the search's upper N, whatever the number "
                        "of distinct eigenvalues (default 10^7); above it, "
                        "bounds are reported instead. Bounds only the hull "
                        "path: closed-form counts ignore it")
    add_common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="CSV sweep of a parameter")
    p.add_argument("--param", choices=["lambda", "delta", "epsilon", "nu"],
                   required=True)
    p.add_argument("--range", required=True, help="a:b:n")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--lam", type=float, default=0.0,
                   help="fixed eigenvalue for delta sweeps")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("single-copy", help="one-test feasibility")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    add_common(p)
    p.set_defaults(func=cmd_single_copy)

    p = sub.add_parser("table1", help="catalog of state families")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--qudit-d", type=int, default=3, dest="qudit_d")
    p.add_argument("--chi", type=int, default=3)
    p.add_argument("--n", type=int, default=4)
    add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("simulate", help="Monte Carlo cross-checks")
    p.add_argument("game", choices=["iid", "block", "estimator"])
    p.add_argument("--input", default=None)
    p.add_argument("--weights", default="1.0",
                   help="comma-separated state weights (iid)")
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--fidelity", type=float, default=1.0)
    p.add_argument("--n-tests", type=int, default=100, dest="n_tests")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalRange as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (VerificationError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
