"""Command-line front end: analyze, plan, sweep, single-copy, table1, simulate.

Every numeric result carries a provenance label naming the method that
produced it, so reports can be audited: each command builds one
:class:`Report`.  Output formats: text (default), json, csv; ``sweep``
writes CSV only.  Exit codes: 0 success, 1 input error, 2 infeasible query,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
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


class Report:
    """One command's output: its request, labelled results and warnings.

    Each result is added together with its provenance label, the name of
    the method that produced it; :func:`_emit` writes the report.
    """

    def __init__(self, request: dict):
        self.request = request
        self.results: dict[str, tuple[object, str]] = {}
        self.warnings: list[str] = []

    def add(self, key: str, value, label: str) -> None:
        self.results[key] = (value, label)


def _emit(report: Report, fmt: str) -> None:
    items = report.results.items()
    if fmt == "json":
        doc = {
            "request": report.request,
            "results": {key: _round12(value) for key, (value, _) in items},
            "provenance": {key: label for key, (_, label) in items},
            "warnings": report.warnings,
        }
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["key", "value", "provenance"])
        for key, (value, label) in items:
            writer.writerow([key, _round12(value), label])
        for warning in report.warnings:
            writer.writerow(["warning", warning, ""])
    else:
        for key, (value, label) in items:
            print(f"{key} = {_fmt6(value)}  [{label}]")
        for warning in report.warnings:
            print(f"warning: {warning}")


def _read_json_input(path: str | None):
    if path is None or path == "-":
        return json.loads(sys.stdin.read())
    with open(path) as fh:
        return json.load(fh)


def cmd_analyze(args) -> int:
    obj = _read_json_input(args.input)
    s = spectrum.from_json_dict(obj)
    report = Report({"command": "analyze", "strategy": obj})
    report.add("beta", s.beta, "second largest distinct eigenvalue")
    report.add("tau", s.tau, "smallest eigenvalue")
    report.add("nu", s.nu, "spectral gap 1 - beta")
    report.add("distinct", list(s.distinct), "deduped eigenvalues")
    if s.tau > 0.0:
        hc = bounds.h_of(s)
        report.add("h", hc.h, "overhead prefactor 1/min(x ln(1/x)) over extremes")
        report.add("beta_tilde", hc.beta_tilde, "eigenvalue attaining the prefactor")
    else:
        report.warnings.append("singular strategy (tau = 0): prefactor h undefined")
    if args.N is not None:
        report.add("delta_c", adversarial.delta_c(args.N, s),
                   "critical pass level (zero joint weight)")
    if args.epsilon is not None:
        report.add("max_pass_prob", nonadversarial.max_pass_prob(s, args.epsilon),
                   "1 - nu*eps")
        if args.delta is not None:
            t = PrecisionTarget(args.epsilon, args.delta)
            try:
                report.add("n_tests_honest", nonadversarial.num_tests_na(s, t),
                           "honest-exact count")
            except NumericalRange:
                report.add("n_tests_honest_asymptotic",
                           -math.log(t.delta) / (s.nu * t.epsilon),
                           "ln(1/delta)/(nu*eps); exact count out of float range")
                report.warnings.append("nu*eps too small for the exact count")
            report.add("single_test_honest",
                       nonadversarial.single_test_sufficient_na(s, t),
                       "nu*eps + delta >= 1")
    _emit(report, args.format)
    return EXIT_OK


def cmd_plan(args) -> int:
    obj = _read_json_input(args.input)
    t = PrecisionTarget(args.epsilon, args.delta)
    report = Report({"command": "plan", "input": obj, "epsilon": t.epsilon,
                     "delta": t.delta, "adversarial": args.adversarial})

    if "protocol" in obj:
        desc = protocols.protocol_from_json(obj)
        p = protocols.plan(desc, t, args.adversarial)
        report.add("family", desc.family.value, "protocol catalog")
        report.add("nu", desc.nu, "catalog spectral gap")
        report.add("settings", desc.settings, "catalog measurement settings")
        report.add("n_tests_honest", p.n_na, "honest-exact count")
        if args.adversarial:
            report.add("n_tests_adversarial", p.n_adv, p.formula)
            report.add("hedge_p", p.hedge_p, "trivial-test probability")
            if p.lambda_effective is not None:
                report.add("lambda_effective", p.lambda_effective,
                           "hedged common eigenvalue")
        _emit(report, args.format)
        return EXIT_OK

    # Protocol plans hedge by the catalog's rule; only strategies read --hedge.
    report.request["hedge"] = args.hedge
    s = spectrum.from_json_dict(obj)
    report.add("n_tests_honest", nonadversarial.num_tests_na(s, t), "honest-exact count")
    if args.adversarial:
        p, label = _hedge_choice(args.hedge, s)
        hedged = hedging.hedge(s, p)
        report.add("hedge_p", p, label)
        if hedged.singular:
            report.warnings.append(
                "strategy is singular: the count scales like 1/delta, "
                "not ln(1/delta); consider hedging"
            )
        gb = bounds.tests_bounds_general(hedged, t)
        report.add("n_upper_universal", gb.upper, "universal count bound")
        if gb.exact is not None:
            report.add("n_exact_singular", gb.exact, "singular large-gap exact count")
        if hedged.tau > 0.0:
            nb = bounds.tests_bounds_nonsingular(hedged, t)
            report.add("n_lower_prefactor", nb.lower, "two-level lower bound")
            report.add("n_upper_prefactor", nb.upper, "prefactor upper bound")
        try:
            hb = hedging.hedged_tests_upper(s, t, p)
            report.add("n_upper_hedged", hb.bound_int, "hedged planning bound")
        except (errors.OutOfRange, errors.SingularHedge):
            pass
        try:
            report.add("n_tests_adversarial",
                       adversarial.min_tests_adv(hedged, t, cap=args.cap),
                       "hull-exact count")
        except SizeLimit as exc:
            report.warnings.append(
                f"exact count skipped: {exc}; bounds reported instead"
            )
    _emit(report, args.format)
    return EXIT_OK


def _hedge_choice(flag: str, s: spectrum.Spectrum):
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

    def rate_approx(eps: float, dlt: float, lam: float) -> float:
        # the columns' log-rate formula, or the singular-rate one at lam = 0
        if lam > 0.0:
            return math.log(dlt) / (lam * eps * math.log(lam))
        return (1.0 - dlt) / (eps * dlt)

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
            approx = rate_approx(t.epsilon, t.delta, lam)
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
            approx = rate_approx(args.epsilon, dlt, args.lam)
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
    else:
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
    report = Report({"command": "single-copy", "epsilon": t.epsilon,
                     "delta": t.delta, "beta": args.beta, "tau": args.tau})

    if args.beta is not None:
        tau = args.tau if args.tau is not None else args.beta
        joint = single_copy.zeta_one_general(t.delta, args.beta, tau)
        required = t.delta * (1.0 - t.epsilon)
        feasible = joint >= required
        report.add("feasible", feasible, "single-test piecewise formula vs target")
        report.add("joint_weight", joint, "single-test piecewise formula")
        report.add("required_joint_weight", required, "delta*(1-eps)")
        if t.delta <= 0.5:
            report.add("feasible_criterion",
                       single_copy.single_copy_feasible_strategy(args.beta, tau, t),
                       "extreme-eigenvalue criterion")
    else:
        feasible = single_copy.single_copy_feasible(t)
        value, optimizers = single_copy.max_zeta_one(t.delta)
        report.add("feasible", feasible, "single-test feasibility threshold")
        report.add("delta_threshold", single_copy.feasibility_threshold(t.epsilon),
                   "min(4(1-eps)/(2-eps)^2, 1/(1+eps))")
        report.add("best_joint_weight", value, "best single-test joint weight")
        report.add("optimal_lambdas", optimizers, "optimizing two-level eigenvalues")
        if t.delta <= 0.5:
            window = single_copy.lambda_window(t)
            if window is None:
                report.add("lambda_window", None, "no feasible two-level eigenvalue")
            else:
                report.add("lambda_window", list(window),
                           "feasible two-level eigenvalue interval")
    _emit(report, args.format)
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_table1(args) -> int:
    t = PrecisionTarget(args.epsilon, args.delta)
    rows = protocols.table1(
        t, d=args.d, qudit_d=args.qudit_d, chi=args.chi, dicke_n=args.n
    )
    if args.format == "json":
        report = Report({"command": "table1", "epsilon": t.epsilon, "delta": t.delta})
        report.add(
            "rows",
            [
                {
                    "family": r.family,
                    "nu": _round12(r.nu),
                    "homogeneous": r.homogeneous,
                    "n_tests_honest": r.n_na,
                    "n_tests_adversarial": r.n_adv,
                }
                for r in rows
            ],
            "catalog display formulas (see per-row formula fields)",
        )
        _emit(report, "json")
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
    report = Report({"command": f"simulate {args.game}", "seed": args.seed,
                     "trials": args.trials})
    if args.game == "iid":
        s = spectrum.from_json_dict(_read_json_input(args.input))
        weights = tuple(float(x) for x in args.weights.split(","))
        stats = simulate.run_iid(
            s, simulate.StateModel(weights), args.n_tests, args.trials, args.seed
        )
        report.add("pass_frequency", stats.pass_frequency, "Monte Carlo")
        report.add("std_error", stats.std_error, "binomial standard error")
        report.add("expected", stats.expected, "(sum x_j lam_j)^N")
    elif args.game == "block":
        doc = _read_json_input(args.input)
        s = spectrum.from_json_dict(doc)
        model = simulate.block_model_from_json(doc["mixture"])
        n = sum(next(iter(model.mixture))) - 1
        stats = simulate.run_block(s, model, n, args.trials, args.seed)
        report.add("p_hat", stats.p_hat, "Monte Carlo all-pass frequency")
        report.add("f_hat", stats.f_hat, "Monte Carlo joint frequency")
        report.add("p_expected", stats.p_expected, "mixture average of per-multiset points")
        report.add("f_expected", stats.f_expected, "mixture average of per-multiset points")
    else:
        stats = simulate.run_estimator(
            args.lam, args.fidelity, args.n_tests, args.trials, args.seed
        )
        report.add("mean_estimate", stats.mean_estimate, "Monte Carlo")
        report.add("std_estimate", stats.std_estimate, "Monte Carlo (ddof=1)")
        report.add("predicted_std", stats.predicted_std, "sqrt(p(1-p))/(nu sqrt(N))")
        report.add("std_bound", stats.std_bound, "1/(2 nu sqrt(N))")
    report.add("rng", stats.rng, "generator id")
    _emit(report, args.format)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process, on the first main() call.  It holds no
    # handlers: main() looks cmd_* up at call time, so a replaced module
    # attribute is the one that runs.
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

    p = sub.add_parser("sweep", help="CSV sweep of a parameter")
    p.add_argument("--param", choices=["lambda", "delta", "epsilon", "nu"],
                   required=True)
    p.add_argument("--range", required=True, help="a:b:n")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--lam", type=float, default=0.0,
                   help="fixed eigenvalue for delta sweeps")
    p.add_argument("--format", choices=["csv"], default="csv")

    p = sub.add_parser("single-copy", help="one-test feasibility")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    add_common(p)

    p = sub.add_parser("table1", help="catalog of state families")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--qudit-d", type=int, default=3, dest="qudit_d")
    p.add_argument("--chi", type=int, default=3)
    p.add_argument("--n", type=int, default=4)
    add_common(p)

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

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except NumericalRange as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (VerificationError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
