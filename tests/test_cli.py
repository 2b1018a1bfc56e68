import contextlib
import csv
import io
import json
import math
import sys

import pytest
from hypothesis import given, strategies as st

from qsverify import cli


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_homogeneous(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["analyze", "--N", "3"],
        stdin='{"homogeneous": {"lambda": 0.5}}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "delta_c = 0.125" in out
    assert "nu = 0.5" in out


def test_analyze_prefactor(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["analyze", "--format", "json"],
        stdin='{"eigenvalues": [1, 0.5, 0.1]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"request", "results", "provenance", "warnings"}
    assert doc["results"]["h"] == pytest.approx(4.34294481903, abs=1e-9)
    assert doc["results"]["beta_tilde"] == 0.1
    assert set(doc["results"]) <= set(doc["provenance"]) | {"distinct"}


def test_analyze_bad_input_exit_code(capsys, monkeypatch):
    code, _, err = run(
        capsys,
        ["analyze"],
        stdin='{"eigenvalues": [0.9, 0.5]}',
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert "1" in err or "eigenvalue" in err


def test_analyze_numerical_exit_code(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["analyze", "--epsilon", "1e-13", "--delta", "0.1"],
        stdin='{"homogeneous": {"lambda": 0.5}}',
        monkeypatch=monkeypatch,
    )
    # the asymptotic count is reported with a warning instead of failing
    assert code == 0
    assert "asymptotic" in out


def test_plan_exact_with_bounds(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        [
            "plan",
            "--epsilon", "0.01", "--delta", "0.01",
            "--adversarial", "--format", "json",
        ],
        stdin=json.dumps({"homogeneous": {"lambda": 1 / math.e}}),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert res["n_lower_prefactor"] <= res["n_tests_adversarial"]
    assert res["n_tests_adversarial"] <= res["n_upper_prefactor"]
    assert doc["provenance"]["n_tests_adversarial"] == "hull-exact count"


def test_plan_cap_warns_but_succeeds(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        [
            "plan",
            "--epsilon", "0.01", "--delta", "0.01",
            "--adversarial", "--cap", "1000", "--format", "json",
        ],
        stdin='{"eigenvalues": [1, 0.6, 0.4, 0.2]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert "n_tests_adversarial" not in doc["results"]
    assert doc["results"]["n_upper_prefactor"] >= 1
    assert any("exact count skipped" in w for w in doc["warnings"])


@pytest.mark.parametrize(
    "strategy",
    [{"homogeneous": {"lambda": 0.138}}, {"eigenvalues": [1, 0.138, 0.138]}],
)
def test_plan_two_level_count_is_exact(capsys, monkeypatch, strategy):
    # the hull search's 1e-12 slack once accepted 2633 here
    code, out, _ = run(
        capsys,
        [
            "plan", "--epsilon", "0.00538", "--delta", "0.00484",
            "--adversarial", "--hedge", "auto", "--format", "json",
        ],
        stdin=json.dumps(strategy),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["results"]["n_tests_adversarial"] == 2634


def test_plan_cap_bounds_only_the_hull(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        [
            "plan", "--epsilon", "0.01", "--delta", "0.01", "--adversarial",
            "--hedge", "none", "--cap", "100", "--format", "json",
        ],
        stdin='{"homogeneous": {"lambda": 0.5}}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["n_tests_adversarial"] == 1307
    assert doc["warnings"] == []


def test_plan_near_unit_two_level_skips_exact_count(capsys, monkeypatch):
    # beta >= MAX_LAM has no closed form, so the hull path's cap applies
    code, out, _ = run(
        capsys,
        [
            "plan", "--epsilon", "0.01", "--delta", "0.01",
            "--adversarial", "--format", "json",
        ],
        stdin='{"eigenvalues": [1, 0.9999999999]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert "n_tests_adversarial" not in doc["results"]
    assert any("exact count skipped" in w for w in doc["warnings"])


def test_plan_one_test_when_delta_above_beta(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        [
            "plan", "--epsilon", "0.9", "--delta", "0.9",
            "--adversarial", "--hedge", "none", "--format", "json",
        ],
        stdin='{"eigenvalues": [1, 0.2]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["results"]["n_tests_adversarial"] == 1


def test_plan_exact_for_eight_eigenvalues_under_default_cap(capsys, monkeypatch):
    # the cap counts multisets on {1, beta, tau}, C(N+3, 2), not C(N+8, 7)
    code, out, _ = run(
        capsys,
        [
            "plan", "--epsilon", "0.05", "--delta", "0.05",
            "--adversarial", "--hedge", "none", "--format", "json",
        ],
        stdin='{"eigenvalues": [1, 0.7, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["n_tests_adversarial"] == 236
    assert not any("exact count skipped" in w for w in doc["warnings"])


def test_plan_hedge_none_singular_warns(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        [
            "plan",
            "--epsilon", "0.1", "--delta", "0.1",
            "--adversarial", "--hedge", "none", "--format", "json",
        ],
        stdin='{"homogeneous": {"lambda": 0}}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert any("1/delta" in w for w in doc["warnings"])
    assert doc["results"]["n_tests_adversarial"] == 90
    assert doc["results"]["n_exact_singular"] == 90


def test_plan_protocol(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        [
            "plan",
            "--epsilon", "0.01", "--delta", "0.001",
            "--adversarial", "--format", "json",
        ],
        stdin=json.dumps(
            {"protocol": {"family": "StabilizerQubit", "n": 5}}
        ),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    n = doc["results"]["n_tests_adversarial"]
    assert n < 2.89 * math.log(1000) / 0.01
    assert doc["results"]["settings"] == 31


def test_sweep_lambda_u_shape(capsys):
    code, out, _ = run(
        capsys,
        [
            "sweep", "--param", "lambda", "--range", "0.15:0.6:10",
            "--epsilon", "0.01", "--delta", "0.0001",
        ],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "lambda"
    assert all(":" in name for name in rows[0][1:])
    lams = [float(r[0]) for r in rows[1:]]
    counts = [int(r[2]) for r in rows[1:]]
    best = lams[counts.index(min(counts))]
    assert abs(best - 1 / math.e) < 0.1
    # U shape: endpoints above the minimum
    assert counts[0] > min(counts) and counts[-1] > min(counts)


def test_sweep_delta_singular_formula(capsys):
    code, out, _ = run(
        capsys,
        [
            "sweep", "--param", "delta", "--range", "0.1:0.9:9",
            "--epsilon", "0.1", "--lam", "0",
        ],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    for row in rows[1:]:
        dlt, n, approx = float(row[0]), int(row[1]), float(row[2])
        assert approx == pytest.approx((1 - dlt) / (0.1 * dlt), rel=1e-9)
        assert n == math.ceil(approx - 1e-9)


def test_sweep_epsilon_overhead_curve(capsys):
    code, out, _ = run(
        capsys, ["sweep", "--param", "epsilon", "--range", "0.01:0.5:50"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    values = [float(r[2]) for r in rows[1:]]
    assert all(v >= 0.965 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_sweep_nu_hedging_curves(capsys):
    code, out, _ = run(capsys, ["sweep", "--param", "nu", "--range", "0.1:1.0:10"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    overhead = [float(r[3]) for r in rows[1:]]
    assert all(b > a for a, b in zip(overhead, overhead[1:]))
    assert overhead[-1] == pytest.approx(math.e, abs=1e-9)


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, ["sweep", "--param", "lambda", "--range", "oops"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--param", "nu", "--range", "nan:1:4"],
        ["--param", "lambda", "--range", "0.2:inf:4"],
        ["--param", "delta", "--range", "0.1:0.5:3", "--lam", "nan"],
        ["--param", "delta", "--range", "0.1:0.5:3", "--epsilon", "inf"],
        ["--param", "lambda", "--range", "0.2:1.5:4"],
        ["--param", "delta", "--range", "0.5:1.5:3", "--lam", "0.3"],
    ],
)
def test_sweep_bad_input_writes_nothing(capsys, argv):
    code, out, _ = run(capsys, ["sweep", *argv])
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sweep_rejects_formats_other_than_csv(capsys, fmt):
    # sweep writes CSV only, so any other --format is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--param", "nu", "--range", "0.1:1.0:4", "--format", fmt])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_sweep_writes_csv_by_default(capsys):
    argv = ["sweep", "--param", "nu", "--range", "0.1:1.0:4"]
    _, default, _ = run(capsys, argv)
    _, explicit, _ = run(capsys, [*argv, "--format", "csv"])
    assert default == explicit
    assert default.startswith("nu,p_star:balance-root,")


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_replaced_handler_runs_after_an_earlier_call(capsys, monkeypatch):
    # main() looks its handler up at call time, so a parser cached by an
    # earlier call does not keep calling the original function.
    run(capsys, ["analyze"], stdin='{"homogeneous": {"lambda": 0.5}}',
        monkeypatch=monkeypatch)
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.N) or 5)
    assert cli.main(["analyze", "--N", "3"]) == 5
    assert seen == [3]


def test_usage_error_leaves_the_parser_unchanged(capsys, monkeypatch):
    argv = ["analyze", "--N", "3", "--epsilon", "0.1", "--delta", "0.1"]
    stdin = '{"eigenvalues": [1, 0.5, 0.1]}'
    cli._build_parser.cache_clear()
    first = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--param", "nu", "--range", "0.1:1.0:4", "--format", "text"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch) == first
    assert first[0] == 0 and first[1]


def test_plan_bad_hedge_flag(capsys, monkeypatch):
    code, _, err = run(
        capsys,
        ["plan", "--epsilon", "0.1", "--delta", "0.1", "--adversarial",
         "--hedge", "p=oops"],
        stdin='{"homogeneous": {"lambda": 0.5}}',
        monkeypatch=monkeypatch,
    )
    assert code == 1
    code, _, err = run(
        capsys,
        ["plan", "--epsilon", "0.1", "--delta", "0.1", "--adversarial",
         "--hedge", "p=1.5"],
        stdin='{"homogeneous": {"lambda": 0.5}}',
        monkeypatch=monkeypatch,
    )
    assert code == 1


@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "-0.5"])
def test_plan_hedge_p_outside_range_rejected(capsys, monkeypatch, p):
    code, out, err = run(
        capsys,
        ["plan", "--epsilon", "0.2", "--delta", "0.2", "--adversarial",
         "--hedge", f"p={p}"],
        stdin='{"homogeneous": {"lambda": 0.5}}',
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (1, "")
    assert f"p {float(p)!r} outside [0, 1)" in err


def _main_quiet(argv, stdin):
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@given(
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    command_field=st.sampled_from(
        [(c, f) for c in ("analyze", "plan") for f in ("eigenvalue", "lambda", "epsilon", "delta")]
        + [("plan", "hedge")]
    ),
    position=st.integers(0, 3),
)
def test_any_non_finite_field_exits_1(bad, command_field, position):
    command, field = command_field
    values = [1.0, 0.6, 0.3]
    values.insert(position, bad)
    doc = (
        {"eigenvalues": values} if field == "eigenvalue"
        else {"homogeneous": {"lambda": bad if field == "lambda" else 0.5}}
    )
    eps = repr(bad) if field == "epsilon" else "0.2"
    dlt = repr(bad) if field == "delta" else "0.2"
    argv = [command, f"--epsilon={eps}", f"--delta={dlt}"]
    if command == "plan":
        argv += ["--adversarial", "--hedge", f"p={bad!r}" if field == "hedge" else "none"]
    code, out, err = _main_quiet(argv, json.dumps(doc))
    assert (code, out) == (1, "")
    assert err.startswith("input error")


def test_single_copy_feasible(capsys):
    code, out, _ = run(
        capsys,
        ["single-copy", "--epsilon", "0.8", "--delta", "0.5555555555555556",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["feasible"] is True
    opts = doc["results"]["optimal_lambdas"]
    assert sorted(opts) == pytest.approx([0.0, 1 / 3], abs=1e-6)


def test_single_copy_infeasible_exit_2(capsys):
    code, out, _ = run(
        capsys, ["single-copy", "--epsilon", "0.1", "--delta", "0.1"]
    )
    assert code == 2
    assert "feasible = False" in out


def test_single_copy_strategy_verdict(capsys):
    code, out, _ = run(
        capsys,
        ["single-copy", "--epsilon", "0.9", "--delta", "0.45",
         "--beta", "0.3", "--tau", "0.2", "--format", "json"],
    )
    doc = json.loads(out)
    expected = 0.2 * (0.45 - 0.3) / (1 + 0.2 - 0.6)
    assert doc["results"]["joint_weight"] == pytest.approx(expected, abs=1e-9)
    assert doc["results"]["feasible"] == (expected >= 0.45 * 0.1 - 1e-12)
    assert code == 0 if doc["results"]["feasible"] else 2


def test_single_copy_strategy_verdict_is_exact(capsys):
    # joint weight 0.05 sits 5e-13 below the target 0.0500000000005
    code, out, _ = run(
        capsys,
        ["single-copy", "--epsilon", "0.8888888888877777", "--delta", "0.45",
         "--beta", "0.3", "--tau", "0.2", "--format", "json"],
    )
    results = json.loads(out)["results"]
    assert results["joint_weight"] < results["required_joint_weight"]
    assert results["feasible"] is False
    assert results["feasible_criterion"] is False
    assert code == cli.EXIT_INFEASIBLE


def test_table1_csv_and_json(capsys):
    code, out, _ = run(capsys, ["table1", "--epsilon", "0.01", "--delta", "0.01"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 10  # header + 9 families
    code, out, _ = run(
        capsys,
        ["table1", "--epsilon", "0.01", "--delta", "0.01", "--format", "json"],
    )
    doc = json.loads(out)
    assert len(doc["results"]["rows"]) == 9
    json.dumps(doc)  # round-trips


def test_simulate_block_cli(capsys, monkeypatch):
    payload = {
        "eigenvalues": [1, 0.5, 0.2],
        "mixture": [{"k": [2, 1, 1], "c": 1.0}],
    }
    code, out, _ = run(
        capsys,
        ["simulate", "block", "--trials", "20000", "--seed", "1",
         "--format", "json"],
        stdin=json.dumps(payload),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["p_expected"] == pytest.approx(0.225)
    assert doc["results"]["f_expected"] == pytest.approx(0.05)
    assert abs(doc["results"]["p_hat"] - 0.225) < 0.02


def test_simulate_estimator_cli(capsys):
    code, out, _ = run(
        capsys,
        ["simulate", "estimator", "--lam", "0.5", "--fidelity", "0.5",
         "--n-tests", "100", "--trials", "10000", "--seed", "2",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["predicted_std"] == pytest.approx(0.0866, abs=1e-3)
    assert "philox" in doc["results"]["rng"]


def test_simulate_deterministic_across_invocations(capsys):
    argv = ["simulate", "estimator", "--lam", "0.3", "--fidelity", "0.8",
            "--n-tests", "50", "--trials", "5000", "--seed", "7",
            "--format", "json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)


# Exact stdout of text and CSV reports: labels, key order and warning lines.
# The JSON tests above parse their output and do not pin these.
REPORTS = [
    pytest.param(
        ["analyze", "--N", "5", "--epsilon", "0.01", "--delta", "0.01", "--format", "text"],
        '{"eigenvalues": [1, 0.5, 0.1]}',
        0,
        [
            "beta = 0.5  [second largest distinct eigenvalue]",
            "tau = 0.1  [smallest eigenvalue]",
            "nu = 0.5  [spectral gap 1 - beta]",
            "distinct = [1, 0.5, 0.1]  [deduped eigenvalues]",
            "h = 4.34294  [overhead prefactor 1/min(x ln(1/x)) over extremes]",
            "beta_tilde = 0.1  [eigenvalue attaining the prefactor]",
            "delta_c = 0.03125  [critical pass level (zero joint weight)]",
            "max_pass_prob = 0.995  [1 - nu*eps]",
            "n_tests_honest = 919  [honest-exact count]",
            "single_test_honest = False  [nu*eps + delta >= 1]",
        ],
        id="analyze-positive-definite-text",
    ),
    pytest.param(
        ["analyze", "--N", "5", "--epsilon", "0.01", "--delta", "0.01", "--format", "csv"],
        '{"eigenvalues": [1, 0.5, 0.1]}',
        0,
        [
            "key,value,provenance",
            "beta,0.5,second largest distinct eigenvalue",
            "tau,0.1,smallest eigenvalue",
            "nu,0.5,spectral gap 1 - beta",
            'distinct,"[1.0, 0.5, 0.1]",deduped eigenvalues',
            "h,4.34294481903,overhead prefactor 1/min(x ln(1/x)) over extremes",
            "beta_tilde,0.1,eigenvalue attaining the prefactor",
            "delta_c,0.03125,critical pass level (zero joint weight)",
            "max_pass_prob,0.995,1 - nu*eps",
            "n_tests_honest,919,honest-exact count",
            "single_test_honest,False,nu*eps + delta >= 1",
        ],
        id="analyze-positive-definite-csv",
    ),
    pytest.param(
        ["analyze", "--epsilon", "0.1", "--delta", "0.2", "--N", "2", "--format", "text"],
        '{"eigenvalues": [1, 0.5, 0]}',
        0,
        [
            "beta = 0.5  [second largest distinct eigenvalue]",
            "tau = 0  [smallest eigenvalue]",
            "nu = 0.5  [spectral gap 1 - beta]",
            "distinct = [1, 0.5, 0]  [deduped eigenvalues]",
            "delta_c = 0.333333  [critical pass level (zero joint weight)]",
            "max_pass_prob = 0.95  [1 - nu*eps]",
            "n_tests_honest = 32  [honest-exact count]",
            "single_test_honest = False  [nu*eps + delta >= 1]",
            "warning: singular strategy (tau = 0): prefactor h undefined",
        ],
        id="analyze-singular-text",
    ),
    pytest.param(
        ["analyze", "--epsilon", "0.1", "--delta", "0.2", "--N", "2", "--format", "csv"],
        '{"eigenvalues": [1, 0.5, 0]}',
        0,
        [
            "key,value,provenance",
            "beta,0.5,second largest distinct eigenvalue",
            "tau,0.0,smallest eigenvalue",
            "nu,0.5,spectral gap 1 - beta",
            'distinct,"[1.0, 0.5, 0.0]",deduped eigenvalues',
            "delta_c,0.333333333333,critical pass level (zero joint weight)",
            "max_pass_prob,0.95,1 - nu*eps",
            "n_tests_honest,32,honest-exact count",
            "single_test_honest,False,nu*eps + delta >= 1",
            "warning,singular strategy (tau = 0): prefactor h undefined,",
        ],
        id="analyze-singular-csv",
    ),
    pytest.param(
        ["plan", "--epsilon", "0.05", "--delta", "0.05", "--adversarial", "--hedge", "auto", "--format", "text"],
        '{"eigenvalues": [1, 0.5, 0.1]}',
        0,
        [
            "n_tests_honest = 119  [honest-exact count]",
            "hedge_p = 0.11738  [balance-optimal trivial-test probability]",
            "n_upper_universal = 862  [universal count bound]",
            "n_lower_prefactor = 176  [two-level lower bound]",
            "n_upper_prefactor = 183  [prefactor upper bound]",
            "n_upper_hedged = 188  [hedged planning bound]",
            "n_tests_adversarial = 180  [hull-exact count]",
        ],
        id="plan-hedge-auto-text",
    ),
    pytest.param(
        ["plan", "--epsilon", "0.05", "--delta", "0.05", "--adversarial", "--hedge", "auto", "--format", "csv"],
        '{"eigenvalues": [1, 0.5, 0.1]}',
        0,
        [
            "key,value,provenance",
            "n_tests_honest,119,honest-exact count",
            "hedge_p,0.117380099627,balance-optimal trivial-test probability",
            "n_upper_universal,862,universal count bound",
            "n_lower_prefactor,176,two-level lower bound",
            "n_upper_prefactor,183,prefactor upper bound",
            "n_upper_hedged,188,hedged planning bound",
            "n_tests_adversarial,180,hull-exact count",
        ],
        id="plan-hedge-auto-csv",
    ),
    pytest.param(
        ["plan", "--epsilon", "0.05", "--delta", "0.05", "--adversarial", "--hedge", "none", "--format", "text"],
        '{"eigenvalues": [1, 0.5, 0]}',
        0,
        [
            "n_tests_honest = 119  [honest-exact count]",
            "hedge_p = 0  [no hedging requested]",
            "n_upper_universal = 760  [universal count bound]",
            "n_exact_singular = 399  [singular large-gap exact count]",
            "n_tests_adversarial = 399  [hull-exact count]",
            "warning: strategy is singular: the count scales like 1/delta, not ln(1/delta); consider hedging",
        ],
        id="plan-hedge-none-singular-text",
    ),
    pytest.param(
        ["plan", "--epsilon", "0.05", "--delta", "0.05", "--adversarial", "--hedge", "none", "--format", "csv"],
        '{"eigenvalues": [1, 0.5, 0]}',
        0,
        [
            "key,value,provenance",
            "n_tests_honest,119,honest-exact count",
            "hedge_p,0.0,no hedging requested",
            "n_upper_universal,760,universal count bound",
            "n_exact_singular,399,singular large-gap exact count",
            "n_tests_adversarial,399,hull-exact count",
            'warning,"strategy is singular: the count scales like 1/delta, not ln(1/delta); consider hedging",',
        ],
        id="plan-hedge-none-singular-csv",
    ),
    pytest.param(
        ["plan", "--epsilon", "0.01", "--delta", "0.01", "--adversarial", "--cap", "1000", "--format", "text"],
        '{"eigenvalues": [1, 0.6, 0.4, 0.2]}',
        0,
        [
            "n_tests_honest = 1149  [honest-exact count]",
            "hedge_p = 0  [balance-optimal trivial-test probability]",
            "n_upper_universal = 24750  [universal count bound]",
            "n_lower_prefactor = 1494  [two-level lower bound]",
            "n_upper_prefactor = 1499  [prefactor upper bound]",
            "n_upper_hedged = 1506  [hedged planning bound]",
            "warning: exact count skipped: search up to N=1499 needs 1127251 label multisets on {1, beta, tau} (cap 1000); bounds reported instead",
        ],
        id="plan-capped-text",
    ),
    pytest.param(
        ["plan", "--epsilon", "0.01", "--delta", "0.01", "--adversarial", "--cap", "1000", "--format", "csv"],
        '{"eigenvalues": [1, 0.6, 0.4, 0.2]}',
        0,
        [
            "key,value,provenance",
            "n_tests_honest,1149,honest-exact count",
            "hedge_p,0.0,balance-optimal trivial-test probability",
            "n_upper_universal,24750,universal count bound",
            "n_lower_prefactor,1494,two-level lower bound",
            "n_upper_prefactor,1499,prefactor upper bound",
            "n_upper_hedged,1506,hedged planning bound",
            'warning,"exact count skipped: search up to N=1499 needs 1127251 label multisets on {1, beta, tau} (cap 1000); bounds reported instead",',
        ],
        id="plan-capped-csv",
    ),
    pytest.param(
        ["plan", "--epsilon", "0.01", "--delta", "0.001", "--adversarial", "--format", "text"],
        '{"protocol": {"family": "StabilizerQudit", "d": 3, "n": 2}}',
        0,
        [
            "family = StabilizerQudit  [protocol catalog]",
            "nu = 0.75  [catalog spectral gap]",
            "settings = 4  [catalog measurement settings]",
            "n_tests_honest = 918  [honest-exact count]",
            "n_tests_adversarial = 1855  [two-level-exact]",
            "hedge_p = 0.157173  [trivial-test probability]",
            "lambda_effective = 0.367879  [hedged common eigenvalue]",
        ],
        id="plan-protocol-text",
    ),
    pytest.param(
        ["plan", "--epsilon", "0.01", "--delta", "0.001", "--adversarial", "--format", "csv"],
        '{"protocol": {"family": "StabilizerQudit", "d": 3, "n": 2}}',
        0,
        [
            "key,value,provenance",
            "family,StabilizerQudit,protocol catalog",
            "nu,0.75,catalog spectral gap",
            "settings,4,catalog measurement settings",
            "n_tests_honest,918,honest-exact count",
            "n_tests_adversarial,1855,two-level-exact",
            "hedge_p,0.157172588229,trivial-test probability",
            "lambda_effective,0.367879441171,hedged common eigenvalue",
        ],
        id="plan-protocol-csv",
    ),
    pytest.param(
        ["single-copy", "--epsilon", "0.5", "--delta", "0.3", "--format", "text"],
        None,
        2,
        [
            "feasible = False  [single-test feasibility threshold]",
            "delta_threshold = 0.666667  [min(4(1-eps)/(2-eps)^2, 1/(1+eps))]",
            "best_joint_weight = 0.0266799  [best single-test joint weight]",
            "optimal_lambdas = [0.16334]  [optimizing two-level eigenvalues]",
            "lambda_window = None  [no feasible two-level eigenvalue]",
        ],
        id="single-copy-infeasible-text",
    ),
    pytest.param(
        ["single-copy", "--epsilon", "0.5", "--delta", "0.3", "--format", "csv"],
        None,
        2,
        [
            "key,value,provenance",
            "feasible,False,single-test feasibility threshold",
            'delta_threshold,0.666666666667,"min(4(1-eps)/(2-eps)^2, 1/(1+eps))"',
            "best_joint_weight,0.0266799469318,best single-test joint weight",
            "optimal_lambdas,[0.163339973466],optimizing two-level eigenvalues",
            "lambda_window,,no feasible two-level eigenvalue",
        ],
        id="single-copy-infeasible-csv",
    ),
    pytest.param(
        ["single-copy", "--epsilon", "0.8", "--delta", "0.556", "--format", "text"],
        None,
        0,
        [
            "feasible = True  [single-test feasibility threshold]",
            "delta_threshold = 0.555556  [min(4(1-eps)/(2-eps)^2, 1/(1+eps))]",
            "best_joint_weight = 0.112  [best single-test joint weight]",
            "optimal_lambdas = [0]  [optimizing two-level eigenvalues]",
        ],
        id="single-copy-threshold-text",
    ),
    pytest.param(
        ["single-copy", "--epsilon", "0.8", "--delta", "0.556", "--format", "csv"],
        None,
        0,
        [
            "key,value,provenance",
            "feasible,True,single-test feasibility threshold",
            'delta_threshold,0.555555555556,"min(4(1-eps)/(2-eps)^2, 1/(1+eps))"',
            "best_joint_weight,0.112,best single-test joint weight",
            "optimal_lambdas,[0.0],optimizing two-level eigenvalues",
        ],
        id="single-copy-threshold-csv",
    ),
    pytest.param(
        ["single-copy", "--epsilon", "0.9", "--delta", "0.45", "--beta", "0.3", "--tau", "0.2", "--format", "text"],
        None,
        0,
        [
            "feasible = True  [single-test piecewise formula vs target]",
            "joint_weight = 0.05  [single-test piecewise formula]",
            "required_joint_weight = 0.045  [delta*(1-eps)]",
            "feasible_criterion = True  [extreme-eigenvalue criterion]",
        ],
        id="single-copy-strategy-text",
    ),
    pytest.param(
        ["single-copy", "--epsilon", "0.9", "--delta", "0.45", "--beta", "0.3", "--tau", "0.2", "--format", "csv"],
        None,
        0,
        [
            "key,value,provenance",
            "feasible,True,single-test piecewise formula vs target",
            "joint_weight,0.05,single-test piecewise formula",
            "required_joint_weight,0.045,delta*(1-eps)",
            "feasible_criterion,True,extreme-eigenvalue criterion",
        ],
        id="single-copy-strategy-csv",
    ),
    pytest.param(
        ["simulate", "estimator", "--lam", "0.5", "--fidelity", "0.5", "--n-tests", "100", "--trials", "2000", "--seed", "2", "--format", "text"],
        None,
        0,
        [
            "mean_estimate = 0.49983  [Monte Carlo]",
            "std_estimate = 0.0870285  [Monte Carlo (ddof=1)]",
            "predicted_std = 0.0866025  [sqrt(p(1-p))/(nu sqrt(N))]",
            "std_bound = 0.1  [1/(2 nu sqrt(N))]",
            "rng = philox4x64 (numpy)  [generator id]",
        ],
        id="simulate-estimator-text",
    ),
    pytest.param(
        ["simulate", "estimator", "--lam", "0.5", "--fidelity", "0.5", "--n-tests", "100", "--trials", "2000", "--seed", "2", "--format", "csv"],
        None,
        0,
        [
            "key,value,provenance",
            "mean_estimate,0.49983,Monte Carlo",
            "std_estimate,0.0870284900423,Monte Carlo (ddof=1)",
            "predicted_std,0.0866025403784,sqrt(p(1-p))/(nu sqrt(N))",
            "std_bound,0.1,1/(2 nu sqrt(N))",
            "rng,philox4x64 (numpy),generator id",
        ],
        id="simulate-estimator-csv",
    ),
]


@pytest.mark.parametrize("argv, stdin, code, lines", REPORTS)
def test_text_and_csv_reports_are_pinned(capsys, monkeypatch, argv, stdin, code, lines):
    newline = "\r\n" if argv[-1] == "csv" else "\n"
    got, out, _ = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert got == code
    assert out == newline.join(lines) + newline
