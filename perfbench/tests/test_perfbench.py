"""Tests of the benchmark itself: seeded inputs, the checker, the tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import qsverify  # noqa: E402
from perfbench import checks, speed, trace, workloads  # noqa: E402
from perfbench.run import closed_loop, run  # noqa: E402


def _take(workload, seed, k):
    return list(itertools.islice(workloads.stream(workload, seed), k))


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert _take(workload, 7, 40) == _take(workload, 7, 40)
        assert _take(workload, 7, 40) != _take(workload, 8, 40)


def _cycles(workload, seed, length, count):
    """The first ``count`` cycles after the warm-up request, checking their group starts."""
    reqs = _take(workload, seed, 1 + length * count)
    starts = [i for i, r in enumerate(reqs) if r.meta.get("group_start", True)]
    assert starts == [0] + [1 + length * c for c in range(count)]
    return [reqs[1 + length * c:1 + length * (c + 1)] for c in range(count)]


def test_every_cycle_holds_the_same_known_defects():
    # A run stops only at a cycle start, so its share of known defects is fixed.
    for cycle in _cycles("cli_mix", 5, workloads.CLI_MIX_CYCLE, 3):
        assert sorted(r.meta["known_defect"] for r in cycle if r.meta.get("known_defect")) \
            == ["nan_eigenvalue"] * 2 + ["nan_hedge"] * 2 + ["nan_lambda"] * 2 + [
                "nu_grid_overshoot"]
    length = len(workloads.TWO_LEVEL_BANDS) + 1
    for cycle in _cycles("plan_two_level", 5, length, 3):
        assert [r.meta.get("known_defect") for r in cycle] == [None] * (length - 1) + [
            "search_slack"]


def test_seeded_inputs_avoid_the_known_defects():
    for seed in range(3):
        for cycle in _cycles("cli_mix", seed, workloads.CLI_MIX_CYCLE, 2):
            for r in cycle:
                if r.meta["case"] == "sweep_nu":
                    lo, hi, num = r.argv[r.argv.index("--range") + 1].split(":")
                    assert workloads.nu_grid_overshoots(float(lo), float(hi), int(num)) == (
                        r.meta.get("known_defect") == "nu_grid_overshoot")
    lam, eps, dlt = 0.138, 0.00538, 0.00484
    assert workloads.two_level_near_tie(workloads.hedged_two_level(lam, "auto"), eps, dlt)
    s = qsverify.from_eigenvalues([1, lam, lam])
    assert workloads.hedged_two_level(lam, "auto") == checks._hedged_eigenvalue(s, "auto")
    for n, lam, dlt in ((2633, 0.37, 0.00484), (40, 0.2, 0.3), (19000, 0.8, 1e-3)):
        assert abs(workloads._zeta_two_level(n, lam, dlt) - qsverify.homogeneous.zeta_homo(
            qsverify.homogeneous.HomoContext(n, lam), dlt)) < 1e-15


def test_inputs_do_not_depend_on_the_program():
    source = inspect.getsource(workloads)
    assert "import qsverify" not in source and "from qsverify" not in source


def _records(workload, seed, k):
    records = []
    closed_loop(list(enumerate(_take(workload, seed, k))), float("inf"), records.append)
    return records


def _with_count(rec, delta):
    doc = json.loads(rec["stdout"])
    doc["results"]["n_tests_adversarial"] += delta
    return dict(rec, stdout=json.dumps(doc))


def test_checker_flags_off_by_one_two_level_count():
    rec = _records("plan_two_level", 3, 1)[0]
    assert checks.check("plan_two_level", [rec]) == ["ok"]
    for delta in (-1, 1):
        assert checks.check("plan_two_level", [_with_count(rec, delta)])[0].startswith("wrong")


def test_checker_flags_off_by_one_singular_exact_count():
    req = workloads.Request(
        kind="cli", stdin='{"eigenvalues": [1, 0.3, 0.0]}',
        argv=("plan", "--adversarial", "--hedge", "none", "--epsilon", "0.1",
              "--delta", "0.1", "--format", "json"),
        meta={"d": 3, "hedge": "none", "expect_exit": 0})
    records = []
    closed_loop([(0, req)], float("inf"), records.append)
    rec = records[0]
    assert checks.check("plan_multilevel", [rec]) == ["ok"]
    for delta in (-1, 1):
        assert checks.check("plan_multilevel", [_with_count(rec, delta)])[0].startswith("wrong")


def test_checker_flags_a_count_that_differs_from_the_reference():
    recs = _records("plan_multilevel", 0, 2)
    reference = [checks.fingerprint(r) for r in recs]
    assert checks.check("plan_multilevel", recs, reference) == ["ok", "ok"]
    bumped = [recs[0], _with_count(recs[1], 1)]
    outcome = checks.check("plan_multilevel", bumped, reference)[1]
    assert outcome.startswith("wrong")


def test_checker_scores_known_defects_and_fom_curves():
    recs = _records("cli_mix", 1, 3 * workloads.INVALID_EVERY * len(workloads.INVALID_KINDS))
    outcomes = checks.check("cli_mix", recs)
    assert not [o for o in outcomes if o.startswith("wrong")]
    defects = {r["request"].meta.get("known_defect") for r, o in zip(recs, outcomes)
               if o == "known_defect"}
    assert defects <= {k[3] for k in workloads.INVALID_KINDS if k[3]} | {"nu_grid_overshoot"}
    curve = _records("fom_curves", 2, len(workloads.FOM_FUNCTIONS) * workloads.FOM_GRID)
    assert checks.check("fom_curves", curve) == ["ok"] * len(curve)
    curve[0] = dict(curve[0], value=curve[0]["value"] + 1e-6)
    assert checks.check("fom_curves", curve)[0].startswith("wrong")


def test_checker_holds_two_level_zeta_to_1e_12():
    curve = _records("fom_curves", 2, len(workloads.FOM_FUNCTIONS) * workloads.FOM_GRID)
    assert curve[0]["request"].meta["d"] == 2 and curve[0]["request"].fn == "zeta"
    curve[0] = dict(curve[0], value=curve[0]["value"] + 5e-12)
    assert "closed form" in checks.check("fom_curves", curve)[0]


def test_speed_scale_segments():
    scale = speed.Scale(0.1)
    assert [scale.mark(busy) for busy in (0.0, 0.05, 0.1, 0.15, 0.3)] == [0, 0, 1, 1, 2]
    scale.close()
    assert len(scale.probes) == 4
    assert scale.factor(2) == speed.factor(scale.probes[2], scale.probes[3]) > 0.0


def test_checker_recomputes_sweep_values():
    recs = [r for r in _records("cli_mix", 4, 4 * len(workloads.VALID_KINDS))
            if r["request"].meta["case"].startswith("sweep") and r["exit"] == 0]
    assert {r["request"].meta["case"] for r in recs} == {
        "sweep_lambda", "sweep_delta", "sweep_epsilon", "sweep_nu"}
    for rec in recs:
        assert checks.check("cli_mix", [rec]) == ["ok"]
        lines = rec["stdout"].splitlines()
        cells = lines[2].split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-6))
        bad = dict(rec, stdout="\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        assert checks.check("cli_mix", [bad])[0].startswith("wrong"), rec["request"].argv


def _namespaces():
    mods = {name: dict(vars(m)) for name, m in sys.modules.items()
            if m is not None and name.startswith("qsverify")}
    return mods, dict(vars(qsverify.adversarial.Boundary))


def test_tracer_restores_every_attribute():
    before = _namespaces()
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert qsverify.protocols.min_tests_homo is not before[0]["qsverify.protocols"][
            "min_tests_homo"]
        _records("plan_multilevel", 1, 1)
    finally:
        tracer.restore()
    after = _namespaces()
    assert before[0].keys() == after[0].keys()
    for name, attrs in before[0].items():
        assert all(after[0][name][k] is v for k, v in attrs.items()), name
    assert all(after[1][k] is v for k, v in before[1].items())
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "adversarial.boundary", "adversarial._composition_matrix",
            "adversarial.min_tests_adv", "spectrum.from_json_dict"} <= names
    # the recursive enumerator gets one span per boundary build
    assert sum(s[0] == "adversarial._composition_matrix" for s in tracer.spans) == \
        sum(s[0] == "adversarial.boundary" for s in tracer.spans)


def test_reported_metrics_match_benchmark_json(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = run("cli_mix", 1, 0.2, traced=False)
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    traced = run("cli_mix", 1, 0.2, traced=True)
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert plain["correct"] and traced["correct"]
