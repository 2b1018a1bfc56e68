"""Acceptance suite: every release criterion, one pass/fail line each.

Each test covers one criterion at its stated tolerance and prints
``criterion <id> <name>: PASS/FAIL`` so the suite output doubles as a
checklist; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import math
import random
import time

from qsverify import (
    adversarial as adv,
    bounds,
    hedging,
    homogeneous as homo,
    protocols,
    simulate,
    single_copy as sc,
    spectrum,
)
from qsverify.homogeneous import HomoContext
from qsverify.nonadversarial import PrecisionTarget
from oracles import compositions, min_tests_adv_doubling


def criterion(cid, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {cid} {name}: FAIL")
                raise
            print(f"criterion {cid} {name}: PASS")

        return wrapper

    return deco


def rand_spectrum(rng, d_max=4, singular=None):
    d = rng.randint(2, d_max)
    vals = sorted((rng.uniform(0.03, 0.95) for _ in range(d - 1)), reverse=True)
    if singular is True or (singular is None and rng.random() < 0.3):
        vals[-1] = 0.0
    return spectrum.from_eigenvalues([1.0, *vals])


@criterion("01", "two-level closed form equals hull")
def test_c01_closed_form_vs_hull():
    start = time.monotonic()
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 20)
        lam = rng.uniform(1e-9, 1.0 - 1e-9)
        dlt = rng.uniform(0.0, 1.0) if rng.random() < 0.9 else 1.0
        exact = homo.zeta_homo(HomoContext(n, lam), dlt)
        hull = adv.zeta(n, dlt, spectrum.homogeneous(lam))
        assert abs(exact - hull) <= 1e-9
    assert time.monotonic() - start < 5.0


@criterion("02", "two-level count formula equals hull search")
def test_c02_count_formula_vs_search():
    start = time.monotonic()
    rng = random.Random(202)
    for _ in range(100):
        eps = rng.uniform(0.02, 0.5)
        dlt = rng.uniform(0.03, 0.6)
        lam = rng.uniform(0.0, 0.9)
        got = homo.min_tests_homo(eps, dlt, lam)
        expect = min_tests_adv_doubling(
            spectrum.homogeneous(lam), PrecisionTarget(eps, dlt)
        )
        assert got == expect, (eps, dlt, lam, got, expect)
    assert time.monotonic() - start < 20.0


@criterion("03", "count bracket saturation and sandwich")
def test_c03_bracket_saturation():
    b = homo.tests_bounds_homo(0.1, 0.25, 0.5)
    exact = homo.min_tests_homo(0.1, 0.25, 0.5)
    assert b.lower == b.upper_bracket == b.upper_log == exact == 38
    rng = random.Random(303)
    for _ in range(100):
        eps = rng.uniform(0.02, 0.6)
        dlt = rng.uniform(0.02, 0.9)
        lam = rng.uniform(0.05, 0.9)
        n = homo.min_tests_homo(eps, dlt, lam)
        bb = homo.tests_bounds_homo(eps, dlt, lam)
        assert bb.lower <= n <= min(bb.upper_bracket, bb.upper_log)


@criterion("04", "single-test piecewise formula equals hull on grid")
def test_c04_single_test_formula_vs_hull():
    for i in range(50):
        beta = 0.01 + 0.97 * i / 49
        for j in range(50):
            tau = beta * j / 49
            s = spectrum.from_eigenvalues([1.0, beta, tau])
            b = adv.boundary(1, s)
            junctions = [beta, (1 + tau) / 2, (1 + beta) / 2]
            probes = [0.5 * beta, 1.0]
            for jn in junctions:
                probes += [jn, max(0.0, jn - 1e-7), min(1.0, jn + 1e-7)]
            probes += [
                0.5 * (junctions[0] + junctions[1]),
                0.5 * (junctions[1] + junctions[2]),
                0.5 * (junctions[2] + 1.0),
            ]
            for dlt in probes:
                assert (
                    abs(sc.zeta_one_general(dlt, beta, tau) - b.zeta(dlt)) <= 1e-12
                )


@criterion("05", "single-test landmark point and threshold curve")
def test_c05_single_test_landmark():
    value, opts = sc.max_zeta_one(5 / 9)
    assert abs(value - 1 / 9) < 1e-12
    assert len(opts) == 2
    assert sorted(abs(a - b) for a, b in zip(sorted(opts), [0.0, 1 / 3]))[-1] < 1e-9
    for i in range(1, 99):
        eps = i / 100
        threshold = sc.feasibility_threshold(eps)
        expect = min(4 * (1 - eps) / (2 - eps) ** 2, 1 / (1 + eps))
        assert abs(threshold - expect) < 1e-12
        for dlt in (threshold * 0.98, threshold, min(threshold * 1.02, 0.999)):
            feasible = sc.single_copy_feasible(PrecisionTarget(eps, dlt))
            best, _ = sc.max_zeta_one(dlt)
            assert feasible == (best >= dlt * (1 - eps) - 1e-12)


@criterion("06", "universal floor saturation and singular exact count")
def test_c06_universal_floor():
    rng = random.Random(606)
    for _ in range(100):
        s = rand_spectrum(rng)
        n = rng.randint(1, 6)
        dlt = rng.uniform(bounds.delta_star(n, s), 1.0)
        exact = adv.fidelity_adv(n, dlt, s)
        floor = bounds.fidelity_lb_general(n, dlt, s.nu)
        assert abs(exact - floor) <= 1e-9
    for _ in range(40):
        beta = rng.uniform(0.0, 0.5)
        s = (
            spectrum.homogeneous(0.0)
            if beta < 0.03
            else spectrum.from_eigenvalues([1.0, beta, 0.0])
        )
        t = PrecisionTarget(rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6))
        expect = min(
            max(1, math.ceil((1 - t.delta) / (s.nu * t.delta * t.epsilon) - 1e-9)),
            max(1, math.ceil(1 / (t.delta * t.epsilon) - 1 - 1e-9)),
        )
        assert min_tests_adv_doubling(s, t) == expect


@criterion("07", "hedging prefactor floor, milestones, approximation gaps")
def test_c07_hedging_constants():
    rng = random.Random(707)
    for _ in range(1000):
        nu = rng.uniform(0.01, 1.0)
        tau = rng.uniform(0.0, 1.0 - nu)
        p = rng.uniform(1e-6, 0.999)
        assert hedging.h_p(p, nu, tau) >= math.e - 1e-9
    for nu_max, limit in [
        (0.1, 1.09),
        (0.2, 1.19),
        (0.3, 1.31),
        (0.4, 1.45),
        (0.5, 1.61),
    ]:
        for i in range(1, 11):
            nu = nu_max * i / 10
            for j in range(0, 6):
                tau = (1 - nu) * j / 5
                assert nu * hedging.h_star(nu, tau) <= limit + 1e-3
    for i in range(1, 40):
        nu = i / 40
        best = nu * hedging.h_star(nu, 0.0)
        approx = nu * hedging.h_p(hedging.p_zero(nu), nu, 0.0)
        assert abs(approx - best) / best < 0.02
        base = hedging.h_star(nu, 1 - nu)
        for j in range(0, 11):
            tau = (1 - nu) * j / 10
            assert abs(hedging.h_star(nu, tau) - base) / base < 0.12


@criterion("08", "hedged-over-honest overhead at benchmark precisions")
def test_c08_overhead():
    lam = 1 / math.e
    s = spectrum.homogeneous(lam)
    p = hedging.p_star(s.nu, s.tau)
    res = hedging.overhead_ratio(s, PrecisionTarget(0.1, 0.1), p)
    assert res.measured <= 3.0, res
    res = hedging.overhead_ratio(s, PrecisionTarget(0.25, 0.25), p)
    assert res.measured <= 4.0, res


@criterion("09", "optimal-eigenvalue analysis endpoints and overhead floor")
def test_c09_optimal_eigenvalue():
    assert homo.lambda_star_of_eps(0.0) == 1 / math.e
    assert homo.lambda_star_of_eps(1.0) == 0.0
    for i in range(1, 51):
        eps = i / 100
        value = homo.normalized_overhead(eps).normalized_best
        assert value >= 0.965
        if eps <= 0.1:
            assert value >= 0.999


@criterion("10", "catalog row formulas at one-percent precision")
def test_c10_catalog_rows():
    rows = {r.family: r for r in protocols.table1(PrecisionTarget(0.01, 0.01))}
    assert len(rows) == 9
    # hand-derived: c = ln(100)/0.01 = 460.517...
    expect = {
        "MaxEntangled": (691, 1252),
        "BipartitePure": (691, 1252),
        "GHZ": (691, 1252),
        "StabilizerQubit": (922, 1329),
        "StabilizerQudit": (691, 1252),
        "Hypergraph": (1382, 2172),
        "WeightedGraph": (1382, 2172),
        "Dicke(n=3)": (1382, 1888),
        "Dicke(n>=4)": (1382, 2172),
    }
    for family, (n_na, n_adv) in expect.items():
        assert (rows[family].n_na, rows[family].n_adv) == (n_na, n_adv), family
    assert 2 / math.log(2) < 2.89


@criterion("11", "structural invariants of the achievable region")
def test_c11_structural_invariants():
    rng = random.Random(1111)

    # convexity and monotonicity in the pass level (1000 triples)
    for _ in range(1000):
        s = rand_spectrum(rng, d_max=3)
        n = rng.randint(1, 6)
        b = adv.boundary(n, s)
        d1, d2, d3 = sorted(rng.uniform(0.0, 1.0) for _ in range(3))
        if d3 - d1 < 1e-9:
            continue
        theta = (d2 - d1) / (d3 - d1)
        chord = (1 - theta) * b.zeta(d1) + theta * b.zeta(d3)
        assert b.zeta(d2) <= chord + 1e-12
        assert b.zeta(d1) <= b.zeta(d2) + 1e-12 <= b.zeta(d3) + 2e-12
        lo = max(b.delta_c, 1e-4)
        da = lo + (1 - lo) * rng.uniform(0.0, 1.0)
        db = min(1.0, da + rng.uniform(1e-4, 0.2))
        if db <= 1.0 and db - da >= 1e-4:
            assert b.zeta(db) > b.zeta(da)
        # concavity and strict increase of the inverse coordinate
        f1, f2 = sorted(rng.uniform(0.0, 1.0) for _ in range(2))
        if f2 - f1 >= 1e-4:
            assert b.eta(f2) > b.eta(f1)
            mid = 0.5 * (f1 + f2)
            assert b.eta(mid) >= 0.5 * (b.eta(f1) + b.eta(f2)) - 1e-12

    # mutual inversion at 1e-9 (1000 cases)
    for _ in range(1000):
        s = rand_spectrum(rng, d_max=3)
        n = rng.randint(1, 6)
        b = adv.boundary(n, s)
        dlt = rng.uniform(0.0, 1.0)
        assert abs(b.eta(b.zeta(dlt)) - max(dlt, b.delta_c)) <= 1e-9
        f = rng.uniform(0.0, 1.0)
        assert abs(b.zeta(b.eta(f)) - f) <= 1e-9

    # growth in the number of tests, with the stated saturation conditions
    for _ in range(1000):
        s = rand_spectrum(rng, d_max=3)
        n = rng.randint(2, 7)
        b_hi, b_lo = adv.boundary(n, s), adv.boundary(n - 1, s)
        dlt = rng.uniform(0.0, 1.0)
        z_hi, z_lo = b_hi.zeta(dlt), b_lo.zeta(dlt)
        assert z_hi >= z_lo - 1e-12
        if dlt <= b_hi.delta_c or dlt == 1.0:
            assert abs(z_hi - z_lo) <= 1e-12
        elif b_hi.delta_c + 1e-6 < dlt < 1.0 - 1e-6:
            assert z_hi > z_lo
        f = rng.uniform(0.0, 1.0)
        assert b_hi.eta(f) <= b_lo.eta(f) + 1e-12
        if 1e-6 < f < 1.0 - 1e-6 or f == 0.0:
            assert b_hi.eta(f) < b_lo.eta(f)

    # tensor-power ceiling on the conditional fidelity (1000 cases)
    for _ in range(1000):
        s = rand_spectrum(rng, d_max=3)
        n = rng.randint(1, 6)
        dlt = rng.uniform(1e-6, 1.0)
        cap_val = max(0.0, 1.0 - (1.0 - dlt ** (1.0 / n)) / s.nu)
        assert adv.fidelity_adv(n, dlt, s) <= cap_val + 1e-10

    # triangle bound on every vertex candidate (>= 1000 point checks)
    checked = 0
    while checked < 1000:
        s = rand_spectrum(rng, d_max=3)
        n = rng.randint(1, 5)
        lo = n * s.nu / (n * s.nu + 1)
        hi = 1.0 - s.tau**n
        for k in compositions(n, s.d):
            if k[0] == n + 1:
                continue
            p, f = adv.point(k, s)
            ratio = (1.0 - p) / (1.0 - f)
            assert lo - 1e-10 <= ratio <= hi + 1e-10
            checked += 1


@criterion("12", "Monte Carlo agreement with analytic values")
def test_c12_monte_carlo():
    start = time.monotonic()
    rng = random.Random(1212)
    for model_idx in range(20):
        s = rand_spectrum(rng, d_max=3)
        n = rng.randint(1, 4)
        ks = list(compositions(n, s.d))
        support = rng.sample(ks, min(len(ks), rng.randint(1, 4)))
        raw = [rng.uniform(0.1, 1.0) for _ in support]
        total = sum(raw)
        model = simulate.BlockModel(
            {k: w / total for k, w in zip(support, raw)}
        )
        stats = simulate.run_block(s, model, n, 100_000, seed=model_idx + 1)
        assert abs(stats.p_hat - stats.p_expected) <= 5 * stats.p_std_error + 1e-12
        assert abs(stats.f_hat - stats.f_expected) <= 5 * stats.f_std_error + 1e-12
    est = simulate.run_estimator(0.5, 0.5, 100, 10_000, seed=5)
    assert abs(est.std_estimate - est.predicted_std) <= 0.1 * est.predicted_std
    est = simulate.run_estimator(0.3, 0.8, 60, 10_000, seed=6)
    assert abs(est.std_estimate - est.predicted_std) <= 0.1 * est.predicted_std
    assert time.monotonic() - start < 30.0
