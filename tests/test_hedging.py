import math
import random

import pytest

from qsverify import adversarial as adv, errors, hedging, spectrum
from qsverify.nonadversarial import PrecisionTarget, num_tests_na
from oracles import bisect_root, outcome, p_star_200


def test_hedge_map():
    s = spectrum.from_eigenvalues([1, 0.5, 0.2])
    assert hedging.hedge(s, 0.0).distinct == s.distinct
    hedged = hedging.hedge(s, 0.5)
    assert hedged.distinct == pytest.approx((1.0, 0.75, 0.6))
    singular = spectrum.homogeneous(0.0)
    assert hedging.hedge(singular, 1 / math.e).distinct[1] == pytest.approx(
        1 / math.e
    )
    with pytest.raises(errors.OutOfRange):
        hedging.hedge(s, 1.0)


def test_hedged_strategy_dataclass():
    s = spectrum.from_eigenvalues([1, 0.4, 0.1])
    hs = hedging.HedgedStrategy(s, 0.25)
    assert hs.beta_p == pytest.approx(0.55)
    assert hs.tau_p == pytest.approx(0.325)
    assert hs.nu_p == pytest.approx(0.45)
    assert hs.spectrum.distinct == pytest.approx((1.0, 0.55, 0.325))


def test_h_p_values():
    assert hedging.h_p(0.0, 0.5, 0.5) == pytest.approx(1 / (0.5 * math.log(2)))
    assert hedging.h_p(1 / math.e, 1.0, 0.0) == pytest.approx(math.e, abs=1e-12)
    # a two-level base hedged so the common eigenvalue hits 1/e gives h = e
    nu = 0.8
    p = (math.e * nu - math.e + 1) / (math.e * nu)
    assert hedging.h_p(p, nu, 1 - nu) == pytest.approx(math.e, abs=1e-12)


def test_h_p_floor_and_guards():
    rng = random.Random(1)
    for _ in range(500):
        nu = rng.uniform(0.01, 1.0)
        tau = rng.uniform(0.0, 1.0 - nu)
        p = rng.uniform(0.0, 0.999)
        if p == 0.0 and tau == 0.0:
            continue
        assert hedging.h_p(p, nu, tau) >= math.e - 1e-9
    with pytest.raises(errors.SingularHedge):
        hedging.h_p(0.0, 0.5, 0.0)
    with pytest.raises(errors.OutOfRange):
        hedging.h_p(-0.1, 0.5, 0.2)


def test_p_star_closed_forms():
    assert hedging.p_star(1.0, 0.0) == pytest.approx(1 / math.e, abs=1e-12)
    assert hedging.p_star(0.5, 0.5) == 0.0
    # two-level bases below the threshold gap need no hedging
    assert hedging.p_star(1 - 1 / math.e, 1 / math.e) == pytest.approx(0.0, abs=1e-12)
    nu = 0.9
    assert hedging.p_star(nu, 1 - nu) == pytest.approx(
        (math.e * nu - math.e + 1) / (math.e * nu)
    )
    # tau already heavier than beta: no hedging
    assert hedging.p_star(0.45, 0.35) == 0.0


def test_p_star_balance_root():
    # independent bisection on the same balance function
    got = hedging.p_star(0.5, 0.0)
    expect = bisect_root(
        lambda p: -p * math.log(p) + (0.5 + 0.5 * p) * math.log(0.5 + 0.5 * p),
        1e-9,
        1 / math.e,
    )
    assert got == pytest.approx(expect, abs=1e-10)
    assert got == pytest.approx(0.1828, abs=5e-4)
    rng = random.Random(2)
    for _ in range(100):
        nu = rng.uniform(0.05, 1.0)
        tau = rng.uniform(0.0, 1.0 - nu)
        p = hedging.p_star(nu, tau)
        assert 0.0 <= p <= 1 / math.e + 1e-12
        if p > 0.0 and abs(tau - (1 - nu)) > 1e-12:
            beta_p = 1 - nu + p * nu
            tau_p = (1 - p) * tau + p
            assert beta_p * math.log(beta_p) == pytest.approx(
                tau_p * math.log(tau_p), abs=1e-11
            )
            assert beta_p >= 1 / math.e - 1e-9


def test_p_star_near_degenerate_extremes():
    # separations just above the eigenvalue merge tolerance stay continuous
    # with the two-level closed form despite cancellation in the balance
    for beta, sep in [(0.2, 1e-11), (0.2, 1e-8), (0.3, 1e-10), (0.5, 1e-9)]:
        nu = 1.0 - beta
        got = hedging.p_star(nu, beta - sep)
        hom = hedging.p_star(nu, beta)
        assert abs(got - hom) < 1e-4
        got = hedging.p_star(nu, min(beta + sep, 1.0 - nu + 1e-13))
        assert abs(got - hom) < 1e-4


def test_p_star_equals_the_full_200_step_bisection():
    # The bisection stops at its fixpoint; its root must be the 200-step one
    # bit for bit, and every input that raised must raise the same error.
    rng = random.Random(2024)
    cases = [(1.0, 0.0), (0.5, 0.0), (1e-300, 0.0), (0.0, 0.0), (1.5, 0.0),
             (0.5, -1e-3), (0.5, 0.6)]
    for _ in range(600):
        nu = 10.0 ** rng.uniform(-15, -1)  # tiny gap
        cases.append((nu, rng.uniform(0.0, 1.0 - nu)))
        nu = rng.uniform(1e-9, 1.0)
        cases.append((nu, 0.0))  # singular base
        beta = 1.0 - nu
        sep = 10.0 ** rng.uniform(-16, -1)
        cases.append((nu, max(0.0, beta - sep)))  # tau -> beta from below
        cases.append((nu, beta + rng.uniform(0.0, 1e-12)))  # inside the tolerance
        cases.append((nu, rng.uniform(0.0, beta)))
    results = []
    for nu, tau in cases:
        got = outcome(hedging.p_star, nu, tau)
        assert got == outcome(p_star_200, nu, tau), (nu, tau)
        results.append(got)
    assert sum(isinstance(r, float) for r in results) > len(cases) // 2
    assert sum(isinstance(r, float) and r > 0.0 for r in results) > len(cases) // 4


def test_p_zero_approximation_quality():
    # the parameter-free choice nu/e costs at most 2% in overhead
    for i in range(1, 41):
        nu = i / 40
        best = nu * hedging.h_star(nu, 0.0)
        approx = nu * hedging.h_p(hedging.p_zero(nu), nu, 0.0)
        assert approx >= best - 1e-12
        assert (approx - best) / best < 0.02


def test_h_star_values():
    assert hedging.h_star(1.0, 0.0) == pytest.approx(math.e, abs=1e-12)
    assert hedging.h_star(0.5, 0.5) == pytest.approx(1 / (0.5 * math.log(2)))
    nu = 0.8
    assert hedging.h_star(nu, 1 - nu) == pytest.approx(math.e, abs=1e-12)


def test_p_star_monotonicity():
    nus = [i / 50 for i in range(1, 51)]
    for tau in (0.0, 0.1, 0.3):
        vals = [hedging.p_star(nu, tau) for nu in nus if nu + tau <= 1.0]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    taus = [i / 50 for i in range(0, 26)]
    for nu in (0.3, 0.5):
        vals = [hedging.p_star(nu, tau) for tau in taus if nu + tau <= 1.0]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_h_star_monotone_and_overhead_increasing():
    nus = [i / 50 for i in range(1, 51)]
    for tau in (0.0, 0.2):
        hs = [hedging.h_star(nu, tau) for nu in nus if nu + tau <= 1.0]
        assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))
        overhead = [
            nu * hedging.h_star(nu, tau) for nu in nus if nu + tau <= 1.0
        ]
        assert all(b > a for a, b in zip(overhead, overhead[1:]))
        assert all(v > 1.0 for v in overhead)
    taus = [i / 40 for i in range(0, 21)]
    for nu in (0.4, 0.6):
        hs = [hedging.h_star(nu, tau) for tau in taus if nu + tau <= 1.0]
        assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))


def test_overhead_vanishes_for_small_gap():
    assert 0.3 * hedging.h_star(0.3, 0.0) < 0.9 * hedging.h_star(0.9, 0.0)
    assert 1e-4 * hedging.h_star(1e-4, 0.0) == pytest.approx(1.0, abs=1e-3)


def test_overhead_milestones():
    # measured ceilings of nu * h_star at benchmark gaps
    for nu_max, limit in [(0.1, 1.09), (0.2, 1.19), (0.3, 1.31), (0.4, 1.45), (0.5, 1.61)]:
        for frac in (0.25, 0.5, 0.75, 1.0):
            nu = nu_max * frac
            for tau in (0.0, (1 - nu) / 2, 1 - nu):
                assert nu * hedging.h_star(nu, tau) <= limit + 1e-3


def test_h_star_tau_spread_under_12_percent():
    for i in range(1, 40):
        nu = i / 40
        base = hedging.h_star(nu, 1 - nu)
        for j in range(0, 11):
            tau = (1 - nu) * j / 10
            rel = (hedging.h_star(nu, tau) - base) / base
            assert -1e-12 <= rel < 0.12


def test_overhead_chain_ordering():
    for i in range(1, 21):
        nu = i / 20
        a = nu * hedging.h_star(nu, 0.0)
        b = nu * hedging.h_p(hedging.p_zero(nu), nu, 0.0)
        c = 1.0 / (1.0 - nu + nu * nu / math.e)
        d = 1.0 + (math.e - 1.0) * nu
        assert a <= b + 1e-12 <= c + 1e-12
        assert b <= c + 1e-12
        assert c <= d + 1e-12
        assert d <= math.e + 1e-12


def test_hedged_tests_upper():
    s = spectrum.homogeneous(1 - (1 - 1 / math.e))  # lam = 1/e, nu = 1 - 1/e
    t = PrecisionTarget(0.1, 0.1)
    res = hedging.hedged_tests_upper(s, t, hedging.p_star(s.nu, s.tau))
    expect = math.e * math.log(1 / (0.9 * 0.1)) / 0.1
    assert res.bound == pytest.approx(expect, rel=1e-12)
    assert res.bound <= res.bound_tau_free + 1e-9
    # exact count respects the bound
    n_exact = adv.min_tests_adv(s, t)
    assert n_exact <= res.bound
    with pytest.raises(errors.OutOfRange):
        hedging.hedged_tests_upper(s, t, 0.9)


def test_hedged_tests_upper_bounds_exact_counts():
    rng = random.Random(3)
    for _ in range(25):
        d = rng.randint(2, 3)
        vals = sorted((rng.uniform(0.05, 0.9) for _ in range(d - 1)), reverse=True)
        if rng.random() < 0.4:
            vals[-1] = 0.0
        s = spectrum.from_eigenvalues([1.0, *vals])
        t = PrecisionTarget(rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.5))
        p = rng.choice(
            [hedging.p_zero(s.nu), hedging.p_star(s.nu, s.tau), hedging.p_star(s.nu, 0.0)]
        )
        res = hedging.hedged_tests_upper(s, t, p)
        hedged = hedging.hedge(s, p) if p > 0 else s
        if hedged.tau <= 0.0:
            continue
        assert adv.min_tests_adv(hedged, t) <= res.bound
        assert res.bound <= res.bound_linear + 1e-9


def test_overhead_ratio():
    s = spectrum.homogeneous(1 / math.e)
    res = hedging.overhead_ratio(s, PrecisionTarget(0.1, 0.1), p=0.0)
    assert res.n_adversarial == 57  # frozen from the linear-scan oracle
    assert res.n_honest == num_tests_na(s, PrecisionTarget(0.1, 0.1)) == 36
    assert res.measured <= 3.0
    assert res.measured <= res.bound_h + 1e-9
    res = hedging.overhead_ratio(s, PrecisionTarget(0.25, 0.25), p=0.0)
    assert (res.n_adversarial, res.n_honest) == (13, 9)
    assert res.measured <= 4.0


def test_overhead_ratio_bounds_small_precision():
    # ratio bounds at the worst gap stay under 3 (eps,delta<=0.1) and 4 (<=0.25)
    for eps_dlt, cap in [(0.1, 3.0), (0.25, 4.0)]:
        t = PrecisionTarget(eps_dlt, eps_dlt)
        for nu in (0.25, 0.5, 0.75, 1.0):
            s = spectrum.homogeneous(1.0 - nu)
            res = hedging.overhead_ratio(s, t, p=hedging.p_star(nu, 1.0 - nu))
            assert res.bound_h <= cap + 1e-9
            assert res.measured <= cap + 1e-9


def test_overhead_bound_approaches_one_for_small_gap():
    nu = 1e-4
    val = nu * hedging.h_p(hedging.p_zero(nu), nu, 0.0)
    assert val == pytest.approx(1.0, abs=2e-4)
