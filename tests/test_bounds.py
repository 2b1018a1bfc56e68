import math
import random

import pytest

from qsverify import adversarial as adv, bounds, errors, spectrum
from qsverify.nonadversarial import PrecisionTarget
from oracles import min_tests_adv_doubling


def test_h_of_values():
    hc = bounds.h_of(spectrum.from_eigenvalues([1, 0.5, 0.1]))
    assert hc.beta_tilde == 0.1
    assert hc.h == pytest.approx(1 / (0.1 * math.log(10)), abs=1e-12)
    hc = bounds.h_of(spectrum.homogeneous(1 / math.e))
    assert hc.h == pytest.approx(math.e, abs=1e-12)
    # compare both weights directly: 0.4 ln(1/0.4) > 0.35 ln(1/0.35) is false
    g4 = 0.4 * math.log(1 / 0.4)
    g35 = 0.35 * math.log(1 / 0.35)
    hc = bounds.h_of(spectrum.from_eigenvalues([1, 0.4, 0.35]))
    assert hc.beta_tilde == (0.4 if g4 <= g35 else 0.35)
    assert hc.h == pytest.approx(1 / min(g4, g35))


def test_h_floor_is_e():
    rng = random.Random(1)
    for _ in range(300):
        beta = rng.uniform(0.01, 0.95)
        tau = rng.uniform(0.005, beta)
        hc = bounds.h_of(spectrum.from_eigenvalues([1.0, beta, tau]))
        assert hc.h >= math.e - 1e-12


def test_h_rejects_singular():
    with pytest.raises(errors.SingularSpectrum):
        bounds.h_of(spectrum.homogeneous(0.0))


def test_fidelity_lower_bounds_endpoints():
    assert bounds.fidelity_lb_general(10, 1.0, 0.5) == 1.0
    assert bounds.fidelity_lb_nu_half(10, 1.0) == pytest.approx(1 - 1 / 11)
    assert bounds.fidelity_lb_general(10, 0.9, 0.5) == pytest.approx(
        1 - 0.1 / 4.5, abs=1e-12
    )


def test_universal_bound_saturates_above_delta_star():
    rng = random.Random(2)
    for _ in range(60):
        d = rng.randint(2, 4)
        vals = sorted((rng.uniform(0.05, 0.9) for _ in range(d - 1)), reverse=True)
        if rng.random() < 0.3:
            vals[-1] = 0.0
        s = spectrum.from_eigenvalues([1.0, *vals])
        n = rng.randint(1, 6)
        dstar = bounds.delta_star(n, s)
        dlt = rng.uniform(dstar, 1.0)
        exact = adv.fidelity_adv(n, dlt, s)
        assert exact == pytest.approx(
            bounds.fidelity_lb_general(n, dlt, s.nu), abs=1e-9
        )


def test_fidelity_floor_holds_below_delta_star():
    rng = random.Random(3)
    for _ in range(120):
        d = rng.randint(2, 4)
        vals = sorted((rng.uniform(0.05, 0.9) for _ in range(d - 1)), reverse=True)
        s = spectrum.from_eigenvalues([1.0, *vals])
        n = rng.randint(1, 6)
        dlt = rng.uniform(0.01, 1.0)
        exact = adv.fidelity_adv(n, dlt, s)
        assert exact >= bounds.fidelity_lb_general(n, dlt, s.nu) - 1e-10
        if s.nu >= 0.5:
            assert exact >= bounds.fidelity_lb_nu_half(n, dlt) - 1e-10


def test_singular_fidelity_equals_nu_half_form_between_thresholds():
    # singular strategies saturate the large-gap floor on the middle interval
    rng = random.Random(4)
    for _ in range(40):
        beta = rng.uniform(0.02, 0.45)
        s = spectrum.from_eigenvalues([1.0, beta, 0.0])
        n = rng.randint(2, 6)
        lo, hi = 1 / (n + 1), bounds.delta_star(n, s)
        dlt = rng.uniform(lo, hi)
        exact = adv.fidelity_adv(n, dlt, s)
        assert exact == pytest.approx(bounds.fidelity_lb_nu_half(n, dlt), abs=1e-9)


def test_tests_bounds_general():
    t = PrecisionTarget(0.1, 0.1)
    gb = bounds.tests_bounds_general(spectrum.homogeneous(0.0), t)
    assert gb.exact == 90
    gb = bounds.tests_bounds_general(
        spectrum.from_eigenvalues([1, 0.5, 0]), PrecisionTarget(0.1, 0.5)
    )
    assert gb.upper == 20 and gb.alt == 19
    assert gb.exact == 19
    # near delta -> 1 the bound collapses to the floor of one test
    gb = bounds.tests_bounds_general(spectrum.homogeneous(0.0), PrecisionTarget(0.5, 0.9))
    assert gb.upper >= 1 and gb.exact >= 1


def test_tests_bounds_general_matches_exact_search():
    rng = random.Random(5)
    for _ in range(20):
        beta = rng.uniform(0.0, 0.5)
        s = (
            spectrum.homogeneous(0.0)
            if beta < 0.05
            else spectrum.from_eigenvalues([1.0, beta, 0.0])
        )
        t = PrecisionTarget(rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.6))
        gb = bounds.tests_bounds_general(s, t)
        assert gb.exact == adv.min_tests_adv(s, t) == min_tests_adv_doubling(s, t)


def test_prefactor_fidelity_bound():
    s = spectrum.from_eigenvalues([1, 0.5, 0.5])
    # the bound vanishes when ln(tau*delta)/ln(beta) = N+1
    n = 20
    dlt = s.beta ** (n + 1) / s.tau
    val = bounds.fidelity_lb_nonsingular(n, dlt, s, "by_delta")
    assert val == pytest.approx(0.0, abs=1e-9)
    # sandwich against the exact value
    exact = adv.fidelity_adv(20, 0.1, s)
    assert bounds.fidelity_lb_nonsingular(20, 0.1, s, "by_delta") <= exact + 1e-12
    with pytest.raises(errors.SingularSpectrum):
        bounds.fidelity_lb_nonsingular(3, 0.5, spectrum.homogeneous(0.0), "by_delta")
    with pytest.raises(errors.OutOfRange):
        bounds.fidelity_lb_nonsingular(3, 0.5, s, "sideways")


def test_prefactor_bound_conditioned_on_joint_weight():
    # the by_f variant floors the worst fidelity among states with joint
    # weight >= f, i.e. f / eta(f)
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(2, 4)
        vals = sorted((rng.uniform(0.1, 0.9) for _ in range(d - 1)), reverse=True)
        s = spectrum.from_eigenvalues([1.0, *vals])
        n = rng.randint(1, 6)
        f = rng.uniform(0.01, 1.0)
        exact = adv.fidelity_adv_by_f(n, f, s)
        assert exact >= bounds.fidelity_lb_nonsingular(n, f, s, "by_f") - 1e-10


def test_prefactor_fidelity_bound_monotone_in_n():
    s = spectrum.from_eigenvalues([1, 0.6, 0.2])
    vals = [bounds.fidelity_lb_nonsingular(n, 0.2, s, "by_delta") for n in range(1, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_tests_bounds_nonsingular_bracket():
    rng = random.Random(6)
    for _ in range(100):
        d = rng.randint(2, 4)
        vals = sorted((rng.uniform(0.15, 0.9) for _ in range(d - 1)), reverse=True)
        s = spectrum.from_eigenvalues([1.0, *vals])
        t = PrecisionTarget(rng.uniform(0.15, 0.5), rng.uniform(0.2, 0.6))
        nb = bounds.tests_bounds_nonsingular(s, t)
        # the planner searches inside this bracket, so check it against a
        # count found without it
        exact = min_tests_adv_doubling(s, t)
        assert nb.lower <= exact <= nb.upper
        assert exact <= nb.upper_loose
        assert all(b <= exact for _, b in nb.lower_by_eigenvalue)


def test_joint_limit_constant_reached():
    # eps N / ln(1/delta) approaches the prefactor h in the joint limit
    s = spectrum.from_eigenvalues([1, 0.55, 0.3])
    h = bounds.h_of(s).h
    eps = dlt = 2e-3
    nb = bounds.tests_bounds_nonsingular(s, PrecisionTarget(eps, dlt))
    for n in (nb.lower, nb.upper):
        assert eps * n / math.log(1 / dlt) == pytest.approx(h, rel=0.05)


def test_fdelta_variant_better_when_fidelity_exceeds_tau():
    s = spectrum.from_eigenvalues([1, 0.5, 0.2])
    t = PrecisionTarget(0.05, 0.1)  # F = 0.95 > tau
    nb = bounds.tests_bounds_nonsingular(s, t)
    assert nb.upper_fdelta <= nb.upper_taudelta
    t = PrecisionTarget(0.9, 0.1)  # F = 0.1 < tau
    nb = bounds.tests_bounds_nonsingular(s, t)
    assert nb.upper_taudelta <= nb.upper_fdelta
