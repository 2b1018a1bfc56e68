import math
import random

import pytest
from hypothesis import given, strategies as st

from qsverify import errors, homogeneous as homo, spectrum
from qsverify.homogeneous import HomoContext
from qsverify.nonadversarial import PrecisionTarget
from oracles import (
    bisect_root,
    lambda_star_of_eps_200,
    min_tests_adv_doubling,
    min_tests_adv_scan,
    outcome,
    zeta_two_point_lp,
)


def test_zeta_homo_values():
    assert homo.zeta_homo(HomoContext(2, 0.5), 0.5) == pytest.approx(1 / 6, abs=1e-15)
    assert homo.zeta_homo(HomoContext(9, 0.0), 0.5) == pytest.approx(4 / 9, abs=1e-15)
    assert homo.zeta_homo(HomoContext(5, 0.5), 0.5**5) == 0.0
    assert homo.zeta_homo(HomoContext(5, 0.5), 1.0) == pytest.approx(1.0)


def test_zeta_homo_matches_two_point_oracle():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 12)
        lam = rng.uniform(0.0, 0.95)
        dlt = rng.uniform(0.0, 1.0)
        expect = zeta_two_point_lp(n, dlt, (1.0, lam))
        assert homo.zeta_homo(HomoContext(n, lam), dlt) == pytest.approx(
            expect, abs=1e-11
        )


def test_zeta_homo_power_levels_give_closed_fidelity():
    # at delta = lam^k the conditional fidelity is (N-k)lam/(k+(N-k)lam)
    n = 8
    for lam in (0.3, 0.5, 0.8):
        for k in range(0, n + 1):
            dlt = lam**k
            fid = homo.zeta_homo(HomoContext(n, lam), dlt) / dlt
            expect = (n - k) * lam / (k + (n - k) * lam)
            assert fid == pytest.approx(expect, abs=1e-11)


def test_zeta_piece_family_lower_bounds():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 10)
        lam = rng.uniform(0.02, 0.95)
        dlt = rng.uniform(0.0, 1.0)
        val = homo.zeta_homo(HomoContext(n, lam), dlt)
        for k in range(0, n + 1):
            assert val >= homo.zeta_piece(n, dlt, lam, k) - 1e-11


@given(
    st.integers(min_value=1, max_value=15),
    st.floats(min_value=1e-6, max_value=0.98),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_zeta_homo_is_valid_joint_weight(n, lam, dlt):
    val = homo.zeta_homo(HomoContext(n, lam), dlt)
    assert 0.0 <= val <= dlt + 1e-12  # joint weight never exceeds pass weight
    if dlt <= lam**n:
        assert val == 0.0
    if dlt == 1.0:
        assert val == pytest.approx(1.0)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.9),
)
def test_count_is_minimal_feasible(eps, dlt, lam):
    n = homo.min_tests_homo(eps, dlt, lam)
    target = dlt * (1 - eps)
    assert homo.zeta_homo(HomoContext(n, lam), dlt) >= target - 1e-9
    if n > 1:
        assert homo.zeta_homo(HomoContext(n - 1, lam), dlt) < target + 1e-9


def test_k_bracket():
    assert homo.k_bracket(HomoContext(9, 1 / math.e), 0.01) == (4, 5)
    assert homo.k_bracket(HomoContext(9, 0.5), 0.25) == (2, 2)
    assert homo.k_bracket(HomoContext(9, 0.9), 0.9) == (1, 1)


def test_n_tilde_values():
    assert homo.n_tilde(0.1, 0.25, 0.5, 2) == pytest.approx(38.0, abs=1e-9)
    dlt, lam, eps = 0.3, 0.6, 0.2
    nu = 1 - lam
    assert homo.n_tilde(eps, dlt, lam, 0) == pytest.approx(
        (1 - dlt) / (nu * eps * dlt)
    )
    fid = 1 - eps
    assert homo.n_tilde(eps, dlt, lam, 1) == pytest.approx(
        (nu**2 * dlt * fid + lam**2 - lam**2 * dlt) / (lam * nu * dlt * eps)
    )


def test_min_tests_homo_examples():
    assert homo.min_tests_homo(0.1, 0.25, 0.5) == 38
    assert homo.min_tests_homo(0.1, 0.1, 0.0) == 90
    # large-delta regime falls back to the k=0 piece
    eps, dlt, lam = 0.2, 0.9, 0.8
    assert dlt >= lam / ((1 - eps) + lam * eps)
    assert homo.min_tests_homo(eps, dlt, lam) == math.ceil(
        (1 - dlt) / ((1 - lam) * eps * dlt) - 1e-9
    )


def test_min_tests_homo_matches_hull_search():
    rng = random.Random(3)
    for _ in range(40):
        eps = rng.uniform(0.1, 0.5)
        dlt = rng.uniform(0.1, 0.6)
        lam = rng.uniform(0.0, 0.9)
        t = PrecisionTarget(eps, dlt)
        assert homo.min_tests_homo(eps, dlt, lam) == min_tests_adv_doubling(
            spectrum.homogeneous(lam), t
        )


def test_min_tests_homo_matches_linear_scan():
    for eps, dlt, lam in [(0.3, 0.4, 0.5), (0.2, 0.3, 0.25), (0.4, 0.5, 0.7)]:
        assert homo.min_tests_homo(eps, dlt, lam) == min_tests_adv_scan(
            (1.0, lam), eps, dlt
        )


def test_count_bounded_by_every_piece_candidate():
    # ceil(n_tilde(k)) is a valid count for every piece index k
    rng = random.Random(17)
    for _ in range(100):
        eps = rng.uniform(0.02, 0.6)
        dlt = rng.uniform(0.02, 0.9)
        lam = rng.uniform(0.05, 0.9)
        n = homo.min_tests_homo(eps, dlt, lam)
        _, k_plus = homo.k_bracket(HomoContext(max(n, 1), lam), dlt)
        for k in range(0, k_plus + 3):
            assert n <= max(1, math.ceil(homo.n_tilde(eps, dlt, lam, k) - 1e-9))


def test_min_tests_homo_rejects_lambda_near_one():
    with pytest.raises(errors.OutOfRange):
        homo.min_tests_homo(0.1, 0.1, 1.0 - 1e-12)


def test_bounds_saturate_on_integer_log():
    b = homo.tests_bounds_homo(0.1, 0.25, 0.5)
    assert b.lower == b.upper_bracket == b.upper_log == 38


def test_bounds_sandwich():
    rng = random.Random(4)
    for _ in range(100):
        eps = rng.uniform(0.02, 0.6)
        dlt = rng.uniform(0.02, 0.9)
        lam = rng.uniform(0.05, 0.9)
        n = homo.min_tests_homo(eps, dlt, lam)
        b = homo.tests_bounds_homo(eps, dlt, lam)
        assert b.lower <= n <= min(b.upper_bracket, b.upper_log)


def test_strict_log_bound_for_small_delta():
    # delta <= lam <= 1/2 implies N < ln(delta)/(lam eps ln lam)
    for lam, dlt, eps in [(0.5, 0.2, 0.05), (0.3, 0.3, 0.1), (0.4, 0.05, 0.2)]:
        n = homo.min_tests_homo(eps, dlt, lam)
        assert n < math.log(dlt) / (lam * eps * math.log(lam))


def test_sqrt_lower_bound_in_middle_regime():
    rng = random.Random(5)
    checked = 0
    while checked < 50:
        eps = rng.uniform(0.02, 0.5)
        lam = rng.uniform(0.1, 0.9)
        fid = 1 - eps
        lo, hi = lam**2 / (fid + lam * eps), lam / (fid + lam * eps)
        dlt = rng.uniform(lo, min(hi, 0.999))
        if not 0.0 < dlt < 1.0:
            continue
        n = homo.min_tests_homo(eps, dlt, lam)
        assert n >= 2 * math.sqrt((1 - dlt) * fid) / (eps * math.sqrt(dlt)) - 1e-9
        checked += 1


def test_fidelity_monotone_in_delta_and_n():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 12)
        lam = rng.uniform(0.0, 0.9)
        d1, d2 = sorted((rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)))
        f1 = homo.zeta_homo(HomoContext(n, lam), d1) / d1
        f2 = homo.zeta_homo(HomoContext(n, lam), d2) / d2
        assert f2 >= f1 - 1e-12
        f_up = homo.zeta_homo(HomoContext(n + 1, lam), d1) / d1
        assert f_up >= f1 - 1e-12


def test_bracket_fidelity_bounds():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 15)
        lam = rng.uniform(0.05, 0.9)
        dlt = rng.uniform(lam**n, 1.0)
        if not 0 < dlt <= 1:
            continue
        k_minus, k_plus = homo.k_bracket(HomoContext(n, lam), dlt)
        k_plus = min(k_plus, n)
        k_minus = min(k_minus, n)
        fid = homo.zeta_homo(HomoContext(n, lam), dlt) / dlt
        lo = (n - k_plus) * lam / (k_plus + (n - k_plus) * lam)
        hi = (n - k_minus) * lam / (k_minus + (n - k_minus) * lam)
        assert lo - 1e-10 <= fid <= hi + 1e-10


def test_asymptotics():
    a = homo.asymptotics(1 / math.e)
    assert a.joint_limit == pytest.approx(math.e, abs=1e-12)
    a = homo.asymptotics(1 / math.e, epsilon=1e-9)
    assert a.delta_rate * 1e-9 == pytest.approx(math.e, rel=1e-6)
    a = homo.asymptotics(0.4, epsilon=0.0)
    assert a.scaled_delta_rate == pytest.approx(a.joint_limit)
    # eps -> 0 limit of eps*N approaches k-/lam + (lam^k- - delta)/(nu delta)
    lam, dlt = 0.45, 0.07
    a = homo.asymptotics(lam, delta=dlt)
    eps = 1e-7
    n = homo.min_tests_homo(eps, dlt, lam)
    assert eps * n == pytest.approx(a.epsilon_limit, rel=1e-4)


def test_rate_approximation_dominates_near_e_inverse():
    # the high-precision count tracks ln(delta)/(lam eps ln lam)
    eps = dlt = 1e-3
    for lam in (0.3, 1 / math.e, 0.45):
        n = homo.min_tests_homo(eps, dlt, lam)
        approx = math.log(dlt) / (lam * eps * math.log(lam))
        assert n == pytest.approx(approx, rel=0.05)


def test_lambda_star():
    assert homo.lambda_star_of_eps(0.0) == 1 / math.e
    assert homo.lambda_star_of_eps(1.0) == 0.0
    root = homo.lambda_star_of_eps(0.5)
    assert 1 / (2 * math.e) <= root <= 1 / math.e
    # independent bisection oracle on the same monotone function
    expect = bisect_root(
        lambda x: 0.5 + 0.5 * x + 0.5 * math.log(x), 1e-6, 1 / math.e
    )
    assert root == pytest.approx(expect, abs=1e-10)
    rng = random.Random(8)
    for _ in range(30):
        eps = rng.uniform(0.001, 0.999)
        lam = homo.lambda_star_of_eps(eps)
        fid = 1 - eps
        assert fid + lam * eps + fid * math.log(lam) == pytest.approx(0.0, abs=1e-12)
        assert fid / math.e - 1e-12 <= lam <= 1 / math.e + 1e-12


def test_lambda_star_equals_the_full_200_step_bisection():
    # The bisection stops at its fixpoint; its root must be the 200-step one
    # bit for bit, and every input that raised must raise the same error.
    rng = random.Random(2025)
    cases = [0.0, 1.0, -1e-3, 1.5, math.nan, 5e-324, 1.0 - 2.0**-53]
    for _ in range(800):
        cases.append(10.0 ** rng.uniform(-17, -1))  # eps near 0
        cases.append(1.0 - 10.0 ** rng.uniform(-16, -1))  # eps near 1
        cases.append(rng.uniform(0.0, 1.0))
    for eps in cases:
        got = outcome(homo.lambda_star_of_eps, eps)
        assert got == outcome(lambda_star_of_eps_200, eps), eps


def test_normalized_overhead():
    assert homo.normalized_overhead(1e-9).normalized_best == pytest.approx(
        1.0, abs=1e-6
    )
    for eps in [i / 100 for i in range(1, 51)]:
        assert homo.normalized_overhead(eps).normalized_best >= 0.965
    for eps in [i / 100 for i in range(1, 11)]:
        assert homo.normalized_overhead(eps).normalized_best >= 0.999
    # at the benchmark eigenvalue the normalized rate is 1 by construction
    s = homo.normalized_overhead(0.2, lam=1 / math.e)
    assert s.normalized_at_lambda == pytest.approx(1.0, abs=1e-12)


def test_nearly_optimal_neighborhood():
    # the count varies slowly around 1/e; measured spread is 3.05% at the
    # left edge 0.32 and under 2% on [0.33, 0.38]
    base = homo.min_tests_homo(0.01, 0.01, 1 / math.e)
    for lam in (0.32, 0.34, 0.36, 0.38):
        n = homo.min_tests_homo(0.01, 0.01, lam)
        assert abs(n - base) / base < 0.031
    for lam in (0.33, 0.35, 0.37, 0.38):
        n = homo.min_tests_homo(0.01, 0.01, lam)
        assert abs(n - base) / base < 0.02
