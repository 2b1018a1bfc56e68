import dataclasses
import math
import random

import numpy as np
import pytest

from qsverify import adversarial as adv, bounds, errors, hedging, spectrum
from qsverify.homogeneous import HomoContext, zeta_homo
from qsverify.nonadversarial import PrecisionTarget, num_tests_na
from oracles import (
    boundary_full,
    compositions,
    compositions_brute,
    min_tests_adv_doubling,
    min_tests_adv_scan,
    point_brute,
    zeta_two_point_lp,
)


def rand_spectrum(rng, d_max=4, singular_ok=True):
    d = rng.randint(2, d_max)
    vals = sorted((rng.uniform(0.02, 0.97) for _ in range(d - 1)), reverse=True)
    if singular_ok and rng.random() < 0.3:
        vals[-1] = 0.0
    return spectrum.from_eigenvalues([1.0, *vals])


# ---------------------------------------------------------------- compositions


def test_composition_counts():
    assert len(list(compositions(3, 3))) == 15
    assert set(compositions(1, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert len(list(compositions(10, 2))) == 12
    assert adv.composition_count(3, 3) == 15


def test_compositions_lexicographic_and_complete():
    got = list(compositions(4, 3))
    assert got == sorted(got)
    assert got == sorted(compositions_brute(5, 3))
    assert all(sum(k) == 5 for k in got)


def test_composition_cap():
    with pytest.raises(errors.SizeLimit):
        list(compositions(10_000, 4, cap=1000))


def test_composition_cap_raised_lazily():
    gen = compositions(10_000, 4, cap=1000)
    with pytest.raises(errors.SizeLimit):
        next(gen)


def test_composition_matrix_matches_brute_force():
    for parts in range(1, 6):
        for total in range(31):
            kmat = adv._composition_matrix(total, parts)
            assert kmat.dtype == np.int64
            assert kmat.shape == (adv.composition_count(total - 1, parts), parts)
            assert kmat.tolist() == [list(k) for k in sorted(compositions_brute(total, parts))]


# ---------------------------------------------------------------------- points


def test_point_examples():
    s = spectrum.from_eigenvalues([1, 0.5, 0.2])
    assert adv.point((4, 0, 0), s) == (1.0, 1.0)
    p, f = adv.point((2, 1, 1), s)
    assert p == pytest.approx(0.225, abs=1e-12)
    assert f == pytest.approx(0.05, abs=1e-12)
    n = 3
    p, f = adv.point((0, 0, n + 1), s)
    assert p == pytest.approx(0.2**n, abs=1e-15)
    assert f == 0.0


def test_point_zero_eigenvalue_convention():
    s = spectrum.from_eigenvalues([1, 0.9, 0.0])
    p, f = adv.point((1, 0, 1), s)  # lam^0 := 1 keeps the single zero label
    assert p == pytest.approx(0.5)
    assert f == 0.0
    p, f = adv.point((0, 0, 2), s)
    assert p == 0.0 and f == 0.0


def test_point_matches_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        s = rand_spectrum(rng)
        n = rng.randint(1, 6)
        ks = list(compositions_brute(n + 1, s.d))
        k = rng.choice(ks)
        expect = point_brute(k, s.distinct)
        got = adv.point(k, s)
        assert got[0] == pytest.approx(expect[0], rel=1e-12, abs=1e-300)
        assert got[1] == pytest.approx(expect[1], rel=1e-12, abs=1e-300)


def test_point_rejects_bad_composition():
    s = spectrum.from_eigenvalues([1, 0.5, 0.2])
    with pytest.raises(errors.InvalidParams):
        adv.point((2, 2), s)


# --------------------------------------------------------------------- delta_c


def test_delta_c():
    assert adv.delta_c(3, spectrum.homogeneous(0.5)) == pytest.approx(0.125)
    assert adv.delta_c(4, spectrum.homogeneous(0.0)) == pytest.approx(0.2)
    assert adv.delta_c(1, spectrum.from_eigenvalues([1, 0.9, 0])) == pytest.approx(0.9)
    assert adv.delta_c(5, spectrum.from_eigenvalues([1, 0.3, 0])) == pytest.approx(
        1 / 6
    )


# -------------------------------------------------------------------- boundary


def test_boundary_homogeneous_vertices_are_all_turning_points():
    lam, n = 0.6, 7
    b = adv.boundary(n, spectrum.homogeneous(lam))
    assert len(b.vertices) == n + 2
    expect = [
        (
            ((n + 1 - k) * lam**k + k * lam ** (k - 1)) / (n + 1),
            (n + 1 - k) * lam**k / (n + 1),
        )
        for k in range(n + 1, -1, -1)
    ]
    for (pv, fv), (pe, fe) in zip(b.vertices, expect):
        assert pv == pytest.approx(pe, rel=1e-12)
        assert fv == pytest.approx(fe, rel=1e-12)


def test_boundary_singular_homogeneous():
    n = 4
    b = adv.boundary(n, spectrum.homogeneous(0.0))
    assert b.vertices == ((1 / (n + 1), 0.0), (1.0, 1.0))


def test_boundary_structure_random():
    rng = random.Random(9)
    for _ in range(100):
        s = rand_spectrum(rng)
        n = rng.randint(1, 7)
        b = adv.boundary(n, s)
        ps = [v[0] for v in b.vertices]
        fs = [v[1] for v in b.vertices]
        assert b.vertices[0] == (b.delta_c, 0.0)
        assert b.vertices[-1] == (1.0, 1.0)
        assert all(a < b_ for a, b_ in zip(ps, ps[1:]))
        assert all(a < b_ for a, b_ in zip(fs, fs[1:]))
        slopes = [
            (f1 - f0) / (p1 - p0)
            for (p0, f0), (p1, f1) in zip(b.vertices, b.vertices[1:])
        ]
        assert all(s1 > s0 for s0, s1 in zip(slopes, slopes[1:]))
        ratios = [f / p for p, f in b.vertices[1:]]
        assert all(r1 > r0 for r0, r1 in zip(ratios, ratios[1:]))


def test_boundary_depends_only_on_distinct_values():
    a = spectrum.from_eigenvalues([1, 0.5, 0.5, 0.2, 0.2, 0.2])
    b = spectrum.from_eigenvalues([1, 0.5, 0.2])
    for n in (1, 3, 5):
        assert adv.boundary(n, a).vertices == adv.boundary(n, b).vertices


def test_boundary_three_eigenvalue_small_gap_shapes():
    # beta < 1/2: four vertices; beta >= 1/2: the middle unit-slope piece goes
    beta, tau = 0.3, 0.1
    b = adv.boundary(1, spectrum.from_eigenvalues([1, beta, tau]))
    assert len(b.vertices) == 4
    assert b.vertices[1] == pytest.approx(((1 + tau) / 2, tau / 2), rel=1e-12)
    assert b.vertices[2] == pytest.approx(((1 + beta) / 2, beta / 2), rel=1e-12)
    b = adv.boundary(1, spectrum.from_eigenvalues([1, 0.7, 0.1]))
    assert len(b.vertices) == 3
    assert b.vertices[1] == pytest.approx(((1 + 0.7) / 2, 0.7 / 2), rel=1e-12)


def test_points_ignore_zero_padding():
    # A row on {1, beta, tau} must round the same inside the full d-column
    # enumeration as on its three columns, with tau = 0 and d >= 10 included.
    rng = random.Random(77)
    n = 300
    kmat = adv._composition_matrix(n + 1, 3)
    for d in range(4, 13):
        for singular in (False, True):
            vals = sorted((rng.uniform(0.02, 0.97) for _ in range(d - 1)), reverse=True)
            if singular:
                vals[-1] = 0.0
            lam = np.array([1.0, *vals])
            padded = np.zeros((len(kmat), d), dtype=np.int64)
            padded[:, [0, 1, d - 1]] = kmat
            p3, f3 = adv._points(kmat, lam[[0, 1, d - 1]], n)
            pd, fd = adv._points(padded, lam, n)
            assert p3.tobytes() == pd.tobytes()
            assert f3.tobytes() == fd.tobytes()


def test_boundary_matches_full_enumeration():
    # Multisets on {1, beta, tau} span the hull of all multisets, d = 4..12.  Vertices
    # may differ only where COLLINEAR_TOL picks among near-collinear points.
    # (22, [1, .24, .18, .15]) is such a case: its vertex lists differ below p = 3e-6.
    cases = [(22, [1.0, 0.24, 0.18, 0.15])]
    rng = random.Random(404)
    for _ in range(400):
        d = rng.randint(4, 7)
        vals = sorted((rng.uniform(0.02, 0.97) for _ in range(d - 1)), reverse=True)
        if rng.random() < 0.3:
            vals[-1] = 0.0
        cases.append((rng.randint(1, 20 if d <= 5 else 10), [1.0, *vals]))
    for _ in range(150):
        # wider spectra, at N small enough to enumerate every multiset
        d = rng.randint(8, 12)
        vals = sorted((rng.uniform(0.02, 0.97) for _ in range(d - 1)), reverse=True)
        if rng.random() < 0.3:
            vals[-1] = 0.0
        cases.append((rng.randint(1, 6 if d <= 9 else 4), [1.0, *vals]))
    grid = np.linspace(1e-3, 1.0, 200).tolist()
    for n, values in cases:
        s = spectrum.from_eigenvalues(values)
        got, full = adv.boundary(n, s), boundary_full(n, s)
        assert got.delta_c == full.delta_c
        assert [v for v in got.vertices if v[0] >= 1e-4] == [
            v for v in full.vertices if v[0] >= 1e-4
        ]
        assert [got.zeta(x) for x in grid] == [full.zeta(x) for x in grid]
        assert [got.eta(x) for x in grid] == [full.eta(x) for x in grid]


def test_boundary_homogeneous_degenerate_no_extra_vertex():
    # tau == beta: the critical point is the last vertex before liftoff
    b = adv.boundary(3, spectrum.homogeneous(0.4))
    assert b.delta_c == pytest.approx(0.4**3)
    assert b.vertices[0][0] == pytest.approx(0.4**3)


# ------------------------------------------------------------------- zeta, eta


def test_zeta_values_against_lp_oracle():
    s = spectrum.homogeneous(0.5)
    assert adv.zeta(2, 0.5, s) == pytest.approx(1 / 6, abs=1e-12)
    assert adv.zeta(2, 1.0, s) == 1.0
    assert adv.zeta(2, 0.1, s) == 0.0  # below the critical level 0.125
    rng = random.Random(21)
    for _ in range(60):
        sp = rand_spectrum(rng, d_max=3)
        n = rng.randint(1, 6)
        dlt = rng.uniform(0.0, 1.0)
        expect = zeta_two_point_lp(n, dlt, sp.distinct)
        assert adv.zeta(n, dlt, sp) == pytest.approx(expect, abs=1e-11)


def test_eta_endpoints_and_values():
    s = spectrum.homogeneous(0.5)
    assert adv.eta(2, 1.0, s) == 1.0
    assert adv.eta(2, 0.0, s) == adv.delta_c(2, s)
    assert adv.eta(2, 1 / 6, s) == pytest.approx(0.5, abs=1e-12)


def test_mutual_inversion():
    rng = random.Random(33)
    for _ in range(200):
        s = rand_spectrum(rng)
        n = rng.randint(1, 7)
        b = adv.boundary(n, s)
        dlt = rng.uniform(0.0, 1.0)
        assert b.eta(b.zeta(dlt)) == pytest.approx(
            max(dlt, b.delta_c), abs=1e-9
        )
        f = rng.uniform(0.0, 1.0)
        assert b.zeta(b.eta(f)) == pytest.approx(f, abs=1e-9)


def test_fidelity_endpoints_and_guards():
    s = spectrum.homogeneous(0.5)
    assert adv.fidelity_adv(3, 1.0, s) == 1.0
    assert adv.fidelity_adv_by_f(3, 1.0, s) == 1.0
    with pytest.raises(errors.DivByZeroGuard):
        adv.fidelity_adv(3, 0.0, s)
    with pytest.raises(errors.DivByZeroGuard):
        adv.fidelity_adv_by_f(3, 0.0, s)


def test_fidelity_saturation_example():
    s = spectrum.homogeneous(0.5)
    assert adv.fidelity_adv(10, 0.9, s) == pytest.approx(1 - 0.1 / 4.5, abs=1e-12)


def test_fidelity_geometric_series_example():
    lam = 1 / math.e
    got = adv.fidelity_adv(10, math.e**-2, spectrum.homogeneous(lam))
    expect = 8 * math.exp(-1) / (2 + 8 * math.exp(-1))  # frozen from LP oracle
    assert got == pytest.approx(expect, abs=1e-12)


def test_strategy_dominance_on_subset_spectra():
    rng = random.Random(55)
    for _ in range(50):
        full = rand_spectrum(rng, d_max=4, singular_ok=False)
        if full.d < 3:
            continue
        keep = sorted(rng.sample(range(1, full.d), full.d - 2), reverse=False)
        sub = spectrum.from_eigenvalues(
            [1.0, *(full.distinct[i] for i in keep)]
        )
        n = rng.randint(1, 5)
        dlt = rng.uniform(0.01, 1.0)
        assert adv.fidelity_adv(n, dlt, sub) >= adv.fidelity_adv(n, dlt, full) - 1e-10


# ------------------------------------------------------------------- min tests


def test_min_tests_examples():
    assert adv.min_tests_adv(
        spectrum.homogeneous(0.5), PrecisionTarget(0.1, 0.25)
    ) == 38
    # singular case: exact closed form (1-delta)/(eps*delta)
    assert adv.min_tests_adv(
        spectrum.homogeneous(0.0), PrecisionTarget(0.1, 0.1)
    ) == 90
    assert adv.min_tests_adv(
        spectrum.homogeneous(0.0), PrecisionTarget(0.25, 0.5)
    ) == 4


@pytest.mark.parametrize(
    "values, eps, expected",
    [
        ([1.0, 0.5], 0.01, 1307),
        ([1.0, 0.7, 0.2], 0.05, 236),
        ([1.0, 0.6, 0.3, 0.1], 0.1, 93),
        # same beta and tau as the d=3 case, so the same count
        ([1.0, 0.7, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2], 0.05, 236),
    ],
)
def test_min_tests_baseline_counts(values, eps, expected):
    s = spectrum.from_eigenvalues(values)
    assert adv.min_tests_adv(s, PrecisionTarget(eps, eps)) == expected


def test_min_tests_matches_full_enumeration_search():
    rng = random.Random(505)
    for _ in range(20):
        d = rng.randint(4, 7)
        vals = sorted((rng.uniform(0.05, 0.9) for _ in range(d - 1)), reverse=True)
        if rng.random() < 0.3:
            vals[-1] = 0.0
        s = spectrum.from_eigenvalues([1.0, *vals])
        t = PrecisionTarget(rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6))
        assert adv.min_tests_adv(s, t) == min_tests_adv_doubling(s, t)


@pytest.mark.parametrize(
    "values, bound_fn, field",
    [
        ([1.0, 0.7, 0.2], "tests_bounds_nonsingular", "lower"),
        ([1.0, 0.6, 0.3, 0.0], "tests_bounds_general", "singular_lower"),
    ],
)
def test_min_tests_recovers_from_a_lower_bound_too_high(monkeypatch, values, bound_fn, field):
    s = spectrum.from_eigenvalues(values)
    t = PrecisionTarget(0.1, 0.1)
    true = min_tests_adv_doubling(s, t, adv.boundary)
    orig = getattr(bounds, bound_fn)

    def overshoot(s_, t_):
        return dataclasses.replace(orig(s_, t_), **{field: true + 1})

    monkeypatch.setattr(adv, bound_fn, overshoot)
    assert adv.min_tests_adv(s, t) == true


@pytest.mark.parametrize(
    "values, eps, dlt",
    [
        ([1.0, 0.2], 0.9, 0.9),
        ([1.0, 0.3, 0.1], 0.5, 0.8),
        ([1.0, 0.4, 0.3, 0.05], 0.6, 0.9),
        ([1.0, 0.3, 0.0], 0.9, 0.9),
    ],
)
def test_min_tests_one_test_when_delta_above_beta(values, eps, dlt):
    # delta > beta makes the two-level lower bound 0; the search starts at 1
    s = spectrum.from_eigenvalues(values)
    t = PrecisionTarget(eps, dlt)
    assert adv.min_tests_adv(s, t) == 1 == min_tests_adv_doubling(s, t)


def test_min_tests_delta_above_beta_matches_full_enumeration_search():
    rng = random.Random(606)
    for _ in range(40):
        d = rng.randint(2, 6)
        vals = sorted((rng.uniform(0.02, 0.5) for _ in range(d - 1)), reverse=True)
        if rng.random() < 0.2:
            vals[-1] = 0.0
        s = spectrum.from_eigenvalues([1.0, *vals])
        t = PrecisionTarget(rng.uniform(0.05, 0.95), rng.uniform(s.beta, 0.99))
        assert adv.min_tests_adv(s, t) == min_tests_adv_doubling(s, t)


def test_min_tests_matches_scan():
    rng = random.Random(77)
    for _ in range(15):
        s = rand_spectrum(rng, d_max=3)
        eps = rng.uniform(0.15, 0.5)
        dlt = rng.uniform(0.2, 0.6)
        t = PrecisionTarget(eps, dlt)
        assert adv.min_tests_adv(s, t) == min_tests_adv_scan(s.distinct, eps, dlt)


def test_min_tests_at_least_honest_count():
    rng = random.Random(88)
    for _ in range(25):
        s = rand_spectrum(rng, d_max=3)
        t = PrecisionTarget(rng.uniform(0.1, 0.5), rng.uniform(0.15, 0.6))
        assert adv.min_tests_adv(s, t) >= num_tests_na(s, t)


def test_min_tests_size_limit():
    s = spectrum.from_eigenvalues([1, 0.9, 0.5, 0.3])
    with pytest.raises(errors.SizeLimit):
        adv.min_tests_adv(s, PrecisionTarget(0.01, 0.01), cap=10_000)


def assert_certified_two_level(n, lam, t):
    # n reaches the target on the exact two-level boundary with no slack,
    # and n - 1 does not
    target = t.delta * (1.0 - t.epsilon)
    assert zeta_homo(HomoContext(n, lam), t.delta) >= target
    if n > 1:
        assert zeta_homo(HomoContext(n - 1, lam), t.delta) < target


@pytest.mark.parametrize("values", [[1.0, 0.138, 0.138], [1.0, 0.138]])
def test_min_tests_two_level_search_slack_case(values):
    # The hull search accepted 2633 here: its zeta misses the target by 4.4e-13.
    s = spectrum.from_eigenvalues(values)
    hedged = hedging.hedge(s, hedging.p_star(s.nu, s.tau))
    t = PrecisionTarget(0.00538, 0.00484)
    assert hedged.d == 2
    assert adv.min_tests_adv(hedged, t) == 2634
    assert_certified_two_level(2634, hedged.beta, t)


def test_min_tests_hull_near_tie_is_exact():
    # epsilon puts the target 5e-13 above zeta at N = 59: a search that
    # accepted zeta >= target - 1e-12 returned 59.
    s = spectrum.from_eigenvalues([1.0, 0.6, 0.2])
    t = PrecisionTarget(0.06353591160054328, 0.3)
    target = t.delta * (1.0 - t.epsilon)
    assert zeta_two_point_lp(59, t.delta, s.distinct) < target
    assert zeta_two_point_lp(60, t.delta, s.distinct) >= target
    assert adv.min_tests_adv(s, t) == 60


def test_min_tests_two_level_certified_on_closed_form():
    rng = random.Random(2634)
    for i in range(200):
        lam = 0.0 if i % 10 == 0 else rng.uniform(0.0, 0.95)
        eps = rng.uniform(1e-3, 0.5)
        # every fifth target has delta above lambda: one test can suffice
        dlt = rng.uniform(lam, 0.9) if i % 5 == 1 else rng.uniform(1e-3, 0.9)
        t = PrecisionTarget(eps, dlt)
        n = adv.min_tests_adv(spectrum.homogeneous(lam), t)
        assert_certified_two_level(n, lam, t)


@pytest.mark.parametrize(
    "values, eps, expected",
    [
        ([1.0, 0.5], 0.01, 1307),
        # singular: min((1-delta)/(nu*eps*delta), 1/(eps*delta) - 1), ceiled
        ([1.0, 0.0], 0.01, 9900),
        ([1.0, 0.5, 0.0], 0.01, 9999),
        ([1.0, 0.4, 0.2, 0.0], 0.001, 999999),
    ],
)
def test_min_tests_dispatched_paths_build_no_boundary(monkeypatch, values, eps, expected):
    def no_hull(*args, **kwargs):
        raise AssertionError("boundary built on a closed-form path")

    monkeypatch.setattr(adv, "boundary", no_hull)
    s = spectrum.from_eigenvalues(values)
    assert adv.min_tests_adv(s, PrecisionTarget(eps, eps), cap=1) == expected


# ----------------------------------------------------------- region invariants


def test_two_point_mixtures_cover_the_hull_exhaustively():
    # every hull value equals the best two-point mixture, N <= 8 and D <= 4
    for lams in [(1.0, 0.5), (1.0, 0.7, 0.2), (1.0, 0.6, 0.3, 0.1)]:
        s = spectrum.from_eigenvalues(lams)
        for n in range(1, 9):
            b = adv.boundary(n, s)
            for dlt in (0.17, 0.42, 0.73, 0.95):
                assert b.zeta(dlt) == pytest.approx(
                    zeta_two_point_lp(n, dlt, s.distinct), abs=1e-11
                )


def test_tensor_power_upper_bound():
    rng = random.Random(101)
    for _ in range(200):
        s = rand_spectrum(rng, d_max=3)
        n = rng.randint(1, 6)
        dlt = rng.uniform(0.01, 1.0)
        cap_val = max(0.0, 1.0 - (1.0 - dlt ** (1.0 / n)) / s.nu)
        assert adv.fidelity_adv(n, dlt, s) <= cap_val + 1e-10


def test_triangle_bound_on_points():
    rng = random.Random(202)
    for _ in range(200):
        s = rand_spectrum(rng)
        n = rng.randint(1, 6)
        lo = n * s.nu / (n * s.nu + 1)
        hi = 1.0 - s.tau**n
        for k in compositions_brute(n + 1, s.d):
            if k[0] == n + 1:
                continue
            p, f = adv.point(k, s)
            ratio = (1.0 - p) / (1.0 - f)
            assert lo - 1e-10 <= ratio <= hi + 1e-10
