import math

import pytest

from qsverify import errors, protocols, spectrum
from qsverify.homogeneous import min_tests_homo
from qsverify.nonadversarial import PrecisionTarget, num_tests_na
from qsverify.protocols import Family
from oracles import min_tests_adv_doubling


def test_describe_max_entangled_and_ghz():
    d1 = protocols.describe(Family.MAX_ENTANGLED, {"d": 3})
    assert d1.nu == pytest.approx(3 / 4)
    assert d1.homogeneous and d1.tau == pytest.approx(1 / 4)
    assert d1.settings == 2
    g = protocols.describe("GHZ", {"d": 2, "n": 5})
    assert g.nu == pytest.approx(2 / 3)
    with pytest.raises(errors.InvalidParams):
        protocols.describe(Family.GHZ, {"d": 2, "n": 2})


def test_describe_bipartite():
    s0, s1 = math.sqrt(0.7), math.sqrt(0.3)
    d = protocols.describe(Family.BIPARTITE_PURE, {"schmidt": [s0, s1]})
    assert d.nu == pytest.approx(2 / 3)
    assert d.adaptive_nu == pytest.approx(1 / (1 + s0 * s1))
    with pytest.raises(errors.NormalizationError):
        protocols.describe(Family.BIPARTITE_PURE, {"schmidt": [0.9, 0.6]})
    with pytest.raises(errors.InvalidParams):
        protocols.describe(Family.BIPARTITE_PURE, {"schmidt": [0.3, math.sqrt(0.91)]})


def test_describe_stabilizer_qubit():
    d = protocols.describe(Family.STABILIZER_QUBIT, {"n": 2})
    assert 1.0 - d.nu == pytest.approx(1 / 3)
    assert d.settings == 3
    d = protocols.describe(Family.STABILIZER_QUBIT, {"n": 5})
    assert d.settings == 31
    assert d.nu == pytest.approx(16 / 31)


def test_describe_stabilizer_qudit():
    d = protocols.describe(Family.STABILIZER_QUDIT, {"d": 3, "n": 2})
    assert d.settings == 4
    assert 1.0 - d.nu == pytest.approx(0.25)
    assert d.nu == pytest.approx(0.75)
    with pytest.raises(errors.InvalidParams):
        protocols.describe(Family.STABILIZER_QUDIT, {"d": 4, "n": 2})


def test_qudit_gap_floor_and_count_monotonicity():
    t = PrecisionTarget(0.05, 0.05)
    last = None
    for d in (2, 3, 5, 7, 11):
        desc = protocols.describe(Family.STABILIZER_QUDIT, {"d": d, "n": 3})
        assert desc.nu >= (d - 1) / d - 1e-12
        n_na = protocols.plan(desc, t, adversarial=False).n_na
        if last is not None:
            assert n_na <= last
        last = n_na


def test_describe_coloring_families():
    d = protocols.describe(Family.HYPERGRAPH, {"chi": 3})
    assert d.nu == pytest.approx(1 / 3)
    assert not d.homogeneous and d.tau == 0.0
    assert d.settings == 3
    d = protocols.describe(Family.WEIGHTED_GRAPH, {"max_degree": 4})
    assert d.nu == pytest.approx(1 / 5)
    with pytest.raises(errors.InvalidParams):
        protocols.describe(Family.HYPERGRAPH, {})


def test_describe_dicke():
    d = protocols.describe(Family.DICKE, {"n": 3, "excitations": 1})
    assert d.nu == pytest.approx(1 / 3)
    d = protocols.describe(Family.DICKE, {"n": 6, "excitations": 3})
    assert d.nu == pytest.approx(1 / 5)
    with pytest.raises(errors.InvalidParams):
        protocols.describe(Family.DICKE, {"n": 4, "excitations": 4})


def test_settings_at_least_two_for_entangled_targets():
    descs = [
        protocols.describe(Family.MAX_ENTANGLED, {"d": 2}),
        protocols.describe(Family.GHZ, {"d": 3, "n": 4}),
        protocols.describe(Family.BIPARTITE_PURE, {"schmidt": [0.8, 0.6]}),
        protocols.describe(Family.STABILIZER_QUBIT, {"n": 2}),
        protocols.describe(Family.STABILIZER_QUDIT, {"d": 5, "n": 2}),
        protocols.describe(Family.HYPERGRAPH, {"chi": 2}),
        protocols.describe(Family.WEIGHTED_GRAPH, {"chi": 2}),
        protocols.describe(Family.DICKE, {"n": 4, "excitations": 2}),
    ]
    assert all(d.settings >= 2 for d in descs)


def test_plan_homogeneous_families_exact():
    t = PrecisionTarget(0.01, 0.001)
    desc = protocols.describe(Family.MAX_ENTANGLED, {"d": 2})
    p = protocols.plan(desc, t, adversarial=True)
    # the common eigenvalue is hedged up to 1/e and counted exactly
    assert p.lambda_effective == pytest.approx(1 / math.e)
    assert p.n_adv == min_tests_homo(0.01, 0.001, 1 / math.e)
    assert p.n_adv <= math.ceil(math.e * math.log(1000) / 0.01)
    assert p.n_na == num_tests_na(spectrum.homogeneous(1 / 3), t)
    assert p.n_adv >= p.n_na


def test_plan_keeps_large_eigenvalue_unhedged():
    t = PrecisionTarget(0.02, 0.02)
    desc = protocols.describe(Family.STABILIZER_QUBIT, {"n": 5})
    p = protocols.plan(desc, t, adversarial=True)
    beta = 1.0 - desc.nu
    assert beta > 1 / math.e
    assert p.hedge_p == 0.0
    assert p.lambda_effective == pytest.approx(beta)
    assert p.n_adv == min_tests_homo(0.02, 0.02, beta)


def test_plan_qubit_stabilizer_bound():
    t = PrecisionTarget(0.01, 0.001)
    desc = protocols.describe(Family.STABILIZER_QUBIT, {"n": 5})
    p = protocols.plan(desc, t, adversarial=True)
    assert p.n_adv <= math.ceil(2 * math.log(1 / 0.001) / (math.log(2) * 0.01))
    assert p.n_adv < math.ceil(2.89 * math.log(1 / 0.001) / 0.01)


def test_plan_gap_only_families():
    t = PrecisionTarget(0.01, 0.001)
    desc = protocols.describe(Family.HYPERGRAPH, {"chi": 3})
    p = protocols.plan(desc, t, adversarial=True)
    assert p.hedge_p == pytest.approx(desc.nu / math.e)
    limit = (3 + math.e - 1) * math.log(1 / (0.99 * 0.001)) / 0.01
    assert p.n_adv <= limit
    assert p.n_adv >= p.n_na


def test_plan_adversarial_never_below_honest():
    t = PrecisionTarget(0.05, 0.05)
    descs = [
        protocols.describe(Family.MAX_ENTANGLED, {"d": 7}),
        protocols.describe(Family.STABILIZER_QUDIT, {"d": 3, "n": 4}),
        protocols.describe(Family.HYPERGRAPH, {"chi": 5}),
        protocols.describe(Family.DICKE, {"n": 7, "excitations": 2}),
    ]
    for desc in descs:
        p = protocols.plan(desc, t, adversarial=True)
        assert p.n_adv >= p.n_na


def test_plan_honest_only():
    t = PrecisionTarget(0.1, 0.1)
    desc = protocols.describe(Family.DICKE, {"n": 3})
    p = protocols.plan(desc, t, adversarial=False)
    assert p.n_adv is None and p.n_na >= 1


def test_gme_certification():
    assert protocols.gme_certification(5, 0.36, adversarial=False) == 1
    assert protocols.gme_certification(5, 0.35, adversarial=False) > 1
    assert protocols.gme_certification(5, 5 / 9, adversarial=True) == 1
    assert protocols.gme_certification(5, 0.5, adversarial=True) > 1
    # one honest test as soon as d >= (1 + sqrt(1-delta))/delta
    dlt = 0.3
    d_needed = (1 + math.sqrt(1 - dlt)) / dlt
    assert protocols.gme_certification(7, dlt, adversarial=False) == 1
    assert 7 >= d_needed
    with pytest.raises(errors.InvalidParams):
        protocols.gme_certification(6, 0.5, adversarial=False)


def test_gme_adversarial_count_uses_exact_two_level_form():
    # below the one-test threshold the plan falls back to the exact count
    d = 3
    got = protocols.gme_certification(d, 0.2, adversarial=True)
    assert got == min_tests_homo((d - 1) / d, 0.2, 2 / (d + 1))
    # and the strategy really does verify at that count
    s = spectrum.homogeneous(2 / (d + 1))
    t = PrecisionTarget((d - 1) / d, 0.2)
    assert got == min_tests_adv_doubling(s, t)


def test_table_formulas_at_one_percent():
    t = PrecisionTarget(0.01, 0.01)
    rows = {r.family: r for r in protocols.table1(t)}
    c = math.log(100) / 0.01
    assert rows["MaxEntangled"].n_na == math.ceil(1.5 * c - 1e-9) == 691
    assert rows["MaxEntangled"].n_adv == math.ceil(math.e * c - 1e-9) == 1252
    assert rows["BipartitePure"].n_na == 691
    assert rows["GHZ"].n_adv == 1252
    assert rows["StabilizerQubit"].n_na == 922
    assert rows["StabilizerQubit"].n_adv == math.ceil(2 / math.log(2) * c - 1e-9) == 1329
    assert rows["StabilizerQudit"].n_na == 691
    assert rows["StabilizerQudit"].n_adv == 1252
    assert rows["Hypergraph"].n_na == 1382
    assert rows["Hypergraph"].n_adv == math.floor((2 + math.e) * c + 1e-9) == 2172
    assert rows["WeightedGraph"].n_adv == 2172
    assert rows["Dicke(n=3)"].n_adv == math.floor(4.1 * c + 1e-9) == 1888
    assert rows["Dicke(n>=4)"].n_adv == math.floor((2 + math.e) * c + 1e-9) == 2172
    assert len(rows) == 9


def test_table_row_count_and_flags():
    rows = protocols.table1(PrecisionTarget(0.1, 0.1), chi=4, dicke_n=6)
    assert len(rows) == 9
    homogeneous_families = {r.family for r in rows if r.homogeneous}
    assert homogeneous_families == {
        "MaxEntangled",
        "BipartitePure",
        "GHZ",
        "StabilizerQubit",
        "StabilizerQudit",
    }
    for r in rows:
        assert r.n_adv >= 1 and r.n_na >= 1


def test_protocol_json():
    desc = protocols.protocol_from_json(
        {"protocol": {"family": "StabilizerQudit", "d": 3, "n": 2}}
    )
    assert desc.settings == 4
    with pytest.raises(errors.InvalidParams):
        protocols.protocol_from_json({"protocol": {"d": 3}})
    with pytest.raises(errors.InvalidParams):
        protocols.protocol_from_json({})
