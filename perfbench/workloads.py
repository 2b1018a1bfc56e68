"""Seeded request streams for the four benchmark workloads.

Pure standard library: nothing here imports qsverify, so the inputs a seed
produces never depend on the code being measured.  Each stream is infinite
and cycles through fixed strata (number of distinct eigenvalues, work size,
request kind) with seeded values inside each stratum.  The strata keep the
cost mix of a run the same from seed to seed, so medians are comparable
across seeds while the individual inputs differ.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

WORKLOADS = ("plan_multilevel", "plan_two_level", "fom_curves", "cli_mix")


@dataclass(frozen=True)
class Request:
    """One request: a CLI call (``argv`` plus ``stdin``) or a library call.

    ``meta`` carries what the checker and the per-request rows need: the
    number of distinct eigenvalues ``d``, the test count ``n`` of a
    fixed-N query, the hedge mode, the expected exit code and, for inputs
    the program is known to mishandle, a ``known_defect`` tag.
    """

    kind: str  # "cli" or "lib"
    argv: tuple[str, ...] = ()
    stdin: str = ""
    fn: str = ""
    args: tuple = ()
    meta: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _x_ln_inv(x: float) -> float:
    return -x * math.log(x) if x > 0.0 else 0.0


def search_upper_estimate(distinct: list[float], eps: float, dlt: float) -> int:
    """Upper end of the adversarial count search, used only to size inputs.

    The universal bound (1-delta)/(nu delta eps) and, for positive-definite
    spectra, the two prefactor bounds with log arguments (1-eps)delta and
    tau delta.
    """
    beta, tau = distinct[1], distinct[-1]
    ub = max(1, math.ceil((1.0 - dlt) / ((1.0 - beta) * dlt * eps) - 1e-9))
    if tau > 0.0:
        h = 1.0 / min(_x_ln_inv(beta), _x_ln_inv(tau))
        for arg in ((1.0 - eps) * dlt, tau * dlt):
            la = math.log(arg)
            real = h * (1.0 - eps) * (-la) / eps + la / math.log(beta) - 1.0
            ub = min(ub, max(1, math.ceil(real - 1e-9)))
    return ub


def multiset_count(n: int, d: int) -> int:
    """Label multisets of a boundary at N tests: C(N + d, d - 1)."""
    return math.comb(n + d, d - 1)


def _distinct_levels(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k distinct values in [lo, hi], descending, 3 decimals, >= 0.03 apart."""
    while True:
        vals = sorted((round(rng.uniform(lo, hi), 3) for _ in range(k)), reverse=True)
        if all(a - b >= 0.03 for a, b in zip(vals, vals[1:])):
            return vals


def _eigen_doc(rng: random.Random, distinct: list[float]) -> str:
    """Eigenvalue list with the unit value first, some levels repeated, shuffled."""
    rest = list(distinct[1:])
    rest += [v for v in distinct[1:] if rng.random() < 0.3]
    rng.shuffle(rest)
    return json.dumps({"eigenvalues": [1] + rest})


# --- plan_multilevel ------------------------------------------------------

#: (distinct eigenvalues d, singular, range of the non-unit levels, band of
#: multisets at the search's upper end), cycled in this order.  Two strata
#: in ten are singular (tau = 0).  With eps, delta <= 0.2, d = 5 rarely goes
#: below 3e4 multisets, four to five times the others' work, so it is one
#: stratum in ten, and its levels avoid the extremes that inflate the
#: prefactor h.  Narrow bands keep the cost mix the same from seed to seed.
_D3 = (3, False, (0.05, 0.85), (6_000, 7_000))
_D4 = (4, False, (0.05, 0.85), (6_000, 7_000))
MULTILEVEL_STRATA = (
    _D3, _D4, (3, True, (0.05, 0.85), (6_000, 7_000)), _D3, _D4,
    (5, False, (0.1, 0.75), (33_000, 38_000)), _D3, _D4,
    (4, True, (0.05, 0.85), (6_000, 7_000)), _D3,
)


def _plan_multilevel(rng: random.Random) -> Iterator[Request]:
    i = 0
    while True:
        d, singular, (lev_lo, lev_hi), (lo, hi) = MULTILEVEL_STRATA[
            i % len(MULTILEVEL_STRATA)]
        i += 1
        while True:
            levels = _distinct_levels(rng, d - 1, lev_lo, lev_hi)
            if singular:
                levels[-1] = 0.0
            distinct = [1.0] + levels
            dlt = round(rng.uniform(0.05, 0.2), 3)
            # eps in thousandths whose multiset count lies in the band; the
            # count falls as eps grows, so the band is a run of eps values.
            fits = [k for k in range(50, 201) if lo <= multiset_count(
                search_upper_estimate(distinct, k / 1000, dlt), d) <= hi]
            if fits:
                eps = rng.choice(fits) / 1000
                break
        yield Request(
            kind="cli",
            argv=("plan", "--adversarial", "--hedge", "none", "--epsilon", _num(eps),
                  "--delta", _num(dlt), "--format", "json"),
            stdin=_eigen_doc(rng, distinct),
            meta={"d": d, "hedge": "none", "expect_exit": 0},
        )


# --- plan_two_level -------------------------------------------------------

#: Bands of the estimated count N ~ h ln(1/delta)/eps at the hedged
#: eigenvalue, one request each per cycle, in this order.  The search
#: probes powers of two, so a band that straddles one mixes two costs;
#: these stay inside (2^k, 2^(k+1)).  Five of the nine share the middle
#: band, with two cheaper and two dearer, so the median request falls in
#: the middle of that band's requests and not at an edge between two bands.
_MID = (2_700, 2_900)
TWO_LEVEL_BANDS = ((1_400, 1_650), _MID, (10_000, 11_600), _MID, _MID,
                   (1_400, 1_650), _MID, (17_500, 19_500), _MID)

#: (eigenvalues, eps, delta, hedge) of a request that meets the known
#: defect ``search_slack`` (NOTES.md): the hull search's 1e-12 slack gives
#: 2633 where the closed form gives 2634.  It closes every cycle, after
#: the bands, and the seeded requests avoid such near-ties, so every run
#: scores the defect once per cycle.
SEARCH_SLACK_CASE = ([1, 0.138, 0.138], 0.00538, 0.00484, "auto")

#: Seeded two-level requests whose target is within this much of the
#: closed-form zeta at the exact count, or at one below it, are drawn
#: again: the search's 1e-12 slack could flip their count.
NEAR_TIE = 2e-12


def _zeta_two_level(n: int, lam: float, dlt: float) -> float:
    """Closed-form minimum joint weight of a two-level strategy at pass level delta.

    The vertices are eta_k = ((n+1-k) lam^k + k lam^(k-1))/(n+1) and
    zeta_k = (n+1-k) lam^k/(n+1); zeta is the piece through vertices k and
    k+1 for the largest k with eta_k >= delta.  0 < lam < 1.
    """
    if dlt <= lam**n:
        return 0.0
    lo, hi = 0, n + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ((n + 1 - mid) * lam**mid + mid * lam ** (mid - 1)) / (n + 1) >= dlt:
            lo = mid
        else:
            hi = mid - 1
    nu = 1.0 - lam
    return max(0.0, lam * (dlt * (1.0 + (n - lo) * nu) - lam**lo) / (nu * (lo * nu + n * lam)))


def hedged_two_level(lam: float, hedge: str) -> float:
    """Common eigenvalue after ``--hedge`` (``auto`` lifts it to 1/e when below)."""
    if hedge != "auto" or lam >= 1.0 / math.e:
        return lam
    nu = 1.0 - lam
    p = (math.e * nu - math.e + 1.0) / (math.e * nu)
    return (1.0 - p) * lam + p


def two_level_near_tie(lam: float, eps: float, dlt: float) -> bool:
    """True when the exact count's zeta, or the one below's, is within NEAR_TIE of the target."""
    target = dlt * (1.0 - eps)
    hi = 1
    while _zeta_two_level(hi, lam, dlt) < target:
        hi *= 2
    lo = hi // 2 + 1 if hi > 1 else 1
    while lo < hi:  # smallest n with zeta(n) >= target
        mid = (lo + hi) // 2
        if _zeta_two_level(mid, lam, dlt) >= target:
            hi = mid
        else:
            lo = mid + 1
    return (_zeta_two_level(lo, lam, dlt) - target < NEAR_TIE
            or (lo > 1 and target - _zeta_two_level(lo - 1, lam, dlt) <= NEAR_TIE))


def _two_level_request(lam, eps, dlt, hedge, homogeneous_doc, meta) -> Request:
    doc = {"homogeneous": {"lambda": lam}} if homogeneous_doc else {
        "eigenvalues": [1, lam, lam]}
    return Request(
        kind="cli",
        argv=("plan", "--adversarial", "--hedge", hedge, "--epsilon", _num(eps),
              "--delta", _num(dlt), "--format", "json"),
        stdin=json.dumps(doc),
        meta={"d": 2, "hedge": hedge, "expect_exit": 0, **meta},
    )


def _two_level_draw(rng: random.Random, band: tuple[int, int], homogeneous_doc: bool,
                    group_start: bool) -> Request:
    lo, hi = band
    while True:
        lam = round(rng.uniform(0.05, 0.9), 3)
        eps = _log_uniform(rng, 1e-3, 1e-2)
        dlt = _log_uniform(rng, 1e-3, 1e-2)
        hedge = rng.choice(("auto", "none"))
        lam_eff = hedged_two_level(lam, hedge)
        n_est = math.log(1.0 / dlt) / (_x_ln_inv(lam_eff) * eps)
        if lo <= n_est <= hi and not two_level_near_tie(lam_eff, eps, dlt):
            break
    return _two_level_request(lam, eps, dlt, hedge, homogeneous_doc,
                              {"group_start": group_start})


def _plan_two_level(rng: random.Random) -> Iterator[Request]:
    """A warm-up request, then cycles: one request per band, then the slack case.

    A run stops only at a cycle start, so it scores the same share of
    known defects at every seed.
    """
    yield _two_level_draw(rng, TWO_LEVEL_BANDS[0], True, True)
    eigenvalues, eps, dlt, hedge = SEARCH_SLACK_CASE
    while True:
        for i, band in enumerate(TWO_LEVEL_BANDS):
            yield _two_level_draw(rng, band, i % 2 == 0, i == 0)
        yield _two_level_request(eigenvalues[1], eps, dlt, hedge, False, {
            "group_start": False, "known_defect": "search_slack"})


# --- fom_curves -----------------------------------------------------------

#: Number of distinct eigenvalues per curve and the band of multisets per
#: boundary; the fixed N of the curve is the smallest N inside the band.
#: Boundaries this large make each call take tens of milliseconds, so
#: short swings in the speed of a shared host average out within a call.
FOM_STRATA = ((2, (9_000, 10_000)), (3, (9_000, 10_000)), (4, (9_000, 10_000)))

#: Points per grid; a curve issues zeta and fidelity_adv on the pass-level
#: grid and eta and fidelity_adv_by_f on the joint-weight grid.
FOM_GRID = 6

FOM_FUNCTIONS = ("zeta", "fidelity_adv", "eta", "fidelity_adv_by_f")


def _grid(rng: random.Random) -> list[float]:
    """FOM_GRID increasing values in (0, 1), one per equal-width cell."""
    return [round((j + rng.uniform(0.1, 0.9)) / FOM_GRID, 4) for j in range(FOM_GRID)]


def fom_curve(rng: random.Random, stratum: int) -> list[Request]:
    d, (lo, hi) = FOM_STRATA[stratum % len(FOM_STRATA)]
    distinct = [1.0] + _distinct_levels(rng, d - 1, 0.05, 0.9)
    lo_n = rng.randint(lo, hi)
    n = 1
    while multiset_count(n, d) < lo_n:
        n += 1
    deltas, fs = _grid(rng), _grid(rng)
    curve = f"{stratum}:{n}:{distinct}"
    reqs = []
    for fn in FOM_FUNCTIONS:
        for j, x in enumerate(deltas if fn in ("zeta", "fidelity_adv") else fs):
            reqs.append(Request(
                kind="lib", fn=fn, args=(n, x, tuple(distinct)),
                meta={"d": d, "n": n, "hedge": "none", "curve": curve,
                      "group_start": not reqs},
            ))
    return reqs


def _fom_curves(rng: random.Random) -> Iterator[Request]:
    i = 0
    while True:
        yield from fom_curve(rng, i)
        i += 1


# --- cli_mix --------------------------------------------------------------


def _spectrum_doc(rng: random.Random, d: int) -> tuple[str, list[float]]:
    levels = _distinct_levels(rng, d - 1, 0.0, 0.9)
    if levels[-1] < 0.03:
        levels[-1] = 0.0
    distinct = [1.0] + levels
    return _eigen_doc(rng, distinct), distinct


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 5)


def _eps_delta(rng: random.Random, lo: float = 1e-3, hi: float = 0.3) -> tuple[str, str]:
    return _num(_log_uniform(rng, lo, hi)), _num(_log_uniform(rng, lo, hi))


def _fmt(rng: random.Random, choices=("text", "json", "csv")) -> str:
    return rng.choice(choices)


def _analyze(rng):
    stdin, distinct = _spectrum_doc(rng, rng.randint(2, 5))
    argv = ["analyze", "--format", _fmt(rng)]
    if rng.random() < 0.5:
        argv += ["--N", str(rng.randint(1, 200))]
    if rng.random() < 0.7:
        eps, dlt = _eps_delta(rng)
        argv += ["--epsilon", eps, "--delta", dlt]
    return argv, stdin, {"d": len(distinct), "distinct": distinct}


def _analyze_homogeneous(rng):
    lam = round(rng.uniform(0.0, 0.95), 4)
    eps, dlt = _eps_delta(rng)
    argv = ["analyze", "--format", _fmt(rng), "--epsilon", eps, "--delta", dlt]
    return argv, json.dumps({"homogeneous": {"lambda": lam}}), {
        "d": 2, "distinct": [1.0, lam]}


def _plan_honest(rng):
    stdin, distinct = _spectrum_doc(rng, rng.randint(2, 5))
    eps, dlt = _eps_delta(rng)
    argv = ["plan", "--epsilon", eps, "--delta", dlt, "--format", _fmt(rng)]
    return argv, stdin, {"d": len(distinct), "distinct": distinct}


#: Catalog requests; none of them reaches the hull.
PROTOCOL_DOCS = (
    {"family": "MaxEntangled", "d": 3},
    {"family": "GHZ", "d": 2, "n": 5},
    {"family": "BipartitePure", "schmidt": [0.8, 0.6]},
    {"family": "StabilizerQubit", "n": 4},
    {"family": "StabilizerQudit", "d": 5, "n": 2},
    {"family": "Hypergraph", "chi": 3},
    {"family": "WeightedGraph", "max_degree": 3},
    {"family": "Dicke", "n": 6, "excitations": 2},
)


def _plan_protocol(rng):
    eps, dlt = _eps_delta(rng)
    argv = ["plan", "--epsilon", eps, "--delta", dlt, "--format", _fmt(rng)]
    if rng.random() < 0.7:
        argv.append("--adversarial")
    doc = {"protocol": rng.choice(PROTOCOL_DOCS)}
    return argv, json.dumps(doc), {"d": 2}


def nu_grid_overshoots(lo: float, hi: float, num: int) -> bool:
    """True when the sweep grid lo + (hi - lo) i/(num - 1) has a point above 1."""
    return any(lo + (hi - lo) * i / (num - 1) > 1.0 for i in range(num))


def _nu_range(rng: random.Random, overshoot: bool) -> tuple[str, int]:
    """A nu sweep range; its grid overshoots 1 exactly when ``overshoot`` is set."""
    while True:
        lo = round(rng.uniform(0.1, 0.4), 3)
        hi = 1.0 if overshoot else round(rng.uniform(0.6, 1.0), 3)
        num = rng.randint(4, 12)
        if nu_grid_overshoots(lo, hi, num) == overshoot:
            return f"{lo}:{hi}", num


def _sweep(param):
    def make(rng, overshoot=False):
        if param == "nu":
            rng_txt, num = _nu_range(rng, overshoot)
        elif param == "lambda":
            lo = round(rng.uniform(0.1, 0.3), 3)
            rng_txt = f"{lo}:{round(lo + rng.uniform(0.2, 0.5), 3)}"
        elif param == "delta":
            lo = round(rng.uniform(1e-4, 1e-3), 6)
            rng_txt = f"{lo}:{round(rng.uniform(0.01, 0.2), 4)}"
        elif param == "epsilon":
            lo = round(rng.uniform(1e-3, 0.01), 5)
            rng_txt = f"{lo}:{round(rng.uniform(0.05, 0.3), 4)}"
        if param != "nu":
            num = rng.randint(4, 12)
        # csv only: the other formats have no defined sweep output yet.
        argv = ["sweep", "--param", param, "--range", f"{rng_txt}:{num}", "--format", "csv"]
        if param in ("lambda", "delta"):
            eps, dlt = _eps_delta(rng, 1e-3, 0.05)
            argv += ["--epsilon", eps]
            argv += ["--delta", dlt] if param == "lambda" else [
                "--lam", _num(round(rng.choice([0.0, rng.uniform(0.1, 0.8)]), 3))]
        meta = {"d": 2, "rows": num}
        if overshoot:
            # The grid's last point rounds to just above 1, which the
            # program rejects (exit 1) instead of evaluating nu = 1.
            meta["known_defect"] = "nu_grid_overshoot"
        return argv, "", meta
    return make


def _single_copy(rng):
    eps = round(rng.uniform(0.3, 0.95), 4)
    dlt = round(rng.uniform(0.3, 0.95), 4)
    argv = ["single-copy", "--epsilon", _num(eps), "--delta", _num(dlt),
            "--format", _fmt(rng, ("text", "json"))]
    return argv, "", {"d": 2}


def _single_copy_strategy(rng):
    eps = round(rng.uniform(0.3, 0.95), 4)
    dlt = round(rng.uniform(0.2, 0.9), 4)
    beta = round(rng.uniform(0.05, 0.9), 4)
    tau = round(rng.uniform(0.0, beta), 4)
    argv = ["single-copy", "--epsilon", _num(eps), "--delta", _num(dlt),
            "--beta", _num(beta), "--tau", _num(tau), "--format", _fmt(rng, ("text", "json"))]
    return argv, "", {"d": 3}


def _table1(rng):
    eps, dlt = _eps_delta(rng)
    argv = ["table1", "--epsilon", eps, "--delta", dlt,
            "--format", _fmt(rng, ("text", "json")),
            "--d", str(rng.randint(2, 6)), "--qudit-d", str(rng.choice([3, 5, 7])),
            "--chi", str(rng.randint(2, 6)), "--n", str(rng.randint(4, 9))]
    return argv, "", {"d": 2}


def _simulate_estimator(rng):
    argv = ["simulate", "estimator", "--lam", _num(round(rng.uniform(0.1, 0.9), 3)),
            "--fidelity", _num(round(rng.uniform(0.5, 1.0), 3)),
            "--n-tests", str(rng.randint(10, 60)), "--trials", str(rng.randint(50, 200)),
            "--seed", str(rng.randint(1, 10**6)), "--format", _fmt(rng)]
    return argv, "", {"d": 2}


def _simulate_iid(rng):
    stdin, distinct = _spectrum_doc(rng, rng.randint(2, 4))
    raw = [rng.random() + 0.05 for _ in distinct]
    weights = [round(w / sum(raw), 6) for w in raw]
    weights[0] = round(1.0 - sum(weights[1:]), 6)
    argv = ["simulate", "iid", "--weights", ",".join(_num(w) for w in weights),
            "--n-tests", str(rng.randint(5, 40)), "--trials", str(rng.randint(50, 200)),
            "--seed", str(rng.randint(1, 10**6)), "--format", _fmt(rng)]
    return argv, stdin, {"d": len(distinct)}


def _simulate_block(rng):
    lam = round(rng.uniform(0.1, 0.9), 3)
    n = rng.randint(3, 12)
    j = rng.randint(1, n + 1)
    c = round(rng.uniform(0.2, 0.8), 4)
    doc = {"eigenvalues": [1, lam],
           "mixture": [{"k": [n + 1, 0], "c": c}, {"k": [n + 1 - j, j], "c": round(1 - c, 4)}]}
    argv = ["simulate", "block", "--trials", str(rng.randint(50, 200)),
            "--seed", str(rng.randint(1, 10**6)), "--format", _fmt(rng)]
    return argv, json.dumps(doc), {"d": 2}


VALID_KINDS = (
    ("analyze", _analyze),
    ("plan_honest", _plan_honest),
    ("sweep_lambda", _sweep("lambda")),
    ("analyze_homogeneous", _analyze_homogeneous),
    ("plan_protocol", _plan_protocol),
    ("sweep_delta", _sweep("delta")),
    ("single_copy", _single_copy),
    ("table1", _table1),
    ("sweep_epsilon", _sweep("epsilon")),
    ("simulate_estimator", _simulate_estimator),
    ("analyze", _analyze),
    ("single_copy_strategy", _single_copy_strategy),
    ("sweep_nu", _sweep("nu")),
    ("simulate_iid", _simulate_iid),
    ("plan_honest", _plan_honest),
    ("simulate_block", _simulate_block),
)

#: Invalid inputs; the correct outcome of each is exit 1.  The three tagged
#: ones exit 0 at the commit that introduced this benchmark: the program
#: reinterprets a non-finite value instead of rejecting it.  They are scored
#: as errors, not left out.
INVALID_KINDS = (
    ("eigenvalue_above_one", ("analyze",), '{"eigenvalues": [1, 1.3, 0.2]}', None),
    ("nan_eigenvalue", ("analyze",), '{"eigenvalues": [1, NaN, 0.2]}', "nan_eigenvalue"),
    ("missing_unit", ("plan", "--epsilon", "0.1", "--delta", "0.1"),
     '{"eigenvalues": [0.9, 0.5]}', None),
    ("nan_lambda", ("analyze",), '{"homogeneous": {"lambda": NaN}}', "nan_lambda"),
    ("bad_hedge", ("plan", "--adversarial", "--hedge", "sometimes", "--epsilon", "0.1",
                   "--delta", "0.1"), '{"homogeneous": {"lambda": 0.5}}', None),
    ("nan_hedge", ("plan", "--adversarial", "--hedge", "p=nan", "--epsilon", "0.2",
                   "--delta", "0.2"), '{"homogeneous": {"lambda": 0.5}}', "nan_hedge"),
    ("bad_range", ("sweep", "--param", "nu", "--range", "0.9:0.1:5"), "", None),
    ("malformed_json", ("analyze",), '{"eigenvalues": [1, 0.5', None),
)

#: Every INVALID_EVERY-th cli_mix request is invalid.
INVALID_EVERY = 10

#: Requests per cli_mix cycle: the valid kinds and the invalid kinds each
#: come round a whole number of times (9 and 2).  The first ``sweep_nu`` of
#: a cycle has a grid that overshoots 1 (``nu_grid_overshoot``), the others
#: have none, so every cycle holds the same known defects.
CLI_MIX_CYCLE = 160


def _cli_valid(rng: random.Random, name: str, make, group_start: bool,
               overshoot: bool = False) -> Request:
    argv, stdin, meta = make(rng, overshoot) if overshoot else make(rng)
    meta.update(case=name, hedge="", group_start=group_start,
                expect_exit=None if name.startswith("single_copy") else 0)
    return Request(kind="cli", argv=tuple(argv), stdin=stdin, meta=meta)


def _cli_mix(rng: random.Random) -> Iterator[Request]:
    """A warm-up request, then cycles of CLI_MIX_CYCLE requests.

    A run stops only at a cycle start, so it scores the same share of
    known defects at every seed.
    """
    yield _cli_valid(rng, *VALID_KINDS[0], True)
    while True:
        valid = invalid = 0
        overshoot = True
        for pos in range(1, CLI_MIX_CYCLE + 1):
            if pos % INVALID_EVERY == 0:
                name, argv, stdin, defect = INVALID_KINDS[invalid % len(INVALID_KINDS)]
                invalid += 1
                yield Request(kind="cli", argv=argv, stdin=stdin, meta={
                    "d": 0, "hedge": "", "expect_exit": 1, "case": name,
                    "known_defect": defect, "group_start": False})
                continue
            name, make = VALID_KINDS[valid % len(VALID_KINDS)]
            valid += 1
            nu_overshoot = overshoot and name == "sweep_nu"
            overshoot &= not nu_overshoot
            yield _cli_valid(rng, name, make, pos == 1, nu_overshoot)


_STREAMS = {
    "plan_multilevel": _plan_multilevel,
    "plan_two_level": _plan_two_level,
    "fom_curves": _fom_curves,
    "cli_mix": _cli_mix,
}


def stream(workload: str, seed: int) -> Iterator[Request]:
    """Infinite request stream of a workload; the same seed gives the same stream."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))
