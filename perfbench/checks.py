"""Output checks for every workload, each against a path independent of the one measured.

* ``plan_multilevel``: the hull count must sit inside the analytic brackets
  of ``qsverify.bounds`` and equal the singular large-gap exact count where
  that is defined.
* ``plan_two_level``: the hull count must equal the closed form
  ``homogeneous.min_tests_homo`` at the hedged eigenvalue.
* ``fom_curves``: range, monotonicity, convexity and inverse relations of
  the figures of merit, the universal fidelity floor, and the closed form
  ``homogeneous.zeta_homo`` for two-level spectra.
* ``cli_mix``: exit codes at every seed.  Values are recomputed from the
  inputs for ``analyze``, honest and protocol ``plan``, ``sweep`` and
  ``single-copy``.  ``table1`` and ``simulate`` are checked only for their
  shape and keys, and for their values against ``reference.json`` at the
  default seed.
* every workload, default seed: exact agreement with the outputs recorded
  in ``reference.json`` from the commit that introduced the benchmark.

A record is a dict with ``index``, ``request``, ``exit``, ``stdout`` and,
for library calls, ``value``.  :func:`check` returns one outcome per
record: ``"ok"``, ``"known_defect"`` (a wrong outcome of a kind listed in
NOTES.md as a known defect) or ``"wrong: <reason>"``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import defaultdict

import qsverify
from qsverify import bounds, hedging, homogeneous, spectrum
from qsverify.nonadversarial import PrecisionTarget

#: Tolerances fixed from float64 rounding of the quantities compared.
ABS_TOL = 1e-12
REL_TOL = 1e-9

#: Absolute slack the hull search grants when it compares zeta with the
#: target delta*(1-eps).  A count one below the closed form whose zeta
#: misses the target by no more than this is the known defect
#: ``search_slack``: the search accepted an infeasible N.
SEARCH_SLACK = 1e-12


def fingerprint(record: dict) -> str:
    """Exit code plus a digest of the output, as stored in reference.json."""
    if record["request"].kind == "lib":
        body = format(record["value"], ".12g") if record["exit"] == 0 else ""
    else:
        body = record["stdout"]
    return f"{record['exit']}:{hashlib.sha256(body.encode()).hexdigest()[:10]}"


def _flag(argv, name: str) -> str | None:
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else None


def parse_results(argv, stdout: str) -> dict:
    """``results`` of a CLI report in any of the three formats, values as text or JSON."""
    fmt = _flag(argv, "--format") or "text"
    if fmt == "json":
        return json.loads(stdout)["results"]
    out = {}
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["key", "value", "provenance"]:
            raise ValueError("csv report header")
        for key, value, _ in rows[1:]:
            out[key] = value
        return out
    for line in stdout.splitlines():
        if " = " in line and not line.startswith("warning:"):
            key, rest = line.split(" = ", 1)
            out[key] = rest.rsplit("  [", 1)[0]
    return out


def _target(argv) -> PrecisionTarget:
    return PrecisionTarget(float(_flag(argv, "--epsilon")), float(_flag(argv, "--delta")))


def _honest_count(nu: float, eps: float, dlt: float) -> float:
    """Real-valued honest count ln(delta)/ln(1 - nu eps)."""
    return math.log(dlt) / math.log1p(-nu * eps)


def _count_matches(n: int, real: float) -> bool:
    """n is the ceiling of real, forgiving float noise at an integer."""
    return max(1, math.ceil(real - 1e-9)) == n or (
        abs(real - round(real)) < 1e-7 and n in (round(real), round(real) + 1))


def _plan_multilevel(rec) -> str:
    req = rec["request"]
    if rec["exit"] != 0:
        return f"wrong: exit {rec['exit']}"
    res = json.loads(rec["stdout"])["results"]
    if "n_tests_adversarial" not in res:
        return "wrong: no exact count"
    n = res["n_tests_adversarial"]
    s = spectrum.from_json_dict(json.loads(req.stdin))
    t = _target(req.argv)
    gb = bounds.tests_bounds_general(s, t)
    if n > gb.upper:
        return f"wrong: count {n} above universal bound {gb.upper}"
    if gb.exact is not None and n != gb.exact:
        return f"wrong: count {n} != singular exact count {gb.exact}"
    if s.tau > 0.0:
        nb = bounds.tests_bounds_nonsingular(s, t)
        if not nb.lower <= n <= nb.upper:
            return f"wrong: count {n} outside [{nb.lower}, {nb.upper}]"
    if not _count_matches(res["n_tests_honest"], _honest_count(s.nu, t.epsilon, t.delta)):
        return "wrong: honest count"
    return "ok"


def _hedged_eigenvalue(s: spectrum.Spectrum, hedge: str) -> float:
    """Common non-unit eigenvalue after the requested hedging of a two-level spectrum."""
    p = hedging.p_star(s.nu, s.tau) if hedge == "auto" else 0.0
    return hedging.hedge(s, p).beta if p > 0.0 else s.beta


def _plan_two_level(rec) -> str:
    req = rec["request"]
    if rec["exit"] != 0:
        return f"wrong: exit {rec['exit']}"
    res = json.loads(rec["stdout"])["results"]
    n = res.get("n_tests_adversarial")
    s = spectrum.from_json_dict(json.loads(req.stdin))
    t = _target(req.argv)
    lam = _hedged_eigenvalue(s, _flag(req.argv, "--hedge"))
    expect = homogeneous.min_tests_homo(t.epsilon, t.delta, lam)
    if n == expect - 1 and 0.0 < t.delta * (1.0 - t.epsilon) - homogeneous.zeta_homo(
            homogeneous.HomoContext(n, lam), t.delta) <= SEARCH_SLACK:
        return "known_defect"
    if n != expect:
        return f"wrong: count {n} != closed form {expect}"
    return "ok"


def _delta_c(n: int, distinct) -> float:
    beta, tau = distinct[1], distinct[-1]
    return beta**n if tau > 0.0 else max(beta**n, 1.0 / (n + 1))


def _close(a: float, b: float, tol: float = ABS_TOL) -> bool:
    return abs(a - b) <= tol + REL_TOL * abs(b)


def _fom_curve(recs: list[dict]) -> list[str]:
    """Outcomes for the requests of one curve (all share N and the spectrum)."""
    outcomes = ["ok"] * len(recs)
    by_fn = defaultdict(list)
    for i, rec in enumerate(recs):
        if rec["exit"] != 0:
            outcomes[i] = f"wrong: raised {rec['stdout']}"
        else:
            by_fn[rec["request"].fn].append((i, rec["request"].args[1], rec["value"]))
    n, _, distinct = recs[0]["request"].args
    s = spectrum.from_eigenvalues(distinct)
    dc = _delta_c(n, distinct)
    ref = qsverify.boundary(n, s)

    def bad(i, why):
        if outcomes[i] == "ok":
            outcomes[i] = f"wrong: {why}"

    zetas = by_fn["zeta"]
    for i, dlt, z in zetas:
        if not -ABS_TOL <= z <= dlt + ABS_TOL:
            bad(i, f"zeta {z} outside [0, {dlt}]")
        if not _close(ref.eta(z), max(dlt, dc), 1e-9):
            bad(i, "eta(zeta(delta)) != max(delta, delta_c)")
        if s.d == 2 and abs(z - homogeneous.zeta_homo(
                homogeneous.HomoContext(n, s.beta), dlt)) > ABS_TOL:
            bad(i, "zeta differs from the two-level closed form by more than 1e-12")
    for (i0, x0, z0), (i1, x1, z1) in zip(zetas, zetas[1:]):
        if z1 < z0 - ABS_TOL:
            bad(i1, "zeta decreases along the grid")
    for a, b, c in zip(zetas, zetas[1:], zetas[2:]):
        left = (b[2] - a[2]) / (b[1] - a[1])
        right = (c[2] - b[2]) / (c[1] - b[1])
        if right < left - 1e-9 * max(1.0, abs(left)):
            bad(b[0], "zeta not convex along the grid")
    zeta_at = {x: z for _, x, z in zetas}
    for i, dlt, fid in by_fn["fidelity_adv"]:
        if fid < bounds.fidelity_lb_general(n, dlt, s.nu) - ABS_TOL or fid > 1.0 + ABS_TOL:
            bad(i, f"fidelity {fid} below the universal floor or above 1")
        if dlt in zeta_at and not _close(fid, zeta_at[dlt] / dlt):
            bad(i, "fidelity != zeta/delta")
    etas = by_fn["eta"]
    for i, f, e in etas:
        if not dc - ABS_TOL <= e <= 1.0 + ABS_TOL:
            bad(i, f"eta {e} outside [delta_c, 1]")
    for (i0, f0, e0), (i1, f1, e1) in zip(etas, etas[1:]):
        if e1 < e0 - ABS_TOL:
            bad(i1, "eta decreases along the grid")
    eta_at = {x: e for _, x, e in etas}
    for i, f, fid in by_fn["fidelity_adv_by_f"]:
        if not 0.0 < fid <= 1.0 + ABS_TOL:
            bad(i, f"fidelity_by_f {fid} outside (0, 1]")
        if f in eta_at and not _close(fid, f / eta_at[f]):
            bad(i, "fidelity_by_f != f/eta")
    return outcomes


def _distinct_of(values) -> list[float]:
    out = []
    for v in sorted((float(x) for x in values), reverse=True):
        if not out or out[-1] - v > 1e-12:
            out.append(v)
    return out


def _sweep_row(param: str, x: float, argv) -> list[float]:
    """Expected values of one sweep row after its grid value."""
    if param == "lambda":
        t = _target(argv)
        approx = (math.log(t.delta) / (x * t.epsilon * math.log(x)) if x > 0.0
                  else (1.0 - t.delta) / (t.epsilon * t.delta))
        return [math.nan, homogeneous.min_tests_homo(t.epsilon, t.delta, x), approx]
    if param == "delta":
        eps, lam = float(_flag(argv, "--epsilon")), float(_flag(argv, "--lam"))
        approx = ((1.0 - x) / (eps * x) if lam == 0.0
                  else math.log(x) / (lam * eps * math.log(lam)))
        return [homogeneous.min_tests_homo(eps, x, lam), approx]
    if param == "nu":
        hs = hedging.h_star(x, 0.0)
        return [hedging.p_star(x, 0.0), hs, x * hs,
                x * hedging.h_p(hedging.p_zero(x), x, 0.0)]
    return [math.nan, math.nan]  # epsilon: checked through its defining equations


def _sweep(argv, stdout: str, num: int) -> str:
    """Grid, then every value: plain formulas, or the closed forms the checks trust."""
    param = _flag(argv, "--param")
    lo, hi, _ = (float(v) for v in _flag(argv, "--range").split(":"))
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) != num + 1 or len({len(r) for r in rows}) != 1:
        return "wrong: sweep table shape"
    for i, row in enumerate(rows[1:]):
        got = [float(v) for v in row]
        x = lo + (hi - lo) * i / (num - 1)
        if not _close(got[0], x, 1e-9):
            return f"wrong: sweep grid point {i}"
        if param == "lambda":
            t = _target(argv)
            if not _count_matches(int(got[1]), _honest_count(1.0 - x, t.epsilon, t.delta)):
                return f"wrong: sweep honest count at {x}"
        if param == "epsilon":
            ls, best = got[1], got[2]
            if abs(1.0 - x + ls * x + (1.0 - x) * math.log(ls)) > 1e-9 or not _close(
                    best, 1.0 / (math.e * ls - math.log(ls) - 1.0), 1e-9):
                return f"wrong: sweep lambda_star or overhead at {x}"
        for j, want in enumerate(_sweep_row(param, x, argv), start=1):
            if not math.isnan(want) and not _close(got[j], want, 1e-9):
                return f"wrong: sweep column {j} at {x}"
    return "ok"


def _cli_mix(rec) -> str:
    req, code = rec["request"], rec["exit"]
    meta = req.meta
    if meta["expect_exit"] == 1:
        if code == 1:
            return "ok"
        return "known_defect" if meta.get("known_defect") else f"wrong: exit {code}"
    case = meta["case"]
    if code not in ((0, 2) if case.startswith("single_copy") else (0,)):
        return "known_defect" if meta.get("known_defect") else f"wrong: exit {code}"
    if case.startswith("sweep"):
        return _sweep(req.argv, rec["stdout"], meta["rows"])
    res = parse_results(req.argv, rec["stdout"])
    if case in ("analyze", "analyze_homogeneous"):
        distinct = _distinct_of(meta["distinct"])
        for key, want in (("beta", distinct[1]), ("tau", distinct[-1]),
                          ("nu", 1.0 - distinct[1])):
            if not _close(float(res[key]), want, 1e-6):
                return f"wrong: {key}"
    elif case == "plan_honest":
        distinct = _distinct_of(meta["distinct"])
        t = _target(req.argv)
        if not _count_matches(int(res["n_tests_honest"]),
                              _honest_count(1.0 - distinct[1], t.epsilon, t.delta)):
            return "wrong: honest count"
    elif case == "plan_protocol":
        # The text report prints nu to 6 significant digits, so the count
        # may be any ceiling within that rounding of the reported nu.
        t = _target(req.argv)
        nu, n = float(res["nu"]), int(res["n_tests_honest"])
        if not 0.0 < nu <= 1.0 or not math.ceil(
                _honest_count(nu * (1 + 1e-5), t.epsilon, t.delta) - 1e-9) <= n <= math.ceil(
                _honest_count(nu * (1 - 1e-5), t.epsilon, t.delta) - 1e-9):
            return "wrong: honest count"
    elif case == "single_copy":
        t = _target(req.argv)
        threshold = min(4.0 * (1.0 - t.epsilon) / (2.0 - t.epsilon) ** 2,
                        1.0 / (1.0 + t.epsilon))
        if (code == 0) != (t.delta >= threshold - 1e-12):
            return "wrong: feasibility"
    elif case == "single_copy_strategy":
        if (code == 0) != (str(res["feasible"]).lower() == "true"):
            return "wrong: exit code disagrees with the feasible flag"
    elif case == "table1":
        if "rows" in res:
            if len(res["rows"]) != 9:
                return "wrong: table1 rows"
        elif len(rec["stdout"].splitlines()) != 10:
            return "wrong: table1 rows"
    elif case.startswith("simulate"):
        if "rng" not in res:
            return "wrong: simulate report"
    return "ok"


_PER_RECORD = {
    "plan_multilevel": _plan_multilevel,
    "plan_two_level": _plan_two_level,
    "cli_mix": _cli_mix,
}


class Checker:
    """Streaming checker: :meth:`add` records in order, then :meth:`flush`.

    Both return ``(record, outcome)`` pairs for the records they settle.  A
    ``fom_curves`` curve is settled when the next curve starts, so only one
    curve is held at a time.  ``reference`` holds fingerprints by stream
    index.
    """

    def __init__(self, workload: str, reference: list[str] | None = None):
        self.workload = workload
        self.reference = reference
        self._curve: list[dict] = []

    def add(self, rec: dict) -> list[tuple[dict, str]]:
        if self.workload != "fom_curves":
            try:
                outcome = _PER_RECORD[self.workload](rec)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                outcome = f"wrong: unreadable output ({exc!r})"
            return self._against_reference([rec], [outcome])
        done = []
        if self._curve and rec["request"].meta["curve"] != self._curve[0]["request"].meta["curve"]:
            done = self.flush()
        self._curve.append(rec)
        return done

    def flush(self) -> list[tuple[dict, str]]:
        recs, self._curve = self._curve, []
        return self._against_reference(recs, _fom_curve(recs)) if recs else []

    def _against_reference(self, recs, outcomes) -> list[tuple[dict, str]]:
        ref = self.reference
        out = []
        for rec, outcome in zip(recs, outcomes):
            idx = rec["index"]
            # A known defect may be fixed later; its new outcome is checked above.
            if ref is not None and idx < len(ref) and outcome == "ok" \
                    and not rec["request"].meta.get("known_defect") \
                    and fingerprint(rec) != ref[idx]:
                outcome = "wrong: differs from the recorded reference output"
            out.append((rec, outcome))
        return out


def check(workload: str, records: list[dict], reference: list[str] | None = None) -> list[str]:
    """One outcome per record, in order."""
    checker = Checker(workload, reference)
    settled = [o for rec in records for _, o in checker.add(rec)]
    return settled + [o for _, o in checker.flush()]
