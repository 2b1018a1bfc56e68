#!/usr/bin/env python3
"""qsverify benchmark: seeded closed-loop workloads through the public API.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload plan_multilevel --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cli_mix --trace 1     # per-layer figures
    python3 perfbench/run.py                                  # all workloads, default seed
    python3 perfbench/run.py --mode baseline [--slow]         # ROADMAP baseline table

One client in one process sends each request after the previous one
completes.  CLI requests go through ``qsverify.cli.main(argv)`` with
stdin/stdout redirected; ``fom_curves`` calls the library directly.  One
untimed warm-up request precedes the timed ones.  Outputs are checked
between requests, untimed (see checks.py).  Request times are scaled to a
reference host speed (see speed.py).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and the ``metrics`` named in
BENCHMARK.json (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
Per-request rows and, when traced, the spans are written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"

#: Seed whose outputs are compared with reference.json.
DEFAULT_SEED = 0

#: Fresh interpreters timed for ``setup_s`` (median reported), spread
#: evenly over the request time of a run, after one untimed start that
#: writes the bytecode cache.  Start-up time does not follow the speed
#: probe, so only many starts at different moments make its median steady.
SETUP_STARTS = 10

#: Seconds of request time between two host speed probes.
PROBE_EVERY_S = 0.1

def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "qsverify" / "cli.py").is_file():
    _fail(f"no qsverify sources under {SRC}; run from a source checkout")
sys.path[:0] = [str(SRC), str(ROOT)]

import qsverify  # noqa: E402
import qsverify.cli  # noqa: E402

if Path(qsverify.__file__).resolve().parent != SRC / "qsverify":
    _fail(f"imported qsverify from {qsverify.__file__}, not from {SRC}")

from perfbench import checks, speed, trace, workloads  # noqa: E402


# --- running requests -----------------------------------------------------


#: Exit code recorded for a request that raised out of the public API.
EXIT_CRASH = -1


def execute(req: workloads.Request) -> tuple[int, str, object]:
    """Run one request; return (exit code, stdout, value of a library call).

    A request that raises is recorded with ``EXIT_CRASH`` and its traceback
    as output, so the run goes on and the checker scores it.
    """
    if req.kind == "lib":
        n, x, distinct = req.args
        try:
            s = qsverify.from_eigenvalues(distinct)
            return 0, "", getattr(qsverify, req.fn)(n, x, s)
        except Exception:
            return EXIT_CRASH, traceback.format_exc(), None
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.stdin), io.StringIO(), io.StringIO()
    try:
        code = qsverify.cli.main(list(req.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = EXIT_CRASH
        sys.stdout.write(traceback.format_exc())
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out, None


def closed_loop(requests, seconds: float, sink, tracer=None, between=None) -> float:
    """Send requests one after another until ``seconds`` of request time pass.

    Each finished request goes to ``sink`` as a record dict, untimed.  A run
    stops only at a group start, so the last curve of ``fom_curves``, or
    cycle of ``plan_two_level`` and ``cli_mix``, is never cut short.  Time between requests is not counted: ``between(busy)``
    runs there and returns the speed segment of the next request.  Returns
    the request time spent.
    """
    busy = 0.0
    for index, req in requests:
        if busy >= seconds and req.meta.get("group_start", True):
            break
        segment = between(busy) if between is not None else 0
        if tracer is not None:
            tracer.request = index
        t0 = time.perf_counter()
        code, out, value = execute(req)
        latency = time.perf_counter() - t0
        busy += latency
        sink({"index": index, "request": req, "exit": code, "stdout": out,
              "value": value, "latency": latency, "segment": segment})
    return busy


def paired_loop(requests, seconds: float, tracer: trace.Tracer):
    """Run each request traced and untraced, alternating which goes first.

    Pairing cancels drift in machine speed, which on a shared host is larger
    than the tracing overhead.  Stops at a group start once ``seconds`` of
    request time pass, about half of it traced.  Returns the traced records,
    traced and untraced request time, and how many outputs differ.
    """
    records, spent, mismatch = [], [0.0, 0.0], 0
    for index, req in requests:
        if sum(spent) >= seconds and req.meta.get("group_start", True):
            break
        outputs = {}
        for traced in ((True, False) if index % 2 else (False, True)):
            got = []
            if traced:
                tracer.install()
            try:
                spent[traced] += closed_loop([(index, req)], math.inf, got.append,
                                             tracer if traced else None)
            finally:
                tracer.restore()
            outputs[traced] = got[0]
        records.append(outputs[True])
        mismatch += checks.fingerprint(outputs[True]) != checks.fingerprint(outputs[False])
    return records, spent[True], spent[False], mismatch


class RunLog:
    """Takes records as they finish: checks them, writes the per-request rows, counts.

    Nothing grows with the number of requests except the latency list, so
    a faster program does not raise the measured peak memory.
    """

    def __init__(self, workload: str, seed: int, rows_path: Path):
        self.checker = checks.Checker(workload, load_reference(workload, seed))
        self.workload = workload
        self.latencies: list[float] = []
        self.segments: list[int] = []
        self.failed = 0
        self.known = 0
        self.unexpected: dict[str, int] = {}
        rows_path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = rows_path.open("w", newline="")
        self._rows = csv.writer(self._fh)
        self._rows.writerow(["index", "workload", "case", "d", "n", "hedge", "latency_ms",
                             "exit", "outcome"])

    def add(self, rec: dict) -> None:
        self.latencies.append(rec["latency"])
        self.segments.append(rec["segment"])
        for done, outcome in self.checker.add(rec):
            self._settle(done, outcome)

    def close(self) -> None:
        for done, outcome in self.checker.flush():
            self._settle(done, outcome)
        self._fh.close()

    def _settle(self, rec: dict, outcome: str) -> None:
        if outcome != "ok":
            self.failed += 1
            if outcome == "known_defect":
                self.known += 1
            else:
                self.unexpected[outcome] = self.unexpected.get(outcome, 0) + 1
        req = rec["request"]
        self._rows.writerow([rec["index"], self.workload, req.meta.get("case") or req.fn
                             or req.argv[0], req.meta.get("d", ""), _output_n(rec),
                             req.meta.get("hedge", ""), f"{rec['latency'] * 1e3:.4f}",
                             rec["exit"], outcome])


def indexed_stream(workload: str, seed: int):
    """(stream index, request) pairs; index 0 is the warm-up request."""
    return enumerate(workloads.stream(workload, seed))


def load_reference(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


# --- set-up and import time -------------------------------------------------


def _python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=60)


def setup_start() -> float:
    """Wall time of ``import qsverify.cli`` in a fresh interpreter."""
    t0 = time.perf_counter()
    _python(["-c", "import qsverify.cli"])
    return time.perf_counter() - t0


class Interludes:
    """Untimed work between the requests of a run.

    Host speed probes every ``PROBE_EVERY_S`` of request time (see speed.py),
    and the ``SETUP_STARTS`` fresh-interpreter starts, one every
    ``seconds / SETUP_STARTS``; :meth:`finish` makes up any that a long last
    request skipped.
    """

    def __init__(self, seconds: float):
        self.scale = speed.Scale(PROBE_EVERY_S)
        self.setup: list[float] = []
        self._setup_every = seconds / SETUP_STARTS

    def __call__(self, busy: float) -> int:
        if len(self.setup) < SETUP_STARTS and busy >= len(self.setup) * self._setup_every:
            self.setup.append(setup_start())
        return self.scale.mark(busy)

    def finish(self) -> None:
        self.scale.close()
        while len(self.setup) < SETUP_STARTS:
            self.setup.append(setup_start())


def import_split() -> tuple[float, float]:
    """Median (numpy, qsverify without numpy) cumulative import seconds from -X importtime."""
    numpy_s, own_s = [], []
    for _ in range(SETUP_STARTS):
        err = _python(["-X", "importtime", "-c", "import qsverify.cli"]).stderr
        cum = {}
        for line in err.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cum[parts[2]] = int(parts[1]) * 1e-6
        numpy_s.append(cum.get("numpy", 0.0))
        own_s.append(cum.get("qsverify", 0.0) - cum.get("numpy", 0.0))
    return statistics.median(numpy_s), statistics.median(own_s)


# --- reporting -------------------------------------------------------------


def _output_n(rec: dict) -> str:
    req = rec["request"]
    if req.kind == "lib":
        return str(req.meta["n"])
    if rec["exit"] == 0 and "--adversarial" in req.argv and "--format" in req.argv:
        try:
            return str(json.loads(rec["stdout"])["results"].get("n_tests_adversarial", ""))
        except (ValueError, KeyError):
            return ""
    return ""


def write_spans(path: Path, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["span", "name", "layer", "start_s", "end_s", "parent", "request", "attrs"])
        for i, (name, layer, t0, t1, parent, req, attrs) in enumerate(spans):
            w.writerow([i, name, layer, f"{t0:.9f}", f"{t1:.9f}", parent, req,
                        json.dumps(attrs) if attrs else ""])


def input_size(workload: str) -> str:
    if workload == "plan_multilevel":
        bands = sorted({(d, b) for d, _, _, b in workloads.MULTILEVEL_STRATA})
        return "d=3..5, eps,delta in [0.05,0.2]; multisets at the search's upper end " + \
            ", ".join(f"d={d}: {lo}-{hi}" for d, (lo, hi) in bands)
    if workload == "plan_two_level":
        return "d=2, eps,delta in [1e-3,1e-2]; estimated N bands " + \
            ", ".join(f"{lo}-{hi}" for lo, hi in sorted(set(workloads.TWO_LEVEL_BANDS))) + \
            f"; cycles of {len(workloads.TWO_LEVEL_BANDS) + 1} with the search_slack case"
    if workload == "fom_curves":
        return f"d=2..4, {2 * workloads.FOM_GRID}-point grids; multisets per boundary " + \
            ", ".join(f"d={d}: {lo}-{hi}" for d, (lo, hi) in workloads.FOM_STRATA)
    return (f"{len(workloads.VALID_KINDS)} valid request kinds; every "
            f"{workloads.INVALID_EVERY}th request invalid; cycles of {workloads.CLI_MIX_CYCLE}")


def summarize(log: RunLog, seed: int, busy: float, seconds: float, lat: list[float],
              scale: speed.Scale) -> None:
    n = len(lat)
    print(f"# workload {log.workload}, seed {seed}: closed loop, 1 client, "
          f"{n} requests in {busy:.3f} s of request time (target {seconds} s)")
    print(f"# input size: {input_size(log.workload)}")
    print(f"# unscaled wall time: requests_per_s {n / busy:.4f}, latency_p50_ms "
          f"{statistics.median(log.latencies) * 1e3:.4f}; {len(scale.probes)} speed "
          f"probes, median {statistics.median(scale.probes) * 1e3:.4f} ms "
          f"(reference {speed.PROBE_REFERENCE_S * 1e3} ms)")
    print(f"# latency_p50_ms {statistics.median(lat) * 1e3:.4f} (n={n}, scaled)")
    if n >= 100:
        print(f"# latency_p90_ms {statistics.quantiles(lat, n=10)[-1] * 1e3:.4f} "
              f"(n={n}, scaled)")
    else:
        print(f"# latency_p90_ms not reported: {n} < 100 samples")
    print(f"# error_ratio {log.failed / n:.6f} ({log.failed}/{n}; "
          f"{log.known} on known defects)")
    for outcome, count in sorted(log.unexpected.items())[:10]:
        print(f"# unexpected ({count}x): {outcome}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- modes -----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run of one workload; returns the result object printed as JSON."""
    _python(["-c", "import qsverify.cli"])  # writes the bytecode cache, untimed
    if traced:
        numpy_s, own_s = import_split()
    stream = indexed_stream(workload, seed)
    closed_loop([next(stream)], math.inf, lambda rec: None)  # warm-up, untimed
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    log = RunLog(workload, seed, RESULTS / f"rows-{tag}.csv")
    if not traced:
        interludes = Interludes(seconds)
        busy = closed_loop(stream, seconds, log.add, between=interludes)
        interludes.finish()
        log.close()
        rss_mb = _peak_rss_mb()
        scale = interludes.scale
        lat = [t * scale.factor(k) for t, k in zip(log.latencies, log.segments)]
        summarize(log, seed, busy, seconds, lat, scale)
        n = len(lat)
        return {
            "correct": not log.unexpected,
            "attempted": n,
            "failed": log.failed,
            "metrics": {
                "requests_per_s": {"value": n / sum(lat), "unit": "1/s"},
                "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
                "success_ratio": {"value": 1.0 - log.failed / n, "unit": "ratio"},
                "setup_s": {"value": statistics.median(interludes.setup), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            },
        }

    tracer = trace.Tracer()
    records, traced_s, plain_s, mismatch = paired_loop(stream, seconds, tracer)
    for rec in records:  # checked after tracing, so the checks add no spans
        log.add(rec)
    log.close()
    write_spans(RESULTS / f"spans-{tag}.csv", tracer.spans)
    n = len(records)
    layers = trace.layer_metrics(tracer.spans, n)
    layers["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in records) / n
    layers["import.numpy_s"] = numpy_s
    layers["import.qsverify_s"] = own_s
    layers["trace.requests"] = n
    layers["trace.overhead_s"] = (traced_s - plain_s) / n
    layers["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    print(f"# traced {workload}, seed {seed}: {n} requests, {traced_s:.3f} s traced, "
          f"{plain_s:.3f} s untraced, paired, {len(tracer.spans)} spans")
    for outcome, count in sorted(log.unexpected.items())[:10]:
        print(f"# unexpected ({count}x): {outcome}")
    if mismatch:
        print(f"# unexpected: {mismatch} replayed outputs differ from the traced ones")
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    return {
        "correct": not log.unexpected and not mismatch,
        "attempted": n,
        "failed": log.failed,
        "metrics": {k: {"value": layers[k], "unit": units[k]} for k in units},
    }


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: ROADMAP baseline cases: (label, eigenvalues, eps = delta).
BASELINE_LIB = (
    ("min_tests_adv, d=2 lambda=0.5, eps=delta=0.01", [1, 0.5], 0.01),
    ("min_tests_adv, d=2 lambda=0.37, eps=delta=1e-3", [1, 0.37], 1e-3),
    ("min_tests_adv, d=3 (0.7, 0.2), eps=delta=0.05", [1, 0.7, 0.2], 0.05),
    ("min_tests_adv, d=3 (0.7, 0.2), eps=delta=0.01", [1, 0.7, 0.2], 0.01),
    ("min_tests_adv, d=4 (0.6, 0.3, 0.1), eps=delta=0.1", [1, 0.6, 0.3, 0.1], 0.1),
)
SLOW_CASE = BASELINE_LIB[3][0]

BASELINE_CLI = (
    ("CLI plan --adversarial --hedge none, d=3, eps=delta=0.02",
     ["plan", "--adversarial", "--hedge", "none", "--epsilon", "0.02", "--delta", "0.02",
      "--format", "json"], '{"eigenvalues": [1, 0.7, 0.2]}'),
    ("CLI analyze, d=2", ["analyze"], '{"homogeneous": {"lambda": 0.5}}'),
    ("CLI sweep --param lambda, 40 points",
     ["sweep", "--param", "lambda", "--range", "0.15:0.6:40", "--epsilon", "0.01",
      "--delta", "1e-4"], ""),
    ("CLI table1, eps=delta=0.01", ["table1", "--epsilon", "0.01", "--delta", "0.01"], ""),
)


def baseline(slow: bool) -> None:
    """Print the ROADMAP baseline table, measured now (single wall-clock runs)."""
    rows = []
    t0 = time.perf_counter()
    suite = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=1800)
    last = (suite.stdout.strip().splitlines() or ["no output"])[-1]
    rows.append(("tier-1 suite", last.split(" in ")[0], time.perf_counter() - t0))
    for label, ev, target in BASELINE_LIB:
        if label == SLOW_CASE and not slow:
            rows.append((label, "skipped (pass --slow; about 400 s at the seed)", None))
            continue
        s = qsverify.from_eigenvalues(ev)
        t = qsverify.PrecisionTarget(target, target)
        t0 = time.perf_counter()
        n = qsverify.min_tests_adv(s, t)
        rows.append((label, f"N={n}", time.perf_counter() - t0))
    for label, argv, stdin in BASELINE_CLI:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qsverify.cli", *argv], input=stdin,
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
        dt = time.perf_counter() - t0
        result = f"exit {proc.returncode}"
        if "--adversarial" in argv and proc.returncode == 0:
            result = f"N={json.loads(proc.stdout)['results']['n_tests_adversarial']}"
        rows.append((label, result, dt))
    print(f"Python {sys.version.split()[0]}, numpy {__import__('numpy').__version__}, "
          f"{os.cpu_count()} CPUs; single wall-clock runs")
    print("| case | result | time |\n|---|---|---|")
    for label, result, dt in rows:
        print(f"| {label} | {result} | {'n/a' if dt is None else f'{dt:.2f} s'} |")
    print(json.dumps({"baseline": [{"case": c, "result": r, "seconds": d}
                                   for c, r, d in rows]}))


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    """Every workload in its own fresh process, one row per workload and metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
            rows.append((workload, name, metric["value"], metric["unit"], result["attempted"]))
    print("| workload | metric | value | unit | requests |\n|---|---|---|---|---|")
    for workload, name, value, unit, n in rows:
        print(f"| {workload} | {name} | {value:.6g} | {unit} | {n} |")
    return merged


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=["run", "baseline"], default="run")
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--slow", action="store_true",
                    help="baseline: include the d=3, eps=delta=0.01 case")
    args = ap.parse_args(argv)
    if args.mode == "baseline":
        baseline(args.slow)
    else:
        runner = run_all if args.workload == "all" else partial(run, args.workload)
        print(json.dumps(runner(args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
