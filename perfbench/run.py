"""The cmforge benchmark: checked, timed passes over fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
The loop is closed: one caller, one case at a time.  Every pass over a
workload's case list runs in a fresh interpreter (worker.py), so a cache
inside the program can help only where the cases of one pass share work,
never by replaying an earlier pass.  Passes repeat until S seconds are spent,
pass i drawing its primes from (N, i), and every output is checked (check.py)
before it counts.

--trace 0 reports the end-to-end metrics, each a median over the run: pass_s,
the wall time of a pass; setup_s, the wall time of a fresh interpreter that
imports cmforge.cli and every cmforge module; and peak_rss_mb, the peak
resident memory of a pass process.  The fastest pass is printed beside
pass_s, and so is the share of failed cases, which is failed/attempted in
the result.

--trace 1 runs each pass twice, plain and with spans around the layer
functions (tracer.py), and reports the per-layer metrics, the tracing
overhead, and one row per case.  The last line of stdout is the JSON result;
the exit code is 1 when a case failed.  --workload all runs every workload in
turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import case_check_rng, check_case, load_reference
from tracer import layer_metrics, combine_passes
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPS = 9
PASS_TIMEOUT_S = 150

_SETUP_CODE = (
    "import importlib, pkgutil, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cmforge, cmforge.cli\n"
    "for m in pkgutil.iter_modules(cmforge.__path__):\n"
    "    importlib.import_module('cmforge.' + m.name)\n"
)


class BenchError(Exception):
    pass


def python(*args):
    # -E -s: the checkout's src/, not an installed cmforge or PYTHONPATH
    return [sys.executable, "-E", "-s", *args]


def measure_setup():
    t0 = time.perf_counter()
    proc = subprocess.run(python("-c", _SETUP_CODE, str(SRC)), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"importing cmforge failed:\n{proc.stderr[-2000:]}")
    return elapsed


def run_pass(workload, seed, pass_no, traced):
    cmd = python(str(HERE / "worker.py"), str(ROOT), workload, str(seed),
                 str(pass_no), "1" if traced else "0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {pass_no} of {workload} ran over {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass {pass_no} of {workload} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["missing"]:
        print(f"warning: not traced, missing from cmforge: {res['missing']}", file=sys.stderr)
    return res


def environment():
    import mpmath
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}


def case_rows(workload, res):
    """One row per case of a traced pass, comparable with the ROADMAP Baseline."""
    rows = []
    for i, (case, out) in enumerate(zip(WORKLOADS[workload], res["outputs"])):
        spans = [s for s in res["spans"] if s["case"] == i]
        layers = layer_metrics(spans)
        root = next(s for s in spans if s["name"] == "case")
        rows.append({"case": i, "D": case.D, "invariant": case.invariant,
                     "path": out.get("path", case.path), "p_bits": case.p_bits,
                     "h": case.h, "t": case.t, "m": case.m,
                     "float_bits": layers["recover.float_bits"] or None,
                     "theta_calls": layers["modfns.theta_calls"],
                     "imag_useful_frac": layers["recover.imag_useful_frac"],
                     "case_s": root["t1"] - root["t0"],
                     **{k: v for k, v in layers.items() if k.endswith("_s")}})
    return rows


def measure(workload, seed, seconds, traced):
    """Run passes for `seconds`; returns (attempted, failed, metrics)."""
    deadline = time.perf_counter() + seconds
    setup = [measure_setup() for _ in range(SETUP_REPS)]
    reference = load_reference()
    cases = WORKLOADS[workload]
    plain, spanned = [], []
    attempted = failed = 0
    pass_no = 0
    while True:
        started = time.perf_counter()
        runs = [run_pass(workload, seed, pass_no, False)]
        if traced:
            runs.append(run_pass(workload, seed, pass_no, True))
        for res in runs:
            for i, (case, out) in enumerate(zip(cases, res["outputs"])):
                problem = check_case(case, out, case_check_rng(seed, pass_no, i), reference)
                attempted += 1
                if problem:
                    failed += 1
                    print(f"FAIL pass {pass_no} case {i} (D={case.D} {case.invariant} "
                          f"{case.path}): {problem}", file=sys.stderr)
        plain.append(runs[0])
        if traced:
            spanned.append(runs[1])
        pass_no += 1
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break

    pass_s = statistics.median(r["pass_s"] for r in plain)
    fail_frac = failed / attempted
    print(f"{workload}: pass_s {pass_s:.4f} s (median of {len(plain)} passes, fastest "
          f"{min(r['pass_s'] for r in plain):.4f} s), "
          f"setup_s {statistics.median(setup):.4f} s, "
          f"peak_rss_mb {statistics.median(r['peak_rss_mb'] for r in plain):.2f} MB, "
          f"fail_frac {fail_frac:.4f} ({failed}/{attempted})")
    if not traced:
        return attempted, failed, {
            "pass_s": pass_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    metrics = combine_passes([layer_metrics(r["spans"]) for r in spanned])
    metrics["trace.overhead_s"] = statistics.median(
        t["pass_s"] - p["pass_s"] for p, t in zip(plain, spanned))
    rows = case_rows(workload, spanned[0])
    for row in rows:
        print("case " + json.dumps(row))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps({
        "environment": environment(), "workload": workload, "seed": seed,
        "rows": rows, "passes": [{"pass": i, "pass_s": r["pass_s"], "spans": r["spans"]}
                                 for i, r in enumerate(spanned)]}))
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cmforge" / "__init__.py").is_file():
        sys.exit(f"error: no cmforge sources under {SRC}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    print("env " + json.dumps(environment()))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            tried, bad, got = measure(name, args.seed, args.seconds, args.trace)
            if set(got) != set(units):
                raise BenchError(f"metrics {sorted(got)} do not match "
                                 f"BENCHMARK.json {sorted(units)}")
            attempted, failed = attempted + tried, failed + bad
            # with several workloads, each metric is named <workload>/<metric>
            prefix = f"{name}/" if len(names) > 1 else ""
            metrics.update({prefix + k: (v, units[k]) for k, v in got.items()})
    except BenchError as exc:
        sys.exit(f"error: {exc}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
