"""One pass over a workload's cases, in a fresh interpreter.

    python3 worker.py ROOT WORKLOAD SEED PASS TRACE

Imports cmforge from ROOT/src, runs every case of WORKLOAD with the primes
that SEED and PASS pick, and prints one JSON line: the pass's wall time, the
process's peak resident memory, each case's output (or its exception), and,
when TRACE is 1, the spans of every wrapped layer call.  Checking the outputs
is left to the parent, which does not import cmforge.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, case_rng


def run_case(case, rng, cm):
    """One case through the public API of the cmforge package ``cm``."""
    kind = cm.modfns.InvariantKind.parse(case.invariant)
    if case.path == "classpoly":
        return {"divisor": cm.classpoly.class_poly_divisor(case.D, kind).to_json()}
    prm = cm.arith.search_fixed_D(case.D, p_bits=case.p_bits, rng=rng)
    if prm is None:
        raise RuntimeError(f"no {case.p_bits}-bit prime found for D={case.D}")
    res = cm.curve.gen_curve(case.D, prm.p, prm.u, prm.v, kind=kind, path=case.path,
                          seed=rng.randrange(1 << 32))
    tr = res["transcript"]
    return {"D": case.D, "p": prm.p, "u": prm.u, "v": prm.v, "a": res["curve"].a,
            "b": res["curve"].b, "order": res["order"], "path": tr["path"],
            "degree": tr["degree"], "float_bits": tr.get("float_bits")}


def main():
    root, workload, seed, pass_no, traced = sys.argv[1:6]
    seed, pass_no, traced = int(seed), int(pass_no), traced == "1"
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import cmforge
    if Path(cmforge.__file__).resolve().parent != src / "cmforge":
        sys.exit(f"cmforge imported from {cmforge.__file__}, not from {src}")
    import cmforge.cli  # noqa: F401  (loads every layer module, as the CLI does)

    tracer = Tracer() if traced else None
    missing = tracer.install() if tracer else []
    cases = WORKLOADS[workload]
    outputs = []
    t0 = time.perf_counter()
    for i, case in enumerate(cases):
        rng = case_rng(seed, pass_no, i)
        if tracer:
            tracer.case = i
        try:
            with tracer.span("case") if tracer else contextlib.nullcontext():
                outputs.append(run_case(case, rng, cmforge))
        except Exception as exc:  # a failing case is counted, not fatal
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
    pass_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"pass_s": pass_s, "peak_rss_mb": rss_mb, "outputs": outputs,
                      "spans": tracer.spans if tracer else None, "missing": missing}))


if __name__ == "__main__":
    main()
