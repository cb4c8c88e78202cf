"""Self-test of the benchmark itself: python3 perfbench/selftest.py

Shows that the checker rejects a wrong curve (the quadratic twist of a right
one, or the right curve with the other trace) and a perturbed divisor
coefficient; that another seed changes the primes but not the discriminants;
and that the count metrics of two traced passes with one seed are identical.
Exits with 1 and names the failed property otherwise.
"""

from __future__ import annotations

import copy
import sys

from check import case_check_rng, check_case, is_square, load_reference
from run import run_pass
from tracer import COUNTS, layer_metrics
from workloads import WORKLOADS

WORKLOAD = "divisor-many-genera"


def main():
    cases = WORKLOADS[WORKLOAD]
    reference = load_reference()
    first = run_pass(WORKLOAD, 1, 0, True)
    again = run_pass(WORKLOAD, 1, 0, True)
    other = run_pass(WORKLOAD, 2, 0, False)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    def verdict(i, out):
        return check_case(cases[i], out, case_check_rng(1, 0, i), reference)

    for i, out in enumerate(first["outputs"]):
        expect(verdict(i, out) is None, f"case {i} (D={cases[i].D}) passes the checker")

    curve_i = next(i for i, c in enumerate(cases) if c.path != "classpoly")
    good = first["outputs"][curve_i]
    p = good["p"]
    c = 2
    while is_square(c, p):
        c += 1
    twist = dict(good, a=good["a"] * c * c % p, b=good["b"] * c ** 3 % p)
    expect(verdict(curve_i, twist) is not None, "the checker rejects the quadratic twist")
    swapped = dict(good, u=-good["u"], order=p + 1 + good["u"])
    expect(verdict(curve_i, swapped) is not None, "the checker rejects the other trace")

    div_i = next(i for i, c in enumerate(cases) if c.path == "classpoly")
    bad = copy.deepcopy(first["outputs"][div_i])
    coeff = bad["divisor"]["coeffs"][0]
    mask, frac = next(iter(coeff.items()))
    num, den = frac.split("/")
    coeff[mask] = f"{int(num) + 1}/{den}"
    expect(verdict(div_i, bad) is not None, "the checker rejects a perturbed divisor coefficient")

    ds = [o.get("D", o.get("divisor", {}).get("D")) for o in first["outputs"]]
    ds_other = [o.get("D", o.get("divisor", {}).get("D")) for o in other["outputs"]]
    expect(ds == ds_other == [c.D for c in cases], "another seed keeps the discriminants")
    primes = [o["p"] for o in first["outputs"] if "p" in o]
    primes_other = [o["p"] for o in other["outputs"] if "p" in o]
    expect(all(a != b for a, b in zip(primes, primes_other)), "another seed changes every prime")

    m1, m2 = layer_metrics(first["spans"]), layer_metrics(again["spans"])
    expect(all(m1[k] == m2[k] for k in COUNTS), "counts repeat exactly for one seed")
    expect(m1["recover.imag_useful_frac"] > 0, "the doubleeta case makes imaginary recovery useful")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
