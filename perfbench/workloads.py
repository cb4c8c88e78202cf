"""The benchmark's workloads: fixed discriminants and invariants, seeded primes.

A case is one user-facing call.  Curve cases find admissible (p, u, v) of the
stated size with ``arith.search_fixed_D`` and then run ``gen_curve`` on the
stated path; the ``classpoly`` case runs ``class_poly_divisor`` alone.  The
discriminants and invariants define a workload and never change with the
seed; the seed only picks the primes and the ``gen_curve`` seed.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Case(NamedTuple):
    D: int
    invariant: str
    path: str          # "divisor", "full", "auto", or "classpoly"
    p_bits: int        # 0 for the classpoly case, which needs no prime
    h: int             # class number of D
    t: int             # number of prime discriminants dividing D

    @property
    def m(self):
        return 1 << (self.t - 1)


WORKLOADS = {
    # theta evaluation and root finding dominate; the plan layers are small
    "divisor-large-h": (
        Case(-9911, "j", "divisor", 256, 136, 3),
    ),
    # genus-field setup, CF runs and recovery dominate; t = 2, 3, 4 and four
    # invariants, doubleeta being the one with non-real coefficients.  Not one
    # of BENCHMARK.json's workloads: its Fraction-heavy passes slow down most
    # under a shared host's slow phases, and ten 30-second runs spread by up
    # to 0.31 of their median.  selftest.py uses it; run it by hand for the
    # plan layers' per-case rows.
    "divisor-many-genera": (
        Case(-420, "j", "divisor", 128, 8, 4),
        Case(-420, "weber", "divisor", 128, 8, 4),
        Case(-1239, "j", "divisor", 128, 32, 3),
        Case(-791, "gamma2", "divisor", 128, 32, 2),
        Case(-3135, "doubleeta:5,7", "classpoly", 0, 40, 4),
    ),
    # the classic full H_D: h evaluations at coefficient-size precision
    "full-path": (
        Case(-2519, "j", "full", 128, 64, 2),
        Case(-5460, "j", "full", 128, 16, 5),
    ),
    # one discriminant, several primes: the only work shared between cases
    "same-disc-many-primes": (Case(-2519, "j", "auto", 128, 64, 2),) * 4,
}


def case_rng(seed, pass_no, index):
    """The generator that picks case ``index``'s prime in pass ``pass_no``."""
    return random.Random(f"cmforge-bench:{seed}:{pass_no}:{index}")
