"""Acceptance suite: one test per criterion, each printing a single
pass/fail line with its measured time against the stated budget.

Tolerances: polynomial and basis identities are exact (integer/rational
equality, zero tolerance); approximation bounds carry a 2^-80 float slack on
the irrational side only; recovery is exact equality of integer vectors.
Budgets are wall-clock upper bounds asserted inside each test.
"""

import random
import time
from itertools import product

from mpmath import mp

from cmforge.approx import ApproxRun, approx_quality
from cmforge.arith import Discriminant, search_fixed_D, split_discriminant
from cmforge.classpoly import class_poly_divisor, class_poly_full, \
    coset_product_check
from cmforge.curve import gen_curve, naive_count, random_point, scalar_mul
from cmforge.genusfield import (IMAG_PART, REAL_PART, build_basis,
                                build_mpair, gf_rational)
from cmforge.modfns import InvariantKind
from cmforge.recover import make_plan, recover_coords
from test_genusfield import duality_sum, sigma_ref

J = InvariantKind.j()


def report(num, elapsed, budget, detail):
    line = f"PASS criterion {num}: {detail}"
    if budget is not None:
        line += f" ({elapsed:.2f}s < {budget}s)"
    print(line, flush=True)


def test_criterion_1_hilbert_minus40():
    """class_poly_full(-40, j) exact; < 1 s."""
    t = time.perf_counter()
    poly = class_poly_full(-40, J)
    dt = time.perf_counter() - t
    assert poly.coeffs == (9103145472000, -425692800, 1)
    assert dt < 1.0, f"criterion 1 took {dt:.2f}s (budget 1s)"
    report(1, dt, 1, "H_-40[j] = x^2 - 425692800x + 9103145472000 exactly")


def test_criterion_2_other_invariants_minus40():
    """gamma2, Weber g, double-eta 5,7 and 11,13 at D=-40, exact; < 1 s each."""
    cases = [
        (InvariantKind("gamma2"), ((20880, -780, 1),)),
        (InvariantKind("weber"), ((-1, -1, 1),)),
        (InvariantKind.double_eta(5, 7), ((-1, -1, 1),)),
        (InvariantKind.double_eta(11, 13), ((1, 2, 1), (1, -2, 1))),
    ]
    worst = 0.0
    for kind, allowed in cases:
        t = time.perf_counter()
        poly = class_poly_full(-40, kind)
        dt = time.perf_counter() - t
        assert poly.coeffs in allowed, f"{kind}: got {poly.coeffs}"
        assert dt < 1.0, f"criterion 2 ({kind}) took {dt:.2f}s (budget 1s)"
        worst = max(worst, dt)
    report(2, worst, 1, "H_-40 for gamma2 / weber / dbleta(5,7) / dbleta(11,13) exact")


def test_criterion_3_degenerate_discriminants():
    """H_-3[j] = x and H_-4[j] = x - 1728, exact."""
    assert class_poly_full(-3, J).coeffs == (0, 1)
    assert class_poly_full(-4, J).coeffs == (-1728, 1)
    report(3, 0, None, "H_-3[j] = x and H_-4[j] = x - 1728 exactly")


def test_criterion_4_coset_product_equivalence():
    """Exact product of genus divisors over all cosets = full H; < 30 s each."""
    worst = 0.0
    for D in (-40, -84, -120, -420):
        t = time.perf_counter()
        full, div = class_poly_full(D, J), class_poly_divisor(D, J)
        assert coset_product_check(full, div), f"coset product mismatch at D={D}"
        dt = time.perf_counter() - t
        assert dt < 30.0, f"criterion 4 (D={D}) took {dt:.2f}s (budget 30s)"
        worst = max(worst, dt)
    report(4, worst, 30,
           "divisor products rebuild H_D exactly for D in {-40,-84,-120,-420}")


def test_criterion_5_integral_basis_identities():
    """Duality sum and dual-system identity, exact, all fundamental |d| <= 500
    and all index pairs; < 60 s total."""
    t = time.perf_counter()
    count = 0
    for n in range(3, 501):
        D = -n
        if D % 4 not in (0, 1):
            continue
        d0, f = split_discriminant(D)
        if f != 1:
            continue
        basis = build_basis(Discriminant.from_D(D))
        zero = gf_rational(basis.qstars, 0)
        for eta, nu in product(range(basis.m), repeat=2):
            got = duality_sum(basis, eta, nu)
            want = basis.sqrt_d if eta == nu else zero
            assert got == want, f"duality_sum failed at d={D}, ({eta},{nu})"
        # build_mpair verifies the dual-system identity exactly for every
        # (lam, lam') pair and raises when any fails; the IMAG_PART
        # orientation's identities are the same ones transposed
        build_mpair(basis)
        count += 1
    dt = time.perf_counter() - t
    assert dt < 60.0, f"criterion 5 took {dt:.2f}s (budget 60s)"
    report(5, dt, 60, f"duality identities exact for all {count} fundamental |d| <= 500")


def _range_checks(reg):
    x, y, delta = reg.x, reg.y, reg.delta
    if delta % 4:
        assert (2 * x + 1) ** 2 < delta
        assert delta < (2 * x + 1 + 2 * y) ** 2
        assert (2 * x + 1) ** 2 < (2 * y - 1) ** 2 * delta
    else:
        assert 4 * x * x < delta
        assert delta < 4 * (x + y) ** 2
        assert (2 * x) ** 2 < (2 * y - 1) ** 2 * delta
    assert 1 <= y and y * y < delta


def test_criterion_6_approximation_invariants():
    """Z >= 1, conjugate bound, x/y ranges at every iteration, and the
    iteration cap 8(m-1)log2(N0) + 64, for d in {-40, -84, -420}, N0 = 1e6."""
    N0 = 10 ** 6
    t = time.perf_counter()
    for D in (-40, -84, -420):
        d = Discriminant.from_D(D)
        mpair = build_mpair(build_basis(d))
        run = ApproxRun(mpair, REAL_PART, N0=N0)
        while not run.done():
            run.step()
            for reg in run.regs.values():
                if reg.n:
                    _range_checks(reg)
            q = approx_quality(run)
            assert q["Z_ok"] and q["conj_ok"], \
                f"bound violated at D={D} iter {run.iters}: {q}"
        cap = 8 * (d.m - 1) * N0.bit_length() + 64
        assert run.iters <= cap, f"D={D}: {run.iters} iterations > cap {cap}"
    dt = time.perf_counter() - t
    report(6, dt, None,
           "four bounds hold at every iteration for d in {-40,-84,-420}, N0=1e6")


def test_criterion_7_recovery_round_trip():
    """200 in-ball integer vectors per side per d in {-40, -84}, perturbed by
    < epsilon, recovered exactly; < 120 s."""
    t = time.perf_counter()
    trials = 200
    # j's coefficients are real, so its divisor's plan has no imaginary side;
    # the plan over that plan's M-pair and T0 with both sides adds it
    for D in (-40, -84):
        j = class_poly_divisor(D, J, route="paper").plan
        plan = make_plan(j.sides[REAL_PART].run.mpair, (REAL_PART, IMAG_PART), j.T0)
        basis = plan.basis
        m = basis.m
        rng = random.Random(-D)
        prec = plan.float_bits + 16
        for trial in range(trials):
            b = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)]
            bp = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)]
            with mp.workprec(160):
                for lam in range(m):     # T0-ball membership, all conjugates
                    vr = sum(c * sigma_ref(e, lam, 160)
                             for c, e in zip(b, basis.beta))
                    vi = sum(c * sigma_ref(e, lam, 160)
                             for c, e in zip(bp, basis.beta_star))
                    assert abs(vr) <= mp.mpf(plan.T0)
                    assert abs(vi) <= mp.mpf(plan.T0)
            with mp.workprec(prec):
                shift = mp.mpf(plan.epsilon) * (2 * rng.random() - 1) * mp.mpf("0.99")
                g_re = +(sum(c * sigma_ref(e, 0, prec)
                             for c, e in zip(b, basis.beta)) + shift)
                g_im = +(sum(c * sigma_ref(e, 0, prec)
                             for c, e in zip(bp, basis.beta_star)) + mp.mpc(0, shift))
            assert recover_coords(g_re, plan, REAL_PART) == b
            assert recover_coords(g_im, plan, IMAG_PART) == bp
    dt = time.perf_counter() - t
    assert dt < 120.0, f"criterion 7 took {dt:.2f}s (budget 120s)"
    report(7, dt, 120, f"{trials} exact round-trips per side per d in {{-40,-84}}")


def test_criterion_8_end_to_end_small():
    """gen_curve examples with naive recount and path agreement; < 5 s each."""
    worst = 0.0
    for args, want in [((-40, 41, 2, 2), 40), ((-40, 41, -2, 2), 44),
                       ((-3, 13, 7, 1), 7), ((-4, 13, 6, 2), 8)]:
        t = time.perf_counter()
        res = gen_curve(*args)
        dt = time.perf_counter() - t
        assert res["order"] == want
        assert naive_count(res["curve"]) == want
        assert dt < 5.0, f"criterion 8 {args} took {dt:.2f}s (budget 5s)"
        worst = max(worst, dt)
    for args in [(-40, 41, 2, 2), (-3, 13, 7, 1), (-4, 13, 6, 2)]:
        t = time.perf_counter()
        a = gen_curve(*args, path="divisor")
        bb = gen_curve(*args, path="full")
        dt = time.perf_counter() - t
        assert a["order"] == bb["order"]
        assert dt < 5.0
        worst = max(worst, dt)
    report(8, worst, 5, "orders 40/44/7/8 confirmed by naive count, paths agree")


def test_criterion_9_64bit_scale():
    """Divisor-path gen_curve at D=-420 for a 64-bit prime, verified by
    target*P = infinity on 10 random points; < 10 min."""
    t = time.perf_counter()
    found = search_fixed_D(-420, p_bits=64, rng=random.Random(420))
    assert found is not None and found.p.bit_length() == 64
    res = gen_curve(-420, found.p, found.u, found.v, path="divisor", seed=420)
    assert res["transcript"]["path"] == "divisor"
    assert res["transcript"]["degree"] == 1    # h = 8 = m, so h/m = 1
    curve, order = res["curve"], res["order"]
    rng = random.Random(421)
    for _ in range(10):
        P = random_point(curve, rng)
        assert scalar_mul(order, P, curve) is None
    dt = time.perf_counter() - t
    assert dt < 600.0, f"criterion 9 took {dt:.2f}s (budget 600s)"
    report(9, dt, 600,
           f"order-{order} curve over 64-bit F_p at D=-420 via the divisor path")
