"""Tests for the parallel continued-fraction approximation loop."""

import math


import pytest
from mpmath import mp

from cmforge.approx import ApproxRun, CFRegister, approx_quality, cf_step, \
    make_register, run_approx
from cmforge.arith import Discriminant
from cmforge.classpoly import class_poly_divisor
from cmforge.errors import InvalidParameters
from cmforge.genusfield import IMAG_PART, REAL_PART, build_basis, build_mpair, \
    delta_g
from test_genusfield import sigma_ref

BITS = 192


def setup(D):
    d = Discriminant.from_D(D)
    basis = build_basis(d)
    return d, basis, build_mpair(basis)


def sigma_g(delta, prec=BITS):
    # image of g under the nontrivial automorphism of Q(sqrt(delta))
    with mp.workprec(prec):
        s = mp.sqrt(delta)
        return +((1 - s) / 2 if delta % 4 else -s / 2)


def convergent(quots):
    """(P_{n-1}, Q_{n-1}, Q_{n-2}) of the continued fraction whose partial
    quotients so far are quots, from (P_{-1}, Q_{-1}) = (1, 0) and
    (P_{-2}, Q_{-2}) = (0, 1)."""
    P, P_prev, Q, Q_prev = 1, 0, 0, 1
    for a in quots:
        P, P_prev = a * P + P_prev, P
        Q, Q_prev = a * Q + Q_prev, Q
    return P, Q, Q_prev


def quotients_by_register(rows):
    """Partial quotients of each register, from a run's trace rows."""
    out = {}
    for row in rows:
        out.setdefault(row["lam"], []).append(row["a"])
    return out


def norm_check(reg, quots):
    """Exact integer check of N(P_{n-1} - Q_{n-1} g) = (-1)^n * y_n."""
    assert len(quots) == reg.n
    P, Q, _ = convergent(quots)
    if reg.delta % 4:
        val = P * P - P * Q + Q * Q * (1 - reg.delta) // 4
    else:
        val = P * P - Q * Q * (reg.delta // 4)
    assert val == (-1) ** reg.n * reg.y


def range_checks(reg):
    """Exact integer versions of the reduced-irrational bounds for n >= 1."""
    x, y, delta = reg.x, reg.y, reg.delta
    if delta % 4:
        assert (2 * x + 1) ** 2 < delta
        # -1 < sigma(X) < 0 where sigma(X) = (2x+1-sqrt(delta))/(2y)
        assert delta < (2 * x + 1 + 2 * y) ** 2
        # X < sqrt(delta)  (complete quotients are bounded)
        assert (2 * x + 1) ** 2 < (2 * y - 1) ** 2 * delta
    else:
        assert 4 * x * x < delta
        assert delta < 4 * (x + y) ** 2
        assert (2 * x) ** 2 < (2 * y - 1) ** 2 * delta
    assert 1 <= y and y * y < delta


def test_register_init_golden_ratio():
    d, basis, mpair = setup(-40)
    reg = make_register(d, 1, BITS)
    assert reg.delta == 5
    assert (reg.x, reg.y, reg.y_prev) == (0, 1, 1)
    assert reg.n == 0
    with mp.workprec(BITS):
        assert reg.z == 1
        assert abs(reg.g_real - (1 + mp.sqrt(5)) / 2) < mp.mpf(2) ** -180


def test_golden_ratio_partial_quotients():
    # g = (1+sqrt(5))/2 has continued fraction [1; 1, 1, ...] and the
    # (x, y) registers stay pinned at (0, 1)
    d, basis, mpair = setup(-40)
    reg = make_register(d, 1, BITS)
    fib = [1, 1]
    for _ in range(40):
        fib.append(fib[-1] + fib[-2])
    quots = []
    for n in range(1, 31):
        quots.append(cf_step(reg, BITS))
        assert quots[-1] == 1
        assert (reg.x, reg.y) == (0, 1)
        norm_check(reg, quots)
        range_checks(reg)
        # convergents of phi are ratios of consecutive Fibonacci numbers
        assert convergent(quots)[:2] == (fib[n], fib[n - 1])


def test_sqrt3_register_period():
    # for d = -84 the label (1,0) gives delta = (-3)(-4) = 12, g = sqrt(3),
    # whose continued fraction is [1; 1, 2, 1, 2, ...]
    d, basis, mpair = setup(-84)
    delta, g = delta_g(d, 1)
    assert delta == 12
    reg = make_register(d, 1, BITS)
    quots = [cf_step(reg, BITS) for _ in range(9)]
    assert quots == [1, 1, 2, 1, 2, 1, 2, 1, 2]


def test_partial_quotients_match_sympy():
    import sympy

    cases = [(-40, 1), (-84, 1), (-84, 2), (-84, 3), (-120, 1), (-120, 2),
             (-120, 3), (-420, 5), (-420, 7), (-231, 1), (-231, 3)]
    for D, lam in cases:
        d = Discriminant.from_D(D)
        delta, g = delta_g(d, lam)
        if delta % 4:
            expr = (1 + sympy.sqrt(delta)) / 2
        else:
            expr = sympy.sqrt(delta) / 2
        it = sympy.continued_fraction_iterator(expr)
        expected = [int(next(it)) for _ in range(25)]
        reg = make_register(d, lam, BITS)
        got = [cf_step(reg, BITS) for _ in range(25)]
        assert got == expected, (D, lam, delta)


def test_norm_identity_and_ranges_many_steps():
    for D in (-40, -84, -120, -420, -231, -455):
        d = Discriminant.from_D(D)
        for lam in range(1, d.m):
            reg = make_register(d, lam, BITS)
            quots = []
            norm_check(reg, quots)  # n = 0: N(1) = 1 = (-1)^0 * y
            for _ in range(30):
                quots.append(cf_step(reg, BITS))
                norm_check(reg, quots)
                range_checks(reg)


def test_z_shadow_tracks_exact_value():
    # z_n = |P_{n-1} - Q_{n-1} g| exactly; the float shadow must agree
    d, basis, mpair = setup(-420)
    for lam in (1, 2, 5):
        reg = make_register(d, lam, 512)
        P, Q, _ = convergent([cf_step(reg, 512) for _ in range(60)])
        extra = 512 + Q.bit_length() + 64
        with mp.workprec(extra):
            g = mp.mpf(reg.delta % 4)
            exact = abs(P - Q * (g + mp.sqrt(reg.delta)) / 2)
            assert abs(reg.z - exact) < abs(exact) * mp.mpf(2) ** -440


def test_convergents_approximate_g():
    d, basis, mpair = setup(-84)
    reg = make_register(d, 3, BITS)
    quots = []
    for n in range(1, 25):
        quots.append(cf_step(reg, BITS))
        P, Q, Q_prev = convergent(quots)
        # |g - P/Q| < 1/(Q * Q_next) with Q_next >= Q + Q_prev
        if Q and Q_prev:
            with mp.workprec(BITS):
                err = abs(reg.g_real - mp.mpf(P) / Q)
                assert err < mp.mpf(1) / (Q * (Q + Q_prev))
        # Q_n >= 2^((n-1)/2)
        assert Q ** 2 >= 2 ** (reg.n - 2)


def test_run_golden_gives_fibonacci_vector():
    d, basis, mpair = setup(-40)
    run = run_approx(mpair, REAL_PART, N0=10 ** 3)
    assert run.A == [1597, -610]   # (F_17, -F_15)
    assert run.iters == 15
    q = approx_quality(run)
    assert q["ok"]
    with mp.workprec(run.bits):
        om1 = sigma_ref(mpair.omegas[REAL_PART][1], 0, run.bits).real
        assert abs(mp.mpf(run.A[1]) / run.A[0] - om1) < mp.mpf(1) / run.A[0] ** 2


def test_run_invariants_every_iteration():
    for D, side in [(-40, REAL_PART), (-84, REAL_PART), (-84, IMAG_PART),
                    (-420, REAL_PART)]:
        d, basis, mpair = setup(D)
        run = ApproxRun(mpair, side, N0=10 ** 6)
        rows = []
        while not run.done():
            rows.append(run.step())
            q = approx_quality(run)
            assert q["ok"], (D, side, run.iters, q)
            # the advanced register obeys the norm identity exactly
            lam = rows[-1]["lam"]
            norm_check(run.regs[lam], quotients_by_register(rows)[lam])
            # all touched registers stay balanced: max z / min z <= sqrt(|d|)
            zs = [reg.z for reg in run.regs.values()]
            with mp.workprec(run.bits):
                ratio = max(zs) / min(zs)
                assert ratio <= mp.sqrt(abs(D)) * (1 + mp.mpf(2) ** -80)
        assert abs(run.A[0]) >= 10 ** 6
        assert run.iters <= run.iter_cap


def test_product_identity_after_run():
    for D in (-40, -84, -420):
        d, basis, mpair = setup(D)
        rows = []
        run = run_approx(mpair, REAL_PART, N0=10 ** 5, trace=rows.append)
        quots = quotients_by_register(rows)
        with mp.workprec(run.bits):
            lhs = run.z_value()
            rhs = mp.mpf(1)
            for lam, reg in run.regs.items():
                P, Q, _ = convergent(quots.get(lam, []))
                rhs *= P - Q * sigma_g(reg.delta, run.bits)
            assert abs(lhs - rhs) < abs(lhs) * mp.mpf(2) ** (-run.bits // 2)
            assert lhs >= 1


def test_z_lower_bound_from_step_counts():
    for D in (-84, -420):
        d, basis, mpair = setup(D)
        run = run_approx(mpair, REAL_PART, N0=10 ** 5)
        total = sum(reg.n for reg in run.regs.values())
        assert total == run.iters
        with mp.workprec(run.bits):
            Z = run.z_value()
            assert Z >= mp.mpf(2) ** ((total - (run.m - 1)) / 2)


def finalapprox_constants(mpair, bits=BITS):
    """C and C_i of the simultaneous-approximation error bound."""
    m = mpair.basis.m
    omega = mpair.omegas[REAL_PART]
    with mp.workprec(bits):
        mvals = [sigma_ref(v, 0, bits).real for v in mpair.mvals]
        om = [sigma_ref(w, 0, bits).real for w in omega]
        C = sum(abs(mvals[lam]) for lam in range(1, m))  # tau(omega_0) = 1
        Cs = {}
        for i in range(1, m):
            acc = mp.mpf(0)
            for lam in range(1, m):
                ti = sigma_ref(omega[i], lam, bits).real
                acc += abs(mvals[lam] * (ti - om[i]))
            Cs[i] = +acc
        return +C, Cs, mvals, om


def test_error_bound_m2():
    d, basis, mpair = setup(-40)
    run = run_approx(mpair, REAL_PART, N0=10 ** 4)
    C, Cs, mvals, om = finalapprox_constants(mpair, run.bits)
    with mp.workprec(run.bits):
        Delta = mp.sqrt(abs(basis.d)) ** run.m
        Z = run.z_value()
        A0 = abs(run.A[0])
        assert A0 >= abs(mvals[0]) * Z - C * Delta - mp.mpf(2) ** -100
        assert A0 > C * Delta
        bound = Cs[1] * Delta / (A0 * (A0 - C * Delta) / abs(mvals[0]))
        assert abs(mp.mpf(run.A[1]) / run.A[0] - om[1]) <= bound


def test_error_bound_all_coords():
    d, basis, mpair = setup(-84)
    run = run_approx(mpair, REAL_PART, N0=10 ** 6)
    C, Cs, mvals, om = finalapprox_constants(mpair, run.bits)
    with mp.workprec(run.bits):
        Delta = mp.sqrt(abs(basis.d)) ** run.m
        A0 = abs(run.A[0])
        assert A0 > C * Delta
        zfac = mp.root((A0 - C * Delta) / abs(mvals[0]), run.m - 1)
        for i in range(1, run.m):
            err = abs(mp.mpf(run.A[i]) / run.A[0] - om[i])
            assert err <= Cs[i] * Delta / (A0 * zfac), i


def test_conj_values_resolve_the_bound():
    # at N0 = 2^1015 the terms A_mu tau_lam(omega_star_mu) are near 2^1015
    # and cancel to below 2^-300; compare with a 4000-bit evaluation
    d, basis, mpair = setup(-1239)
    run = run_approx(mpair, REAL_PART, N0=2 ** 1015)
    got = run.conj_values()
    bound = run.conj_bound()
    assert bound < mp.mpf(2) ** -300
    with mp.workprec(4000):
        for lam in run.lam_order:
            want = sum(a * sigma_ref(w, lam, 4000).real
                       for a, w in zip(run.A, mpair.omega_star(REAL_PART)))
            assert abs(got[lam] - want) < bound * mp.mpf(2) ** -60
            assert abs(want) <= bound
    assert approx_quality(run)["ok"]


def test_quality_at_the_plan_threshold_minus5460():
    # the -5460 j plan's N0 has 6622 bits; its run's conjugates must be
    # checked at more than the run's own 6814 bits to see them below the bound
    run = class_poly_divisor(-5460, route="paper").plan.sides[REAL_PART].run
    assert run.N0.bit_length() == 6622
    q = approx_quality(run)
    assert q["conj_ok"] and q["ok"]


def test_trivial_field_never_iterates():
    for D in (-3, -4, -8):
        d, basis, mpair = setup(D)
        run = run_approx(mpair, REAL_PART, N0=10 ** 6)
        assert run.A == [1]
        assert run.iters == 0
        q = approx_quality(run)
        assert q["ok"] and q["Z"] == 1


def test_bad_threshold_rejected():
    d, basis, mpair = setup(-40)
    with pytest.raises(InvalidParameters):
        ApproxRun(mpair, REAL_PART, N0=0)


def test_determinism_and_explicit_tensor():
    d, basis, mpair = setup(-120)
    r1 = run_approx(mpair, REAL_PART, N0=10 ** 4)
    r2 = run_approx(mpair, REAL_PART, N0=10 ** 4)
    assert r1.A == r2.A
    assert r1.iters == r2.iters


def test_trace_callback_rows():
    d, basis, mpair = setup(-84)
    rows = []
    run = run_approx(mpair, REAL_PART, N0=10 ** 3, trace=rows.append)
    assert len(rows) == run.iters
    assert rows[-1]["A"] == run.A
    for k, row in enumerate(rows):
        assert row["iter"] == k + 1
        assert row["lam"] in run.lam_order
        assert row["a"] >= 1
        assert row["Z"] >= 1


def test_selection_prefers_lex_smallest_on_tie():
    # at iteration 0 all z are 1... no wait, z starts at 1 for every register,
    # so the very first pick must be the lexicographically smallest label
    d, basis, mpair = setup(-420)
    run = ApproxRun(mpair, REAL_PART, N0=10 ** 2)
    first = run.select()
    assert first == run.lam_order[0]
    # label tuples are compared bit-by-bit from lambda_1
    t = basis.t
    tuples = [tuple((mk >> j) & 1 for j in range(t - 1)) for mk in run.lam_order]
    assert tuples == sorted(tuples)


def test_larger_threshold_reuses_prefix():
    # the run is a deterministic state machine, so a bigger N0 extends the
    # smaller run's trajectory
    d, basis, mpair = setup(-84)
    small = run_approx(mpair, REAL_PART, N0=10 ** 2)
    rows = []
    big = run_approx(mpair, REAL_PART, N0=10 ** 5, trace=rows.append)
    assert rows[small.iters - 1]["A"] == small.A
    assert big.iters > small.iters
