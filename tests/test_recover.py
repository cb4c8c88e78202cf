"""Tests for T0 bounds, recovery plans, and exact coefficient recovery."""

import functools
import hashlib
import random
from fractions import Fraction

import pytest
from mpmath import mp

from cmforge.errors import InternalInvariantError, InvalidParameters, \
    PrecisionEscalation
from cmforge import classpoly, genusfield
from cmforge.genusfield import IMAG_PART, REAL_PART, adjugate, build_basis, build_mpair
from cmforge.arith import Discriminant
from cmforge.classpoly import class_poly_divisor, coset_divisor, coset_labels, \
    genus_T0
from cmforge.forms import QuadForm, n_system, phi_class
from cmforge.modfns import InvariantKind, height_bound
from cmforge.recover import make_plan, recover_coords, recovery_matrix, \
    _solve_adjugate
from test_genusfield import sigma_ref
from test_golden import DIVISORS, digest

J = InvariantKind.j()
BOTH = (REAL_PART, IMAG_PART)


@functools.cache
def field_at(D):
    """D's M-pair and j's T0 at D, as the paper route builds them."""
    return build_mpair(build_basis(Discriminant.from_D(D))), _genus_T0_at(D, J)[0]


@functools.cache
def plan_for(D, sides=(REAL_PART,)):
    """The plan over D's field with j's T0 on ``sides``: the paper route's
    j plan on REAL_PART alone, and that plan plus the imaginary side on BOTH."""
    mpair, T0 = field_at(D)
    return make_plan(mpair, sides, T0)


def evaluate(coords, elems, prec, perturb=0):
    with mp.workprec(prec):
        val = sum(c * sigma_ref(e, 0, prec) for c, e in zip(coords, elems))
        return +(val + perturb)


def _genus_T0_at(D, kind):
    d = Discriminant.from_D(D)
    forms = n_system(D, 1)
    labels = [phi_class(f, d) for f in forms]
    return genus_T0(kind, forms, labels), labels


def test_coset_sums_examples():
    # h(-40) = 2 with forms (1,0,10) and (2,0,5) in distinct genera, so T0
    # is the larger form's 1 + B_f, padded once more for the product
    T0, labels = _genus_T0_at(-40, InvariantKind.j())
    assert len(set(labels)) == 2
    assert T0 == height_bound(InvariantKind.j(), [QuadForm(1, 0, 10)])
    # h(-3) = 1: one genus of the one form (1,1,1)
    T0, labels = _genus_T0_at(-3, InvariantKind.j())
    assert len(set(labels)) == 1
    assert T0 == height_bound(InvariantKind.j(), [QuadForm(1, 1, 1)])


def _check_T0_minus40(kind, c, b):
    T0, _ = _genus_T0_at(-40, kind)
    assert T0 == height_bound(kind, [QuadForm(1, 0, 10)])
    assert T0 == class_poly_divisor(-40, kind, route="paper").plan.T0
    # the genus divisors are x - theta_f, and theta at (1, 0, 10) is the
    # larger root of the full polynomial x^2 + b x + c
    with mp.workprec(96):
        big = (-b + mp.sqrt(b * b - 4 * c)) / 2
        assert big < T0 < big * (1 + mp.mpf(2) ** -6)


def test_t0_heuristic_j():
    _check_T0_minus40(InvariantKind.j(), 9103145472000, -425692800)


def test_t0_heuristic_gamma2():
    _check_T0_minus40(InvariantKind("gamma2"), 20880, -780)


def test_plan_degenerate_t1():
    plan = plan_for(-3, BOTH)
    assert plan.N0 == 1
    assert plan.sides[REAL_PART].run.A == [1] and plan.sides[IMAG_PART].run.A == [1]
    assert plan.epsilon < 0.25
    with mp.workprec(96):
        want = int(mp.ceil(mp.log(2 * mp.mpf(plan.T0) / plan.epsilon, 2))) + 64
    assert plan.float_bits == want


@pytest.mark.parametrize("D", [-40, -84, -120])
def test_plan_invariants_independent_check(D):
    plan = plan_for(D, BOTH)
    basis = plan.basis
    m = basis.m
    prec = 224
    with mp.workprec(prec):
        T_eff = 2 * mp.mpf(plan.T0)
        cap = mp.sqrt(abs(basis.d)) ** m
        for side, norm in ((REAL_PART, basis.beta[0]), (IMAG_PART, basis.beta_star[0])):
            run = plan.sides[side].run
            mpair = run.mpair
            Z = sum(a * sigma_ref(w, 0, prec).real
                    for a, w in zip(run.A, mpair.omega_star(side)))
            mid = abs(sigma_ref(mpair.mvals[0], 0, prec).real)
            for X in mpair.X_set:
                s = sum(abs(sigma_ref(mpair.mvals[lam], 0, prec).real)
                        * abs(sigma_ref(X, lam, prec))
                        / abs(sigma_ref(norm, lam, prec))
                        for lam in range(1, m))
                assert Z > (4 * s * cap * T_eff) ** (m - 1)
                eps_cap = abs(sigma_ref(norm, 0, prec)) \
                    / (4 * mid * abs(sigma_ref(X, 0, prec)) * Z)
                assert plan.epsilon < eps_cap


@pytest.mark.parametrize("D", [-40, -84, -120])
def test_round_trip_both_sides(D):
    plan = plan_for(D, BOTH)
    basis = plan.basis
    m = basis.m
    rng = random.Random(D)
    prec = plan.float_bits + 16
    for trial in range(40):
        b = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)]
        bp = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)]
        with mp.workprec(prec):
            shift = mp.mpf(plan.epsilon) * (2 * rng.random() - 1) * mp.mpf("0.99")
            g_re = evaluate(b, basis.beta, prec, shift)
            g_im = evaluate(bp, basis.beta_star, prec, mp.mpc(0, shift))
        assert recover_coords(g_re, plan, REAL_PART) == b
        assert recover_coords(g_im, plan, IMAG_PART) == bp


def test_round_trip_stays_within_t0():
    # the random vectors used above really do satisfy the conjugate bound
    plan = plan_for(-84)
    basis = plan.basis
    rng = random.Random(1)
    with mp.workprec(160):
        for _ in range(20):
            b = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(basis.m)]
            for lam in range(basis.m):
                v = sum(c * sigma_ref(e, lam, 160)
                        for c, e in zip(b, basis.beta))
                assert abs(v) <= mp.mpf(plan.T0)


def test_gamma_zero_gives_zero_vector():
    plan = plan_for(-84, BOTH)
    assert recover_coords(mp.mpf(0), plan, REAL_PART) == [0] * 4
    assert recover_coords(mp.mpf(0), plan, IMAG_PART) == [0] * 4


def test_t1_recovery_is_integer_rounding():
    plan = plan_for(-3, BOTH)
    assert recover_coords(mp.mpf(14), plan, REAL_PART) == [14]
    assert recover_coords(mp.mpf("13.93"), plan, REAL_PART) == [14]
    with mp.workprec(96):
        g = mp.mpc(0, 5 * mp.sqrt(3))   # 5 * sqrt(d), d = -3
        assert recover_coords(g, plan, IMAG_PART) == [5]


def test_bigger_n0_still_recovers():
    # the plan an escalation builds: T0 squared, and with it a larger N0
    base = plan_for(-40)
    plan = make_plan(field_at(-40)[0], (REAL_PART,), base.T0 ** 2)
    assert plan.N0 > base.N0 * 10 ** 6
    basis = plan.basis
    rng = random.Random(2)
    prec = plan.float_bits + 16
    for _ in range(10):
        b = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(basis.m)]
        g = evaluate(b, basis.beta, prec)
        assert recover_coords(g, plan, REAL_PART) == b


def test_wrong_side_value_escalates():
    plan = plan_for(-40)
    with pytest.raises(PrecisionEscalation):
        recover_coords(mp.mpc(1, 10), plan, REAL_PART)


def test_big_perturbation_escalates():
    # shifting gamma so that the eta = 0 row lands half way between
    # integers must trip the 0.25 residual guard
    plan = plan_for(-40)
    basis = plan.basis
    real = plan.sides[REAL_PART]
    prec = plan.float_bits + 16
    b = [123456, -654321]
    with mp.workprec(prec):
        mid = sigma_ref(real.run.mpair.mvals[0], 0, prec).real
        Z = sum(a * sigma_ref(w, 0, prec).real
                for a, w in zip(real.run.A, real.run.mpair.omega_star(REAL_PART)))
        norm = sigma_ref(basis.beta[0], 0, prec).real
        g = evaluate(b, basis.beta, prec, norm / (2 * mid * Z))
    with pytest.raises(PrecisionEscalation):
        recover_coords(g, plan, REAL_PART)


def test_recovery_far_from_gamma_escalates():
    # gamma lies far outside epsilon (2.3e-12) of every small element: the
    # roundings pass by chance, and the solved vector is wrong unless its
    # value is compared with gamma
    with pytest.raises(PrecisionEscalation, match="from its approximation"):
        recover_coords(mp.mpf("3e-12"), plan_for(-40), REAL_PART)
    with pytest.raises(PrecisionEscalation, match="from its approximation"):
        recover_coords(mp.mpc(0, "3e-12"), plan_for(-40, BOTH), IMAG_PART)


def test_recovery_with_large_conjugates_escalates():
    # gamma = 1e-10 i on IMAG_PART of the two-sided -40 plan with j's T0
    # (and 3e-10 on REAL_PART) recovers a vector whose value lies within
    # epsilon of gamma, so the residual check passes, but whose other
    # conjugate is far above 2 T0: the height check on z = sum / 2 rejects it
    for gamma, plan, side in ((mp.mpc(0, "1e-10"), plan_for(-40, BOTH), IMAG_PART),
                              (mp.mpf("3e-10"), plan_for(-40), REAL_PART)):
        b = recover_coords(gamma, plan, side)
        z = plan.basis.element(b, side) * Fraction(1, 2)
        with pytest.raises(PrecisionEscalation, match="exceeds the height bound"):
            classpoly._check_height(z, plan.T0, "the recovered coefficient")


def test_invalid_side_rejected():
    plan = plan_for(-40)
    with pytest.raises(InvalidParameters):
        recover_coords(mp.mpf(0), plan, "sideways")


def test_plan_is_immutable():
    plan = plan_for(-40)
    with pytest.raises(Exception):
        plan.N0 = 5


def _det_fractions(M):
    n = len(M)
    M = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        inv = 1 / M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] * inv
            for j in range(k, n):
                M[i][j] -= f * M[k][j]
    return det


def test_adjugate_determinant_matches_gauss():
    rng = random.Random(3)
    for trial in range(120):
        n = rng.randint(1, 6)
        # entries in [-1, 1] make zero pivots, and so row swaps, common
        size = (99, 1, 2 ** 300)[trial // 40]
        M = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
        want = _det_fractions(M)
        if want == 0:
            with pytest.raises(InternalInvariantError):
                adjugate(M)
            continue
        det, adj = adjugate(M)
        assert det == want
        # adj M = det I, over the integers
        assert all(sum(adj[i][k] * M[k][j] for k in range(n)) == det * (i == j)
                   for i in range(n) for j in range(n))
    # a few singular ones, one needing a row swap first
    for M in ([[1, 2], [2, 4]], [[0, 0], [1, 1]], [[0, 1, 2], [0, 2, 4], [5, 6, 7]]):
        with pytest.raises(InternalInvariantError):
            adjugate(M)
    assert adjugate([[0, 1], [1, 0]])[0] == -1


def test_solve_integer_system():
    # recovery solves M b = r as b = adj(M) r / det(M)
    assert _solve_adjugate(*adjugate([[3, 1], [1, 2]]), [5, 0]) == [2, -1]
    with pytest.raises(InternalInvariantError):
        adjugate([[1, 2], [2, 4]])
    with pytest.raises(PrecisionEscalation):
        _solve_adjugate(*adjugate([[2, 0], [0, 2]]), [1, 0])


def test_recovery_matrix_nonsingular():
    for D in (-40, -84, -120):
        plan = plan_for(D, BOTH)
        for side in (REAL_PART, IMAG_PART):
            M = recovery_matrix(plan.sides[side].run)
            assert adjugate(M)[0] == _det_fractions(M) != 0


@pytest.mark.parametrize("D,kind", [
    (-40, InvariantKind.j()), (-40, InvariantKind("gamma2")),
    (-40, InvariantKind("weber")), (-84, InvariantKind.j()),
    (-120, InvariantKind.double_eta(2, 3)),
])
def test_closed_invariants_plan_real_side_only(D, kind):
    # the paper route decides the sides: real coefficients, one side
    plan = class_poly_divisor(D, kind, route="paper").plan
    assert set(plan.sides) == {REAL_PART}
    with pytest.raises(InvalidParameters):
        recover_coords(mp.mpf(0), plan, IMAG_PART)


def test_doubleeta_plan_has_both_sides():
    plan = class_poly_divisor(-84, InvariantKind.double_eta(5, 7), route="paper").plan
    assert set(plan.sides) == {REAL_PART, IMAG_PART}
    # the imaginary side leaves N0, epsilon, precision and the real side as
    # the one-sided plan at the same M-pair and T0 has them
    for D in (-3, -40, -84, -120):
        both, j = plan_for(D, BOTH), plan_for(D)
        assert (both.N0, both.epsilon, both.float_bits) == (j.N0, j.epsilon, j.float_bits)
        assert both.sides[REAL_PART].run.A == j.sides[REAL_PART].run.A


# A depends on every register choice, which the runs make from low-precision
# z shadows, so a shadow precision that flips one choice fails here.  Pinned:
# float_bits, N0's size and last 12 digits, each side's iteration count, and a
# sha256 prefix of repr((N0, [A of each side, sides sorted by name]))
@pytest.mark.parametrize("D,kind,float_bits,n0_bits,n0_low,iters,digest", [
    (-420, "j", 1093, 931, 467305439234, [871], "300a0b2c167979f01e707596"),
    (-1239, "j", 1385, 1008, 606424649730, [760], "b25fac4c84f9d793ba835c61"),
    (-3135, "doubleeta:5,7", 559, 474, 8135389186, [352, 352],
     "5b6492f8ecbab78bf4e07e36"),
    (-5460, "weber", 2968, 2817, 768789336066, [1984], "9cc194e6a028e8366529a30e"),
], ids=["-420-j", "-1239-j", "-3135-doubleeta:5,7", "-5460-weber"])
def test_plan_numbers_pinned(D, kind, float_bits, n0_bits, n0_low, iters, digest):
    plan = class_poly_divisor(D, InvariantKind.parse(kind), route="paper").plan
    sides = sorted(plan.sides)
    A = [plan.sides[s].run.A for s in sides]
    assert plan.float_bits == float_bits
    assert (plan.N0.bit_length(), plan.N0 % 10 ** 12) == (n0_bits, n0_low)
    assert [plan.sides[s].run.iters for s in sides] == iters
    assert hashlib.sha256(repr((plan.N0, A)).encode()).hexdigest()[:24] == digest


def count_field_builds(monkeypatch, *names):
    """Count calls of the named genusfield functions at every cmforge
    binding, as the benchmark's tracer sees them."""
    import cmforge

    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(genusfield, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in vars(cmforge).values():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_one_mpair_and_two_tensors_per_plan(monkeypatch):
    # a two-sided divisor on the paper route builds the genus-field layer
    # once: one M-pair and the two tensors, beta's and beta*'s
    calls = count_field_builds(monkeypatch, "build_mpair", "structure_constants")
    plan = class_poly_divisor(-40, InvariantKind.double_eta(11, 13), route="paper").plan
    assert set(plan.sides) == {REAL_PART, IMAG_PART}
    assert calls == {"build_mpair": 1, "structure_constants": 2}


@pytest.mark.parametrize("D", [-1239, -420])
def test_paper_route_retries_share_one_field(D, monkeypatch):
    # a T0 of 4 is far too small, so the paper route escalates; every plan
    # of its ladder takes the one basis and M-pair built for the divisor
    calls = count_field_builds(monkeypatch, "build_basis", "build_mpair")
    monkeypatch.setattr(classpoly, "genus_T0", lambda kind, forms, labels: 4)
    div = class_poly_divisor(D, J, route="paper")
    assert div.plan.T0 > 4
    assert calls == {"build_basis": 1, "build_mpair": 1}
    want = next(w for d, inv, w in DIVISORS if (d, inv) == (D, "j"))
    assert digest([coset_divisor(div, phi).to_json() for phi in coset_labels(D)]) == want
