"""Tests for full class polynomials and genus divisors."""

import json
from fractions import Fraction

import pytest
from mpmath import mp

from cmforge import classpoly
from cmforge.arith import Discriminant
from cmforge.classpoly import ClassPolynomial, class_poly_divisor, \
    class_poly_full, coset_labels, coset_product_check, divisor_forms
from cmforge.errors import InvalidParameters, PrecisionExhausted
from cmforge.forms import QuadForm, class_number, n_system
from cmforge.genusfield import GFElem, build_basis, gf_rational
from cmforge.modfns import InvariantKind
from cmforge.recover import make_plan

J = InvariantKind.j()


def coeff_key(poly):
    """Hashable form of a divisor polynomial for set comparisons."""
    return tuple(tuple(sorted(c.c.items())) for c in poly.coeffs)


def test_full_oracle_values():
    assert class_poly_full(-40, J).coeffs == (9103145472000, -425692800, 1)
    assert class_poly_full(-40, InvariantKind.gamma2()).coeffs == (20880, -780, 1)
    assert class_poly_full(-3, J).coeffs == (0, 1)
    assert class_poly_full(-4, J).coeffs == (-1728, 1)
    # textbook values for h = 2 and h = 3
    assert class_poly_full(-15, J).coeffs == (-121287375, 191025, 1)
    assert class_poly_full(-23, J).coeffs == \
        (12771880859375, -5151296875, 3491750, 1)


def test_full_oracle_weber_and_double_eta():
    assert class_poly_full(-40, InvariantKind.weber()).coeffs == (-1, -1, 1)
    assert class_poly_full(-40, InvariantKind.double_eta(5, 7)).coeffs == (-1, -1, 1)
    assert class_poly_full(-40, InvariantKind.double_eta(11, 13)).coeffs \
        in ((1, 2, 1), (1, -2, 1))


def test_divisor_minus40_j():
    div = class_poly_divisor(-40, J)
    assert div.degree == 1
    assert div.phi0 == (1, 1)
    z = -div.coeffs[0]   # the root
    assert dict(z.c) == {0: Fraction(212846400), 1: Fraction(95178240)}
    # multiply by the conjugate divisor: must give the full polynomial
    zc = z.tau(1)
    s = (z + zc).as_fraction()
    p = (z * zc).as_fraction()
    assert s == 425692800 and p == 9103145472000


def test_divisor_minus15_known_root():
    div = class_poly_divisor(-15, J)
    z = -div.coeffs[0]
    assert dict(z.c) == {0: Fraction(-191025, 2), 1: Fraction(-85995, 2)}
    # z is an algebraic integer: (a + b sqrt5)/2 with a = b (mod 2)
    assert (191025 - 85995) % 2 == 0


def test_divisor_weber_minus40():
    div = class_poly_divisor(-40, InvariantKind.weber())
    z = -div.coeffs[0]
    # full polynomial is x^2 - x - 1, so the divisor root is (1+sqrt5)/2
    assert dict(z.c) == {0: Fraction(1, 2), 1: Fraction(1, 2)}


@pytest.mark.parametrize("D", [-3, -4, -8, -15, -23, -40, -84, -120, -231])
def test_divisor_degree(D):
    d = Discriminant.from_D(D)
    div = class_poly_divisor(D, J)
    assert div.degree == class_number(D) // d.m
    assert div.coeffs[-1].as_fraction() == 1


def test_t1_divisor_equals_full():
    for D in (-3, -4, -23):
        full = class_poly_full(D, J)
        div = class_poly_divisor(D, J)
        assert tuple(c.as_fraction() for c in div.coeffs) == full.coeffs


def test_coset_product_small():
    assert coset_product_check(-40, J)
    assert coset_product_check(-3, J)
    assert coset_product_check(-40, InvariantKind.weber())
    assert coset_product_check(-84, J)


@pytest.mark.parametrize("D,kind", [(-1239, J), (-791, InvariantKind.gamma2())])
def test_coset_product_through_mirror_pairs(D, kind):
    # class groups of exponent > 2: some forms (A,B,C) and (A,-B,C) are both
    # evaluated, so the full and divisor products multiply real quadratics
    d = Discriminant.from_D(D)
    forms = n_system(D, kind.modulus(d), kind.b_target(d)).forms
    assert any(f.B and QuadForm(f.A, -f.B, f.C) in forms for f in forms)
    assert coset_product_check(D, kind)


def test_coset_labels_group():
    labs = coset_labels(-84)
    assert len(labs) == 4
    for lab in labs:
        prod = 1
        for e in lab:
            prod *= e
        assert prod == 1


def test_galois_action_permutes_cosets():
    D = -84
    plan = make_plan(D, J)
    divisors = {}
    for phi0 in coset_labels(D):
        divisors[phi0] = class_poly_divisor(D, J, phi0, plan=plan)
    keys = {coeff_key(p) for p in divisors.values()}
    assert len(keys) == 4
    basis = build_basis(Discriminant.from_D(D))
    for lam in range(1, basis.m):
        for phi0, poly in divisors.items():
            mapped = ClassPolynomial(
                D, J, phi0, tuple(c.tau(lam) for c in poly.coeffs))
            assert coeff_key(mapped) in keys
    # some conjugation genuinely moves at least one coset
    moved = any(
        coeff_key(ClassPolynomial(D, J, p, tuple(c.tau(1) for c in poly.coeffs)))
        != coeff_key(poly)
        for p, poly in divisors.items())
    assert moved


def test_recovered_coefficients_within_t0():
    D = -84
    plan = make_plan(D, J)
    div = class_poly_divisor(D, J, plan=plan)
    d = Discriminant.from_D(D)
    with mp.workprec(256):
        bound = mp.mpf(plan.T0) * (1 + mp.mpf(2) ** -40)
        for c in div.coeffs[:-1]:
            for lam in range(1 << d.t):   # all Galois conjugates
                assert abs(c.tau(lam).numeric(256)) <= bound


def test_divisor_forms_counts():
    phi0, sel = divisor_forms(-84, J)
    assert phi0 == (1, 1, 1)
    assert len(sel) == 1
    with pytest.raises(InvalidParameters):
        divisor_forms(-84, J, (1, 1))        # wrong length
    with pytest.raises(InvalidParameters):
        divisor_forms(-84, J, (2, 1, 1))     # not +-1
    with pytest.raises(InvalidParameters):
        divisor_forms(-40, J, (1, -1))       # product -1: not in the image


def test_json_round_trip():
    # to_json holds everything needed to rebuild the polynomial exactly
    for poly in (class_poly_full(-40, J),
                 class_poly_divisor(-40, J),
                 class_poly_divisor(-40, InvariantKind.gamma2())):
        blob = json.loads(json.dumps(poly.to_json()))
        assert blob["D"] == poly.D and blob["invariant"] == str(poly.kind)
        assert blob["degree"] == poly.degree
        if poly.is_divisor:
            assert tuple(blob["phi0"]) == poly.phi0
            qs = tuple(blob["field"])
            coeffs = tuple(GFElem(qs, {int(k): Fraction(v) for k, v in c.items()})
                           for c in blob["coeffs"])
        else:
            assert blob["phi0"] is None
            coeffs = tuple(int(c) for c in blob["coeffs"])
        assert ClassPolynomial(poly.D, poly.kind, poly.phi0, coeffs) == poly


def test_precision_cap_full(monkeypatch):
    # 174-bit coefficients cannot be trusted at <= 16 working bits
    monkeypatch.setattr(classpoly, "_full_bits_estimate", lambda d, kind: 8)
    with pytest.raises(PrecisionExhausted):
        class_poly_full(-652, J, max_bits=16)


def test_full_escalates_to_correct_answer(monkeypatch):
    # starting absurdly low must double up to a sound precision, not return
    # a lucky mis-rounding
    b = class_poly_full(-652, J)
    monkeypatch.setattr(classpoly, "_full_bits_estimate", lambda d, kind: 8)
    a = class_poly_full(-652, J)
    assert a.coeffs == b.coeffs


def test_precision_cap_divisor():
    plan = make_plan(-40, J)
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-40, J, plan=plan, max_bits=50)


def test_imaginary_theta_error_fails_realness_check(monkeypatch):
    # j's divisor coefficients are real, so only the real side is recovered;
    # an imaginary error in one theta value must escalate, never be dropped
    theta = classpoly.theta_value

    def skewed(kind, form, prec=96):
        v = theta(kind, form, prec)
        with mp.workprec(prec + 64):
            return v + mp.mpc(0, mp.mpf(2) ** -10) if form.A == 1 else v

    plan = make_plan(-40, J)
    assert class_poly_divisor(-40, J, plan=plan, max_bits=4 * plan.float_bits)
    monkeypatch.setattr(classpoly, "theta_value", skewed)
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-40, J, max_bits=4 * plan.float_bits)


def test_paired_theta_error_fails_recovery(monkeypatch):
    # (4,3,78) and (4,-3,78) share one evaluation, so an imaginary error at
    # (4,3,78) enters a real quadratic and passes the realness check; the
    # recovery of the real parts must escalate on it
    theta = classpoly.theta_value
    seen = []
    skew = {}

    def skewed(kind, form, prec=96):
        seen.append(form)
        v = theta(kind, form, prec)
        with mp.workprec(prec + 64):
            return v + mp.mpc(0, skew.get(form, 0))

    monkeypatch.setattr(classpoly, "theta_value", skewed)
    plan = make_plan(-1239, J)
    assert class_poly_divisor(-1239, J, plan=plan, max_bits=4 * plan.float_bits)
    assert len(seen) == 5 and QuadForm(4, 3, 78) in seen   # 8 forms, 3 pairs
    assert QuadForm(4, -3, 78) not in seen
    skew[QuadForm(4, 3, 78)] = mp.mpf(2) ** -10
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-1239, J, max_bits=4 * plan.float_bits)


def test_divisor_memo_hits_and_cap():
    # without a plan the divisor is memoized: phi0 = None and the explicit
    # principal label are one entry, and a hit returns the same object
    poly = class_poly_divisor(-40, J)
    bits = poly.plan.float_bits
    assert class_poly_divisor(-40, J) is poly
    assert class_poly_divisor(-40, J, phi0=(1, 1)) is poly
    assert class_poly_divisor(-40, J, max_bits=bits) is poly
    # a hit raises exactly when a recomputation would: the plan needs more
    # bits than the cap allows
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-40, J, max_bits=bits - 1)
    # an explicit plan, and the coset-product check, recompute
    again = class_poly_divisor(-40, J, plan=poly.plan)
    assert again is not poly and coeff_key(again) == coeff_key(poly)
    classpoly._DIVISORS.clear()
    assert coset_product_check(-40, J)
    assert not classpoly._DIVISORS


def test_plan_reuse_same_result():
    plan = make_plan(-120, J)
    a = class_poly_divisor(-120, J, plan=plan)
    b = class_poly_divisor(-120, J)
    assert coeff_key(a) == coeff_key(b)


def test_gamma2_divisor_consistent_with_cube_root():
    # gamma2^3 = j: the recovered gamma2 divisor root must cube to the
    # j divisor root for a degree-1 divisor
    dj = class_poly_divisor(-40, J)
    dg = class_poly_divisor(-40, InvariantKind.gamma2())
    zj = -dj.coeffs[0]
    zg = -dg.coeffs[0]
    assert (zg * zg * zg).c == zj.c
