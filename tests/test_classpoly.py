"""Tests for full class polynomials and genus divisors."""

import dataclasses
import json
import os
import threading

import pytest
from mpmath import mp

from cmforge import classpoly
from cmforge.arith import Discriminant
from cmforge.classpoly import ClassPolynomial, class_poly_divisor, \
    class_poly_full, class_poly_split, coset_divisor, coset_labels, coset_product_check, \
    genus_T0, hecke_T
from cmforge.errors import InvalidParameters, PrecisionEscalation, PrecisionExhausted
from cmforge.forms import QuadForm, enumerate_reduced, n_system, phi_class, power_cosets, \
    reduce_form
from cmforge.genusfield import GFElem, embeddings
from test_genusfield import from_json, sigma_ref
from cmforge.modfns import InvariantKind, height_bound
from test_golden import DIVISORS, FULL, digest

J = InvariantKind.j()


def coset_check(D, kind=J, route="paper"):
    """The coset-product check against a freshly built full polynomial."""
    return coset_product_check(class_poly_full(D, kind),
                               class_poly_divisor(D, kind, route=route))


def coeff_key(poly):
    """Hashable form of a divisor polynomial for set comparisons."""
    return tuple((c.nums, c.den) for c in poly.coeffs)


def test_full_oracle_values():
    assert class_poly_full(-40, J).coeffs == (9103145472000, -425692800, 1)
    assert class_poly_full(-40, InvariantKind("gamma2")).coeffs == (20880, -780, 1)
    assert class_poly_full(-3, J).coeffs == (0, 1)
    assert class_poly_full(-4, J).coeffs == (-1728, 1)
    # textbook values for h = 2 and h = 3
    assert class_poly_full(-15, J).coeffs == (-121287375, 191025, 1)
    assert class_poly_full(-23, J).coeffs == \
        (12771880859375, -5151296875, 3491750, 1)


def test_full_oracle_weber_and_double_eta():
    assert class_poly_full(-40, InvariantKind("weber")).coeffs == (-1, -1, 1)
    assert class_poly_full(-40, InvariantKind.double_eta(5, 7)).coeffs == (-1, -1, 1)
    assert class_poly_full(-40, InvariantKind.double_eta(11, 13)).coeffs \
        in ((1, 2, 1), (1, -2, 1))


def test_divisor_minus40_j():
    div = class_poly_divisor(-40, J)
    assert div.degree == 1
    assert div.phi0 == (1, 1)
    z = -div.coeffs[0]   # the root
    assert z == GFElem(z.qstars, [212846400, 95178240, 0, 0])
    # multiply by the conjugate divisor: must give the full polynomial
    zc = z.tau(1)
    s = (z + zc).as_fraction()
    p = (z * zc).as_fraction()
    assert s == 425692800 and p == 9103145472000


def test_divisor_minus15_known_root():
    div = class_poly_divisor(-15, J)
    z = -div.coeffs[0]
    assert z == GFElem(z.qstars, [-191025, -85995, 0, 0], 2)
    # z is an algebraic integer: (a + b sqrt5)/2 with a = b (mod 2)
    assert (191025 - 85995) % 2 == 0


def test_divisor_weber_minus40():
    div = class_poly_divisor(-40, InvariantKind("weber"))
    z = -div.coeffs[0]
    # full polynomial is x^2 - x - 1, so the divisor root is (1+sqrt5)/2
    assert z == GFElem(z.qstars, [1, 1, 0, 0], 2)


@pytest.mark.parametrize("D", [-3, -4, -8, -15, -23, -40, -84, -120, -231])
def test_divisor_degree(D):
    d = Discriminant.from_D(D)
    div = class_poly_divisor(D, J)
    assert div.degree == len(enumerate_reduced(D)) // d.m
    assert div.coeffs[-1].as_fraction() == 1


def test_t1_divisor_equals_full():
    for D in (-3, -4, -23):
        full = class_poly_full(D, J)
        div = class_poly_divisor(D, J)
        assert tuple(c.as_fraction() for c in div.coeffs) == full.coeffs


def test_coset_product_small():
    assert coset_check(-40)
    assert coset_check(-3)
    assert coset_check(-40, InvariantKind("weber"))
    assert coset_check(-84)


@pytest.mark.parametrize("D,kind", [(-1239, J), (-791, InvariantKind("gamma2"))])
def test_coset_product_through_mirror_pairs(D, kind):
    # class groups of exponent > 2: some forms (A,B,C) and (A,-B,C) are both
    # evaluated, so the full and divisor products multiply real quadratics
    d = Discriminant.from_D(D)
    forms = n_system(D, kind.modulus(d), kind.b_target(d))
    assert any(f.B and QuadForm(f.A, -f.B, f.C) in forms for f in forms)
    assert coset_check(D, kind)


def test_coset_labels_group():
    labs = coset_labels(-84)
    assert len(labs) == 4
    for lab in labs:
        prod = 1
        for e in lab:
            prod *= e
        assert prod == 1


def test_galois_action_permutes_cosets():
    # each coset's divisor, recovered from its own theta values with the
    # principal divisor's plan (the paper route), is the principal divisor
    # conjugated by the automorphism that flips sqrt(q_i*) where the coset
    # label is -1
    for D, invariant, _ in DIVISORS:
        kind = InvariantKind.parse(invariant)
        d = Discriminant.from_D(D)
        div = class_poly_divisor(D, kind, route="paper")
        forms = n_system(D, kind.modulus(d), kind.b_target(d))
        seen = set()
        for phi in coset_labels(D):
            sel = [f for f in forms if phi_class(f, d) == phi]
            own = classpoly._divisor_attempt(kind, sel, div.plan)
            conj = coset_divisor(div, phi)
            assert conj.phi0 == phi and conj.coeffs == own, (D, invariant, phi)
            assert conj == coset_divisor(class_poly_divisor(D, kind, route="conjugates"), phi)
            seen.add(coeff_key(conj))
        if (D, invariant) == (-84, "j"):
            assert len(seen) == 4   # the conjugations genuinely move cosets


def test_recovered_coefficients_within_t0():
    D = -84
    div = class_poly_divisor(D, J, route="conjugates")
    d = Discriminant.from_D(D)
    assert div.plan.T == class_poly_divisor(D, J).plan.T0
    with mp.workprec(256):
        bound = mp.mpf(div.plan.T) * (1 + mp.mpf(2) ** -40)
        for c in div.coeffs[:-1]:
            for lam in range(1 << d.t):   # all Galois conjugates
                assert abs(sigma_ref(c, lam, 256)) <= bound


@pytest.mark.parametrize("D,invariant", [(D, inv) for D, inv, _ in DIVISORS]
                         + [(-5460, "weber")],
                         ids=[f"{D}-{inv}" for D, inv, _ in DIVISORS] + ["-5460-weber"])
def test_height_bound_covers_every_coset_divisor(D, invariant):
    # each coset's height bound is at least every coefficient of its
    # divisor, and T0, the largest of them, bounds every conjugate (the
    # conjugates are the other cosets' coefficients); -5460 weber is where
    # the old heuristic T0 fell 16.9 bits short
    kind = InvariantKind.parse(invariant)
    d = Discriminant.from_D(D)
    div = class_poly_divisor(D, kind, route="conjugates")
    forms = n_system(D, kind.modulus(d), kind.b_target(d))
    labels = [phi_class(f, d) for f in forms]
    T0 = div.plan.T
    assert T0 == genus_T0(kind, forms, labels)
    prec = int(mp.mag(T0)) + 128
    with mp.workprec(prec):
        for phi in coset_labels(D):
            T = height_bound(kind, [f for f, lab in zip(forms, labels) if lab == phi])
            for c in coset_divisor(div, phi).coeffs:
                assert abs(sigma_ref(c, 0, prec)) <= T
                for lam in range(1 << d.t):
                    assert abs(sigma_ref(c, lam, prec)) <= T0, (phi, lam)


@pytest.mark.parametrize("D,invariant", [(D, inv) for D, inv, _ in FULL],
                         ids=[f"{D}-{inv}" for D, inv, _ in FULL])
def test_height_bound_covers_full_coefficients(D, invariant):
    kind = InvariantKind.parse(invariant)
    d = Discriminant.from_D(D)
    T = height_bound(kind, n_system(D, kind.modulus(d), kind.b_target(d)))
    assert max(abs(c) for c in class_poly_full(D, kind).coeffs) <= T


def test_divisor_forms_counts():
    # the genus characters split the N-system into equal cosets, and the
    # divisor is the principal one's
    assert class_poly_divisor(-84, J).phi0 == (1, 1, 1)
    for D in (-84, -420, -3135):
        d = Discriminant.from_D(D)
        forms = n_system(D, J.modulus(d), J.b_target(d))
        labels = [phi_class(f, d) for f in forms]
        assert sorted(set(labels)) == sorted(coset_labels(D))
        assert all(labels.count(phi) == len(forms) // d.m for phi in labels)


def test_json_round_trip():
    # to_json holds everything needed to rebuild the polynomial exactly
    for poly in (class_poly_full(-40, J),
                 class_poly_divisor(-40, J),
                 class_poly_divisor(-40, InvariantKind("gamma2"))):
        blob = json.loads(json.dumps(poly.to_json()))
        assert blob["D"] == poly.D and blob["invariant"] == str(poly.kind)
        assert blob["degree"] == poly.degree
        if poly.is_divisor:
            assert tuple(blob["phi0"]) == poly.phi0
            qs = tuple(blob["field"])
            coeffs = tuple(from_json(qs, c) for c in blob["coeffs"])
        else:
            assert blob["phi0"] is None
            coeffs = tuple(int(c) for c in blob["coeffs"])
        assert ClassPolynomial(poly.D, poly.kind, poly.phi0, coeffs) == poly


def test_precision_cap_full(monkeypatch):
    # 174-bit coefficients cannot be trusted at <= 16 working bits: with the
    # height bound replaced by 2^8, the attempt at 9 bits escalates and the
    # next one, at 18, is above the cap
    monkeypatch.setattr(classpoly, "height_bound", lambda kind, forms: mp.mpf(256))
    with pytest.raises(PrecisionExhausted):
        class_poly_full(-652, J, max_bits=16)


def exact_args(D, kind, full):
    """The arguments after ``kind`` of ``_exact_attempt`` for the full
    polynomial (no q_i*, every mask 0, T = height_bound) or the principal
    divisor (the genus field, one mask per coset, T = genus_T0), and the
    rows they must give."""
    d = Discriminant.from_D(D)
    forms = n_system(D, kind.modulus(d), kind.b_target(d))
    if full:
        rows = [[c] for c in class_poly_full(D, kind).coeffs[:-1]]
        return ((), forms, [0] * len(forms), height_bound(kind, forms)), rows
    labels = [phi_class(f, d) for f in forms]
    N = 1 << d.t
    rows = [[int(c.coeff(S) * N) for S in range(N)]
            for c in class_poly_divisor(D, kind, route="conjugates").coeffs[:-1]]
    return (d.qstars, forms, [classpoly._mask(lab) for lab in labels],
            genus_T0(kind, forms, labels)), rows


@pytest.mark.parametrize("D,full", [(-652, True), (-1239, False)], ids=["-652", "-1239"])
def test_exact_attempt_escalates_to_correct_answer(D, full):
    # an attempt below log2 T + t must escalate rather than return a lucky
    # mis-rounding, on the full path (t = 0) and the conjugate route alike,
    # and the attempt at log2 T + t succeeds
    (qstars, forms, masks, T), want = exact_args(D, J, full)
    B = int(mp.mag(T)) + len(qstars)
    with pytest.raises(PrecisionEscalation):
        classpoly._exact_attempt(J, qstars, forms, masks, 8, T)
    for bits in (16, 32, 64, 128):
        try:
            assert classpoly._exact_attempt(J, qstars, forms, masks, bits, T) == want
        except PrecisionEscalation:
            pass
    assert classpoly._exact_attempt(J, qstars, forms, masks, B, T) == want


@pytest.mark.parametrize("D,full", [(-652, True), (-1239, False)], ids=["-652", "-1239"])
def test_exact_attempt_checks_the_height_bound(D, full):
    # with T just below the largest embedding of a coefficient, at the B
    # the true bound gives (so the a-priori error bound passes and every
    # coefficient rounds and reproduces its embeddings), only the height
    # check stands between the attempt and an answer
    (qstars, forms, masks, T), want = exact_args(D, J, full)
    B = int(mp.mag(T)) + len(qstars)
    prec = B + 64
    with mp.workprec(prec):
        if full:
            top = max(abs(mp.mpf(row[0])) for row in want)
        else:
            div = class_poly_divisor(D, J, route="conjugates")
            top = max(abs(sigma_ref(c, lam, prec)) for c in div.coeffs[:-1]
                      for lam in range(1 << len(qstars)))
        above, below = top * (1 + mp.mpf(2) ** -20), top * (1 - mp.mpf(2) ** -20)
    assert below < T
    assert classpoly._exact_attempt(J, qstars, forms, masks, B, above) == want
    with pytest.raises(PrecisionEscalation, match="height bound"):
        classpoly._exact_attempt(J, qstars, forms, masks, B, below)


@pytest.mark.parametrize("D,invariant", [(-5460, "j"), (-3135, "doubleeta:5,7")])
def test_height_check_is_sharp(D, invariant):
    # on the paper route's divisors (the largest -5460 j embedding is 2^-31
    # below T0, the pad's whole margin; -3135 doubleeta:5,7 recovers both
    # sides) every coefficient passes at T0, and the check resolves each
    # coefficient's largest embedding K to within 2^-40
    kind = InvariantKind.parse(invariant)
    div = class_poly_divisor(D, kind, route="paper")
    tops = []
    for k, c in enumerate(div.coeffs[:-1]):
        classpoly._check_height(c, div.plan.T0, f"coefficient {k}")
        with mp.workprec(400):
            tops.append(max(abs(v) for v in embeddings(c, 400)))
            below, above = tops[-1] * (1 - mp.mpf(2) ** -40), tops[-1] * (1 + mp.mpf(2) ** -40)
        with pytest.raises(PrecisionEscalation, match="exceeds the height bound"):
            classpoly._check_height(c, below, f"coefficient {k}")
        classpoly._check_height(c, above, f"coefficient {k}")
    # the paper route's attempt runs the check on what it recovers: with T0
    # just below the largest embedding, the same plan recovers the same
    # coefficients and escalates
    d = Discriminant.from_D(D)
    sel = [f for f in n_system(D, kind.modulus(d), kind.b_target(d))
           if phi_class(f, d) == div.phi0]
    with mp.workprec(400):
        below, above = max(tops) * (1 - mp.mpf(2) ** -40), max(tops) * (1 + mp.mpf(2) ** -40)
    assert classpoly._divisor_attempt(kind, sel, dataclasses.replace(div.plan, T0=above)) \
        == div.coeffs
    with pytest.raises(PrecisionEscalation, match="exceeds the height bound"):
        classpoly._divisor_attempt(kind, sel, dataclasses.replace(div.plan, T0=below))


def test_precision_cap_divisor():
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-40, J, max_bits=50)


def test_imaginary_theta_error_fails_realness_check(monkeypatch):
    # j's divisor coefficients are real, so the paper route recovers only
    # the real side; an imaginary error in one theta value must escalate,
    # never be dropped
    theta = classpoly.theta_value

    def skewed(kind, form, prec=96):
        v = theta(kind, form, prec)
        with mp.workprec(prec + 64):
            return v + mp.mpc(0, mp.mpf(2) ** -10) if form.A == 1 else v

    plan = class_poly_divisor(-40, J, route="paper").plan
    classpoly._DIVISORS.clear()
    monkeypatch.setattr(classpoly, "theta_value", skewed)
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-40, J, max_bits=4 * plan.float_bits, route="paper")


def test_paired_theta_error_fails_recovery(monkeypatch):
    # (4,3,78) and (4,-3,78) share one evaluation, so an imaginary error at
    # (4,3,78) enters a real quadratic and passes the paper route's realness
    # check; the recovery of the real parts must escalate on it
    theta = classpoly.theta_value
    seen = []
    skew = {}

    def skewed(kind, form, prec=96):
        seen.append(form)
        v = theta(kind, form, prec)
        with mp.workprec(prec + 64):
            return v + mp.mpc(0, skew.get(form, 0))

    monkeypatch.setattr(classpoly, "theta_value", skewed)
    plan = class_poly_divisor(-1239, J, route="paper").plan
    assert len(seen) == 5 and QuadForm(4, 3, 78) in seen   # 8 forms, 3 pairs
    assert QuadForm(4, -3, 78) not in seen
    classpoly._DIVISORS.clear()
    skew[QuadForm(4, 3, 78)] = mp.mpf(2) ** -10
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-1239, J, max_bits=4 * plan.float_bits, route="paper")


def test_divisor_memo_hits_and_cap():
    # the divisor is memoized by (D, kind, route), and a hit returns the
    # same object
    poly = class_poly_divisor(-40, J, route="conjugates")
    bits = poly.plan.B
    assert class_poly_divisor(-40, J, route="conjugates") is poly
    assert class_poly_divisor(-40, J, max_bits=bits, route="conjugates") is poly
    # a hit raises exactly when a recomputation would: the plan needs more
    # bits than the cap allows
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-40, J, max_bits=bits - 1, route="conjugates")
    # the paper route has its own entry, with its own plan and cap
    paper = class_poly_divisor(-40, J)
    assert paper is not poly and paper.coeffs == poly.coeffs
    assert paper.plan.float_bits > bits
    assert class_poly_divisor(-40, J, route="paper") is paper
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-40, J, max_bits=paper.plan.float_bits - 1)
    # a recomputation after the memo is cleared gives the same divisor,
    # and both routes' divisors pass the coset-product check
    classpoly._DIVISORS.clear()
    again = class_poly_divisor(-40, J, route="conjugates")
    assert again is not poly and coeff_key(again) == coeff_key(poly)
    assert classpoly._DIVISORS[-40, J, "conjugates"] is again
    full = class_poly_full(-40, J)
    assert coset_product_check(full, again)
    assert coset_product_check(full, class_poly_divisor(-40, J))


def test_coset_product_check_sees_a_perturbed_divisor():
    # the check multiplies the conjugates of the divisor it is given: one
    # wrong coefficient in that divisor must make it fail
    D = -84
    full, div = class_poly_full(D, J), class_poly_divisor(D, J)
    assert coset_product_check(full, div)
    bad = dataclasses.replace(div, coeffs=(div.coeffs[0] + 1,) + div.coeffs[1:])
    assert not coset_product_check(full, bad)
    # a divisor of another degree (x times the divisor) gives a product of
    # another degree
    zero = div.coeffs[0] * 0
    wide = dataclasses.replace(div, coeffs=(zero,) + div.coeffs)
    assert not coset_product_check(full, wide)


def test_plan_reuse_same_result():
    # the memoized divisor's plan recovers that divisor again
    div = class_poly_divisor(-120, J, route="paper")
    d = Discriminant.from_D(-120)
    forms = n_system(-120, J.modulus(d), J.b_target(d))
    sel = [f for f in forms if phi_class(f, d) == div.phi0]
    assert classpoly._divisor_attempt(J, sel, div.plan) == div.coeffs


def test_gamma2_divisor_consistent_with_cube_root():
    # gamma2^3 = j: the recovered gamma2 divisor root must cube to the
    # j divisor root for a degree-1 divisor
    dj = class_poly_divisor(-40, J)
    dg = class_poly_divisor(-40, InvariantKind("gamma2"))
    zj = -dj.coeffs[0]
    zg = -dg.coeffs[0]
    assert zg * zg * zg == zj


def test_unknown_route_rejected():
    with pytest.raises(InvalidParameters):
        class_poly_divisor(-40, J, route="sideways")


@pytest.mark.parametrize("D,invariant", [(D, inv) for D, inv, _ in FULL],
                         ids=[f"{D}-{inv}" for D, inv, _ in FULL])
def test_expand_error_bound_holds(D, invariant):
    # _expand's bound covers the true error of every coefficient at every
    # precision, from below the coefficient size to well above it
    kind = InvariantKind.parse(invariant)
    d = Discriminant.from_D(D)
    forms = n_system(D, kind.modulus(d), kind.b_target(d))
    exact = class_poly_full(D, kind).coeffs
    top = int(mp.mag(height_bound(kind, forms)))
    for prec in (24, top // 2 + 16, top + 24):
        poly, err = classpoly._expand(classpoly._theta_values(kind, forms, prec), prec)
        with mp.workprec(prec + 64):
            assert max(abs(c - e) for c, e in zip(poly, exact)) <= err, prec


@pytest.mark.parametrize("shift", [40, 20])
@pytest.mark.parametrize("D,invariant,want", DIVISORS,
                         ids=[f"{D}-{inv}" for D, inv, _ in DIVISORS])
def test_conjugate_route_never_returns_a_wrong_divisor(D, invariant, want, shift,
                                                      monkeypatch):
    # one theta value off by a relative 2^-shift: the route must escalate
    # until the cap stops it, or return the right divisor.  A skew beyond
    # the route's own claim on theta (a relative 2^-prec at the first
    # attempt) must escalate for j, whose values exceed 2^28, so that the
    # error is far above the bound; at -40 j a shift of 40 is inside the
    # claim (prec 37).  At -40 j a shift of 20 moves the coordinates N a_S
    # by hundreds, yet each rounds with a residual below 1/4: only the
    # check against every embedding catches it
    kind = InvariantKind.parse(invariant)
    d = Discriminant.from_D(D)
    B = class_poly_divisor(D, kind, route="conjugates").plan.B
    n = len(n_system(D, kind.modulus(d), kind.b_target(d))) // d.m
    prec = B + 3 + classpoly._pad(n)
    classpoly._DIVISORS.clear()
    theta = classpoly.theta_value
    seen = []

    def skewed(kind, form, prec=96):
        seen.append(form)
        v = theta(kind, form, prec)
        with mp.workprec(prec + 64):
            return v * (1 + mp.mpf(2) ** -shift) if form == seen[0] else v

    # one process, so that seen[0] is one form: a forked child would skew
    # the first form of its own share as well
    monkeypatch.setattr(classpoly, "_workers", lambda n, work: 1)
    monkeypatch.setattr(classpoly, "theta_value", skewed)
    try:
        div = class_poly_divisor(D, kind, max_bits=2 * B, route="conjugates")
    except PrecisionExhausted:
        return
    assert not (invariant == "j" and shift < prec)
    blobs = [coset_divisor(div, phi).to_json() for phi in coset_labels(D)]
    assert digest(blobs) == want


def test_conjugate_route_non_real_coefficients_minus40011():
    # doubleeta:5,7 at -40011 (h = 62): the N-system is not closed under
    # mirroring, so the coefficients are non-real and large.  Their complex
    # conjugates at the working precision let one attempt at
    # B = ceil(log2 T) + t succeed; conjugates rounded at the caller's 53
    # bits miss an embedding at every B
    kind = InvariantKind.double_eta(5, 7)
    div = class_poly_divisor(-40011, kind, max_bits=5000, route="conjugates")
    assert div.plan.B == int(mp.mag(div.plan.T)) + Discriminant.from_D(-40011).t
    assert div == class_poly_divisor(-40011, kind, route="paper")
    assert coset_product_check(class_poly_full(-40011, kind), div)


@pytest.mark.parametrize("invariant", ["j", "weber"])
def test_coset_product_check_conjugate_route_t5(invariant):
    # t = 5: 16 cosets, 32 embeddings per coefficient
    assert coset_check(-5460, InvariantKind.parse(invariant), route="conjugates")


def mul_monic_reference(poly, low):
    """poly(x) * (x^d + low[d-1] x^(d-1) + ... + low[0]), ascending lists."""
    out = [mp.zero] * len(low) + poly
    for i, c in enumerate(low):
        for k, a in enumerate(poly):
            out[i + k] += c * a
    return out


def expand_reference(values, prec):
    """``_expand``'s product in mpmath floating point at prec + 64 bits,
    factors in ascending |theta|: the reference for its integer loop."""
    with mp.workprec(prec + 64):
        factors = []
        for _, th, paired in values:
            if paired:
                a, b = mp.re(th), mp.im(th)
                factors.append((abs(th), [a * a + b * b, -2 * a]))
            else:
                factors.append((abs(th), [-th]))
        poly = [mp.mpf(1)]
        for _, low in sorted(factors, key=lambda fac: fac[0]):
            poly = mul_monic_reference(poly, low)
    return poly


# every full polynomial of test_golden (D, invariant, None), and each coset
# (D, invariant, phi) of -3135 doubleeta:5,7, whose values are unpaired and
# not real
EXPAND_CASES = [(D, invariant, None) for D, invariant, _ in FULL] + [
    (-3135, "doubleeta:5,7", phi) for phi in coset_labels(-3135)]


@pytest.mark.parametrize("D,invariant,phi", EXPAND_CASES,
                         ids=[f"{D}-{inv}-{phi}" for D, inv, phi in EXPAND_CASES])
def test_expand_matches_the_floating_point_loop(D, invariant, phi):
    # the integer loop agrees with the mpmath loop it replaced within the
    # error bound it returns, at the precisions of test_expand_error_bound_holds
    kind = InvariantKind.parse(invariant)
    d = Discriminant.from_D(D)
    forms = n_system(D, kind.modulus(d), kind.b_target(d))
    if phi is not None:
        forms = [f for f in forms if phi_class(f, d) == phi]
    top = int(mp.mag(height_bound(kind, forms)))
    for prec in (24, top // 2 + 16, top + 24):
        values = classpoly._theta_values(kind, forms, prec)
        if phi is not None:
            assert not any(paired for _, _, paired in values)
            assert all(abs(mp.im(th)) > 2 ** -10 for _, th, _ in values)
        poly, err = classpoly._expand(values, prec)
        want = expand_reference(values, prec)
        with mp.workprec(prec + 64):
            assert max(abs(c - e) for c, e in zip(poly, want)) <= err, prec


def attempt_forms(D, principal):
    """The j N-system at D, or its principal genus (a paper-route attempt)."""
    d = Discriminant.from_D(D)
    forms = n_system(D, J.modulus(d), J.b_target(d))
    return [f for f in forms if phi_class(f, d) == (1,) * d.t] if principal else forms


def counted_forks(monkeypatch):
    """Patch os.fork to count, in the parent, the forks it makes."""
    fork, forks = os.fork, []

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def pin_workers(monkeypatch, workers):
    monkeypatch.setattr(classpoly, "_workers", lambda n, work: workers)


def mpc_rows(values):
    return [(f, th._mpc_, paired) for f, th, paired in values]


# the first attempts of the -2519 j conjugate route (33 values at 993 bits)
# and of the -9911 j paper route (18 values at 5157 bits)
@pytest.mark.parametrize("D,principal,prec,n", [(-2519, False, 993, 33),
                                                (-9911, True, 5157, 18)])
def test_forked_theta_values_are_bit_identical(D, principal, prec, n, monkeypatch):
    # two workers even on a one-CPU runner: the values and their order are
    # those of one worker, bit for bit
    forms = attempt_forms(D, principal)
    forks = counted_forks(monkeypatch)
    pin_workers(monkeypatch, 2)
    forked = classpoly._theta_values(J, forms, prec)
    assert forks == [1]
    pin_workers(monkeypatch, 1)
    serial = classpoly._theta_values(J, forms, prec)
    assert len(serial) == n and mpc_rows(forked) == mpc_rows(serial)


def test_a_failed_fork_leaves_the_share_to_the_parent(monkeypatch):
    # os.fork raising OSError (no process to spare) forks nothing: the parent
    # evaluates that share, and the values are those of one worker
    forms = attempt_forms(-2519, False)
    pin_workers(monkeypatch, 1)
    want = mpc_rows(classpoly._theta_values(J, forms, 200))
    forks = []

    def failing():
        forks.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", failing)
    pin_workers(monkeypatch, 3)
    assert mpc_rows(classpoly._theta_values(J, forms, 200)) == want
    assert forks == [1, 1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_share_raises_and_leaves_no_child(where, monkeypatch):
    # the largest A heads the parent's share and the next one the child's;
    # a child that fails exits non-zero and the parent evaluates its share,
    # so the error surfaces in the parent either way, and every child is
    # reaped (killed first when the parent's own share raises)
    forms = attempt_forms(-2519, False)
    pin_workers(monkeypatch, 1)
    evaluated = [f for f, _, _ in classpoly._theta_values(J, forms, 60)]
    bad = sorted(evaluated, key=lambda f: -f.A)[0 if where == "parent" else 1]
    theta = classpoly.theta_value

    def failing(kind, form, prec=96):
        if form == bad:
            raise ZeroDivisionError(f"theta at {form}")
        return theta(kind, form, prec)

    monkeypatch.setattr(classpoly, "theta_value", failing)
    forks = counted_forks(monkeypatch)
    pin_workers(monkeypatch, 2)
    with pytest.raises(ZeroDivisionError):
        classpoly._theta_values(J, forms, 200)
    assert forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", ["one cpu", "one cpu, no affinity", "no fork",
                                  "another thread", "below the cutoff"])
def test_serial_cases_never_fork(case, monkeypatch):
    # 33 values at 993 bits fork on two CPUs; at 363 bits (33 * 363 bits
    # below _FORK_BITS) they fork on no number of CPUs
    forms = attempt_forms(-2519, False)
    prec = (classpoly._FORK_BITS - 1) // 33 if case == "below the cutoff" else 993
    with monkeypatch.context() as m:
        pin_workers(m, 1)
        want = mpc_rows(classpoly._theta_values(J, forms, prec))

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if case == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif case == "one cpu, no affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif case == "no fork":
        monkeypatch.delattr(os, "fork")
        pin_workers(monkeypatch, 2)
    elif case == "another thread":
        pin_workers(monkeypatch, 2)
        other.start()
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert classpoly._workers(33, 33 * prec) == 1
        assert classpoly._workers(33, 33 * (prec + 1)) == 2
    try:
        got = mpc_rows(classpoly._theta_values(J, forms, prec))
    finally:
        stop.set()
        if other.is_alive():
            other.join(timeout=10)
    assert not other.is_alive()
    assert got == want


# --- the split along Cl^2 (HeckeSplit) -------------------------------------

def split_args(D, kind=J):
    """(d, forms, masks, cosets, k) of the split that ``class_poly_split``
    recovers at D: the N-system, each form's genus mask and H-coset label."""
    d = Discriminant.from_D(D)
    forms = n_system(D, kind.modulus(d), kind.b_target(d))
    labels = [phi_class(f, d) for f in forms]
    square = [reduce_form(f) for f, lab in zip(forms, labels) if lab == (1,) * d.t]
    k, coset = power_cosets(D, square)
    return (d, forms, [classpoly._mask(lab) for lab in labels],
            [coset[reduce_form(f)] for f in forms], k)


def split_rows(split):
    """The rows N a_S of R (but its leading 1) and of every N_j, in order."""
    N = 1 << len(split.R[-1].qstars)
    return [[int(c.coeff(S) * N) for S in range(N)]
            for c in split.R[:-1] + sum(split.N, ())]


def test_split_at_prime_n_is_the_divisor():
    # -47: n = 5 is prime, so k = 1 and the split is the conjugate-route
    # divisor, R = Y - s and N_j = e_j.  The Hecke rounding itself, with
    # one coset per genus, gives R's row and then the divisor's rows
    split = class_poly_split(-47)
    div = class_poly_divisor(-47, route="conjugates")
    assert (split.k, len(split.N), split.degree) == (1, 5, 5)
    assert [row[0] for row in split.N] == list(div.coeffs[:-1])
    assert split.R == div.coeffs[-2:] and split.plan == div.plan
    d, forms, masks, _, _ = split_args(-47)
    T = hecke_T(J, forms, masks, masks)
    rows = classpoly._exact_attempt(J, d.qstars, forms, masks, int(mp.mag(T)) + d.t, T, masks)
    assert rows == split_rows(split)


@pytest.mark.parametrize("D,bits", [(-2519, (979, 577)), (-9911, (1243, 980))])
def test_hecke_T_is_the_closed_form(D, bits):
    # log2 of genus_T0 and of the split's T (its T_N at both): the split
    # needs about half the precision, and class_poly_split recovers at it
    d, forms, masks, cosets, _ = split_args(D)
    T = hecke_T(J, forms, masks, cosets)
    T0 = genus_T0(J, forms, [phi_class(f, d) for f in forms])
    assert (int(mp.log(T0, 2)), int(mp.log(T, 2))) == bits
    split = class_poly_split(D)
    assert (split.plan.T, split.plan.B) == (T, int(mp.mag(T)) + d.t)


@pytest.mark.parametrize("D", [-1239, -2519])
def test_split_attempt_escalates_or_is_exact(D):
    # below log2 T + t an attempt escalates; at it the rows are R's and the
    # N_j's; with T just below their largest embedding (the a-priori bound
    # and every rounding still pass) only the height check stops it
    d, forms, masks, cosets, k = split_args(D)
    split = class_poly_split(D)
    T, B = split.plan.T, split.plan.B
    want = split_rows(split)
    assert split.k == k and len(want) == k * (1 + len(split.N))
    with pytest.raises(PrecisionEscalation):
        classpoly._exact_attempt(J, d.qstars, forms, masks, 8, T, cosets)
    assert classpoly._exact_attempt(J, d.qstars, forms, masks, B, T, cosets) == want
    with mp.workprec(B + 64):
        top = max(abs(v) for c in split.R[:-1] + sum(split.N, ())
                  for v in embeddings(c, B + 64))
        below = top * (1 - mp.mpf(2) ** -20)
    with pytest.raises(PrecisionEscalation, match="height bound"):
        classpoly._exact_attempt(J, d.qstars, forms, masks, B, below, cosets)


def test_hecke_takes_apart_a_pair_split_across_cosets(monkeypatch):
    # at -2519 (H of index 4 in the cyclic Cl^2 of order 32) a class x and
    # its inverse share an H-coset exactly when x^2 is in H: those pairs
    # stay paired, and every other form goes unpaired into its own coset
    # while its mirror's coset gets the conjugate value
    d, forms, masks, cosets, k = split_args(-2519)
    coset = dict(zip(forms, cosets))
    genus = [f for f, mu in zip(forms, masks) if mu == 0]
    values = classpoly._theta_values(J, genus, 100)

    def mirror(f):
        return QuadForm(f.A, -f.B, f.C)

    apart = [(f, v) for f, v, paired in values if paired and coset[mirror(f)] != coset[f]]
    kept = [f for f, _, paired in values if paired and coset[mirror(f)] == coset[f]]
    assert apart and kept
    groups = []
    fixed = classpoly._fixed

    def recording(vals, P):
        groups.append(list(vals))
        return fixed(vals, P)

    monkeypatch.setattr(classpoly, "_fixed", recording)
    classpoly._hecke(values, coset, 100)
    assert len(groups) == k
    for g in groups:
        assert len({coset[f] for f, _, _ in g}) == 1
        assert sum(1 + paired for _, _, paired in g) == 8
    entry = {f: (v, paired) for g in groups for f, v, paired in g}
    for f, v in apart:
        assert entry[f] == (v, False) and entry[mirror(f)] == (mp.conj(v), False)
    for f in kept:
        assert entry[f][1] is True and mirror(f) not in entry


@pytest.mark.parametrize("shift", [40, 20])
def test_split_never_returns_a_wrong_coefficient(shift, monkeypatch):
    # one theta value off by a relative 2^-shift, far above the split's
    # claim on theta at -2519 (j exceeds 2^28): it escalates until the cap
    # stops it, or returns the right R and N_j
    want = class_poly_split(-2519)
    classpoly._DIVISORS.clear()
    theta = classpoly.theta_value
    seen = []

    def skewed(kind, form, prec=96):
        seen.append(form)
        v = theta(kind, form, prec)
        with mp.workprec(prec + 64):
            return v * (1 + mp.mpf(2) ** -shift) if form == seen[0] else v

    monkeypatch.setattr(classpoly, "_workers", lambda n, work: 1)
    monkeypatch.setattr(classpoly, "theta_value", skewed)
    try:
        got = class_poly_split(-2519, max_bits=2 * want.plan.B)
    except PrecisionExhausted:
        return
    assert (got.R, got.N) == (want.R, want.N)
