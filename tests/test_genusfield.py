"""Tests for exact multiquadratic field arithmetic and integral bases.

The main oracles here: (1) mpmath numerics with independently flipped
principal roots, checking that tau really is "conjugate the embedding";
(2) the exact duality identities, which pin every sign in the basis
constructions; (3) monic minimal-polynomial integrality for the claimed
algebraic integers.
"""

import dataclasses
import functools
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from cmforge import genusfield
from cmforge.arith import Discriminant
from cmforge.errors import InternalInvariantError, InvalidParameters
from cmforge.genusfield import (
    CASE_ALL_ODD,
    CASE_ALLPOS,
    CASE_MIXED,
    CASE_PLUS8,
    GFElem,
    GenusBasis,
    IMAG_PART,
    OTHER_SIDE,
    REAL_PART,
    build_basis,
    build_mpair,
    default_x_set,
    delta_g,
    embeddings,
    gf_monomial,
    gf_rational,
    gf_to_json,
    root_products,
    structure_constants,
    walsh_hadamard,
)


def fundamental_range(bound):
    out = []
    for D in range(-3, -bound - 1, -1):
        if D % 4 in (0, 1):
            disc = Discriminant.from_D(D)
            if disc.f == 1:
                out.append(disc)
    return out


def rand_elem(rng, qstars, max_terms=3, size=9):
    x = gf_rational(qstars, 0)
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(1 << len(qstars))
        x = x + gf_monomial(qstars, mask, rng.randint(-size, size), rng.randint(1, 4))
    return x


def from_json(qstars, blob):
    """The element that gf_to_json serialized as blob."""
    x = gf_rational(qstars, 0)
    for k, v in blob.items():
        v = Fraction(v)
        x = x + gf_monomial(qstars, int(k), v.numerator, v.denominator)
    return x


def sqrt_q(qstars, i):
    return gf_monomial(qstars, 1 << i)


def sqrt_d(qstars):
    return gf_monomial(qstars, (1 << len(qstars)) - 1)


def duality_sum(basis, eta, nu):
    """Sum over mu < m of (-1)^|mu| tau_mu(beta_eta * beta_star_nu), term
    by term: the reference for build_basis's transform check, sqrt_d when
    eta == nu and 0 otherwise for a correct basis."""
    prod = basis.beta[eta] * basis.beta_star[nu]
    acc = gf_rational(basis.qstars, 0)
    for mu in range(basis.m):
        term = prod.tau(mu)
        acc = acc + (-term if mu.bit_count() % 2 else term)
    return acc


@functools.cache
def _flipped_root_products(qstars, mu, prec):
    """r_S for every mask S, product by product from scratch, with the
    principal root of q_i negated for each bit i of mu."""
    with mp.workprec(prec):
        roots = [-mp.sqrt(mp.mpc(q)) if mu >> i & 1 else mp.sqrt(mp.mpc(q))
                 for i, q in enumerate(qstars)]
        out = []
        for S in range(1 << len(qstars)):
            w = mp.mpc(1)
            for i, r in enumerate(roots):
                if S >> i & 1:
                    w = w * r
            out.append(w)
        return tuple(out)


def sigma_ref(x, mu=0, prec=400):
    """sigma_mu(x) = sum_S (-1)^|mu & S| x_S r_S, term by term with the root
    of q_i negated for each bit i of mu: the reference for ``embeddings``,
    as duality_sum is for build_basis's transform check."""
    with mp.workprec(prec):
        tot = mp.mpc(0)
        for S, w in enumerate(_flipped_root_products(x.qstars, mu, prec)):
            co = x.coeff(S)
            if co:
                tot += w * mp.mpf(co.numerator) / co.denominator
        return +tot


# ---------------------------------------------------------------- raw field


def test_mul_rules_examples():
    q = (5, -8)
    s5 = sqrt_q(q, 0)
    s8 = sqrt_q(q, 1)
    assert s5 * s5 == 5
    assert s5 * s8 == sqrt_d(q)
    assert s8.tau(s8.neg_mask) == -s8
    assert s5.tau(s5.neg_mask) == s5


def test_product_of_two_imaginary_roots_is_negative_real():
    q = (-3, -7, -4)
    prod = sqrt_q(q, 0) * sqrt_q(q, 1)
    assert prod == gf_monomial(q, 0b011)
    with mp.workprec(80):
        v = embeddings(prod, 80)[0]
        assert v.imag == 0 and abs(v.real + mp.sqrt(21)) < mp.mpf(2) ** -60  # -sqrt(21)


def test_numeric_principal_roots():
    q = (5, -3)
    with mp.workprec(80):
        v5 = embeddings(sqrt_q(q, 0), 80)[0]
        v3 = embeddings(sqrt_q(q, 1), 80)[0]
        assert abs(v5 - mp.sqrt(5)) < mp.mpf(2) ** -70
        assert v3.real == 0 and abs(v3.imag - mp.sqrt(3)) < mp.mpf(2) ** -70


def test_ring_laws_random():
    rng = random.Random(20240817)
    q = (-3, -7, -4)
    one = gf_rational(q, 1)
    for _ in range(1000):
        a = rand_elem(rng, q)
        b = rand_elem(rng, q)
        c = rand_elem(rng, q)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
    assert (a - a).is_zero()


def test_scalar_ops_and_pow():
    q = (5, -8)
    x = GFElem(q, [1, 1, 0, 0], 2)  # (1+sqrt5)/2
    assert 2 * x == GFElem(q, [1, 1, 0, 0])
    assert x * x == x + 1  # golden ratio relation
    assert gf_rational(q, 1) == 1


def test_tau_is_field_automorphism():
    rng = random.Random(7)
    q = (5, -3, -7, -4)
    for _ in range(120):
        x = rand_elem(rng, q)
        y = rand_elem(rng, q)
        lam = rng.randrange(1 << len(q))
        assert (x * y).tau(lam) == x.tau(lam) * y.tau(lam)
        assert (x + y).tau(lam) == x.tau(lam) + y.tau(lam)
        assert x.tau(lam).tau(lam) == x
        mu = rng.randrange(1 << len(q))
        assert x.tau(lam).tau(mu) == x.tau(mu ^ lam)


def test_tau_matches_numeric_root_flips():
    rng = random.Random(99)
    q = (5, -3, -7, -4)
    for _ in range(40):
        x = rand_elem(rng, q)
        lam = rng.randrange(1 << len(q))
        want = sigma_ref(x, lam, 160)
        assert abs(sigma_ref(x.tau(lam), 0, 160) - want) < mp.mpf(2) ** -130
        assert abs(embeddings(x, 160)[lam] - want) < mp.mpf(2) ** -130


@pytest.mark.parametrize("q", [(-3,), (5, -4), (8, 5, -3), (5, -3, -7, -4),
                               (8, 5, 13, -3, -7)])
def test_walsh_hadamard_of_conjugates(q):
    # sum_mu (-1)^|mu & S| tau_mu(x) keeps exactly the r_S term, N times
    rng = random.Random(len(q))
    N = 1 << len(q)
    for _ in range(5):
        x = rand_elem(rng, q, max_terms=N)
        got = walsh_hadamard([x.tau(mu) for mu in range(N)])
        for S in range(N):
            assert got[S] == gf_monomial(q, S, N * x.nums[S], x.den)
        # embeddings: every sigma_mu(x) within 2^(t+3-prec) K, K the largest
        want = [sigma_ref(x, mu) for mu in range(N)]
        with mp.workprec(400):
            K = max(abs(v) for v in want)
        for prec in (53, 100):
            for v, w in zip(embeddings(x, prec), want):
                with mp.workprec(400):
                    assert abs(v - w) <= mp.mpf(2) ** (len(q) + 3 - prec) * K


def test_numeric_ignores_the_order_of_precisions():
    # root_products is memoized by precision: a value never depends on which
    # precision was asked for first
    rng = random.Random(3)
    q = (8, 5, 13, -3, -7)
    xs = [rand_elem(rng, q, max_terms=8) for _ in range(4)]

    def values(precs):
        root_products.cache_clear()
        out = {}
        for prec in precs:
            for i, x in enumerate(xs):
                emb = embeddings(x, prec)
                for lam in (0, 5, 31):
                    out[prec, i, lam] = emb[lam]
        return out

    assert values((80, 240)) == values((240, 80))


def test_conj_matches_complex_conjugation():
    rng = random.Random(5)
    q = (5, -3, -7, -4)
    for _ in range(40):
        x = rand_elem(rng, q)
        emb = embeddings(x, 160)
        with mp.workprec(160):
            assert abs(emb[x.neg_mask] - mp.conj(emb[0])) < mp.mpf(2) ** -130
            assert abs(emb[x.neg_mask] - sigma_ref(x.tau(x.neg_mask), 0, 160)) \
                < mp.mpf(2) ** -130


def test_inverse_and_division():
    rng = random.Random(11)
    q = (8, 5, -3)
    for _ in range(60):
        a = rand_elem(rng, q)
        if a.is_zero():
            continue
        assert a * a.inv() == 1
        b = rand_elem(rng, q)
        assert (a * b) * a.inv() == b
    with pytest.raises(ZeroDivisionError):
        gf_rational(q, 0).inv()


def test_normal_form_equality_and_repr():
    q = (5, -8)
    x = GFElem(q, [1, 1, 0, 0], 2)                  # (1 + sqrt5)/2
    y = GFElem(q, [-2, -2, 0, 0], -4)               # the same, negative denominator
    assert (y.nums, y.den) == (x.nums, x.den) == ((1, 1, 0, 0), 2)
    assert y == x and hash(y) == hash(x)
    assert x.__eq__("x") is NotImplemented and x != "x"
    assert repr(x) == "GF<1/2 + 1/2*sqrt(5)>"
    assert repr(GFElem(q, [0, 0, 0, 3])) == "GF<3*sqrt(5)*sqrt(-8)>"
    assert repr(gf_rational(q, 0)) == "GF<0>"
    with pytest.raises(InternalInvariantError):
        x.as_fraction()                             # not rational
    with pytest.raises(InvalidParameters):
        x.tau(4)                                    # two generators: labels 0..3


def test_mismatched_fields_rejected():
    with pytest.raises(InvalidParameters):
        gf_rational((5, -8), 1) * gf_rational((-3, -7, -4), 1)


def test_serialization_roundtrip():
    # {mask-as-decimal-string: "num/den"} holds every coordinate exactly
    rng = random.Random(3)
    q = (5, -3, -7, -4)
    for _ in range(20):
        x = rand_elem(rng, q)
        blob = gf_to_json(x)
        assert from_json(q, blob) == x


# ---------------------------------------------------------------- bases


CASE_TABLE = [
    (-40, CASE_ALLPOS),
    (-84, CASE_MIXED),
    (-120, CASE_PLUS8),
    (-420, CASE_MIXED),
    (-15, CASE_ALL_ODD),
    (-231, CASE_ALL_ODD),
    (-340, CASE_ALLPOS),
    (-3, CASE_ALL_ODD),
    (-4, CASE_ALLPOS),
    (-8, CASE_ALLPOS),
]


@pytest.mark.parametrize("D,case", CASE_TABLE)
def test_case_assignment(D, case):
    basis = build_basis(Discriminant.from_D(D))
    assert basis.case == case
    assert len(basis.beta) == basis.m == 1 << (basis.t - 1)


def test_basis_minus40_explicit():
    basis = build_basis(Discriminant.from_D(-40))
    q = basis.qstars
    a1 = GFElem(q, [1, 1, 0, 0], 2)
    a1t = GFElem(q, [1, -1, 0, 0], 2)
    s8 = sqrt_q(q, 1)
    assert basis.beta == (a1, a1t)
    assert basis.beta_star == (a1 * s8, -(a1t * s8))


def test_basis_minus15_explicit():
    basis = build_basis(Discriminant.from_D(-15))
    q = basis.qstars
    assert basis.beta[0] == GFElem(q, [1, 1, 0, 0], 2)
    assert basis.beta[1] == GFElem(q, [1, -1, 0, 0], 2)
    s3 = sqrt_q(q, 1)
    assert basis.beta_star[0] == basis.beta[0] * s3
    assert basis.beta_star[1] == -(basis.beta[1] * s3)


def test_basis_degenerate_t1():
    with mp.workprec(80):
        for D, imag_value in ((-3, mp.sqrt(3)), (-4, 2), (-8, 2 * mp.sqrt(2))):
            basis = build_basis(Discriminant.from_D(D))
            assert basis.m == 1
            assert basis.beta == (gf_rational(basis.qstars, 1),)
            assert basis.beta_star == (sqrt_d(basis.qstars),)
            v = embeddings(basis.beta_star[0], 80)[0]
            assert v.real == 0
            assert abs(v.imag - imag_value) < mp.mpf(2) ** -60


def test_beta_real_beta_star_imaginary():
    for D in (-40, -84, -120, -420, -231, -455):
        basis = build_basis(Discriminant.from_D(D))
        for mu in range(basis.m):
            assert basis.beta[mu].is_real()
            assert basis.beta_star[mu].is_imag()
            # and numerically: conj fixes beta, negates beta_star
            b = embeddings(basis.beta[mu], 96)[0]
            assert b.imag == 0
            s = embeddings(basis.beta_star[mu], 96)[0]
            assert s.real == 0


def test_duality_exact_small_range():
    for disc in fundamental_range(200):
        basis = build_basis(disc)  # construction already verifies duality
        sd = sqrt_d(basis.qstars)
        for eta in range(basis.m):
            for nu in range(basis.m):
                want = sd if eta == nu else gf_rational(basis.qstars, 0)
                assert duality_sum(basis, eta, nu) == want


def _minpoly_coeffs(x):
    """Coefficients (descending) of prod over the full group of (X - tau(x))."""
    t = len(x.qstars)
    poly = [gf_rational(x.qstars, 1)]
    for lam in range(1 << t):
        root = x.tau(lam)
        new = [gf_rational(x.qstars, 0) for _ in range(len(poly) + 1)]
        for i, co in enumerate(poly):
            new[i] = new[i] + co
            new[i + 1] = new[i + 1] - co * root
        poly = new
    return poly


@pytest.mark.parametrize("D", [-15, -40, -84, -120, -231])
def test_basis_elements_are_algebraic_integers(D):
    basis = build_basis(Discriminant.from_D(D))
    for elem in basis.beta + basis.beta_star:
        coeffs = _minpoly_coeffs(elem)
        assert coeffs[0] == 1
        for co in coeffs:
            f = co.as_fraction()  # raises if not rational
            assert f.denominator == 1


def test_coords_roundtrip():
    rng = random.Random(31)
    for D in (-40, -84, -420):
        basis = build_basis(Discriminant.from_D(D))
        for _ in range(25):
            coords = [rng.randint(-50, 50) for _ in range(basis.m)]
            v = gf_rational(basis.qstars, 0)
            for n, b in zip(coords, basis.beta):
                v = v + n * b
            got = basis.coords(v, REAL_PART)
            assert got == [Fraction(n) for n in coords]
            w = gf_rational(basis.qstars, 0)
            for n, b in zip(coords, basis.beta_star):
                w = w + n * b
            assert basis.coords(w, IMAG_PART) == [Fraction(n) for n in coords]
            assert basis.element(coords, REAL_PART) == v
            assert basis.element(coords, IMAG_PART) == w


def test_family_rejects_unknown_side():
    basis = build_basis(Discriminant.from_D(-40))
    assert basis.family(REAL_PART) == basis.beta
    assert basis.family(IMAG_PART) == basis.beta_star
    with pytest.raises(InvalidParameters):
        basis.family("sideways")


# ---------------------------------------------------------------- dual systems


@pytest.mark.parametrize("D", [-3, -4, -8, -15, -40, -84, -120, -231, -420])
@pytest.mark.parametrize("side", [REAL_PART, IMAG_PART])
def test_mpair_builds_and_verifies(D, side):
    basis = build_basis(Discriminant.from_D(D))
    pair = build_mpair(basis)  # duality verified inside
    assert pair.omegas[side][0] == 1 and pair.omega_star(side)[0] == 1
    assert pair.omega_star(side) == pair.omegas[OTHER_SIDE[side]]
    assert pair.norm(side) == basis.family(side)[0]
    for mu in range(basis.m):
        assert pair.omegas[side][mu] == basis.family(side)[mu] * pair.norm(side).inv()
        assert pair.omegas[side][mu].is_real()
        assert pair.omega_star(side)[mu].is_real()
        assert pair.mvals[mu].is_real()


def _dual_identity_holds(pair, side):
    """Sum_mu M(tau_mu) tau_mu(omega_star_lam * omega_lam') = [lam == lam']."""
    m = pair.basis.m
    om, oms = pair.omegas[side], pair.omega_star(side)
    for lam in range(m):
        for lamp in range(m):
            prod = oms[lam] * om[lamp]
            acc = gf_rational(pair.basis.qstars, 0)
            for mu in range(m):
                acc = acc + pair.mvals[mu] * prod.tau(mu)
            if acc != (1 if lam == lamp else 0):
                return False
    return True


def test_dual_identity_imag_orientation_minus3135():
    # build_mpair checks the REAL_PART orientation only; check the
    # IMAG_PART one directly rather than by the transposition argument
    pair = build_mpair(build_basis(Discriminant.from_D(-3135)))
    assert pair.basis.m == 8
    assert _dual_identity_holds(pair, IMAG_PART)
    # and the check can fail: a wrong sign on one M-value breaks it
    bad = pair.mvals[:1] + (-pair.mvals[1],) + pair.mvals[2:]
    assert not _dual_identity_holds(dataclasses.replace(pair, mvals=bad), IMAG_PART)


@pytest.mark.parametrize("D", [-40, -420, -3135, -5460])
def test_basis_rejects_a_wrong_duality(D, monkeypatch):
    # beta*_1 negated leaves (eta, nu) = (1, 1) summing to -sqrt_d
    def negated(qstars, u, case, beta, beta_star):
        return GenusBasis(qstars, u, case, beta,
                          (beta_star[0], -beta_star[1]) + tuple(beta_star[2:]))

    monkeypatch.setattr(genusfield, "GenusBasis", negated)
    with pytest.raises(InternalInvariantError, match="basis duality failed.* eta=1 nu=1$"):
        build_basis(Discriminant.from_D(D))


@pytest.mark.parametrize("D", [-420, -3135, -5460])
def test_mpair_rejects_a_wrong_dual_system(D):
    # beta*_1 negated leaves every M-value as it was (they depend on
    # beta_0 beta*_0 alone) but makes omega_1 omega*_1 sum to -1
    b = build_basis(Discriminant.from_D(D))
    assert b.m in (8, 16)
    bad = (b.beta_star[0], -b.beta_star[1]) + b.beta_star[2:]
    with pytest.raises(InternalInvariantError, match="dual-system identity failed"):
        build_mpair(GenusBasis(b.qstars, b.u, b.case, b.beta, bad))


def test_mpair_omega_minus40():
    basis = build_basis(Discriminant.from_D(-40))
    pair = build_mpair(basis)
    # omega_1 = (1-sqrt5)/(1+sqrt5) = (sqrt5-3)/2
    q = basis.qstars
    want = GFElem(q, [-3, 1, 0, 0], 2)
    assert pair.omegas[REAL_PART][1] == want
    # M(Id) = beta_0*beta_star_0/sqrt(d); check against duality by hand
    acc = gf_rational(q, 0)
    for mu in range(basis.m):
        prod = pair.omegas[REAL_PART][0] * pair.omega_star(REAL_PART)[0]
        acc = acc + pair.mvals[mu] * prod.tau(mu)
    assert acc == 1


def test_integer_combinations_of_omega_star():
    # any algebraic integer of the real subfield has integer coords over
    # omega_star, on both sides (checked on beta-combinations)
    rng = random.Random(77)
    for D in (-40, -84, -120):
        basis = build_basis(Discriminant.from_D(D))
        for _ in range(20):
            coords = [rng.randint(-9, 9) for _ in range(basis.m)]
            x = gf_rational(basis.qstars, 0)
            for n, b in zip(coords, basis.beta):
                x = x + n * b
            # REAL_PART: omega_star = beta_star/beta_star_0
            for co in basis.coords(x * basis.beta_star[0], IMAG_PART):
                assert co.denominator == 1
            # IMAG_PART: omega_star = beta/beta_0
            for co in basis.coords(x * basis.beta[0], REAL_PART):
                assert co.denominator == 1


# ---------------------------------------------------------------- delta/g


def test_delta_g_examples():
    d40 = Discriminant.from_D(-40)
    delta, g = delta_g(d40, 1)
    assert delta == 5
    assert g == GFElem(d40.qstars, [1, 1, 0, 0], 2)
    d84 = Discriminant.from_D(-84)
    assert delta_g(d84, 0b01)[0] == 12
    assert delta_g(d84, 0b11)[0] == 21
    assert delta_g(d84, 0b10)[0] == 28
    # numeric: g for delta=12 is sqrt(3)
    g12 = delta_g(d84, 0b01)[1]
    with mp.workprec(80):
        assert abs(sigma_ref(g12, 0, 80).real - mp.sqrt(3)) < mp.mpf(2) ** -60


def test_delta_g_positive_and_integral():
    for D in (-40, -84, -120, -420, -231, -455):
        disc = Discriminant.from_D(D)
        seen = set()
        for lam in range(1, 1 << (disc.t - 1)):
            delta, g = delta_g(disc, lam)
            assert delta > 1
            assert math.isqrt(delta) ** 2 != delta
            sqfree = delta
            for p in (2, 3, 5, 7, 11, 13):
                while sqfree % (p * p) == 0:
                    sqfree //= p * p
            assert sqfree not in seen  # distinct quadratic subfields
            seen.add(sqfree)
            assert sigma_ref(g, 0, 80).real > 1
            # g is an algebraic integer: monic quadratic relation
            if delta % 2:
                assert g * g - g - Fraction(delta - 1, 4) == 0
            else:
                assert g * g - Fraction(delta, 4) == 0
            assert g.is_real()


def test_delta_g_rejects_zero_label():
    with pytest.raises(InvalidParameters):
        delta_g(Discriminant.from_D(-40), 0)


# ---------------------------------------------------------------- structure constants


def test_structure_constants_identity_block():
    for D in (-40, -84):
        basis = build_basis(Discriminant.from_D(D))
        for side in (REAL_PART, IMAG_PART):
            tensor = structure_constants(basis, side)
            # X_0 = 1 block is the identity matrix
            for xi in range(basis.m):
                for mu in range(basis.m):
                    assert tensor[0][xi][mu] == (1 if xi == mu else 0)


def test_structure_constants_t1():
    basis = build_basis(Discriminant.from_D(-3))
    for side in (REAL_PART, IMAG_PART):
        assert structure_constants(basis, side) == (((1,),),)


def test_mpair_holds_both_tensors():
    basis = build_basis(Discriminant.from_D(-84))
    pair = build_mpair(basis)
    assert pair.X_set == default_x_set(basis) and pair.X_set[0] == 1
    for side in (REAL_PART, IMAG_PART):
        assert pair.tensors[side] == structure_constants(basis, side)
    assert pair.tensors[REAL_PART] != pair.tensors[IMAG_PART]


# (side, dual) as before the M-pair folded its two orientations: dual=False
# is the tensor over omega(side), the one recovery on side uses; dual=True
# the tensor over omega_star(side), the one the run on side uses
@pytest.mark.parametrize("D", [-40, -84, -120, -420])
@pytest.mark.parametrize("side", [REAL_PART, IMAG_PART])
@pytest.mark.parametrize("dual", [False, True])
def test_structure_constants_match_numerics(D, side, dual):
    basis = build_basis(Discriminant.from_D(D))
    pair = build_mpair(basis)
    tensor = pair.tensors[OTHER_SIDE[side] if dual else side]
    fam = pair.omega_star(side) if dual else pair.omegas[side]
    prec = 120
    with mp.workprec(prec):
        for eta in range(basis.m):
            xv = sigma_ref(pair.X_set[eta], 0, prec).real
            for xi in range(basis.m):
                want = sigma_ref(fam[xi], 0, prec).real * xv
                got = mp.mpf(0)
                for mu in range(basis.m):
                    got += tensor[eta][xi][mu] * sigma_ref(fam[mu], 0, prec).real
                assert abs(got - want) < mp.mpf(2) ** -90


def test_default_x_set_is_one_plus_generators():
    basis = build_basis(Discriminant.from_D(-84))
    xs = default_x_set(basis)
    assert xs[0] == 1
    for lam in range(1, basis.m):
        assert xs[lam] == delta_g(basis, lam)[1]
