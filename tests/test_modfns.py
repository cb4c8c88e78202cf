import mpmath
import pytest
from mpmath import mp

from cmforge.arith import Discriminant
from cmforge.classpoly import hecke_T
from cmforge.errors import InvalidParameters, UnsupportedInvariant
from cmforge.forms import QuadForm, n_system, root_of_form
from cmforge.modfns import (
    _GAMMA2,
    _WEBER,
    InvariantKind,
    _addition_sequence,
    _double_eta,
    _eta_quotient,
    _pentagonal,
    theta_bound,
    theta_value,
)
from test_golden import DIVISORS, FULL

J = InvariantKind.j()
WEBER = InvariantKind("weber")
ETA = (24, ((24, 1, 1),), 1, 1)   # eta(z) = q^(1/24) P(q), as a kernel quotient


def eta(z, prec):
    return _eta_quotient(z, *ETA, prec)


def height_reference(kind, forms):
    """prod (1 + theta_bound) over ``forms`` at 64 bits, padded by
    1 + 2^-32: the bound every coefficient of their polynomial meets by
    Vieta, which ``hecke_T`` gives at one coset."""
    with mp.workprec(64):
        T = mp.one
        for f in forms:
            T *= 1 + theta_bound(kind, f)
        return T * (1 + mp.mpf(2) ** -32)


def weber_f(z, prec):
    return _eta_quotient(z, *_WEBER["f"], prec)


def weber_f1(z, prec):
    return _eta_quotient(z, *_WEBER["f1"], prec)


def gamma2(z, prec):
    # (f2^24 + 16) / f2^8, as theta_value takes it from the kernel's f2^8
    e8 = 16 * _eta_quotient(z, *_GAMMA2, prec)
    return (e8 ** 3 + 16) / e8


def singular_form(D):
    # the principal form, whose root is (1 + sqrt D)/2 or sqrt(D)/2 up to a translation
    return QuadForm(1, 1, (1 - D) // 4) if D % 4 == 1 else QuadForm(1, 0, -D // 4)


def eta_product_oracle(z, terms=800):
    # independent reference: the q-product definition
    q = mpmath.exp(2j * mp.pi * z)
    out = mpmath.exp(mp.pi * 1j * z / 12)
    for k in range(1, terms):
        out *= 1 - q ** k
    return out


SAMPLE_POINTS = [
    mp.mpc(0, 1),
    mp.mpc(0.5, 0.9),
    mp.mpc(-0.37, 1.3),
    mp.mpc(-96, mp.sqrt(10)) / 7,
    mp.mpc(3, 0.31),
]


def test_eta_against_product():
    with mp.workprec(220):
        for z in SAMPLE_POINTS:
            a, b = eta(z, 150), eta_product_oracle(z)
            assert abs(a - b) < mp.mpf(2) ** -140, z


def test_eta_closed_form_at_i():
    with mp.workprec(260):
        want = mpmath.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** (mp.mpf(3) / 4))
        assert abs(eta(mp.mpc(0, 1), 200) - want) < mp.mpf(2) ** -190


def test_eta_modularity():
    with mp.workprec(200):
        for z in SAMPLE_POINTS:
            lhs = eta(z + 1, 140)
            rhs = mp.exp(mp.pi * 1j / 12) * eta(z, 140)
            assert abs(lhs - rhs) < mp.mpf(2) ** -130
            lhs = eta(-1 / z, 140)
            rhs = mp.sqrt(-1j * z) * eta(z, 140)
            assert abs(lhs - rhs) < mp.mpf(2) ** -130


def test_eta_rejects_lower_half_plane():
    with pytest.raises(InvalidParameters):
        eta(mp.mpc(0, -1), 64)


def test_weber_identities():
    with mp.workprec(200):
        for z in SAMPLE_POINTS:
            f, f1 = weber_f(z, 140), weber_f1(z, 140)
            f2 = mp.sqrt(2) * eta(2 * z, 140) / eta(z, 140)
            assert abs(f * f1 * f2 - mp.sqrt(2)) < mp.mpf(2) ** -120
            assert abs(f1 ** 8 + f2 ** 8 - f ** 8) < mp.mpf(2) ** -115
            assert abs(weber_f1(2 * z, 140) * f2 - mp.sqrt(2)) < mp.mpf(2) ** -120
            # the three expressions for gamma2 agree
            g = gamma2(z, 140)
            assert abs((f ** 24 - 16) / f ** 8 - g) < abs(g) * mp.mpf(2) ** -110
            assert abs((f1 ** 24 + 16) / f1 ** 8 - g) < abs(g) * mp.mpf(2) ** -110


# singular moduli for the nine class-number-one discriminants are classical
SINGULAR_J = {
    -3: 0,
    -4: 1728,
    -7: -3375,
    -8: 8000,
    -11: -32768,
    -19: -884736,
    -43: -884736000,
    -67: -147197952000,
    -163: -262537412640768000,
}


@pytest.mark.parametrize("D,val", sorted(SINGULAR_J.items()))
def test_singular_moduli(D, val):
    with mp.workprec(400):
        assert abs(theta_value(J, singular_form(D), 330) - val) < mp.mpf(2) ** -40


def test_j_at_form_roots_minus40():
    with mp.workprec(220):
        vals = [theta_value(J, f, 160) for f in (QuadForm(1, 0, 10), QuadForm(2, 0, 5))]
        s, p = vals[0] + vals[1], vals[0] * vals[1]
        assert abs(s - 425692800) < 1e-20
        assert abs(p - 9103145472000) < 1e-15


def test_gamma2_minus40():
    sys3 = n_system(-40, 3, 0)
    with mp.workprec(220):
        vals = [theta_value(InvariantKind("gamma2"), f, 160) for f in sys3]
        assert abs(vals[0] + vals[1] - 780) < 1e-30
        assert abs(vals[0] * vals[1] - 20880) < 1e-30


def test_gamma2_preconditions():
    with pytest.raises(InvalidParameters):
        theta_value(InvariantKind("gamma2"), QuadForm(1, 1, 1), 96)  # B not divisible by 3
    with pytest.raises(UnsupportedInvariant):
        InvariantKind("gamma2").validate_for(Discriminant.from_D(-84))  # 3 | D


def test_weber_g_uncubed_minus40():
    sys48 = n_system(-40, 48, 0)
    with mp.workprec(260):
        g1, g2 = (theta_value(WEBER, f, 200) for f in sys48)
        assert abs(g1 + g2 - 1) < 1e-45
        assert abs(g1 * g2 + 1) < 1e-45


def test_weber_g_relates_back_to_j():
    # from g one can reconstruct f1^24 and hence j; the multiset of j values
    # must match the direct evaluations (D = -40 is the m = 2 mod 4 case)
    sys48 = n_system(-40, 48, 0)
    with mp.workprec(260):
        js = sorted((theta_value(J, f, 200) for f in sys48), key=lambda v: v.real)
        from_g = []
        for f in sys48:
            g = theta_value(WEBER, f, 200)
            x = 64 * g ** 12  # (sqrt2 * g)^12 = f1^24, the (2/A) sign drops out
            from_g.append((x + 16) ** 3 / x)
        from_g.sort(key=lambda v: v.real)
        for a, b in zip(js, from_g):
            assert abs(a - b) < 1e-30


def test_weber_g_cubed_16_system():
    # D = -84: m = 21 = 5 (mod 8), cubed convention since 3 | D
    sys16 = n_system(-84, 16, 0)
    disc = Discriminant.from_D(-84)
    assert InvariantKind("weber").weber_cubed(disc.D)
    with mp.workprec(300):
        vals = [theta_value(InvariantKind("weber"), f, 220) for f in sys16]
        # symmetric functions must be (real) integers
        s1 = sum(vals)
        s4 = vals[0] * vals[1] * vals[2] * vals[3]
        assert abs(s1.imag) < 1e-35 and abs(s1.real - mp.nint(s1.real)) < 1e-30
        assert abs(s4.imag) < 1e-35 and abs(s4.real - mp.nint(s4.real)) < 1e-30
        # and reconstructing j from f^24 = (2 * (g^(1/3)))^... checks the case wiring:
        # m = 5 (mod 8): g = (f^4/2)^3 so f^24 = (8g)^2
        js = sorted((theta_value(J, f, 220) for f in sys16), key=lambda v: (v.real, v.imag))
        from_g = sorted((((8 * v) ** 2 - 16) ** 3 / (8 * v) ** 2 for v in vals),
                        key=lambda v: (v.real, v.imag))
        for a, b in zip(js, from_g):
            assert abs(a - b) < abs(a) * mp.mpf(2) ** -60 + mp.mpf(2) ** -60


def test_weber_g_preconditions():
    with pytest.raises(InvalidParameters):
        theta_value(WEBER, QuadForm(1, 2, 11), 96)  # B not divisible by 32
    with pytest.raises(UnsupportedInvariant):
        theta_value(WEBER, QuadForm(1, 1, 1), 96)  # odd discriminant
    with pytest.raises(UnsupportedInvariant):
        InvariantKind("weber").validate_for(Discriminant.from_D(-32))  # m = 8
    with pytest.raises(InvalidParameters, match="uncubed"):
        theta_value(WEBER, QuadForm(3, 32, 86), 96)  # D = -8 is uncubed, and 3 | A


def test_double_eta_minus40():
    disc = Discriminant.from_D(-40)
    k57 = InvariantKind.double_eta(5, 7)
    sys35 = n_system(-40, 35, k57.b_target(disc))
    with mp.workprec(260):
        v = [theta_value(k57, f, 200) for f in sys35]
        assert abs(v[0] + v[1] - 1) < 1e-40 and abs(v[0] * v[1] + 1) < 1e-40
    k1113 = InvariantKind.double_eta(11, 13)
    sys143 = n_system(-40, 143, k1113.b_target(disc))
    with mp.workprec(260):
        v = [theta_value(k1113, f, 200) for f in sys143]
        s, p = v[0] + v[1], v[0] * v[1]
        assert abs(p - 1) < 1e-35
        assert min(abs(s - 2), abs(s + 2)) < 1e-35  # x^2 +- 2x + 1


def test_double_eta_preconditions():
    disc = Discriminant.from_D(-40)
    with pytest.raises(UnsupportedInvariant):
        InvariantKind.double_eta(3, 7).validate_for(disc)  # (D/3) = -1
    with pytest.raises(InvalidParameters):
        theta_value(InvariantKind.double_eta(5, 7), QuadForm(1, 0, 10), 96)  # 35 does not divide C
    with pytest.raises(InvalidParameters):
        InvariantKind.double_eta(4, 7)
    with pytest.raises(UnsupportedInvariant, match="conductor"):
        InvariantKind.double_eta(5, 13).validate_for(Discriminant.from_D(-100))  # f = 5


# p1 = p2 needs (D/p) = 1 or p | f, and 2,2 also excludes D = 4 (mod 32)
@pytest.mark.parametrize("p,D,ok", [
    (5, -4, True),       # (-4/5) = 1
    (5, -100, True),     # 5 | f
    (5, -40, False),     # 5 ramifies
    (2, -7, True),       # (-7/2) = 1
    (2, -12, True),      # f = 2, D = 20 (mod 32)
    (2, -4, False),      # 2 ramifies, f = 1
    (2, -28, False),     # f = 2 but D = 4 (mod 32)
])
def test_double_eta_equal_primes(p, D, ok):
    kind = InvariantKind.double_eta(p, p)
    disc = Discriminant.from_D(D)
    if ok:
        kind.validate_for(disc)
    else:
        with pytest.raises(UnsupportedInvariant):
            kind.validate_for(disc)


def test_invariant_kind_parse_and_str():
    for text in ("j", "gamma2", "weber", "doubleeta:5,7"):
        assert str(InvariantKind.parse(text)) == text
    assert InvariantKind.parse("doubleeta:7,5") == InvariantKind.double_eta(5, 7)
    with pytest.raises(InvalidParameters):
        InvariantKind.parse("frobnicate")
    with pytest.raises(InvalidParameters):
        InvariantKind.parse("doubleeta:x,y")
    with pytest.raises(InvalidParameters):
        InvariantKind("j", 5)


def test_moduli_and_targets():
    d40 = Discriminant.from_D(-40)
    d84 = Discriminant.from_D(-84)
    assert InvariantKind.j().modulus(d40) == 1
    assert InvariantKind("gamma2").modulus(d40) == 3
    assert InvariantKind("weber").modulus(d40) == 48  # 3 coprime to D: uncubed
    assert InvariantKind("weber").modulus(d84) == 16
    assert InvariantKind.double_eta(5, 7).modulus(d40) == 35
    assert InvariantKind("gamma2").b_target(d40) == 0
    assert InvariantKind("gamma2").b_target(Discriminant.from_D(-23)) == 3
    b = InvariantKind.double_eta(5, 7).b_target(d40)
    assert (b * b + 40) % 140 == 0
    b = InvariantKind.double_eta(11, 13).b_target(d40)
    assert (b * b + 40) % (4 * 143) == 0
    with pytest.raises(UnsupportedInvariant):
        InvariantKind.double_eta(5, 7).b_target(Discriminant.from_D(-4))  # 7 is inert


# every N-system form of the golden divisor and full cases, plus -5460
# weber (16.9 bits short under the old height heuristic), -9911 j and
# -120 doubleeta:2,11; at -1239 j, form (1, 1, 310), the closed form exceeds
# |j| by a relative 2.7e-45, so only the 2^-32 pad keeps the 64-bit bound
# above it
BOUND_CASES = sorted({(D, inv) for D, inv, _ in DIVISORS + FULL}
                     | {(-5460, "weber"), (-9911, "j"), (-120, "doubleeta:2,11")})


@pytest.mark.parametrize("D,invariant", BOUND_CASES,
                         ids=[f"{D}-{inv}" for D, inv in BOUND_CASES])
def test_theta_bound_covers_every_form(D, invariant):
    kind = InvariantKind.parse(invariant)
    d = Discriminant.from_D(D)
    for f in n_system(D, kind.modulus(d), kind.b_target(d)):
        value = theta_value(kind, f, 128)
        with mp.workprec(256):
            assert theta_bound(kind, f) >= abs(value), f


def test_theta_bound_closed_forms():
    # D = -40: (1, 0, 10) is reduced; (10, 0, 1) reduces to it
    with mp.workprec(64):
        pad = 1 + mp.mpf(2) ** -32
        bj = mp.exp(mp.pi * mp.sqrt(40)) + 2079
        f = QuadForm(1, 0, 10)
        assert theta_bound(InvariantKind.j(), f) == bj * pad
        assert theta_bound(InvariantKind("gamma2"), f) == mp.cbrt(bj) * pad
        assert theta_bound(InvariantKind.j(), QuadForm(10, 0, 1)) == bj * pad
        # -40 is the f1^2 / sqrt2 case, uncubed: |f1^24| <= 2 sqrt(B_j + 768)
        x = 2 * mp.sqrt(bj + 768)
        want = x ** (mp.mpf(2) / 24) / mp.sqrt(2) * pad
        assert abs(theta_bound(InvariantKind("weber"), QuadForm(1, 0, 10)) - want) \
            < want * 2 ** -60
        # -84 is the f^4 / 2 case, cubed
        b84 = mp.exp(mp.pi * mp.sqrt(84)) + 2079
        want = (2 * mp.sqrt(b84 + 768)) ** (mp.mpf(12) / 24) / 8 * pad
        assert abs(theta_bound(InvariantKind("weber"), QuadForm(1, 0, 21)) - want) \
            < want * 2 ** -60


def test_bounds_ignore_caller_precision():
    kind = InvariantKind.double_eta(5, 7)
    d = Discriminant.from_D(-3135)
    forms = n_system(-3135, 35, kind.b_target(d))
    got = []
    for prec in (53, 5000):
        with mp.workprec(prec):
            got.append(([theta_bound(kind, f) for f in forms],
                        hecke_T(kind, forms, [0] * len(forms), [0] * len(forms)),
                        hecke_T(InvariantKind.j(), [QuadForm(1, 1, 310)], [0], [0])))
    assert got[0] == got[1]


# the kernel at the root of (13, 11, 51), D = -2531, and theta_value at a
# form of each kind, all with Im z about 1.9
KERNEL_QUOTIENTS = {"eta": eta, "weber_f": weber_f, "weber_f1": weber_f1}
THETA_FORMS = {
    "j": (J, QuadForm(13, 11, 51)),
    "gamma2": (InvariantKind("gamma2"), QuadForm(13, 15, 53)),
    "weber": (WEBER, QuadForm(15, -96, 155)),   # D = -84: f, cubed
    "doubleeta:5,7": (InvariantKind.double_eta(5, 7), QuadForm(13, -251, 1260)),  # D = -2519
}


@pytest.mark.parametrize("name", [*KERNEL_QUOTIENTS, *THETA_FORMS])
def test_entry_points_set_their_own_precision(name):
    # 5000 bits is far above the size where mpmath's complex ** turns into
    # exp/log; a caller at the default 53 bits still gets the requested
    # precision, against a reference at twice the bits in a wide context
    def at(prec):
        if name in THETA_FORMS:
            return theta_value(*THETA_FORMS[name], prec)
        return KERNEL_QUOTIENTS[name](z, prec)

    with mp.workprec(10100):
        z = root_of_form(QuadForm(13, 11, 51))
        want = at(10000)
    with mp.workprec(53):
        got = at(5000)
    with mp.workprec(10100):
        assert abs(got - want) <= abs(want) * mp.mpf(2) ** -5000


@pytest.mark.parametrize("D,kind", [
    (-1239, InvariantKind.j()), (-791, InvariantKind("gamma2")),
    (-116, InvariantKind("weber")), (-264, InvariantKind.double_eta(2, 3)),
])
def test_mirror_form_gives_conjugate(D, kind):
    # theta(A,-B,C) = conj theta(A,B,C): classpoly evaluates one form per pair
    d = Discriminant.from_D(D)
    forms = n_system(D, kind.modulus(d), kind.b_target(d))
    f = next(f for f in forms if f.B and QuadForm(f.A, -f.B, f.C) in forms)
    a = theta_value(kind, f, 1000)
    b = theta_value(kind, QuadForm(f.A, -f.B, f.C), 1000)
    with mp.workprec(1100):
        assert abs(b - mp.conj(a)) <= abs(a) * mp.mpf(2) ** -1000


def untapered_pentagonal(q, bits):
    # reference: the same sum and stop rule, every term at the working precision
    thresh = -bits - 16
    s, qe, qn, qstep, q3 = mp.one, mp.one, mp.one, q, q * q * q
    below = n = 0
    while below < 3:
        n += 1
        qe *= qstep
        qstep *= q3
        qn *= q
        term = qe * (1 + qn)
        s += -term if n % 2 else term
        below = below + 1 if mp.mag(term) < thresh else 0
    return s


@pytest.mark.parametrize("bits", [128, 700, 2500, 6000])
def test_tapered_pentagonal_matches_full_precision(bits):
    # the running sums round at the working precision, so both run 32 bits
    # above ``bits``: what is compared is the taper, not that rounding
    with mp.workprec(bits + 32):
        # |q| at the corner of the fundamental domain, the largest at a reduced root
        worst = mp.exp(-mp.pi * mp.sqrt(3))
        nomes = [
            worst * mp.expjpi(mp.mpf("0.41")),
            worst,                              # real q, B = 0
            -worst,
            (worst * mp.expjpi(mp.mpf("0.41"))) ** 2,   # gamma2's P(q^2)
            mp.mpf(2) ** -300 * mp.expjpi(mp.mpf("0.2")),
            mp.mpf(2) ** -900 * mp.expjpi(mp.mpf("-0.7")),
            mp.mpf("0.45") * mp.expjpi(mp.mpf("0.9")),  # mag(q) = 0: no taper
        ]
        for q in nomes:
            got, want = _pentagonal(q, bits), untapered_pentagonal(q, bits)
            assert abs(got - want) <= mp.mpf(2) ** -(bits + 8), (bits, q)


def q_pochhammer_nomes():
    # the nomes of test_tapered_pentagonal_matches_full_precision, at the
    # working precision
    worst = mp.exp(-mp.pi * mp.sqrt(3))
    return [
        worst * mp.expjpi(mp.mpf("0.41")),
        worst,
        -worst,
        (worst * mp.expjpi(mp.mpf("0.41"))) ** 2,
        mp.mpf(2) ** -300 * mp.expjpi(mp.mpf("0.2")),
        mp.mpf(2) ** -900 * mp.expjpi(mp.mpf("-0.7")),
        mp.mpf("0.45") * mp.expjpi(mp.mpf("0.9")),
    ]


@pytest.mark.parametrize("bits", [128, 700, 2500])
def test_pentagonal_matches_q_pochhammer(bits):
    # an independent reference: mpmath's q-Pochhammer symbol (q;q)_inf, the
    # product that the pentagonal series sums (Euler)
    with mp.workprec(bits + 32):
        for q in q_pochhammer_nomes():
            got, want = _pentagonal(q, bits), mp.qp(q)
            assert abs(got - want) <= mp.mpf(2) ** -(bits + 8), (bits, q)


@pytest.mark.parametrize("bits", [128, 700, 2500, 6000])
def test_one_pass_gives_the_series_at_the_square(bits):
    # P(x) and P(x^2), and P(-x) with P(x^2), each pair from one pass,
    # against the direct series and mpmath's (q;q)_inf
    with mp.workprec(bits + 32):
        for q in q_pochhammer_nomes():
            square = [untapered_pentagonal(q * q, bits), mp.qp(q * q)]
            for x in (q, -q):
                got, got2 = _pentagonal(x, bits, square=True)
                for want in (untapered_pentagonal(x, bits), mp.qp(x)):
                    assert abs(got - want) <= mp.mpf(2) ** -(bits + 8), (bits, x)
                for want in square:
                    assert abs(got2 - want) <= mp.mpf(2) ** -(bits + 8), (bits, x)


def test_addition_sequence_reaches_each_pentagonal_number_once():
    steps = _addition_sequence(8)
    exps, terms = [1], [(1, 1)]
    for m, (i, j, n) in enumerate(steps):
        # entry m + 1 is the product of two earlier entries, or a square
        assert 0 <= i <= m and 0 <= j <= m
        exps.append(exps[i] + exps[j])
        if n:
            terms.append((exps[-1], n))
    want = sorted((n * (3 * n + s) // 2, n) for n in range(1, 256) for s in (-1, 1))
    assert terms == want
    # auxiliary exponents (n = 0) are about one step in ten
    assert len(steps) < 1.15 * len(want)
    # a longer series extends the sequence without changing its start
    assert _addition_sequence(9)[:len(steps)] == steps


def quotient_reference(z, k, factors, lead, power, bits):
    # t^lead (prod P(s t^a)^e)^power with t = exp(2 pi i z / k), factor by
    # factor from the direct series, each t^a its own exp
    def t_to(a):
        return mp.exp(2j * mp.pi * z * a / k)

    out = mp.one
    for a, s, e in factors:
        x = untapered_pentagonal(s * t_to(a), bits)
        out = out * x if e > 0 else out / x
    return out ** power * t_to(lead)


CONTRACT_QUOTIENTS = {
    "gamma2": _GAMMA2,
    "weber_f": _WEBER["f"],
    "weber_f1": _WEBER["f1"],
    "doubleeta:2,3": _double_eta(2, 3),
    "doubleeta:5,7": _double_eta(5, 7),
}


def golden_forms():
    # every N-system form of the golden divisor and full cases
    forms = set()
    for D, invariant in sorted({(D, inv) for D, inv, _ in DIVISORS + FULL}):
        kind = InvariantKind.parse(invariant)
        d = Discriminant.from_D(D)
        forms.update(n_system(D, kind.modulus(d), kind.b_target(d)))
    return sorted(forms, key=lambda f: (f.disc, f.A, f.B))


@pytest.mark.parametrize("name", CONTRACT_QUOTIENTS)
def test_kernel_meets_theta_contract(name):
    # |theta~ - theta| <= 2^-prec (1 + |theta|) at every golden form and three
    # precisions, against a reference 128 bits above prec
    quotient = CONTRACT_QUOTIENTS[name]
    for prec in (64, 192, 640):
        for f in golden_forms():
            with mp.workprec(prec + 128):
                z = root_of_form(f)
                want = quotient_reference(z, *quotient, prec + 128)
                got = _eta_quotient(z, *quotient, prec)
                assert abs(got - want) <= mp.mpf(2) ** -prec * (1 + abs(want)), (f, prec)


# A -4000124 form with Im tau = 0.00075, whose reduced form is (3, 2, 333344):
# the Weber N-system held it while make_coprime walked the primes of N, and
# make_coprime's smallest coprime value now gives (333349, 2666784, 5333555),
# at Im tau = 0.003.  At the old form the series have |x| near 1 and terms
# near 1, and P(x^2) for Weber is about 2^-121, so a relative error 2^-prec
# needs about 2^-(prec + 141) on x: z and t are only prec + 64 bits wide,
# and at 64 bits the contract fails by 20-23 bits.  gamma2 passes because
# it is about 2^-1007 there.  Evaluating at the reduced argument, through
# eta's transformation law, would keep every |x| <= e^(-pi sqrt3).
TINY_IM_FORM = QuadForm(1333415, -46669536, 408358537)
_SHORT = pytest.mark.xfail(strict=True, reason="x is too short for the cancellation")


@pytest.mark.parametrize("name", [
    "gamma2",
    *(pytest.param(name, marks=_SHORT) for name in CONTRACT_QUOTIENTS if name != "gamma2"),
])
def test_kernel_contract_at_im_tau_below_one_thousandth(name):
    quotient = CONTRACT_QUOTIENTS[name]
    with mp.workprec(64 + 400):
        z = root_of_form(TINY_IM_FORM)
        want = quotient_reference(z, *quotient, 64 + 400)
        got = _eta_quotient(z, *quotient, 64)
        assert abs(got - want) <= mp.mpf(2) ** -64 * (1 + abs(want))
