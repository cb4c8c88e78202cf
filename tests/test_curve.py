"""Tests for the prime-field tail: reduction, roots, curves, twists."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cmforge.arith import cornacchia, kronecker, search_fixed_D, sqrt_mod_p
from cmforge import curve
from cmforge.classpoly import ClassPolynomial, class_poly_divisor, class_poly_full, \
    class_poly_split, whole_split
from cmforge.curve import (WeierstrassCurve, _pdivmod, _pgcd, _ppow_linear, _twist_family,
                           _psub, _ptrim, curve_from_j, gen_curve, make_curve,
                           naive_count, point_neg, random_point,
                           reduce_split_mod_p, roots_in_fp,
                           order_mismatch, scalar_mul, select_twist)
from cmforge.errors import (InternalInvariantError, InvalidParameters,
                            PrecisionExhausted, UnsupportedInvariant)
from cmforge.modfns import InvariantKind, j_from_theta

J = InvariantKind.j()

P256 = 2 ** 256 - 2 ** 224 + 2 ** 192 + 2 ** 96 - 1    # a 256-bit prime
PRIMES = (5, 13, 2 ** 61 - 1, P256)


def peval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def reduce_mod_p(poly, p):
    """The coefficients of the monic ``poly`` mod the prime above p that
    ``reduce_split_mod_p`` takes, read off its k = 1 split: R = Y - s is
    Y plus the coefficient of x^(n-1), and N_j the coefficient of x^j."""
    R, N = reduce_split_mod_p(whole_split(poly), p)
    assert R == [N[-1][0], 1]
    return [row[0] for row in N] + [1]


def test_sqrt_mod_p_examples():
    assert sqrt_mod_p(5, 41) == 13
    assert sqrt_mod_p(0, 41) == 0
    assert sqrt_mod_p(3, 5) is None


def test_reduce_divisor_minus40():
    div = class_poly_divisor(-40, J)
    full = [c % 41 for c in class_poly_full(-40, J).coeffs]
    red = reduce_mod_p(div, 41)
    assert len(red) == 2
    quo, rem = _pdivmod(full, red, 41)
    assert rem == []

    def conjugate(lam):
        return ClassPolynomial(div.D, div.kind, div.phi0,
                               tuple(c.tau(lam) for c in div.coeffs))

    # flipping the sqrt(5) sign lands on the conjugate factor, the cofactor
    assert reduce_mod_p(conjugate(1), 41) == quo != red
    # sqrt(-8) does not appear in the coefficients, flipping it is a no-op
    assert reduce_mod_p(conjugate(2), 41) == red


def test_reduce_trivial_t1():
    div = class_poly_divisor(-3, J)
    assert reduce_mod_p(div, 13) == [0, 1]
    full = class_poly_full(-4, J)
    assert reduce_mod_p(full, 13) == [(-1728) % 13, 1]


def test_reduce_nonresidue_rejected():
    div = class_poly_divisor(-40, J)
    with pytest.raises(InvalidParameters):
        reduce_split_mod_p(whole_split(div), 7)     # 5 is a non-residue mod 7


def test_roots_in_fp_basics():
    # (x-3)^2 (x-5) over F_13: the repeated root needs the gcd with x^p - x
    cube = [(-45) % 13, (9 + 15 + 15) % 13, (-11) % 13, 1]
    for seed in range(8):
        r = roots_in_fp([4, 0, 1], 5, seed=seed)
        assert r in ([1], [4]) and peval([4, 0, 1], r[0], 5) == 0
        assert roots_in_fp([1, 0, 1], 7, seed=seed) == []
        r = roots_in_fp(cube, 13, seed=seed)
        assert r in ([3], [5]) and peval(cube, r[0], 13) == 0


def test_roots_in_fp_deterministic_and_large_p():
    p = 10 ** 9 + 9          # = -1 (mod 5), so 5 is a residue
    f = [(p - 5), 0, 1]      # x^2 - 5
    r = roots_in_fp(f, p, seed=1)
    assert roots_in_fp(f, p, seed=1) == r
    assert len(r) == 1 and r[0] * r[0] % p == 5


# --- the F_p[x] layer against schoolbook references -------------------------

def school_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, fc in enumerate(f):
        for j, gc in enumerate(g):
            out[i + j] += fc * gc
    return [c % p for c in out]


def school_mod(f, h, p):
    r = list(f)
    n = len(h) - 1
    for top in range(len(r) - 1, n - 1, -1):
        c = r[top] % p
        for i, hc in enumerate(h):
            r[top - n + i] -= c * hc
    r = [c % p for c in r[:n]]
    while r and r[-1] == 0:
        r.pop()
    return r


def school_pow_linear(a, e, h, p):
    """(x + a)^e mod the monic h, right to left, schoolbook throughout."""
    out, base = school_mod([1], h, p), school_mod([a % p, 1], h, p)
    while e:
        if e & 1:
            out = school_mod(school_mul(out, base, p), h, p)
        base = school_mod(school_mul(base, base, p), h, p)
        e >>= 1
    return out


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_linear_powering_matches_schoolbook(data):
    p = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(1, 70))
    h = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
    if data.draw(st.booleans()):
        h[0] = 0
    a = data.draw(st.integers(0, p - 1))
    e = data.draw(st.sampled_from((0, 1, p, (p - 1) // 2)))
    assert _ppow_linear(a, e, h, p) == school_pow_linear(a, e, h, p)


@pytest.mark.parametrize("p", PRIMES)
def test_kronecker_worst_case_slots(p):
    # every coefficient p - 1 makes every slot of the square as full as it
    # can be, and a slot one bit short would carry into its neighbour; the
    # fold adds up to n - 1 rows x^(n+i) mod h, each entry p - 1 here,
    # to low slots that hold up to n*(p-1)^2; 64 and 65 are the full path's
    # degree at -2519 and one past it
    for n in (1, 2, 33, 64, 65):
        for h in ([p - 1] * n + [1], [0] + [p - 1] * (n - 1) + [1]):
            for e in (0, 1, 2, (p - 1) // 2):
                want = school_pow_linear(p - 1, e, h, p)
                assert _ppow_linear(p - 1, e, h, p) == want
            # (x + a)^p = ((x + a)^((p-1)/2))^2 * (x + a)
            want = school_mod(school_mul(school_mul(want, want, p), [p - 1, 1], p), h, p)
            assert _ppow_linear(p - 1, p, h, p) == want


@pytest.mark.parametrize("p", PRIMES)
def test_packed_barrett_at_the_slot_bound(p):
    # every slot of the packed int at once: the largest value the powering's
    # slots admit, values around multiples of p, and random ones, each
    # brought below 3p and kept mod p
    rng = random.Random(p)
    for n in (1, 2, 7, 64):
        L = (10 * n * p * p).bit_length()
        k, reduce = curve._packed_barrett(p, n, L)
        for vals in ([(1 << L) - 1] * n, ([3 * p - 1, 3 * p, p, p - 1, 0, 1, 2 * p] * 10)[:n],
                     [rng.randrange(1 << L) for _ in range(n)]):
            raw = reduce(curve._pack(vals, k)).to_bytes(n * k, "little")
            got = [int.from_bytes(raw[i:i + k], "little") for i in range(0, n * k, k)]
            assert all(g < 3 * p and (g - v) % p == 0 for g, v in zip(got, vals)), (n, vals)


def test_roots_in_fp_many_linear_factors():
    # 64 is the full path's degree at -2519, here at 256 bits
    rng = random.Random(11)
    for count, seeds in ((34, 8), (64, 3)):
        roots = set()
        while len(roots) < count:
            roots.add(rng.randrange(P256))
        f = [1]
        for r in roots:
            f = school_mul(f, [(-r) % P256, 1], P256)
        for seed in range(seeds):
            got = roots_in_fp(f, P256, seed=seed)
            assert len(got) == 1 and got[0] in roots
    # zero is no root of x^((p-1)/2) - 1, so the a = 0 split puts it with
    # the non-residues
    assert roots_in_fp(school_mul([0, 1], [P256 - 5, 1], P256), P256) in ([0], [5])
    assert roots_in_fp([0, 1], P256) == [0]


@pytest.mark.parametrize("p", (13, P256))
def test_roots_in_fp_first_split_branches(p):
    # the first split keeps the smaller nonconstant piece of gcd(w - 1, f)
    # (nonzero squares) and gcd(x (w + 1), f) (zero and non-squares)
    sq = [r * r % p for r in (2, 3, 5)]
    nsq = [r for r in range(2, 100) if kronecker(r, p) == -1][:3]
    c = nsq[0]
    irred = [(-c) % p, 0, 1]     # x^2 - c has no root in F_p

    def poly(*roots):
        f = [1]
        for r in roots:
            f = school_mul(f, [(-r) % p, 1], p)
        return f
    # a zero root: alone, with squares (the smaller piece), and repeated in
    # a tie of one distinct root each, which goes to the squares
    assert roots_in_fp(poly(0), p) == [0]
    assert roots_in_fp(school_mul(poly(0), irred, p), p) == [0]
    assert roots_in_fp(poly(0, *sq), p) == [0]
    assert roots_in_fp(poly(0, 0, 0, sq[0], sq[0]), p) == [sq[0]]
    # every root a nonzero square: the second piece is constant
    for seed in range(4):
        assert roots_in_fp(poly(*sq), p, seed=seed)[0] in sq
        assert roots_in_fp(school_mul(poly(sq[1], sq[1]), irred, p), p, seed=seed) == [sq[1]]
    # every root a non-square: the first piece is constant
    assert roots_in_fp(poly(*nsq), p)[0] in nsq
    assert roots_in_fp(poly(nsq[0], sq[0], sq[1]), p) == [nsq[0]]
    # no root: both pieces constant
    assert roots_in_fp(irred, p) == []
    assert roots_in_fp(school_mul(irred, irred, p), p) == []


def test_roots_in_fp_small_shapes():
    # x^2 - c for a non-residue c is irreducible; times (x - 7) its only
    # root is 7
    c = next(c for c in range(2, 100) if kronecker(c, P256) == -1)
    f = school_mul([(-c) % P256, 0, 1], [P256 - 7, 1], P256)
    for seed in range(8):
        assert roots_in_fp(f, P256, seed=seed) == [7]
    assert roots_in_fp([P256 - 12345, 1], P256) == [12345]
    assert roots_in_fp([3, 1], 13) == [10]
    assert roots_in_fp([1], P256) == []
    assert roots_in_fp([(-c) % P256, 0, 1], P256) == []


def test_roots_in_fp_not_monic_or_zero():
    # 2 (x - 3)(x - 5): the leading coefficient is divided out, not assumed
    assert roots_in_fp([30, 10007 - 16, 2], 10007) in ([3], [5])
    c = next(c for c in range(2, 100) if kronecker(c, P256) == -1)
    assert roots_in_fp([5 * (P256 - c), 0, 5], P256) == []
    assert roots_in_fp([P256 - 231, 12, P256 + 3], P256) in ([7], [P256 - 11])
    for zero in ([], [0], [13, 26], [P256, 0, 2 * P256]):
        with pytest.raises(InvalidParameters):
            roots_in_fp(zero, 13 if zero == [13, 26] else P256)


def roots_reference(f, p, seed=0):
    """``roots_in_fp``'s earlier two-phase search, the reference for its one
    loop: a first split of f by w = x^((p-1)/2) into gcd(w - 1, f) and
    gcd(x (w + 1), f), then a descent that splits g by gcd(w - 1, g) alone
    and divides out the cofactor."""
    f = _ptrim([c % p for c in f])
    lead = pow(f[-1], -1, p)
    f = [c * lead % p for c in f]
    if len(f) == 1:
        return []
    rng = random.Random(seed)
    w = _ppow_linear(0, (p - 1) // 2, f, p)
    pieces = [g for g in (_pgcd(_psub(w, [1], p), f, p),
                          _pgcd(_ptrim([0] + _psub(w, [-1], p)), f, p)) if len(g) > 1]
    if not pieces:
        return []
    g = min(pieces, key=len)
    while len(g) > 2:
        w = _ppow_linear(rng.randrange(p), (p - 1) // 2, g, p)
        d = _pgcd(_psub(w, [1], p), g, p)
        if 0 < len(d) - 1 < len(g) - 1:
            g = min(d, _pdivmod(g, d, p)[0], key=len)
    return [(-g[0]) % p]


def test_roots_in_fp_matches_the_two_phase_search():
    # at p = 13 and 17 a drawn a often equals -r for a root r, so the (x + a)
    # factor of the second piece decides where r goes; at 2^255 - 19 the
    # root 0 tests the a = 0 pass
    for p, zero in ((13, False), (17, False), (2 ** 255 - 19, True)):
        for seed in range(200):
            rng = random.Random(seed)
            roots = [0] * zero + [rng.randrange(p) for _ in range(rng.randrange(4, 9) - zero)]
            f = [1]
            for r in roots:
                f = school_mul(f, [(-r) % p, 1], p)
            got = roots_in_fp(f, p, seed=seed)
            assert got == roots_reference(f, p, seed=seed) and got[0] in roots, (p, seed)


@pytest.mark.parametrize("p", (13, 17, 65537))
def test_roots_in_fp_matches_the_two_phase_search_at_degrees_2_and_3(p):
    # a quadratic piece is not powered: its passes are replayed by Legendre
    # symbols.  Random roots at 13 and 17 repeat, include 0 and meet a = -r;
    # 65537 = 2^16 + 1 takes Tonelli-Shanks' longest path.  The fixed
    # shapes: irreducible, irreducible times linear, a double root, and
    # x (x - r) on the a = 0 pass, r a square (parted: r is kept) or not
    # (one side: the next a is drawn)
    c = next(c for c in range(2, p) if kronecker(c, p) == -1)
    fixed = ([(-c) % p, 0, 1], school_mul([(-c) % p, 0, 1], [p - 5, 1], p),
             school_mul([p - 5, 1], [p - 5, 1], p), [0, p - 4, 1], [0, (-c) % p, 1])
    for seed in range(200):
        rng = random.Random(seed)
        for deg in (2, 3):
            roots = [rng.randrange(p) for _ in range(deg)]
            f = [1]
            for r in roots:
                f = school_mul(f, [(-r) % p, 1], p)
            got = roots_in_fp(f, p, seed=seed)
            assert got == roots_reference(f, p, seed=seed) and got[0] in roots, (seed, roots)
            f = [rng.randrange(p) for _ in range(deg)] + [1]
            got = roots_in_fp(f, p, seed=seed)
            assert got == roots_reference(f, p, seed=seed), (seed, f)
            assert all(peval(f, r, p) == 0 for r in got)
        for f in fixed:
            assert roots_in_fp(f, p, seed=seed) == roots_reference(f, p, seed=seed), (seed, f)
    assert roots_in_fp(fixed[0], p) == [] and roots_in_fp(fixed[1], p) == [5]
    assert roots_in_fp(fixed[2], p) == [5] and roots_in_fp(fixed[3], p) == [4]


def test_curve_from_j():
    assert curve_from_j(0, 41) == WeierstrassCurve(41, 0, 1)
    assert curve_from_j(1728 % 41, 41) == WeierstrassCurve(41, 1, 0)
    for p in (41, 1009, 10007):
        for j in (3, 77 % p, 1000 % p):
            c = curve_from_j(j, p)
            assert c.j_invariant() == j % p
    with pytest.raises(InvalidParameters, match="singular"):
        make_curve(41, 0, 0)


def test_j_from_theta():
    assert j_from_theta(7, J, 41) == 7
    assert j_from_theta(12, InvariantKind("gamma2"), 10007) == 1728
    # weber roots of x^2 - x - 1 mod 41 must map onto H_-40[j]'s two roots
    full = [c % 41 for c in class_poly_full(-40, J).coeffs]
    wj = {j_from_theta(r, InvariantKind("weber"), 41, D=-40) for r in (7, 35)}
    assert len(wj) == 2 and all(peval(full, j, 41) == 0 for j in wj)
    with pytest.raises(InvalidParameters):
        j_from_theta(0, InvariantKind("weber"), 41, D=-40)
    with pytest.raises(InvalidParameters, match="needs D"):
        j_from_theta(7, InvariantKind("weber"), 41)
    with pytest.raises(UnsupportedInvariant):
        j_from_theta(3, InvariantKind.double_eta(5, 7), 41)


def test_point_arithmetic():
    c = make_curve(13, 4, 0)
    rng = random.Random(5)
    P = random_point(c, rng)
    x, y = P
    assert (y * y - x ** 3 - c.a * x - c.b) % c.p == 0
    assert scalar_mul(0, P, c) is None
    assert scalar_mul(1, P, c) == point_add(P, None, c) == P
    n = naive_count(c)
    for _ in range(5):
        Q = random_point(c, rng)
        assert scalar_mul(n, Q, c) is None


def point_add(P, Q, c):
    """P + Q by the affine chord-and-tangent rule: the reference for
    scalar_mul's Jacobian chain."""
    if P is None:
        return Q
    if Q is None:
        return P
    p = c.p
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + c.a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def affine_mul(k, P, c):
    """k*P by affine double-and-add through point_add."""
    if k < 0:
        k, P = -k, point_neg(P, c)
    acc = None
    while k:
        if k & 1:
            acc = point_add(acc, P, c)
        P = point_add(P, P, c)
        k >>= 1
    return acc


def repeated_add(k, P, c):
    Q = P if k >= 0 else point_neg(P, c)
    acc = None
    for _ in range(abs(k)):
        acc = point_add(acc, Q, c)
    return acc


def curve_with_two_torsion(p, rng):
    """A curve over F_p with the point (x0, 0) on it."""
    while True:
        x0, a = rng.randrange(p), rng.randrange(p)
        b = (-(x0 ** 3) - a * x0) % p
        if (4 * a ** 3 + 27 * b ** 2) % p:
            return make_curve(p, a, b), (x0, 0)


@pytest.mark.parametrize("p", [10007, P256])
def test_jacobian_scalar_mul_matches_affine(p):
    rng = random.Random(p)
    c, T = curve_with_two_torsion(p, rng)
    P = random_point(c, rng)
    for Q in (P, T):
        for k in range(-5, 61):
            assert scalar_mul(k, Q, c) == repeated_add(k, Q, c), (Q, k)
        for _ in range(20):
            k = rng.randrange(1 << 256)
            assert scalar_mul(k, Q, c) == affine_mul(k, Q, c)
    # (x0, 0) doubles to infinity, and P + (-P) is infinity
    assert scalar_mul(2, T, c) is None and scalar_mul(3, T, c) == T
    assert point_add(P, point_neg(P, c), c) is None
    assert scalar_mul(5, None, c) is None and scalar_mul(-5, None, c) is None


def test_jacobian_scalar_mul_at_the_point_order():
    # near k = ord(P) the chain's last addition meets -P (P + (-P) = O) or
    # P itself (a doubling inside the addition)
    rng = random.Random(8)
    p = 10007
    while True:
        c = make_curve(p, rng.randrange(p), rng.randrange(p) or 1)
        P = random_point(c, rng)
        order, Q = 1, P
        while Q is not None:
            Q = point_add(Q, P, c)
            order += 1
        if order % 2 and order > 3:
            break
    for k in range(order - 3, order + 4):
        assert scalar_mul(k, P, c) == repeated_add(k, P, c), k
    assert scalar_mul(order, P, c) is None


def point_order(P, c):
    order, Q = 1, P
    while Q is not None:
        Q = point_add(Q, P, c)
        order += 1
    return order


@pytest.mark.parametrize("m", range(2, 9))
def test_scalar_mul_at_points_of_small_order(m):
    # the window's odd multiples P, 3P, ..., 15P of a point of order m <= 8
    # meet infinity and +-P: at m = 2, 2P is infinity and every odd multiple
    # is P
    p, rng = 10007, random.Random(m)
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a ** 3 + 27 * b ** 2) % p == 0:
            continue
        c = make_curve(p, a, b)
        n = p + 1 + sum(kronecker(x ** 3 + a * x + b, p) for x in range(p))
        if n % m == 0:
            P = affine_mul(n // m, random_point(c, rng), c)
            if P is not None and point_order(P, c) == m:
                break
    for k in range(-2 * m, 2 * m + 1):
        assert scalar_mul(k, P, c) == repeated_add(k, P, c), k
    for _ in range(20):
        k = rng.randrange(1 << 256)
        assert scalar_mul(k, P, c) == affine_mul(k, P, c) == repeated_add(k % m, P, c)


def test_naive_count_oracle():
    assert naive_count(make_curve(5, 0, 1)) == 6
    with pytest.raises(InvalidParameters):
        naive_count(make_curve(10007, 1, 1))


def test_hasse_bound():
    rng = random.Random(2)
    p = 97
    seen = 0
    while seen < 100:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a ** 3 + 27 * b ** 2) % p == 0:
            continue
        seen += 1
        n = naive_count(make_curve(p, a, b))
        assert (n - p - 1) ** 2 <= 4 * p


def test_select_twist_quadratic():
    base = curve_from_j(39, 41)
    assert naive_count(select_twist(base, 44)[0]) == 44
    assert naive_count(select_twist(base, 40)[0]) == 40
    with pytest.raises(InvalidParameters):
        select_twist(base, 43)


def test_select_twist_families():
    # sextic family at p=13 realizes six distinct orders incl. 7
    orders = {naive_count(make_curve(13, 0, pow(2, i, 13))) for i in range(6)}
    assert len(orders) == 6 and 7 in orders
    picked, i = select_twist(curve_from_j(0, 13), 7)
    assert naive_count(picked) == 7 and _twist_family(curve_from_j(0, 13))[i] == picked
    # quartic family: 4*13 = 6^2 + 4*2^2 -> orders {8, 20, 10, 18}
    orders4 = {naive_count(make_curve(13, pow(2, i, 13), 0)) for i in range(4)}
    assert orders4 == {8, 20, 10, 18}
    picked, i = select_twist(curve_from_j(1728 % 13, 13), 20)
    assert naive_count(picked) == 20 and _twist_family(curve_from_j(1728 % 13, 13))[i] == picked


@pytest.mark.parametrize("j,p", [(0, 11), (0, 10007), (1728, 19), (1728, 100003)])
def test_select_twist_refuses_supersingular_families(j, p):
    # j = 0 at p = 2 (mod 3) and j = 1728 at p = 3 (mod 4) are supersingular,
    # with every twist of order p + 1: asking for that order, or for any
    # other, is bad input at small and large p; the refusals raise, so they
    # hold under python -O
    base = curve_from_j(j, p)
    for order in (p + 1, p + 1 - 2 * math.isqrt(p)):
        with pytest.raises(InvalidParameters, match="supersingular"):
            select_twist(base, order, rng=random.Random(0))


def test_select_twist_refuses_order_p_plus_1():
    # j = 3 is supersingular at p = 41: both twists have 42 points, and
    # trace 0 is no ordinary curve's, so order p + 1 has no unique twist
    base = curve_from_j(3, 41)
    assert naive_count(base) == 42
    with pytest.raises(InvalidParameters, match="supersingular"):
        select_twist(base, 42)


def test_select_twist_large_p():
    found = search_fixed_D(-420, p_bits=32, rng=random.Random(4))
    res = gen_curve(-420, found.p, found.u, found.v, seed=1)
    c = res["curve"]
    again = select_twist(c, res["order"], rng=random.Random(9))
    assert again == (c, 0)


def test_select_twist_draws_points_lazily(monkeypatch):
    # the wrong twist fails on its first point and draws no more; the
    # survivor is tested on all 10
    found = search_fixed_D(-420, p_bits=64, rng=random.Random(4))
    base = gen_curve(-420, found.p, found.u, found.v)["curve"]
    drawn = []

    def counting(cand, rng):
        drawn.append(cand)
        return random_point(cand, rng)

    monkeypatch.setattr(curve, "random_point", counting)
    family = base, twist = curve._twist_family(base)     # j is neither 0 nor 1728
    for good, order in ((base, found.order), (twist, 2 * found.p + 2 - found.order)):
        drawn.clear()
        assert select_twist(base, order, rng=random.Random(7)) == (good, family.index(good))
        assert [drawn.count(c) for c in family] == [10 if c == good else 1 for c in family]


@pytest.mark.parametrize("args,want", [
    ((-40, 41, 2, 2), 40),
    ((-40, 41, -2, 2), 44),
    ((-3, 13, 7, 1), 7),
    ((-4, 13, 6, 2), 8),
])
def test_gen_curve_examples(args, want):
    res = gen_curve(*args)
    assert res["order"] == want
    assert naive_count(res["curve"]) == want
    # generated j is a root of the full class polynomial mod p
    D, p = args[0], args[1]
    full = [c % p for c in class_poly_full(D, J).coeffs]
    assert peval(full, res["j"], p) == 0
    assert res["transcript"]["path"] == "divisor"


def test_gen_curve_256_bit_divisor_verifies():
    # the checks of `cmforge verify` for a large p: the order kills random
    # points on the curve, not on its quadratic twist (affine reference)
    found = search_fixed_D(-1239, p_bits=256, rng=random.Random(12))
    res = gen_curve(-1239, found.p, found.u, found.v, path="divisor", seed=3)
    c, order, p = res["curve"], res["order"], found.p
    assert res["transcript"]["path"] == "divisor" and order == p + 1 - found.u
    full = [x % p for x in class_poly_full(-1239, J).coeffs]
    assert peval(full, res["j"], p) == 0 and c.j_invariant() == res["j"]
    rng = random.Random(5)
    assert all(affine_mul(order, random_point(c, rng), c) is None for _ in range(8))
    nr = next(x for x in range(2, 100) if kronecker(x, p) == -1)
    twist = make_curve(p, c.a * nr * nr, c.b * nr ** 3)
    assert any(affine_mul(order, random_point(twist, rng), twist) is not None
               for _ in range(8))


def test_gen_curve_other_invariants():
    for kind in (InvariantKind("weber"), InvariantKind("gamma2")):
        res = gen_curve(-40, 41, 2, 2, kind=kind)
        assert naive_count(res["curve"]) == 40


def test_gen_curve_paths_agree():
    for args in [(-40, 41, 2, 2), (-3, 13, 7, 1), (-4, 13, 6, 2)]:
        a = gen_curve(*args, path="divisor")
        b = gen_curve(*args, path="full")
        c = gen_curve(*args, path="auto")
        assert a["order"] == b["order"] == c["order"]
        assert a["curve"] == c["curve"]
        assert a["transcript"]["path"] == c["transcript"]["path"] == "divisor"
        assert b["transcript"]["path"] == "full"


def test_gen_curve_rejections():
    assert cornacchia(-40, 7) is None
    with pytest.raises(InvalidParameters):
        gen_curve(-40, 7, 2, 2)
    with pytest.raises(InvalidParameters):
        gen_curve(-40, 41, 3, 2)         # 4p != u^2 + 40 v^2
    with pytest.raises(UnsupportedInvariant):
        gen_curve(-40, 41, 2, 2, kind=InvariantKind.double_eta(5, 7))
    with pytest.raises(InvalidParameters):
        gen_curve(-40, 41, 2, 2, path="sideways")


def test_gen_curve_fallback_to_full():
    # at -23 (t = 1, h = m = 3) the full path starts at 46 bits and the
    # conjugate route at 47, so a cap of 46 forces the full-H fallback
    res = gen_curve(-23, 101, 6, 4, path="auto", max_bits=46)
    assert res["transcript"]["path"] == "full" and "route" not in res["transcript"]
    assert naive_count(res["curve"]) == 96
    with pytest.raises(PrecisionExhausted):
        class_poly_divisor(-23, J, max_bits=46, route="conjugates")
    with pytest.raises(PrecisionExhausted):
        gen_curve(-23, 101, 6, 4, path="divisor", max_bits=46)
    # at -420 the conjugate route starts at 97 bits, the full path at 241
    # and the paper route at 1093: a cap of 800 stops only the paper route
    res = gen_curve(-420, 109, 4, 1, path="auto", max_bits=800)
    assert (res["transcript"]["path"], res["transcript"]["route"]) == ("divisor", "conjugates")
    assert naive_count(res["curve"]) == 106
    with pytest.raises(PrecisionExhausted):
        gen_curve(-420, 109, 4, 1, path="divisor", max_bits=800)
    # a cap below every first attempt (at -40: conjugates 31, full 44)
    # leaves no path to fall back to
    with pytest.raises(PrecisionExhausted):
        gen_curve(-40, 41, 2, 2, path="auto", max_bits=30)


def test_gen_curve_transcript():
    # "path" names the polynomial that came out, "route" how a divisor was
    # recovered, with that route's own numbers
    common = ("D", "p", "u", "v", "invariant", "target", "degree", "k", "H", "path",
              "root", "j", "twist")
    for path, route, keys, absent in (
            ("auto", "conjugates", ("T", "B"), ("T0", "N0", "float_bits")),
            ("divisor", "paper", ("T0", "N0", "float_bits"), ("T", "B"))):
        res = gen_curve(-40, 41, 2, 2, path=path)
        tr = res["transcript"]
        for key in common + keys:
            assert key in tr, (path, key)
        assert not any(key in tr for key in absent), path
        assert (tr["path"], tr["route"], tr["degree"]) == ("divisor", route, 1)
        assert tr["target"] == res["order"]
    tr = gen_curve(-40, 41, 2, 2, path="full")["transcript"]
    assert tr["path"] == "full" and (tr["degree"], tr["k"], tr["H"]) == (2, 1, 2)
    assert not any(key in tr for key in ("route", "T", "B", "T0", "N0", "float_bits"))


def test_gen_curve_transcript_reports_the_escalated_plan(monkeypatch):
    # a T of 4 is far too small, so the paper-route split escalates; the
    # transcript must describe the plan that produced it
    import cmforge.classpoly as classpoly
    import cmforge.recover as recover
    built = []

    def recording_make_plan(*args, **kwargs):
        built.append(recover.make_plan(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(classpoly, "hecke_T", lambda kind, forms, masks, cosets: 4)
    monkeypatch.setattr(classpoly, "make_plan", recording_make_plan)
    found = search_fixed_D(-1239, p_bits=64, rng=random.Random(1239))
    res = gen_curve(-1239, found.p, found.u, found.v, path="divisor")
    tr = res["transcript"]
    last = built[-1]
    assert last.T0 > 4
    assert (tr["T0"], tr["N0"], tr["float_bits"]) == (last.T0, last.N0, last.float_bits)


def test_second_gen_curve_reuses_the_divisor(monkeypatch):
    # one divisor per process at (D, kind): a curve for another prime
    # evaluates no theta value and reports the same plan numbers
    import cmforge.classpoly as classpoly
    theta = classpoly.theta_value
    calls = []

    def counted(kind, form, prec=96):
        calls.append(form)
        return theta(kind, form, prec)

    monkeypatch.setattr(classpoly, "theta_value", counted)
    first = search_fixed_D(-1239, p_bits=64, rng=random.Random(1))
    second = search_fixed_D(-1239, p_bits=64, rng=random.Random(2))
    assert first.p != second.p
    a = gen_curve(-1239, first.p, first.u, first.v, path="divisor")
    seen = len(calls)
    assert seen > 0
    b = gen_curve(-1239, second.p, second.u, second.v, path="divisor")
    assert len(calls) == seen
    keys = ("T0", "N0", "float_bits")
    assert [a["transcript"][k] for k in keys] == [b["transcript"][k] for k in keys]
    assert b["transcript"]["path"] == "divisor"


# one discriminant per Weber case of -D/4 (mod 8): 1, 3, 5, 7, 2, 4, and the
# cubed variants of the odd cases, where 3 | D
@pytest.mark.parametrize("D", [-68, -44, -52, -28, -40, -80, -132, -84, -60, -12])
def test_gen_curve_weber_divisor_every_case(D):
    prm = search_fixed_D(D, p_bits=10, rng=random.Random(-D))
    res = gen_curve(D, prm.p, prm.u, prm.v, kind=InvariantKind("weber"), path="divisor")
    assert res["transcript"]["path"] == "divisor"
    assert naive_count(res["curve"]) == prm.order == res["order"]


# --- the split along Cl^2 mod p --------------------------------------------

def pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


@pytest.mark.parametrize("D,k,H", [(-2519, 4, 8), (-9911, 2, 17), (-46151, 4, 19)])
def test_split_coset_polynomials_multiply_to_the_divisor(D, k, H):
    # every root s of R mod p picks the coset polynomial with coefficients
    # N_j(s) / R'(s); over all k roots their product is the conjugate-route
    # divisor reduced at the same prime above p
    split = class_poly_split(D)
    assert (split.k, len(split.N), split.degree) == (k, H, k * H)
    div = class_poly_divisor(D, route="conjugates")
    for seed in (1, 2):
        found = search_fixed_D(D, p_bits=128, rng=random.Random(seed))
        p = found.p
        R, N = reduce_split_mod_p(split, p)
        dR = [i * c % p for i, c in enumerate(R)][1:]
        g, prod = R, [1]
        while len(g) > 1:
            s, = roots_in_fp(g, p)
            g, rem = _pdivmod(g, [-s % p, 1], p)
            assert rem == []
            inv = pow(peval(dR, s, p), -1, p)
            prod = pmul(prod, [peval(row, s, p) * inv % p for row in N] + [1], p)
        assert prod == reduce_mod_p(div, p)


def test_gen_curve_auto_reports_the_split():
    # -2519 on auto: the transcript keeps the divisor's degree n = 32 and
    # the conjugate route's name, with the split's k, |H|, T and B
    found = search_fixed_D(-2519, p_bits=128, rng=random.Random(5))
    res = gen_curve(-2519, found.p, found.u, found.v)
    tr = res["transcript"]
    split = class_poly_split(-2519)
    assert (tr["path"], tr["route"], tr["degree"], tr["k"], tr["H"]) == \
        ("divisor", "conjugates", 32, 4, 8)
    assert (tr["T"], tr["B"]) == (split.plan.T, split.plan.B)
    assert order_mismatch(res["curve"], res["order"], random.Random(0)) is None


def test_gen_curve_takes_the_k1_split_when_R_prime_vanishes(monkeypatch):
    # R'(s) = 0 mod p (forced here for every k > 1) leaves the coset of s
    # undetermined: the curve comes from the k = 1 split, the plain divisor
    # of the path's route, and is the one that divisor alone gives
    found = search_fixed_D(-2519, p_bits=128, rng=random.Random(5))
    deriv = curve._pderiv
    monkeypatch.setattr(curve, "_pderiv", lambda f, p: [0] if len(f) > 2 else deriv(f, p))
    res = gen_curve(-2519, found.p, found.u, found.v, seed=3)
    tr = res["transcript"]
    div = class_poly_divisor(-2519, route="conjugates")
    assert (tr["path"], tr["route"], tr["k"], tr["H"]) == ("divisor", "conjugates", 1, 32)
    assert (tr["T"], tr["B"]) == (div.plan.T, div.plan.B)
    fp = reduce_mod_p(div, found.p)
    assert tr["root"] == roots_in_fp(fp, found.p, seed=3)[0]
    assert order_mismatch(res["curve"], res["order"], random.Random(0)) is None
    # the divisor path falls back the same way, to the paper-route divisor
    res = gen_curve(-2519, found.p, found.u, found.v, path="divisor", seed=3)
    tr = res["transcript"]
    div = class_poly_divisor(-2519, route="paper")
    assert (tr["path"], tr["route"], tr["k"], tr["H"]) == ("divisor", "paper", 1, 32)
    assert (tr["T0"], tr["N0"], tr["float_bits"]) == \
        (div.plan.T0, div.plan.N0, div.plan.float_bits)
    assert tr["root"] == roots_in_fp(fp, found.p, seed=3)[0]
    assert order_mismatch(res["curve"], res["order"], random.Random(0)) is None
