"""Tests for the prime-field tail: reduction, roots, curves, twists."""

import random

import pytest

from cmforge.arith import cornacchia, search_fixed_D
from cmforge.classpoly import class_poly_divisor, class_poly_full
from cmforge.curve import (WeierstrassCurve, _pdivmod, curve_from_j, gen_curve,
                           is_on_curve, j_from_theta, make_curve, naive_count,
                           point_add, random_point, reduce_divisor_mod_p,
                           roots_in_fp, scalar_mul, select_twist, sqrt_mod_p)
from cmforge.errors import (InternalInvariantError, InvalidParameters,
                            PrecisionExhausted, UnsupportedInvariant)
from cmforge.modfns import InvariantKind

J = InvariantKind.j()


def peval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def test_sqrt_mod_p_examples():
    assert sqrt_mod_p(5, 41) == 13
    assert sqrt_mod_p(0, 41) == 0
    assert sqrt_mod_p(3, 5) is None


def test_reduce_divisor_minus40():
    div = class_poly_divisor(-40, J)
    full = [c % 41 for c in class_poly_full(-40, J).coeffs]
    red = reduce_divisor_mod_p(div, 41)
    assert len(red) == 2
    quo, rem = _pdivmod(full, red, 41)
    assert rem == []
    # flipping the sqrt(5) sign lands on the conjugate factor, the cofactor
    assert reduce_divisor_mod_p(div, 41, signs=(-1, 1)) == quo != red
    # sqrt(-8) does not appear in the coefficients, flipping it is a no-op
    assert reduce_divisor_mod_p(div, 41, signs=(1, -1)) == \
        reduce_divisor_mod_p(div, 41)


def test_reduce_trivial_t1():
    div = class_poly_divisor(-3, J)
    assert reduce_divisor_mod_p(div, 13) == [0, 1]
    full = class_poly_full(-4, J)
    assert reduce_divisor_mod_p(full, 13) == [(-1728) % 13, 1]


def test_reduce_nonresidue_rejected():
    div = class_poly_divisor(-40, J)
    with pytest.raises(InvalidParameters):
        reduce_divisor_mod_p(div, 7)     # 5 is a non-residue mod 7


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


def test_curve_from_j():
    assert curve_from_j(0, 41) == WeierstrassCurve(41, 0, 1)
    assert curve_from_j(1728 % 41, 41) == WeierstrassCurve(41, 1, 0)
    for p in (41, 1009, 10007):
        for j in (3, 77 % p, 1000 % p):
            c = curve_from_j(j, p)
            assert c.j_invariant() == j % p


def test_j_from_theta():
    assert j_from_theta(7, J, 41) == [7]
    assert j_from_theta(12, InvariantKind.gamma2(), 10007) == [1728]
    # weber roots of x^2 - x - 1 mod 41 must map onto H_-40[j]'s two roots
    full = [c % 41 for c in class_poly_full(-40, J).coeffs]
    wj = {j_from_theta(r, InvariantKind.weber(), 41, D=-40)[0] for r in (7, 35)}
    assert len(wj) == 2 and all(peval(full, j, 41) == 0 for j in wj)
    with pytest.raises(InvalidParameters):
        j_from_theta(0, InvariantKind.weber(), 41, D=-40)
    with pytest.raises(UnsupportedInvariant):
        j_from_theta(3, InvariantKind.double_eta(5, 7), 41)


def test_point_arithmetic():
    c = make_curve(13, 4, 0)
    rng = random.Random(5)
    P = random_point(c, rng)
    assert is_on_curve(P, c)
    assert scalar_mul(0, P, c) is None
    assert point_add(P, None, c) == P
    n = naive_count(c)
    for _ in range(5):
        Q = random_point(c, rng)
        assert scalar_mul(n, Q, c) is None


def test_naive_count_oracle():
    assert naive_count(make_curve(5, 0, 1)) == 6


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
    assert naive_count(select_twist(base, -40, 44)) == 44
    assert naive_count(select_twist(base, -40, 40)) == 40
    with pytest.raises(InvalidParameters):
        select_twist(base, -40, 43)


def test_select_twist_families():
    # sextic family at p=13 realizes six distinct orders incl. 7
    orders = {naive_count(make_curve(13, 0, pow(2, i, 13))) for i in range(6)}
    assert len(orders) == 6 and 7 in orders
    assert naive_count(select_twist(curve_from_j(0, 13), -3, 7)) == 7
    # quartic family: 4*13 = 6^2 + 4*2^2 -> orders {8, 20, 10, 18}
    orders4 = {naive_count(make_curve(13, pow(2, i, 13), 0)) for i in range(4)}
    assert orders4 == {8, 20, 10, 18}
    assert naive_count(select_twist(curve_from_j(1728 % 13, 13), -4, 20)) == 20


def test_select_twist_large_p():
    found = search_fixed_D(-420, p_bits=32, rng=random.Random(4))
    res = gen_curve(-420, found.p, found.u, found.v, seed=1)
    c = res["curve"]
    again = select_twist(c, -420, res["order"], rng=random.Random(9))
    assert again == c


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


def test_gen_curve_other_invariants():
    for kind in (InvariantKind.weber(), InvariantKind.gamma2()):
        res = gen_curve(-40, 41, 2, 2, kind=kind)
        assert naive_count(res["curve"]) == 40


def test_gen_curve_paths_agree():
    for args in [(-40, 41, 2, 2), (-3, 13, 7, 1), (-4, 13, 6, 2)]:
        a = gen_curve(*args, path="divisor")
        b = gen_curve(*args, path="full")
        assert a["order"] == b["order"]
        assert a["transcript"]["path"] == "divisor"
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
    # a tiny divisor-precision cap forces the full-H fallback
    res = gen_curve(-40, 41, 2, 2, path="auto", max_bits=50)
    assert res["transcript"]["path"] == "full"
    assert naive_count(res["curve"]) == 40
    with pytest.raises(PrecisionExhausted):
        gen_curve(-40, 41, 2, 2, path="divisor", max_bits=50)


def test_gen_curve_transcript():
    res = gen_curve(-40, 41, 2, 2)
    tr = res["transcript"]
    for key in ("D", "p", "u", "v", "invariant", "target", "T0", "N0",
                "float_bits", "degree", "path", "root", "j", "twist"):
        assert key in tr
    assert tr["target"] == res["order"]
