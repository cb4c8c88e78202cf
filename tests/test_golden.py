"""Golden outputs: sha256 digests of exact class polynomials, and the
curves ``gen_curve`` builds from them.

Each divisor digest covers the ``to_json()`` of every coset divisor of one
(D, invariant), each the Galois conjugate of the principal divisor that
``class_poly_divisor`` recovers, and is checked on both recovery routes:
the conjugate route (``gen_curve``'s "auto" and "conjugates" paths) and
the paper route (its "divisor" path).  Each full digest covers
one full polynomial's ``to_json()``.  Any change to a coefficient, to the
coset order or to the serialization shows up here.
"""

import hashlib
import json

import pytest
from mpmath import mp

from cmforge.arith import cornacchia
from cmforge.classpoly import DEFAULT_MAX_BITS, ROUTES, class_poly_divisor, \
    class_poly_full, coset_divisor, coset_labels
from cmforge.curve import gen_curve
from cmforge.modfns import InvariantKind


def digest(blobs):
    return hashlib.sha256(json.dumps(blobs, sort_keys=True).encode()).hexdigest()


# 52 coset divisors in all
DIVISORS = [
    (-40, "j", "5606b8386df1a513c00b43bd9aefb77030d598c878f4e4dcf30bd14c0e91470e"),
    (-40, "gamma2", "fae0fabac9e3b69d3e84bda17726ea7c8e786d9af46b159f3198e53473c82ab2"),
    (-40, "weber", "15fff9c8aea969c46eb7762a49b860db3921a338e98114ec92441bccf29a0552"),
    (-40, "doubleeta:11,13", "9b0f633998b1b8b85e6f5319185e477cb863ff30463071f7e2556f9d602eeb97"),
    (-84, "j", "be11bcf3c333d68dc131eac8117e67e4e4ebd28af0c8ee9d0177ce51d6ad7350"),
    (-84, "doubleeta:5,7", "3c39cbd7af3d88b019dbf2295ae2ec5e9fe0f3bd1614d673946fe19a88644877"),
    (-120, "doubleeta:2,3", "999a9fc4a0819a8d9cfd05fc4e5a4c9c7b04afaa6d8be1bebf1db5c9f967a4bf"),
    (-420, "j", "99d42d5bc6c5604eba3ed7b25dd3c818ff2dd6b2433ba22d91012c06dbc7b7d9"),
    (-420, "weber", "99b8f73b2fdcf74d82e3b3c74566c5b0113ebb4fe053d556844032e5faf6bc8d"),
    (-791, "gamma2", "95d0b3afccb0de69463aff012cc80c90e980615dc9f743128b3b0deae2422f9f"),
    (-1239, "j", "9a0ba473a0f84905fbffcc1237872e3037245a9760f5415e5a6003202231f710"),
    (-2519, "j", "4ee6438c428ffc2ffcf25cdd06bf4c0e5d0649036b28e1ae308600f8eb314a9f"),
    (-3135, "doubleeta:5,7", "94f692fc60fb555dbed4338e4a2931cb548e897b32a24c38e915b824b239c28a"),
]


@pytest.mark.parametrize("D,invariant,want", DIVISORS,
                         ids=[f"{D}-{inv}" for D, inv, _ in DIVISORS])
def test_coset_divisors_golden(D, invariant, want):
    kind = InvariantKind.parse(invariant)
    for route in ROUTES:
        div = class_poly_divisor(D, kind, route=route)
        blobs = [coset_divisor(div, phi).to_json() for phi in coset_labels(D)]
        assert digest(blobs) == want, route


FULL = [
    (-40, "j", "ad00ed66d89d8ebd8f77a07f350a04cfc1d1f7b19f133bd0628758543df3add1"),
    (-40, "gamma2", "3cd59a3b17ae9db832e4904411ee7e57f2d84fa4f09f3005d8ec593d9272e572"),
    (-40, "weber", "69b58e7c1e4ce9b9625fb0b51f045923d8ea7208bba5615c651b48f464df8bbf"),
    (-40, "doubleeta:5,7", "0891d4531ad88f7ba0a5b3825578bcfe9920957ee63d4a8e3485a7e8b373dcd5"),
    (-84, "weber", "91751091d20119d75b84491936957dcea92ca17676a3d67f0bc7fa8a34e0dbf3"),
    (-420, "j", "a72b0606b64b653d4919f768ea817048d1ea8002a87bdfd5d2061d53850e5a92"),
    (-652, "j", "286f1f9fee6d3a53b0e478f912dbcef9ca3a73ea395ba5ba828ea60009f0c026"),
    (-791, "gamma2", "5248cccd90798d2e38603307ccf9c0687079e7f91a22ddf15dc1f4aed3aa6d75"),
    (-1239, "j", "eba824ebeb1d8c7f340f1cca225917ee0a2eb5656b6e6313571332bd9454f46c"),
    (-2519, "j", "307b1973bc37597ed97c572dc8c3d54b9930e4bd80c32448eaa1182da26aab9c"),
    (-3135, "doubleeta:5,7", "78cba4b94bd2343dec2124d06d351429fbbb5f0485105e5aad48159662c84dde"),
    (-5460, "j", "71286ddb04566eb3e84bba4669bd08ba8504336f86fb555353902da0cef71091"),
]


@pytest.mark.parametrize("D,invariant,want", FULL,
                         ids=[f"{D}-{inv}" for D, inv, _ in FULL])
def test_full_polynomials_golden(D, invariant, want):
    assert digest(class_poly_full(D, InvariantKind.parse(invariant)).to_json()) == want


# one divisor case per invariant, with -3135 doubleeta:5,7's non-real
# coefficients, and two full cases
AMBIENT_DIVISORS = [c for c in DIVISORS
                    if c[:2] in {(-420, "j"), (-791, "gamma2"), (-420, "weber"),
                                 (-3135, "doubleeta:5,7")}]
AMBIENT_FULL = [c for c in FULL if c[:2] in {(-791, "gamma2"), (-3135, "doubleeta:5,7")}]


@pytest.mark.parametrize("ambient", [10, 3000])
def test_digests_ignore_ambient_precision(ambient):
    # every entry point sets its own precision, so a caller's mp.prec changes
    # no polynomial; the cap makes an escalation that a lost bit would cause
    # fail fast
    with mp.workprec(ambient):
        for D, invariant, want in AMBIENT_DIVISORS:
            kind = InvariantKind.parse(invariant)
            for route in ROUTES:
                div = class_poly_divisor(D, kind, max_bits=5000, route=route)
                blobs = [coset_divisor(div, phi).to_json() for phi in coset_labels(D)]
                assert digest(blobs) == want, (D, invariant, route)
        for D, invariant, want in AMBIENT_FULL:
            full = class_poly_full(D, InvariantKind.parse(invariant), max_bits=5000)
            assert digest(full.to_json()) == want, (D, invariant)


# gen_curve's (a, b, j, transcript["root"], transcript["twist"]) for each
# gencurve case of the CI workflow: (D, p, order, path, max_bits); u is
# p + 1 - order and v comes from Cornacchia.  The last p is the first
# 128-bit p = 1 (mod 16) of search_fixed_D(-2519, p_bits=128,
# rng=Random(0)).  A change of the root or twist chosen changes these.
# Where k > 1 the divisor path reduces the paper route's split, which is
# the conjugate route's exactly, so with one seed it gives auto's curve.
CURVES = [
    ((-40, 41, 44, 'auto', None), (30, 20, 39, 39, 0)),
    ((-2519, 114136652416051318475904952879190024553663721447421684995107415264082504601349,
      114136652416051318475904952879190024553145641366974813108543013143317435819660, 'full', None),
     (50623104332783585789763991640439644702239139372771655418672233678259957216639,
      71794287027206163351810978720023104652714000064321665277483960873534139678209,
      72397466824983952380604215703888738625918653661680339677259399029976038122662,
      72397466824983952380604215703888738625918653661680339677259399029976038122662, 0)),
    ((-2519, 258749619880733665742487828236848938467,
      258749619880733665710707515980461272440, 'auto', None),
     (57786348246426020767305844236663064719,
      38524232164284013844870562824442043146,
      202871321835076781050336789708038154909,
      202871321835076781050336789708038154909, 0)),
    ((-2519, 258749619880733665742487828236848938467,
      258749619880733665710707515980461272440, 'divisor', None),
     (57786348246426020767305844236663064719,
      38524232164284013844870562824442043146,
      202871321835076781050336789708038154909,
      202871321835076781050336789708038154909, 0)),
    ((-420, 14565720460121097061,
      14565720452844686994, 'divisor', None),
     (8465857925008874959,
      6432570413304800925,
      3284332666635161494,
      3284332666635161494, 1)),
    ((-5460, 261555229857398824899273091866516965569,
      261555229857398824867898187463070009476, 'divisor', None),
     (245871264238485125942441824066928896308,
      163914176158990083961627882711285930872,
      250070022127774368454054051376287263168,
      250070022127774368454054051376287263168, 0)),
    ((-5460, 261555229857398824899273091866516965569,
      261555229857398824867898187463070009476, 'auto', None),
     (245871264238485125942441824066928896308,
      163914176158990083961627882711285930872,
      250070022127774368454054051376287263168,
      250070022127774368454054051376287263168, 0)),
    ((-9911, 65147445912611088304855032271905091456524325593151772578900906052804425597349,
      65147445912611088304855032271905091456090605056670156925607638540972612920960, 'auto', None),
     (47682455420886646324239498867242944560633931850867817584771000728703810015968,
      20144976619441469562415976975053865109829025405722575060427396936402129623058,
      38563951781891600026012487100548024500684764946601674716981528122203109012621,
      38563951781891600026012487100548024500684764946601674716981528122203109012621, 1)),
    ((-9911, 65147445912611088304855032271905091456524325593151772578900906052804425597349,
      65147445912611088304855032271905091456090605056670156925607638540972612920960, 'divisor', None),
     (47682455420886646324239498867242944560633931850867817584771000728703810015968,
      20144976619441469562415976975053865109829025405722575060427396936402129623058,
      38563951781891600026012487100548024500684764946601674716981528122203109012621,
      38563951781891600026012487100548024500684764946601674716981528122203109012621, 1)),
    ((-23, 101, 96, 'auto', 46), (4, 39, 28, 28, 1)),
    ((-2519, 298908655723650288295130869349976518497,
      298908655723650288261432268485596139520, 'auto', None),
     (44803560925868081171673901368649189269,
      29869040617245387447782600912432792846,
      130610752215938797954581911316517153975,
      130610752215938797954581911316517153975, 0)),
]


@pytest.mark.parametrize("case,want", CURVES, ids=[
    "-40-auto", "-2519-full-256", "-2519-auto-128", "-2519-divisor-128", "-420-divisor-64",
    "-5460-divisor-128", "-5460-auto-128", "-9911-auto-256", "-9911-divisor-256",
    "-23-auto-46bits",
    "-2519-auto-128-1mod16"])
def test_gen_curve_golden(case, want):
    D, p, order, path, max_bits = case
    v = cornacchia(D, p)[1]
    res = gen_curve(D, p, p + 1 - order, v, path=path,
                    max_bits=max_bits or DEFAULT_MAX_BITS)
    tr = res["transcript"]
    assert (res["curve"].a, res["curve"].b, res["j"], tr["root"], tr["twist"]) == want
