"""Golden outputs: sha256 digests of exact class polynomials.

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

from cmforge.classpoly import ROUTES, class_poly_divisor, class_poly_full, \
    coset_divisor, coset_labels
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
