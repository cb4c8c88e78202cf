"""Checks of cmforge's outputs that share no code with cmforge.

A curve case passes when its parameters satisfy 4p = u^2 + |D|v^2 with p
prime, the curve is nonsingular, order*P is the point at infinity for every
point drawn, and the same test fails on the quadratic twist.  The classpoly
case passes when its coefficients, reduced modulo a fixed prime that splits
in the genus field, equal the stored reference: a comparison by value, so a
change of the program's internal representation of field elements does not
affect it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
ORDER_TEST_POINTS = 8

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n):
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_square(a, p):
    a %= p
    return a == 0 or pow(a, (p - 1) // 2, p) == 1


def sqrt_mod(a, p):
    """A square root of the square a modulo the odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while is_square(z, p):
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# affine points on y^2 = x^3 + ax + b; None is the point at infinity

def ec_add(P, Q, a, p):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def ec_mul(k, P, a, p):
    out = None
    for bit in bin(k)[2:]:
        out = ec_add(out, out, a, p)
        if bit == "1":
            out = ec_add(out, P, a, p)
    return out


def random_point(a, b, p, rng):
    while True:
        x = rng.randrange(p)
        rhs = (x * x * x + a * x + b) % p
        if is_square(rhs, p):
            return x, sqrt_mod(rhs, p)


def order_test(a, b, p, order, rng):
    """True when order*P = O for ORDER_TEST_POINTS random points."""
    return all(ec_mul(order, random_point(a, b, p, rng), a, p) is None
               for _ in range(ORDER_TEST_POINTS))


def check_curve(case, out, rng):
    """None if the gen_curve output is right, else the reason it is not."""
    p, u, v, a, b, order = (out[k] for k in ("p", "u", "v", "a", "b", "order"))
    if out["D"] != case.D:
        return f"ran D={out['D']}, expected {case.D}"
    if p.bit_length() != case.p_bits or not is_probable_prime(p):
        return f"p={p} is not a {case.p_bits}-bit prime"
    if 4 * p != u * u + abs(case.D) * v * v or v == 0:
        return f"4p != u^2 + |D|v^2 for D={case.D}"
    if order != p + 1 - u:
        return f"order {order} != p + 1 - u"
    if (4 * a ** 3 + 27 * b * b) % p == 0:
        return "singular curve"
    expected = case.h // case.m if out["path"] == "divisor" else case.h
    if out["degree"] != expected or (case.path != "auto" and out["path"] != case.path):
        return f"path {out['path']} with degree {out['degree']}, expected {expected}"
    if not order_test(a, b, p, order, rng):
        return "order*P != O on the curve"
    c = 2
    while is_square(c, p):
        c += 1
    if order_test(a * c * c % p, b * c ** 3 % p, p, order, rng):
        return "the quadratic twist passes the order test too"
    return None


def divisor_residues(obj, P):
    """Coefficients of a genus divisor (ClassPolynomial JSON) modulo P.

    sqrt(q*) goes to the smaller square root of q* mod P; each coefficient is
    {mask: "num/den"} over the products of those square roots.
    """
    roots = []
    for q in obj["field"]:
        r = sqrt_mod(q, P)
        roots.append(min(r, P - r))
    out = []
    for coeff in obj["coeffs"]:
        acc = 0
        for mask, frac in coeff.items():
            f = Fraction(frac)
            term = f.numerator * pow(f.denominator, -1, P)
            for i, r in enumerate(roots):
                if int(mask) >> i & 1:
                    term *= r
            acc += term
        out.append(acc % P)
    return out


def load_reference():
    return json.loads(REFERENCE.read_text())


def check_divisor(case, out, reference):
    """None if the class_poly_divisor output matches the stored reference."""
    obj = out["divisor"]
    ref = reference[f"{case.D}:{case.invariant}"]
    if obj["D"] != case.D or obj["degree"] != case.h // case.m:
        return f"D={obj['D']} degree={obj['degree']}, expected {case.D} and {case.h // case.m}"
    if divisor_residues(obj, ref["P"]) != ref["residues"]:
        return f"coefficients differ from the reference modulo {ref['P']}"
    return None


def check_case(case, out, rng, reference):
    """None if one case's output is right, else the reason it is not."""
    if "error" in out:
        return out["error"]
    if case.path == "classpoly":
        return check_divisor(case, out, reference)
    return check_curve(case, out, rng)


def case_check_rng(seed, pass_no, index):
    return random.Random(f"cmforge-check:{seed}:{pass_no}:{index}")
