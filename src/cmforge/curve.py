"""Prime-field tail: reduce the class polynomial mod p, pick a root, build
the curve, and choose the twist with the prescribed order.

Polynomials over F_p are dense coefficient lists, ascending, ints in [0, p).
Points are (x, y) tuples or None for infinity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from .arith import kronecker, least_nonresidue, sqrt_mod_p, \
    validate_params
from .classpoly import DEFAULT_MAX_BITS, ClassPolynomial, HeckeSplit, \
    class_poly_divisor, class_poly_full, class_poly_split, whole_split
from .errors import (InternalInvariantError, InvalidParameters,
                     PrecisionExhausted, UnsupportedInvariant)
from .modfns import InvariantKind, j_from_theta

__all__ = [
    "WeierstrassCurve",
    "make_curve",
    "reduce_divisor_mod_p",
    "reduce_split_mod_p",
    "roots_in_fp",
    "curve_from_j",
    "point_neg",
    "scalar_mul",
    "random_point",
    "naive_count",
    "order_mismatch",
    "select_twist",
    "gen_curve",
]


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + ax + b over F_p, nonsingular."""

    p: int
    a: int
    b: int

    def j_invariant(self):
        p, a, b = self.p, self.a, self.b
        num = 1728 * 4 * pow(a, 3, p)
        den = (4 * pow(a, 3, p) + 27 * pow(b, 2, p)) % p
        return num * pow(den, -1, p) % p


def make_curve(p, a, b):
    a, b = a % p, b % p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise InvalidParameters(f"singular curve a={a}, b={b} mod {p}")
    return WeierstrassCurve(p, a, b)


# ---------------------------------------------------------------------------
# reduction of the genus divisor

def reduce_divisor_mod_p(poly: ClassPolynomial, p):
    """Coefficients of poly mod a prime of the genus field above p.

    Each sqrt(q_i*) is sent to sqrt_mod_p(q_i*); reducing the divisor's
    Galois conjugate instead lands on a conjugate prime above p.  Full
    polynomials reduce verbatim.
    """
    out = _mod_p(poly.coeffs, p)
    assert out[-1] == 1
    return out


def reduce_split_mod_p(split: HeckeSplit, p):
    """(R, [N_0, N_1, ...]) mod the prime above p of ``reduce_divisor_mod_p``:
    one prime for all of them, so that N_j(s) / R'(s) is the j-th
    coefficient of the coset polynomial of the root s of R."""
    k = split.k
    flat = _mod_p(split.R + sum(split.N, ()), p)
    return flat[:k + 1], [flat[i:i + k] for i in range(k + 1, len(flat), k)]


def _mod_p(coeffs, p):
    """Genus-field (or integer) coefficients mod the prime above p."""
    if isinstance(coeffs[-1], int):
        return [c % p for c in coeffs]
    roots = []
    for q in coeffs[-1].qstars:
        r = sqrt_mod_p(q % p, p)
        if r is None:
            raise InvalidParameters(
                f"{q} is a non-residue mod {p}; p does not split in the genus field")
        roots.append(r)
    return [c.mod_p(roots, p) for c in coeffs]


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pdivmod(f, g, p):
    """Quotient and remainder of f by g."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(r) - dg)
    while len(r) - 1 >= dg and r:
        c = r[-1] * inv % p
        shift = len(r) - 1 - dg
        q[shift] = c
        for i, gc in enumerate(g):
            r[shift + i] = (r[shift + i] - c * gc) % p
        _ptrim(r)
    return q, r


def _pgcd(f, g, p):
    f, g = list(f), list(g)
    while g:
        f, g = g, _pdivmod(f, g, p)[1]
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def _slot_bytes(p, m):
    """Kronecker slot size for products of lists over F_p, the shorter of
    length at most m: a slot holds m*(p-1)^2, which bounds every
    coefficient of the exact product, so no slot carries into the next."""
    return (2 * p.bit_length() + m.bit_length() + 8) // 8


def _pack(f, k):
    """The int with f's coefficients in consecutive k-byte slots."""
    return int.from_bytes(b"".join(c.to_bytes(k, "little") for c in f), "little")


def _unpack(x, n, k, p):
    """The n lowest k-byte slots of the int x, each reduced mod p."""
    raw = x.to_bytes(max(n * k, (x.bit_length() + 7) // 8), "little")
    return [int.from_bytes(raw[i:i + k], "little") % p for i in range(0, n * k, k)]


def _mulx_plus(r, a, low, p):
    """(x + a)*r mod x^n + low over F_p, for r of length n."""
    top = r[-1]
    return [(prev + a * c - top * hc) % p for prev, c, hc in zip([0] + r[:-1], r, low)]


def _ppow_linear(a, e, h, p):
    """(x + a)^e mod the monic h over F_p, deg h = n >= 1.

    Left to right, one Kronecker square and one fold per bit (von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 9 and 14): reduction mod
    h is linear, so the remainder is the square's low n slots plus its top
    coefficients s_(n+i) mod p, i < n-1, times packed rows x^(n+i) mod h
    built once per call.  A low slot holds under n*p^2 and the rows add
    under (n-1)*p^2, so slots sized for 2n*p^2 never carry into slot n, and
    reading the low n slots needs no mask.
    """
    n = len(h) - 1
    low = h[:n]
    k = _slot_bytes(p, 2 * n)
    rows, row = [], [(-c) % p for c in low]
    for _ in range(n - 1):
        rows.append(_pack(row, k))
        row = _mulx_plus(row, 0, low, p)
    r = [1] + [0] * (n - 1)
    for bit in bin(e)[2:]:
        S = _pack(r, k) ** 2
        r = _unpack(S + sum(map(mul, _unpack(S >> 8 * n * k, n - 1, k, p), rows)), n, k, p)
        if bit == "1":
            r = _mulx_plus(r, a, low, p)
    return _ptrim(r)


def _psub(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def _peval(f, x, p):
    """f(x) mod p, f ascending."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _pderiv(f, p):
    """f' mod p, f ascending."""
    return [i * c % p for i, c in enumerate(f)][1:]


def roots_in_fp(f, p, seed=0):
    """One root of f in F_p, p an odd prime, as a one-element list, or []
    when f has none.  f need not be monic, but must be nonzero mod p.

    Each pass splits g, first f itself, by w = (x+a)^((p-1)/2) mod g: every
    root r of g in F_p is a root of w - 1 (r + a a nonzero square) or of
    (x+a) (w + 1) (r + a zero or a non-square), and both are squarefree.  So
    gcd(w - 1, g) and gcd((x+a) (w + 1), g) split the distinct linear
    factors of g in two, and the smaller nonconstant piece is kept; a tie
    goes to the first.  The first pass takes a = 0, every later one draws a
    from a Random(seed), so the result is deterministic for a fixed seed.
    """
    f = _ptrim([c % p for c in f])
    if not f:
        raise InvalidParameters("roots_in_fp needs a nonzero polynomial mod p")
    lead = pow(f[-1], -1, p)
    f = [c * lead % p for c in f]
    if len(f) == 1:
        return []
    rng = random.Random(seed)
    g, a = f, 0
    while len(g) > 2:
        w = _ppow_linear(a, (p - 1) // 2, g, p)
        w1 = _psub(w, [-1], p)
        # (x + a) (w + 1), coefficient i is w1[i-1] + a w1[i]
        xw1 = _ptrim([(lo + a * c) % p for lo, c in zip([0] + w1, w1 + [0])])
        pieces = [d for d in (_pgcd(_psub(w, [1], p), g, p), _pgcd(xw1, g, p))
                  if len(d) > 1]
        if not pieces:
            return []
        g, a = min(pieces, key=len), rng.randrange(p)
    return [(-g[0]) % p]


# ---------------------------------------------------------------------------
# from invariant root to a curve

def curve_from_j(j, p):
    j %= p
    if j == 0:
        return make_curve(p, 0, 1)
    if j == 1728 % p:
        return make_curve(p, 1, 0)
    c = j * pow((1728 - j) % p, -1, p) % p
    return make_curve(p, 3 * c, 2 * c)


# ---------------------------------------------------------------------------
# point arithmetic

def point_neg(P, curve):
    if P is None:
        return None
    x, y = P
    return (x, (-y) % curve.p)


def _jacobian_double(X, Y, Z, a, p):
    """2*(X : Y : Z); Z = 0 (infinity) and Y = 0 both give Z = 0."""
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    M = (3 * X * X + a * ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _jacobian_add_affine(X, Y, Z, x2, y2, a, p):
    """(X : Y : Z) + (x2, y2)."""
    if not Z:
        return x2, y2, 1
    ZZ = Z * Z % p
    H = (x2 * ZZ - X) % p
    R = (y2 * ZZ * Z - Y) % p
    if not H:
        return (1, 1, 0) if R else _jacobian_double(X, Y, Z, a, p)
    HH = H * H % p
    HHH = H * HH % p
    V = X * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return X3, (R * (V - X3) - Y * HHH) % p, Z * H % p


def scalar_mul(k, P, curve):
    """k*P, left to right in Jacobian coordinates (x, y) = (X/Z^2, Y/Z^3).

    The chain adds only the affine P, and one inversion at the end takes
    the result back to affine coordinates; Z = 0 is the point at infinity.
    """
    if k < 0:
        k, P = -k, point_neg(P, curve)
    if P is None:
        return None
    p, a = curve.p, curve.a
    x2, y2 = P
    X, Y, Z = 1, 1, 0
    for bit in bin(k)[2:]:
        X, Y, Z = _jacobian_double(X, Y, Z, a, p)
        if bit == "1":
            X, Y, Z = _jacobian_add_affine(X, Y, Z, x2, y2, a, p)
    if not Z:
        return None
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return (X * zi2 % p, Y * zi2 * zi % p)


def random_point(curve, rng):
    p = curve.p
    while True:
        x = rng.randrange(p)
        rhs = (x * x * x + curve.a * x + curve.b) % p
        y = sqrt_mod_p(rhs, p)
        if y is not None:
            return (x, y)


def naive_count(curve):
    """Exact group order by character sum; only for small p."""
    p = curve.p
    if p > 10 ** 4:
        raise InvalidParameters(f"naive count is quadratic, p = {p} is above 10^4")
    total = p + 1
    for x in range(p):
        total += kronecker(x * x * x + curve.a * x + curve.b, p)
    return total


def order_mismatch(curve, order, rng):
    """None when curve has order points, else why not.

    p <= 10^4: the exact naive count.  Larger p: order*P = infinity at 10
    random points from rng, each drawn only when the one before passed.
    """
    if curve.p <= 10 ** 4:
        n = naive_count(curve)
        return None if n == order else f"recount gives {n}, not {order}"
    for _ in range(10):
        if scalar_mul(order, random_point(curve, rng), curve) is not None:
            return f"order {order} does not kill a random point"
    return None


# ---------------------------------------------------------------------------
# twist selection

def _sextic_generator(p):
    # order-6 image in F_p* / (F_p*)^6: a non-square non-cube
    g = 2
    while pow(g, (p - 1) // 2, p) == 1 or pow(g, (p - 1) // 3, p) == 1:
        g += 1
    return g


def _twist_family(curve):
    """All twists sharing curve's j-invariant, dispatched on its shape.

    j = 0 needs p = 1 (mod 3) and j = 1728 needs p = 1 (mod 4): otherwise
    the curve is supersingular, and its twists all have p + 1 points.
    """
    p = curve.p
    if curve.a == 0:       # j = 0: sextic family
        if p % 3 != 1:
            raise InvalidParameters(f"j = 0 is supersingular at p = {p}, not 1 (mod 3)")
        g = _sextic_generator(p)
        return [make_curve(p, 0, curve.b * pow(g, i, p)) for i in range(6)]
    if curve.b == 0:       # j = 1728: quartic family
        if p % 4 != 1:
            raise InvalidParameters(f"j = 1728 is supersingular at p = {p}, not 1 (mod 4)")
        g = least_nonresidue(p)
        return [make_curve(p, curve.a * pow(g, i, p), 0) for i in range(4)]
    c = least_nonresidue(p)
    return [curve, make_curve(p, curve.a * c * c, curve.b * pow(c, 3, p))]


def select_twist(curve, target_order, rng=None):
    """(twist, index): the member of curve's twist family with the
    prescribed order, and its index in ``_twist_family(curve)``.

    Each member is put to ``order_mismatch`` in turn, with one rng, and the
    survivor must be unique (candidate orders are pairwise distinct for
    ordinary curves, so ties mean the point test failed to separate and we
    refuse to guess).  Order p + 1 is trace 0, which only supersingular
    curves have, and all their twists share it.
    """
    if target_order == curve.p + 1:
        raise InvalidParameters(f"order p + 1 = {target_order} is supersingular")
    if rng is None:
        rng = random.Random(0)
    passing = [(cand, i) for i, cand in enumerate(_twist_family(curve))
               if order_mismatch(cand, target_order, rng) is None]
    if len(passing) == 1:
        return passing[0]
    if not passing:
        raise InvalidParameters(
            f"no twist over F_{curve.p} has order {target_order}")
    raise InternalInvariantError(
        f"twist selection ambiguous: {len(passing)} candidates pass")


# ---------------------------------------------------------------------------
# end-to-end

def _one_root(f, p, D, seed):
    roots = roots_in_fp(f, p, seed=seed)
    if not roots:
        raise InternalInvariantError(
            f"class polynomial for D={D} has no root mod {p} despite valid parameters")
    return roots[0]


def _coset_root(split, p, seed):
    """A root mod p of the coset polynomial P_c that one root s of R picks,
    with coefficients N_j(s) / R'(s); None when R'(s) = 0 mod p, where the
    Hecke representation does not tell the cosets apart.  At k = 1 the
    root search on R is one step and R' = 1."""
    R, N = reduce_split_mod_p(split, p)
    s = _one_root(R, p, split.D, seed)
    dR = _peval(_pderiv(R, p), s, p)
    if not dR:
        return None
    inv = pow(dR, -1, p)
    return _one_root([_peval(row, s, p) * inv % p for row in N] + [1], p, split.D, seed)


# the polynomials that each path tries in turn: auto moves on when one
# would exceed max_bits or when R'(s) vanishes mod p
_TRIES = {"auto": ("split", "conjugates", "full"), "divisor": ("paper",), "full": ("full",)}


def _split_for(how, D, kind, max_bits):
    if how == "split":
        return class_poly_split(D, kind, max_bits)
    if how == "full":
        return whole_split(class_poly_full(D, kind, max_bits))
    return whole_split(class_poly_divisor(D, kind, max_bits, route=how))


def gen_curve(D, p, u, v, kind=None, path="auto", seed=0, max_bits=DEFAULT_MAX_BITS):
    """Curve over F_p with exactly p + 1 - u points, via the CM class polynomial.

    path: "auto" (the genus divisor on the conjugate route, recovered from
    all 2^t embeddings and split along Cl^2 by ``class_poly_split``), with
    the plain conjugate-route divisor as the fallback when R'(s) = 0 mod p
    and the full path on precision exhaustion; "divisor" (the genus divisor
    on the paper's route, from one embedding through a recovery plan); or
    "full" (classic H_D).  Every polynomial is taken as a ``HeckeSplit``,
    k = 1 but for the split: one root s of R, then one root of the coset
    polynomial that s picks.  Returns {curve, j, order, transcript}.  The
    transcript's "path" names the polynomial used, "divisor" or "full"; for
    a divisor, "route" says "conjugates" (with T and B) or "paper" (with T0,
    N0 and float_bits).  "degree" is the polynomial's, k |H|, and "k" and
    "H" give the split's k and |H|.

    The polynomials come from ``classpoly``'s per-process memo, so further
    calls at the same D, invariant and path, for other primes, evaluate no
    theta value and report the same numbers.
    """
    kind = kind or InvariantKind.j()
    disc = validate_params(D, p, u, v)
    if kind.name not in ("j", "gamma2", "weber"):
        raise UnsupportedInvariant(f"no j reconstruction for {kind}")
    kind.validate_for(disc)
    if path not in _TRIES:
        raise InvalidParameters(f"unknown path {path!r}")
    target = p + 1 - u

    transcript = {"D": D, "p": p, "u": u, "v": v, "invariant": str(kind),
                  "target": target}
    tries = _TRIES[path]
    for i, how in enumerate(tries):
        try:
            split = _split_for(how, D, kind, max_bits)
        except PrecisionExhausted:
            if i + 1 == len(tries):
                raise
            continue
        r = _coset_root(split, p, seed)
        if r is not None:
            break
    plan = split.plan
    if how == "full":
        transcript["path"] = "full"
    else:
        transcript.update(path="divisor", **(
            dict(route="paper", T0=plan.T0, N0=plan.N0, float_bits=plan.float_bits)
            if how == "paper" else dict(route="conjugates", T=plan.T, B=plan.B)))
    transcript.update(degree=split.degree, k=split.k, H=len(split.N))
    j = j_from_theta(r, kind, p, D=D)
    curve, twist = select_twist(curve_from_j(j, p), target, random.Random(seed))
    transcript.update(root=r, j=j, twist=twist)
    return {"curve": curve, "j": j, "order": target, "transcript": transcript}
