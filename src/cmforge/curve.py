"""Prime-field tail: reduce the class polynomial mod p, pick a root, build
the curve, and choose the twist with the prescribed order.

Polynomials over F_p are dense coefficient lists, ascending, ints in [0, p).
Points are (x, y) tuples or None for infinity.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from operator import mul

from .arith import kronecker, least_nonresidue, sqrt_mod_p, \
    validate_params
from .classpoly import DEFAULT_MAX_BITS, HeckeSplit, \
    class_poly_divisor, class_poly_full, class_poly_split, whole_split
from .errors import (InternalInvariantError, InvalidParameters,
                     PrecisionExhausted, UnsupportedInvariant)
from .modfns import InvariantKind, j_from_theta

__all__ = [
    "WeierstrassCurve",
    "make_curve",
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

def reduce_split_mod_p(split: HeckeSplit, p):
    """(R, [N_0, N_1, ...]) mod one prime of the genus field above p, the
    one that sends each sqrt(q_i*) to sqrt_mod_p(q_i*): one prime for all
    of them, so that N_j(s) / R'(s) is the j-th coefficient of the coset
    polynomial of the root s of R.  Reducing a Galois conjugate of the
    split instead lands on a conjugate prime above p.  Integer
    coefficients (the full polynomial's) reduce verbatim."""
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


def _packed_barrett(p, n, L):
    """(k, reduce): k, a slot size in bytes for values below 2^L, L >= 2b
    with b = bitlen(p), and reduce, which brings each of the n lowest
    k-byte slots of an int below 3p, keeping it mod p.

    Barrett's reduction (Handbook of Applied Cryptography, 14.42) on the
    packed int: with per-slot masks, floor(floor(v / 2^(b-1)) mu / 2^s),
    mu = floor(2^(L+1) / p) and s = L - b + 2, is floor(v / p) less 0, 1
    or 2 in every slot at once.  Its product needs 2L - 2b + 3 bits, so no
    slot carries into the next.
    """
    b = p.bit_length()
    shift = L - b + 2
    k = (2 * L - 2 * b + 10) // 8
    ones = _pack([1] * n, k)
    high = ((1 << 8 * k) - (1 << b - 1)) * ones
    quot = ((1 << 8 * k) - (1 << shift)) * ones
    mu = (1 << L + 1) // p

    def reduce(x):
        return x - ((((x & high) >> b - 1) * mu & quot) >> shift) * p
    return k, reduce


def _ppow_linear(a, e, h, p):
    """(x + a)^e mod the monic h over F_p, deg h = n >= 1.

    Left to right, one Kronecker square and one fold per bit (von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 9 and 14): reduction mod
    h is linear, so the remainder is the square's low n slots plus its top
    coefficients s_(n+i) mod p, i < n-1, times packed rows x^(n+i) mod h
    built once per call; the first row, x^n mod h, also folds the top slot
    of a step by x + a.  The square's 2n-1 slots are read from one byte
    string.  The remainder stays packed, each slot brought below 3p by
    ``_packed_barrett``, and only the result is unpacked.  With
    coefficients below 3p a low slot of the square holds under 9n*p^2 and
    the rows add under (n-1)*p^2, and a step by x + a holds under 4p^2, so
    every slot value stays below 10n*p^2.
    """
    n = len(h) - 1
    low = h[:n]
    k, below_3p = _packed_barrett(p, n, (10 * n * p * p).bit_length())
    row = [(-c) % p for c in low]
    rows = [_pack(row, k)]
    for _ in range(n - 2):
        row = _mulx_plus(row, 0, low, p)
        rows.append(_pack(row, k))
    nk, size, mask = n * k, (2 * n - 1) * k, (1 << 8 * n * k) - 1
    r = 1
    for bit in bin(e)[2:]:
        raw = (r * r).to_bytes(size, "little")
        top = [int.from_bytes(raw[i:i + k], "little") % p for i in range(nk, size, k)]
        r = below_3p(int.from_bytes(raw[:nk], "little") + sum(map(mul, top, rows)))
        if bit == "1":
            r = (r << 8 * k) + a * r
            r = below_3p((r & mask) + (r >> 8 * nk) % p * rows[0])
    return _ptrim(_unpack(r, n, k, p))


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
    A quadratic g is not powered: ``_quadratic_root`` replays its passes.
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
    while len(g) > 3:
        w = _ppow_linear(a, (p - 1) // 2, g, p)
        w1 = _psub(w, [-1], p)
        # (x + a) (w + 1), coefficient i is w1[i-1] + a w1[i]
        xw1 = _ptrim([(lo + a * c) % p for lo, c in zip([0] + w1, w1 + [0])])
        pieces = [d for d in (_pgcd(_psub(w, [1], p), g, p), _pgcd(xw1, g, p))
                  if len(d) > 1]
        if not pieces:
            return []
        g, a = min(pieces, key=len), rng.randrange(p)
    if len(g) == 3:
        return _quadratic_root(g, a, rng, p)
    return [(-g[0]) % p]


def _quadratic_root(g, a, rng, p):
    """The root that ``roots_in_fp``'s passes keep of the monic quadratic
    g, from the pass that takes a on, drawing from the same rng.

    Both roots come from the quadratic formula, and a pass needs only the
    Legendre symbol of r + a for each: the piece gcd(w - 1, g) holds the
    roots with r + a a nonzero square.  A pass that keeps both roots on one
    side leaves g as it is and draws the next a; one that parts them keeps
    the first piece, a tie of degree 1.  An irreducible g splits in no
    pass, and a double root, which only f itself can have (every later
    piece is squarefree), is kept whatever the pass.
    """
    s = sqrt_mod_p(g[1] * g[1] - 4 * g[0], p)
    if s is None:
        return []
    half = (p + 1) // 2
    roots = [(s - g[1]) * half % p, (-s - g[1]) * half % p]
    if not s:
        return roots[:1]
    while True:
        square = [r for r in roots if kronecker(r + a, p) == 1]
        if len(square) == 1:
            return square
        a = rng.randrange(p)


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


_INFINITY = (1, 1, 0, 0)


def _mjac_double(X, Y, Z, W, n, p):
    """2^n*(X : Y : Z : W) in modified Jacobian coordinates, W = a Z^4:
    each doubling takes four multiplications and four squarings, and reads
    a from W.  Z = 0 (infinity) and Y = 0 both give Z = 0."""
    for _ in range(n):
        YY = Y * Y % p
        U = 8 * YY * YY % p
        S = 4 * X * YY % p
        M = (3 * X * X + W) % p
        X = (M * M - 2 * S) % p
        Y, Z, W = (M * (S - X) - U) % p, 2 * Y * Z % p, 2 * U * W % p
    return X, Y, Z, W


def _mjac_add_affine(X, Y, Z, W, x2, y2, a, p):
    """(X : Y : Z : W) + (x2, y2) on y^2 = x^3 + ax + b."""
    if not Z:
        return x2, y2, 1, a
    ZZ = Z * Z % p
    H = (x2 * ZZ - X) % p
    R = (y2 * ZZ * Z - Y) % p
    if not H:
        return _INFINITY if R else _mjac_double(X, Y, Z, W, 1, p)
    HH = H * H % p
    HHH = H * HH % p
    V = X * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    Z3 = Z * H % p
    ZZ3 = Z3 * Z3 % p
    return X3, (R * (V - X3) - Y * HHH) % p, Z3, a * ZZ3 * ZZ3 % p


def _affine(points, p):
    """Jacobian points (X, Y, Z) in affine coordinates, None where Z = 0,
    with one inversion for all of them (Montgomery's trick)."""
    acc, before = 1, []
    for _, _, Z in points:
        before.append(acc)
        acc = acc * (Z or 1) % p
    inv, out = pow(acc, -1, p), []
    for (X, Y, Z), b in zip(reversed(points), reversed(before)):
        if not Z:
            out.append(None)
            continue
        zi = inv * b % p
        inv = inv * Z % p
        zi2 = zi * zi % p
        out.append((X * zi2 % p, Y * zi2 * zi % p))
    return out[::-1]


def _odd_multiples(P, a, p):
    """[P, 3P, ..., 15P], affine, None for infinity: 2P made affine, then
    a Jacobian chain adding it, made affine by one more inversion."""
    [twice] = _affine([_mjac_double(*P, 1, a, 1, p)[:3]], p)
    if twice is None:
        return [P] * 8
    chain, Q = [], (*P, 1, a)
    for _ in range(7):
        Q = _mjac_add_affine(*Q, *twice, a, p)
        chain.append(Q[:3])
    return [P] + _affine(chain, p)


@functools.lru_cache(maxsize=8)
def _wnaf(k):
    """The width-5 NAF of k > 0 (Solinas, Designs, Codes and Cryptography
    19, 2000): digits 0 or odd in [-15, 15], each nonzero one followed by
    at least four zeros.  Returned as the leading digit d and steps (n, d):
    k is the leading digit, and each step takes k to 2^n k + d.  The point
    test multiplies every point of a twist family by one order, so the
    last few recodings are kept."""
    digits = []
    while k:
        d = k & 31 if k & 1 else 0
        if d > 16:
            d -= 32
        digits.append(d)
        k = (k - d) >> 1
    steps, n = [], 0
    for d in reversed(digits[:-1]):
        n += 1
        if d:
            steps.append((n, d))
            n = 0
    if n:
        steps.append((n, 0))
    return digits[-1], tuple(steps)


def scalar_mul(k, P, curve):
    """k*P, left to right over the width-5 NAF of |k| in modified Jacobian
    coordinates (x, y) = (X/Z^2, Y/Z^3), W = a Z^4 (Cohen, Miyaji & Ono,
    ASIACRYPT 1998).

    The chain adds the affine odd multiples P, 3P, ..., 15P or their
    negatives, and one inversion at the end takes the result back to
    affine coordinates; Z = 0 is the point at infinity, and so is an odd
    multiple None.
    """
    if k < 0:
        k, P = -k, point_neg(P, curve)
    if P is None or not k:
        return None
    p, a = curve.p, curve.a
    odd = _odd_multiples(P, a, p)
    top, steps = _wnaf(k)
    Q = odd[top >> 1]
    X, Y, Z, W = _INFINITY if Q is None else (*Q, 1, a)
    for n, d in steps:
        X, Y, Z, W = _mjac_double(X, Y, Z, W, n, p)
        Q = odd[abs(d) >> 1] if d else None
        if Q is not None:
            X, Y, Z, W = _mjac_add_affine(X, Y, Z, W, Q[0], Q[1] if d > 0 else -Q[1] % p, a, p)
    return _affine([(X, Y, Z)], p)[0]


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
    """(twist, index): the member of curve's twist family with
    target_order points, and its index in ``_twist_family(curve)``.

    curve is an ordinary curve over F_p, target_order the order sought,
    and rng (default ``random.Random(0)``) draws the test points.  For
    p <= 10^4 the exact count decides.  Above it, each member draws one
    random point P, and target_order P != O rules that member out, which
    is a proof.  The orders of an ordinary family are pairwise distinct,
    so when target_order is one of them (as ``gen_curve`` guarantees:
    4p = u^2 + |D|v^2 and j a root of a factor of H_D), the lone member
    left standing is the twist.  Members still standing together draw
    more points, up to 10 each, as in ``order_mismatch``.  None left means
    no member has that order; several left after 10 means the points
    failed to separate them, and no guess is returned.  Order p + 1 is
    trace 0, which only supersingular curves have, and all their twists
    share it.
    """
    if target_order == curve.p + 1:
        raise InvalidParameters(f"order p + 1 = {target_order} is supersingular")
    if rng is None:
        rng = random.Random(0)
    family = _twist_family(curve)
    if curve.p <= 10 ** 4:
        standing = [i for i, cand in enumerate(family) if naive_count(cand) == target_order]
    else:
        standing = range(len(family))
        for _ in range(10):
            standing = [i for i in standing if scalar_mul(
                target_order, random_point(family[i], rng), family[i]) is None]
            if len(standing) <= 1:
                break
    if len(standing) == 1:
        return family[standing[0]], standing[0]
    if not standing:
        raise InvalidParameters(
            f"no twist over F_{curve.p} has order {target_order}")
    raise InternalInvariantError(
        f"twist selection ambiguous: {len(standing)} candidates pass")


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


# the polynomials that each path tries in turn, (what, route): both move
# on when R'(s) vanishes mod p, and auto also when one would exceed max_bits
_TRIES = {"auto": (("split", "conjugates"), ("divisor", "conjugates"), ("full", None)),
          "divisor": (("split", "paper"), ("divisor", "paper")),
          "full": (("full", None),)}


def _split_for(what, route, D, kind, max_bits):
    if what == "split":
        return class_poly_split(D, kind, max_bits, route=route)
    if what == "full":
        return whole_split(class_poly_full(D, kind, max_bits))
    return whole_split(class_poly_divisor(D, kind, max_bits, route=route))


def gen_curve(D, p, u, v, kind=None, path="auto", seed=0, max_bits=DEFAULT_MAX_BITS):
    """Curve over F_p with exactly p + 1 - u points, via the CM class polynomial.

    path: "auto" (the genus divisor on the conjugate route, recovered from
    all 2^t embeddings and split along Cl^2 by ``class_poly_split``), with
    the plain conjugate-route divisor as the fallback when R'(s) = 0 mod p
    and the full path on precision exhaustion; "divisor" (the same split on
    the paper's route, recovered from one embedding through a recovery plan
    at the split's T), with the plain paper-route divisor as the fallback
    when R'(s) = 0 mod p; or "full" (classic H_D).  Every polynomial is
    taken as a ``HeckeSplit``, k = 1 but for a split: one root s of R, then
    one root of the coset polynomial that s picks.  Returns {curve, j,
    order, transcript}.  The transcript's "path" names the polynomial used,
    "divisor" or "full"; for a divisor, "route" says "conjugates" (with T
    and B) or "paper" (with T0, N0 and float_bits), each the numbers of the
    split or divisor that gave the root.  "degree" is the polynomial's,
    k |H|, and "k" and "H" give the split's k and |H|.

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
    for i, (what, route) in enumerate(tries):
        try:
            split = _split_for(what, route, D, kind, max_bits)
        except PrecisionExhausted:
            if path != "auto" or i + 1 == len(tries):
                raise
            continue
        r = _coset_root(split, p, seed)
        if r is not None:
            break
    plan = split.plan
    if what == "full":
        transcript["path"] = "full"
    else:
        transcript.update(path="divisor", **(
            dict(route="paper", T0=plan.T0, N0=plan.N0, float_bits=plan.float_bits)
            if route == "paper" else dict(route="conjugates", T=plan.T, B=plan.B)))
    transcript.update(degree=split.degree, k=split.k, H=len(split.N))
    j = j_from_theta(r, kind, p, D=D)
    curve, twist = select_twist(curve_from_j(j, p), target, random.Random(seed))
    transcript.update(root=r, j=j, twist=twist)
    return {"curve": curve, "j": j, "order": target, "transcript": transcript}
