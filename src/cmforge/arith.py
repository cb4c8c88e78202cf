"""Integer arithmetic underpinning the CM construction.

Kronecker symbols, primality, modular square roots, the 4p = u^2 + |D|v^2
version of Cornacchia's algorithm, discriminant factorization into prime
discriminants, every admissible curve order at one (D, p), and the
fixed-D parameter search that produces curve orders avoiding small prime
factors.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InternalInvariantError, InvalidParameters

__all__ = [
    "kronecker",
    "is_probable_prime",
    "least_nonresidue",
    "sqrt_mod_p",
    "cornacchia",
    "split_discriminant",
    "factor_d",
    "Discriminant",
    "CurveOrderParams",
    "admissible_params",
    "validate_params",
    "search_fixed_D",
]


def kronecker(a: int, b: int) -> int:
    """Kronecker symbol (a/b), defined for all integers b."""
    if b == 0:
        return 1 if a in (1, -1) else 0
    if b < 0:
        sign = -1 if a < 0 else 1
        return sign * kronecker(a, -b)
    if b % 2 == 0:
        if a % 2 == 0:
            return 0
        k = 0
        while b % 2 == 0:
            b //= 2
            k += 1
        sign = -1 if (k % 2 == 1 and a % 8 in (3, 5)) else 1
        return sign * kronecker(a, b)
    # b odd positive: Jacobi via quadratic reciprocity
    a %= b
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]

# Miller-Rabin with these bases is deterministic below 3.3 * 10^24.
_MR_BASES_SMALL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Whether the integer n is prime.

    Trial division by the primes below 72, then Miller-Rabin to the first
    12 prime bases, which is deterministic below 3.3e24.  Above that, the
    Baillie-PSW test (``_baillie_psw``, which remembers its last 64
    decisions): no composite is known to pass it.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 3317044064679887385961981:
        return all(_miller_rabin(n, b) for b in _MR_BASES_SMALL)
    return _baillie_psw(n)


# search_fixed_D proves a prime that gen_curve's validate_params proves again
# (and gencurve proves p in cornacchia and validate_params): the last
# decisions of the Baillie-PSW test are remembered, not repeated
@functools.lru_cache(maxsize=64)
def _baillie_psw(n: int) -> bool:
    """One strong base-2 round and one strong Lucas test on odd n
    (Baillie & Wagstaff, Math. Comp. 35, 1980)."""
    return _miller_rabin(n, 2) and _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test on odd n > 1, with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1
    and Q = (1 - D)/4.

    For n + 1 = d 2^s, d odd, n passes when U_d = 0 or V_(d 2^r) = 0
    (mod n) for some r < s.  A square has no such D, so it is refused
    before the search.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        k = kronecker(D, n)
        if k == -1:
            break
        if k == 0:   # |D| shares a factor with n: n is prime only as |D|
            return n == abs(D)
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k from k = 1 up the bits of d: U_2k = U_k V_k,
    # V_2k = V_k^2 - 2 Q^k, and with P = 1, U_(k+1) = (U_k + V_k)/2 and
    # V_(k+1) = (D U_k + V_k)/2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, (D * U + V) % n
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            Qk = Qk * Q % n
    if U % n == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def least_nonresidue(p: int) -> int:
    """The least quadratic non-residue mod the odd prime p."""
    c = 2
    while kronecker(c, p) != -1:
        c += 1
    return c


def sqrt_mod_p(a: int, p: int) -> Optional[int]:
    """Square root of a mod p for odd prime p; the smaller root min(r, p-r).

    Returns None when a is a non-residue.  Tonelli-Shanks with one
    exponentiation per call: for p - 1 = q 2^s, b = a^((q-1)/2) gives
    r = a b and t = r b = a^q, and z^q for the least non-residue z comes
    from ``_tonelli``'s per-prime cache, so results are reproducible.
    """
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, m, c = _tonelli(p)
    b = pow(a, (q - 1) // 2, p)
    r = a * b % p
    t = r * b % p
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


@functools.lru_cache(maxsize=8)
def _tonelli(p: int) -> tuple[int, int, int]:
    """(q, s, z^q) for p - 1 = q 2^s, q odd, and z the least non-residue:
    a point test draws its x coordinates at one prime, so the constants of
    the last few primes are kept."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    return q, s, pow(least_nonresidue(p), q, p)


def cornacchia(D: int, p: int) -> Optional[tuple[int, int]]:
    """Solve 4p = u^2 + |D|v^2 with u, v > 0, for D < 0 and prime p > 3.

    Returns (u, v) or None when p is not represented (then the CM method is
    not applicable at this p).
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidParameters(f"not an imaginary quadratic discriminant: {D}")
    if p <= 3 or not is_probable_prime(p):
        raise InvalidParameters(f"need a prime p > 3, got {p}")
    if kronecker(D, p) != 1:
        return None
    x = sqrt_mod_p(D % p, p)
    if (x - D) % 2 != 0:
        x = p - x
    # now x^2 = D (mod 4p); run the Euclidean descent on (2p, x)
    a, b = 2 * p, x
    bound = math.isqrt(4 * p)
    while b > bound:
        a, b = b, a % b
    t = 4 * p - b * b
    if t % (-D) != 0:
        return None
    # b = s x (mod 2p) for the descent's cofactor s, 0 < |s| < sqrt(p), so
    # b^2 + |D|s^2 = 4pk with 0 <= 4(k - 1) < |D|; |D| | t then gives
    # |D| | 4(k - 1), so k = 1 and t/|D| = s^2
    return b, math.isqrt(t // (-D))


# --- factorization helpers (trial division + Pollard rho) -------------------


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    for c in range(1, 50):
        x, y, d = 2, 2, 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise InternalInvariantError(f"pollard rho gave up on {n}")  # pragma: no cover


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    fac: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 73
    while d * d <= n and d < 10000:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        g = _pollard_rho(m)
        stack.extend([g, m // g])
    return fac


def split_discriminant(D: int) -> tuple[int, int]:
    """Write D = f^2 * d with d a fundamental discriminant; returns (d, f)."""
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidParameters(f"not an imaginary quadratic discriminant: {D}")
    fac = _factorize(-D)
    f = 1
    for q, e in fac.items():
        f *= q ** (e // 2)
    d0 = D // (f * f)
    if d0 % 4 == 1:
        d, cond = d0, f
    else:
        # d0 = 2,3 mod 4 forces f even (since D = 0,1 mod 4)
        d, cond = 4 * d0, f // 2
    assert cond * cond * d == D and d % 4 in (0, 1)
    return d, cond


def factor_d(d: int) -> tuple[int, ...]:
    """Factor a fundamental discriminant into prime discriminants q*.

    Odd q* are (-1)^((q-1)/2) q; the even one (if any) is -4, 8 or -8.
    Ordering: +8 first when present, then positive odd ascending, negative odd
    by |q| ascending, and -4/-8 last.  This is the order the integral-basis
    construction expects.
    """
    dd, f = split_discriminant(d)
    if f != 1:
        raise InvalidParameters(f"{d} is not fundamental (conductor {f})")
    odd_q = [q for q in _factorize(-d) if q % 2 == 1]
    odd_stars = [q if q % 4 == 1 else -q for q in odd_q]
    rem = d
    for q in odd_stars:
        rem //= q
    assert rem in (1, -4, 8, -8), (d, rem)
    head = [8] if rem == 8 else []
    tail = [rem] if rem in (-4, -8) else []
    pos = sorted(q for q in odd_stars if q > 0)
    neg = sorted((q for q in odd_stars if q < 0), key=abs)
    out = tuple(head + pos + neg + tail)
    check = 1
    for q in out:
        check *= q
    assert check == d
    return out


@dataclass(frozen=True)
class Discriminant:
    """An imaginary quadratic discriminant with its genus data precomputed."""

    D: int
    d: int  # fundamental part
    f: int  # conductor
    qstars: tuple[int, ...]  # prime discriminants of d, in basis order
    t: int  # number of prime discriminants
    u: int  # how many of them are positive (they come first)
    m: int  # 2^(t-1), the number of genera

    @classmethod
    def from_D(cls, D: int) -> "Discriminant":
        d, f = split_discriminant(D)
        qs = factor_d(d)
        t = len(qs)
        u = sum(1 for q in qs if q > 0)
        return cls(D=D, d=d, f=f, qstars=qs, t=t, u=u, m=1 << (t - 1))


@dataclass(frozen=True)
class CurveOrderParams:
    """One admissible (p, u, v, order) tuple: 4p = u^2 + |D|v^2, order = p+1-u.

    u carries the sign of the trace, so the two quadratic twists show up as
    (u, order) and (-u, order') with order + order' = 2p + 2.
    """

    p: int
    u: int
    v: int
    order: int

    def __post_init__(self):
        assert self.order == self.p + 1 - self.u


def admissible_params(D: int, p: int) -> list[CurveOrderParams]:
    """Every admissible (p, u, v, order) at (D, p), the minus order first.

    Cornacchia's (u, v) gives the orders p + 1 -+ u.  At D = -4 and D = -3
    the quartic and sextic twists add the orders of the other
    representations of 4p: (2v, u/2) at -4, and ((u + 3v)/2, |u - v|/2)
    and ((u - 3v)/2, (u + v)/2) at -3.  Empty when p is not represented.
    """
    sol = cornacchia(D, p)
    if sol is None:
        return []
    u, v = sol
    reps = [(u, v)]
    if D == -4:
        reps.append((2 * v, u // 2))
    elif D == -3:
        reps += [((u + 3 * v) // 2, abs(u - v) // 2), ((u - 3 * v) // 2, (u + v) // 2)]
    return [CurveOrderParams(p, su, vv, p + 1 - su) for uu, vv in reps for su in (uu, -uu)]


def validate_params(D: int, p: int, u: int, v: int) -> Discriminant:
    """Check the CM preconditions for (D, p, u, v); returns the Discriminant."""
    disc = D if isinstance(D, Discriminant) else Discriminant.from_D(D)
    if p <= 3 or not is_probable_prime(p):
        raise InvalidParameters(f"p = {p} is not a prime > 3")
    if 4 * p != u * u - disc.D * v * v:
        raise InvalidParameters(f"4p != u^2 + |D|v^2 for (D,p,u,v)=({disc.D},{p},{u},{v})")
    if v == 0 or math.gcd(u, p) != 1:
        raise InvalidParameters(f"degenerate parameters u={u}, v={v} at p={p}")
    # so p does not divide v, and D = (u/v)^2 is a non-zero square mod p: (D/p) = 1
    return disc


Predicate = Callable[[int, int], bool]


def _offer(params: CurveOrderParams, predicate: Optional[Predicate]):
    """params if predicate accepts them; never an anomalous order (order = p,
    trace 1), whose curves Smart's attack breaks (J. Cryptology 12, 1999)."""
    if params.order != params.p and (predicate is None or predicate(params.p, params.order)):
        return params
    return None


def search_fixed_D(
    D,
    predicate: Optional[Predicate] = None,
    *,
    p_bits: int,
    rng: Optional[random.Random] = None,
    budget: int = 200000,
) -> Optional[CurveOrderParams]:
    """Find (p, u, v, order) for a fixed discriminant, with p of p_bits bits.

    When D = 5 (mod 8) this uses the u = 1 (mod 210), v = 105 (mod 210) walk,
    which guarantees neither p nor the offered order is divisible by 2, 3, 5
    or 7; otherwise plain rejection sampling, offering both signs.

    predicate(p, order) -> bool filters candidates; None accepts the first one.
    Neither mode offers order = p.  Every candidate tried counts against
    budget, and so does every draw of the 210 walk that leaves no room for u.
    Returns None if the budget runs out.
    """
    disc = D if isinstance(D, Discriminant) else Discriminant.from_D(D)
    if p_bits < 8:
        raise InvalidParameters("p_bits must be at least 8")
    rng = rng if rng is not None else random.Random(0)
    absD = -disc.D
    lo, hi = 1 << (p_bits - 1), 1 << p_bits
    if disc.D % 8 == 5:
        return _search_210(disc, predicate, rng, budget, lo, hi)
    spent = 0
    while spent < budget:
        target = rng.randrange(lo, hi)
        vmax = math.isqrt(2 * target // absD)
        if vmax < 1:
            raise InvalidParameters(f"|D| too large for {p_bits}-bit primes")
        v = rng.randrange(1, vmax + 1)
        u = math.isqrt(4 * target - absD * v * v)
        # fix parity so u^2 + |D|v^2 = 0 (mod 4); try a couple of neighbours
        for du in (0, 1, 2, 3):
            spent += 1
            uu = u + du
            val = uu * uu + absD * v * v
            if val % 4 != 0:
                continue
            p = val // 4
            if p <= 3 or p % 2 == 0 or uu == 0 or not is_probable_prime(p):
                continue
            for su in (uu, -uu):
                got = _offer(CurveOrderParams(p, su, v, p + 1 - su), predicate)
                if got is not None:
                    return got
    return None


def _search_210(disc, predicate, rng, budget, lo, hi):
    """The 210-walk for D = 5 (mod 8): p and the offered order avoid 2,3,5,7."""
    absD = -disc.D
    if absD * 105 * 105 > 4 * hi - 8:   # no p < hi has v = 105 (mod 210)
        raise InvalidParameters(f"|D| too large for primes below {hi} in the 210 walk")
    spent = 0
    while spent < budget:
        vmax = math.isqrt(2 * lo // absD)
        v0max = max(1, (vmax - 105) // 210 + 1)
        v = 210 * rng.randrange(v0max) + 105
        target = rng.randrange(lo, hi)
        rest = 4 * target - absD * v * v
        if rest < 4:    # no u: the draw is spent all the same
            spent += 1
            continue
        u = 210 * ((math.isqrt(rest) - 1) // 210) + 1
        step = 106
        for _ in range(2000):
            spent += 1
            if spent > budget:
                break
            val = u * u + absD * v * v
            assert val % 4 == 0  # u odd, v odd, |D| = 3 (mod 8)
            p = val // 4
            res = u % 210
            assert res in (1, 107)
            if lo <= p < hi and is_probable_prime(p):
                # the good sign flips with the residue of u mod 210
                su = u if res == 1 else -u
                order = p + 1 - su
                assert math.gcd(order, 210) == 1 and math.gcd(p, 210) == 1
                got = _offer(CurveOrderParams(p, su, v, order), predicate)
                if got is not None:
                    return got
            u += step
            step = 210 - step  # alternate +106 / +104
    return None

