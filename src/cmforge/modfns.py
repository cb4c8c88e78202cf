"""Class invariants evaluated at form roots, and bounds on them.

``theta_value`` is the one evaluator: j, gamma2, the Weber class invariant g
and the double eta quotient m_{p1,p2}^s, at the root z of an N-system form.
Each is built from one eta quotient, which the kernel ``_eta_quotient``
computes as t^lead (prod P(s t^a)^e)^power with t = exp(2 pi i z / k) and
P the pentagonal series, eta(z) = q^(1/24) P(q): gamma2 and j take k = 3
(t = q^(1/3)), Weber f and f1 take k = 48, and m_{p1,p2} takes
k = 24 p1 p2.  The kernel takes one exp, builds every t^a from one shared
power t^g, g the gcd of the a, and takes every integer power by ``_ipow``:
mpmath's complex ``**`` turns into exp(n log z) once n times the bit size
passes 10^4, which costs far more than a few squarings.

Precision: ``theta_value`` computes z at prec + 64 bits whatever the
caller's precision, and the kernel works at prec + 64 bits, plus bitlen(k)
when k > 24: powering t by up to k multiplies its relative error by as
much.  ``_pentagonal`` sums on integers scaled by 2^P: term n is about
|q|^(n(3n-1)/2) in size, so its integers are shorter than P by the bits its
smallness makes unnecessary.  Values are principal-branch throughout.

All q-series here have real coefficients, so theta(-conj z) = conj theta(z);
``classpoly`` relies on this to evaluate one form of each mirror pair
(A, +-B, C).  ``j_from_theta`` inverts each invariant's relation to j over
F_p, with the Weber cases read from the same table that ``theta_value``
evaluates.  ``theta_bound`` bounds |theta| at one form in closed form, and
``height_bound`` turns those bounds into one on every coefficient of the
forms' polynomial; both paths size their precision from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .arith import Discriminant, is_probable_prime, kronecker
from .errors import InvalidParameters, UnsupportedInvariant
from .forms import QuadForm, reduce_form, root_of_form

__all__ = [
    "InvariantKind",
    "theta_value",
    "theta_bound",
    "height_bound",
    "j_from_theta",
]


def _ipow(x, n):
    """x**n for an integer n >= 1, by squaring and multiplying."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return out
        x = x * x


def _nome(z, k):
    """q^(1/k) = exp(2 pi i z / k) for z in the upper half plane."""
    z = mp.mpc(z)
    if z.imag <= 0:
        raise InvalidParameters(f"modular functions need Im z > 0, got {z}")
    return mp.exp(2 * mp.pi * mp.mpc(0, 1) * z / k)


def _cmul(a, b, c, d, P):
    """(a + bi)(c + di) / 2^P by three products, each component floored."""
    t = c * (a + b)
    return (t - b * (c + d)) >> P, (t + a * (d - c)) >> P


def _pentagonal(q, bits):
    """eta / q^(1/24) = 1 + sum_{n>=1} (-1)^n q^(n(3n-1)/2) (1 + q^n), summing
    until three consecutive terms drop below 2^-(bits+16).

    The sum runs on Gaussian integers scaled by 2^P, P = bits + guard: q is
    converted once, each component floored, and the sum converted back once
    at the working precision.  Term n is about |q|^e, e = n(3n-1)/2, so its
    integers are only about P + e log2|q| bits long: the precision tapers
    by itself (Enge, Math. Comp. 78, 2009).

    Error, in units of 2^-P and besides the final rounding: a floor shift
    is off by under 1 per component, so a product of two factors of modulus
    below 1 adds under sqrt2 to their errors, under 2 with second-order terms.
    A power q^e, a tree of e copies of q (each off by under sqrt2) and
    e - 1 products, is off by under 4e, so term n = q^e + q^(e+n) is off by
    under 8e + 4n = 12n^2.  Over N terms the sum is off by under
    2N(N+1)(2N+1) < 4(N+1)^3, and guard = 3 bitlen(N+1) + 18 keeps that
    below 2^-(bits+16).  N is bounded in advance: with L >= log2|q|, term
    n is below the threshold once n^2 |L| >= bits + 24.  L is mag(q) when
    that is negative, else half the float log2|q|: |q| is not tiny there,
    and halving covers the float's rounding.
    """
    lg = mp.mag(q)
    if lg >= 0:
        lg = math.log2(abs(complex(q))) / 2
    n_max = math.isqrt(int((bits + 24) / -lg) + 1) + 4
    P = bits + 3 * (n_max + 1).bit_length() + 18
    one = 1 << P
    small = 1 << (P - bits - 16)
    qr, qi = (to_fixed(x, P) for x in mp.mpc(q)._mpc_)
    q3r, q3i = _cmul(*_cmul(qr, qi, qr, qi, P), qr, qi, P)
    sr, si = one, 0
    er, ei = one, 0       # q^(n(3n-1)/2), the smaller pentagonal exponent
    nr, ni = one, 0       # q^n
    tr, ti = qr, qi       # q^(3n-2), the ratio of consecutive q^e
    below = n = 0
    while below < 3:
        n += 1
        er, ei = _cmul(er, ei, tr, ti, P)
        tr, ti = _cmul(tr, ti, q3r, q3i, P)
        nr, ni = _cmul(nr, ni, qr, qi, P)
        ur, ui = _cmul(er, ei, nr, ni, P)
        ur, ui = ur + er, ui + ei
        sr, si = (sr - ur, si - ui) if n % 2 else (sr + ur, si + ui)
        below = below + 1 if abs(ur) + abs(ui) < small else 0
    return mp.make_mpc(tuple(from_man_exp(x, -P, mp.prec, round_nearest)
                             for x in (sr, si)))


def _eta_quotient(z, k, factors, lead, power, prec):
    """t^lead (prod P(s t^a)^e)^power with t = exp(2 pi i z / k), one factor
    (a, s, e) per series, s and e each +-1.

    eta(z/d) = t^(k/24d) P(t^(k/d)), so a factor stands for one eta(z/d),
    d = k/a, above (e = 1) or below (e = -1) the line, at a translate of z
    when s = -1, and lead collects their powers of t.  One exp gives t,
    every t^a is a power of t^g with g the gcd of the a, and so is t^lead
    when g divides it.  The series multiply into one quotient before the
    power.  Works at prec + 64 bits, plus bitlen(k) when k > 24.
    """
    bits = prec + 64 + (k.bit_length() if k > 24 else 0)
    with mp.workprec(bits):
        t = _nome(z, k)
        g = math.gcd(*(a for a, _, _ in factors))
        tg = _ipow(t, g)
        num = den = None
        for a, s, e in factors:
            x = _ipow(tg, a // g)
            x = _pentagonal(x if s > 0 else -x, bits)
            if e > 0:
                num = x if num is None else num * x
            else:
                den = x if den is None else den * x
        x = _ipow(num if den is None else num / den, power)
        if lead:
            tl = _ipow(tg, abs(lead) // g) if lead % g == 0 else _ipow(t, abs(lead))
            x = x * tl if lead > 0 else x / tl
        return x


# f2^8 / 16 = q^(1/3) (P(q^2) / P(q))^8, since f2 = sqrt2 eta(2z) / eta(z)
_GAMMA2 = (3, ((6, 1, 1), (3, 1, -1)), 1, 8)

# eta(z) = r^2 P(r^48), eta(z/2) = r P(r^24) and
# eta((z+1)/2) = exp(pi i / 24) r P(-r^24) with r = exp(pi i z / 24), so
# Weber f = P(-r^24) / (r P(r^48)) and f1 = P(r^24) / (r P(r^48))
_WEBER = {
    "f": (48, ((24, -1, 1), (48, 1, -1)), -1, 1),
    "f1": (48, ((24, 1, 1), (48, 1, -1)), -1, 1),
}


def _double_eta(p1, p2):
    """m_{p1,p2}^s = (eta(z/p1) eta(z/p2) / (eta(z) eta(z/(p1 p2))))^s,
    s = 24 / gcd(24, (p1-1)(p2-1)), as an eta quotient at k = 24 p1 p2: the
    four etas' powers of t collapse to t^-((p1-1)(p2-1)), so lead is s times
    that exponent."""
    N = p1 * p2
    s = 24 // math.gcd(24, (p1 - 1) * (p2 - 1))
    factors = ((24 * p2, 1, 1), (24 * p1, 1, 1), (24 * N, 1, -1), (24, 1, -1))
    return 24 * N, factors, -(p1 - 1) * (p2 - 1) * s, s


_WEBER_CASES = {
    # key -> (``_WEBER`` quotient, inner power, scale exponent of sqrt2, sign from (2/A)?)
    # value g = (sign * f^b / 2^(k/2)) and the class invariant is g^3 (or g when
    # the 3 | B refinement applies).
    1: ("f", 2, 1, True),
    3: ("f", 1, 0, False),
    5: ("f", 4, 2, False),
    7: ("f", 1, 1, True),
    2: ("f1", 2, 1, True),   # m = 2 (mod 4)
    4: ("f1", 4, 3, True),   # m = 4 (mod 8)
}


def _weber_case(D: int) -> int:
    if D % 4 != 0:
        raise UnsupportedInvariant(f"Weber g needs D = -4m, got {D}")
    m = -D // 4
    if m % 2 == 1:
        return m % 8
    if m % 4 == 2:
        return 2
    if m % 8 == 4:
        return 4
    raise UnsupportedInvariant(f"Weber g undefined for m = 0 (mod 8), D = {D}")


@dataclass(frozen=True)
class InvariantKind:
    """Which class invariant to use: j, gamma2, Weber g, or a double eta quotient."""

    name: str
    p1: Optional[int] = None
    p2: Optional[int] = None

    _NAMES = ("j", "gamma2", "weber", "doubleeta")

    def __post_init__(self):
        if self.name not in self._NAMES:
            raise InvalidParameters(f"unknown invariant {self.name!r}")
        if self.name == "doubleeta":
            if not (self.p1 and self.p2 and is_probable_prime(self.p1)
                    and is_probable_prime(self.p2)):
                raise InvalidParameters(f"doubleeta needs two primes, got {self.p1},{self.p2}")
        elif self.p1 is not None or self.p2 is not None:
            raise InvalidParameters(f"{self.name} takes no prime parameters")

    # constructors
    @classmethod
    def j(cls):
        return cls("j")

    @classmethod
    def double_eta(cls, p1, p2):
        return cls("doubleeta", min(p1, p2), max(p1, p2))

    def __str__(self):
        if self.name == "doubleeta":
            return f"doubleeta:{self.p1},{self.p2}"
        return self.name

    @classmethod
    def parse(cls, text: str) -> "InvariantKind":
        if text.startswith("doubleeta:"):
            try:
                p1, p2 = (int(x) for x in text.split(":", 1)[1].split(","))
            except ValueError:
                raise InvalidParameters(f"cannot parse invariant {text!r}")
            return cls.double_eta(p1, p2)
        return cls(text)

    # --- discriminant-dependent behaviour ----------------------------------

    def validate_for(self, disc: Discriminant) -> None:
        D = disc.D
        if self.name == "gamma2":
            if D % 3 == 0:
                raise UnsupportedInvariant(f"gamma2 needs 3 coprime to D, D={D}")
        elif self.name == "weber":
            _weber_case(D)  # raises when unsupported
        elif self.name == "doubleeta":
            p1, p2 = self.p1, self.p2
            if p1 != p2:
                if kronecker(D, p1) == -1 or kronecker(D, p2) == -1:
                    raise UnsupportedInvariant(
                        f"doubleeta {p1},{p2}: D={D} must not be inert at either prime")
                if disc.f % p1 == 0 or disc.f % p2 == 0:
                    raise UnsupportedInvariant(
                        f"doubleeta {p1},{p2}: primes must not divide the conductor")
            else:
                if not (kronecker(D, p1) == 1 or disc.f % p1 == 0):
                    raise UnsupportedInvariant(
                        f"doubleeta {p1},{p1}: need (D/p) = 1 or p | f")
                if p1 == 2 and kronecker(D, 2) != 1 and D % 32 == 4:
                    raise UnsupportedInvariant("doubleeta 2,2 undefined for D = 4 (mod 32)")

    @staticmethod
    def weber_cubed(D: int) -> bool:
        # drop the cube whenever 3 does not divide D: smaller values and a
        # 48-system make the refined invariant available
        return D % 3 == 0

    def modulus(self, disc: Discriminant) -> int:
        if self.name == "j":
            return 1
        if self.name == "gamma2":
            return 3
        if self.name == "weber":
            return 16 if self.weber_cubed(disc.D) else 48
        return self.p1 * self.p2

    def b_target(self, disc: Discriminant) -> Optional[int]:
        D = disc.D
        if self.name == "j":
            return None
        if self.name == "gamma2":
            return 0 if D % 2 == 0 else 3
        if self.name == "weber":
            return 0
        N = self.p1 * self.p2
        for b in range(D % 2, 2 * N, 2):
            if (b * b - D) % (4 * N) == 0:
                return b
        raise UnsupportedInvariant(
            f"no residue b with b^2 = D (mod 4*{N}); doubleeta {self.p1},{self.p2} "
            f"unavailable for D={D}")

    def conjugation_closed(self, disc: Discriminant) -> bool:
        """Whether the N-system is closed under (A,B,C) -> (A,-B,C).

        That map sends a form to its inverse class, which lies in the same
        genus, and theta at the image is the complex conjugate of theta at
        the form; so when it holds every genus divisor has real coefficients.
        It holds iff b = -b (mod 2N).
        """
        b = self.b_target(disc)
        return b is None or b % self.modulus(disc) == 0


def theta_value(kind: InvariantKind, form: QuadForm, prec=96):
    """The invariant at the root z of an N-system form, at ``prec`` bits.

    Every form precondition is checked here.  z is computed once at
    prec + 64 bits, and each invariant is one eta quotient:
    gamma2 = (f2^24 + 16) / f2^8 from ``_GAMMA2``'s f2^8, and j its cube;
    Weber g = +-f^b / 2^(k/2) as in ``_WEBER_CASES``, cubed when
    ``weber_cubed``; the double eta quotient from ``_double_eta``.
    ``classpoly`` takes |theta~ - theta| <= 2^-prec (1 + |theta|) from it: the
    64 guard bits cover that on every form measured, but no error chain
    proves it yet.
    """
    D = form.disc
    if kind.name == "gamma2" and (form.A % 3 == 0 or form.B % 3 != 0):
        raise InvalidParameters(f"gamma2 needs 3 coprime to A and 3 | B: {form}")
    if kind.name == "weber":
        fname, b, k, use_sign = _WEBER_CASES[_weber_case(D)]
        if form.A % 2 == 0 or form.B % 32 != 0:
            raise InvalidParameters(f"Weber g needs 2 coprime to A and 32 | B: {form}")
        cubed = kind.weber_cubed(D)
        if not cubed and (form.A % 3 == 0 or form.B % 3 != 0):
            raise InvalidParameters(f"uncubed Weber g needs 3 coprime to A, 3 | B: {form}")
    if kind.name == "doubleeta":
        N = kind.p1 * kind.p2
        if math.gcd(form.A, N) != 1 or form.C % N != 0:
            raise InvalidParameters(f"doubleeta needs gcd(A,N)=1 and N | C: {form}")
    with mp.workprec(prec + 64):
        z = root_of_form(form)
        if kind.name == "doubleeta":
            return _eta_quotient(z, *_double_eta(kind.p1, kind.p2), prec)
        if kind.name == "weber":
            g = _ipow(_eta_quotient(z, *_WEBER[fname], prec), b) / mp.sqrt(2 ** k)
            if use_sign:
                g *= kronecker(2, form.A)
            return _ipow(g, 3) if cubed else g
        e8 = 16 * _eta_quotient(z, *_GAMMA2, prec)
        g = (_ipow(e8, 3) + 16) / e8
        return _ipow(g, 3) if kind.name == "j" else g


def _eta_log_bound(form: QuadForm, d: int, sign: int):
    """An upper bound on sign * log|eta(z/d)|, sign = +-1, with z the root
    of form.

    z/d is the root of (dA, B, C/d).  Reduce that form to tau' with
    Im tau' = sqrt|D| / 2A'; eta's weight 1/2 gives
    |eta(z/d)| = (dA/A')^(1/4) |eta(tau')|, and with r = |q'| <= e^(-pi sqrt3)
    the factor |prod (1 - q'^n)| of eta(tau') = q'^(1/24) prod (1 - q'^n)
    lies between exp(-r/(1-r)^2) and exp(r/(1-r)).
    """
    A1 = reduce_form(QuadForm(d * form.A, form.B, form.C // d)).A
    y = mp.sqrt(-form.disc) / (2 * A1)
    r = mp.exp(-2 * mp.pi * y)
    log_eta = mp.log(mp.mpf(d * form.A) / A1) / 4 - mp.pi * y / 12
    return sign * log_eta + (r / (1 - r) if sign > 0 else r / (1 - r) ** 2)


def theta_bound(kind: InvariantKind, form: QuadForm):
    """B_f >= |theta(root of form)| for an N-system form, in closed form.

    j: |j - 1/q| <= 2079 on the fundamental domain (Enge, Math. Comp. 78,
    2009), and j is SL2(Z)-invariant, so B = e^(pi sqrt|D| / A) + 2079 with
    A the reduced form's.  gamma2: gamma2^3 = j.  Weber: x = f^24 (or f1^24)
    is a root of (x -+ 16)^3 = j x, and Fujiwara's bound on the roots of
    x^3 -+ 48 x^2 + (768 - j) x -+ 4096 gives |x| <= 2 max(48, sqrt(B_j + 768));
    then g = +-f^b / 2^(k/2) as in ``_WEBER_CASES``, cubed when
    ``weber_cubed``.  Double eta: ``_eta_log_bound`` bounds each factor
    (a, s, e) of ``_double_eta``, the eta(z/d) with d = k/a, above when
    e = 1 and below when e = -1.

    Everything runs at 64 bits whatever the caller's precision, and the
    result is padded by 1 + 2^-32: the bound can be tight to far below 64
    bits (at -1239, form (1, 1, 310), it exceeds |j| by a relative
    2.7e-45), so without the pad its own rounding could put it under |theta|.
    """
    D = form.disc
    with mp.workprec(64):
        if kind.name == "doubleeta":
            k, factors, _, power = _double_eta(kind.p1, kind.p2)
            log_m = sum(_eta_log_bound(form, k // a, e) for a, _, e in factors)
            b = mp.exp(power * log_m)
        else:
            b = mp.exp(mp.pi * mp.sqrt(-D) / reduce_form(form).A) + 2079
            if kind.name == "gamma2":
                b = mp.cbrt(b)
            elif kind.name == "weber":
                _, e, k, _ = _WEBER_CASES[_weber_case(D)]
                g = (2 * max(48, mp.sqrt(b + 768))) ** (mp.mpf(e) / 24) / mp.sqrt(2 ** k)
                b = g ** 3 if kind.weber_cubed(D) else g
        return b * (1 + mp.mpf(2) ** -32)


def height_bound(kind: InvariantKind, forms):
    """T = prod (1 + B_f) over ``forms``: by Vieta it bounds every
    coefficient of prod (x - theta_f), whichever of its conjugates.

    A 64-bit product, padded by 1 + 2^-32 to cover its own rounding.
    """
    with mp.workprec(64):
        T = mp.one
        for f in forms:
            T *= 1 + theta_bound(kind, f)
        return T * (1 + mp.mpf(2) ** -32)


def j_from_theta(r, kind: InvariantKind, p, D=None):
    """The j-invariant mod p from a root r of the class polynomial."""
    r %= p
    if kind.name == "j":
        return r
    if kind.name == "gamma2":
        return pow(r, 3, p)
    if kind.name == "weber":
        if D is None:
            raise InvalidParameters("Weber j reconstruction needs D")
        if r == 0:
            raise InvalidParameters("zero Weber value cannot occur for valid (D,p)")
        fname, b, k, _ = _WEBER_CASES[_weber_case(D)]
        s = r if kind.weber_cubed(D) else pow(r, 3, p)   # s = g^3
        # g = +-f^b / 2^(k/2), so x = f^24 = 2^(12k/b) s^(8/b) (f1 likewise)
        x = pow(2, 12 * k // b, p) * pow(s, 8 // b, p) % p
        shift = 16 if fname == "f1" else -16
        return pow(x + shift, 3, p) * pow(x, -1, p) % p
    raise UnsupportedInvariant(f"cannot rebuild j from {kind} values")
