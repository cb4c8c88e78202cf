"""Modular functions evaluated at form roots: eta, Weber f and f1, gamma2
(which inlines Weber f2), j, the Weber class invariant g, and the double eta
quotient m_{p1,p2}^s.

All evaluations take a precision in bits and work at bits + 64 internally,
whatever the caller's precision; values are principal-branch throughout, with
q^(1/24) = exp(pi i z / 12).

Every invariant value costs one exp.  Each eta quotient is a product of
pentagonal series P at integer powers of one root of its nome: eta(z) =
q^(1/24) P(q); gamma2 and j take q^(1/3), Weber f and f1 take
r = exp(pi i z / 24), and the double eta quotient takes
s = exp(2 pi i z / (24 p1 p2)).  Powering a root by k multiplies its
relative error by k, so those that power by more than 24 work log2(k) bits
higher.  Every integer power is taken by ``_ipow``: mpmath's complex ``**``
turns into exp(n log z) once n times the bit size passes 10^4, which costs
far more than a few squarings.  ``_pentagonal`` sums on integers scaled by
2^P: term n is about |q|^(n(3n-1)/2) in size, so its integers are shorter
than P by the bits its smallness makes unnecessary.

All q-series here have real coefficients, so theta(-conj z) = conj theta(z);
``classpoly`` relies on this to evaluate one form of each mirror pair
(A, +-B, C).  ``j_from_theta`` inverts each invariant's relation to j over
F_p, with the Weber cases derived from the same table that ``weber_g``
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
    "eta",
    "weber_f",
    "weber_f1",
    "gamma2",
    "jfun",
    "weber_g",
    "double_eta_m",
    "InvariantKind",
    "theta_value",
    "theta_bound",
    "height_bound",
    "j_from_theta",
]


def _total_bits(prec) -> int:
    return int(prec) + 64


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


def eta(z, prec=96):
    """Dedekind eta via the pentagonal number series.

    eta(z) = q^(1/24) * sum_n (-1)^n q^(n(3n+1)/2), summing until three
    consecutive terms drop below the working threshold.
    """
    bits = _total_bits(prec)
    with mp.workprec(bits):
        q24 = _nome(z, 24)
        return q24 * _pentagonal(_ipow(q24, 24), bits)


def _weber(z, prec, sign):
    """P(sign r^24) / (r P(r^48)) with r = exp(pi i z / 24): one exp.

    eta(z) = r^2 P(r^48), eta(z/2) = r P(r^24) and
    eta((z+1)/2) = exp(pi i / 24) r P(-r^24), so sign -1 gives Weber f and
    sign +1 gives f1.
    """
    bits = _total_bits(prec) + (48).bit_length()
    with mp.workprec(bits):
        r = _nome(z, 48)
        r24 = _ipow(r, 24)
        return _pentagonal(sign * r24, bits) / (r * _pentagonal(r24 * r24, bits))


def weber_f(z, prec=96):
    return _weber(z, prec, -1)


def weber_f1(z, prec=96):
    return _weber(z, prec, 1)


def gamma2(z, prec=96):
    """Cube root of j, as (f2^24 + 16) / f2^8.

    f2 = sqrt2 eta(2z)/eta(z), whose eta arguments stay high in H, so
    f2^8 = 16 q^(1/3) (P(q^2)/P(q))^8 with P the pentagonal series: one exp.
    """
    bits = _total_bits(prec)
    with mp.workprec(bits):
        q3 = _nome(z, 3)
        q = _ipow(q3, 3)
        e8 = 16 * q3 * _ipow(_pentagonal(q * q, bits) / _pentagonal(q, bits), 8)
        return (_ipow(e8, 3) + 16) / e8


def jfun(z, prec=96):
    with mp.workprec(_total_bits(prec)):
        return _ipow(gamma2(z, prec), 3)


_WEBER_CASES = {
    # key -> (which weber function, inner power, scale exponent of sqrt2, sign from (2/A)?)
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


def weber_g(form: QuadForm, prec=96):
    """Weber's class invariant at the root of a 16- or 48-system form.

    The form must have A odd and 32 | B.  The value is cubed when 3 divides
    D (``InvariantKind.weber_cubed``); otherwise the form must also have
    3 | B and 3 not dividing A, and the plain g value is already an
    algebraic integer generating the ring class field.
    """
    D = form.disc
    case = _weber_case(D)
    if form.A % 2 == 0 or form.B % 32 != 0:
        raise InvalidParameters(f"Weber g needs 2 coprime to A and 32 | B: {form}")
    cubed = InvariantKind.weber_cubed(D)
    if not cubed and (form.A % 3 == 0 or form.B % 3 != 0):
        raise InvalidParameters(f"uncubed Weber g needs 3 coprime to A, 3 | B: {form}")
    fname, b, k, use_sign = _WEBER_CASES[case]
    bits = _total_bits(prec)
    with mp.workprec(bits):
        alpha = root_of_form(form)
        f = weber_f(alpha, prec) if fname == "f" else weber_f1(alpha, prec)
        g = _ipow(f, b) / mp.sqrt(2 ** k)
        if use_sign:
            g *= kronecker(2, form.A)
        return _ipow(g, 3) if cubed else g


def double_eta_s(p1: int, p2: int) -> int:
    return 24 // math.gcd(24, (p1 - 1) * (p2 - 1))


def double_eta_m(z, p1: int, p2: int, prec=96):
    """The double eta quotient m_{p1,p2}(z)^s, s = 24/gcd(24,(p1-1)(p2-1)).

    m = eta(z/p1) eta(z/p2) / (eta(z) eta(z/(p1 p2))), and with
    w = exp(2 pi i z / (24 p1 p2)) each eta is w^k P(w^(24k)), for
    k = p2, p1, p1 p2 and 1: one exp, and the w^k collapse to
    w^-((p1-1)(p2-1)).
    """
    N = p1 * p2
    bits = _total_bits(prec) + (24 * N).bit_length()
    with mp.workprec(bits):
        w = _nome(z, 24 * N)
        u = _ipow(w, 24)      # the nome of eta(z/(p1 p2))
        num = _pentagonal(_ipow(u, p2), bits) * _pentagonal(_ipow(u, p1), bits)
        den = _pentagonal(_ipow(u, N), bits) * _pentagonal(u, bits)
        quot = num / (den * _ipow(w, (p1 - 1) * (p2 - 1)))
        return _ipow(quot, double_eta_s(p1, p2))


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
    def gamma2(cls):
        return cls("gamma2")

    @classmethod
    def weber(cls):
        return cls("weber")

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
    """Evaluate the invariant at the root of an N-system form."""
    if kind.name == "j":
        bits = _total_bits(prec)
        with mp.workprec(bits):
            return jfun(root_of_form(form), prec)
    if kind.name == "gamma2":
        if form.A % 3 == 0 or form.B % 3 != 0:
            raise InvalidParameters(f"gamma2 needs 3 coprime to A and 3 | B: {form}")
        bits = _total_bits(prec)
        with mp.workprec(bits):
            return gamma2(root_of_form(form), prec)
    if kind.name == "weber":
        return weber_g(form, prec)
    N = kind.p1 * kind.p2
    if math.gcd(form.A, N) != 1 or form.C % N != 0:
        raise InvalidParameters(f"doubleeta needs gcd(A,N)=1 and N | C: {form}")
    bits = _total_bits(prec)
    with mp.workprec(bits):
        return double_eta_m(root_of_form(form), kind.p1, kind.p2, prec)


def _eta_log_bound(form: QuadForm, k: int, sign: int):
    """An upper bound on sign * log|eta(z/k)|, sign = +-1, with z the root
    of form.

    z/k is the root of (kA, B, C/k).  Reduce that form to tau' with
    Im tau' = sqrt|D| / 2A'; eta's weight 1/2 gives
    |eta(z/k)| = (kA/A')^(1/4) |eta(tau')|, and with r = |q'| <= e^(-pi sqrt3)
    the factor |prod (1 - q'^n)| of eta(tau') = q'^(1/24) prod (1 - q'^n)
    lies between exp(-r/(1-r)^2) and exp(r/(1-r)).
    """
    A1 = reduce_form(QuadForm(k * form.A, form.B, form.C // k)).A
    y = mp.sqrt(-form.disc) / (2 * A1)
    r = mp.exp(-2 * mp.pi * y)
    log_eta = mp.log(mp.mpf(k * form.A) / A1) / 4 - mp.pi * y / 12
    return sign * log_eta + (r / (1 - r) if sign > 0 else r / (1 - r) ** 2)


def theta_bound(kind: InvariantKind, form: QuadForm):
    """B_f >= |theta(root of form)| for an N-system form, in closed form.

    j: |j - 1/q| <= 2079 on the fundamental domain (Enge, Math. Comp. 78,
    2009), and j is SL2(Z)-invariant, so B = e^(pi sqrt|D| / A) + 2079 with
    A the reduced form's.  gamma2: gamma2^3 = j.  Weber: x = f^24 (or f1^24)
    is a root of (x -+ 16)^3 = j x, and Fujiwara's bound on the roots of
    x^3 -+ 48 x^2 + (768 - j) x -+ 4096 gives |x| <= 2 max(48, sqrt(B_j + 768));
    then g = +-f^b / 2^(k/2) as in ``_WEBER_CASES``, cubed when
    ``weber_cubed``.  Double eta: ``_eta_log_bound`` bounds each eta(z/k),
    above in the numerator and below in the denominator.

    Everything runs at 64 bits whatever the caller's precision, and the
    result is padded by 1 + 2^-32: the bound can be tight to far below 64
    bits (at -1239, form (1, 1, 310), it exceeds |j| by a relative
    2.7e-45), so without the pad its own rounding could put it under |theta|.
    """
    D = form.disc
    with mp.workprec(64):
        if kind.name == "doubleeta":
            p1, p2 = kind.p1, kind.p2
            log_m = sum(_eta_log_bound(form, k, sign)
                        for k, sign in ((p1, 1), (p2, 1), (1, -1), (p1 * p2, -1)))
            b = mp.exp(double_eta_s(p1, p2) * log_m)
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
        if x == 0:
            raise InvalidParameters("degenerate Weber rebuild x = 0")
        shift = 16 if fname == "f1" else -16
        return pow(x + shift, 3, p) * pow(x, -1, p) % p
    raise UnsupportedInvariant(f"cannot rebuild j from {kind} values")
