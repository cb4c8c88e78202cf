"""Class polynomials: the full integer H_D[theta] and its genus divisor.

The full path multiplies (x - theta(alpha_i)) over a whole N-system and
rounds to integers -- the classical construction, kept as the oracle.
The divisor path multiplies only over the forms of the principal genus
(h / 2^(t-1) of them) and recovers each coefficient as an exact element of
the genus field from its float approximation; every other coset's divisor
is a Galois conjugate of that one.  Exact divisors are memoized per
process, so repeated calls at one discriminant (one curve per prime, say)
evaluate their theta values once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .arith import Discriminant
from .errors import PrecisionEscalation, PrecisionExhausted
from .forms import QuadForm, enumerate_reduced, n_system, phi_class
from .genusfield import IMAG_PART, REAL_PART, gf_rational, gf_to_json
from .modfns import InvariantKind, height_bound, theta_value
from .recover import genus_T0, make_plan, recover_coords

DEFAULT_MAX_BITS = 1 << 20


@dataclass(frozen=True)
class ClassPolynomial:
    D: int
    kind: InvariantKind
    phi0: object          # None for the full polynomial, else the +-1 tuple
    coeffs: tuple         # ascending, leading coefficient included (monic)
    # the recovery plan that produced a divisor's coefficients, set by
    # class_poly_divisor; None otherwise, and never serialized or compared
    plan: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_divisor(self):
        return self.phi0 is not None

    def to_json(self):
        out = {"D": self.D, "invariant": str(self.kind), "degree": self.degree}
        if self.is_divisor:
            qs = next(iter(self.coeffs)).qstars
            out["phi0"] = list(self.phi0)
            out["field"] = list(qs)
            out["coeffs"] = [gf_to_json(c) for c in self.coeffs]
        else:
            out["phi0"] = None
            out["coeffs"] = [str(c) for c in self.coeffs]
        return out


def _theta_values(kind, forms, prec):
    """theta at each form, evaluated once per mirror pair.

    For B != 0 the mirror (A,-B,C) has root -conj(tau), and every invariant
    is a q-series with real coefficients, so theta there is conj(theta(tau)).
    Returns (paired, single): one value for each pair whose two forms are
    both in ``forms``, and the value at each form without its mirror.
    """
    present = set(forms)
    paired, single = [], []
    for f in forms:
        mirrored = f.B != 0 and QuadForm(f.A, -f.B, f.C) in present
        if mirrored and f.B < 0:
            continue
        (paired if mirrored else single).append(theta_value(kind, f, prec))
    return paired, single


def _mul_monic(poly, low):
    """poly(x) * (x^d + low[d-1] x^(d-1) + ... + low[0]), ascending lists."""
    out = [mp.zero] * len(low) + poly
    for i, c in enumerate(low):
        for k, a in enumerate(poly):
            out[i + k] += c * a
    return out


def _expand(paired, single):
    """The monic polynomial whose roots are ``single`` and each value of
    ``paired`` together with its conjugate.

    A pair enters as the real quadratic x^2 - 2 Re(theta) x + |theta|^2, a
    single value as x - theta; factors go in by ascending |theta| to limit
    growth.  When every value is paired the product stays real.
    """
    factors = [(th, [-th]) for th in single]
    for th in paired:
        a, b = mp.re(th), mp.im(th)
        factors.append((th, [a * a + b * b, -2 * a]))
    poly = [mp.mpf(1)]
    for _, low in sorted(factors, key=lambda fac: abs(fac[0])):
        poly = _mul_monic(poly, low)
    return poly


def class_poly_full(D, kind=None, max_bits=DEFAULT_MAX_BITS):
    """H_D[theta] with integer coefficients, by rounding the expanded product.

    Every coefficient is at most T = ``height_bound`` over the N-system, so
    the first attempt runs at log2(T) bits; a coefficient that rounds to
    more than T escalates.
    """
    kind = kind or InvariantKind.j()
    d = Discriminant.from_D(D)
    kind.validate_for(d)
    sysN = n_system(D, kind.modulus(d), kind.b_target(d))
    T = height_bound(kind, sysN.forms)
    bits = mp.mag(T)      # ceil(log2 T), or one more when T is a power of 2
    while True:
        _check_cap(D, bits, max_bits)
        try:
            return ClassPolynomial(D, kind, None, _full_attempt(sysN, kind, bits, T))
        except PrecisionEscalation:
            bits *= 2


def _full_attempt(sysN, kind, bits, T):
    n = len(sysN.forms)
    work = bits + 8 * n + 32
    values = _theta_values(kind, sysN.forms, work)
    with mp.workprec(work + 64):
        poly = _expand(*values)
        coeffs = []
        top = 0
        for c in poly[:-1]:
            r = int(mp.nint(mp.re(c)))
            if abs(c - r) >= 0.25:
                raise PrecisionEscalation(
                    f"coefficient residual {mp.nstr(abs(c - r), 5)} at {bits} bits")
            if abs(r) > T:
                raise PrecisionEscalation(
                    f"coefficient {r} exceeds the height bound at {bits} bits")
            coeffs.append(r)
            top = max(top, abs(r).bit_length())
        # a small residual alone proves nothing once the accumulated product
        # error exceeds 1/4; only trust the rounding when the working
        # precision clears the coefficient size with room to spare
        if top + 4 * n + 16 > work:
            raise PrecisionEscalation(
                f"{top}-bit coefficients at {bits} working bits")
    return tuple(coeffs) + (1,)


# exact principal divisors by (D, kind), oldest first: a process that builds
# curves at one discriminant for several primes recovers its divisor once
_DIVISORS = {}
_DIVISORS_MAX = 8


def _check_cap(D, bits, cap):
    """Refuse an attempt at ``bits`` above ``cap``, on either path."""
    if bits > cap:
        raise PrecisionExhausted(
            f"class polynomial for D={D} would need {bits} bits (cap {cap})")


def class_poly_divisor(D, kind=None, max_bits=DEFAULT_MAX_BITS):
    """The principal genus divisor of H_D[theta] with exact genus-field
    coefficients; its ``plan`` is the plan whose recovery produced them.

    The divisor is memoized per process by (D, kind).  A hit returns the
    same object, and raises ``PrecisionExhausted`` exactly when a
    recomputation would: when its plan's float_bits exceed the cap.  Every
    other coset's divisor is a Galois conjugate of this one (``coset_divisor``).
    """
    kind = kind or InvariantKind.j()
    d = Discriminant.from_D(D)
    kind.validate_for(d)
    poly = _DIVISORS.get((D, kind))
    if poly is None:
        poly = _principal_divisor(d, kind, max_bits)
        if len(_DIVISORS) >= _DIVISORS_MAX:
            del _DIVISORS[next(iter(_DIVISORS))]
        _DIVISORS[D, kind] = poly
    _check_cap(D, poly.plan.float_bits, max_bits)
    return poly


def _principal_divisor(d, kind, max_bits):
    principal = (1,) * d.t
    forms = n_system(d.D, kind.modulus(d), kind.b_target(d)).forms
    labels = [phi_class(f, d) for f in forms]
    sel = [f for f, lab in zip(forms, labels) if lab == principal]
    assert len(sel) == len(forms) // d.m, (len(sel), len(forms), d.m)
    plan = make_plan(d.D, kind, genus_T0(kind, forms, labels))
    while True:
        _check_cap(d.D, plan.float_bits, max_bits)
        try:
            coeffs = _divisor_attempt(kind, sel, plan)
            break
        except PrecisionEscalation:
            # square T0: roughly doubles the working precision
            plan = make_plan(d.D, kind, T0=mp.mpf(plan.T0) ** 2)
    poly = ClassPolynomial(d.D, kind, principal, coeffs)
    object.__setattr__(poly, "plan", plan)   # an init=False field of a frozen class
    return poly


def _divisor_attempt(kind, sel, plan):
    basis = plan.basis
    n = len(sel)
    bits = plan.float_bits + 8 * n + 32
    values = _theta_values(kind, sel, bits)
    half = Fraction(1, 2)
    coeffs = []
    with mp.workprec(bits + 64):
        poly = _expand(*values)
        approx = [(c + mp.conj(c), c - mp.conj(c)) for c in poly[:-1]]
    for g_re, g_im in approx:
        z = basis.element(recover_coords(g_re, plan, REAL_PART), REAL_PART)
        if IMAG_PART in plan.sides:
            z = z + basis.element(recover_coords(g_im, plan, IMAG_PART), IMAG_PART)
        elif not abs(g_im) < plan.epsilon:
            raise PrecisionEscalation(
                f"coefficient of a real divisor has imaginary part "
                f"{mp.nstr(abs(g_im) / 2, 5)} at {plan.float_bits} bits")
        coeffs.append(half * z)
    return tuple(coeffs) + (gf_rational(basis.qstars, 1),)


def coset_labels(D):
    """The image of the genus character map: 2^(t-1) labels."""
    d = Discriminant.from_D(D)
    seen = []
    for f in enumerate_reduced(D):
        lab = phi_class(f, d)
        if lab not in seen:
            seen.append(lab)
    assert len(seen) == d.m
    return seen


def coset_divisor(poly, phi):
    """The divisor of the coset labelled phi, from the principal ``poly``.

    Its coefficients lie in the genus field, and the Artin map sends the
    principal coset to coset phi by the automorphism that flips sqrt(q_i*)
    exactly where phi_i = -1 (labels in ``Discriminant.qstars`` order).
    """
    mask = sum(1 << i for i, e in enumerate(phi) if e == -1)
    return ClassPolynomial(poly.D, poly.kind, tuple(phi),
                           tuple(c.tau(mask) for c in poly.coeffs))


def coset_product_check(D, kind=None):
    """The exact product of the (memoized) principal divisor's conjugates
    over every coset equals the full polynomial."""
    kind = kind or InvariantKind.j()
    full = class_poly_full(D, kind)
    div = class_poly_divisor(D, kind)
    qstars = div.coeffs[-1].qstars
    prod = [gf_rational(qstars, 1)]
    for phi in coset_labels(D):
        coeffs = coset_divisor(div, phi).coeffs
        new = [gf_rational(qstars, 0) for _ in range(len(prod) + len(coeffs) - 1)]
        for i, a in enumerate(prod):
            for j, b in enumerate(coeffs):
                new[i + j] = new[i + j] + a * b
        prod = new
    if len(prod) != len(full.coeffs):
        return False
    for got, want in zip(prod, full.coeffs):
        if not got.is_rational() or got.as_fraction() != want:
            return False
    return True
