"""Class polynomials: the full integer H_D[theta] and its genus divisor.

The full path multiplies (x - theta(alpha_i)) over a whole N-system and
rounds to integers -- the classical construction, kept as the oracle.
The divisor's coefficients are exact elements of the genus field, recovered
from floats by one of two routes.  The conjugate route (what ``gen_curve``
and the CLI take by default) expands every coset's product at about log2 T
bits: those are all 2^t embeddings of each coefficient, and one
Walsh-Hadamard transform gives its coordinates (Enge and Morain, "Fast
decomposition of polynomials with known Galois group", AAECC-15, 2003).
The paper route expands only the principal genus (h / 2^(t-1) forms) at
about m log2 T bits and recovers each coefficient from that one embedding
through a recovery plan; ``class_poly_divisor`` takes it when no route is
named.  Either way every other coset's divisor is a Galois conjugate of the
principal one.  Exact divisors are memoized per process, so repeated calls
at one discriminant (one curve per prime, say) evaluate their theta values
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp

from .arith import Discriminant
from .errors import InvalidParameters, PrecisionEscalation, PrecisionExhausted
from .forms import QuadForm, enumerate_reduced, n_system, phi_class
from .genusfield import IMAG_PART, REAL_PART, GFElem, gf_rational, gf_to_json
from .modfns import InvariantKind, height_bound, theta_value
from .recover import genus_T0, make_plan, recover_coords

DEFAULT_MAX_BITS = 1 << 20
# the conjugate route's B exceeds log2 T + t by this much, so each rounded
# N a_S is off by at most about 2^-CONJ_MARGIN
CONJ_MARGIN = 32
ROUTES = ("conjugates", "paper")


class ConjugatePlan(NamedTuple):
    """The conjugate route's T (``genus_T0``) and target precision B."""
    T: object
    B: int


@dataclass(frozen=True)
class ClassPolynomial:
    D: int
    kind: InvariantKind
    phi0: object          # None for the full polynomial, else the +-1 tuple
    coeffs: tuple         # ascending, leading coefficient included (monic)
    # the plan that produced a divisor's coefficients, set by
    # class_poly_divisor: a RecoveryPlan on the paper route, a ConjugatePlan
    # on the conjugate route; None otherwise, never serialized or compared
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
    """theta at each form, evaluated once per mirror pair: (form, value,
    paired) for every form without its mirror in ``forms`` and for the
    B > 0 form of every pair.

    For B != 0 the mirror (A,-B,C) has root -conj(tau), and every invariant
    is a q-series with real coefficients, so theta there is conj(theta(tau)).
    A form and its mirror lie in one genus, so grouping the values by genus
    keeps each pair together.
    """
    present = set(forms)
    out = []
    for f in forms:
        mirrored = f.B != 0 and QuadForm(f.A, -f.B, f.C) in present
        if not (mirrored and f.B < 0):
            out.append((f, theta_value(kind, f, prec), mirrored))
    return out


def _mul_monic(poly, low):
    """poly(x) * (x^d + low[d-1] x^(d-1) + ... + low[0]), ascending lists."""
    out = [mp.zero] * len(low) + poly
    for i, c in enumerate(low):
        for k, a in enumerate(poly):
            out[i + k] += c * a
    return out


def _pad(n):
    """Bits that ``_expand`` adds to a target: see its error bound."""
    return n.bit_length() + 2


def _expand(values, prec):
    """The monic polynomial whose roots are the values of ``_theta_values``,
    each paired value with its conjugate, and a bound on each coefficient's
    error.

    A pair enters as the real quadratic x^2 - 2 Re(theta) x + |theta|^2, a
    single value as x - theta; factors go in by ascending |theta| to limit
    growth.  When every value is paired the product stays real.

    Error: let each of the n roots come with |theta~ - theta| <= u (1 + |theta|),
    u = 2^-prec, the contract of ``theta_value`` at ``prec`` bits.  Each
    k-subset product then moves by at most ((1+u)^k - 1) prod (1 + |theta|)
    over its roots, so every coefficient moves by at most ((1+u)^n - 1) M
    <= 2nu M, M = prod (1 + |theta|) over all roots.  The roundings at
    prec + 64 bits add a relative 2^-60, and M <= M~ (1 + 2nu) for M~, the
    product over the computed values, so for prec >= bitlen(n) + 8 the error
    is below err = 2^(bitlen(n) + 2 - prec) M~, which is returned.  Theta at
    target + ``_pad(n)`` bits thus gives err <= 2^-target M~, with M~ about
    the ``height_bound`` of the forms.
    """
    n = sum(2 if paired else 1 for _, _, paired in values)
    with mp.workprec(64):
        M = mp.one
        for _, th, paired in values:
            M *= (1 + abs(th)) ** (2 if paired else 1)
        err = M * mp.mpf(2) ** (n.bit_length() + 2 - prec)
    with mp.workprec(prec + 64):
        factors = []
        for _, th, paired in values:
            if paired:
                a, b = mp.re(th), mp.im(th)
                factors.append((abs(th), [a * a + b * b, -2 * a]))
            else:
                factors.append((abs(th), [-th]))
        poly = [mp.mpf(1)]
        for _, low in sorted(factors, key=lambda fac: fac[0]):
            poly = _mul_monic(poly, low)
    return poly, err


def class_poly_full(D, kind=None, max_bits=DEFAULT_MAX_BITS):
    """H_D[theta] with integer coefficients, by rounding the expanded product.

    Every coefficient is at most T = ``height_bound`` over the N-system, so
    the first attempt runs at log2(T) bits; a coefficient that rounds to
    more than T escalates, and so does an attempt whose ``_expand`` error
    bound is not below 1/4.
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
    """One rounding of the N-system's product at ``bits`` >= log2 T.

    With theta at bits + 3 + ``_pad(h)``, ``_expand``'s error is at most
    M~ / 2^(bits+3), below 1/4 whenever the values' majorant M~ is within
    twice the bound T <= 2^bits; an attempt whose M~ is larger escalates.
    """
    work = bits + 3 + _pad(len(sysN.forms))
    poly, err = _expand(_theta_values(kind, sysN.forms, work), work)
    if not err < 0.25:
        raise PrecisionEscalation(
            f"product error bound {mp.nstr(err, 5)} at {bits} bits")
    coeffs = []
    with mp.workprec(work + 64):
        for c in poly[:-1]:
            r = int(mp.nint(mp.re(c)))
            if abs(c - r) >= 0.25:
                raise PrecisionEscalation(
                    f"coefficient residual {mp.nstr(abs(c - r), 5)} at {bits} bits")
            if abs(r) > T:
                raise PrecisionEscalation(
                    f"coefficient {r} exceeds the height bound at {bits} bits")
            coeffs.append(r)
    return tuple(coeffs) + (1,)


# exact principal divisors by (D, kind, route), oldest first: a process that
# builds curves at one discriminant for several primes recovers its divisor once
_DIVISORS = {}
_DIVISORS_MAX = 8


def _check_cap(D, bits, cap):
    """Refuse an attempt at ``bits`` above ``cap``, on any path."""
    if bits > cap:
        raise PrecisionExhausted(
            f"class polynomial for D={D} would need {bits} bits (cap {cap})")


def _plan_bits(plan):
    """The precision the cap is checked against: B, or the paper's float_bits."""
    return plan.B if isinstance(plan, ConjugatePlan) else plan.float_bits


def class_poly_divisor(D, kind=None, max_bits=DEFAULT_MAX_BITS, route="paper"):
    """The principal genus divisor of H_D[theta] with exact genus-field
    coefficients, recovered on ``route``: "conjugates" (``_conjugate_attempt``)
    or "paper" (``_divisor_attempt``).  Its ``plan`` is the ConjugatePlan or
    the RecoveryPlan that produced them.

    The divisor is memoized per process by (D, kind, route).  A hit returns
    the same object, and raises ``PrecisionExhausted`` exactly when a
    recomputation would: when its plan's bits (B, or float_bits) exceed the
    cap.  Every other coset's divisor is a Galois conjugate of this one
    (``coset_divisor``).
    """
    kind = kind or InvariantKind.j()
    if route not in ROUTES:
        raise InvalidParameters(f"unknown route {route!r}")
    d = Discriminant.from_D(D)
    kind.validate_for(d)
    poly = _DIVISORS.get((D, kind, route))
    if poly is None:
        poly = _principal_divisor(d, kind, route, max_bits)
        if len(_DIVISORS) >= _DIVISORS_MAX:
            del _DIVISORS[next(iter(_DIVISORS))]
        _DIVISORS[D, kind, route] = poly
    _check_cap(D, _plan_bits(poly.plan), max_bits)
    return poly


def _principal_divisor(d, kind, route, max_bits):
    principal = (1,) * d.t
    forms = n_system(d.D, kind.modulus(d), kind.b_target(d)).forms
    labels = [phi_class(f, d) for f in forms]
    T0 = genus_T0(kind, forms, labels)
    conj = route == "conjugates"
    plan = ConjugatePlan(T0, int(mp.mag(T0)) + d.t + CONJ_MARGIN) if conj \
        else make_plan(d.D, kind, T0)
    sel = [f for f, lab in zip(forms, labels) if lab == principal]
    while True:
        _check_cap(d.D, _plan_bits(plan), max_bits)
        try:
            coeffs = _conjugate_attempt(kind, d, forms, labels, plan.B) if conj \
                else _divisor_attempt(kind, sel, plan)
            break
        except PrecisionEscalation:
            # double B, or square T0: either roughly doubles the working precision
            plan = ConjugatePlan(plan.T, 2 * plan.B) if conj \
                else make_plan(d.D, kind, T0=mp.mpf(plan.T0) ** 2)
    poly = ClassPolynomial(d.D, kind, principal, coeffs)
    object.__setattr__(poly, "plan", plan)   # an init=False field of a frozen class
    return poly


def _walsh_hadamard(v):
    """sum_mu (-1)^|mu & S| v[mu] for every S, by t rounds of butterflies."""
    v = list(v)
    h = 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            for j in range(i, i + h):
                v[j], v[j + h] = v[j] + v[j + h], v[j] - v[j + h]
        h *= 2
    return v


def _conjugate_attempt(kind, d, forms, labels, B):
    """The principal divisor's coefficients from all N = 2^t embeddings.

    Let sigma_mu be the principal embedding after tau_mu, which flips
    sqrt(q_i*) for each bit i of mu.  Coset phi's product is tau_mask(phi)
    of the principal divisor, so it gives sigma_mask(phi) of each
    coefficient, and its complex conjugate sigma_(mask xor c), c the mask of
    the negative q_i*.  For a = sum_S a_S r_S, r_S = prod_(i in S) sqrt(q_i*),
    N a_S = sum_mu (-1)^|mu & S| sigma_mu(a) / r_S is an integer: the ring
    of integers is the tensor product of the quadratic ones.

    Error chain, n = h / m forms per coset: theta at B + ``_pad(n)`` bits
    puts each embedding within eps, the largest of ``_expand``'s bounds over
    the cosets, about 2^-B T.  The transform sums N of them and |r_S| >= 1,
    so N a_S is off by at most N eps, plus under 2^-40 N eps of rounding at
    64 more bits: about 2^-CONJ_MARGIN, and an attempt escalates unless
    N eps < 1/8.  Checks, each escalating: every N a_S rounds with a
    residual below 1/4, and the coefficient reproduces all N embeddings
    within 2 eps.  A wrong coefficient misses some embedding by at least
    1/N (the transform is N times an orthogonal one), far above 2 eps.
    """
    N = 1 << d.t
    n = len(forms) // d.m
    prec = B + _pad(n)
    neg = (N - 1) ^ ((1 << d.u) - 1)    # the positive q_i* come first
    genus = dict(zip(forms, labels))
    values = _theta_values(kind, forms, prec)
    emb = [None] * N
    eps = 0
    for lab in set(labels):
        poly, err = _expand([v for v in values if genus[v[0]] == lab], prec)
        mu = sum(1 << i for i, e in enumerate(lab) if e == -1)
        emb[mu] = poly[:-1]
        emb[mu ^ neg] = [mp.conj(c) for c in poly[:-1]]
        eps = max(eps, err)
    if not N * eps < 0.125:
        raise PrecisionEscalation(
            f"embedding error bound {mp.nstr(eps, 5)} at {B} bits")
    coeffs = []
    with mp.workprec(prec + 64):
        roots = [mp.fprod(mp.sqrt(mp.mpc(q)) for i, q in enumerate(d.qstars) if S >> i & 1)
                 for S in range(N)]
        for k in range(n):
            nums = {}
            for S, x in enumerate(_walsh_hadamard(e[k] for e in emb)):
                x /= roots[S]
                r = int(mp.nint(mp.re(x)))
                if not abs(x - r) < 0.25:
                    raise PrecisionEscalation(
                        f"coordinate residual {mp.nstr(abs(x - r), 5)} at {B} bits")
                nums[S] = r
            back = _walsh_hadamard(nums[S] * roots[S] for S in range(N))
            for mu, got in enumerate(back):
                if not abs(got / N - emb[mu][k]) <= 2 * eps:
                    raise PrecisionEscalation(
                        f"coefficient {k} misses embedding {mu} by "
                        f"{mp.nstr(abs(got / N - emb[mu][k]), 5)} at {B} bits")
            coeffs.append(GFElem(d.qstars, {S: Fraction(r, N) for S, r in nums.items()}))
    return tuple(coeffs) + (gf_rational(d.qstars, 1),)


def _divisor_attempt(kind, sel, plan):
    """The paper route: recover each coefficient from the principal
    embedding with ``plan``.  Theta runs at float_bits + ``_pad(n)``, so each
    coefficient is off by at most 2^-float_bits M~; the sums 2 Re and 2i Im
    must come within the plan's epsilon, which float_bits was sized for."""
    basis = plan.basis
    prec = plan.float_bits + _pad(len(sel))
    poly, err = _expand(_theta_values(kind, sel, prec), prec)
    if not 2 * err < plan.epsilon:
        raise PrecisionEscalation(
            f"product error bound {mp.nstr(err, 5)} at {plan.float_bits} bits")
    half = Fraction(1, 2)
    coeffs = []
    with mp.workprec(prec + 64):
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


def coset_product_check(D, kind=None, route="paper"):
    """The exact product of the (memoized) principal divisor's conjugates
    over every coset equals the full polynomial."""
    kind = kind or InvariantKind.j()
    full = class_poly_full(D, kind)
    div = class_poly_divisor(D, kind, route=route)
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
