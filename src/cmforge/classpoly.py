"""Class polynomials: the full integer H_D[theta] and its genus divisor.

Both are rebuilt from floats by one exact rounding (``_exact_attempt``).  It
expands the product of (x - theta) over each coset of an N-system at about
log2 T + t bits: those are all 2^t embeddings of each coefficient, and one
Walsh-Hadamard transform gives its coordinates (Enge and Morain, "Fast
decomposition of polynomials with known Galois group", AAECC-15, 2003).  The
genus divisor on the conjugate route (what the CLI's classpoly takes by
default) is that rounding over the genus field.  What ``gen_curve`` takes
by default is the same divisor split along a subgroup H of Cl^2 of index k
(``class_poly_split``): the same rounding of the Hecke representation from
that paper, R = prod_c (Y - s_c) over the H-cosets c and the numerators
N_j, at the far smaller T of ``hecke_T``, so that a root mod p needs root
searches of degree k and |H| instead of one of degree k |H|.  The full
polynomial, kept as the oracle, is the rounding's t = 0 case: the field is
Q, there is one coset and one embedding, and the transform is the
identity.  The paper route
expands only the principal genus (h / 2^(t-1) forms) at about m log2 T bits
and recovers each coefficient from that one embedding through a recovery
plan; ``class_poly_divisor`` takes it when no route is named.  Either way
every other coset's divisor is a Galois conjugate of the principal one.
Exact divisors and splits are memoized per process, so repeated calls at
one discriminant (one curve per prime, say) evaluate their theta values
once.
"""

from __future__ import annotations

import marshal
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import to_fixed

from .arith import Discriminant
from .errors import InvalidParameters, PrecisionEscalation, PrecisionExhausted
from .forms import QuadForm, enumerate_reduced, n_system, phi_class, power_cosets, \
    reduce_form
from .genusfield import IMAG_PART, REAL_PART, GFElem, build_basis, build_mpair, \
    embeddings, gf_rational, gf_to_json, negative_mask, root_products, walsh_hadamard
from .modfns import InvariantKind, height_bound, theta_bound, theta_value
from .recover import make_plan, recover_coords

DEFAULT_MAX_BITS = 1 << 20
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
    # the plan that produced a divisor's coefficients: a RecoveryPlan on the
    # paper route, a ConjugatePlan on the conjugate route; None otherwise,
    # never serialized or compared
    plan: object = field(default=None, compare=False, repr=False)

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


class HeckeSplit(NamedTuple):
    """A class polynomial (or its principal genus divisor) P of degree
    k |H|, split along a subgroup H of index k: R(Y) = prod_c (Y - s_c) over
    the H-cosets c, s_c the sum of the theta values of c, and for each
    j < |H| the Hecke numerator N_j(Y) = sum_c e_j(c) prod_(c' != c) (Y - s_c'),
    e_j(c) the j-th coefficient of P_c = prod_(f in c) (x - theta_f).  Then
    e_j(c) = N_j(s_c) / R'(s_c), and P is the product of the P_c.  At k = 1,
    R = Y - s and N_j = e_j: the polynomial itself (``whole_split``)."""
    D: int
    kind: InvariantKind
    R: tuple              # ascending, monic, degree k
    N: tuple              # |H| rows N_j, each its k coefficients, ascending
    plan: object          # the ConjugatePlan, or the split polynomial's plan

    @property
    def k(self):
        return len(self.R) - 1

    @property
    def degree(self):
        return self.k * len(self.N)


def whole_split(poly):
    """The k = 1 split of the monic ``poly`` of degree n: R = Y - s, s the
    sum of its roots, is Y plus its coefficient of x^(n-1), and N_j is its
    coefficient of x^j."""
    c = poly.coeffs
    return HeckeSplit(poly.D, poly.kind, (c[-2], c[-1]), tuple((x,) for x in c[:-1]),
                      poly.plan)


def _theta_values(kind, forms, prec):
    """theta at each form, evaluated once per mirror pair: (form, value,
    paired) for every form without its mirror in ``forms`` and for the
    B > 0 form of every pair.

    For B != 0 the mirror (A,-B,C) has root -conj(tau), and every invariant
    is a q-series with real coefficients, so theta there is conj(theta(tau)).
    A form and its mirror lie in one genus, so grouping the values by genus
    keeps each pair together.

    The values are independent, so they are split across ``_workers``
    processes: the forms, by decreasing A (a longer series), are dealt
    round-robin into one share per worker, so that the shares cost about
    the same; the parent evaluates the first share and a forked child each
    other one (``_forked_theta``).  The attempt stays serial when there are
    fewer than 2 workers, when ``os.fork`` does not exist, or when another
    Python thread is alive (forking a threaded process is unsafe).  Each
    value is ``theta_value``'s at ``prec``, so the result is bit-identical
    to a serial run in any case.
    """
    present = set(forms)
    todo = []
    for f in forms:
        mirrored = f.B != 0 and QuadForm(f.A, -f.B, f.C) in present
        if not (mirrored and f.B < 0):
            todo.append((f, mirrored))
    evaluated = [f for f, _ in todo]
    workers = _workers(len(evaluated), len(evaluated) * prec)
    threading = sys.modules.get("threading")
    if workers < 2 or not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        values = [theta_value(kind, f, prec) for f in evaluated]
    else:
        values = _forked_theta(kind, evaluated, prec, workers)
    return [(f, v, mirrored) for (f, mirrored), v in zip(todo, values)]


# an attempt whose theta work (the sum of prec over the forms it evaluates)
# is below this stays serial, and each further fork needs this much more.
# On a 2-vCPU VM, forking a ~21 MB process, piping one value back and reaping
# the child took 2.0 ms (median of 20; 2.4 ms in an earlier series), and
# each side of a split then pays ~300 copy-on-write faults at ~5 us.  In 15
# alternating pairs, two-way splits lost every pair at 5 forms x 1391 bits
# (7.0 kbit, 5 ms serial), won 10-12 by under 1 ms at 6.9-8.2 kbit, and won
# 13 at 18 x 700 bits (12.6 kbit, 16.2 -> 13.7 ms) and 15 at 16 x 976 bits
# (15.6 kbit, 15.6 -> 13.6 ms).
_FORK_BITS = 12_000


def _workers(n, work):
    """How many processes share an attempt of n theta values and ``work``
    bits: at most the usable CPUs, n, and one fork per ``_FORK_BITS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, n, 1 + work // _FORK_BITS)


def _forked_theta(kind, forms, prec, workers):
    """``theta_value`` at each form, in order, over ``workers`` processes.

    Each child writes its share's values as ``marshal``led mpc tuples to
    its own pipe and leaves through ``os._exit``, status 0 on success.  The
    parent reads every pipe to EOF and reaps every child, killing them first
    if anything raises in the parent.  A share whose child failed (or could
    not be forked), or whose data does not decode, is evaluated by the
    parent, so a real error surfaces here with its own traceback."""
    order = sorted(range(len(forms)), key=lambda i: -forms[i].A)
    shares = [order[w::workers] for w in range(workers)]
    values = [None] * len(forms)
    children = []      # [pid or None, read end, share, data once read]
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no process to spare: the parent takes the share
                pid = None
            if pid == 0:
                status = 1
                try:
                    data = memoryview(marshal.dumps(
                        [theta_value(kind, forms[i], prec)._mpc_ for i in share]))
                    while data:
                        data = data[os.write(w, data):]
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append([pid, r, share, None])
        for i in shares[0]:
            values[i] = theta_value(kind, forms[i], prec)
        for child in children:
            chunks = []
            while chunk := os.read(child[1], 1 << 16):
                chunks.append(chunk)
            child[3] = b"".join(chunks)
    except BaseException:
        import signal   # here alone: importing it adds 128 KB to the peak RSS
        for pid, *_ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for child in children:
            os.close(child[1])
            if child[0] is not None and os.waitpid(child[0], 0)[1] != 0:
                child[3] = None
    for _, _, share, data in children:
        try:
            got = [mp.make_mpc(v) for v in marshal.loads(data)]
        except (TypeError, ValueError, EOFError):
            got = []
        if len(got) != len(share):
            got = [theta_value(kind, forms[i], prec) for i in share]
        for i, v in zip(share, got):
            values[i] = v
    return values


def _pad(n):
    """Bits that ``_expand`` adds to a target: see its error bound."""
    return n.bit_length() + 2


def _expand(values, prec):
    """The monic polynomial whose roots are the values of ``_theta_values``,
    each paired value with its conjugate, and a bound on each coefficient's
    error.

    The product runs on integers scaled by 2^P, P = prec + 64: a pair
    enters as the real quadratic x^2 - 2 Re(theta) x + |theta|^2, a single
    value as x - theta.  When every value is paired the product stays real.

    Error: let each of the n roots come with |theta~ - theta| <= u (1 + |theta|),
    u = 2^-prec, the contract of ``theta_value`` at ``prec`` bits.  Each
    k-subset product then moves by at most ((1+u)^k - 1) prod (1 + |theta|)
    over its roots, so every coefficient moves by at most ((1+u)^n - 1) M
    <= 2nu M, M = prod (1 + |theta|) over all roots.  Truncation adds at
    most 8n 2^-P M~, M~ the product over the computed values: theta's
    components are rounded at P bits and floored at 2^-P, |theta|^2 is
    floored, each new coefficient is floored once per component, and the
    later factors multiply each such error by at most M~.  M <= M~ (1 + 2nu),
    so for prec >= bitlen(n) + 8 the error is below
    err = 2^(bitlen(n) + 2 - prec) M~, which is returned.  Theta at
    target + ``_pad(n)`` bits thus gives err <= 2^-target M~, with M~ about
    the ``height_bound`` of the forms.
    """
    n = sum(2 if paired else 1 for _, _, paired in values)
    with mp.workprec(64):
        M = mp.one
        for _, th, paired in values:
            M *= (1 + abs(th)) ** (2 if paired else 1)
        err = M * mp.mpf(2) ** (n.bit_length() + 2 - prec)
    P = prec + 64
    return _from_fixed(*_product(_fixed(values, P), P), P), err


def _fixed(values, P):
    """(a, b, paired) for each of ``_theta_values``' entries: the value's
    components rounded at P bits and floored at 2^-P, as integers at the
    scale 2^P."""
    with mp.workprec(P):
        return [(*(to_fixed(x, P) for x in mp.mpc(th)._mpc_), paired)
                for _, th, paired in values]


def _product(roots, P):
    """(re, im), ascending, of the product at the scale 2^P of
    x^2 - 2a x + (a^2 + b^2) for each paired (a, b) of ``_fixed`` and of
    x - (a + bi) for each other one; every new coefficient is floored."""
    re, im = [1 << P], [0]
    for a, b, paired in roots:
        if paired:
            c0, c1 = (a * a + b * b) >> P, -2 * a
            re, im = ([x + ((c1 * y + c0 * z) >> P)
                       for x, y, z in zip([0, 0] + p, [0] + p + [0], p + [0, 0])]
                      for p in (re, im))
        else:
            low = list(zip(re + [0], im + [0]))
            re, im = ([x + ((b * z - a * y) >> P) for x, (y, z) in zip([0] + re, low)],
                      [x - ((a * z + b * y) >> P) for x, (y, z) in zip([0] + im, low)])
    return re, im


def _from_fixed(re, im, P):
    """The mpmath values of fixed-point (re, im) lists at the scale 2^P."""
    with mp.workprec(P):
        return [mp.mpc(mp.ldexp(x, -P), mp.ldexp(y, -P)) if y else mp.ldexp(x, -P)
                for x, y in zip(re, im)]


def class_poly_full(D, kind=None, max_bits=DEFAULT_MAX_BITS):
    """H_D[theta] with integer coefficients: the exact rounding over the
    N-system with no q_i* and every mask 0, and T = ``height_bound``, which
    bounds every coefficient by Vieta."""
    kind = kind or InvariantKind.j()
    d = Discriminant.from_D(D)
    kind.validate_for(d)
    forms = n_system(D, kind.modulus(d), kind.b_target(d))
    T = height_bound(kind, forms)
    rows, _ = _exact_rounding(D, kind, (), forms, [0] * len(forms), T, max_bits)
    return ClassPolynomial(D, kind, None, tuple(row[0] for row in rows) + (1,))


def genus_T0(kind, forms, labels):
    """T0 = the largest ``height_bound`` over the genera: forms sharing a
    genus label are the roots of one genus divisor, so by Vieta it bounds
    every conjugate of every coefficient of every genus divisor."""
    return max(height_bound(kind, [f for f, lab in zip(forms, labels) if lab == genus])
               for genus in set(labels))


def hecke_T(kind, forms, masks, cosets):
    """T for a split: the largest over the genera (``masks``) of
    T_R = prod_c (1 + sum_(f in c) B_f) and
    T_N = sum_c prod_(f in c) (1 + B_f) prod_(c' != c) (1 + sum_(f in c') B_f),
    c over the genus's H-cosets (``cosets``) and B_f = ``theta_bound``.
    |s_c| <= sum B_f and, by Vieta, |e_j(c)| <= prod (1 + B_f), so T_R
    bounds every coefficient of R and T_N every coefficient of every N_j,
    whichever of their conjugates.  At 64 bits, padded by 1 + 2^-32 as
    ``height_bound`` is."""
    with mp.workprec(64):
        genera = {}
        for f, mu, c in zip(forms, masks, cosets):
            genera.setdefault(mu, {}).setdefault(c, []).append(theta_bound(kind, f))
        T = mp.zero
        for bounds in genera.values():
            sums = [1 + mp.fsum(b) for b in bounds.values()]
            prods = [mp.fprod(1 + x for x in b) for b in bounds.values()]
            T_R = mp.fprod(sums)
            T = max(T, T_R, mp.fsum(m * T_R / x for m, x in zip(prods, sums)))
        return T * (1 + mp.mpf(2) ** -32)


# exact principal divisors by (D, kind, route), and their splits by
# (D, kind, "split"), oldest first: a process that builds curves at one
# discriminant for several primes recovers its polynomials once
_DIVISORS = {}
_DIVISORS_MAX = 8


def _memo(key, build):
    """_DIVISORS[key], from ``build()`` on a miss; the oldest entry makes
    room when the memo is full."""
    got = _DIVISORS.get(key)
    if got is None:
        got = build()
        if len(_DIVISORS) >= _DIVISORS_MAX:
            del _DIVISORS[next(iter(_DIVISORS))]
        _DIVISORS[key] = got
    return got


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
    coefficients, recovered on ``route``: "conjugates" (``_exact_attempt``)
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
    poly = _memo((D, kind, route), lambda: _principal_divisor(d, kind, route, max_bits))
    _check_cap(D, _plan_bits(poly.plan), max_bits)
    return poly


def class_poly_split(D, kind=None, max_bits=DEFAULT_MAX_BITS):
    """The principal genus divisor of H_D[theta] as a ``HeckeSplit`` along
    the subgroup H of Cl^2 that ``forms.power_cosets`` picks: R and every
    N_j with exact genus-field coefficients, from one exact rounding over
    the genus's cosets (``_exact_attempt``) with T = ``hecke_T``.  This is
    what ``gen_curve`` reduces on its default path.  At k = 1 (n prime, or
    Cl^2 of exponent 2) it is ``whole_split`` of the conjugate-route
    divisor.  Memoized and capped as ``class_poly_divisor`` is; its plan is
    a ConjugatePlan."""
    kind = kind or InvariantKind.j()
    d = Discriminant.from_D(D)
    kind.validate_for(d)
    split = _memo((D, kind, "split"), lambda: _split_divisor(d, kind, max_bits))
    _check_cap(D, split.plan.B, max_bits)
    return split


def _split_divisor(d, kind, max_bits):
    forms = n_system(d.D, kind.modulus(d), kind.b_target(d))
    labels = [phi_class(f, d) for f in forms]
    square = [reduce_form(f) for f, lab in zip(forms, labels) if lab == (1,) * d.t]
    k, coset = power_cosets(d.D, square)
    if k == 1:
        return whole_split(class_poly_divisor(d.D, kind, max_bits, route="conjugates"))
    masks = [_mask(lab) for lab in labels]
    cosets = [coset[reduce_form(f)] for f in forms]
    T = hecke_T(kind, forms, masks, cosets)
    rows, B = _exact_rounding(d.D, kind, d.qstars, forms, masks, T, max_bits, cosets)
    coeffs = [GFElem(d.qstars, row, 1 << d.t) for row in rows]
    return HeckeSplit(d.D, kind, tuple(coeffs[:k]) + (gf_rational(d.qstars, 1),),
                      tuple(tuple(coeffs[i:i + k]) for i in range(k, len(coeffs), k)),
                      plan=ConjugatePlan(T, B))


def _principal_divisor(d, kind, route, max_bits):
    principal = (1,) * d.t
    forms = n_system(d.D, kind.modulus(d), kind.b_target(d))
    labels = [phi_class(f, d) for f in forms]
    T0 = genus_T0(kind, forms, labels)
    if route == "conjugates":
        rows, B = _exact_rounding(d.D, kind, d.qstars, forms,
                                  [_mask(lab) for lab in labels], T0, max_bits)
        N = 1 << d.t
        coeffs = tuple(GFElem(d.qstars, row, N) for row in rows) + (gf_rational(d.qstars, 1),)
        return ClassPolynomial(d.D, kind, principal, coeffs, plan=ConjugatePlan(T0, B))
    sel = [f for f, lab in zip(forms, labels) if lab == principal]
    # the field layer depends on d alone: every plan of the ladder shares it
    mpair = build_mpair(build_basis(d))
    # when kind's N-system is closed under (A,B,C) -> (A,-B,C), complex
    # conjugation maps each genus's theta values onto themselves, so every
    # coefficient is real and the imaginary side is not built
    sides = (REAL_PART,) if kind.conjugation_closed(d) else (REAL_PART, IMAG_PART)
    plan = make_plan(mpair, sides, T0)
    while True:
        _check_cap(d.D, plan.float_bits, max_bits)
        try:
            coeffs = _divisor_attempt(kind, sel, plan)
            break
        except PrecisionEscalation:
            # squaring T0 (exactly) roughly doubles the working precision
            plan = make_plan(mpair, sides, mp.fmul(plan.T0, plan.T0, exact=True))
    return ClassPolynomial(d.D, kind, principal, coeffs, plan=plan)


def _mask(phi):
    """The automorphism mask of a coset label: bit i where phi_i = -1."""
    return sum(1 << i for i, e in enumerate(phi) if e == -1)


def _exact_rounding(D, kind, qstars, forms, masks, T, max_bits, cosets=None):
    """(``_exact_attempt``'s rows, B): the first attempt runs at
    B = ceil(log2 T) + t, B doubles on each escalation, and every attempt is
    checked against the cap."""
    B = int(mp.mag(T)) + len(qstars)   # mag is ceil(log2), or one more at a power of 2
    while True:
        _check_cap(D, B, max_bits)
        try:
            return _exact_attempt(kind, qstars, forms, masks, B, T, cosets), B
        except PrecisionEscalation:
            B *= 2


def _exact_attempt(kind, qstars, forms, masks, B, T, cosets=None):
    """The exact coordinates of polynomials over
    Q(sqrt(q_1*), ..., sqrt(q_t*)), read off all N = 2^t of their
    embeddings: one row per coefficient, holding the integers N a_S for
    every subset mask S of the q_i*.  The polynomial is the monic divisor,
    without its leading coefficient, when ``cosets`` is None; else the
    ``HeckeSplit`` along the H-cosets that ``cosets`` labels (``_hecke``):
    R without its leading coefficient, then N_0, N_1, ...

    The forms of mask mu give sigma_mu of each coefficient, sigma_mu the
    principal embedding after tau_mu, which flips sqrt(q_i*) for each bit i
    of mu, and its complex conjugate gives sigma_(mu xor c), c the mask of
    the negative q_i*.  For a = sum_S a_S r_S, r_S = prod_(i in S) sqrt(q_i*),
    N a_S = sum_mu (-1)^|mu & S| sigma_mu(a) / r_S is an integer: the ring of
    integers is the tensor product of the quadratic ones.  With no q_i* (the
    full polynomial) N = 1, c = 0, one coset holds every form, and the
    transform is the identity.

    Error chain, n forms per genus and T at least every embedding of every
    coefficient: theta at B + 3 + ``_pad(n)`` bits, 2 more for a split,
    puts each embedding within eps, the largest of the bounds of
    ``_expand`` (or ``_hecke``) over the genera, so eps <= 2^-(B+3) V for
    the values' majorant V: M~ for a divisor, and for a split the larger of
    ``_hecke``'s V_R and V_N, the analogues of ``hecke_T``'s T_R and T_N at
    the computed values.  The transform sums N of them and |r_S| >= 1, so
    N a_S is off by at most N eps, plus under 2^-40 N eps of rounding at 64
    more bits.  At B >= log2 T + t, N eps <= 2^-3 V / T, and an attempt
    escalates unless N eps < 1/4, which holds whenever V < 2T.  Checks, each
    escalating: every N a_S rounds with a residual below 1/4; the
    coefficient reproduces all N embeddings within 2 eps, where a wrong one
    misses some embedding by at least 1/N - eps > 2 eps (the transform is N
    times an orthogonal one); and no embedding exceeds T
    (``_check_height``, as on the paper route).
    """
    N = 1 << len(qstars)
    neg = negative_mask(qstars)
    n = len(forms) // len(set(masks))
    prec = B + 3 + _pad(n) + (0 if cosets is None else 2)
    mask = dict(zip(forms, masks))
    coset = None if cosets is None else dict(zip(forms, cosets))
    values = _theta_values(kind, forms, prec)
    emb = [None] * N
    eps = 0
    rows = []
    with mp.workprec(prec + 64):
        for mu in set(masks):
            genus = [v for v in values if mask[v[0]] == mu]
            if coset is None:
                poly, err = _expand(genus, prec)
                poly = poly[:-1]
            else:
                poly, err = _hecke(genus, coset, prec)
            # the conjugate goes in first, so that at c = 0 the product itself stays
            emb[mu ^ neg] = [mp.conj(c) for c in poly]
            emb[mu] = poly
            eps = max(eps, err)
        if not N * eps < 0.25:
            raise PrecisionEscalation(
                f"error bound {mp.nstr(N * eps, 5)} on N a_S at {B} bits")
        roots = root_products(qstars, prec + 64)
        for k in range(len(emb[0])):
            row = []
            for S, x in enumerate(walsh_hadamard(e[k] for e in emb)):
                x /= roots[S]
                r = int(mp.nint(mp.re(x)))
                if not abs(x - r) < 0.25:
                    raise PrecisionEscalation(
                        f"coordinate residual {mp.nstr(abs(x - r), 5)} at {B} bits")
                row.append(r)
            coeff = GFElem(qstars, row, N)
            miss = max(abs(got - e[k]) for got, e in zip(embeddings(coeff, prec + 64), emb))
            if not miss <= 2 * eps:
                raise PrecisionEscalation(
                    f"coefficient {k} misses an embedding by {mp.nstr(miss, 5)} at {B} bits")
            _check_height(coeff, T, f"coefficient {k} at {B} bits")
            rows.append(row)
    return rows


def _hecke(values, coset, prec):
    """The coefficients of one genus's R (but its leading 1) and of its
    N_0, N_1, ... (``HeckeSplit``), and a bound eps on each one's error.

    ``values`` are the genus's entries of ``_theta_values`` and ``coset``
    maps each form to its H-coset.  A pair whose mirror lies in another
    coset is taken apart: the form's coset gets its value unpaired, the
    mirror's coset the conjugate.  Everything runs on ``_expand``'s
    fixed-point integers: P_c is the product of c's values, s_c their sum,
    and R and each Q_c = prod_(c' != c) (Y - s_c') products of the s_c; then
    N_j = sum_c e_j(c) Q_c.

    Error, u = 2^-prec, n values in the genus and n_c in coset c, each with
    |theta~ - theta| <= u (1 + |theta|): let S_c = 1 + sum_(f in c) |theta~_f|
    and M_c = prod_(f in c) (1 + |theta~_f|).  s_c is then off by at most
    2u sum (1 + |theta~_f|) <= 2 n_c u S_c.  If |x~_i - x_i| <= d_i, each
    coefficient of prod (Y - x_i) moves by at most prod (a_i + d_i) - prod a_i
    for any a_i >= 1 + |x~_i| (sum over the subsets), so R's coefficients
    move by at most (prod (1 + 2 n_c u) - 1) V_R <= 4nu V_R, V_R = prod S_c,
    and Q_c's by 4nu V_R / S_c, each also bounded by V_R / S_c.  With
    ``_expand``'s 2^(bitlen(n_c) + 2) u M_c on e_j(c) and |e_j(c)| below
    M_c (1 + 2 n_c u), each coefficient of N_j is off by less than
    2^(bitlen(n) + 3) u V_N, V_N = sum_c M_c V_R / S_c.  The products'
    truncation (``_expand``'s) and the flooring of the s_c and the sums at
    2^-(prec + 64) add under 2^-56 of that, so
    eps = 2^(bitlen(n) + 4 - prec) max(V_R, V_N), with V_R and V_N at 64
    bits, bounds every error: 4 times ``_expand``'s at the same n and
    majorant.
    """
    groups = {}
    for f, th, paired in values:
        if paired:
            mirror = QuadForm(f.A, -f.B, f.C)
            if coset[mirror] != coset[f]:
                groups.setdefault(coset[mirror], []).append((mirror, mp.conj(th), False))
                paired = False
        groups.setdefault(coset[f], []).append((f, th, paired))
    groups = list(groups.values())
    with mp.workprec(64):
        S = [1 + mp.fsum((1 + paired) * abs(th) for _, th, paired in g) for g in groups]
        M = [mp.fprod((1 + abs(th)) ** (1 + paired) for _, th, paired in g) for g in groups]
        V_R = mp.fprod(S)
        n = sum(1 + paired for g in groups for _, _, paired in g)
        eps = max(V_R, mp.fsum(m * V_R / x for m, x in zip(M, S))) \
            * mp.mpf(2) ** (n.bit_length() + 4 - prec)
    P = prec + 64
    roots = [_fixed(g, P) for g in groups]
    polys = [_product(r, P) for r in roots]
    s = [(sum((1 + paired) * a for a, _, paired in r),
          sum(b for _, b, paired in r if not paired), False) for r in roots]
    R = _product(s, P)
    Q = [_product(s[:i] + s[i + 1:], P) for i in range(len(s))]
    N = [((sum(pr[j] * qr[i] - pi[j] * qi[i] for (pr, pi), (qr, qi) in zip(polys, Q)) >> P),
          (sum(pr[j] * qi[i] + pi[j] * qr[i] for (pr, pi), (qr, qi) in zip(polys, Q)) >> P))
         for j in range(len(polys[0][0]) - 1) for i in range(len(s))]
    return _from_fixed(R[0][:-1] + [x for x, _ in N], R[1][:-1] + [y for _, y in N], P), eps


def _check_height(x, T, what):
    """Escalate unless every embedding of the exact coefficient x is at most
    T.  At t + 67 bits each is within 2^-64 K of its value, K the largest
    (``embeddings``), and the 1 + 2^-32 pad of ``height_bound`` covers that."""
    prec = len(x.qstars) + 67
    with mp.workprec(prec):
        if any(abs(v) > T for v in embeddings(x, prec)):
            raise PrecisionEscalation(f"{what} exceeds the height bound")


def _divisor_attempt(kind, sel, plan):
    """The paper route: recover each coefficient from the principal
    embedding with ``plan``.  Theta runs at float_bits + ``_pad(n)``, so each
    coefficient is off by at most 2^-float_bits M~; the sums R = 2 Re and
    I = 2i Im must come within the plan's epsilon, which float_bits was sized
    for.  Each z = (R + I)/2 must pass ``_check_height`` against T0, so every
    conjugate of R = z + tau_c(z) and I = z - tau_c(z), tau_c complex
    conjugation, is within 2 T0."""
    basis = plan.basis
    prec = plan.float_bits + _pad(len(sel))
    poly, err = _expand(_theta_values(kind, sel, prec), prec)
    half = Fraction(1, 2)
    coeffs = []
    with mp.workprec(prec + 64):
        if not 2 * err < plan.epsilon:
            raise PrecisionEscalation(
                f"product error bound {mp.nstr(err, 5)} at {plan.float_bits} bits")
        for k, c in enumerate(poly[:-1]):
            g_re, g_im = c + mp.conj(c), c - mp.conj(c)
            z = basis.element(recover_coords(g_re, plan, REAL_PART), REAL_PART)
            if IMAG_PART in plan.sides:
                z = z + basis.element(recover_coords(g_im, plan, IMAG_PART), IMAG_PART)
            elif not abs(g_im) < plan.epsilon:
                raise PrecisionEscalation(
                    f"coefficient of a real divisor has imaginary part "
                    f"{mp.nstr(abs(g_im) / 2, 5)} at {plan.float_bits} bits")
            coeffs.append(half * z)
            _check_height(coeffs[-1], plan.T0, f"coefficient {k} at {plan.float_bits} bits")
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
    return ClassPolynomial(poly.D, poly.kind, tuple(phi),
                           tuple(c.tau(_mask(phi)) for c in poly.coeffs))


def coset_product_check(full, divisor):
    """The exact product of the conjugates of the principal ``divisor`` over
    every coset equals the full polynomial ``full`` of the same
    discriminant and invariant."""
    qstars = divisor.coeffs[-1].qstars
    prod = [gf_rational(qstars, 1)]
    for phi in coset_labels(divisor.D):
        coeffs = coset_divisor(divisor, phi).coeffs
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
