"""Exact arithmetic in multiquadratic fields Q(sqrt(q1),...,sqrt(qt)).

An element is a rational combination of products of square roots of the
prime-power factors q_i of a discriminant.  We store it as 2^t integer
numerators over one positive denominator, in lowest terms: numerator S
goes with the *product* of principal square roots
r_S = prod_{i in S} sqrt(q_i) over the bits i of the subset mask S
(positive real for q_i > 0, i*sqrt(|q_i|) for q_i < 0).  In particular the
distinguished root of the discriminant, sqrt_d, is the product
sqrt(q_1)...sqrt(q_t); every sign convention below is anchored to that.

tau_mu flips sqrt(q_i) for each bit i of mu, so every signed sum over the
automorphisms is one Walsh-Hadamard transform (``walsh_hadamard``; Enge and
Morain, AAECC-15, 2003): sum_mu c_mu tau_mu(x) = sum_S x_S r_S c^_S, c^ the
transform of c.  ``root_products`` is the one memoized table of the r_S,
and ``embeddings`` the one numeric view of an element: all its conjugates.

On top of raw field arithmetic this module builds explicit Z-bases
(beta, beta_star) of the real and pure-imaginary parts of the ring of
integers and, once per field, the dual system (M-values, omega and
omega_star for either side) with the two integer structure-constant
tensors that drive the approximation loop and coefficient recovery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import InternalInvariantError, InvalidParameters

CASE_ALL_ODD = "ALL_ODD"
CASE_PLUS8 = "EVEN_8_POSITIVE"
CASE_MIXED = "EVEN_NEG_MIXED"
CASE_ALLPOS = "EVEN_NEG_ALLPOS"

REAL_PART = "REAL_PART"
IMAG_PART = "IMAG_PART"


def _subset_products(xs, one=1):
    """out[S] = one * prod xs[i] over the bits i of S, multiplied in
    increasing i, for every mask S below 2^len(xs)."""
    out = [one]
    for x in xs:
        out += [y * x for y in out]
    return out


def negative_mask(qstars):
    """The mask of the negative q_i: complex conjugation is tau of it."""
    return sum(1 << i for i, q in enumerate(qstars) if q < 0)


def walsh_hadamard(v):
    """sum_mu (-1)^|mu & S| v[mu] for every S, by log2 len(v) rounds of
    butterflies, on ints, mpmath values or GFElems alike."""
    v = list(v)
    h = 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            for j in range(i, i + h):
                v[j], v[j + h] = v[j] + v[j + h], v[j] - v[j + h]
        h *= 2
    return v


@functools.lru_cache(maxsize=64)
def root_products(qstars, prec):
    """r_S for every mask S, as mpc values at prec bits: the principal
    sqrt(q_i) multiplied in increasing i."""
    with mp.workprec(prec):
        return tuple(_subset_products([mp.sqrt(mp.mpc(q)) for q in qstars], mp.mpc(1)))


def embeddings(x, prec):
    """sigma_mu(x) = sum_S (-1)^|mu & S| x_S r_S, the principal embedding of
    tau_mu(x), for every mask mu at prec bits: one transform of the x_S r_S,
    the only numeric view of an element.  Row 0 is x itself; a row of an
    element that is real by construction has a zero imaginary part.

    The transform runs at prec + 8 bits.  With K the largest |sigma_mu(x)|,
    sum_S |x_S r_S| <= 2^(t/2) K (Parseval), so the roundings of each term
    before the division leave each value within ((3t + 1) 2^(t/2) + 1)
    2^-(prec+8) K <= 2^(t-5-prec) K of the true one.  The division by the
    denominator, at prec, rounds each value once, which adds at most 2^-prec
    times its size, under 2^(1-prec) K; so the total stays within
    2^(t+3-prec) K."""
    roots = root_products(x.qstars, prec + 8)
    with mp.workprec(prec + 8):
        vals = walsh_hadamard(n * r for n, r in zip(x.nums, roots))
    with mp.workprec(prec):
        return [v / x.den for v in vals]


def _lam_mask(lam, nbits):
    """An automorphism label: an int bitmask over nbits generators."""
    if not 0 <= lam < (1 << nbits):
        raise InvalidParameters(f"automorphism label {lam!r} out of range for {nbits} generators")
    return lam


class GFElem:
    """One element of Q(sqrt(q1),...,sqrt(qt)): sum_S nums[S] r_S / den."""

    __slots__ = ("qstars", "nums", "den")

    def __init__(self, qstars, nums, den=1):
        self.qstars = tuple(qstars)
        nums = tuple(nums)
        assert len(nums) == 1 << len(self.qstars) and den
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        self.nums = tuple(x // g for x in nums) if g != 1 else nums
        self.den = den // g

    # -- helpers ------------------------------------------------------

    def _check(self, other):
        if self.qstars != other.qstars:
            raise InvalidParameters(f"mixed fields: {self.qstars} vs {other.qstars}")

    @property
    def neg_mask(self):
        return negative_mask(self.qstars)

    def coeff(self, mask):
        """The rational coordinate on r_mask."""
        return Fraction(self.nums[mask], self.den)

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise InternalInvariantError(f"not rational: {self!r}")
        return self.coeff(0)

    def is_real(self):
        neg = self.neg_mask
        return all((S & neg).bit_count() % 2 == 0 for S, x in enumerate(self.nums) if x)

    def is_imag(self):
        neg = self.neg_mask
        return all((S & neg).bit_count() % 2 == 1 for S, x in enumerate(self.nums) if x)

    # -- ring ops -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GFElem):
            other = gf_rational(self.qstars, other)
        self._check(other)
        a, b = self.den, other.den
        return GFElem(self.qstars, [x * b + y * a for x, y in zip(self.nums, other.nums)],
                      a * b)

    __radd__ = __add__

    def __neg__(self):
        return GFElem(self.qstars, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, GFElem) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GFElem):
            v = Fraction(other)
            return GFElem(self.qstars, [x * v.numerator for x in self.nums],
                          self.den * v.denominator)
        self._check(other)
        qprod = _subset_products(self.qstars)   # r_A r_B = qprod[A & B] r_(A ^ B)
        out = [0] * len(qprod)
        for A, x in enumerate(self.nums):
            if x:
                for B, y in enumerate(other.nums):
                    if y:
                        out[A ^ B] += x * y * qprod[A & B]
        return GFElem(self.qstars, out, self.den * other.den)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        t = len(self.qstars)
        acc = gf_rational(self.qstars, 1)
        for lam in range(1, 1 << t):
            acc = acc * self.tau(lam)
        norm = (self * acc).as_fraction()
        assert norm != 0
        return acc * (Fraction(1) / norm)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = gf_rational(self.qstars, other)
        if not isinstance(other, GFElem):
            return NotImplemented
        return (self.qstars, self.nums, self.den) == (other.qstars, other.nums, other.den)

    def __hash__(self):
        return hash((self.qstars, self.nums, self.den))

    def __repr__(self):
        bits = []
        for S, x in enumerate(self.nums):
            if x:
                rad = "*".join(f"sqrt({q})" for i, q in enumerate(self.qstars) if S >> i & 1)
                bits.append(f"{self.coeff(S)}*{rad}" if S else f"{self.coeff(S)}")
        return "GF<" + (" + ".join(bits) or "0") + ">"

    # -- automorphisms ------------------------------------------------

    def tau(self, lam):
        """Flip the sign of sqrt(q_i) for every bit i of the mask lam."""
        m = _lam_mask(lam, len(self.qstars))
        return GFElem(self.qstars, [-x if (S & m).bit_count() % 2 else x
                                    for S, x in enumerate(self.nums)], self.den)

    # -- reduction mod p ----------------------------------------------

    def mod_p(self, roots, p):
        """The image mod p when each sqrt(q_i) is sent to roots[i]; the
        denominator must be prime to p."""
        acc = sum(x * r for x, r in zip(self.nums, _subset_products(roots)) if x)
        return acc * pow(self.den, -1, p) % p


# -- constructors and serialization -----------------------------------

def gf_rational(qstars, v):
    v = Fraction(v)
    return gf_monomial(qstars, 0, v.numerator, v.denominator)


def gf_monomial(qstars, mask, num=1, den=1):
    """num/den times r_mask, the product of the principal sqrt(q_i) over
    the bits i of mask."""
    nums = [0] * (1 << len(qstars))
    nums[mask] = num
    return GFElem(qstars, nums, den)


def gf_to_json(x):
    """Serialize as {mask-as-decimal-string: "num/den"}."""
    out = {}
    for S, n in enumerate(x.nums):
        if n:
            co = x.coeff(S)
            out[str(S)] = f"{co.numerator}/{co.denominator}"
    return out


# -- integral bases ---------------------------------------------------

def adjugate(rows):
    """det M and adj M = det M * M^-1 of a square integer matrix.

    Fraction-free Gauss-Jordan on [M | I] (Bareiss 1968): step k replaces
    every other row r by (p_k r - r[k] row_k) / p_(k-1), a division that is
    exact.  The left half ends as p_n I and the right half as p_n M^-1, p_n
    being det M up to the sign of the row swaps.  Raises
    InternalInvariantError when M is singular.
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise InternalInvariantError("singular matrix")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row_k = a[k]
        pk = row_k[k]
        for r in range(n):
            if r != k:
                f = a[r][k]
                a[r] = [(pk * x - f * y) // prev for x, y in zip(a[r], row_k)]
        prev = pk
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


class GenusBasis:
    """Explicit Z-bases of the real / imaginary halves of the ring of integers.

    beta[mu] spans O_K intersect R, beta_star[mu] spans O_K intersect iR,
    mu running over {0,1}^(t-1) encoded as bitmasks (bit j = s_{j+1});
    ``family(side)`` is beta on REAL_PART and beta_star on IMAG_PART.
    """

    def __init__(self, qstars, u, case, beta, beta_star):
        self.qstars = tuple(qstars)
        self.t = len(self.qstars)
        self.u = u
        self.m = 1 << (self.t - 1)
        self.case = case
        self.beta = tuple(beta)
        self.beta_star = tuple(beta_star)
        self.sqrt_d = gf_monomial(self.qstars, (1 << self.t) - 1)
        self.d = math.prod(self.qstars)
        # per side: the masks its family lives on (an even number of negative
        # factors for real elements, odd for imaginary ones), det and the
        # coordinate map det * F^-1.  F = A diag(1/den_mu), A holding the
        # family's numerators on those masks, so row mu of the map is
        # den_mu times row mu of adj A
        neg = negative_mask(self.qstars)
        self._coord_maps = {}
        for side, parity in ((REAL_PART, 0), (IMAG_PART, 1)):
            fam = self.family(side)
            masks = [S for S in range(1 << self.t) if (S & neg).bit_count() % 2 == parity]
            det, adj = adjugate([[e.nums[S] for e in fam] for S in masks])
            rows = tuple(tuple(e.den * a for a in row) for e, row in zip(fam, adj))
            self._coord_maps[side] = (masks, det, rows)

    def family(self, side):
        """beta on REAL_PART, beta_star on IMAG_PART."""
        if side == REAL_PART:
            return self.beta
        if side == IMAG_PART:
            return self.beta_star
        raise InvalidParameters(f"unknown side {side!r}")

    def element(self, coords, side):
        """sum_mu coords[mu] * family(side)[mu] for integer coords, in one
        pass over the family's numerators."""
        fam = self.family(side)
        den = math.lcm(*(e.den for e in fam))
        nums = [0] * (1 << self.t)
        for c, e in zip(coords, fam):
            if c:
                k = c * (den // e.den)
                nums = [x + k * y for x, y in zip(nums, e.nums)]
        return GFElem(self.qstars, nums, den)

    def coords(self, v, side):
        """Rational coordinates of v over family(side); v must be real on
        REAL_PART and pure imaginary on IMAG_PART."""
        assert v.is_real() if side == REAL_PART else v.is_imag(), \
            f"expected a {side} element, got {v!r}"
        masks, det, rows = self._coord_maps[side]
        col = [v.nums[S] for S in masks]
        return [Fraction(sum(a * c for a, c in zip(row, col)), det * v.den) for row in rows]


def _selections(s, alpha, atil, lo, hi, one):
    """The four products over i in [lo, hi) that build_basis picks factor
    by factor from the bits s_i: atil_i or alpha_i, -atil_i or alpha_i,
    alpha_i or atil_i and -alpha_i or atil_i, the first choice when s_i = 1.
    """
    prods = [one] * 4
    for i in range(lo, hi):
        a, b = alpha[i], atil[i]
        picks = (b, -b, a, -a) if s[i] else (a, a, b, b)
        prods = [x * y for x, y in zip(prods, picks)]
    return prods


def build_basis(d):
    """Build the (beta, beta_star) integral basis pair for a Discriminant,
    whose q_i factors come positives-first with any even factor per the
    factoring convention (+8 leading, -4/-8 trailing).
    """
    qstars = d.qstars
    t = len(qstars)
    assert t >= 1
    u = sum(1 for q in qstars if q > 0)
    m = 1 << (t - 1)
    assert all(q > 0 for q in qstars[:u]) and all(q < 0 for q in qstars[u:]), qstars
    assert sum(1 for q in qstars if q % 2 == 0) <= 1
    assert (t - u) % 2 == 1  # discriminant is negative

    one = gf_rational(qstars, 1)
    alpha, atil = [], []
    for i, q in enumerate(qstars):
        r = gf_monomial(qstars, 1 << i, 1, 2)
        if q % 2:
            assert q % 4 == 1
            half = gf_monomial(qstars, 0, 1, 2)
            alpha.append(half + r)
            atil.append(half - r)
        else:
            assert q in (8, -4, -8)
            alpha.append(r)  # sqrt(q/4)
            atil.append(-r)

    if 8 in qstars:
        assert qstars[0] == 8 and 1 <= u <= t - 1
        case = CASE_PLUS8
    elif qstars[-1] in (-4, -8):
        if u == t - 1:
            case = CASE_ALLPOS
        else:
            assert u <= t - 2
            case = CASE_MIXED
    else:
        assert all(q % 2 for q in qstars) and u <= t - 1
        case = CASE_ALL_ODD

    lo = 1 if case == CASE_PLUS8 else 0
    beta, beta_star = [], []
    for smask in range(m):
        s = [(smask >> j) & 1 for j in range(t - 1)]
        pre, pre_s, _, _ = _selections(s, alpha, atil, lo, u, one)

        if case in (CASE_ALL_ODD, CASE_PLUS8):
            if case == CASE_PLUS8:
                root2 = gf_monomial(qstars, 1, 1, 2)  # sqrt(8)/2 = sqrt(2)
                pre = pre * (root2 if s[0] else one)
                pre_s = pre_s * (one if s[0] else root2)
            p1, q1, p2, q2 = _selections(s, alpha, atil, u, t - 1, one)
            b = pre * (p1 * alpha[t - 1] + p2 * atil[t - 1])
            bs = pre_s * (q1 * alpha[t - 1] - q2 * atil[t - 1])

        elif case == CASE_MIXED:
            m1, mq1, m2, mq2 = _selections(s, alpha, atil, u, t - 2, one)
            st = s[t - 2]
            at = alpha[t - 1]
            b = pre * (m1 * alpha[t - 2] * (at if st else one)
                       + m2 * atil[t - 2] * ((-at) if st else one))
            bs = pre_s * (mq1 * alpha[t - 2] * (one if st else at)
                          - mq2 * atil[t - 2] * (one if st else (-at)))

        else:  # CASE_ALLPOS
            b = pre
            bs = pre_s * gf_monomial(qstars, 1 << (t - 1))

        if not (b.is_real() and bs.is_imag()):
            raise InternalInvariantError(
                f"beta not real or beta_star not imaginary for qstars={qstars} s={smask}")
        beta.append(b)
        beta_star.append(bs)

    basis = GenusBasis(qstars, u, case, beta, beta_star)
    # duality: sum_(mu < m) (-1)^|mu| tau_mu(beta_eta beta*_nu) is sqrt_d when
    # eta == nu and 0 otherwise; the transform of those signs is m on the two
    # masks holding bits 0..t-2 and 0 elsewhere, so each sum is one pointwise product
    signs = walsh_hadamard([(-1) ** mu.bit_count() for mu in range(m)] + [0] * m)
    zero = gf_rational(qstars, 0)
    for eta in range(m):
        for nu in range(m):
            prod = basis.beta[eta] * basis.beta_star[nu]
            got = GFElem(qstars, [x * c for x, c in zip(prod.nums, signs)], prod.den)
            if got != (basis.sqrt_d if eta == nu else zero):
                raise InternalInvariantError(
                    f"basis duality failed for qstars={qstars} eta={eta} nu={nu}")
    return basis


# -- dual systems -----------------------------------------------------

OTHER_SIDE = {REAL_PART: IMAG_PART, IMAG_PART: REAL_PART}


@dataclass(frozen=True)
class MPair:
    """The field's dual system: M-values, the dual bases by side, the set
    X of multipliers and the two structure-constant tensors over it.

    omegas[REAL_PART] = beta/beta_0 and omegas[IMAG_PART] = beta*/beta*_0;
    omega_star(side) is the other side's omegas, and norm(side), the omega
    denominator, is beta_0 or beta*_0.  M(tau_mu) makes
    Sum_mu M(tau_mu) tau_mu(omega_lam * omega_star_lam') = [lam == lam']
    hold exactly, which is verified at construction on REAL_PART; the
    IMAG_PART identities are the REAL_PART ones transposed (lam and lam'
    swapped), as the product is commutative.  ``tensors[side]`` is the
    tensor over family(side): recovery on a side uses that side's tensor,
    and the approximation run on a side the other side's.
    """

    basis: GenusBasis
    mvals: tuple
    omegas: dict
    X_set: tuple
    tensors: dict

    def omega_star(self, side):
        return self.omegas[OTHER_SIDE[side]]

    def norm(self, side):
        return self.basis.family(side)[0]


def build_mpair(basis):
    qstars = basis.qstars
    m = basis.m
    omegas = {}
    for side in (REAL_PART, IMAG_PART):
        fam = basis.family(side)
        inv0 = fam[0].inv()
        omegas[side] = tuple(fam[mu] * inv0 for mu in range(m))
    om, oms = omegas[REAL_PART], omegas[IMAG_PART]
    prod0 = basis.beta[0] * basis.beta_star[0]
    inv_sqrt_d = basis.sqrt_d * Fraction(1, basis.d)  # 1/sqrt(d)
    mvals = tuple((-1) ** mu.bit_count() * prod0.tau(mu) * inv_sqrt_d for mu in range(m))

    if om[0] != 1 or oms[0] != 1:
        raise InternalInvariantError("omega_0 or omega_star_0 is not 1")
    # by linearity Sum_mu M(tau_mu) tau_mu(P) = Sum_S P_S E_S, with E_S =
    # r_S times the transform of the M-values at S: over one denominator L
    # for the E_S, each pair's sum is an integer combination of their numerators
    N = 1 << basis.t
    E = [gf_monomial(qstars, S) * w
         for S, w in enumerate(walsh_hadamard(mvals + (0,) * (N - m)))]
    L = math.lcm(*(e.den for e in E))
    rows = [[x * (L // e.den) for x in e.nums] for e in E]
    for lam in range(m):
        for lamp in range(m):
            prod = om[lam] * oms[lamp]
            acc = [0] * N
            for x, row in zip(prod.nums, rows):
                if x:
                    acc = [a + x * y for a, y in zip(acc, row)]
            if acc != [prod.den * L if lam == lamp else 0] + [0] * (N - 1):
                raise InternalInvariantError(
                    f"dual-system identity failed for qstars={qstars} "
                    f"lam={lam} lam'={lamp}")
    if not all(v.is_real() for v in mvals):
        raise InternalInvariantError(f"non-real M-value for qstars={qstars}")
    tensors = {side: structure_constants(basis, side) for side in (REAL_PART, IMAG_PART)}
    return MPair(basis, mvals, omegas, default_x_set(basis), tensors)


# -- quadratic generators and structure constants ---------------------

def delta_g(d, lam):
    """The positive integer delta_lam and generator g_lam of one real
    quadratic subfield; g = sqrt(delta)/2 for even delta, (1+sqrt(delta))/2
    for odd.  d is a Discriminant or a GenusBasis."""
    qstars, u = d.qstars, d.u
    t = len(qstars)
    mlam = _lam_mask(lam, t - 1)
    if mlam == 0:
        raise InvalidParameters("lam must be nonzero")
    delta = 1
    mask = 0
    for j in range(t - 1):
        if (mlam >> j) & 1:
            delta *= qstars[j]
            mask |= 1 << j
    xor = (mlam >> u).bit_count() % 2  # bits u..t-2 of lam
    if xor:
        delta *= qstars[t - 1]
        mask |= 1 << (t - 1)
    assert delta > 0
    assert math.isqrt(delta) ** 2 != delta
    negs = sum(1 for i, q in enumerate(qstars) if mask >> i & 1 and q < 0)
    assert negs % 2 == 0
    sign = 1 if negs % 4 == 0 else -1
    root = gf_monomial(qstars, mask, sign)  # equals the positive sqrt(delta)
    if delta % 2:
        assert delta % 4 == 1
        g = (gf_rational(qstars, 1) + root) * Fraction(1, 2)
    else:
        assert delta % 4 == 0
        g = root * Fraction(1, 2)
    return delta, g


def default_x_set(basis):
    """X_0 = 1 and X_eta = g_eta for eta != 0."""
    xs = [gf_rational(basis.qstars, 1)]
    for lam in range(1, basis.m):
        xs.append(delta_g(basis, lam)[1])
    return tuple(xs)


def structure_constants(basis, side):
    """The integer tensor expanding family(side)_xi * X_eta over
    family(side), tensor[eta][xi][mu], with X = default_x_set(basis): the
    beta tensor on REAL_PART, the beta_star tensor on IMAG_PART.  It also
    expands omega_xi * X_eta over omega for the omega with that family, as
    omega is the family over its first element."""
    fam = basis.family(side)
    tensor = []
    for X in default_x_set(basis):
        rows = []
        for e in fam:
            coords = basis.coords(e * X, side)
            if any(co.denominator != 1 for co in coords):
                raise InternalInvariantError(
                    f"non-integer structure constants for qstars={basis.qstars}")
            rows.append(tuple(int(co) for co in coords))
        tensor.append(tuple(rows))
    return tuple(tensor)
