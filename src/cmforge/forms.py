"""Binary quadratic forms: reduction, class enumeration, composition, N-systems, genus characters.

Forms (A, B, C) are positive definite with discriminant B^2 - 4AC = D < 0.
``class_group(D)``, built once per D per process, holds the reduced forms,
their genus masks and, on first use, the split of the principal genus.  An
N-system is one representative per class with gcd(A, N) = 1 and all B
congruent mod 2N, the shape needed to evaluate level-N functions at roots.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from mpmath import mp

from .arith import Discriminant, kronecker
from .errors import InternalInvariantError, InvalidParameters

__all__ = [
    "QuadForm",
    "reduce_form",
    "enumerate_reduced",
    "class_group",
    "make_coprime",
    "n_system",
    "compose",
    "root_of_form",
    "phi_class",
    "genus_mask",
]


@dataclass(frozen=True)
class QuadForm:
    A: int
    B: int
    C: int

    def __post_init__(self):
        if self.A <= 0 or self.disc >= 0:
            raise InvalidParameters(f"not positive definite: {self}")

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def transform(self, al: int, be: int, ga: int, de: int) -> "QuadForm":
        """Act by the unimodular matrix [[al, be], [ga, de]]."""
        assert al * de - be * ga == 1
        A, B, C = self.A, self.B, self.C
        return QuadForm(
            A * al * al + B * al * ga + C * ga * ga,
            2 * A * al * be + B * (al * de + be * ga) + 2 * C * ga * de,
            A * be * be + B * be * de + C * de * de,
        )

    def translate(self, a: int) -> "QuadForm":
        """tau -> tau + a; keeps A, shifts B by 2aA."""
        return self.transform(1, a, 0, 1)

    def is_reduced(self) -> bool:
        A, B, C = self.A, self.B, self.C
        if not (-A < B <= A <= C):
            return False
        return B >= 0 if (B == A or A == C) else True


def reduce_form(f: QuadForm) -> QuadForm:
    """The unique reduced representative of f's equivalence class."""
    A, B, C = f.A, f.B, f.C
    while True:
        if not (-A < B <= A):
            k = (A - B) // (2 * A)
            B, C = B + 2 * A * k, A * k * k + B * k + C
        if A > C:
            A, B, C = C, -B, A
            continue
        break
    if B < 0 and A == C:
        B = -B
    out = QuadForm(A, B, C)
    assert out.is_reduced() and out.disc == f.disc
    return out


def enumerate_reduced(D: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant D, ordered by (A, B), by
    Cohen's loop (A Course in Computational Algebraic Number Theory, 5.3.5):
    each A | (B^2 - D)/4 with B <= A <= C, for B = D (mod 2) in [0, sqrt(|D|/3)]."""
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidParameters(f"not an imaginary quadratic discriminant: {D}")
    out = []
    for B in range(D % 2, math.isqrt(-D // 3) + 1, 2):
        AC = (B * B - D) // 4
        for A in range(max(B, 1), math.isqrt(AC) + 1):
            C = AC // A
            if AC % A or math.gcd(A, B, C) != 1:
                continue
            out.append(QuadForm(A, B, C))
            if 0 < B < A < C:
                out.append(QuadForm(A, -B, C))
    return sorted(out, key=lambda f: (f.A, f.B))


@dataclass(frozen=True)
class ClassGroup:
    """The class group at D: its reduced forms in ``enumerate_reduced``'s
    order and their genus masks, bit i where (q_i*/.) = -1 in
    ``Discriminant.qstars`` order, so the principal genus is mask 0."""
    disc: Discriminant
    forms: tuple[QuadForm, ...]
    masks: tuple[int, ...]

    @functools.cached_property
    def split(self) -> tuple[int, tuple[int, ...]]:
        """(k, cosets), built on first use: H = {x^e : x in Cl^2}, Cl^2 the
        principal genus of n classes, of the index k that minimizes
        max(k, |H|), the smaller k on a tie, with each form's H-coset label,
        0, 1, ... in the order of ``forms``.  Every e | n is tried (x^n = 1),
        as the q-th powers of the (e/q)-th, q the least prime factor of e."""
        square = [f for f, mu in zip(self.forms, self.masks) if mu == 0]
        n = len(square)
        powers = {1: set(square)}
        for e in range(2, n + 1):
            if n % e == 0:
                q = next(q for q in range(2, e + 1) if e % q == 0)
                powers[e] = {_power(x, q) for x in powers[e // q]}
        H = min(powers.values(), key=lambda H: (max(n // len(H), len(H)), n // len(H)))
        label = {}
        for f in self.forms:
            if f not in label:
                nxt = len(label) // len(H)
                label.update((compose(f, x), nxt) for x in H)
        k = len({label.get(f) for f in square})
        if len(label) != len(self.forms) or k * len(H) != n:
            raise InternalInvariantError(f"H-cosets of {len(H)} miss Cl^2 at {self.disc.D}")
        return k, tuple(label[f] for f in self.forms)


@functools.lru_cache(maxsize=8)
def class_group(D: int) -> ClassGroup:
    """The ``ClassGroup`` at D, from one ``enumerate_reduced``; the last few
    are kept, so every route at one D shares it.  Raises unless the masks
    take 2^(t-1) values and the principal genus holds h / 2^(t-1) forms."""
    disc = Discriminant.from_D(D)
    forms = tuple(enumerate_reduced(D))
    masks = tuple(genus_mask(phi_class(f, disc)) for f in forms)
    if len(set(masks)) != disc.m or masks.count(0) * disc.m != len(forms):
        raise InternalInvariantError(f"the genus masks at {D} miss 2^(t-1) equal genera")
    return ClassGroup(disc, forms, masks)


def make_coprime(f: QuadForm, N: int) -> QuadForm:
    """An equivalent form whose A is coprime to N: f itself when it is, else
    f by [[x, -w], [y, u]], xu + yw = 1, at the smallest f(x, y) coprime to
    N over primitive (x, y), y > 0, max(|x|, y) <= s + 1, s the first such
    bound that holds one; ties go to the smaller |x| + y, then to xB <= 0,
    so (A, -B, C), whose value at (-x, y) is f(x, y), gets the mirror form."""
    if N <= 0 or math.gcd(f.A, f.B, f.C) != 1:
        raise InvalidParameters(f"need N > 0 and a primitive form, got N={N}, {f}")
    if math.gcd(f.A, N) == 1:
        return f

    def box(s):   # (f(x, y), |x| + y, xB > 0, y, x) at each candidate
        return [(v, abs(x) + y, x * f.B > 0, y, x) for y in range(1, s + 1)
                for x in range(-s, s + 1) if math.gcd(x, y) == 1
                and math.gcd(v := f.A * x * x + f.B * x * y + f.C * y * y, N) == 1]

    s = next(s for s in itertools.count(1) if box(s))
    *_, y, x = min(box(s + 1))
    _, u, w = _xgcd(x, y)
    g = f.transform(x, -w, y, u)
    if math.gcd(g.A, N) != 1 or g.disc != f.disc:
        raise InternalInvariantError(f"make_coprime failed: {f} -> {g} vs N={N}")
    return g


@functools.lru_cache(maxsize=8)
def n_system(D: int, N: int, b_target: int | None = None) -> tuple[QuadForm, ...]:
    """One form per class of discriminant D with gcd(A, N) = 1, B = b (mod 2N):
    ``make_coprime`` of its reduced form, translated.

    b_target picks the shared residue (it must have the parity of D); by
    default the first class's B is used.  A final translation shrinks |B|,
    preserving the residue.  Its i-th form is in class_group(D).forms[i].
    With b = -b (mod 2N) it holds the mirror of each form with B != 0 outside
    an ambiguous class, as ``make_coprime`` commutes with the mirror.  The
    last few are kept, so every route at one (D, N, b) shares one."""
    reps = class_group(D).forms
    out = []
    b = b_target
    for f in reps:
        g = make_coprime(f, N)
        if b is None:
            b = g.B
        if (g.B - b) % 2 != 0:
            raise InvalidParameters(f"target residue {b} has wrong parity for D={D}")
        a = (pow(g.A, -1, N) * ((b - g.B) // 2)) % N
        g = g.translate(a)
        # shrink |B| by multiples of 2NA for smaller roots
        j = round(g.B / (2 * N * g.A))
        if j:
            g = g.translate(-N * j)
        if math.gcd(g.A, N) != 1 or g.disc != D or (g.B - b) % (2 * N):
            raise InternalInvariantError(f"bad N-system member {g} for N={N}")
        out.append(g)
    if tuple(map(reduce_form, out)) != reps:
        raise InternalInvariantError("N-system does not hit every class exactly once")
    return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """The reduced form of the class [f][g]: Dirichlet composition.

    With e = gcd(A1, A2, (B1 + B2)/2) = u A1 + v A2 + w (B1 + B2)/2, the
    composite is (A1 A2 / e^2, B, .) where
    B = (u A1 B2 + v A2 B1 + w (B1 B2 + D)/2) / e mod 2 A1 A2 / e^2
    (see Cox, "Primes of the form x^2 + ny^2", section 3).
    """
    D = f.disc
    e1, x, y = _xgcd(f.A, g.A)
    e, z, w = _xgcd(e1, (f.B + g.B) // 2)
    A = f.A * g.A // (e * e)
    B = (z * x * f.A * g.B + z * y * g.A * f.B + w * (f.B * g.B + D) // 2) // e % (2 * A)
    return reduce_form(QuadForm(A, B, (B * B - D) // (4 * A)))


def _power(f: QuadForm, e: int) -> QuadForm:
    """The reduced form of [f]^e, e >= 1, by square and multiply."""
    out = reduce_form(f)
    for bit in bin(e)[3:]:
        out = compose(out, out)
        if bit == "1":
            out = compose(out, f)
    return out


def root_of_form(f: QuadForm):
    """The root tau = (-B + sqrt(D)) / 2A in the upper half plane (ambient mp precision)."""
    return (mp.mpc(-f.B) + mp.sqrt(mp.mpc(f.disc))) / (2 * f.A)


def phi_class(f: QuadForm, disc: Discriminant) -> tuple[int, ...]:
    """Genus character vector ((q1*/m_1), ..., (qt*/m_t)), m_i the first of
    the values A, C, A + B + C of the form coprime to q_i* (one is, as the
    form is primitive).  Constant on classes; entries +-1 with product +1."""
    chi = tuple(kronecker(q, next((m for m in (f.A, f.C, f.A + f.B + f.C)
                                   if math.gcd(m, q) == 1), 0))
                for q in disc.qstars)
    if math.prod(chi) != 1:
        raise InternalInvariantError(f"character product != 1 on {f}: {chi}")
    return chi


def genus_mask(phi: tuple[int, ...]) -> int:
    """The automorphism mask of a genus label: bit i where phi_i = -1."""
    return sum(1 << i for i, e in enumerate(phi) if e == -1)
