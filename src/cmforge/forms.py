"""Binary quadratic forms: reduction, class enumeration, composition, N-systems, genus characters.

Forms (A, B, C) are positive definite with discriminant B^2 - 4AC = D < 0.
An N-system is one representative per class with gcd(A, N) = 1 and all B
congruent mod 2N — the shape needed before evaluating level-N modular
functions at form roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .arith import Discriminant, _factorize, kronecker
from .errors import InternalInvariantError, InvalidParameters

__all__ = [
    "QuadForm",
    "reduce_form",
    "enumerate_reduced",
    "make_coprime",
    "n_system",
    "compose",
    "power_cosets",
    "root_of_form",
    "phi_class",
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
    """All primitive reduced forms of discriminant D, ordered by (A, B)."""
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidParameters(f"not an imaginary quadratic discriminant: {D}")
    out = []
    for A in range(1, math.isqrt(-D // 3) + 1):
        for B in range(-A + 1, A + 1):
            if (B - D) % 2 != 0 or (B * B - D) % (4 * A) != 0:
                continue
            C = (B * B - D) // (4 * A)
            if C < A:
                continue
            if B < 0 and A == C:
                continue
            if math.gcd(math.gcd(A, B), C) != 1:
                continue
            out.append(QuadForm(A, B, C))
    return out


def make_coprime(f: QuadForm, N: int) -> QuadForm:
    """An equivalent form whose leading coefficient is coprime to N.

    Walks the primes l | N in ascending order, fixing one at a time without
    disturbing the ones already done (N0 = product of the processed primes).
    """
    if N <= 0:
        raise InvalidParameters(f"N must be positive, got {N}")
    A, B, C = f.A, f.B, f.C
    g = QuadForm(A, B, C)
    N0 = 1
    for l in sorted(_factorize(N)):
        A, B, C = g.A, g.B, g.C
        if A % l == 0:
            if (A + N0 * B + N0 * N0 * C) % l != 0:
                g = g.transform(1, 0, N0, 1)
            else:
                # here l | C is impossible for a primitive form, so the
                # determinant-1 matrix [[l, b], [N0, a]] with al - bN0 = 1 works
                a = pow(l, -1, N0) if N0 > 1 else 1
                b = (a * l - 1) // N0
                g = g.transform(l, b, N0, a)
        N0 *= l
    if math.gcd(g.A, N) != 1:
        raise InternalInvariantError(f"make_coprime failed: {f} -> {g} vs N={N}")
    assert g.disc == f.disc
    return g


def n_system(D: int, N: int, b_target: int | None = None) -> tuple[QuadForm, ...]:
    """One form per class of discriminant D with gcd(A, N) = 1, B = b (mod 2N).

    b_target picks the shared residue (it must have the parity of D); by
    default the first class's B is used.  A final translation shrinks |B|,
    preserving the residue.
    """
    reps = enumerate_reduced(D)
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
        assert (g.B - b) % (2 * N) == 0
        # shrink |B| by multiples of 2NA for smaller roots
        j = round(g.B / (2 * N * g.A))
        if j:
            g = g.translate(-N * j)
        out.append(g)
    forms = tuple(out)
    _check_n_system(forms, D, N, b, reps)
    return forms


def _check_n_system(forms: tuple[QuadForm, ...], D: int, N: int, b: int,
                    reps: list[QuadForm]) -> None:
    for g in forms:
        if math.gcd(g.A, N) != 1 or g.disc != D or (g.B - b) % (2 * N):
            raise InternalInvariantError(f"bad N-system member {g} for N={N}")
    if sorted(map(reduce_form, forms), key=lambda q: (q.A, q.B)) != reps:
        raise InternalInvariantError("N-system does not hit every class exactly once")


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


def power_cosets(D: int, square: list[QuadForm]) -> tuple[int, dict]:
    """(k, coset): the subgroup H = {x^e : x in ``square``} of index k that
    minimizes max(k, |H|), the smaller k on a tie, and the label of the
    H-coset of every reduced form of discriminant D.

    ``square`` holds the reduced forms of the classes of a subgroup (Cl^2,
    the principal genus), n of them.  Every e | n is tried: x^n = 1, so the
    e-th powers for any e are the gcd(e, n)-th powers.  The e-th powers are
    the q-th powers of the (e/q)-th ones, q the least prime factor of e, so
    each subgroup costs one powering per element of a larger one.  The
    labels are 0, 1, ... in the order of ``enumerate_reduced``: a coset
    takes the next one at its first form.
    """
    n = len(square)
    powers = {1: set(square)}
    for e in range(2, n + 1):
        if n % e == 0:
            q = next(q for q in range(2, e + 1) if e % q == 0)
            powers[e] = {_power(x, q) for x in powers[e // q]}
    H = min(powers.values(), key=lambda H: (max(n // len(H), len(H)), n // len(H)))
    k = n // len(H)
    coset = {}
    for f in enumerate_reduced(D):
        if f not in coset:
            label = len(coset) // len(H)
            for x in H:
                coset[compose(f, x)] = label
    return k, coset


def root_of_form(f: QuadForm):
    """The root tau = (-B + sqrt(D)) / 2A in the upper half plane (ambient mp precision)."""
    return (mp.mpc(-f.B) + mp.sqrt(mp.mpc(f.disc))) / (2 * f.A)


def phi_class(f: QuadForm, disc: Discriminant) -> tuple[int, ...]:
    """Genus character vector ((q1*/A'), ..., (qt*/A')) on a class representative
    with A' coprime to D.  Constant on classes; all entries +-1 and their
    product is +1."""
    g = make_coprime(f, -disc.D)
    chi = tuple(kronecker(q, g.A) for q in disc.qstars)
    if any(c == 0 for c in chi):
        raise InternalInvariantError(f"character hit 0 on {g} (A not coprime to d?)")
    prod = 1
    for c in chi:
        prod *= c
    if prod != 1:
        raise InternalInvariantError(f"character product != 1 on {g}: {chi}")
    return chi
