"""Binary quadratic forms: reduction, class enumeration, N-systems, genus characters.

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
    "NSystem",
    "n_system",
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


@dataclass(frozen=True)
class NSystem:
    D: int
    N: int
    b: int  # the shared residue: every form has B = b (mod 2N)
    forms: tuple[QuadForm, ...]


def n_system(D: int, N: int, b_target: int | None = None) -> NSystem:
    """One form per class of discriminant D with gcd(A, N) = 1, B = b (mod 2N).

    b_target picks the shared residue (it must have the parity of D); by
    default the first class's B is used.  A final translation shrinks |B|,
    preserving the residue.
    """
    reps = enumerate_reduced(D)
    if not reps:
        raise InvalidParameters(f"no forms of discriminant {D}")
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
    sys = NSystem(D, N, b % (2 * N), tuple(out))
    _check_n_system(sys, reps)
    return sys


def _check_n_system(sys: NSystem, reps: list[QuadForm]) -> None:
    for g in sys.forms:
        if math.gcd(g.A, sys.N) != 1 or g.disc != sys.D or (g.B - sys.b) % (2 * sys.N):
            raise InternalInvariantError(f"bad N-system member {g} for N={sys.N}")
    if sorted(map(reduce_form, sys.forms), key=lambda q: (q.A, q.B)) != reps:
        raise InternalInvariantError("N-system does not hit every class exactly once")


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
