"""Simultaneous rational approximation of the dual basis omega_star(side).

Runs continued fractions of the quadratic generators g_lam in parallel,
always advancing the register with the largest surviving z-value, and
drags an integer vector A along so that at every moment

    sum_mu A_mu * omega_star_mu = prod_lam (-1)^n_lam sigma_lam(z_lam,n_lam)

holds exactly.  The loop stops once |A_0| >= N0; the resulting A_mu/A_0
approximate omega_mu/omega_0 with quality controlled by the conjugate
bounds checked in approx_quality.

All register arithmetic on (x, y, delta, a, A) is exact integer work; the
only floats are the z-shadows used to pick the next register (any choice
of maximal z is valid, so their rounding cannot affect correctness) and
the quality report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .errors import InternalInvariantError, InvalidParameters
from .genusfield import OTHER_SIDE, delta_g, embeddings

ITER_CAP_SLOPE = 8
ITER_CAP_OFFSET = 64
# precision of the registers' z shadows, which only pick the register to
# advance; A and the quality report are computed at the run's own bits
_Z_BITS = 128


@dataclass
class CFRegister:
    """Continued-fraction state for one quadratic generator g_lam."""

    lam: int              # nonzero bitmask over the t-1 leading factors
    delta: int
    g_real: object        # mpf shadow of g_lam, (1+sqrt(delta))/2 or sqrt(delta)/2
    isq: int              # isqrt(delta)
    x: int = 0
    y: int = 1
    y_prev: int = 0       # floor(delta/4) at init
    z: object = None      # mpf, z_{lam,n}
    n: int = 0


def make_register(d, lam, bits=160):
    delta, g = delta_g(d, lam)
    with mp.workprec(bits):
        g_real = embeddings(g, bits)[0].real
        return CFRegister(
            lam=lam, delta=delta, g_real=g_real, isq=math.isqrt(delta),
            x=0, y=1, y_prev=delta // 4, z=mp.mpf(1), n=0)


def cf_step(reg, bits=160):
    """Advance one continued-fraction step; returns the partial quotient.

    a = floor((g+x)/y) is computed exactly in integers: with g =
    (r + sqrt(delta))/2 (r = delta mod 4 in {0,1}) the floor equals
    (2x + r + isqrt(delta)) // (2y) because sqrt(delta) is irrational.
    """
    r = reg.delta & 3
    assert r in (0, 1)
    a = (2 * reg.x + r + reg.isq) // (2 * reg.y)
    assert a >= 1
    x_old, y_old = reg.x, reg.y
    x_new = a * y_old - x_old - r
    y_new = reg.y_prev - a * (x_new - x_old)
    assert x_new >= 0
    assert y_new >= 1
    # reduced-irrational ranges: 0 <= x < sqrt(delta) - g, 0 < y < sqrt(delta)
    if r:
        assert (2 * x_new + 1) ** 2 < reg.delta
    else:
        assert 4 * x_new ** 2 < reg.delta
    assert y_new ** 2 < reg.delta
    with mp.workprec(bits):
        # z_{n+1} = z_{n-1} - a*z_n rearranged to the cancellation-free
        # form z_n * y_new / (g + x_new); the two are equal exactly.
        reg.z = reg.z * y_new / (reg.g_real + x_new)
    reg.x, reg.y, reg.y_prev = x_new, y_new, y_old
    reg.n += 1
    # delta = x_n^2 + y_n*y_{n-1} in the doubled variables
    if r:
        assert reg.delta == (2 * x_new + 1) ** 2 + 4 * y_new * y_old
    else:
        assert reg.delta == 4 * (x_new ** 2 + y_new * y_old)
    return a


class ApproxRun:
    """One approximation run on one side: registers plus the integer vector A.

    The run drives sum_mu A_mu omega_star(side)_mu, so A is updated with
    the structure constants of omega_star(side)'s family, the other side's
    tensor c, summed per (lam, mu) over its non-zero c[lam][xi][mu] alone.
    """

    def __init__(self, mpair, side, N0=1):
        if N0 < 1:
            raise InvalidParameters(f"threshold N0 must be >= 1, got {N0}")
        self.mpair = mpair
        self.side = side
        self.omega_star = mpair.omega_star(side)
        self.basis = mpair.basis
        self.m = self.basis.m
        self.N0 = N0
        self.bits = max(160, 64 + int(N0).bit_length() + 8 * self.m)
        self.c = mpair.tensors[OTHER_SIDE[side]]
        self.A = [1] + [0] * (self.m - 1)
        self.iters = 0
        t = self.basis.t
        # lexicographic order of the label tuples (lam_1,...,lam_{t-1})
        self.lam_order = sorted(
            range(1, self.m),
            key=lambda mk: tuple((mk >> j) & 1 for j in range(t - 1)))
        self.regs = {lam: make_register(self.basis, lam, _Z_BITS) for lam in self.lam_order}
        self.iter_cap = ITER_CAP_SLOPE * (self.m - 1) * max(1, int(N0).bit_length()) \
            + ITER_CAP_OFFSET
        self._terms = {lam: [[(xi, row[mu]) for xi, row in enumerate(self.c[lam]) if row[mu]]
                             for mu in range(self.m)] for lam in self.lam_order}
        self._base = None

    def done(self):
        return self.m == 1 or abs(self.A[0]) >= self.N0

    def select(self):
        """The register to advance: maximal z, ties to the lexicographically
        smallest label."""
        best = None
        for lam in self.lam_order:
            if best is None or self.regs[lam].z > self.regs[best].z:
                best = lam
        return best

    def step(self):
        """One iteration: advance the chosen register, update A exactly."""
        lam = self.select()
        reg = self.regs[lam]
        a = cf_step(reg, _Z_BITS)
        x_new, y_old = reg.x, reg.y_prev
        newA = []
        for mu, terms in enumerate(self._terms[lam]):
            num = sum(self.A[xi] * c for xi, c in terms) + self.A[mu] * x_new
            q, rem = divmod(num, y_old)
            if rem:
                raise InternalInvariantError(
                    f"non-integer A update at iteration {self.iters} (lam={lam})")
            newA.append(q)
        self.A = newA
        self.iters += 1
        if self.iters > self.iter_cap:
            raise InternalInvariantError(
                f"approximation loop exceeded {self.iter_cap} iterations")
        return {"iter": self.iters, "lam": lam, "a": a, "x": x_new,
                "y": reg.y, "A": list(self.A)}

    def run(self, trace=None):
        while not self.done():
            row = self.step()
            if trace is not None:
                row["Z"] = float(self.z_value())
                trace(row)
        return self

    # -- numeric views -------------------------------------------------

    def z_value(self):
        if self._base is None:
            self._base = [embeddings(w, self.bits)[0].real for w in self.omega_star]
        with mp.workprec(self.bits):
            return +sum(a * w for a, w in zip(self.A, self._base))

    def conj_bound(self):
        """sqrt(|d|)^m / Z^(1/(m-1)), the bound on every conjugate of Z."""
        with mp.workprec(self.bits):
            return +(mp.sqrt(abs(self.basis.d)) ** self.m / mp.root(self.z_value(), self.m - 1))

    def conj_values(self):
        """tau_lam applied to sum A_mu omega_star_mu, for every lam != 0.

        They are embeddings of the exact W = sum A_mu omega_star_mu, whose
        largest is Z while the bound holds: at bits(Z / conj_bound()) + t + 67
        bits each is within 2^-64 conj_bound() of its value (``embeddings``).
        """
        with mp.workprec(self.bits):
            prec = max(0, mp.mag(self.z_value() / self.conj_bound())) + self.basis.t + 67
        emb = embeddings(sum(w * a for a, w in zip(self.A, self.omega_star)), prec)
        return {lam: emb[lam].real for lam in self.lam_order}


def run_approx(mpair, side, N0=1, trace=None):
    return ApproxRun(mpair, side, N0).run(trace)


def approx_quality(run):
    """Evaluate the quality bounds for the current state of a run.

    Z >= 1 and |tau_lam(Z)| <= sqrt(|d|)^m / Z^(1/(m-1)) for lam != 0,
    plus the integer range invariants on every register.
    """
    with mp.workprec(run.bits):
        Z = run.z_value()
        report = {"Z": Z, "Z_ok": Z >= 1, "conj_ok": True, "ranges_ok": True,
                  "conj_max": mp.mpf(0), "conj_bound": mp.inf}
        if run.m > 1:
            bound = run.conj_bound()
            slack = 1 + mp.mpf(2) ** (-run.bits // 2)
            worst = max(abs(v) for v in run.conj_values().values())
            report["conj_max"] = worst
            report["conj_bound"] = bound
            report["conj_ok"] = worst <= bound * slack
        for reg in run.regs.values():
            if reg.n == 0:
                continue
            r = reg.delta & 3
            xa = (2 * reg.x + 1) ** 2 if r else 4 * reg.x ** 2
            if not (xa < reg.delta and 0 < reg.y and reg.y ** 2 < reg.delta):
                report["ranges_ok"] = False
        report["ok"] = report["Z_ok"] and report["conj_ok"] and report["ranges_ok"]
    return report
