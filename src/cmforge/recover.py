"""Turning float approximations of divisor coefficients back into integers.

A coefficient z of the genus-field divisor satisfies 2*Re(z) = sum b_xi
beta_xi and 2i*Im(z) = sum b'_xi beta*_xi with integer b, b'.  Given gamma
within epsilon of the true value and the a-priori conjugate bound T0, the
numbers M(Id)*Z*gamma*X_eta/beta_0 round to the integers
sum_mu A_mu B_{mu,eta}, and the linear system

    r_eta = sum_xi (sum_mu A_mu x_{mu,xi,eta}) b_xi

is then solved exactly over the integers.  The plan object fixes T0, the
approximation threshold N0, epsilon and the working precision so that the
rounding is provably correct.  The field's M-pair, the sides to recover and
T0, a bound on every conjugate of every divisor coefficient, are the
caller's: this module knows nothing of discriminants, forms or invariants.
Each recovery is checked against gamma; that every embedding of the
coefficient it assembles lies within T0 is the caller's check.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .approx import ApproxRun, run_approx
from .errors import InternalInvariantError, InvalidParameters, PrecisionEscalation
from .genusfield import GenusBasis, adjugate, embeddings

FLOAT_BITS_MARGIN = 64


@dataclass(frozen=True)
class RecoverySide:
    """What recovery on one side needs: the continued-fraction run (which
    holds the M-pair and the side), plus the part of every recovery that
    does not depend on gamma.  At the plan's working precision: ``norm``
    is the omega denominator, ``scales[eta]`` is M(Id)*Z*X_eta and
    ``values[xi]`` is beta_xi (beta*_xi on IMAG_PART).  ``det`` and ``adj``
    are the determinant and the integer adjugate of the recovery matrix."""

    run: ApproxRun
    norm: object
    scales: tuple
    values: tuple
    det: int
    adj: tuple


def _recovery_side(run, prec):
    mpair, side = run.mpair, run.side
    with mp.workprec(prec):
        mid = embeddings(mpair.mvals[0], prec)[0].real
        Z = +sum(a * embeddings(w, prec)[0].real for a, w in zip(run.A, run.omega_star))
        scales = tuple(mid * Z * embeddings(X, prec)[0].real for X in mpair.X_set)
        values = tuple(embeddings(e, prec)[0] for e in mpair.basis.family(side))
        norm = embeddings(mpair.norm(side), prec)[0]
    det, adj = adjugate(recovery_matrix(run))
    return RecoverySide(run, norm, scales, values, det, adj)


@dataclass(frozen=True)
class RecoveryPlan:
    """T0, N0, epsilon and the working precision, plus the recovery sides.

    ``sides`` holds a RecoverySide for each side the plan was asked for.
    """

    T0: object
    N0: int
    epsilon: object
    float_bits: int
    basis: GenusBasis
    sides: dict


def _side_threshold(mpair, side, T_eff, prec=160):
    """Required Z from the rounding analysis, with the conjugate factor.

    The quantity being bounded is tau_lam(sum b omega) * tau_lam(X_eta) =
    tau_lam(sum b beta)/tau_lam(beta_norm) * tau_lam(X_eta), so each term
    carries 1/|tau_lam(beta_norm)|: rows 1..m-1 of the embeddings of the
    norm and of each X_eta.  Only for m > 1; both callers skip it at m = 1.
    """
    basis = mpair.basis
    m = basis.m
    with mp.workprec(prec):
        delta_cap = mp.sqrt(abs(basis.d)) ** m
        mv = [abs(embeddings(v, prec)[0].real) for v in mpair.mvals]
        C = +sum(mv[1:])
        tn = embeddings(mpair.norm(side), prec)
        z_req = mp.mpf(0)
        for X in mpair.X_set:
            tx = embeddings(X, prec)
            s = mp.mpf(0)
            for lam in range(1, m):
                s += mv[lam] * abs(tx[lam]) / abs(tn[lam])
            z_req = max(z_req, (4 * s * delta_cap * T_eff) ** (m - 1))
        return +z_req, +C


def _side_epsilon(run, prec=160):
    """epsilon < (1/4) |beta_norm| / (|M(Id) X_eta| Z) over all eta."""
    mpair = run.mpair
    with mp.workprec(prec):
        Z = run.z_value()
        mid = abs(embeddings(mpair.mvals[0], prec)[0].real)
        norm = abs(embeddings(mpair.norm(run.side), prec)[0])
        best = mp.inf
        for X in mpair.X_set:
            xv = abs(embeddings(X, prec)[0])
            best = min(best, norm / (4 * mid * xv * Z))
        return +best


def make_plan(mpair, sides, T0):
    """The recovery plan over the field of ``mpair`` for each side in
    ``sides`` (REAL_PART, and IMAG_PART when coefficients can be non-real)
    at the conjugate bound T0: choose N0, run the approximation on each
    side, fix epsilon and the working precision.

    The field layer (basis, M-pair, tensors) depends only on the
    discriminant and is built once by the caller; an escalation that squares
    T0 hands the same M-pair to its next plan, so only the parts that
    depend on T0 are redone.
    """
    basis = mpair.basis
    with mp.workprec(160):
        T_eff = 2 * mp.mpf(T0)   # recovered sums are 2*Re z and 2i*Im z
        delta_cap = mp.sqrt(abs(basis.d)) ** basis.m
        N0 = 1
        if basis.m > 1:
            mid = abs(embeddings(mpair.mvals[0], 160)[0].real)
            head = 1 + mp.mpf(2) ** -40   # so re-verification can't miss by an ulp
            for side in sides:
                z_req, C = _side_threshold(mpair, side, T_eff)
                need = int(mp.floor(mid * z_req * head + C * delta_cap)) + 2
                N0 = max(N0, need)
    runs = {side: run_approx(mpair, side, N0=N0) for side in sides}
    eps = min(_side_epsilon(run) for run in runs.values())
    with mp.workprec(160):
        eps = +(eps / 2)
        float_bits = int(mp.ceil(mp.log(T_eff / eps, 2))) + FLOAT_BITS_MARGIN
    plan = RecoveryPlan(T0=T0, N0=N0, epsilon=eps, float_bits=float_bits, basis=basis,
                        sides={side: _recovery_side(run, float_bits + FLOAT_BITS_MARGIN)
                               for side, run in runs.items()})
    _check_plan(plan)
    return plan


def _check_plan(plan):
    """The two plan invariants, verified at construction."""
    with mp.workprec(192):
        T_eff = 2 * mp.mpf(plan.T0)
        for name, side in plan.sides.items():
            if plan.basis.m > 1:
                z_req, _ = _side_threshold(side.run.mpair, name, T_eff, 192)
                Z = side.run.z_value()
                if not Z > z_req:
                    raise InternalInvariantError(
                        f"accuracy threshold not reached on the {name} side")
            if not plan.epsilon < _side_epsilon(side.run, 192):
                raise InternalInvariantError(
                    f"epsilon too large on the {name} side")


def _solve_adjugate(det, adj, r):
    """b = adj r / det.  (adj r)_xi is det M with column xi replaced by r
    (Cramer's rule), so b is integral exactly when r is consistent."""
    b = []
    for row in adj:
        q, rem = divmod(sum(x * y for x, y in zip(row, r)), det)
        if rem:
            raise PrecisionEscalation(
                "recovered right-hand side is inconsistent; need more precision")
        b.append(q)
    return b


def recovery_matrix(run):
    """M_{eta,xi} = sum_mu A_mu x_{mu,xi,eta}, over the run side's tensor."""
    m = len(run.A)
    T = run.mpair.tensors[run.side]
    return [[sum(run.A[mu] * T[eta][xi][mu] for mu in range(m))
             for xi in range(m)] for eta in range(m)]


def recover_coords(gamma, plan, side):
    """Integer coordinates b with sum b_xi beta_xi ~ gamma (real side) or
    sum b'_xi beta*_xi ~ gamma (imaginary side).

    Raises PrecisionEscalation unless the recovered sum lies within
    plan.epsilon of gamma.  A wrong vector can pass that with a conjugate
    far above 2 T0: the caller checks T0 on the coefficient it assembles.
    """
    if side not in plan.sides:
        raise InvalidParameters(f"the plan has no {side!r} recovery side")
    rec = plan.sides[side]
    prec = plan.float_bits + FLOAT_BITS_MARGIN
    with mp.workprec(prec):
        ratio = mp.mpc(gamma) / rec.norm
        if abs(mp.im(ratio)) > (1 + abs(mp.re(ratio))) * mp.mpf(2) ** -32:
            raise PrecisionEscalation(
                f"approximate value is not {side} after normalization")
        ratio = mp.re(ratio)
        rhs = []
        for scale in rec.scales:
            v = scale * ratio
            r = int(mp.nint(v))
            if abs(v - r) >= 0.25:
                raise PrecisionEscalation(
                    f"rounding residual {mp.nstr(abs(v - r), 5)} at working "
                    f"precision {plan.float_bits}")
            rhs.append(r)
        b = _solve_adjugate(rec.det, rec.adj, rhs)
        # every rounding above can pass by chance when gamma is far from the
        # value of b; a correct recovery lands within epsilon of its approximation
        resid = abs(mp.fsum(c * v for c, v in zip(b, rec.values)) - mp.mpc(gamma))
        if not resid < plan.epsilon:
            raise PrecisionEscalation(
                f"recovered value is {mp.nstr(resid, 5)} from its approximation, "
                f"epsilon {mp.nstr(plan.epsilon, 5)}")
    return b
