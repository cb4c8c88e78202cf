import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from cmforge import forms as forms_module
from cmforge.arith import Discriminant, kronecker, split_discriminant
from cmforge.errors import InternalInvariantError, InvalidParameters
from cmforge.forms import (
    QuadForm,
    class_group,
    compose,
    enumerate_reduced,
    genus_mask,
    make_coprime,
    n_system,
    phi_class,
    reduce_form,
    root_of_form,
)
from cmforge.modfns import InvariantKind, theta_value
from test_golden import DIVISORS, FULL


def dirichlet_class_number(d):
    # independent oracle: finite character-sum form of the class number formula
    w = 6 if d == -3 else 4 if d == -4 else 2
    s = sum(kronecker(d, a) * a for a in range(1, -d))
    h = Fraction(w * abs(s), 2 * (-d) * 1)
    assert h.denominator == 1
    return int(h)


def class_number_oracle(D):
    d, f = split_discriminant(D)
    h = Fraction(dirichlet_class_number(d))
    if f > 1:
        unit_index = 3 if d == -3 else 2 if d == -4 else 1
        h = h * f / unit_index
        for l in sorted(set(_prime_factors(f))):
            h *= Fraction(l - kronecker(d, l), l)
    assert h.denominator == 1
    return int(h)


def enumerate_reference(D):
    """Every primitive reduced form, by trying each (A, B) with |B| <= A: the
    O(|D|) loop ``enumerate_reduced`` replaced, kept as its reference."""
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


def phi_reference(f, disc):
    """The genus characters at an equivalent form whose A is coprime to D
    (``make_coprime``): the ``phi_class`` that the coprime values A, C,
    A + B + C replaced, kept as its reference."""
    g = make_coprime(f, -disc.D)
    chi = tuple(kronecker(q, g.A) for q in disc.qstars)
    assert 0 not in chi and math.prod(chi) == 1
    return chi


def make_coprime_reference(f, N):
    """The prime walk that ``make_coprime``'s smallest-value search replaced,
    kept as its reference: for each prime l | N in ascending order, with N0
    the product of the primes done, f by [[1, 0], [N0, 1]] when l | A but
    not l | f(1, N0), else by [[l, b], [N0, a]], al - bN0 = 1."""
    g, N0 = f, 1
    for l in sorted(set(_prime_factors(N))):
        if g.A % l == 0:
            if (g.A + N0 * g.B + N0 * N0 * g.C) % l != 0:
                g = g.transform(1, 0, N0, 1)
            else:
                a = pow(l, -1, N0) if N0 > 1 else 1
                g = g.transform(l, (a * l - 1) // N0, N0, a)
        N0 *= l
    assert math.gcd(g.A, N) == 1 and reduce_form(g) == reduce_form(f)
    return g


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# --- reduction and enumeration ----------------------------------------------

def test_known_class_groups():
    assert enumerate_reduced(-40) == [QuadForm(1, 0, 10), QuadForm(2, 0, 5)]
    assert enumerate_reduced(-3) == [QuadForm(1, 1, 1)]
    assert enumerate_reduced(-4) == [QuadForm(1, 0, 1)]
    assert len(enumerate_reduced(-163)) == 1
    assert len(enumerate_reduced(-23)) == 3
    assert len(enumerate_reduced(-47)) == 5
    assert len(enumerate_reduced(-420)) == 8


@pytest.mark.parametrize("D", [-3, -4, -7, -8, -11, -12, -15, -16, -20, -27,
                               -40, -48, -56, -72, -84, -120, -163, -231, -420, -999])
def test_class_number_dirichlet_oracle(D):
    if D % 4 in (0, 1):
        assert len(enumerate_reduced(D)) == class_number_oracle(D), D


def rand_unimodular(rng, size=6):
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randrange(1, 6)):
        k = rng.randrange(-size, size + 1)
        if rng.random() < 0.5:
            m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
        else:
            m = [m[1], [-m[0][0], -m[0][1]]]
    return m


@given(st.integers(-2000, -3).filter(lambda D: D % 4 in (0, 1)), st.integers(0, 10**6))
@settings(max_examples=120)
def test_reduce_form_roundtrip(D, seed):
    forms = enumerate_reduced(D)
    rng = random.Random(seed)
    f = forms[rng.randrange(len(forms))]
    m = rand_unimodular(rng)
    g = f.transform(m[0][0], m[0][1], m[1][0], m[1][1])
    assert g.disc == D
    assert reduce_form(g) == f


def test_form_rejections():
    with pytest.raises(InvalidParameters):
        QuadForm(1, 3, 1)                # discriminant 5: not positive definite
    assert not QuadForm(2, 3, 5).is_reduced()   # |B| > A
    with pytest.raises(InvalidParameters):
        enumerate_reduced(-5)            # -5 = 3 (mod 4) is no discriminant
    with pytest.raises(InvalidParameters):
        make_coprime(QuadForm(1, 0, 10), 0)
    with pytest.raises(InvalidParameters):
        make_coprime(QuadForm(2, 2, 6), 2)   # not primitive: every value is even


def test_reduced_forms_really_reduced():
    for D in (-40, -84, -120, -420, -1000000 + 1 - 3):
        if D % 4 not in (0, 1):
            continue
        for f in enumerate_reduced(D):
            assert f.is_reduced()
            assert abs(f.B) <= f.A <= f.C
            assert f.A <= math.isqrt(-D // 3)


# --- make_coprime -----------------------------------------------------------

@pytest.mark.parametrize("D,N", [(-40, 16), (-40, 48), (-40, 35), (-84, 16),
                                 (-120, 143), (-420, 3), (-420, 16), (-23, 23)])
def test_make_coprime(D, N):
    for f in enumerate_reduced(D):
        g = make_coprime(f, N)
        assert math.gcd(g.A, N) == 1
        assert g.disc == D
        assert reduce_form(g) == f  # same class


@given(st.integers(-3000, -3).filter(lambda D: D % 4 in (0, 1)), st.integers(2, 200))
@settings(max_examples=150)
def test_make_coprime_property(D, N):
    for f in enumerate_reduced(D)[:3]:
        g = make_coprime(f, N)
        assert math.gcd(g.A, N) == 1 and reduce_form(g) == f


def test_make_coprime_keeps_a_coprime_form():
    # N = 1 (every j N-system) and gcd(A, N) = 1 leave the form as it is
    for f in enumerate_reduced(-2519):
        assert make_coprime(f, 1) is f
        if f.A % 3:
            assert make_coprime(f, 3) is f


@given(st.integers(-3000, -3).filter(lambda D: D % 4 in (0, 1)),
       st.sampled_from([3, 6, 16, 30, 35, 48, 143, 210]))
@settings(max_examples=150)
def test_make_coprime_commutes_with_the_mirror(D, N):
    # for B != 0, (A, -B, C) gets the mirror of f's form up to a
    # translation; A is never larger than the prime walk's
    for f in enumerate_reduced(D):
        g = make_coprime(f, N)
        assert g.A <= make_coprime_reference(f, N).A, f
        if f.B:
            h = make_coprime(QuadForm(f.A, -f.B, f.C), N)
            assert h.A == g.A and (h.B + g.B) % (2 * g.A) == 0, f


# every golden (D, invariant) whose N-system has N > 1
GOLDEN_N = sorted({(D, inv) for D, inv, _ in DIVISORS + FULL if inv != "j"})


@pytest.mark.parametrize("D,invariant", GOLDEN_N, ids=[f"{D}-{inv}" for D, inv in GOLDEN_N])
def test_theta_agrees_at_the_prime_walks_n_system(D, invariant, monkeypatch):
    # theta is a class invariant on N-system forms with one b, so its values
    # at the prime walk's representatives and at make_coprime's agree within
    # theta_value's contract, 2^-prec (1 + |theta|) each
    kind = InvariantKind.parse(invariant)
    d = Discriminant.from_D(D)
    args = (D, kind.modulus(d), kind.b_target(d))
    new = n_system(*args)
    monkeypatch.setattr(forms_module, "make_coprime", make_coprime_reference)
    old = n_system.__wrapped__(*args)
    for f, g in zip(old, new):
        a, b = theta_value(kind, f, 64), theta_value(kind, g, 64)
        with mp.workprec(128):
            assert abs(a - b) <= mp.mpf(2) ** -63 * (1 + abs(a)), (f, g)


# gamma2, Weber and double eta at every pair of primes up to 13
MIRROR_KINDS = [InvariantKind("gamma2"), InvariantKind("weber")] + [
    InvariantKind.double_eta(p, q) for p in (2, 3, 5, 7, 11, 13)
    for q in (2, 3, 5, 7, 11, 13) if p <= q]


def test_mirror_closed_n_systems_keep_every_mirror_pair():
    # an N-system closed under (A, B, C) -> (A, -B, C) holds the mirror of
    # each of its forms with B != 0 outside an ambiguous class, so theta is
    # evaluated once per pair
    closed = 0
    for D in range(-3, -2000, -1):
        if D % 4 not in (0, 1):
            continue
        d = Discriminant.from_D(D)
        for kind in MIRROR_KINDS:
            try:
                kind.validate_for(d)
                b = kind.b_target(d)
            except InvalidParameters:
                continue
            if not kind.conjugation_closed(d):
                continue
            closed += 1
            fs = n_system(D, kind.modulus(d), b)
            present = set(fs)
            for f in fs:
                mirror = QuadForm(f.A, -f.B, f.C)
                if f.B and reduce_form(mirror) != reduce_form(f):
                    assert mirror in present, (D, str(kind), f)
    assert closed > 1000


# --- N-systems --------------------------------------------------------------

def test_n_system_unchanged_example():
    forms = n_system(-40, 3)
    assert forms == (QuadForm(1, 0, 10), QuadForm(2, 0, 5))


@pytest.mark.parametrize("D,N,b", [(-40, 16, None), (-40, 48, 0), (-40, 35, 10),
                                   (-84, 16, 0), (-120, 5, None), (-420, 16, 0),
                                   (-420, 35, None)])
def test_n_system_invariants(D, N, b):
    forms = n_system(D, N, b)
    reps = enumerate_reduced(D)
    assert len(forms) == len(reps)
    b = forms[0].B if b is None else b
    for g in forms:
        assert math.gcd(g.A, N) == 1
        assert g.disc == D
        assert (g.B - b) % (2 * N) == 0
    assert sorted((reduce_form(g) for g in forms), key=lambda q: (q.A, q.B)) == reps


def test_n_system_forces_NC_when_b_squares_to_D():
    # with b^2 = D (mod 4N) every member has N | C (needed by the double eta quotient)
    for (D, N, b) in [(-40, 35, 10), (-120, 143, 32)]:
        assert (b * b - D) % (4 * N) == 0
        for g in n_system(D, N, b):
            assert g.C % N == 0, g


def test_n_system_bad_parity():
    with pytest.raises(InvalidParameters):
        n_system(-40, 5, 1)  # D even needs even b


# --- roots ------------------------------------------------------------------

def test_root_of_form():
    with mp.workprec(80):
        tau = root_of_form(QuadForm(2, 0, 5))
        assert abs(tau - mp.mpc(0, 1) * mp.sqrt(10) / 2) < mp.mpf(2) ** -70
        f = QuadForm(7, -32, 38)
        tau = root_of_form(f)
        # tau satisfies A tau^2 + B tau + C = 0 and lies in the upper half plane
        assert abs(f.A * tau ** 2 + f.B * tau + f.C) < mp.mpf(2) ** -60
        assert tau.imag > 0


# --- genus characters -------------------------------------------------------

def test_phi_class_constant_on_classes():
    rng = random.Random(11)
    for D in (-40, -84, -120, -420):
        disc = Discriminant.from_D(D)
        for f in enumerate_reduced(D):
            ref = phi_class(f, disc)
            for _ in range(5):
                m = rand_unimodular(rng)
                g = f.transform(m[0][0], m[0][1], m[1][0], m[1][1])
                assert phi_class(g, disc) == ref


def test_phi_class_group_structure():
    # image has size 2^(t-1); each fibre has h / 2^(t-1) classes;
    # principal class maps to all ones
    for D in (-40, -84, -120, -420, -231):
        disc = Discriminant.from_D(D)
        forms = enumerate_reduced(D)
        labels = [phi_class(f, disc) for f in forms]
        principal = [f for f in forms if f.A == 1]
        assert phi_class(principal[0], disc) == (1,) * disc.t
        distinct = set(labels)
        assert len(distinct) == disc.m
        for lab in distinct:
            assert labels.count(lab) == len(forms) // disc.m


# --- composition and the power subgroups of Cl^2 ---------------------------

@pytest.mark.parametrize("D", [-3, -4, -23, -40, -420, -1239, -2519, -5460])
def test_compose_is_the_class_group_law(D):
    # the principal form is the identity, the mirror (A, -B, C) the inverse,
    # and the law is commutative and associative on reduced forms; genus
    # characters are homomorphisms, and an unreduced argument gives the
    # class of its reduced form
    disc = Discriminant.from_D(D)
    reps = enumerate_reduced(D)
    one = reps[0]
    rng = random.Random(D)
    for f in reps:
        assert compose(f, one) == f == compose(one, f)
        assert compose(f, QuadForm(f.A, -f.B, f.C)) == one
        g = rng.choice(reps)
        fg = compose(f, g)
        assert fg in reps and fg == compose(g, f)
        assert phi_class(fg, disc) == tuple(
            a * b for a, b in zip(phi_class(f, disc), phi_class(g, disc)))
        h = rng.choice(reps)
        assert compose(fg, h) == compose(f, compose(g, h))
        m = rand_unimodular(rng)
        assert compose(f.transform(m[0][0], m[0][1], m[1][0], m[1][1]), g) == fg


@pytest.mark.parametrize("D,k,H", [(-47, 1, 5), (-2519, 4, 8), (-9911, 2, 17),
                                   (-8399, 1, 67), (-46151, 4, 19), (-420, 1, 1)])
def test_power_cosets_splits_the_principal_genus(D, k, H):
    # Cl^2 is cyclic at each D here, so H is the subgroup of index k and
    # max(k, |H|) is as small as a divisor of n allows (a tie goes to the
    # smaller k); every class gets a label, each coset holds |H| classes
    # within one genus, and H itself is the coset of the principal form
    group = class_group(D)
    disc, reps = group.disc, list(group.forms)
    square = [f for f, mu in zip(reps, group.masks) if mu == 0]
    assert square == [f for f in reps if phi_class(f, disc) == (1,) * disc.t]
    got_k, cosets = group.split
    assert (got_k, len(square) // got_k) == (k, H)
    assert len(cosets) == len(reps)
    coset = dict(zip(reps, cosets))
    for label in set(cosets):
        members = [f for f in reps if coset[f] == label]
        assert len(members) == H
        assert len({phi_class(f, disc) for f in members}) == 1
    assert sum(coset[f] == coset[reps[0]] for f in square) == H


# --- the class group ---------------------------------------------------------

def test_class_group_matches_the_references():
    # the enumeration and the genus masks agree with the O(|D|) loop and
    # with the characters at a representative with A coprime to D, on
    # every discriminant from -3 to -5000 (non-fundamental ones included,
    # and even ones, where q* = -4, 8 and -8 all occur) and at -4000124
    # (h = 928)
    even = set()
    for D in [*range(-3, -5001, -1), -4000124]:
        if D % 4 not in (0, 1):
            continue
        disc = Discriminant.from_D(D)
        reps = enumerate_reference(D)
        group = class_group(D)
        assert enumerate_reduced(D) == reps and group.forms == tuple(reps), D
        assert group.masks == tuple(genus_mask(phi_reference(f, disc)) for f in reps), D
        even.update(q for q in disc.qstars if q % 2 == 0)
    assert even == {-4, 8, -8}


# (D, invariant, k, digests).  For j, one sha256 of [k, [[A, B, C, mask,
# coset] per N-system form]], the values of the enumeration, characters and
# cosets the group replaced.  For Weber, whose N-system rows moved when
# make_coprime's prime walk gave way to the smallest coprime value: the
# sha256 of [k, [[mask, coset] per class]], unchanged since the group came
# in, and that of [[A, B, C] per N-system form]
PINNED = [
    (-2519, "j", 4, ("e84575bc662d9e01bf8ae0c16671ce888b68168e1bc2d1f160096f434bcbd710",)),
    (-9911, "j", 2, ("333371a879d28201ab45fc0332b2e1a2a1f3affa321c61e61c5fdb3d68c14f53",)),
    (-46151, "j", 4, ("57895a67151f32cde34f6a4647c9f209d96262de020e4316eec40cf4faed28ff",)),
    (-92039, "j", 15, ("c29e1fef8c8eb0de66f17367223bbc69d6c07863c3f28d55ce4f239e649fb0a7",)),
    (-4000124, "weber", 16,
     ("a5c4918a092f45f1aa60b2c0ef42e89f3c4f8cba0ecb175a58adc3cf50a85d62",
      "ff2dfeaa26d8f8fd9fee96a1c41f39a077f28f2a6177956927e4bee1c9b1be58")),
    (-40000316, "weber", 29,
     ("27a77714ffcec4c51b370211273959dd84dff4794d92f5ff47989a743f3960e1",
      "bc3ebe02ed686c0a36d996c3a3a13576fbaef9a618cb881d3f4449f1f5a075fb")),
]


def sha256_json(x):
    return hashlib.sha256(json.dumps(x, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("D,invariant,k,want", PINNED,
                         ids=[f"{D}-{inv}" for D, inv, _, _ in PINNED])
def test_class_group_data_is_pinned(D, invariant, k, want):
    kind = InvariantKind.parse(invariant)
    d = Discriminant.from_D(D)
    fs = n_system(D, kind.modulus(d), kind.b_target(d))
    group = class_group(D)
    got_k, cosets = group.split
    assert got_k == k
    if len(want) == 1:
        rows = [[g.A, g.B, g.C, mu, c] for g, mu, c in zip(fs, group.masks, cosets)]
        assert sha256_json([got_k, rows]) == want[0]
    else:
        assert sha256_json([got_k, [[mu, c] for mu, c in zip(group.masks, cosets)]]) == want[0]
        assert sha256_json([[g.A, g.B, g.C] for g in fs]) == want[1]


def test_class_group_checks_raise(monkeypatch):
    # the checks raise, so they hold under python -O: one constant label
    # puts every class of -2519 (t = 2) in one genus, and a composition that
    # returns its first argument labels the classes in cosets of unequal size
    class_group.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(forms_module, "phi_class", lambda f, disc: (1,) * disc.t)
            with pytest.raises(InternalInvariantError, match="genus masks"):
                class_group(-2519)
        with monkeypatch.context() as m:
            m.setattr(forms_module, "compose", lambda f, g: f)
            with pytest.raises(InternalInvariantError, match="H-cosets"):
                class_group(-2519).split
    finally:
        class_group.cache_clear()
