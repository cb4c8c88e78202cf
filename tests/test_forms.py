import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from cmforge.arith import Discriminant, kronecker, split_discriminant
from cmforge.errors import InvalidParameters
from cmforge.forms import (
    NSystem,
    QuadForm,
    enumerate_reduced,
    make_coprime,
    n_system,
    phi_class,
    reduce_form,
    root_of_form,
)


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


# --- N-systems --------------------------------------------------------------

def test_n_system_unchanged_example():
    sys = n_system(-40, 3)
    assert sys.forms == (QuadForm(1, 0, 10), QuadForm(2, 0, 5))


@pytest.mark.parametrize("D,N,b", [(-40, 16, None), (-40, 48, 0), (-40, 35, 10),
                                   (-84, 16, 0), (-120, 5, None), (-420, 16, 0),
                                   (-420, 35, None)])
def test_n_system_invariants(D, N, b):
    sys = n_system(D, N, b)
    reps = enumerate_reduced(D)
    assert len(sys.forms) == len(reps)
    for g in sys.forms:
        assert math.gcd(g.A, N) == 1
        assert g.disc == D
        assert (g.B - sys.b) % (2 * N) == 0
    assert sorted((reduce_form(g) for g in sys.forms), key=lambda q: (q.A, q.B)) == reps


def test_n_system_forces_NC_when_b_squares_to_D():
    # with b^2 = D (mod 4N) every member has N | C (needed by the double eta quotient)
    for (D, N, b) in [(-40, 35, 10), (-120, 143, 32)]:
        assert (b * b - D) % (4 * N) == 0
        sys = n_system(D, N, b)
        for g in sys.forms:
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
