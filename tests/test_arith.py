import math
import random
import time

import pytest
import sympy

from cmforge import arith
from hypothesis import given, settings, strategies as st

from cmforge.arith import (
    CurveOrderParams,
    Discriminant,
    admissible_params,
    cornacchia,
    factor_d,
    is_probable_prime,
    kronecker,
    search_fixed_D,
    split_discriminant,
    sqrt_mod_p,
    validate_params,
)
from cmforge.errors import InvalidParameters


# --- kronecker --------------------------------------------------------------

def test_kronecker_euler_criterion_oracle():
    # independent oracle: for odd prime p, (a/p) = a^((p-1)/2) mod p
    rng = random.Random(1)
    primes = [p for p in range(3, 500) if sympy.isprime(p)]
    for p in primes:
        for _ in range(8):
            a = rng.randrange(-3 * p, 3 * p)
            e = pow(a % p, (p - 1) // 2, p)
            want = 0 if a % p == 0 else (1 if e == 1 else -1)
            assert kronecker(a, p) == want, (a, p)


def test_kronecker_at_two():
    # (a/2): 0 for even a, +1 for a = 1,7 (mod 8), -1 for a = 3,5 (mod 8)
    table = {0: 0, 1: 1, 2: 0, 3: -1, 4: 0, 5: -1, 6: 0, 7: 1}
    for a in range(-40, 40):
        assert kronecker(a, 2) == table[a % 8]


def test_kronecker_negative_denominator():
    # the definition: (a/-1) = -1 for a < 0, else 1; (a/b) is multiplicative
    # in b, with (a/p) by Euler's criterion and (a/2) by a mod 8
    def oracle(a, b):
        out = -1 if a < 0 else 1
        for q, e in sympy.factorint(-b).items():
            if q == 2:
                s = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
            else:
                r = pow(a % q, (q - 1) // 2, q)
                s = -1 if r == q - 1 else r
            out *= s ** e
        return out

    for a in range(-40, 41):
        for b in range(-60, 0):
            assert kronecker(a, b) == oracle(a, b), (a, b)


def test_kronecker_hand_values():
    assert kronecker(-40, 41) == 1
    assert kronecker(-3, 13) == 1
    assert kronecker(5, 11) == 1
    assert kronecker(5, 13) == -1
    assert kronecker(1, 1) == 1
    assert kronecker(0, 1) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(-1, 0) == 1


@given(st.integers(-300, 300), st.integers(1, 60), st.integers(1, 60))
def test_kronecker_multiplicative_denominator(a, m, n):
    if a % 4 in (0, 1):
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


@given(st.integers(-300, 300).filter(lambda a: a != 0 and a % 4 in (0, 1)),
       st.integers(1, 500))
def test_kronecker_periodic(a, n):
    # for a = 0,1 (mod 4) the symbol is periodic in the denominator mod |a|
    assert kronecker(a, n) == kronecker(a, n + abs(a))


# --- primality --------------------------------------------------------------

def test_primality_against_sympy_small():
    for n in range(-5, 2000):
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_primality_against_sympy_random():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randrange(1 << 60, 1 << 64)
        assert is_probable_prime(n) == sympy.isprime(n), n
    # around a known large prime
    p = int(sympy.nextprime(1 << 89))
    for n in (p - 2, p - 1, p, p + 1, p + 2):
        assert is_probable_prime(n) == sympy.isprime(n), n


# Chernick: 6k+1, 12k+1 and 18k+1 are prime for k = 13700526, so their
# product is a Carmichael number, just above Miller-Rabin's deterministic bound
K = 13700526
CHERNICK = (6 * K + 1) * (12 * K + 1) * (18 * K + 1)


def test_primality_memo_proves_a_prime_once(monkeypatch):
    # the Baillie-PSW branch remembers its decisions: a second call on a
    # 128-bit prime runs no Miller-Rabin round, and no answer changes
    p = int(sympy.nextprime(1 << 127))
    assert CHERNICK == 3332857419635169667705129 > 3317044064679887385961981
    cases = [(p, True), ((1 << 127) - 1, True), ((1 << 255) - 19, True),
             (p * int(sympy.nextprime(1 << 64)), False), (CHERNICK, False)]
    rounds = []
    mr = arith._miller_rabin
    monkeypatch.setattr(arith, "_miller_rabin", lambda n, b: rounds.append(n) or mr(n, b))
    arith._baillie_psw.cache_clear()
    for n, want in cases:
        assert is_probable_prime(n) is want, n
        assert n in rounds
    rounds.clear()
    for n, want in cases:
        assert is_probable_prime(n) is want, n
    assert rounds == []


def test_baillie_psw_lucas_half_rejects_a_strong_base_2_pseudoprime():
    # the Carmichael number passes the strong base-2 round, so the Lucas
    # half is what rejects it
    assert arith._miller_rabin(CHERNICK, 2)
    assert not arith._strong_lucas(CHERNICK)
    assert not is_probable_prime(CHERNICK)


@pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
def test_strong_lucas_pseudoprimes_fail_base_2(n):
    # the first strong Lucas pseudoprimes for Selfridge's parameters: the
    # Lucas half alone passes them, and the base-2 round does not
    assert not sympy.isprime(n)
    assert arith._strong_lucas(n)
    assert not arith._miller_rabin(n, 2)


def test_strong_lucas_against_sympy():
    # primes pass, and the only composites that pass below 20000 are the
    # five strong Lucas pseudoprimes above
    passing = [n for n in range(3, 20000, 2) if arith._strong_lucas(n)]
    assert [n for n in passing if not sympy.isprime(n)] == [5459, 5777, 10877, 16109, 18971]
    assert len(passing) - 5 == sympy.primepi(20000) - 1


def test_baillie_psw_rejects_a_square():
    # a square has no D with (D/n) = -1: the Selfridge search would not end
    q = int(sympy.nextprime(1 << 127))
    assert not arith._strong_lucas(q * q)
    assert not is_probable_prime(q * q)


def test_primality_above_the_deterministic_bound_against_sympy():
    rng = random.Random(5)
    for bits in (82, 128, 256):
        for _ in range(100):
            n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            assert is_probable_prime(n) == sympy.isprime(n), n
        q = int(sympy.nextprime(rng.getrandbits(bits)))
        assert is_probable_prime(q)


# --- sqrt_mod_p -------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7, 13, 17, 41, 97, 193, 769, 12289, 786433])
def test_sqrt_mod_p(p):
    rng = random.Random(p)
    for _ in range(25):
        a = rng.randrange(p)
        r = sqrt_mod_p(a, p)
        if kronecker(a, p) == -1:
            assert r is None
        else:
            assert r is not None and r * r % p == a % p
            assert r <= p - r  # canonical smaller root


# v2(p - 1) = 1, 2, 3, 4, 5, 6, 8, 9 and 12
TONELLI_PRIMES = (7, 13, 41, 17, 97, 193, 257, 7681, 12289)


def test_sqrt_mod_p_every_a():
    # every a against the brute-force table; the calls of two primes are
    # interleaved, so that constants cached for one prime cannot answer for
    # the other
    table = {}
    for p in TONELLI_PRIMES:
        table[p] = [None] * p
        for x in range(p):
            table[p][x * x % p] = min(x, p - x)
    for pair in zip(TONELLI_PRIMES, TONELLI_PRIMES[1:]):
        for a in range(max(pair)):
            for p in pair:
                if a < p:
                    assert sqrt_mod_p(a, p) == table[p][a], (a, p)


# --- cornacchia -------------------------------------------------------------

def _brute_4p(D, p):
    # v-scan oracle: is 4p representable as u^2 + |D|v^2 with u,v > 0?
    for v in range(1, math.isqrt(4 * p // -D) + 1):
        t = 4 * p - (-D) * v * v
        if t <= 0:
            continue
        u = math.isqrt(t)
        if u * u == t and u > 0:
            return u, v
    return None


def test_cornacchia_known_value():
    assert cornacchia(-40, 41) == (2, 2)


def test_cornacchia_vs_brute_scan():
    discs = [-3, -4, -7, -8, -11, -15, -20, -40, -84, -120, -163, -420]
    rng = random.Random(3)
    primes = [sympy.prime(rng.randrange(4, 3000)) for _ in range(120)]
    for D in discs:
        for p in primes:
            if p <= 3:
                continue
            got = cornacchia(D, p)
            want = _brute_4p(D, p)
            if want is None:
                assert got is None, (D, p, got)
            else:
                assert got is not None, (D, p, want)
                u, v = got
                assert 4 * p == u * u + (-D) * v * v and u > 0 and v > 0


def test_cornacchia_vs_brute_scan_every_small_case():
    # when |D| divides 4p - u^2 at the end of the descent, the quotient is
    # always v^2: every (D, p) below, represented or not, agrees with the scan
    primes = [p for p in range(5, 400) if sympy.isprime(p)]
    for D in range(-3, -400, -1):
        if D % 4 not in (0, 1):
            continue
        for p in primes:
            got, want = cornacchia(D, p), _brute_4p(D, p)
            assert (got is None) == (want is None), (D, p, got)
            if got is not None:
                u, v = got
                assert 4 * p == u * u - D * v * v and u > 0 and v > 0, (D, p, got)


def test_cornacchia_rejects_bad_input():
    with pytest.raises(InvalidParameters):
        cornacchia(-40, 40)  # not prime
    with pytest.raises(InvalidParameters):
        cornacchia(-5, 41)  # -5 is not a discriminant
    with pytest.raises(InvalidParameters):
        cornacchia(-40, 3)


# --- discriminant factorization --------------------------------------------

def test_split_discriminant():
    assert split_discriminant(-40) == (-40, 1)
    assert split_discriminant(-12) == (-3, 2)
    assert split_discriminant(-16) == (-4, 2)
    assert split_discriminant(-27) == (-3, 3)
    assert split_discriminant(-72) == (-8, 3)
    assert split_discriminant(-147) == (-3, 7)


@given(st.integers(-40000, -3).filter(lambda D: D % 4 in (0, 1)))
def test_split_discriminant_properties(D):
    d, f = split_discriminant(D)
    assert f * f * d == D
    assert d % 4 in (0, 1)
    # d must itself be fundamental: odd part squarefree, even part in {-4,+-8}/odd
    fac = sympy.factorint(-d)
    if d % 4 == 1:
        assert all(e == 1 for e in fac.values())
    else:
        assert fac[2] in (2, 3)
        assert all(e == 1 for q, e in fac.items() if q != 2)


def test_factor_d_known_values():
    assert factor_d(-3) == (-3,)
    assert factor_d(-4) == (-4,)
    assert factor_d(-8) == (-8,)
    assert factor_d(-15) == (5, -3)
    assert factor_d(-40) == (5, -8)
    assert factor_d(-84) == (-3, -7, -4)
    assert factor_d(-120) == (8, 5, -3)  # +8 leads when present
    assert factor_d(-420) == (5, -3, -7, -4)


@given(st.integers(-40000, -3).filter(lambda D: D % 4 in (0, 1)))
def test_factor_d_properties(D):
    d, _ = split_discriminant(D)
    qs = factor_d(d)
    prod = 1
    for q in qs:
        assert q % 4 in (0, 1)  # each q* is itself a discriminant (or +8 = 0 mod 4)
        prod *= q
    assert prod == d
    # every q* is +-prime or one of the even three
    for q in qs:
        assert q in (-4, 8, -8) or sympy.isprime(abs(q))
    # ordering: positives first, -4/-8 last, +8 first
    pos = [q for q in qs if q > 0]
    assert qs[: len(pos)] == tuple(pos)
    if 8 in qs:
        assert qs[0] == 8
    for q in (-4, -8):
        if q in qs:
            assert qs[-1] == q


@pytest.mark.parametrize("n,want", [
    (10007 * 10009, {10007: 1, 10009: 1}),
    (10007 ** 2, {10007: 2}),
    (10007 ** 2 * 10009, {10007: 2, 10009: 1}),
    ((2 ** 31 - 1) * (2 ** 61 - 1), {2 ** 31 - 1: 1, 2 ** 61 - 1: 1}),
])
def test_factorize_past_trial_division(n, want):
    # every factor is above the trial bound of 10^4, so Pollard rho splits n
    assert arith._factorize(n) == want


def test_discriminant_with_large_prime_factors():
    disc = Discriminant.from_D(-100160063)        # -10007 * 10009
    assert disc.qstars == (10009, -10007) and disc.f == 1
    disc = Discriminant.from_D(-400640252)        # 4 * -100160063
    assert (disc.d, disc.f) == (-100160063, 2)


def test_factor_d_rejects_nonfundamental():
    with pytest.raises(InvalidParameters):
        factor_d(-12)


def test_discriminant_dataclass():
    disc = Discriminant.from_D(-420)
    assert (disc.t, disc.u, disc.m) == (4, 1, 8)
    assert disc.qstars == (5, -3, -7, -4)
    assert (disc.d, disc.f) == (-420, 1)
    disc2 = Discriminant.from_D(-48)
    assert (disc2.d, disc2.f) == (-3, 4)
    for bad in (5, 0, -6, -13):
        with pytest.raises(InvalidParameters):
            Discriminant.from_D(bad)


# --- searches ---------------------------------------------------------------

def test_search_fixed_D_predicate():
    # the predicate sees (p, order) and filters every candidate offered
    for D in (-40, -115):
        seen = []

        def negative_trace(p, o):
            seen.append((p, o))
            return o > p + 1

        got = search_fixed_D(D, negative_trace, p_bits=24, rng=random.Random(3))
        assert got is not None and got.u < 0
        assert (got.p, got.order) == seen[-1]
        assert all(o <= p + 1 for p, o in seen[:-1])
        validate_params(D, got.p, got.u, got.v)
    assert search_fixed_D(-40, lambda p, o: False, p_bits=16, budget=2000,
                          rng=random.Random(0)) is None


def test_search_fixed_D_random_mode():
    rng = random.Random(5)
    got = search_fixed_D(-40, None, p_bits=40, rng=rng)
    assert got is not None
    validate_params(-40, got.p, got.u, got.v)
    assert got.p.bit_length() == 40
    assert got.order == got.p + 1 - got.u


def test_search_fixed_D_210_branch_avoids_small_primes():
    # D = 5 (mod 8) activates the 210 walk; p and order coprime to 2*3*5*7
    for seed in range(6):
        got = search_fixed_D(-115, None, p_bits=44, rng=random.Random(seed))
        assert got is not None
        validate_params(-115, got.p, got.u, got.v)
        assert math.gcd(got.p, 210) == 1
        assert math.gcd(got.order, 210) == 1
        assert abs(got.u) % 210 in (1, 107)
        assert got.v % 210 == 105
    # at -19 and 16 bits, 19 * 105^2 / 4 = 52368.75 lies inside [2^15, 2^16):
    # a draw below it leaves no room for u and is redrawn (seeds 1-3 start so)
    for seed in range(6):
        got = search_fixed_D(-19, None, p_bits=16, rng=random.Random(seed))
        assert got is not None and got.v == 105 and got.p.bit_length() == 16
        validate_params(-19, got.p, got.u, got.v)


def test_search_fixed_D_never_offers_an_anomalous_order():
    # at -19 and 16 bits, u = 1 with v = 105 gives p = 52369, whose order
    # p + 1 - u = p is trace 1 (Smart's attack): it is never offered, with
    # or without a predicate, and the predicate never even sees it
    seen = []
    for seed in range(21):
        got = search_fixed_D(-19, None, p_bits=16, rng=random.Random(seed))
        assert got is not None and got.order != got.p
        got = search_fixed_D(-19, lambda p, o: seen.append((p, o)) or True, p_bits=16,
                             rng=random.Random(seed))
        assert got.order != got.p
    assert seen and all(o != p for p, o in seen)


def test_search_fixed_D_charges_redrawn_targets():
    # at -6233059 and 34 bits, 315 of the 2^33 targets leave room for u, so
    # nearly every draw of the 210 walk is redrawn: each one is charged to
    # the budget, so budget = 1 ends after one draw
    start = time.perf_counter()
    assert search_fixed_D(-6233059, lambda p, o: False, p_bits=34, budget=1) is None
    assert time.perf_counter() - start < 1

    class Counting(random.Random):
        draws = 0

        def randrange(self, *args):
            self.draws += 1
            return super().randrange(*args)

    # each draw is a v and a target: 50 draws at most at budget = 50
    rng = Counting(0)
    assert search_fixed_D(-6233059, lambda p, o: False, p_bits=34, budget=50, rng=rng) is None
    assert 0 < rng.draws <= 2 * 50


def test_search_fixed_D_budget_and_modes():
    # -40 takes the plain walk, -115 = 5 (mod 8) the 210 walk
    for D in (-40, -115):
        calls = []

        def reject(p, order):
            calls.append(p)
            return False

        rng = random.Random(0)
        state = rng.getstate()
        assert search_fixed_D(D, reject, p_bits=40, budget=0, rng=rng) is None
        assert calls == [] and rng.getstate() == state     # nothing drawn
        # the plain walk may overrun its budget by the 3 parity neighbours of
        # its last draw, and offers both signs of u
        assert search_fixed_D(D, reject, p_bits=40, budget=400,
                              rng=random.Random(0)) is None
        assert 0 < len(calls) <= 2 * (400 + 3)
    with pytest.raises(TypeError):
        search_fixed_D(-40)                  # p_bits is required
    with pytest.raises(InvalidParameters):
        search_fixed_D(-40, p_bits=7)
    with pytest.raises(InvalidParameters):
        search_fixed_D(-115, p_bits=16)      # v = 105 makes every p too big
    with pytest.raises(InvalidParameters, match="too large"):
        search_fixed_D(-4000, p_bits=8)      # 2p / |D| < 1 leaves no v


def test_admissible_params_fixed_p():
    # -40 is not represented at 13 (kronecker(-40,13) = -1); -3 is
    assert admissible_params(-40, 13) == []
    got = admissible_params(-3, 13)
    assert got and all(prm.p == 13 for prm in got)
    assert CurveOrderParams(13, 6, 2, 8) in admissible_params(-4, 13)
    with pytest.raises(InvalidParameters):
        admissible_params(-3, 12)


def test_validate_params():
    validate_params(-40, 41, 2, 2)
    validate_params(-40, 41, -2, 2)
    with pytest.raises(InvalidParameters):
        validate_params(-40, 41, 2, 1)
    with pytest.raises(InvalidParameters):
        validate_params(-40, 43, 2, 2)
    with pytest.raises(InvalidParameters):
        validate_params(-40, 4, 2, 2)
    # 13 ramifies at -52: 4 * 13 = 0^2 + 52 * 1^2 has 13 | u
    with pytest.raises(InvalidParameters, match="degenerate parameters"):
        validate_params(-52, 13, 0, 1)
