import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from altrace import arith, signs, trace, twist


def test_factor_roundtrip_small():
    for n in range(1, 2000):
        fac = arith.factor(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(arith.is_prime(p) for p, _ in fac)


def test_factor_beyond_sieve_limit():
    # 10_000_019 is prime: a prime cofactor above 10^7 is kept whole
    n = 10_000_019 * 3
    assert arith.factor(n) == ((3, 1), (10_000_019, 1))


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    fac, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            fac.append((d, e))
        d += 1
    if n > 1:
        fac.append((n, 1))
    return tuple(fac)


@given(st.integers(min_value=1, max_value=2**17) | st.integers(min_value=1, max_value=10**9))
# p^2, primes next to 2^16 and 2^31, a large prime times 3, and products of
# two primes above 10^4 (the 6j +- 1 wheel must reach both factors)
@example(443**2)
@example(65521**2)
@example(2**31 - 1)
@example(3 * 10_000_019)
@example(65535)
@example(65536)
@example(65537)
@example(10007 * 10009)
@example(30011 * 30013)
@example(31607 * 31627)
def test_factor_matches_trial_division(n):
    assert arith.factor(n) == _trial_division(n), n


def test_kronecker_against_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-30, 30):
            expect = 0 if a % p == 0 else (1 if pow(a % p, (p - 1) // 2, p) == 1 else p - 1)
            expect = -1 if expect == p - 1 else expect
            assert arith.kronecker(a, p) == expect, (a, p)


def test_kronecker_at_two_and_units():
    # (a|2) is the 8-periodic second supplement
    table = {1: 1, 3: -1, 5: -1, 7: 1}
    for a in range(-40, 40):
        if a % 2 == 0:
            assert arith.kronecker(a, 2) == 0
        else:
            assert arith.kronecker(a, 2) == table[a % 8]
    assert arith.kronecker(5, 1) == 1
    assert arith.kronecker(0, 1) == 1


@given(st.integers(min_value=-300, max_value=300), st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_kronecker_multiplicative_in_lower(a, n1, n2):
    assert arith.kronecker(a, n1 * n2) == arith.kronecker(a, n1) * arith.kronecker(a, n2)


def test_primes_up_to_matches_is_prime():
    ps = arith.primes_up_to(500)
    assert ps[:6] == [2, 3, 5, 7, 11, 13]
    assert set(ps) == {n for n in range(2, 501) if arith.is_prime(n)}


@given(st.integers(min_value=1, max_value=4000))
def test_phi_divisor_sum(n):
    assert sum(arith.euler_phi(d) for d in arith.divisors(n)) == n


@given(st.integers(min_value=2, max_value=4000))
def test_mobius_divisor_sum(n):
    assert sum(arith.mobius(d) for d in arith.divisors(n)) == 0


def test_mu_star_mu_prime_powers():
    assert [arith.mu_star_mu(2**e) for e in range(5)] == [1, -2, 1, 0, 0]
    assert arith.mu_star_mu(6) == 4
    # Dirichlet inverse of sigma0: (mu*mu) * sigma0 = e
    for n in range(2, 200):
        total = sum(arith.mu_star_mu(d) * len(arith.divisors(n // d)) for d in arith.divisors(n))
        assert total == 0, n


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
def test_sigma_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert arith.sigma(a * b) == arith.sigma(a) * arith.sigma(b)


def test_squarefree_and_core():
    assert [n for n in range(1, 31) if not arith.is_squarefree(n)] == [4, 8, 9, 12, 16, 18, 20, 24, 25, 27, 28]
    assert arith.core_square_part(720) == 12  # 720 = 12^2 * 5


def test_omega_variants():
    m = 2**2 * 3 * 5**2 * 7
    assert len(arith.factor(m)) == 4
    assert arith.omega1(m) == 2  # 3 and 7
    # p^2 || m for p in {2, 5}; (n|p) = 1 picks out squares mod p
    assert arith.omega2(1, m) == 2
    assert arith.omega2(3, m) == 0  # 3 is a non-residue mod both 2's... (3|2)=-1, (3|5)=-1


def test_divisors_with_squarefree_cofactor():
    m = 360  # 2^3 3^2 5
    ds = arith.divisors_with_squarefree_cofactor(m)
    assert len(ds) == 2 ** len(arith.factor(m))
    assert all(m % d == 0 and arith.is_squarefree(m // d) for d in ds)
    # and no other divisor qualifies
    assert set(ds) == {d for d in arith.divisors(m) if arith.is_squarefree(m // d)}


def test_mobius_squared_transform_inverts_sigma0_convolution():
    f = arith.euler_phi
    for m in range(1, 80):
        g = lambda t: sum(len(arith.divisors(d)) * f(t // d) for d in arith.divisors(t))
        assert arith.mobius_squared_transform(g, m) == f(m)


def test_prime_powers_up_to_matches_brute_force():
    for bound in range(301):
        expect = [
            (q, r)
            for q in range(2, bound + 1)
            if all(q % d for d in range(2, q))
            for r in range(1, bound.bit_length())
            if q**r <= bound
        ]
        assert arith.prime_powers_up_to(bound) == expect, bound
    assert arith.prime_powers_up_to(1) == []


# Every function that takes a level, as (k, M) -> its value at q = 13 (r = 1
# unless the function fixes r), and the bad inputs they all share.
LEVEL_FUNCTIONS = {
    "t_full": lambda k, m: trace.t_full(k, 13, 1, m, 2),
    "t_new": lambda k, m: trace.t_new(k, 13, 3, m, 2),
    "t_new_squarefree": lambda k, m: trace.t_new_squarefree(k, 13, m, 2),
    "t_full_fricke": lambda k, m: trace.t_full_fricke(k, 13, 2),
    "delta": lambda k, m: signs.delta(k, 13, 1, m),
    "delta_r2_asymptotics": lambda k, m: signs.delta_r2_asymptotics(k, 13, m),
    "eigenspace_dims": lambda k, m: signs.eigenspace_dims(k, 13, 1, m),
    "quadtwist_characters": lambda k, m: twist.quadtwist_characters(k, 13, 1, m),
    "correlation_checks": lambda k, m: signs.correlation_checks(k, 13, m, 2),
    "dim_new": lambda k, m: signs.dim_new(k, m),
}
SHARED_BAD_INPUTS = {
    "odd-weight": (3, 1, "weight must be an even integer >= 2"),
    "weight-0": (0, 1, "weight must be an even integer >= 2"),
    "M-0": (4, 0, "level cofactor and Hecke index must be positive"),
    "M-shares-q": (4, 13, "cofactor M must be coprime to q"),
}
# t_full_fricke has no cofactor, and dim_new no modulus for M to share a prime with
NOT_APPLICABLE = {("t_full_fricke", "M-0"), ("t_full_fricke", "M-shares-q"), ("dim_new", "M-shares-q")}


@pytest.mark.parametrize(
    "name, case",
    [(name, case) for name in LEVEL_FUNCTIONS for case in SHARED_BAD_INPUTS if (name, case) not in NOT_APPLICABLE],
)
def test_every_level_function_checks_one_rule(name, case):
    k, m, message = SHARED_BAD_INPUTS[case]
    LEVEL_FUNCTIONS[name](4, 1)  # the good level the case perturbs
    with pytest.raises(ValueError, match=message):
        LEVEL_FUNCTIONS[name](k, m)
