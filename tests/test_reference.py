from altrace import arith, signs, twist
from reference import (
    core_square_part,
    divisors_with_squarefree_cofactor,
    kronecker,
    mobius_squared_transform,
    mu_star_mu,
    omega1,
    omega2,
)


def test_mu_star_mu_prime_powers():
    assert [mu_star_mu(2**e) for e in range(5)] == [1, -2, 1, 0, 0]
    assert mu_star_mu(6) == 4
    # Dirichlet inverse of sigma0: (mu*mu) * sigma0 = e
    for n in range(2, 200):
        total = sum(mu_star_mu(d) * len(arith.divisors(n // d)) for d in arith.divisors(n))
        assert total == 0, n


def test_core_square_part():
    assert core_square_part(720) == 12  # 720 = 12^2 * 5


def test_divisors_with_squarefree_cofactor():
    m = 360  # 2^3 3^2 5
    ds = divisors_with_squarefree_cofactor(m)
    assert len(ds) == 2 ** len(arith.factor(m))
    assert all(m % d == 0 and arith.is_squarefree(m // d) for d in ds)
    # and no other divisor qualifies
    assert set(ds) == {d for d in arith.divisors(m) if arith.is_squarefree(m // d)}


def test_mobius_squared_transform_inverts_sigma0_convolution():
    f = arith.sigma
    for m in range(1, 80):
        g = lambda t: sum(len(arith.divisors(d)) * f(t // d) for d in arith.divisors(t))
        assert mobius_squared_transform(g, m) == f(m)


def test_omega_variants():
    m = 2**2 * 3 * 5**2 * 7
    assert len(arith.factor(m)) == 4
    assert omega1(m) == 2  # 3 and 7
    # p^2 || m for p in {2, 5}; (n|p) = 1 picks out squares mod p
    assert omega2(1, m) == 2
    assert omega2(3, m) == 0  # (3|2) = -1 and (3|5) = -1


def test_kappa_minus_sign_is_the_omega_parity():
    # the predicate's split-prime zero and sign are kappa_-(-q^r, M') (at
    # even r kappa_-(-1, M')): 0 exactly when M' is not cubefree or a p || M'
    # splits, and otherwise (-1)^(omega_1 + omega_2)
    for q, r in arith.prime_powers_up_to(200):
        arg = -(q**r) if r % 2 else -1
        for mp in range(1, 501, 2):
            if mp % q == 0:
                continue
            fac = arith.factor(mp)
            zero = any(e > 2 for _, e in fac) or any(e == 1 and kronecker(arg, p) == 1 for p, e in fac)
            kappa = signs.kappa_minus(arg, mp)
            if zero:
                assert kappa == 0, (q, r, mp)
            else:
                assert kappa * (-1) ** (omega1(mp) + omega2(arg, mp)) > 0, (q, r, mp, kappa)


def test_kronecker_equals_the_reciprocity_twin():
    # arith.kronecker multiplies Legendre symbols over factor(n); the twin
    # never factors, so an even exponent's zero at p | a shows here
    for n in range(1, 601):
        for a in range(-200, 201):
            assert arith.kronecker(a, n) == kronecker(a, n), (a, n)
    chars = [twist.CHI_MINUS1, twist.CHI_TWO, twist.CHI_MINUS2]
    chars += [twist.chi_odd(p) for p in arith.primes_up_to(59) if p > 2]
    for chi in chars:
        assert [chi(n) for n in range(1, 2001)] == [kronecker(chi.top, n) for n in range(1, 2001)], chi.label
