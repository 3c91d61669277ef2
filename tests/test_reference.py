from altrace import arith
from reference import core_square_part, divisors_with_squarefree_cofactor, mobius_squared_transform, mu_star_mu


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
