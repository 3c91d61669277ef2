import math

import pytest

from altrace import signs, trace, twist
from altrace.arith import is_prime
from reference import kronecker


def test_local_type_classification():
    assert twist.classify_local_types(5, 1) == (twist.UTS,)
    assert twist.classify_local_types(5, 2) == (twist.RPS, twist.RTS, twist.USC)
    assert twist.classify_local_types(5, 3) == (twist.RSC,)
    assert twist.classify_local_types(5, 4) == (twist.RPS, twist.USC)
    # the 2-adic exceptional supercuspidals appear exactly at 2^3, 2^4, 2^6, 2^7
    assert twist.EXC in twist.classify_local_types(2, 3)
    assert twist.EXC in twist.classify_local_types(2, 4)
    assert twist.EXC not in twist.classify_local_types(2, 5)
    assert twist.EXC in twist.classify_local_types(2, 6)
    assert twist.EXC in twist.classify_local_types(2, 7)
    assert twist.EXC not in twist.classify_local_types(2, 8)
    assert twist.EXC not in twist.classify_local_types(3, 3)
    with pytest.raises(ValueError):
        twist.classify_local_types(4, 1)


def test_characters_evaluate_by_kronecker():
    chi5 = twist.chi_odd(5)
    assert chi5.conductor == 5
    assert [chi5(n) for n in (1, 2, 3, 4, 5, 6)] == [1, -1, -1, 1, 0, 1]
    chi7 = twist.chi_odd(7)
    assert chi7.conductor == 7
    assert chi7(3) == kronecker(-7, 3)
    chim1 = twist.CHI_MINUS1
    assert chim1.conductor == 4
    assert [chim1(n) for n in (1, 3, 5, 7)] == [1, -1, 1, -1]
    chi2 = twist.CHI_TWO
    assert [chi2(n) for n in (1, 3, 5, 7)] == [1, -1, -1, 1]
    chim2 = twist.CHI_MINUS2
    assert [chim2(n) for n in (1, 3, 5, 7)] == [1, 1, -1, -1]
    with pytest.raises(ValueError):
        twist.chi_odd(2)
    with pytest.raises(ValueError):
        twist.chi_odd(9)


def test_twist_character_is_an_immutable_record():
    chi = twist.chi_odd(7)
    assert twist.TwistCharacter._fields == ("label", "conductor", "top")
    twin = twist.TwistCharacter("chi_7", 7, -7)
    assert chi == twin and hash(chi) == hash(twin)
    with pytest.raises(AttributeError):
        chi.top = 7
    with pytest.raises(AttributeError):
        chi.extra = 1
    assert [chi(n) for n in range(1, 50)] == [kronecker(-7, n) for n in range(1, 50)]


def test_kappas_at_q_table():
    # even exponent: principal series and supercuspidal split by (-1|q)
    assert twist.kappas_at_q(5, 4) == {twist.RPS: 1, twist.USC: -1}
    assert twist.kappas_at_q(7, 4) == {twist.RPS: -1, twist.USC: 1}
    # odd exponent >= 3: the two ramified branches differ by a sign
    assert twist.kappas_at_q(5, 3) == {twist.RSC: {"q*": 1, "other": -1}}
    with pytest.raises(ValueError):
        twist.kappas_at_q(2, 3)
    with pytest.raises(ValueError):
        twist.kappas_at_q(9, 3)
    with pytest.raises(ValueError):
        twist.kappas_at_q(5, 0)


def test_kappas_at_q_covers_the_local_types_with_both_signs():
    for q in filter(is_prime, range(3, 50, 2)):
        for r in range(1, 10):
            table = twist.kappas_at_q(q, r)
            if r <= 2:
                assert table == {}, (q, r)
                continue
            assert set(table) == set(twist.classify_local_types(q, r)), (q, r)
            signs_seen = []
            for v in table.values():
                if r % 2:
                    assert set(v) == {"q*", "other"}, (q, r)
                    signs_seen += v.values()
                else:
                    signs_seen.append(v)
            assert set(signs_seen) == {1, -1}, (q, r)


def test_quadtwist_character_selection():
    # odd p needs p^3 | M and q inert mod p
    chars = twist.quadtwist_characters(4, 5, 1, 27)
    assert [c.label for c in chars] == ["chi_3"]
    assert kronecker(5, 3) == -1
    # residue condition fails: (11|3)? 11 = 2 mod 3 -> -1 qualifies; (13|3) = 1 does not
    assert twist.quadtwist_characters(4, 13, 1, 27) == []
    # v_p = 2 is not enough
    assert twist.quadtwist_characters(4, 5, 1, 9) == []
    # chi_-1 needs 2^5 and q = 3 mod 4
    assert [c.label for c in twist.quadtwist_characters(2, 19, 1, 32)] == ["chi_-1"]
    assert twist.quadtwist_characters(2, 17, 1, 32) == []
    assert twist.quadtwist_characters(2, 19, 1, 16) == []
    # chi_{+-2} need 2^7 and q = 5 mod 8
    labels = [c.label for c in twist.quadtwist_characters(2, 13, 1, 128)]
    assert labels == ["chi_2", "chi_-2"]
    # at 2^7 with q = 3 mod 4 only the chi_-1 route remains
    assert [c.label for c in twist.quadtwist_characters(2, 19, 1, 128)] == ["chi_-1"]


def test_quadtwist_bijection_priority():
    # ascending odd primes first, then chi_-1, then chi_2; the CLI reports
    # the first as its quadtwist_bijection
    labels = [c.label for c in twist.quadtwist_characters(4, 5, 1, 27 * 343)]
    assert labels == ["chi_3", "chi_7"]
    labels = [c.label for c in twist.quadtwist_characters(2, 19, 1, 32 * 343)]
    assert labels == ["chi_7", "chi_-1"]
    labels = [c.label for c in twist.quadtwist_characters(2, 13, 1, 128 * 125)]
    assert labels == ["chi_5", "chi_2", "chi_-2"]
    assert twist.quadtwist_characters(2, 17, 1, 16) == []


def test_quadtwist_rejects_even_exponent():
    with pytest.raises(ValueError):
        twist.quadtwist_characters(4, 5, 2, 27)
    with pytest.raises(ValueError):
        twist.quadtwist_characters(4, 5, 1, 10)  # m not coprime to q


def test_twist_pairing_forces_vanishing():
    # when a pairing character exists, traces of T_l W_q vanish for every l
    # with chi(l) = +1, and so does the eigenspace gap
    cases = [(5, 27), (11, 27), (7, 125)]
    for q, m in cases:
        chars = twist.quadtwist_characters(4, q, 1, m)
        assert chars, (q, m)
        chi = chars[0]
        assert signs.delta(4, q, 1, m) == 0
        for ell in range(2, 30):
            if math.gcd(ell, q * m) > 1 or chi(ell) != 1:
                continue
            assert trace.t_new(4, q, 1, m, ell) == 0, (q, m, ell)
