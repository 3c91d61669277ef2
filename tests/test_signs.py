import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from altrace import classnum, signs, trace
from altrace.arith import divisors, factor, is_prime, kronecker, mobius_squared_transform


def test_kappa_minus_table():
    # p || M: factor (d|p) - 1, so split primes kill the product
    assert signs.kappa_minus(-4, 1) == 1
    assert signs.kappa_minus(-4, 5) == 0   # (-4|5) = 1
    assert signs.kappa_minus(-4, 3) == -2  # (-4|3) = -1
    assert signs.kappa_minus(-4, 9) == 1   # p^2 row: -(-4|3)
    assert signs.kappa_minus(-3, 9) == -1  # p | d row at e = 2
    assert signs.kappa_minus(-3, 27) == 1
    assert signs.kappa_minus(-4, 27) == 0
    assert signs.kappa_minus(-4, 81) == 0
    assert signs.kappa_minus(-4, 21) == 4  # (-4|3) = (-4|7) = -1


def test_kappa_infty_values():
    assert signs.kappa_infty(1) == 1
    assert signs.kappa_infty(5) == 4
    assert signs.kappa_infty(25) == 19
    assert signs.kappa_infty(8) == 3
    assert signs.kappa_infty(12) == 2
    assert signs.kappa_infty(125) == 96


def test_kappa_infty_drives_growth_in_k():
    # pk tables repeat mod 12 and the parity sign matches, so stepping the
    # weight by 12 isolates the -(k-1)/12 kappa_infty(M) term in the r = 2
    # closed form
    for m in (1, 3, 14, 21):
        d_hi = signs.delta(210, 5, 2, m)
        d_lo = signs.delta(198, 5, 2, m)
        assert d_hi - d_lo == -signs.kappa_infty(m), m


def test_delta_matches_pipeline_small_grid():
    for k in (2, 4, 8):
        for q, r in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (2, 5), (5, 2)):
            for m in list(range(1, 26)) + [32, 36, 45, 49]:
                if math.gcd(m, q) > 1:
                    continue
                assert signs.delta(k, q, r, m) == trace.t_new(k, q, r, m, 1), (k, q, r, m)


def test_delta_frozen_anchors():
    assert signs.delta(6, 2, 2, 1) == -1
    # weight-2 prime level: delta = 1 - H(-4q)/2
    for q in (5, 7, 13, 17, 37, 41):
        expect = 1 - Fraction(classnum.hurwitz12(-4 * q), 24)
        assert signs.delta(2, q, 1, 1) == expect, q


def test_weight_two_exceptional_levels():
    # prime levels q >= 5 where the plus and minus eigenspaces tie at
    # weight 2 (below 5 the spaces are empty and the tie is trivial)
    zero_levels = [q for q in range(5, 200) if is_prime(q) and signs.delta(2, q, 1, 1) == 0]
    assert zero_levels == [5, 7, 13, 37]
    # the printed variant of this list ends in 17; H(-68) = 4 forces
    # delta_2(17, 1) = -1, while level 37's two newforms really do tie
    assert signs.delta(2, 17, 1, 1) == -1
    assert signs.delta(2, 37, 1, 1) == 0


def test_weight_two_exceptional_levels_cofactor_two():
    zero = [q for q in range(5, 400, 2) if is_prime(q) and signs.delta(2, q, 1, 2) == 0]
    assert zero == [5, 11, 13, 19, 37, 43, 67, 163]


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factor(n):
        out -= out // p
    return out


@given(st.integers(min_value=1, max_value=4000))
def test_phi_divisor_sum(n):
    assert sum(euler_phi(d) for d in divisors(n)) == n


def _dim_cusp_reference(k: int, n: int) -> int:
    """dim S_k(Gamma_0(n)) from the genus formula in Fractions."""
    fac = factor(n)
    psi = n
    for p, _ in fac:
        psi += psi // p
    nu2 = 0 if n % 4 == 0 else math.prod(1 + kronecker(-4, p) for p, _ in fac)
    nu3 = 0 if n % 9 == 0 else math.prod(1 + kronecker(-3, p) for p, _ in fac)
    nuinf = sum(euler_phi(math.gcd(d, n // d)) for d in divisors(n))
    c2 = Fraction(1, 4) if k % 4 == 0 else Fraction(-1, 4)
    c3 = {0: Fraction(1, 3), 1: Fraction(0), 2: Fraction(-1, 3)}[k % 3]
    d = Fraction(k - 1, 12) * psi - Fraction(nuinf, 2) + c2 * nu2 + c3 * nu3
    if k == 2:
        d += 1
    assert d.denominator == 1, (k, n, d)
    return int(d)


def test_dim_formulas_against_known_genera():
    assert _dim_cusp_reference(12, 1) == 1
    assert _dim_cusp_reference(2, 11) == 1
    assert _dim_cusp_reference(2, 22) == 2
    assert _dim_cusp_reference(2, 37) == 2
    assert _dim_cusp_reference(2, 389) == 32
    assert signs.dim_new(2, 22) == 0
    assert signs.dim_new(4, 13) == 3
    assert signs.dim_new(2, 37) == 2


def test_dim_new_matches_projected_genus_formula():
    # the closed form against the mu*mu projection of the full-space genus
    # formula, summed over the divisors of n
    for k in range(2, 15, 2):
        for n in range(1, 1001):
            expect = mobius_squared_transform(lambda d: _dim_cusp_reference(k, d), n)
            assert signs.dim_new(k, n) == expect, (k, n)


def test_eigenspace_dims_level_eleven():
    dims = signs.eigenspace_dims(2, 11, 1, 1)
    assert (dims.plus, dims.minus) == (0, 1)
    assert dims.plus + dims.minus == signs.dim_new(2, 11)


def test_eigenspace_dims_consistency():
    for k in (2, 4, 6):
        for q, r in ((2, 1), (3, 2), (5, 1), (2, 3)):
            for m in (1, 3, 5, 7, 15):
                if math.gcd(m, q) > 1:
                    continue
                dims = signs.eigenspace_dims(k, q, r, m)
                assert dims.plus - dims.minus == signs.delta(k, q, r, m)
                assert dims.plus + dims.minus == signs.dim_new(k, q**r * m)
                assert dims.plus >= 0 and dims.minus >= 0


def test_predicate_zero_verdicts_are_true():
    for k in (2, 4, 6, 8):
        for q, r in ((2, 1), (3, 1), (5, 1), (11, 1), (2, 3), (3, 3), (5, 3), (2, 5)):
            for m in range(1, 40):
                if math.gcd(m, q) > 1:
                    continue
                res = signs.equidistribution_predicate(k, q, r, m)
                assert res.value == signs.delta(k, q, r, m)
                if not res.covered:
                    continue
                if res.zero_reason != signs.ZERO_NONE:
                    assert res.value == 0, (k, q, r, m, res)
                if res.predicted_sign == 0:
                    assert res.value == 0, (k, q, r, m, res)
                elif res.predicted_sign is not None:
                    assert res.predicted_sign in (-1, 1)
                    assert res.value != 0, (k, q, r, m, res)
                    assert (res.value > 0) == (res.predicted_sign == 1), (k, q, r, m, res)


def test_predicate_misses_no_zero_on_covered_cases():
    missed = []
    for k in (4, 6):
        for q, r in ((5, 1), (7, 1), (11, 1), (13, 1)):
            for m in range(1, 60):
                if math.gcd(m, q) > 1:
                    continue
                res = signs.equidistribution_predicate(k, q, r, m)
                if res.covered and res.value == 0 and res.zero_reason == signs.ZERO_NONE:
                    missed.append((k, q, r, m))
    assert not missed


def test_predicate_split_prime_reason():
    # q = 11, M = 5: (-11|5) = 1, so 5 splits and the class-number term dies
    assert kronecker(-11, 5) == 1
    res = signs.equidistribution_predicate(4, 11, 1, 5)
    assert res.zero_reason == signs.ZERO_SPLIT_PRIME
    assert res.value == 0


def test_predicate_not_cubefree_reason():
    res = signs.equidistribution_predicate(4, 5, 1, 27)
    assert res.zero_reason == signs.ZERO_NOT_CUBEFREE
    assert res.value == 0


def test_r2_asymptotics_ratio_near_one():
    for k, m in ((300, 1), (402, 7), (2, 2003), (4, 3001)):
        rep = signs.delta_r2_asymptotics(k, 5, m)
        if rep.kinfty_leading == 0:
            continue
        ratio = Fraction(signs.delta(k, 5, 2, m)) / rep.kinfty_leading
        assert Fraction(9, 10) <= ratio <= Fraction(11, 10), (k, m)


def test_boundedness_in_weight():
    for q, r, m in ((5, 1, 6), (5, 3, 6), (3, 1, 10), (7, 1, 4)):
        vals = {signs.delta(k, q, r, m) for k in range(4, 80, 2)}
        assert len(vals) <= 2, (q, r, m, vals)


def test_correlation_closed_form_matches_pipeline():
    for q in (13, 17, 29, 97):
        for ell in (2, 3):
            if 4 * ell >= q:
                continue
            for m in (1, 3, 6):
                if math.gcd(m, q * ell) > 1:
                    continue
                rep = signs.correlation_checks(4, q, m, ell)
                assert rep.hypotheses_met
                assert rep.trace_value == trace.t_new(4, q, 1, m, ell), (q, ell, m)
                assert rep.zero_expected == (rep.trace_value == 0), (q, ell, m)


def test_correlation_zero_iff_instances():
    # split odd prime in the cofactor
    rep = signs.correlation_checks(4, 13, 5, 2)  # (-26|5) = 1
    assert rep.hypotheses_met and rep.zero_expected and rep.trace_value == 0
    # twice-squarefree cofactor with q*ell = 7 mod 8
    rep = signs.correlation_checks(4, 29, 2, 3)  # 87 = 7 mod 8
    assert rep.hypotheses_met and rep.zero_expected and rep.trace_value == 0
    # control: no vanishing mechanism
    rep = signs.correlation_checks(4, 13, 1, 2)
    assert rep.hypotheses_met and not rep.zero_expected and rep.trace_value != 0


def test_correlation_out_of_scope_reports():
    # outside the paper's hypotheses a result says so; outside the level rule
    # there is no trace to report, so the arguments raise
    assert not signs.correlation_checks(2, 13, 1, 2).hypotheses_met
    assert not signs.correlation_checks(4, 13, 1, 5).hypotheses_met  # 4l >= q
    assert not signs.correlation_checks(4, 13, 4, 3).hypotheses_met  # M = 0 mod 4
    assert not signs.correlation_checks(4, 15, 1, 2).hypotheses_met  # q not prime
    assert not signs.correlation_checks(4, 13, 1, 1).hypotheses_met  # l not prime
    with pytest.raises(ValueError, match="cofactor M must be coprime to q"):
        signs.correlation_checks(4, 13, 13, 2)
    with pytest.raises(ValueError, match="Hecke index must be coprime to the level"):
        signs.correlation_checks(4, 13, 3, 3)
    with pytest.raises(ValueError, match="squarefree and >= 2 at r = 1, got 4"):
        signs.correlation_checks(4, 4, 1, 1)


def test_result_types_are_immutable_records():
    results = {
        ("value", "covered", "case_tag", "zero_reason", "predicted_sign"): signs.equidistribution_predicate(4, 5, 1, 2),
        ("plus", "minus"): signs.eigenspace_dims(4, 13, 1, 5),
        ("kinfty_leading", "qinfty_coefficient", "qinfty_hypotheses_met"): signs.delta_r2_asymptotics(4, 5, 3),
        ("hypotheses_met", "note", "trace_value", "zero_expected", "zero_observed", "sign_ratio_observed"):
            signs.correlation_checks(4, 13, 1, 3),
    }
    for fields, res in results.items():
        assert res._fields == fields
        with pytest.raises(AttributeError):
            setattr(res, fields[0], None)
        twin = type(res)(*res)
        assert twin == res and hash(twin) == hash(res)
    assert signs.CorrelationResult(False, "note") == (False, "note", None, None, None, None)


@given(
    st.sampled_from([2, 4, 6, 8, 10]),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=60),
)
def test_delta_is_integer_and_parity_safe(k, q, r, m):
    if math.gcd(m, q) > 1:
        return
    val = signs.delta(k, q, r, m)
    assert isinstance(val, int)
    dim = signs.dim_new(k, q**r * m)
    assert abs(val) <= dim
    assert (dim - val) % 2 == 0
