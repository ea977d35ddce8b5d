import math
from fractions import Fraction
from math import gcd

import pytest

from arithmos.classify import ArithFnHandle
from arithmos.core import factorize, partition_count
from arithmos.functions import constant_one, make_handle
from arithmos.identities import (
    alpha_beta,
    builtin_spec,
    euler_zeta_check,
    exact_sum,
    numeric_identity_check,
    partition_product_check,
    partition_product_series,
    truncated_product_eval,
    truncated_sum_eval,
    verify_per_term,
)


def test_alpha_beta_empty_factorization(sieve10k):
    spec = builtin_spec("lemma-b", t=1)
    assert alpha_beta(spec, factorize(1)) == (1, 0)


def test_alpha_beta_divisor_sum_weight(sieve10k):
    spec = builtin_spec("lemma-b", t=1)
    assert alpha_beta(spec, factorize(12)) == (28, 2)


def test_alpha_beta_exponent_square_weight(sieve10k):
    spec = builtin_spec("lemma-d", t=2)
    assert alpha_beta(spec, factorize(12)) == (1, 5)


def test_builtin_spec_values(sieve10k):
    assert alpha_beta(builtin_spec("lemma-a"), factorize(30)) == (1, 3)
    assert alpha_beta(builtin_spec("lemma-c"), factorize(12)) == (6, 2)
    assert alpha_beta(builtin_spec("lemma-b", t=2), factorize(4)) == (21, 1)


def test_builtin_spec_validation():
    with pytest.raises(ValueError):
        builtin_spec("lemma-e")
    with pytest.raises(ValueError):
        builtin_spec("lemma-b")
    with pytest.raises(ValueError):
        builtin_spec("lemma-d", t=0)
    with pytest.raises(ValueError):
        builtin_spec("lemma-a", t=1)


def test_report_passes_iff_no_failures():
    from arithmos.identities import IdentityCheckReport

    assert IdentityCheckReport(()).passed
    assert not IdentityCheckReport((4,)).passed


def test_per_term_divisor_sum_identity(sieve10k):
    spec = builtin_spec("lemma-b", t=1)
    report = verify_per_term(
        spec,
        make_handle("sigma", t=1),
        make_handle("omega"),
        1000,
    )
    assert report.passed
    assert report.per_term_failures == ()


def test_per_term_exponent_power_identity(sieve10k):
    spec = builtin_spec("lemma-d", t=2)
    report = verify_per_term(
        spec, constant_one(), make_handle("L", t=2), 1000
    )
    assert report.passed


def test_per_term_negative_control(sieve10k):
    # deliberately wrong reference: distinct-prime exponent vs with-multiplicity
    spec = builtin_spec("lemma-a")
    report = verify_per_term(
        spec, constant_one(), make_handle("bigomega"), 100
    )
    assert not report.passed
    assert report.per_term_failures[0] == 4


def test_per_term_range_validated(sieve10k):
    with pytest.raises(ValueError):
        verify_per_term(builtin_spec("lemma-a"), constant_one(), constant_one(), 1)


def test_alpha_multiplicative_beta_additive_by_construction(sieve10k):
    spec = builtin_spec("lemma-b", t=2)
    ab = {n: alpha_beta(spec, factorize(n)) for n in range(1, 2001)}
    m = 1
    while m * m <= 2000:
        for n in range(m, 2000 // m + 1):
            if gcd(m, n) == 1:
                assert ab[m * n][0] == ab[m][0] * ab[n][0]
                assert ab[m * n][1] == ab[m][1] + ab[n][1]
        m += 1


# --- numeric truncations -------------------------------------------------------

def test_empty_product_is_one():
    spec = builtin_spec("lemma-a")
    assert truncated_product_eval(spec, Fraction(1, 2), 2, 1, 4) == 1


def test_product_at_zero_x():
    spec = builtin_spec("lemma-a")
    assert truncated_product_eval(spec, 0, 2, 100, 8) == 1


def test_sum_with_empty_range_is_one():
    spec = builtin_spec("lemma-a")
    assert truncated_sum_eval(spec, Fraction(1, 2), 2, 1) == 1


def test_sum_at_x_one_matches_zeta_truncation(sieve10k):
    # with x = 1 every term is 1/n^k regardless of the exponent function
    spec = builtin_spec("lemma-a")
    val = truncated_sum_eval(spec, 1, 2, 10)
    assert val == exact_sum([Fraction(1, n * n) for n in range(1, 11)])
    assert val == Fraction(1968329, 1270080)


def test_numeric_gap_example(sieve10k):
    # frozen from an independent computation of both truncations
    spec = builtin_spec("lemma-a")
    check = numeric_identity_check(spec, Fraction(1, 2), 2, 100, 20, 10**4)
    assert math.isclose(float(check.gap), 1.160744841252539e-3, rel_tol=1e-9)


def test_numeric_gap_shrinks_with_bounds(sieve10k):
    spec = builtin_spec("lemma-c")
    small = numeric_identity_check(spec, Fraction(1, 2), 3, 50, 8, 1000)
    large = numeric_identity_check(spec, Fraction(1, 2), 3, 200, 16, 4000)
    assert large.gap <= small.gap


def test_truncation_parameters_validated():
    spec = builtin_spec("lemma-a")
    with pytest.raises(ValueError):
        truncated_product_eval(spec, Fraction(1, 2), 1, 10, 4)
    with pytest.raises(ValueError):
        truncated_sum_eval(spec, Fraction(1, 2), 1, 10)
    with pytest.raises(ValueError):
        truncated_product_eval(spec, Fraction(1, 2), 2, 10, 0)
    with pytest.raises(TypeError):
        truncated_sum_eval(spec, 0.5, 2, 10)
    with pytest.raises(TypeError):
        truncated_product_eval(spec, 0.5, 2, 10, 4)


def test_exact_sum_matches_builtin():
    assert exact_sum([]) == 0
    terms = [Fraction(1, n) for n in range(1, 50)]
    assert exact_sum(terms) == sum(terms)


# --- zeta product oracle ---------------------------------------------------------

def test_euler_zeta_exact_partial_sum():
    check = euler_zeta_check(2, 10, 10)
    assert check.sum_value == Fraction(1968329, 1270080)


def test_euler_zeta_empty_product():
    check = euler_zeta_check(2, 5, 1)
    assert check.product_value == 1


def test_euler_zeta_gap_shrinks():
    g1 = euler_zeta_check(2, 100, 100).gap
    g2 = euler_zeta_check(2, 1000, 1000).gap
    assert g2 < g1


def test_euler_zeta_validates_exponent():
    with pytest.raises(ValueError):
        euler_zeta_check(1, 10, 10)


# --- partition generating product -------------------------------------------------

def test_partition_product_low_coefficients():
    series = partition_product_series(12)
    assert series.coeffs[0] == 1
    assert series.coeffs[5] == 7
    assert series.coeffs == tuple(partition_count(n) for n in range(13))


def test_partition_product_check_passes():
    report = partition_product_check(300)
    assert report.passed
    assert report.per_term_failures == ()


def test_partition_product_order_validated():
    with pytest.raises(ValueError):
        partition_product_check(0)


# --- direct-function failure propagation -----------------------------------------

def test_per_term_propagates_evaluation_failure(sieve10k):
    def broken(n):
        if n == 11:
            raise RuntimeError("nope")
        return 1

    from arithmos.classify import EvaluationError

    with pytest.raises(EvaluationError) as err:
        verify_per_term(
            builtin_spec("lemma-a"),
            ArithFnHandle("broken", broken),
            make_handle("omega"),
            100,
            )
    assert err.value.n == 11
