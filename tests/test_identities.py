import math
from fractions import Fraction
from math import gcd

import pytest

from arithmos.classify import ArithFnHandle
from arithmos.core import factorize, partition_count, prime_power_table
from arithmos.functions import constant_one, make_handle
from arithmos.identities import (
    LocalFactorSpec,
    builtin_spec,
    euler_zeta_check,
    exact_sum,
    numeric_identity_check,
    partition_product_check,
    partition_product_series,
    spec_table,
    truncated_product_eval,
    truncated_sum_eval,
    verify_per_term,
)


def alpha_beta(spec, f):
    """Per-n oracle for :func:`spec_table`: multiply theta and add kappa over one factorization."""
    alpha, beta = 1, 0
    for p, a in f:
        alpha = alpha * spec.theta(p, a)
        beta += spec.kappa(p, a)
    return alpha, beta


def at(spec, n):
    alpha, beta = spec_table(spec, n)
    return alpha[n], beta[n]


def test_alpha_beta_empty_factorization():
    spec = builtin_spec("lemma-b", t=1)
    assert at(spec, 1) == (1, 0)
    assert spec_table(spec, 0) == ([1], [0])


def test_alpha_beta_divisor_sum_weight():
    spec = builtin_spec("lemma-b", t=1)
    assert at(spec, 12) == (28, 2)


def test_alpha_beta_exponent_square_weight():
    spec = builtin_spec("lemma-d", t=2)
    assert at(spec, 12) == (1, 5)


def test_builtin_spec_values():
    assert at(builtin_spec("lemma-a"), 30) == (1, 3)
    assert at(builtin_spec("lemma-c"), 12) == (6, 2)
    assert at(builtin_spec("lemma-b", t=2), 4) == (21, 1)


@pytest.mark.parametrize("which, t", [("lemma-a", None), ("lemma-b", 2), ("lemma-c", None), ("lemma-d", 2)])
def test_spec_table_matches_per_n_oracle(sieve100k, which, t):
    spec = builtin_spec(which, t)
    n_max = 10**5
    alpha, beta = spec_table(spec, n_max)
    assert len(alpha) == len(beta) == n_max + 1
    assert all((alpha[n], beta[n]) == alpha_beta(spec, factorize(n)) for n in range(1, n_max + 1))


def test_spec_table_matches_per_n_oracle_on_a_rational_spec(sieve10k):
    # theta is a Fraction, or 0 at every power of 5 and at the cubes of 3;
    # kappa is negative at a = 1 and 0 at a = 2
    def theta(p, a):
        return 0 if p == 5 or (p, a) == (3, 3) else Fraction(a, p + 1)

    spec = LocalFactorSpec("custom", theta, lambda p, a: a - 2)
    n_max = 10**4
    alpha, beta = spec_table(spec, n_max)
    assert all((alpha[n], beta[n]) == alpha_beta(spec, factorize(n)) for n in range(1, n_max + 1))
    assert alpha[10] == 0 and alpha[27] == 0 and alpha[6] == Fraction(1, 12)
    assert beta[12] == -1 and beta[36] == 0


def test_prime_power_table_small_limits():
    calls = []

    def local(p, a):
        calls.append((p, a))
        return p**a

    assert prime_power_table(0, local, lambda u, g: u * g, 1) == [1]
    assert prime_power_table(1, local, lambda u, g: u * g, 1) == [1, 1]
    assert calls == []
    assert prime_power_table(2, local, lambda u, g: u * g, 1) == [1, 1, 2]
    assert calls == [(2, 1)]


def test_prime_power_table_calls_local_once_per_prime_power():
    calls = []

    def local(p, a):
        calls.append((p, a))
        return (p, a)

    v = prime_power_table(100, local, lambda u, g: u + (g,), ())
    assert sorted(calls) == sorted(set(calls))
    assert set(calls) == {(p, a) for p in (2, 3, 5, 7) for a in range(1, 7) if p**a <= 100} | {
        (p, 1) for p in range(11, 101) if all(p % q for q in range(2, p))
    }
    assert v[72] == ((2, 3), (3, 2))
    assert v[97] == ((97, 1),)


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


def test_alpha_multiplicative_beta_additive_by_construction():
    spec = builtin_spec("lemma-b", t=2)
    alpha, beta = spec_table(spec, 2000)
    m = 1
    while m * m <= 2000:
        for n in range(m, 2000 // m + 1):
            if gcd(m, n) == 1:
                assert alpha[m * n] == alpha[m] * alpha[n]
                assert beta[m * n] == beta[m] + beta[n]
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
