import math
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithmos.classify import ArithFnHandle, evaluate_range
from arithmos.cli import PARTITION_CEILING
from arithmos.core import factorize, partition_count, prime_power_table, primes_upto
from arithmos.functions import constant_one, make_handle
from arithmos.identities import (
    IdentityCheckReport,
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


def per_term_scan(spec, direct_alpha, direct_beta, n_max):
    """The earlier :func:`verify_per_term`: one generator over n per side."""
    failures = set()
    for direct, local, combine, unit in ((direct_alpha, spec.theta, mul, 1), (direct_beta, spec.kappa, add, 0)):
        want = evaluate_range(direct, n_max)
        got = prime_power_table(n_max, local, combine, unit)
        failures.update(n for n in range(2, n_max + 1) if got[n] != want[n])
    return IdentityCheckReport(tuple(sorted(failures)))


def planted(f, at):
    """f with one added to its range table at each n of ``at``."""
    def table(n_max):
        v = evaluate_range(f, n_max)
        for n in at:
            v[n] += 1
        return v
    return replace(f, range_values=table)


def test_per_term_matches_the_generator_scan(sieve10k):
    n_max = 5000
    spec = builtin_spec("lemma-b", t=1)
    sigma, omega = make_handle("sigma", t=1), make_handle("omega")
    cases = {
        (): (sigma, omega),
        (2,): (planted(sigma, [2]), omega),
        (n_max,): (sigma, planted(omega, [n_max])),
        (2, 97, n_max): (planted(sigma, [2, n_max]), planted(omega, [97, n_max])),
    }
    for failures, (alpha, beta) in cases.items():
        got = verify_per_term(spec, alpha, beta, n_max)
        assert got == per_term_scan(spec, alpha, beta, n_max)
        assert got.per_term_failures == failures


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
    assert val == exact_sum([1] * 10, [n * n for n in range(1, 11)])
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


def fraction_merge(terms):
    """The earlier :func:`exact_sum`: pairwise merges of ``Fraction`` terms, each node reduced."""
    work = list(terms)
    if not work:
        return Fraction(0)
    while len(work) > 1:
        nxt = [work[i] + work[i + 1] for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return Fraction(work[0])


def grouped_sum(spec, x, k, n_max):
    """The earlier :func:`truncated_sum_eval`: one :func:`fraction_merge` per value b of beta(n), times x^b."""
    xf = Fraction(x)
    alpha, beta = spec_table(spec, n_max)
    groups = {}
    for n in range(2, n_max + 1):
        groups.setdefault(beta[n], []).append(Fraction(alpha[n], n**k))
    return sum((xf**b * fraction_merge(terms) for b, terms in groups.items()), Fraction(1))


def test_exact_sum_fails_fast():
    assert exact_sum([], []) == 0 and type(exact_sum((), ())) is Fraction
    with pytest.raises(ValueError):
        exact_sum([1, 2], [3])
    with pytest.raises(ValueError):
        exact_sum([], [1])


# Denominators are products of a few small prime powers, so that neighbours share factors and
# the merge's gcd, lcm and final reduction all have work to do.
SMALL_PRIMES = (2, 3, 5, 7)
denominators = st.tuples(*(st.integers(0, 5) for _ in SMALL_PRIMES)).map(
    lambda es: math.prod(p**e for p, e in zip(SMALL_PRIMES, es)))
sum_terms = st.lists(st.tuples(st.integers(-10**20, 10**20), denominators), max_size=70)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sum_terms)
@example([(3, 4)])
@example([(1, 6), (-1, 6)])
@example([(5, 12), (-7, 18), (1, 1)])
@example([(n % 7 - 3, 2 ** (n % 4) * 3 ** (n % 3)) for n in range(70)])
@example([(n % 5 - 2, 5 ** (n % 3) * 7 ** (n % 2)) for n in range(69)])
def test_exact_sum_matches_fraction_sum(terms):
    nums = [a for a, _ in terms]
    dens = [d for _, d in terms]
    saved = (list(nums), list(dens))
    got = exact_sum(nums, dens)
    assert (nums, dens) == saved
    assert type(got) is Fraction
    assert got == sum((Fraction(a, d) for a, d in terms), Fraction(0))
    assert exact_sum(tuple(nums), tuple(dens)) == got


def test_euler_zeta_sum_matches_the_fraction_merge():
    # the exact-rational benchmark's size
    n_max = 2 * 10**4
    want = fraction_merge(Fraction(1, n**2) for n in range(1, n_max + 1))
    assert euler_zeta_check(2, n_max, 2000).rhs == want


def test_truncated_sum_matches_the_grouped_sum_at_benchmark_size():
    spec = builtin_spec("lemma-b", t=1)
    x = Fraction(4, 9)
    assert truncated_sum_eval(spec, x, 2, 2 * 10**4) == grouped_sum(spec, x, 2, 2 * 10**4)


def test_truncated_sum_matches_the_grouped_sum_on_small_cases():
    # theta is a Fraction of either sign, or 0 at a = 2; kappa is 0 at a = 1 for p = 2 (mod 3)
    rational = LocalFactorSpec(
        "rational",
        lambda p, a: Fraction((-1) ** a * (a - 2), p + a),
        lambda p, a: (p + a) % 3,
    )
    specs = (builtin_spec("lemma-a"), builtin_spec("lemma-b", t=2), builtin_spec("lemma-d", t=2), rational)
    xs = (Fraction(-3, 5), 0, 1, -2, Fraction(7, 4))
    for spec in specs:
        for x in xs:
            for k in (2, 3):
                for n_max in (1, 2, 3, 64, 301):
                    assert truncated_sum_eval(spec, x, k, n_max) == grouped_sum(spec, x, k, n_max), (
                        spec.name, x, k, n_max)


def test_truncated_sum_matches_the_grouped_sum_with_negative_kappa():
    # kappa is negative at a = 1, so x^beta(n) has the power of x's numerator below the line
    def theta(p, a):
        return 0 if p == 5 or (p, a) == (3, 3) else Fraction(a, p + 1)

    spec = LocalFactorSpec("negative", theta, lambda p, a: a - 2)
    for x in (Fraction(-3, 5), 1, -2, Fraction(7, 4)):
        for k in (2, 3):
            for n_max in (1, 2, 3, 64, 301):
                assert truncated_sum_eval(spec, x, k, n_max) == grouped_sum(spec, x, k, n_max), (x, k, n_max)
    check = numeric_identity_check(spec, Fraction(-3, 5), 2, 50, 6, 300)
    assert check.gap == abs(check.lhs - grouped_sum(spec, Fraction(-3, 5), 2, 300))
    assert truncated_sum_eval(spec, 0, 2, 1) == 1
    for n_max in (2, 64):
        with pytest.raises(ZeroDivisionError):
            grouped_sum(spec, 0, 2, n_max)
        with pytest.raises(ZeroDivisionError):
            truncated_sum_eval(spec, 0, 2, n_max)


def folded_product(spec, x, k, prime_bound, exp_bound):
    """The earlier :func:`truncated_product_eval`: a left fold of reduced ``Fraction`` factors."""
    xf = Fraction(x)
    result = Fraction(1)
    for p in primes_upto(prime_bound):
        inner = Fraction(1)
        for a in range(1, exp_bound + 1):
            inner += Fraction(spec.theta(p, a)) * xf ** spec.kappa(p, a) / p ** (a * k)
        result *= inner
    return result


def test_truncated_product_matches_the_folded_product_on_small_cases():
    # theta is a Fraction of either sign, or 0; kappa is 0 for some (p, a), or negative at a = 1
    rational = LocalFactorSpec(
        "rational",
        lambda p, a: Fraction((-1) ** a * (a - 2), p + a),
        lambda p, a: (p + a) % 3,
    )
    negative = LocalFactorSpec("negative", lambda p, a: 0 if p == 5 else Fraction(-a, p + 1), lambda p, a: a - 2)
    specs = (builtin_spec("lemma-a"), builtin_spec("lemma-b", t=2), builtin_spec("lemma-d", t=2), rational, negative)
    for spec in specs:
        for x in (Fraction(-3, 5), 0, 1, -2, Fraction(7, 4)):
            for k in (2, 3):
                # 1 prime, 2 primes (a pair), 3 primes (a pair and an odd one out), 10 and 25 primes
                for prime_bound, exp_bound in ((1, 3), (2, 1), (3, 2), (5, 2), (29, 4), (97, 3)):
                    args = (spec, x, k, prime_bound, exp_bound)
                    if spec is negative and x == 0 and prime_bound >= 2:
                        with pytest.raises(ZeroDivisionError):
                            folded_product(*args)
                        with pytest.raises(ZeroDivisionError):
                            truncated_product_eval(*args)
                        continue
                    got = truncated_product_eval(*args)
                    assert type(got) is Fraction
                    assert got == folded_product(*args), (spec.name, x, k, prime_bound, exp_bound)


def test_truncated_product_matches_the_folded_product_at_criterion_02_size():
    # the last stage of acceptance criterion 02: 168 primes, 32 terms each
    spec = builtin_spec("lemma-a")
    assert truncated_product_eval(spec, Fraction(1, 2), 2, 1000, 32) == folded_product(spec, Fraction(1, 2), 2, 1000, 32)


# --- zeta product oracle ---------------------------------------------------------

def test_euler_zeta_exact_partial_sum():
    check = euler_zeta_check(2, 10, 10)
    assert check.rhs == Fraction(1968329, 1270080)


def test_euler_zeta_empty_product():
    check = euler_zeta_check(2, 5, 1)
    assert check.lhs == 1


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


def stride_product(order: int) -> list[int]:
    """prod_{m=1..order} 1/(1 - x^m) by one prefix pass c[i] += c[i - m] per factor.

    The O(order^2) oracle of :func:`partition_product_series`: each pass runs in
    blocks of m, each block adding the (already final) block before it.
    """
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for m in range(1, order + 1):
        for i in range(m, order + 1, m):
            coeffs[i:i + m] = map(add, coeffs[i:i + m], coeffs[i - m:i])
    return coeffs


def assert_same_ints(got, want):
    assert got == tuple(want)
    assert all(type(c) is int for c in got)


def test_partition_product_matches_the_stride_product():
    # a truncation is a prefix of any longer one, so one oracle run covers every order up to 400
    want = stride_product(400)
    for order in range(1, 401):
        series = partition_product_series(order)
        assert series.order == order
        assert_same_ints(series.coeffs, want[:order + 1])
    assert_same_ints(partition_product_series(3000).coeffs, stride_product(3000))


def test_partition_product_does_not_use_the_routes_it_checks(monkeypatch):
    from arithmos import core, identities, powerseries

    def forbidden(*args, **kwargs):
        raise AssertionError("the product must not go through the recurrence or the series kernel")

    want = stride_product(500)
    for module, name in ((core, "partition_count"), (identities, "partition_count"),
                         (core, "range_values"), (powerseries, "ps_mul")):
        monkeypatch.setattr(module, name, forbidden)
    assert_same_ints(partition_product_series(500).coeffs, want)


def test_partition_product_check_passes_at_the_ceiling():
    assert partition_product_check(PARTITION_CEILING).passed


def test_partition_product_matches_sympy_at_the_ceiling():
    sympy = pytest.importorskip("sympy")
    coeffs = partition_product_series(PARTITION_CEILING).coeffs
    rng = random.Random("partition-product/sympy")
    sample = rng.sample(range(PARTITION_CEILING + 1), 50) + [PARTITION_CEILING]
    bad = [n for n in sample if coeffs[n] != sympy.partition(n)]
    assert not bad, bad[:5]


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
