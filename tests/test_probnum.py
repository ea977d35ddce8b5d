from fractions import Fraction

import pytest

from arithmos.classify import ArithFnHandle
from arithmos.functions import make_handle
from arithmos.powerseries import TruncatedSeries
from arithmos.probnum import (
    SCAN_HI,
    SCAN_LO,
    SCAN_STEPS,
    build_polynomial,
    eval_at_one,
    moment,
    moment_function_eval,
    normalize,
    normalize_summable_series,
    polynomial_eval,
    shifted_sign_scan,
)


@pytest.fixture(scope="module")
def omega(sieve10k):
    return make_handle("omega")


@pytest.fixture(scope="module")
def bigomega(sieve10k):
    return make_handle("bigomega")


def test_histogram_small(omega):
    poly = build_polynomial(omega, 3)
    assert poly.terms == ((0, 1), (1, 2))


def test_histogram_single_point(omega):
    poly = build_polynomial(omega, 1)
    assert poly.terms == ((0, 1),)
    assert eval_at_one(poly) == 2


def test_histogram_with_multiplicity(bigomega):
    poly = build_polynomial(bigomega, 4)
    assert poly.terms == ((0, 1), (1, 2), (2, 1))


def test_histogram_rejects_bad_functions():
    with pytest.raises(ValueError):
        build_polynomial(ArithFnHandle("neg", lambda n: -1), 5)
    with pytest.raises(ValueError):
        build_polynomial(ArithFnHandle("half", lambda n: Fraction(1, 2)), 5)
    with pytest.raises(ValueError):
        build_polynomial(ArithFnHandle("omega", lambda n: 0), 0)


def test_counts_cover_range(omega, bigomega):
    for handle in (omega, bigomega):
        for m in (10, 100, 317):
            poly = build_polynomial(handle, m)
            assert sum(t for _, t in poly.terms) == m
            assert eval_at_one(poly) == m + 1
            assert [s for s, _ in poly.terms] == sorted({s for s, _ in poly.terms})


def test_polynomial_eval(omega):
    poly = build_polynomial(omega, 3)  # 1 + 1 + 2x
    assert polynomial_eval(poly, 1) == 4
    assert polynomial_eval(poly, Fraction(1, 2)) == 3
    with pytest.raises(TypeError):
        polynomial_eval(poly, 0.5)


def test_normalize_merges_value_zero(omega):
    pmf = normalize(build_polynomial(omega, 3))
    assert pmf.support == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))


def test_normalize_single_point(omega):
    pmf = normalize(build_polynomial(omega, 1))
    assert pmf.support == ((0, Fraction(1, 1)),)


def test_normalize_total_is_exactly_one(omega, bigomega):
    for handle in (omega, bigomega):
        for m in (2, 17, 250):
            pmf = normalize(build_polynomial(handle, m))
            assert sum(q for _, q in pmf.support) == 1
            assert all(q > 0 for _, q in pmf.support)


def test_normalize_preserves_ratios(omega):
    m = 200
    poly = build_polynomial(omega, m)
    pmf = normalize(poly)
    counts = dict(poly.terms)
    for s, q in pmf.support:
        expected = counts.get(s, 0) + (1 if s == 0 else 0)
        assert q * (m + 1) == expected


def test_moments_of_bernoulli_like_pmf(omega):
    pmf = normalize(build_polynomial(omega, 3))
    assert moment(pmf, 1) == Fraction(1, 2)
    assert moment(pmf, 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        moment(pmf, 0)


def test_moment_function_values(omega):
    pmf = normalize(build_polynomial(omega, 3))
    assert moment_function_eval(pmf, 1) == 1
    assert moment_function_eval(pmf, Fraction(1, 3)) == Fraction(2, 3)


def test_moment_function_at_zero_isolates_mass_at_zero(omega):
    pmf = normalize(build_polynomial(omega, 100))
    assert moment_function_eval(pmf, 0) == Fraction(2, 101)


def test_moment_function_total_probability(omega, bigomega):
    for handle in (omega, bigomega):
        pmf = normalize(build_polynomial(handle, 321))
        assert moment_function_eval(pmf, 1) == 1


def test_empirical_mean_grows(omega):
    m1 = moment(normalize(build_polynomial(omega, 100)), 1)
    m2 = moment(normalize(build_polynomial(omega, 1000)), 1)
    assert m2 > m1


# --- normalizing plain series -----------------------------------------------------

def test_normalize_series_simple():
    pmf = normalize_summable_series(TruncatedSeries.from_coeffs([1, 1]))
    assert pmf.support == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))


def test_normalize_series_weighted():
    pmf = normalize_summable_series(TruncatedSeries.from_coeffs([2, 0, 6]))
    assert pmf.support == ((0, Fraction(1, 4)), (2, Fraction(3, 4)))


def test_normalize_series_rejects_negative_and_zero():
    with pytest.raises(ValueError):
        normalize_summable_series(TruncatedSeries.from_coeffs([1, -1]))
    with pytest.raises(ValueError):
        normalize_summable_series(TruncatedSeries.zero(3))


# --- real-root evidence scan -------------------------------------------------------

def test_sign_scan_sees_the_root_at_one(omega):
    # P(x) - (M+1) always vanishes at x = 1, which is grid point 200 of [-4, 2] in 240 steps;
    # over 1..3 it is 2x - 2: one zero on the grid and one sign change across it
    assert SCAN_LO + 200 * (SCAN_HI - SCAN_LO) / SCAN_STEPS == 1
    scan = shifted_sign_scan(build_polynomial(omega, 3))
    assert scan["exact_zeros_on_grid"] == 1
    assert scan["sign_changes"] == 1


def test_sign_scan_counts_changes(omega):
    scan = shifted_sign_scan(build_polynomial(omega, 50))
    assert scan["sign_changes"] >= 1
    assert scan["degree"] >= 2
    assert (scan["lo"], scan["hi"], scan["steps"]) == ("-4/1", "2/1", 240)
    assert set(scan) == {"lo", "hi", "steps", "degree", "sign_changes", "exact_zeros_on_grid"}
