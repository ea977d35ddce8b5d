import random
from fractions import Fraction

import pytest

from arithmos.classify import ArithFnHandle
from arithmos.cli import ROOT_SCAN_DEGREE_CEILING
from arithmos.functions import make_handle
from arithmos.powerseries import as_rational
from arithmos.probnum import (
    SCAN_HI,
    SCAN_LO,
    SCAN_STEPS,
    ArithPolynomial,
    build_polynomial,
    eval_at_one,
    moment,
    normalize,
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


def planted(name, bad):
    """omega over 1..40 with the values of ``bad`` (n -> value) in place of omega's."""
    omega = make_handle("omega")
    return ArithFnHandle(name, lambda n: bad.get(n, omega.eval(n)))


def test_histogram_rejects_bad_functions(sieve10k):
    # the error names the first bad n, whatever is wrong with it
    cases = [
        (ArithFnHandle("neg", lambda n: -1), "neg(1) = -1 is negative"),
        (planted("neg", {7: -2, 9: Fraction(1, 2)}), "neg(7) = -2 is negative"),
        (planted("half", {9: Fraction(1, 2), 12: -1}), "half(9) = 1/2 is not an integer"),
        (planted("flt", {4: 2.0, 5: -1}), "flt(4) = 2.0 is not an integer"),
        (planted("flag", {40: True}), "flag(40) = True is not an integer"),
        (planted("flag", {2: False, 3: 1.5}), "flag(2) = False is not an integer"),
        (planted("negfrac", {6: Fraction(-4, 2)}), "negfrac(6) = -2 is negative"),
    ]
    for handle, message in cases:
        with pytest.raises(ValueError) as err:
            build_polynomial(handle, 40)
        assert str(err.value) == message


def test_histogram_rejects_a_bad_range():
    with pytest.raises(ValueError, match="M must be >= 1, got 0"):
        build_polynomial(ArithFnHandle("omega", lambda n: 0), 0)


def test_histogram_counts_integral_fractions(omega):
    want = build_polynomial(omega, 300)
    for bad in ({1: Fraction(0)}, {n: Fraction(omega.eval(n) * 3, 3) for n in range(1, 301)}):
        assert build_polynomial(planted("frac", bad), 300) == want


def test_counts_cover_range(omega, bigomega):
    for handle in (omega, bigomega):
        for m in (10, 100, 317):
            poly = build_polynomial(handle, m)
            assert sum(t for _, t in poly.terms) == m
            assert eval_at_one(poly) == m + 1
            assert [s for s, _ in poly.terms] == sorted({s for s, _ in poly.terms})


def polynomial_eval(p, x):
    """Exact value of 1 + sum t_j x^(s_j) at a rational x: the oracle of :func:`fraction_sign_scan`."""
    xf = Fraction(as_rational(x))
    total = Fraction(1)
    for s, t in p.terms:
        total += t * xf**s
    return total.numerator if total.denominator == 1 else total


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


def test_empirical_mean_grows(omega):
    m1 = moment(normalize(build_polynomial(omega, 100)), 1)
    m2 = moment(normalize(build_polynomial(omega, 1000)), 1)
    assert m2 > m1


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


def fraction_sign_scan(p):
    """The earlier :func:`shifted_sign_scan`: ``polynomial_eval`` in ``Fraction``s at every grid point."""
    shift = eval_at_one(p)
    step = (SCAN_HI - SCAN_LO) / SCAN_STEPS
    changes = zeros = 0
    prev = None
    for i in range(SCAN_STEPS + 1):
        val = polynomial_eval(p, SCAN_LO + i * step) - shift
        if val == 0:
            zeros += 1
            continue
        if prev is not None and (val > 0) != prev:
            changes += 1
        prev = val > 0
    return {"lo": "-4/1", "hi": "2/1", "steps": SCAN_STEPS, "degree": p.terms[-1][0] if p.terms else 0,
            "sign_changes": changes, "exact_zeros_on_grid": zeros}


def seeded_polynomial(seed, degree, size):
    """Up to ``size`` terms of exponents <= degree, the degree among them, counts 1..10^6."""
    rng = random.Random(seed)
    exponents = sorted({degree, *rng.sample(range(degree + 1), min(size, degree + 1))})
    terms = tuple((s, rng.randint(1, 10**6)) for s in exponents)
    return ArithPolynomial(sum(t for _, t in terms), terms)


# P(x) - (M+1) is (x - 1)(t_1 + t_2 (x + 1)) for P = 1 + t_1 x + t_2 x^2, so 2x + 4x^2 also
# vanishes at -3/2 and 3x + 3x^2 at -2; an even P vanishes at -1 too, and a constant everywhere
ZEROS_ON_THE_GRID = [
    ArithPolynomial(6, ((1, 2), (2, 4))),
    ArithPolynomial(6, ((1, 3), (2, 3))),
    ArithPolynomial(9, ((0, 1), (2, 3), (4, 5))),
    ArithPolynomial(5, ((0, 5),)),
    ArithPolynomial(0, ()),
]


def test_sign_scan_matches_the_fraction_scan():
    polys = [
        *(seeded_polynomial(seed, degree, 12) for seed in range(2) for degree in (1, 2, 3, 6)),
        seeded_polynomial(0, 40, 12),
        seeded_polynomial(0, ROOT_SCAN_DEGREE_CEILING, 3),
        *ZEROS_ON_THE_GRID,
    ]
    zeros = []
    for p in polys:
        got = shifted_sign_scan(p)
        assert got == fraction_sign_scan(p), p
        zeros.append(got["exact_zeros_on_grid"])
    assert zeros[-5:] == [2, 2, 2, SCAN_STEPS + 1, SCAN_STEPS + 1]
