"""Exponent-histogram polynomials and their exact probability views.

Sweeping an integer-valued function beta over ``1..M`` and counting how
often each value occurs gives the polynomial

    1 + t_1 x^(s_1) + ... + t_L x^(s_L),   sum of t_j = M,

with a standalone leading 1 by convention. Evaluated at x = 1 it equals
M + 1, so dividing every coefficient by M + 1 yields an exact probability
mass function; the polynomial becomes the moment generating polynomial of
the induced discrete random variable.

One bookkeeping subtlety: the polynomial keeps the leading 1 separate
from any genuine t_0 x^0 term (beta hits 0 at n = 1 for most counting
functions), but a PMF needs unique support points, so normalization
merges both masses at value 0.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import NamedTuple

from .classify import ArithFnHandle, evaluate_range
from .powerseries import format_rational


class ArithPolynomial(NamedTuple):
    """Histogram polynomial over 1..M: (exponent, count) pairs, exponents ascending."""

    M: int
    terms: tuple[tuple[int, int], ...]


class Pmf(NamedTuple):
    """Exact PMF: (value, probability) pairs with positive masses summing to 1."""

    support: tuple[tuple[int, Fraction], ...]


def build_polynomial(beta: ArithFnHandle, M: int) -> ArithPolynomial:
    """Histogram of beta(n) over n = 1..M; beta must be nonnegative-integer valued.

    A table of nonnegative ints is counted in one ``Counter`` pass; otherwise
    each value is checked in turn, integral ``Fraction``s are counted as
    ints, and the first n whose value is negative or not an integer (a
    float, a bool, a non-integral ``Fraction``) raises ``ValueError``.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    values = evaluate_range(beta, M)
    if set(map(type, islice(values, 1, M + 1))) == {int}:
        counts = Counter(islice(values, 1, M + 1))
        if min(counts) >= 0:
            return ArithPolynomial(M, tuple(sorted(counts.items())))
    counts = Counter()
    for n in range(1, M + 1):
        val = values[n]
        if type(val) is not int:
            if not isinstance(val, Fraction):
                raise ValueError(f"{beta.name}({n}) = {val!r} is not an integer")
            if val.denominator != 1:
                raise ValueError(f"{beta.name}({n}) = {val} is not an integer")
            val = val.numerator
        if val < 0:
            raise ValueError(f"{beta.name}({n}) = {val} is negative")
        counts[val] += 1
    return ArithPolynomial(M, tuple(sorted(counts.items())))


def eval_at_one(p: ArithPolynomial) -> int:
    """1 + sum of counts; always equals M + 1."""
    return 1 + sum(t for _, t in p.terms)


def normalize(p: ArithPolynomial) -> Pmf:
    """Divide every coefficient by M + 1; the leading 1 merges into value 0."""
    den = p.M + 1
    masses = dict(p.terms)
    masses[0] = masses.get(0, 0) + 1
    support = tuple((s, Fraction(t, den)) for s, t in sorted(masses.items()))
    return Pmf(support)


def moment(pmf: Pmf, r: int) -> Fraction:
    """r-th raw moment, sum of q_j s_j^r, exact."""
    if r < 1:
        raise ValueError(f"moment order must be >= 1, got {r}")
    return sum((q * s**r for s, q in pmf.support), Fraction(0))


#: The grid of :func:`shifted_sign_scan`: SCAN_STEPS + 1 evenly spaced points on
#: [SCAN_LO, SCAN_HI], so x = 1 is grid point 200.
SCAN_LO, SCAN_HI, SCAN_STEPS = Fraction(-4), Fraction(2), 240


def shifted_sign_scan(p: ArithPolynomial) -> dict:
    """Count sign changes of P(x) - (M+1) on the fixed grid over [SCAN_LO, SCAN_HI].

    Exact evaluation at SCAN_STEPS + 1 points; a sign change between neighbours
    certifies a real root in that subinterval, so the count is a lower
    bound on the number of real roots. Evidence only, nothing asserted.
    Each grid point is a/q with one q > 0, and q^D (P(a/q) - (M+1)), D the
    degree, has the same sign. It is evaluated in ints, with no ``Fraction``,
    by Horner's rule over the coefficients c_s q^(D - s) of the exponents s
    that occur, 0 among them, each step multiplying by the power of a that
    spans the gap to the next one.
    """
    degree = p.terms[-1][0] if p.terms else 0
    step = (SCAN_HI - SCAN_LO) / SCAN_STEPS
    q = lcm(SCAN_LO.denominator, step.denominator)
    lo, dx = int(SCAN_LO * q), int(step * q)
    coeffs = {0: 1 - eval_at_one(p)}
    for s, t in p.terms:
        coeffs[s] = coeffs.get(s, 0) + t
    scaled = [(s, c * q ** (degree - s)) for s, c in sorted(coeffs.items(), reverse=True)]
    changes = zeros = 0
    prev = None  # sign of the last nonzero value; exact zeros are skipped
    for a in range(lo, lo + SCAN_STEPS * dx + 1, dx):
        val, top = 0, degree
        for s, c in scaled:
            val = val * a ** (top - s) + c
            top = s
        if val == 0:
            zeros += 1
            continue
        if prev is not None and (val > 0) != prev:
            changes += 1
        prev = val > 0
    return {
        "lo": format_rational(SCAN_LO),
        "hi": format_rational(SCAN_HI),
        "steps": SCAN_STEPS,
        "degree": degree,
        "sign_changes": changes,
        "exact_zeros_on_grid": zeros,
    }
