"""Product/series identity engine built on prime-local data.

A :class:`LocalFactorSpec` supplies two prime-power tables: a rational
weight ``theta(p, a)`` and an integer exponent ``kappa(p, a)``. Those
induce the pair

    alpha(n) = product of theta(p_i, e_i)   (multiplicative by construction)
    beta(n)  = sum of kappa(p_i, e_i)       (additive by construction)

over the prime powers exactly dividing n, and with them the formal identity

    prod_p (1 + sum_a theta(p,a) x^kappa(p,a) / p^(a k))
        = 1 + sum_{n>=2} alpha(n) x^beta(n) / n^k.

Each side is checked two independent ways: per-term exact agreement of
:func:`spec_table`, a prime-power sieve over theta and kappa, with the
direct functions' range tables for every n up to a bound (the
combinatorial content of the identity — every summand arises from one
choice of one term per prime), and numeric agreement of exact rational
truncations of both sides, whose gap must shrink as the bounds grow.

The classical zeta product and the partition generating product are kept
alongside as self-contained oracles.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Callable, NamedTuple, Sequence

from .classify import ArithFnHandle, evaluate_range
from .core import partition_count, prime_power_table, primes_upto
from .powerseries import Rational, TruncatedSeries, as_rational


class LocalFactorSpec(NamedTuple):
    """Prime-local data (theta, kappa) defined on primes p and exponents a >= 1."""

    name: str
    theta: Callable[[int, int], Rational]
    kappa: Callable[[int, int], int]


class NumericCheck(NamedTuple):
    lhs: Fraction  # truncated product
    rhs: Fraction  # truncated sum
    gap: Fraction


class IdentityCheckReport(NamedTuple):
    """Per-term failures of one spec (or of the partition product)."""

    per_term_failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.per_term_failures


def spec_table(spec: LocalFactorSpec, n_max: int) -> tuple[list[Rational], list[int]]:
    """``(alpha, beta)`` over ``0..n_max``; n = 1 and the padding at 0 give (1, 0)."""
    return prime_power_table(n_max, spec.theta, mul, 1), prime_power_table(n_max, spec.kappa, add, 0)


#: The direct functions of each stock spec: identity id -> (alpha function id,
#: beta function id), where None is the constant 1.
LEMMA_DIRECT = {
    "lemma-a": (None, "omega"),
    "lemma-b": ("sigma", "omega"),
    "lemma-c": ("d", "omega"),
    "lemma-d": (None, "L"),
}

BUILTIN_SPEC_IDS = tuple(LEMMA_DIRECT)


def builtin_spec(which: str, t: int | None = None) -> LocalFactorSpec:
    """The four stock specs, with the direct pairs of :data:`LEMMA_DIRECT`.

    lemma-a: theta = 1,                kappa = 1      -> (1, omega)
    lemma-b: theta = sigma_t(p^a),     kappa = 1      -> (sigma_t, omega), t >= 0
    lemma-c: theta = a + 1,            kappa = 1      -> (d, omega)
    lemma-d: theta = 1,                kappa = a^t    -> (1, L_t), t >= 1
    """
    if which in ("lemma-a", "lemma-c") and t is not None:
        raise ValueError(f"{which} takes no parameter t")
    if which == "lemma-a":
        return LocalFactorSpec("lemma-a", lambda p, a: 1, lambda p, a: 1)
    if which == "lemma-b":
        if t is None or t < 0:
            raise ValueError("lemma-b needs an integer parameter t >= 0")
        def sigma_local(p: int, a: int, _t=t) -> int:
            pt = p**_t
            total, acc = 1, 1
            for _ in range(a):
                acc *= pt
                total += acc
            return total
        return LocalFactorSpec(f"lemma-b(t={t})", sigma_local, lambda p, a: 1)
    if which == "lemma-c":
        return LocalFactorSpec("lemma-c", lambda p, a: a + 1, lambda p, a: 1)
    if which == "lemma-d":
        if t is None or t < 1:
            raise ValueError("lemma-d needs an integer parameter t >= 1")
        return LocalFactorSpec(f"lemma-d(t={t})", lambda p, a: 1, lambda p, a, _t=t: a**_t)
    raise ValueError(f"unknown identity id {which!r}; expected one of {BUILTIN_SPEC_IDS}")


def verify_per_term(
    spec: LocalFactorSpec,
    direct_alpha: ArithFnHandle,
    direct_beta: ArithFnHandle,
    n_max: int,
) -> IdentityCheckReport:
    """Exact check that (alpha, beta) equal the direct functions for 2 <= n <= n_max."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    # the direct side comes from the functions' range tables, the spec side from theta and kappa
    direct_a = evaluate_range(direct_alpha, n_max)
    direct_b = evaluate_range(direct_beta, n_max)
    alpha, beta = spec_table(spec, n_max)
    return IdentityCheckReport(tuple(
        n for n in range(2, n_max + 1) if alpha[n] != direct_a[n] or beta[n] != direct_b[n]
    ))


def exact_sum(terms: Sequence[Fraction]) -> Fraction:
    """Exact sum by pairwise merging.

    Balanced merging keeps intermediate denominators comparable in size,
    which is dramatically cheaper than a left fold when the terms have
    thousands of distinct prime factors among their denominators.
    """
    if not terms:
        return Fraction(0)
    work = list(terms)
    while len(work) > 1:
        nxt = [work[i] + work[i + 1] for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return Fraction(work[0])


def truncated_product_eval(
    spec: LocalFactorSpec,
    x: Rational,
    k: int,
    prime_bound: int,
    exp_bound: int,
) -> Fraction:
    """Exact product over primes p <= prime_bound of the truncated local sums.

    Each factor is 1 + sum_{a=1..exp_bound} theta(p,a) x^kappa(p,a) / p^(a k).
    An empty prime range gives 1.
    """
    if k < 2:
        raise ValueError(f"k must be an integer >= 2 for convergent truncations, got {k}")
    if exp_bound < 1:
        raise ValueError(f"exp_bound must be >= 1, got {exp_bound}")
    xf = Fraction(as_rational(x))
    xpow: dict[int, Fraction] = {}
    result = Fraction(1)
    for p in primes_upto(prime_bound):
        pk = p**k
        pak = 1
        inner = Fraction(1)
        for a in range(1, exp_bound + 1):
            pak *= pk
            kap = spec.kappa(p, a)
            if kap not in xpow:
                xpow[kap] = xf**kap
            inner += Fraction(spec.theta(p, a)) * xpow[kap] / pak
        result *= inner
    return result


def truncated_sum_eval(
    spec: LocalFactorSpec,
    x: Rational,
    k: int,
    n_max: int,
) -> Fraction:
    """Exact value of 1 + sum_{n=2..n_max} alpha(n) x^beta(n) / n^k, summed per value of beta(n)."""
    if k < 2:
        raise ValueError(f"k must be an integer >= 2 for convergent truncations, got {k}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    xf = Fraction(as_rational(x))
    alpha, beta = spec_table(spec, n_max)
    groups: dict[int, list[Fraction]] = {}
    for n in range(2, n_max + 1):
        groups.setdefault(beta[n], []).append(Fraction(alpha[n], n**k))
    del alpha, beta
    return sum((xf**b * exact_sum(terms) for b, terms in groups.items()), Fraction(1))


def numeric_identity_check(
    spec: LocalFactorSpec,
    x: Rational,
    k: int,
    prime_bound: int,
    exp_bound: int,
    n_max: int,
) -> NumericCheck:
    """Evaluate both truncations and report their exact absolute gap."""
    lhs = truncated_product_eval(spec, x, k, prime_bound, exp_bound)
    rhs = truncated_sum_eval(spec, x, k, n_max)
    return NumericCheck(lhs, rhs, abs(lhs - rhs))


class EulerZetaCheck(NamedTuple):
    sum_value: Fraction
    product_value: Fraction
    gap: Fraction


def euler_zeta_check(s: int, n_max: int, prime_bound: int) -> EulerZetaCheck:
    """Truncate both sides of the zeta product-sum identity exactly.

    The sum side is sum_{n=1..n_max} n^-s; the product side multiplies the
    closed-form geometric factors p^s / (p^s - 1) over p <= prime_bound.
    The gap shrinks as both bounds grow.
    """
    if s < 2:
        raise ValueError(f"s must be an integer >= 2, got {s}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    sum_value = exact_sum([Fraction(1, n**s) for n in range(1, n_max + 1)])
    num = 1
    den = 1
    for p in primes_upto(prime_bound):
        ps = p**s
        num *= ps
        den *= ps - 1
    product_value = Fraction(num, den)
    return EulerZetaCheck(sum_value, product_value, abs(sum_value - product_value))


def partition_product_series(order: int) -> TruncatedSeries:
    """Expand prod_{m=1..order} (1 + x^m + x^2m + ...) truncated at the order.

    Multiplying by one truncated geometric factor is the in-place prefix
    recurrence c[i] += c[i - m], applied for each stride m; the result is
    identical to the dense truncated product but costs O(order^2) integer
    additions overall. The recurrence runs in blocks of m: block
    [i, i + m) adds the block before it, which is already final, so the
    additions are the same and in the same order as one index at a time.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for m in range(1, order + 1):
        for i in range(m, order + 1, m):
            coeffs[i:i + m] = map(add, coeffs[i:i + m], coeffs[i - m:i])
    return TruncatedSeries(order, tuple(coeffs))


def partition_product_check(order: int) -> IdentityCheckReport:
    """Compare the product expansion against the pentagonal recurrence values."""
    series = partition_product_series(order)
    failures = tuple(
        n for n in range(order + 1) if series.coeffs[n] != partition_count(n)
    )
    return IdentityCheckReport(failures)
