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
truncations of both sides. Their gap shrinks as the bounds grow only where
both sides converge at the chosen x and k: k >= 2 is needed but not
enough, since lemma-b, for one, diverges unless k > t + 1.

The classical zeta product and the partition generating product are kept
alongside as self-contained oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, islice
from math import gcd, isqrt
from operator import add, mul, ne
from typing import Callable, Iterator, NamedTuple, Sequence

from .classify import ArithFnHandle, evaluate_range
from .core import (
    LOCAL_FUNCTIONS,
    largest_prime_factor_order,
    local_function,
    partition_count,
    prime_power_table,
    primes_upto,
    takes_t,
)
from .powerseries import Rational, TruncatedSeries, as_rational


class LocalFactorSpec(NamedTuple):
    """Prime-local data (theta, kappa) defined on primes p and exponents a >= 1."""

    name: str
    theta: Callable[[int, int], Rational]
    kappa: Callable[[int, int], int]


class NumericCheck(NamedTuple):
    """Exact truncations of both sides of a product-vs-sum identity, and their gap."""

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

#: The least t of each stock spec that takes one: the least t that :data:`core.LOCAL_FUNCTIONS`
#: gives its direct function (sigma_t of lemma-b, L_t of lemma-d). A spec not listed takes no t.
LEMMA_LEAST_T = {which: LOCAL_FUNCTIONS[fn_id][2]
                 for which, direct in LEMMA_DIRECT.items() for fn_id in direct if takes_t(fn_id)}


def lemma_direct(which: str, t: int | None) -> tuple[tuple[str | None, int | None], ...]:
    """The direct ``(function id, t)`` pairs of a stock spec, alpha's then beta's, from
    :data:`LEMMA_DIRECT`: the spec's t goes to the id that takes one, and None to the others."""
    return tuple((fn_id, t if takes_t(fn_id) else None) for fn_id in LEMMA_DIRECT[which])


def builtin_spec(which: str, t: int | None = None) -> LocalFactorSpec:
    """The four stock specs: theta and kappa are the prime-power rules of their
    :func:`lemma_direct` functions in :data:`core.LOCAL_FUNCTIONS`, the constant 1 for None.

    lemma-a: theta = 1,                kappa = 1      -> (1, omega)
    lemma-b: theta = sigma_t(p^a),     kappa = 1      -> (sigma_t, omega)
    lemma-c: theta = a + 1,            kappa = 1      -> (d, omega)
    lemma-d: theta = 1,                kappa = a^t    -> (1, L_t)

    lemma-b and lemma-d need a t of at least their :data:`LEMMA_LEAST_T`, with no default;
    the other two take none.
    """
    if which not in LEMMA_DIRECT:
        raise ValueError(f"unknown identity id {which!r}; expected one of {BUILTIN_SPEC_IDS}")
    least = LEMMA_LEAST_T.get(which)
    if least is None and t is not None:
        raise ValueError(f"{which} takes no parameter t")
    if least is not None and (t is None or t < least):
        raise ValueError(f"{which} needs an integer parameter t >= {least}")
    theta, kappa = ((lambda p, a: 1) if fn_id is None else local_function(fn_id, fn_t)[0]
                    for fn_id, fn_t in lemma_direct(which, t))
    return LocalFactorSpec(which if t is None else f"{which}(t={t})", theta, kappa)


def verify_per_term(
    spec: LocalFactorSpec,
    direct_alpha: ArithFnHandle,
    direct_beta: ArithFnHandle,
    n_max: int,
) -> IdentityCheckReport:
    """Exact check that (alpha, beta) equal the direct functions for 2 <= n <= n_max."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    # the direct side comes from the functions' range tables, the spec side from theta and kappa;
    # alpha's pair of tables is dropped before beta's is built, so two of the four are alive at once
    failures = set()
    for direct, local, combine, unit in ((direct_alpha, spec.theta, mul, 1), (direct_beta, spec.kappa, add, 0)):
        want = evaluate_range(direct, n_max)
        got = prime_power_table(n_max, local, combine, unit)
        mismatches = map(ne, islice(got, 2, None), islice(want, 2, n_max + 1))
        failures.update(compress(count(2), mismatches))
        del want, got
    return IdentityCheckReport(tuple(sorted(failures)))


def exact_sum(numerators: Sequence[int], denominators: Sequence[int]) -> Fraction:
    """Exact sum of numerators[i] / denominators[i] (positive ints), by merging int pairs.

    With g = gcd(d, e), a/d + b/e = (a*(e/g) + b*(d/g)) / ((d/g)*e), so a
    denominator is the lcm of its terms', never their product. The first
    pass folds each run of four inputs, left to right, into one pair of a
    new list; later levels merge neighbouring pairs in place. The inputs are
    neither copied nor changed, and while they are still alive the first
    list holds a quarter as many pairs as there are terms. Only the final
    ``Fraction`` reduces. No terms give 0.
    """
    if len(numerators) != len(denominators):
        raise ValueError(f"{len(numerators)} numerators but {len(denominators)} denominators")
    if not numerators:
        return Fraction(0)
    nums, dens = [], []
    for j in range(0, len(numerators), 4):
        a, d = numerators[j], denominators[j]
        for i in range(j + 1, min(j + 4, len(numerators))):
            a, d = _merge(a, d, numerators[i], denominators[i])
        nums.append(a)
        dens.append(d)
    while (size := len(nums)) > 1:
        half = size // 2
        for i in range(half):
            nums[i], dens[i] = _merge(nums[2 * i], dens[2 * i], nums[2 * i + 1], dens[2 * i + 1])
        if size % 2:
            nums[half] = nums[-1]
            dens[half] = dens[-1]
            half += 1
        del nums[half:], dens[half:]
    return Fraction(nums[0], dens[0])


def _merge(a: int, d: int, b: int, e: int) -> tuple[int, int]:
    """a/d + b/e as an int pair over lcm(d, e)."""
    g = gcd(d, e)
    d //= g
    return a * (e // g) + b * d, d * e


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
        raise ValueError(f"k must be an integer >= 2, got {k}")
    if exp_bound < 1:
        raise ValueError(f"exp_bound must be >= 1, got {exp_bound}")
    xf = Fraction(as_rational(x))
    xpow: dict[int, Fraction] = {}
    nums, dens = [], []
    for p in primes_upto(prime_bound):
        pk = p**k
        pak = 1
        term_nums, term_dens = [1], [1]
        for a in range(1, exp_bound + 1):
            pak *= pk
            kap = spec.kappa(p, a)
            if kap not in xpow:
                xpow[kap] = xf**kap
            theta, xk = Fraction(spec.theta(p, a)), xpow[kap]
            term_nums.append(theta.numerator * xk.numerator)
            term_dens.append(theta.denominator * xk.denominator * pak)
        inner = exact_sum(term_nums, term_dens)
        nums.append(inner.numerator)
        dens.append(inner.denominator)
    while (size := len(nums)) > 1:
        nums = [*map(mul, nums[::2], nums[1::2]), *nums[size & ~1:]]
        dens = [*map(mul, dens[::2], dens[1::2]), *dens[size & ~1:]]
    return Fraction(nums[0], dens[0]) if nums else Fraction(1)


def _sum_order(n_max: int) -> Iterator[int]:
    """1, then ``2..n_max`` in :func:`~arithmos.core.largest_prime_factor_order`."""
    return chain((1,), largest_prime_factor_order(n_max))


def truncated_sum_eval(
    spec: LocalFactorSpec,
    x: Rational,
    k: int,
    n_max: int,
) -> Fraction:
    """Exact value of 1 + sum_{n=2..n_max} alpha(n) x^beta(n) / n^k, as one :func:`exact_sum`.

    With x^b = u/v in lowest terms, v > 0, for each value b of beta, the
    term of n is the int pair (alpha(n) u, n^k v), a ``Fraction`` alpha(n)
    giving its numerator and denominator; the 1 is the term of n = 1, where
    alpha = 1 and beta = 0. A negative b puts the power of x's numerator in
    v, so x = 0 then raises ``ZeroDivisionError``. The terms after n = 1 come
    in :func:`~arithmos.core.largest_prime_factor_order`: neighbours share
    the power p^k of their largest prime, so the merge's low-level lcms stay
    small. The pair lists are built in that order, never permuted copies.
    """
    if k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    xf = Fraction(as_rational(x))
    alpha, beta = spec_table(spec, n_max)
    powers = {b: (xb.numerator, xb.denominator) for b, xb in ((b, xf**b) for b in set(beta))}
    nums = [alpha[n].numerator * powers[beta[n]][0] for n in _sum_order(n_max)]
    dens = [alpha[n].denominator * n**k * powers[beta[n]][1] for n in _sum_order(n_max)]
    del alpha, beta, powers
    return exact_sum(nums, dens)


def numeric_identity_check(
    spec: LocalFactorSpec,
    x: Rational,
    k: int,
    prime_bound: int,
    exp_bound: int,
    n_max: int,
) -> NumericCheck:
    """Evaluate both truncations and report their exact absolute gap."""
    # the sum's lists are the memory peak; built first, they reuse no heap the product left fragmented
    rhs = truncated_sum_eval(spec, x, k, n_max)
    lhs = truncated_product_eval(spec, x, k, prime_bound, exp_bound)
    return NumericCheck(lhs, rhs, abs(lhs - rhs))


def euler_zeta_check(s: int, n_max: int, prime_bound: int) -> NumericCheck:
    """Truncate both sides of the zeta product-sum identity exactly.

    The product side (lhs) multiplies the closed-form geometric factors
    p^s / (p^s - 1) over p <= prime_bound; the sum side (rhs) is
    sum_{n=1..n_max} n^-s, one :func:`exact_sum` with its terms in the order
    of :func:`truncated_sum_eval`. The gap shrinks as both bounds grow.
    """
    if s < 2:
        raise ValueError(f"s must be an integer >= 2, got {s}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rhs = exact_sum([1] * n_max, [n**s for n in _sum_order(n_max)])
    num = 1
    den = 1
    for p in primes_upto(prime_bound):
        ps = p**s
        num *= ps
        den *= ps - 1
    lhs = Fraction(num, den)
    return NumericCheck(lhs, rhs, abs(lhs - rhs))


def partition_product_series(order: int) -> TruncatedSeries:
    """Expand prod_{m=1..order} (1 + x^m + x^2m + ...) truncated at the order.

    Multiplying by one truncated geometric factor 1/(1 - x^m) is the
    in-place prefix recurrence c[i] += c[i - m], run in blocks of m: block
    [i, i + m) adds the block before it, which is already final. One pass
    per factor would be O(order^2) integer additions, so the factors are
    split at s = isqrt(order). Taking s from each part of a partition into j
    parts, all above s, leaves a partition into exactly j parts, so

        prod_{m>s} 1/(1 - x^m) = sum_{j>=0} x^(j(s+1)) E_j,
        E_j = 1/((1 - x)(1 - x^2)...(1 - x^j)),

    and only j <= order // (s + 1) <= s reach the order. E_j grows from
    E_{j-1} by one recurrence pass of stride j, cut to the length it
    needs, and is added in at x^(j(s+1)); the factors m <= s are then one
    recurrence pass each. That is O(order^1.5) additions: about 0.32
    million at order 3000, against 4.5 million for one pass per factor.
    Neither the series kernel nor the pentagonal recurrence is used, so
    :func:`partition_product_check` compares two independent routes.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    s = isqrt(order)
    coeffs = [1] + [0] * order
    parts = [1] + [0] * order
    for j in range(1, order // (s + 1) + 1):
        shift = j * (s + 1)
        del parts[order + 1 - shift:]
        for i in range(j, len(parts), j):
            parts[i:i + j] = map(add, parts[i:i + j], parts[i - j:i])
        coeffs[shift:] = map(add, coeffs[shift:], parts)
    for m in range(1, s + 1):
        for i in range(m, order + 1, m):
            coeffs[i:i + m] = map(add, coeffs[i:i + m], coeffs[i - m:i])
    return TruncatedSeries(order, tuple(coeffs))


def partition_product_check(order: int) -> IdentityCheckReport:
    """Compare the product expansion against the pentagonal recurrence values."""
    series = partition_product_series(order)
    partition_count(order)  # one fill of the cache, not one copy of it per n
    failures = tuple(
        n for n in range(order + 1) if series.coeffs[n] != partition_count(n)
    )
    return IdentityCheckReport(failures)
