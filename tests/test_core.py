import tracemalloc
from bisect import bisect_right
from functools import lru_cache, partial
from itertools import repeat
from math import gcd, isqrt
from operator import add, mul, neg

import pytest

from arithmos import core
from arithmos.classify import ArithFnHandle, EvaluationError
from arithmos.core import (
    Factors,
    build_sieve,
    factorize,
    largest_prime_factor_order,
    local_function,
    partition_count,
    prime_count_upto,
    primes_upto,
    range_values,
    trial_factorize,
)
from arithmos.functions import make_handle
from arithmos.identities import LocalFactorSpec, builtin_spec, spec_table, verify_per_term


# --- independent oracles ---------------------------------------------------

def divisors_of(n):
    out = []
    for k in range(1, isqrt(n) + 1):
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
    return sorted(out)


def prime_factors_by_trial(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_by_trial(n):
    if n < 2:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def primes_by_trial(limit):
    return [p for p in range(2, limit + 1) if is_prime_by_trial(p)]


# the functions of a whole factorization, one formula each, apart from the prime-power rules of
# core.LOCAL_FUNCTIONS that range_values and the handles' eval read

def divisor_count(f: Factors) -> int:
    """d(n): number of divisors, the product of (e_i + 1)."""
    out = 1
    for _, e in f:
        out *= e + 1
    return out


def divisor_power_sum(f: Factors, t: int) -> int:
    """sigma_t(n): sum of t-th powers of all divisors; t = 0 gives d(n)."""
    if t < 0:
        raise ValueError(f"divisor power must be >= 0, got {t}")
    out = 1
    for p, e in f:
        pt = p**t
        term = 1
        acc = 1
        for _ in range(e):
            acc *= pt
            term += acc
        out *= term
    return out


def distinct_prime_count(f: Factors) -> int:
    """omega(n): number of distinct prime divisors; omega(1) = 0."""
    return len(f)


def exponent_power_sum(f: Factors, t: int) -> int:
    """L_t(n): sum of t-th powers of the exponents; L_1 is Omega(n)."""
    if t < 1:
        raise ValueError(f"exponent power must be >= 1, got {t}")
    return sum(e**t for _, e in f)


def euler_totient(f: Factors) -> int:
    """phi(n): count of 1 <= k <= n coprime to n; phi(1) = 1."""
    out = 1
    for p, e in f:
        out *= p ** (e - 1) * (p - 1)
    return out


def totient_sieve(limit):
    # in-place multiple sweep; never consults a factorization
    tot = list(range(limit + 1))
    for i in range(2, limit + 1):
        if tot[i] == i:  # i prime
            for j in range(i, limit + 1, i):
                tot[j] -= tot[j] // i
    return tot


@lru_cache(maxsize=None)
def partitions_brute(n, max_part=None):
    # count partitions with parts <= max_part by direct recursion
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    total = 0
    for first in range(min(n, max_part), 0, -1):
        total += partitions_brute(n - first, first)
    return total


# --- sieve -----------------------------------------------------------------

def test_sieve_small_entries():
    s = build_sieve(10)
    assert s[10] == 2
    assert s[9] == 3
    assert s[7] == 7


def test_sieve_base_case():
    s = build_sieve(2)
    assert s[2] == 2


def test_sieve_large_prime_entry():
    s = build_sieve(10**6)
    assert is_prime_by_trial(999983)
    assert s[999983] == 999983


def loop_sieve(limit):
    """The earlier :func:`build_sieve`: ``list(range(limit + 1))``, then each prime's multiples in turn."""
    spf = list(range(limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def test_sieve_matches_the_loop_sieve_at_every_limit(monkeypatch):
    # an entry of the loop sieve depends on its index only, so its table at a limit is the prefix
    # of its table at 3000; every build starts from an empty cache, and keeps its primes
    for top, limits in ((3000, range(3001)), (2 * 10**5, [2 * 10**5])):
        want = loop_sieve(top)
        primes = [p for p in range(2, top + 1) if want[p] == p]
        for limit in limits:
            monkeypatch.setattr(core, "_spf", [])
            monkeypatch.setattr(core, "_prime_list", (1, []))
            assert build_sieve(limit) == want[:limit + 1], limit
            assert core._prime_list == (limit, primes[:bisect_right(primes, limit)]), limit


def test_sieve_invariants_sample(sieve10k):
    spf = sieve10k
    for k in range(2, 3000):
        assert k % spf[k] == 0
        assert is_prime_by_trial(spf[k])
        assert (spf[k] == k) == is_prime_by_trial(k)


# --- factorization ----------------------------------------------------------

def test_factorize_one(sieve10k):
    assert factorize(1) == ()


def test_factorize_twelve(sieve10k):
    assert factorize(12) == ((2, 2), (3, 1))


def test_factorize_prime(sieve10k):
    assert factorize(97) == ((97, 1),)


def test_factorize_rejects_zero(sieve10k):
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_beyond_the_sieve_trial_divides(sieve10k):
    for n in (97**20, 10**12 + 39):
        assert n >= len(core._spf)
        assert factorize(n) == trial_factorize(n)


def test_factorize_matches_trial_division(sieve10k):
    for n in range(1, 2000):
        f = factorize(n)
        assert f == tuple(prime_factors_by_trial(n))
        prod = 1
        for p, e in f:
            prod *= p**e
        assert prod == n
        assert list(f) == sorted(f)


def test_trial_factorize_handles_large_prime_powers():
    f = trial_factorize(97**5)
    assert f == ((97, 5),)
    assert trial_factorize(1) == ()
    with pytest.raises(ValueError):
        trial_factorize(0)


# --- arithmetical functions vs oracles ---------------------------------------

def test_divisor_count_examples(sieve10k):
    assert divisor_count(factorize(1)) == 1
    assert divisor_count(factorize(12)) == len(divisors_of(12)) == 6
    assert divisor_count(factorize(97)) == 2


def test_divisor_power_sum_examples(sieve10k):
    assert divisor_power_sum(factorize(1), 3) == 1
    assert divisor_power_sum(factorize(6), 1) == 1 + 2 + 3 + 6
    assert divisor_power_sum(factorize(12), 0) == divisor_count(factorize(12))
    with pytest.raises(ValueError):
        divisor_power_sum(factorize(6), -1)


def test_omega_examples(sieve10k):
    assert distinct_prime_count(factorize(1)) == 0
    assert distinct_prime_count(factorize(12)) == 2
    assert distinct_prime_count(factorize(30)) == 3


def test_exponent_power_sum_examples(sieve10k):
    assert exponent_power_sum(factorize(1), 2) == 0
    assert exponent_power_sum(factorize(12), 1) == 3
    assert exponent_power_sum(factorize(12), 2) == 5
    with pytest.raises(ValueError):
        exponent_power_sum(factorize(12), 0)


def test_totient_examples(sieve10k):
    assert euler_totient(factorize(1)) == 1
    assert euler_totient(factorize(12)) == sum(
        1 for k in range(1, 12) if gcd(k, 12) == 1
    )
    for p in (2, 3, 97, 9973):
        assert euler_totient(factorize(p)) == p - 1


def test_function_suite_against_enumeration(sieve10k):
    # full-range cross-check against divisor enumeration and exponent recount
    for n in range(1, 10**4 + 1):
        f = factorize(n)
        divs = divisors_of(n)
        assert divisor_count(f) == len(divs)
        assert divisor_power_sum(f, 0) == divisor_count(f)
        assert divisor_power_sum(f, 1) == sum(divs)
        assert divisor_power_sum(f, 2) == sum(d * d for d in divs)
        facs = prime_factors_by_trial(n)
        assert distinct_prime_count(f) == len(facs)
        assert exponent_power_sum(f, 1) == sum(e for _, e in facs)


def test_totient_against_gcd_count(sieve10k):
    for n in range(1, 1500):
        expected = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert euler_totient(factorize(n)) == expected


def test_totient_against_sieve_oracle(sieve10k):
    tot = totient_sieve(10**4)
    for n in range(1, 10**4 + 1):
        assert euler_totient(factorize(n)) == tot[n]


def test_prime_count_examples(sieve10k):
    assert prime_count_upto(1) == 0
    assert prime_count_upto(10) == 4
    assert prime_count_upto(100) == 25
    assert prime_count_upto(10**4) == sum(
        1 for k in range(2, 10**4 + 1) if is_prime_by_trial(k)
    )


def test_prime_count_rejects_nonpositive():
    # the n >= 1 raise of prime_count_upto
    with pytest.raises(ValueError, match="need a positive integer, got 0"):
        prime_count_upto(0)


def test_make_handle_rejects_an_unknown_id():
    # the unknown-id raise of make_handle
    with pytest.raises(ValueError, match="unknown function id 'nope'"):
        make_handle("nope")


def test_primes_upto_helper(sieve10k):
    assert primes_upto(1) == []
    assert primes_upto(10) == [2, 3, 5, 7]


def test_largest_prime_factor_order_at_every_limit(sieve10k):
    # the spec: 2..limit sorted by P+(n) descending, then by n, with P+ from factorize; the key
    # does not depend on the limit, so each limit's order is the full one without the n above it
    top = 2000
    largest = {n: factorize(n)[-1][0] for n in range(2, top + 1)}
    want = sorted(largest, key=lambda n: (-largest[n], n))
    assert want[:3] == [1999, 1997, 1993] and want[-10:] == [2**a for a in range(1, 11)]
    for limit in range(top + 1):
        assert list(largest_prime_factor_order(limit)) == [n for n in want if n <= limit], limit


def test_largest_prime_factor_order_holds_no_list_of_n(sieve100k):
    # a list of the n, or a table with a slot per n, would take at least 8 bytes per n
    limit = 10**5
    tracemalloc.start()
    try:
        assert sum(1 for _ in largest_prime_factor_order(limit)) == limit - 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * limit


# --- partition counts --------------------------------------------------------

def test_partition_base_cases():
    assert partition_count(0) == 1
    assert partition_count(1) == 1
    with pytest.raises(ValueError):
        partition_count(-1)


def test_partition_small_values_against_enumeration():
    for n in range(31):
        assert partition_count(n) == partitions_brute(n)


def test_partition_spot_values():
    assert partition_count(5) == 7
    assert partition_count(10) == 42


# --- one-pass range tables vs the per-n oracles ---------------------------------

# every factorization-local id with the per-n function it must reproduce
LOCAL_CASES = [
    ("d", None, divisor_count),
    *(("sigma", t, lambda f, t=t: divisor_power_sum(f, t)) for t in (0, 1, 2, 3)),
    ("omega", None, distinct_prime_count),
    ("bigomega", None, lambda f: exponent_power_sum(f, 1)),
    *(("L", t, lambda f, t=t: exponent_power_sum(f, t)) for t in (1, 2)),
    ("phi", None, euler_totient),
]


@pytest.mark.parametrize("limit", [1, 2])
def test_range_values_tiny_limits(limit):
    for fn_id, t, per_n in LOCAL_CASES:
        values = range_values(fn_id, limit, t)
        assert values == [0] + [per_n(factorize(n)) for n in range(1, limit + 1)], (fn_id, t)
    assert range_values("pi", limit) == [0, 0, 1][: limit + 1]
    assert range_values("partition", limit) == [0, 1, 2][: limit + 1]


def test_range_values_match_factorize_everywhere(sieve100k):
    limit = 10**5
    facs = [None] + [factorize(n) for n in range(1, limit + 1)]
    for fn_id, t, per_n in LOCAL_CASES:
        values = range_values(fn_id, limit, t)
        assert len(values) == limit + 1
        bad = [n for n in range(1, limit + 1) if values[n] != per_n(facs[n])]
        assert not bad, (fn_id, t, bad[:5])


# --- the rules against routes that read none of them ---------------------------------------------

# d = 1 * 1, sigma_t = 1 * id_t and phi = mu * id by Dirichlet convolution of n-level data, and
# omega, Omega and L_t by their "divides" forms; none of them calls a rule of core.LOCAL_FUNCTIONS,
# so each checks the rule that range_values and spec_table both read
ROUTE_LIMIT = 10**5


def mobius_table(limit):
    """mu over 0..limit from its squarefree definition: one sign flip per prime dividing n, and 0
    at every multiple of a prime square."""
    mu = [1] * (limit + 1)
    for p in primes_upto(limit):
        mu[p::p] = map(neg, mu[p::p])
        mu[p * p::p * p] = [0] * (limit // (p * p))
    return mu


def dirichlet(f, g):
    """(f * g)(n) = sum over d | n of f(d) g(n/d), for lists f and g over 0..N, as a harmonic loop:
    for each d with f(d) != 0, one slice adds f(d) g(1..N/d) to the multiples of d."""
    limit = len(f) - 1
    v = [0] * (limit + 1)
    for d in range(1, limit + 1):
        if f[d]:
            row = g[1:limit // d + 1]
            v[d::d] = map(add, v[d::d], row if f[d] == 1 else map(mul, repeat(f[d]), row))
    return v


def divides_table(limit, w):
    """beta over 0..limit from its "divides" form, beta(n) = sum of w(a) - w(a - 1) over every prime
    power p^a dividing n, w(0) = 0: one slice per prime power."""
    v = [0] * (limit + 1)
    for p in primes_upto(limit):
        q, a = p, 1
        while q <= limit:
            v[q::q] = map(add, v[q::q], repeat(w(a) - w(a - 1)))
            q, a = q * p, a + 1
    return v


INDEPENDENT_ROUTES = [
    ("d", None, lambda n: dirichlet([0] + [1] * n, [0] + [1] * n)),
    *(("sigma", t, lambda n, t=t: dirichlet([0] + [1] * n, [m**t for m in range(n + 1)])) for t in range(4)),
    ("phi", None, lambda n: dirichlet(mobius_table(n), list(range(n + 1)))),
    ("omega", None, lambda n: divides_table(n, lambda a: min(a, 1))),
    ("bigomega", None, lambda n: divides_table(n, lambda a: a)),
    *(("L", t, lambda n, t=t: divides_table(n, lambda a: a**t)) for t in (1, 2, 3)),
]


def first_difference(got, want):
    return next((n for n, (u, v) in enumerate(zip(got, want), 1) if u != v), None)


@pytest.mark.parametrize("fn_id, t, route", INDEPENDENT_ROUTES,
                         ids=[fn_id if t is None else f"{fn_id}_{t}" for fn_id, t, _ in INDEPENDENT_ROUTES])
def test_rules_match_a_route_that_reads_no_rule(sieve100k, fn_id, t, route):
    # over 1..ROUTE_LIMIT: the spf walk of range_values, and the spec table of a spec whose theta
    # (multiplicative id) or kappa (additive id) is the id's rule
    want = route(ROUTE_LIMIT)[1:]
    rule, additive = local_function(fn_id, t)
    one = lambda p, a: 1
    alpha, beta = spec_table(LocalFactorSpec(fn_id, one if additive else rule, rule if additive else one),
                             ROUTE_LIMIT)
    for route_name, got in (("range_values", range_values(fn_id, ROUTE_LIMIT, t)[1:]),
                            ("spec_table", (beta if additive else alpha)[1:])):
        assert got == want, (route_name, first_difference(got, want))


def test_handle_eval_matches_factorize_oracles(sieve10k):
    # the per-n eval folds the rule over factorize, so beyond the sieve it trial-divides
    beyond = (97**20, 2**40 * 3**5, 1009 * 10007**3)
    for fn_id, t, per_n in LOCAL_CASES:
        ev = make_handle(fn_id, t).eval
        bad = [n for n in (*range(1, 2001), *beyond) if ev(n) != per_n(factorize(n))]
        assert not bad, (fn_id, t, bad[:5])


def test_range_values_rejects_bad_arguments(sieve10k):
    with pytest.raises(ValueError):
        range_values("d", 0)
    with pytest.raises(ValueError):
        range_values("log", 10)
    with pytest.raises(ValueError):
        range_values("sigma", 10, -1)
    with pytest.raises(ValueError):
        range_values("L", 10, 0)
    # a t for an id that takes none is refused with make_handle's message, not ignored
    for call in (partial(range_values, "d", 10, 5), partial(range_values, "pi", 10, 3),
                 partial(range_values, "partition", 10, 1), partial(local_function, "omega", 1)):
        with pytest.raises(ValueError, match="parameter t does not apply to"):
            call()


def test_prime_count_prefix_matches_oracle_everywhere(sieve10k):
    values = range_values("pi", 10**4)
    assert all(values[n] == prime_count_upto(n) for n in range(1, 10**4 + 1))


def _sieve_of(monkeypatch, limit):
    monkeypatch.setattr(core, "_spf", [])
    return core.build_sieve(limit)


def test_results_do_not_depend_on_the_shared_sieve(monkeypatch):
    # the shared sieve empty, smaller than the request and larger, each with the shared prime list
    # empty; then the list longer than an empty and a small sieve, and short of the request with a
    # large one: every call starts from what it finds
    top = 600
    empty, small, large = [], _sieve_of(monkeypatch, 50), _sieve_of(monkeypatch, 5000)
    assert [len(spf) for spf in (empty, small, large)] == [0, 51, 5001]
    short, long = (50, primes_by_trial(50)), (5000, primes_by_trial(5000))
    states = [(empty, (1, [])), (small, (1, [])), (large, (1, [])), (empty, long), (small, long), (large, short)]
    big = (97**20, 10**12 + 39)
    calls = {
        **{f"range_values {fn_id} {t}": partial(range_values, fn_id, top, t) for fn_id, t, _ in LOCAL_CASES},
        "range_values pi": partial(range_values, "pi", top),
        "range_values partition": partial(range_values, "partition", top),
        "factorize": lambda: [factorize(n) for n in range(1, top + 1)],
        "factorize beyond": lambda: [factorize(n) for n in big],
        "primes_upto": partial(primes_upto, top),
        "largest_prime_factor_order": lambda: list(largest_prime_factor_order(top)),
        "prime_count_upto": partial(prime_count_upto, top),
        "sigma_2 eval": lambda: [make_handle("sigma", t=2).eval(n) for n in range(1, top + 1)],
        "pi eval": lambda: [make_handle("pi").eval(n) for n in (1, 2, 50, 51, top, 4999, 5000, 5001)],
    }
    results = []
    for spf, prime_list in states:
        got = {}
        for name, call in calls.items():
            monkeypatch.setattr(core, "_spf", spf)
            monkeypatch.setattr(core, "_prime_list", prime_list)
            got[name] = call()
        results.append(got)
    assert all(got == results[0] for got in results)
    assert results[0]["factorize beyond"] == [trial_factorize(n) for n in big]
    assert results[0]["primes_upto"] == primes_by_trial(top)
    assert results[0]["prime_count_upto"] == len(results[0]["primes_upto"]) == 109
    assert results[0]["pi eval"] == [0, 1, 15, 15, 109, 669, 669, 669]


def test_primes_upto_returns_a_list_of_its_own(monkeypatch):
    monkeypatch.setattr(core, "_spf", [])
    monkeypatch.setattr(core, "_prime_list", (1, []))
    build_sieve(1000)
    for limit in (100, 1000):
        got = primes_upto(limit)
        assert got is not core._prime_list[1]
        got[0] = 4
        got.append(1001)
    assert core._prime_list == (1000, primes_by_trial(1000))
    assert primes_upto(1000) == primes_by_trial(1000)


def test_partition_range_reads_the_cache():
    values = range_values("partition", 400)
    assert values[1:] == [partition_count(n) for n in range(1, 401)]


def test_per_term_broken_direct_handle_reports_n(sieve10k):
    def broken(n):
        if n == 37:
            raise ZeroDivisionError("bad")
        return distinct_prime_count(factorize(n))

    with pytest.raises(EvaluationError) as err:
        verify_per_term(spec_table(builtin_spec("lemma-c"), 100), make_handle("d"),
                        ArithFnHandle("broken", broken), 100)
    assert err.value.n == 37
    assert err.value.name == "broken"


# --- differential tests against sympy (skipped when it is not installed) -------------

SYMPY_LIMIT = 2 * 10**4


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@pytest.mark.parametrize("fn_id, t, name", [
    ("sigma", 0, "divisor_sigma"),
    ("sigma", 1, "divisor_sigma"),
    ("sigma", 2, "divisor_sigma"),
    ("phi", None, "totient"),
    ("omega", None, "primenu"),
    ("bigomega", None, "primeomega"),
])
def test_range_values_match_sympy(sympy, sieve100k, fn_id, t, name):
    oracle = getattr(sympy, name)
    args = () if t is None else (t,)
    values = range_values(fn_id, SYMPY_LIMIT, t)
    bad = [n for n in range(1, SYMPY_LIMIT + 1) if values[n] != oracle(n, *args)]
    assert not bad, bad[:5]


def test_prime_count_range_matches_sympy_primerange(sympy, sieve100k):
    # a running count over sympy's primes gives pi(n) at every n, as per-n primepi calls would
    values = range_values("pi", SYMPY_LIMIT)
    want = [0] * (SYMPY_LIMIT + 1)
    for p in sympy.primerange(1, SYMPY_LIMIT + 1):
        want[p] = 1
    for n in range(1, SYMPY_LIMIT + 1):
        want[n] += want[n - 1]
    bad = [n for n in range(1, SYMPY_LIMIT + 1) if values[n] != want[n]]
    assert not bad, bad[:5]


def test_partition_range_matches_sympy(sympy):
    values = range_values("partition", 2000)
    bad = [n for n in range(1, 2001) if values[n] != sympy.partition(n)]
    assert not bad, bad[:5]
