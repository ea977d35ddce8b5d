"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
verdict lines.
"""

import random
import time
from fractions import Fraction
from operator import and_

import pytest

from arithmos.classify import classify, exp_transform
from arithmos.core import build_sieve, factorize, partition_count, prime_count_upto, prime_power_table, primes_upto
from arithmos.functions import constant_one, make_handle
from arithmos.identities import (
    builtin_spec,
    euler_zeta_check,
    exact_sum,
    partition_product_check,
    partition_product_series,
    spec_table,
    truncated_product_eval,
    truncated_sum_eval,
    verify_per_term,
)
from arithmos.powerseries import TruncatedSeries, ps_pow, ps_pow_recurrence
from arithmos.probnum import build_polynomial, eval_at_one, moment, normalize
from arithmos.waring import (
    brute_force_count,
    essentially_distinct_two_squares,
    verify_lemma_g,
    waring_counts,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}: {status}{suffix}"


def test_criterion_01_per_term_identity_suite(sieve10k):
    started = time.monotonic()
    n_max = 10**4
    omega = make_handle("omega")
    one = constant_one()
    jobs = [(builtin_spec("lemma-a"), one, omega)]
    jobs.extend(
        (builtin_spec("lemma-b", t=t), make_handle("sigma", t=t), omega)
        for t in (0, 1, 2, 3)
    )
    jobs.append((builtin_spec("lemma-c"), make_handle("d"), omega))
    jobs.extend(
        (builtin_spec("lemma-d", t=t), one, make_handle("L", t=t))
        for t in (1, 2, 3)
    )
    failed = []
    for spec, direct_alpha, direct_beta in jobs:
        report = verify_per_term(spec, direct_alpha, direct_beta, n_max)
        if not report.passed:
            failed.append(spec.name)
    elapsed = time.monotonic() - started
    _verdict(
        1,
        "per-term identity suite",
        not failed and elapsed < 60.0,
        f"{len(jobs)} specs at n_max={n_max} in {elapsed:.1f}s" + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_02_numeric_convergence(sieve100k):
    # prime and exponent bounds double stage to stage; the sum range scales
    # geometrically between the prescribed endpoints
    schedule = [(125, 4, 1000), (250, 8, 5000), (500, 16, 20000), (1000, 32, 100000)]
    spec = builtin_spec("lemma-a")
    x = Fraction(1, 2)
    gaps = []
    for prime_bound, exp_bound, n_max in schedule:
        lhs = truncated_product_eval(spec, x, 2, prime_bound, exp_bound)
        rhs = truncated_sum_eval(spec, x, 2, n_max)
        gaps.append(abs(lhs - rhs))
    monotone = all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))
    final_small = gaps[-1] < Fraction(1, 10**6)
    detail = "gaps " + " -> ".join(f"{float(g):.3e}" for g in gaps)
    # Exact split of the last stage: the product expands to the terms of exactly the n whose primes
    # are <= prime_bound and exponents <= exp_bound, so product - sum = beyond_n_max - missing_from_product.
    covered = prime_power_table(n_max, lambda p, a: p <= prime_bound and a <= exp_bound, and_, True)
    alpha, beta = spec_table(spec, n_max)
    missing_n = [n for n in range(2, n_max + 1) if not covered[n]]
    missing = exact_sum([alpha[n] * x.numerator ** beta[n] for n in missing_n],
                        [n**2 * x.denominator ** beta[n] for n in missing_n])
    beyond = lhs - rhs + missing
    detail += (f"; last stage: missing_from_product {float(missing):.3e} over {len(missing_n)} terms,"
               f" beyond_n_max {float(beyond):.3e}")
    _verdict(2, "numeric convergence", monotone and final_small, detail)


def test_criterion_03_euler_oracles(sieve10k):
    check = euler_zeta_check(2, 10**4, 10**4)
    zeta_ok = check.gap < Fraction(1, 1000)
    zeta_ok = zeta_ok and abs(float(check.sum_value) - 1.6449) < 1e-3
    zeta_ok = zeta_ok and abs(float(check.product_value) - 1.6449) < 1e-3
    series = partition_product_series(1000)
    coeff_ok = all(series.coeffs[n] == partition_count(n) for n in range(1001))
    spots_ok = series.coeffs[0] == 1 and series.coeffs[5] == 7 == partition_count(5)
    report_ok = partition_product_check(1000).passed
    _verdict(
        3,
        "euler oracles",
        zeta_ok and coeff_ok and spots_ok and report_ok,
        f"zeta gap {float(check.gap):.3e}; partition coefficients exact to 1000",
    )


def test_criterion_04_classification_suite(sieve10k):
    bound = 2000
    d = make_handle("d")
    sigma1 = make_handle("sigma", t=1)
    phi = make_handle("phi")
    omega = make_handle("omega")
    bigomega = make_handle("bigomega")
    two_omega = exp_transform(omega, 2)
    two_bigomega = exp_transform(bigomega, 2)

    expectations = [
        (d, {"multiplicative": True, "completely_multiplicative": False}),
        (sigma1, {"multiplicative": True, "completely_multiplicative": False}),
        (phi, {"multiplicative": True}),
        (omega, {"additive": True, "completely_additive": False}),
        (bigomega, {"completely_additive": True}),
        (two_omega, {"multiplicative": True}),
        (two_bigomega, {"completely_multiplicative": True}),
    ]
    problems = []
    for handle, expected in expectations:
        report = classify(handle, bound)
        for law, verdict in expected.items():
            if getattr(report, law) != verdict:
                problems.append(f"{handle.name}.{law}")
        for law, (m, n) in report.witnesses.items():
            lhs = handle.eval(m * n)
            if law.endswith("multiplicative"):
                ok = lhs != handle.eval(m) * handle.eval(n)
            else:
                ok = lhs != handle.eval(m) + handle.eval(n)
            if not ok:
                problems.append(f"{handle.name}.{law} witness does not reverify")
    _verdict(4, "classification suite", not problems, "; ".join(problems) or f"7 functions at bound {bound}")


def test_criterion_05_waring_oracle_equivalence():
    cases = [(2, 4, 200), (2, 2, 500), (4, 2, 200)]
    mismatched = []
    for s, t, top in cases:
        counts = waring_counts(s, t, top)
        enumerated = brute_force_count(top, s, t)
        for m in range(top + 1):
            if counts[m] != enumerated[m]:
                mismatched.append((s, t, m))
                break
    four = waring_counts(2, 4, 8)
    pairs = waring_counts(2, 2, 8)
    spots_ok = four[1] == 8 and pairs[1] == 4 and pairs[3] == 0 and waring_counts(2, 8, 4)[1] == 16
    _verdict(
        5,
        "waring oracle equivalence",
        not mismatched and spots_ok,
        f"checked {cases}" + (f"; mismatches {mismatched}" if mismatched else ""),
    )


def test_criterion_06_power_convolution():
    order = 512
    failed = []
    for s in (2, 4):
        for t in (1, 2, 3):
            for r in (1, 2, 3):
                if not verify_lemma_g(s, t, r, order).ok:
                    failed.append((s, t, r))
    _verdict(
        6,
        "power convolution identity",
        not failed,
        f"18 combinations at order {order}" + (f"; failed {failed}" if failed else ""),
    )


def test_criterion_07_fermat_laws(sieve10k):
    ordered = waring_counts(2, 2, 10**4)
    problems = []
    for p in primes_upto(10**4):
        if p % 4 == 1:
            if essentially_distinct_two_squares(p) != 1 or ordered[p] != 8:
                problems.append(p)
        elif p % 4 == 3:
            if essentially_distinct_two_squares(p) != 0 or ordered[p] != 0:
                problems.append(p)
    _verdict(7, "fermat two-square laws", not problems, f"primes to 10^4" + (f"; failing {problems[:5]}" if problems else ""))


def test_criterion_08_four_square_positivity():
    counts = waring_counts(2, 4, 2000)
    zeros = [m for m, c in enumerate(counts) if c <= 0]
    _verdict(8, "four-square positivity", not zeros, "all counts positive to 2000" if not zeros else f"zeros at {zeros[:5]}")


def test_criterion_09_pmf_suite(sieve10k):
    omega = make_handle("omega")
    means = []
    problems = []
    for m in (100, 1000, 10**4):
        poly = build_polynomial(omega, m)
        pmf = normalize(poly)
        if sum(q for _, q in pmf.support) != 1:
            problems.append(f"mass at M={m}")
        if eval_at_one(poly) != m + 1:
            problems.append(f"eval@1 at M={m}")
        means.append(moment(pmf, 1))
    if not (means[0] < means[1] < means[2]):
        problems.append("means not strictly increasing")
    if not (Fraction(3, 2) <= means[-1] <= Fraction(26, 10)):
        problems.append(f"final mean {float(means[-1]):.3f} out of band")
    _verdict(
        9,
        "pmf suite",
        not problems,
        "; ".join(problems) or f"means {', '.join(f'{float(v):.3f}' for v in means)}",
    )


def test_criterion_10_series_engine():
    rng = random.Random(99173)
    order = 256
    problems = []
    for trial in range(100):
        k = rng.randint(2, 6)
        stream = [rng.randint(-9, 9) for _ in range(2 * order + 1)]
        if trial % 7 == 3:
            den = rng.choice([2, 3])
            stream = [Fraction(c, den) for c in stream]
        if stream[0] == 0:
            stream[0] = rng.choice([-3, -2, -1, 1, 2, 3])
        series = TruncatedSeries.from_coeffs(stream[: order + 1])
        if ps_pow_recurrence(series, k) != ps_pow(series, k):
            problems.append(f"trial {trial}: recurrence != pow")
            break
        if trial % 10 == 0:
            doubled = TruncatedSeries.from_coeffs(stream)
            if ps_pow(doubled, k).coeffs[: order + 1] != ps_pow(series, k).coeffs:
                problems.append(f"trial {trial}: truncation instability")
                break
    _verdict(10, "series power engine", not problems, "; ".join(problems) or "100 randomized series at order 256")


def test_criterion_11_cli_determinism(tmp_path):
    from click.testing import CliRunner

    from arithmos.cli import cli

    invocations = [
        ["verify", "--identity", "lemma-c", "--nmax", "400"],
        ["waring", "--s", "2", "--t", "2", "--order", "64", "--format", "structured"],
        ["probnum", "--beta", "omega", "--M", "200"],
        ["table", "--fn", "sigma", "--t", "2", "--nmax", "50"],
    ]
    diffs = []
    for args in invocations:
        first = CliRunner().invoke(cli, args)
        second = CliRunner().invoke(cli, args)
        if first.output != second.output or first.exit_code != second.exit_code:
            diffs.append(args[0])
    _verdict(11, "cli determinism", not diffs, "; ".join(diffs) or f"{len(invocations)} commands byte-identical")
