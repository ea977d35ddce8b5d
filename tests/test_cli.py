import decimal
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithmos import __version__
from arithmos import cli as cli_module
from arithmos.cli import (
    DENOMINATOR_CEILING,
    PARTITION_CEILING,
    RANGE_CEILING,
    ROOT_SCAN_DEGREE_CEILING,
    FlatRows,
    cli,
)
from arithmos.core import FUNCTION_IDS, INTEGER_FUNCTION_IDS, LEMMA_DIRECT, LOCAL_FUNCTIONS, range_values, takes_t
from arithmos.functions import make_handle
from arithmos.identities import builtin_spec, numeric_identity_check, spec_table
from arithmos.powerseries import format_rational
from arithmos.waring import integer_root, verify_lemma_g


# the interpreter's int-to-str digit limit; 0 is none, and CPython's default is 4300
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
default_digit_limit = pytest.mark.skipif(DIGIT_LIMIT != 4300, reason="needs the default digit limit")


def run(*args):
    return CliRunner().invoke(cli, list(args))


def body_of(result):
    return json.loads(result.output)["body"]


# --- table -----------------------------------------------------------------

def test_table_divisor_counts():
    res = run("table", "--fn", "d", "--nmax", "12")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[-1] == "12,6"


def test_table_partitions():
    res = run("table", "--fn", "partition", "--nmax", "5")
    assert res.exit_code == 0
    assert res.output.strip().splitlines()[-1] == "5,7"


def test_table_unknown_function():
    res = run("table", "--fn", "nosuch", "--nmax", "5")
    assert res.exit_code == 2


def test_table_bad_nmax():
    res = run("table", "--fn", "d", "--nmax", "0")
    assert res.exit_code == 2


def test_table_structured_output():
    res = run("table", "--fn", "sigma", "--t", "2", "--nmax", "4", "--format", "structured")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["header"]["command"] == "table"
    assert doc["body"]["rows"][-1] == [4, "21"]


def test_table_t_rejected_for_nonparametric():
    res = run("table", "--fn", "omega", "--t", "2", "--nmax", "5")
    assert res.exit_code == 2


def _raises_value_error(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("t", [None, -1, 0, 1, 2])
@pytest.mark.parametrize("fn_id", FUNCTION_IDS)
def test_layers_agree_on_which_t_an_id_takes(fn_id, t):
    # make_handle, range_values and the table command refuse the same (id, t) pairs
    refused = _raises_value_error(lambda: make_handle(fn_id, t))
    if fn_id != "log":  # log has no range table at all
        assert _raises_value_error(lambda: range_values(fn_id, 5, t)) is refused
    if fn_id in INTEGER_FUNCTION_IDS:
        res = run("table", "--fn", fn_id, "--nmax", "5", *(() if t is None else ("--t", str(t))))
        assert res.exit_code == (2 if refused else 0), res.output
    # the rule itself: sigma takes t >= 0 and L t >= 1, default 1; no other id takes a t
    assert refused is {"sigma": t is not None and t < 0, "L": t is not None and t < 1}.get(fn_id, t is not None)


@default_digit_limit
def test_table_values_past_the_digit_limit_rejected():
    # sigma_1000 over 1..20000 would print integers of up to 1001 * 5 digits
    res = run("table", "--fn", "sigma", "--t", "1000", "--nmax", "20000")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Error: --t 1000 over 1..20000 can give integers of 5005 digits" in res.stderr


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no digit limit")
def test_table_values_inside_the_digit_limit_print():
    t = DIGIT_LIMIT // 2 - 1  # (t + 1) * len(str(99)) is the limit itself
    res = run("table", "--fn", "sigma", "--t", str(t), "--nmax", "99")
    assert res.exit_code == 0
    assert res.stdout.splitlines()[-1].startswith("99,")
    assert run("table", "--fn", "sigma", "--t", str(t + 1), "--nmax", "99").exit_code == 2


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no digit limit")
@pytest.mark.parametrize("args", [("table", "--fn", "sigma", "--nmax", "1"), ("waring", "--s", "2", "--order", "0")],
                         ids=["table", "waring"])
def test_values_bounded_by_one_pass_the_digit_estimate(args):
    # sigma_t(1) and the one count of order 0 are 1, whatever t is
    res = run(*args, "--t", str(DIGIT_LIMIT + 1))
    assert res.exit_code == 0
    assert res.stdout.splitlines()[-1] in ("1,1", "0,1")


# --- verify ----------------------------------------------------------------

def test_verify_lemma_b():
    res = run("verify", "--identity", "lemma-b", "--t", "2", "--nmax", "500")
    assert res.exit_code == 0
    assert body_of(res)["per_term"]["passed"] is True


def test_verify_partition_product():
    res = run("verify", "--identity", "partition-product", "--order", "200")
    assert res.exit_code == 0
    assert body_of(res)["partition_product"]["failures"] == []


def test_verify_rejects_bad_range():
    res = run("verify", "--identity", "lemma-a", "--nmax", "0")
    assert res.exit_code == 2


def test_verify_lemma_b_requires_t():
    res = run("verify", "--identity", "lemma-b", "--nmax", "100")
    assert res.exit_code == 2


@pytest.mark.parametrize("identity", ["lemma-b", "lemma-d"])
def test_verify_lemma_refuses_t_below_its_direct_function_least(identity):
    # the threshold is the least t of the lemma's direct function in core.LOCAL_FUNCTIONS, with no default
    (least,) = [LOCAL_FUNCTIONS[fn_id][2] for fn_id in LEMMA_DIRECT[identity] if takes_t(fn_id)]
    assert builtin_spec(identity, t=least).name == f"{identity}(t={least})"
    for t in (None, least - 1):
        with pytest.raises(ValueError, match=f"{identity} needs an integer parameter t >= {least}"):
            builtin_spec(identity, t=t)
    flags = ("verify", "--identity", identity, "--nmax", "100")
    assert run(*flags, "--t", str(least)).exit_code == 0
    for t_flags in ((), ("--t", str(least - 1))):
        res = run(*flags, *t_flags)
        assert res.exit_code == 2
        assert f"{identity} needs an integer parameter t >= {least}" in res.stderr


def test_verify_lemma_c_rejects_t():
    res = run("verify", "--identity", "lemma-c", "--t", "2", "--nmax", "100")
    assert res.exit_code == 2


def test_verify_numeric_check_with_tolerance():
    res = run(
        "verify", "--identity", "lemma-a", "--nmax", "2000",
        "--x", "1/2", "--k", "2", "--prime-bound", "100", "--exp-bound", "8",
        "--gap-tol", "1/100",
    )
    assert res.exit_code == 0
    numeric = body_of(res)["numeric"]
    assert numeric["passed"] is True
    assert numeric["x"] == "1/2"


def test_verify_numeric_check_failing_tolerance():
    res = run(
        "verify", "--identity", "lemma-a", "--nmax", "500",
        "--x", "1/2", "--k", "2", "--prime-bound", "20", "--exp-bound", "4",
        "--gap-tol", "1/1000000000",
    )
    assert res.exit_code == 1
    assert body_of(res)["numeric"]["passed"] is False  # report still written


def scientific(value: Fraction) -> str:
    """``value`` to 13 significant digits, half to even, in the shape of ``%.12e``: the oracle of
    the decimals of verify, by the decimal module, which reads an int of any size without a str."""
    context = decimal.Context(prec=13, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    quotient = context.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    if not quotient:
        return "0.000000000000e+00"
    sign, digits, _ = quotient.as_tuple()
    mantissa = "".join(map(str, digits)).ljust(13, "0")
    return f"{'-' * sign}{mantissa[0]}.{mantissa[1:]}e{quotient.adjusted():+03d}"


# (identity, t, x, prime bound, exp bound, nmax, gap tolerance, exit code): a product past the
# largest float, and a nonzero gap below the least normal float, which fails a tolerance of 0
OUTSIDE_FLOAT_RANGE = [
    ("lemma-d", 2, "2", 50, 14, 2000, None, 0),
    ("lemma-a", None, "1/1" + "0" * 400, 100, 4, 1000, "0", 1),
]


@pytest.mark.parametrize("identity, t, x, prime_bound, exp_bound, nmax, gap_tol, code", OUTSIDE_FLOAT_RANGE,
                         ids=["product past the float range", "gap below the float range"])
def test_verify_values_outside_the_float_range_printed_exactly(identity, t, x, prime_bound, exp_bound, nmax,
                                                               gap_tol, code):
    args = ["verify", "--identity", identity, "--x", x, "--nmax", str(nmax), "--prime-bound", str(prime_bound),
            "--exp-bound", str(exp_bound)]
    args += ["--t", str(t)] * (t is not None) + ["--gap-tol", gap_tol] * (gap_tol is not None)
    res = run(*args)
    assert res.exit_code == code, res.output
    numeric = body_of(res)["numeric"]
    spec = builtin_spec(identity, t=t)
    check = numeric_identity_check(spec, list(spec_table(spec, nmax)), Fraction(x), 2, prime_bound, exp_bound)
    assert not all(sys.float_info.min <= value <= sys.float_info.max for value in check)
    assert [numeric["product"], numeric["sum"], numeric["gap"]] == list(map(scientific, check))
    assert numeric["passed"] is (None if gap_tol is None else check.gap <= Fraction(gap_tol))


@pytest.mark.parametrize("value", [
    Fraction(10**6000 + 1, 3), Fraction(-2, 3 * 10**6000), -Fraction(10**400),
    Fraction(99999999999995, 10**413), Fraction(99999999999985, 10**413), Fraction(99999999999994999, 10**416),
    Fraction(5, 10**320), Fraction(1, 2**1074), Fraction(2**1024), Fraction(7, 3), Fraction(0),
    Fraction(739371928939, 4 * 10**318), Fraction(99999999999995, 10**14) - Fraction(1, 10**30),
])
def test_decimal_matches_the_exact_oracle(value):
    # past the digit limit, at the next power of ten after rounding, on both rounding ties, subnormal,
    # in range, an exact tie that the float rounds the wrong way, just below a tie at a power of ten
    assert cli_module._decimal(value) == scientific(value)


def test_decimal_of_seeded_fractions_and_ties_matches_the_exact_oracle():
    # near both ends and the middle of the float range: random fractions, exact ties between two
    # 13-digit decimals (d·10 + 5 in units of the 14th digit) and points just off a tie either way
    rng = random.Random("decimal-ties")
    for _ in range(3000):
        e = rng.choice([rng.randint(-330, -290), rng.randint(-20, 20), rng.randint(290, 320)])
        unit, off = (Fraction(10) ** (e - 13 - k) for k in (0, rng.randint(3, 40)))
        d = rng.choice([rng.randrange(10**12, 10**13), 10**12, 10**13 - 1])
        value = rng.choice([Fraction(rng.getrandbits(60) + 1, rng.getrandbits(60) + 1) * unit * 10**13,
                            (10 * d + 5) * unit, (10 * d + 5) * unit - off, (10 * d + 5) * unit + off])
        value *= rng.choice([1, -1])
        assert cli_module._decimal(value) == scientific(value), value


def test_verify_lemma_nmax_below_two_rejected():
    # the "--nmax must be >= 2" raise of verify's lemma branch
    res = run("verify", "--identity", "lemma-a", "--nmax", "1")
    assert res.exit_code == 2
    assert "--nmax must be >= 2" in res.output


def test_verify_x_that_is_not_rational_rejected():
    # the raise of _parse_rational_opt
    res = run("verify", "--identity", "lemma-a", "--x", "abc")
    assert res.exit_code == 2
    assert "--x must be a rational like 1/2" in res.output


def test_verify_lemma_d_power_past_the_float_range_refused_on_the_denominator_ceiling():
    # _power's OverflowError branch: floor(log2 4)^1100 = 2^1100 is past the largest float
    res = run("verify", "--identity", "lemma-d", "--t", "1100", "--nmax", "4", "--x", "1/2")
    assert res.exit_code == 2
    assert (f"floor(log2(--nmax))^--t * ln(--x) = about inf must be <= {DENOMINATOR_CEILING} "
            "(the denominator ceiling)") in res.output


def test_verify_exp_bound_must_be_positive():
    res = run("verify", "--identity", "lemma-a", "--nmax", "100", "--x", "1/2", "--exp-bound", "0")
    assert res.exit_code == 2
    assert f"Invalid value for '--exp-bound': 0 is not in the range 1<=x<={RANGE_CEILING}" in res.output


def test_verify_euler_product():
    res = run(
        "verify", "--identity", "euler-product", "--s", "2",
        "--nmax", "2000", "--prime-bound", "2000", "--gap-tol", "1/100",
    )
    assert res.exit_code == 0
    assert body_of(res)["euler"]["passed"] is True


class _Table(list):
    """A table that a weakref can point to."""


@pytest.mark.parametrize("args, alive_at_build", [
    (("verify", "--identity", "lemma-b", "--t", "2", "--nmax", "2000"), [[], [False]]),
    (("verify", "--identity", "lemma-a", "--nmax", "2000", "--x", "1/2", "--prime-bound", "100",
      "--exp-bound", "8"), [[], [True]]),
], ids=["per-term only", "with --x"])
def test_verify_builds_each_spec_table_once(monkeypatch, args, alive_at_build):
    # every spec table of a lemma run comes from prime_power_table: with --x the per-term check
    # and the numeric sum read the same alpha and beta, and without it alpha is freed before
    # beta is built; the report bytes stay pinned
    from arithmos import identities

    real = identities.prime_power_table
    refs, alive = [], []

    def tracked(*table_args):
        alive.append([ref() is not None for ref in refs])
        table = _Table(real(*table_args))
        refs.append(weakref.ref(table))
        return table

    monkeypatch.setattr(identities, "prime_power_table", tracked)
    res = run(*args)
    assert res.exit_code == 0
    assert alive == alive_at_build
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == dict(REPORT_SHA256)[args]


def _no_work(*args, **kwargs):
    raise AssertionError("a refused request must not start its work")


def _refuse_work(monkeypatch, *names):
    """Make each named library function (``module.function``, which the CLI imports where it calls
    it), and every spec table, fail the test if it is called."""
    for name in names:
        monkeypatch.setattr(f"arithmos.{name}", _no_work)
    monkeypatch.setattr("arithmos.identities.prime_power_table", _no_work)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("identity, flag, value", [
    ("euler-product", "--x", "1/2"),
    ("euler-product", "--k", "3"),
    ("euler-product", "--t", "2"),
    ("partition-product", "--x", "1/2"),
    ("partition-product", "--k", "3"),
    ("partition-product", "--t", "2"),
    ("partition-product", "--gap-tol", "1/2"),
    ("lemma-a", "--k", "3"),
    ("lemma-a", "--gap-tol", "1/2"),
])
def test_verify_unread_flag_rejected(monkeypatch, tmp_path, identity, flag, value, source):
    # a flag that the identity never reads exits 2 naming it, before any check runs
    _refuse_work(monkeypatch, "identities.spec_table", "identities.verify_per_term",
                 "identities.numeric_identity_check", "identities.euler_zeta_check",
                 "identities.partition_product_check")
    if source == "flag":
        res = run("verify", "--identity", identity, flag, value)
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verify": {flag[2:]: value}}))
        res = run("--config", str(cfg), "verify", "--identity", identity)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"{flag} is not read by --identity {identity}" in res.stderr


@pytest.mark.parametrize("args, flag", [
    (("verify", "--identity", "lemma-a", "--x", "1/2", "--k", "1"), "--k"),
    (("verify", "--identity", "euler-product", "--s", "1"), "--s"),
    (("waring", "--s", "2", "--t", "0", "--order", "10"), "--t"),
    (("waring", "--s", "2", "--lemma-g", "0", "1", "--order", "10"), "--lemma-g"),
    (("waring", "--s", "2", "--t", "2", "--order", "-1"), "--order"),
    (("classify", "--fn", "d", "--bound", "3"), "--bound"),
    # out of range also where the identity does not read the flag
    (("verify", "--identity", "partition-product", "--nmax", "0"), "--nmax"),
    (("verify", "--identity", "lemma-a", "--order", "0"), "--order"),
    # not the parity rule's message, and no empty product reported as a truncation
    (("waring", "--s", "0", "--t", "2", "--order", "10"), "--s"),
    (("waring", "--s", "-2", "--t", "2", "--order", "10"), "--s"),
    (("verify", "--identity", "euler-product", "--nmax", "10", "--prime-bound", "-5"), "--prime-bound"),
    (("verify", "--identity", "lemma-a", "--nmax", "10", "--x", "1/2", "--prime-bound", "0"), "--prime-bound"),
    # no gap is below 0, so a negative tolerance would fail every check it ran
    (("verify", "--identity", "euler-product", "--nmax", "10", "--prime-bound", "10", "--gap-tol", "-1/2"),
     "--gap-tol"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
def test_value_below_its_flag_range_rejected(monkeypatch, args, flag):
    _refuse_work(monkeypatch, "identities.spec_table", "identities.verify_per_term",
                 "identities.numeric_identity_check", "identities.euler_zeta_check",
                 "identities.partition_product_check", "waring.waring_counts", "waring.verify_lemma_g",
                 "classify.classify")
    res = run(*args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"Invalid value for '{flag}'" in res.stderr


@pytest.mark.parametrize("args, size", [
    (("--identity", "lemma-a", "--x", "1/2", "--nmax", "300000"), "--k * --nmax = 600000"),
    (("--identity", "lemma-b", "--t", "1", "--x", "1/2", "--exp-bound", "100", "--prime-bound", "3000"),
     "--k * --exp-bound * --prime-bound = 600000"),
    (("--identity", "lemma-d", "--t", "9", "--x", "1/2", "--nmax", "100", "--prime-bound", "10",
      "--exp-bound", "4"), "floor(log2(--nmax))^--t * ln(--x) = about 6.99e+06"),
    (("--identity", "lemma-d", "--t", "3", "--x", "1/2"),
     "--exp-bound^--t * pi(--prime-bound) * ln(--x) = about 3.87e+06"),
    (("--identity", "lemma-c", "--x", f"1/{3**1500}", "--nmax", "2000", "--exp-bound", "4"),
     "pi(--prime-bound) * ln(--x) = about 2.25e+06"),
], ids=["sum", "product", "sum x-power lemma-d", "product x-power lemma-d", "product x-power"])
def test_verify_denominator_ceiling_refused_before_any_table(monkeypatch, args, size):
    # each estimate of a lemma --x run refuses it (exit 2) before the spec tables or a check start
    _refuse_work(monkeypatch, "identities.spec_table", "identities.verify_per_term",
                 "identities.numeric_identity_check")
    monkeypatch.setattr("arithmos.functions.range_values", _no_work)
    res = run("verify", *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"{size} must be <= {DENOMINATOR_CEILING} (the denominator ceiling)" in res.stderr


# --- classify ----------------------------------------------------------------

def test_classify_sigma_multiplicative():
    res = run("classify", "--fn", "sigma", "--t", "1", "--bound", "500")
    assert res.exit_code == 0
    body = body_of(res)
    assert body["multiplicative"] is True
    assert body["completely_multiplicative"] is False


def test_classify_omega_additive():
    res = run("classify", "--fn", "omega", "--bound", "500")
    assert res.exit_code == 0
    body = body_of(res)
    assert body["additive"] is True
    assert body["completely_additive"] is False


def test_classify_bad_bound():
    res = run("classify", "--fn", "phi", "--bound", "0")
    assert res.exit_code == 2


def test_classify_with_decomposable_section():
    res = run("classify", "--fn", "phi", "--bound", "200", "--decomposable", "multiplicative")
    assert res.exit_code == 0
    assert body_of(res)["decomposable"]["ok"] is True


@pytest.mark.parametrize("fn, mode", [("sigma", "multiplicative"), ("bigomega", "additive")])
def test_classify_decomposable_builds_one_range_table(monkeypatch, fn, mode):
    from arithmos import functions

    builds = []
    real = functions.range_values

    def counting(fn_id, limit, t=None):
        builds.append((fn_id, limit))
        return real(fn_id, limit, t=t)

    monkeypatch.setattr(functions, "range_values", counting)
    args = ("classify", "--fn", fn, "--bound", "2000", "--decomposable", mode)
    res = run(*args)
    assert res.exit_code == 0
    assert builds == [(fn, 2000)]
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == dict(REPORT_SHA256)[args]


# --- waring -------------------------------------------------------------------

def test_waring_table_with_bruteforce_check():
    res = run("waring", "--s", "2", "--t", "4", "--order", "64", "--check-bruteforce", "32")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "m,count"
    assert lines[1] == "0,1"
    assert lines[2] == "1,8"


def test_waring_bruteforce_limit_must_be_nonnegative():
    res = run("waring", "--s", "2", "--t", "2", "--order", "10", "--check-bruteforce", "-3")
    assert res.exit_code == 2
    assert "Invalid value for '--check-bruteforce': -3 is not in the range x>=0" in res.output


def test_waring_bruteforce_enumeration_above_ceiling_rejected():
    # the smallest limit whose bound (integer_root(limit, 2) + 1) ** 4 passes the ceiling;
    # it is refused before the count table or the enumeration starts
    limit = integer_root(RANGE_CEILING, 4) ** 2
    assert (integer_root(limit - 1, 2) + 1) ** 4 <= RANGE_CEILING < (integer_root(limit, 2) + 1) ** 4
    res = run("waring", "--s", "2", "--t", "4", "--order", str(limit), "--check-bruteforce", str(limit))
    assert res.exit_code == 2
    assert f"more than the range ceiling {RANGE_CEILING}" in res.output


def test_waring_bruteforce_needs_a_count_table(monkeypatch):
    monkeypatch.setattr("arithmos.waring.verify_lemma_g", _no_work)
    res = run("waring", "--s", "2", "--lemma-g", "1", "1", "--order", "10", "--check-bruteforce", "5")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "--check-bruteforce checks the count table; it needs --t" in res.stderr


def test_waring_convolution_check():
    res = run("waring", "--s", "2", "--lemma-g", "2", "2", "--order", "128")
    assert res.exit_code == 0
    assert body_of(res)["convolution_check"]["ok"] is True


WARING_CHECKED = ("waring", "--s", "2", "--t", "2", "--order", "5", "--lemma-g", "1", "1",
                  "--check-bruteforce", "5")


@pytest.mark.parametrize("broken, verdicts", [
    (None, "bruteforce_check passed, convolution_check passed"),
    ("brute_force_count", "bruteforce_check failed, convolution_check passed"),
    ("verify_lemma_g", "bruteforce_check passed, convolution_check failed"),
])
def test_waring_csv_writes_its_check_verdicts_to_stderr(monkeypatch, broken, verdicts):
    counts = run("waring", "--s", "2", "--t", "2", "--order", "5")
    assert counts.exit_code == 0 and counts.stderr == ""  # no check ran, no verdict line
    if broken == "brute_force_count":
        monkeypatch.setattr("arithmos.waring.brute_force_count", lambda limit, s, t: [0] * (limit + 1))
    elif broken == "verify_lemma_g":
        monkeypatch.setattr("arithmos.waring.verify_lemma_g",
                            lambda *args: verify_lemma_g(*args)._replace(ok=False, first_mismatch=3))
    res = run(*WARING_CHECKED)
    assert res.exit_code == (1 if broken else 0)
    assert res.stdout == counts.stdout
    assert res.stderr == f"checks: {verdicts}\n"


def test_waring_odd_power_rejected():
    res = run("waring", "--s", "3", "--t", "2", "--order", "10")
    assert res.exit_code == 2
    assert "unsupported" in res.output


def test_waring_needs_some_work():
    res = run("waring", "--s", "2", "--order", "10")
    assert res.exit_code == 2


def test_waring_structured_format():
    res = run("waring", "--s", "2", "--t", "2", "--order", "16", "--format", "structured")
    assert res.exit_code == 0
    body = body_of(res)
    assert body["counts"][1] == 4


# --- probnum --------------------------------------------------------------------

def test_probnum_small_histogram():
    res = run("probnum", "--beta", "omega", "--M", "3")
    assert res.exit_code == 0
    body = body_of(res)
    assert body["eval_at_one"] == 4
    assert body["pmf"] == [[0, "1/2"], [1, "1/2"]]
    assert body["total_probability"] == "1/1"


def test_probnum_eval_at_one_reported():
    res = run("probnum", "--beta", "omega", "--M", "500")
    body = body_of(res)
    assert body["eval_at_one"] == 501 == body["expected_at_one"]


def test_probnum_bad_m():
    res = run("probnum", "--beta", "omega", "--M", "0")
    assert res.exit_code == 2


def test_probnum_csv_pmf():
    res = run("probnum", "--beta", "omega", "--M", "3", "--format", "csv")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "value,probability"
    assert lines[1] == "0,1/2"


def test_probnum_roots_section():
    res = run("probnum", "--beta", "omega", "--M", "30", "--roots")
    assert res.exit_code == 0
    assert "sign_changes" in body_of(res)["root_scan"]


def test_probnum_roots_rejected_with_csv(monkeypatch):
    monkeypatch.setattr("arithmos.probnum.build_polynomial", _no_work)
    res = run("probnum", "--beta", "omega", "--M", "30", "--roots", "--format", "csv")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "--roots is reported in the structured format only" in res.stderr


@pytest.mark.parametrize("beta, m", [("phi", "2000"), ("partition", "40")])
def test_probnum_roots_above_degree_ceiling_rejected(beta, m):
    res = run("probnum", "--beta", beta, "--M", m, "--roots")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"degrees <= {ROOT_SCAN_DEGREE_CEILING}" in res.stderr


@default_digit_limit
def test_probnum_moments_past_the_digit_limit_rejected():
    # values of sigma_1000 over 1..99 have at most 2002 digits, their fourth powers 8008
    res = run("probnum", "--beta", "sigma", "--t", "1000", "--M", "99")
    assert res.exit_code == 2
    assert res.stdout == ""
    res = run("probnum", "--beta", "sigma", "--t", "1000", "--M", "99", "--format", "csv")
    assert res.exit_code == 0


def test_probnum_rationals_are_lowest_terms():
    res = run("probnum", "--beta", "bigomega", "--M", "200")
    body = body_of(res)
    pat = re.compile(r"^-?\d+/\d+$")
    for _, q in body["pmf"]:
        assert pat.match(q)
        f = Fraction(q)
        num, den = q.split("/")
        assert (f.numerator, f.denominator) == (int(num), int(den))


# --- cross-cutting -----------------------------------------------------------------

def test_repeat_runs_identical():
    args = ("verify", "--identity", "lemma-c", "--nmax", "300")
    assert run(*args).output == run(*args).output


@pytest.mark.parametrize("args", [
    ("table", "--fn", "d", "--nmax", "10"),
    ("verify", "--identity", "lemma-c", "--nmax", "30"),
    ("classify", "--fn", "d", "--bound", "30"),
    ("waring", "--s", "2", "--t", "2", "--order", "10"),
    ("probnum", "--beta", "omega", "--M", "10"),
], ids=lambda args: args[0])
def test_runtime_failure_is_one_error_line(args, tmp_path):
    res = run(*args, "--out", str(tmp_path / "missing" / "x"))
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    res = run("probnum", "--beta", "omega", "--M", "10", "--out", str(target))
    assert res.exit_code == 0
    doc = json.loads(target.read_text())
    assert doc["body"]["eval_at_one"] == 11


@pytest.mark.parametrize("args", [
    ("table", "--fn", "sigma", "--t", "2", "--nmax", "3000"),
    ("table", "--fn", "sigma", "--t", "2", "--nmax", "3000", "--format", "structured"),
    ("waring", "--s", "2", "--t", "4", "--order", "3000", "--format", "structured"),
    ("probnum", "--beta", "d", "--M", "3000"),
], ids=lambda args: " ".join(args[:2] + args[-2:]))
def test_out_file_holds_the_stdout_bytes(tmp_path, args):
    target = tmp_path / "report"
    res = run(*args, "--out", str(target))
    assert res.exit_code == 0
    assert res.stdout == ""
    assert target.read_bytes() == run(*args).stdout_bytes


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"table": {"fn": "d", "nmax": 5}}))
    res = run("--config", str(cfg), "table")
    assert res.exit_code == 0
    assert res.output.strip().splitlines()[-1] == "5,2"
    res2 = run("--config", str(cfg), "table", "--nmax", "3")
    assert res2.exit_code == 0
    assert res2.output.strip().splitlines()[-1] == "3,2"


@pytest.mark.parametrize("config, problem", [
    ([1, 2], "the top level must be a JSON object"),
    ({"table": 5}, "section 'table' must be a JSON object"),
    # keys fold - to _ and upper to lower case before they are looked up
    ({"tabel": {"nmax": 5}}, "section 'tabel' names no subcommand"),
    ({"table": {"nmax": 5, "fn": "d", "bogus": 1}}, "section 'table' names no parameter 'bogus'"),
    ({"probnum": {"M": 5, "beta": "d", "Prime-Bound": 7}}, "section 'probnum' names no parameter 'prime_bound'"),
], ids=["top-level", "section", "no-subcommand", "no-parameter", "parameter-of-another-subcommand"])
def test_config_file_that_is_no_object_rejected(tmp_path, config, problem):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = run("--config", str(cfg), "table")
    assert res.exit_code == 2
    assert f"bad config file {cfg}: {problem}" in res.output


def test_version_flag():
    res = run("--version")
    assert res.exit_code == 0
    assert "arithmos" in res.output


# --- size ceiling ----------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("table", "--fn", "d", "--nmax"),
    ("classify", "--fn", "d", "--bound"),
    ("probnum", "--beta", "omega", "--M"),
    ("verify", "--identity", "lemma-a", "--nmax"),
    ("verify", "--identity", "lemma-a", "--nmax", "100", "--x", "1/2", "--prime-bound"),
    ("verify", "--identity", "lemma-a", "--nmax", "100", "--x", "1/2", "--exp-bound"),
    ("verify", "--identity", "euler-product", "--nmax"),
    ("verify", "--identity", "euler-product", "--prime-bound"),
    ("verify", "--identity", "partition-product", "--order"),
    ("waring", "--s", "2", "--t", "4", "--order"),
])
def test_range_above_ceiling_rejected_before_allocation(args):
    # only ceiling + 1 is ever tried: it is refused before any sieve is built
    res = run(*args, str(RANGE_CEILING + 1))
    assert res.exit_code == 2
    assert f"Invalid value for '{args[-1]}': {RANGE_CEILING + 1} is not in the range" in res.output
    assert f"x<={RANGE_CEILING}." in res.output


# the smallest refused value of each estimate; the largest admitted ones take seconds
@pytest.mark.parametrize("args, flags", [
    (("verify", "--identity", "lemma-a", "--x", "1/2", "--prime-bound", "10", "--nmax"), "--k * --nmax"),
    (("verify", "--identity", "lemma-a", "--x", "1/2", "--nmax", "100", "--exp-bound", "1", "--prime-bound"),
     "--k * --exp-bound * --prime-bound"),
    (("verify", "--identity", "euler-product", "--s", "2", "--nmax"), "--s * --nmax"),
    (("verify", "--identity", "euler-product", "--s", "2", "--nmax", "100", "--prime-bound"), "--s * --prime-bound"),
], ids=["lemma-sum", "lemma-product", "euler-sum", "euler-product"])
def test_denominator_above_its_ceiling_rejected(args, flags):
    refused = DENOMINATOR_CEILING // 2 + 1  # with --k or --s 2 (and --exp-bound 1)
    res = run(*args, str(refused))
    assert res.exit_code == 2
    assert f"{flags} = {2 * refused} must be <= {DENOMINATOR_CEILING} (the denominator ceiling)" in res.output


# inputs that ran for seconds to minutes before the guards counted their power parameters, and
# the flags that each refusal names; a guard that did the work before refusing would pass 1 s
SLOW_INPUTS = [
    (("verify", "--identity", "lemma-d", "--x", "1/2", "--nmax", "100", "--prime-bound", "10",
      "--exp-bound", "4", "--t", "9"), ("--nmax", "--t", "--x")),
    (("verify", "--identity", "lemma-d", "--x", "1/2", "--nmax", "100", "--prime-bound", "10",
      "--exp-bound", "4", "--t", "10"), ("--nmax", "--t", "--x")),
    (("verify", "--identity", "lemma-d", "--x", "1/2", "--t", "3"), ("--exp-bound", "--t", "--prime-bound", "--x")),
    (("verify", "--identity", "lemma-a", "--x", f"1/{3**1500}", "--nmax", "2000", "--exp-bound", "4"),
     ("--prime-bound", "--x")),
    (("classify", "--fn", "sigma", "--t", "20000", "--bound", "2000"), ("--t",)),
    (("waring", "--s", "2", "--t", "10000000", "--order", "1000"), ("--s", "--t", "--order")),
    (("waring", "--s", "2", "--lemma-g", "5000000", "5000000", "--order", "1000"), ("--s", "--lemma-g", "--order")),
]


@pytest.mark.parametrize("args, flags", SLOW_INPUTS,
                         ids=["lemma-d-t9", "lemma-d-t10", "lemma-d-t3-defaults", "lemma-a-large-x", "classify-sigma",
                              "waring-t", "waring-lemma-g"])
def test_slow_inputs_refused_fast(args, flags):
    start = time.perf_counter()
    res = run(*args)
    assert time.perf_counter() - start < 1
    assert res.exit_code == 2
    message = res.output.splitlines()[-1]
    assert message.startswith("Error: ") and all(flag in message for flag in flags), message


@pytest.mark.parametrize("args", [
    ("verify", "--identity", "lemma-d", "--x", "1/2", "--t", "2"),
    ("verify", "--identity", "lemma-d", "--x", "1/2", "--nmax", "100", "--prime-bound", "10", "--exp-bound", "4",
     "--t", "6"),
], ids=["defaults-t2", "small-t6"])
def test_lemma_d_below_the_estimates_admitted(monkeypatch, args):
    # the run stops where its work would start, so exit 1 with this error means every guard passed
    def stop(*_):
        raise RuntimeError("admitted")

    monkeypatch.setattr("arithmos.identities.verify_per_term", stop)
    res = run(*args)
    assert res.exit_code == 1
    assert "error: admitted" in res.output


@pytest.mark.parametrize("args", [
    ("table", "--fn", "partition", "--nmax"),
    ("classify", "--fn", "partition", "--bound"),
    ("probnum", "--beta", "partition", "--M"),
    ("verify", "--identity", "partition-product", "--order"),
])
def test_partition_above_its_ceiling_rejected(args):
    res = run(*args, str(PARTITION_CEILING + 1))
    assert res.exit_code == 2
    assert f"{args[-1]} must be <= {PARTITION_CEILING} (the partition ceiling)" in res.output


# --- report bytes ------------------------------------------------------------------------

# sha256 of stdout; each recorded before the change it guards (the first eight before
# the range tables replaced per-n evaluation, the rest before the CLI's one runner)
REPORT_SHA256 = [
    (("table", "--fn", "d", "--nmax", "2000"),
     "433ac41b4c38bffc55a95e5733330efaeb2fd3e84633057b975a33b990b098e9"),
    (("table", "--fn", "sigma", "--t", "2", "--nmax", "2000", "--format", "structured"),
     "7520c9b8537dba219bfa5556360c3c574bb0c2afa5c215b261e436e3039cb3dc"),
    (("table", "--fn", "pi", "--nmax", "2000"),
     "64d39fa620a40543756526fb0934fead9446d6991389caa0d13bf692d5ad78ed"),
    (("table", "--fn", "partition", "--nmax", "2000"),
     "be526f5bac9bbe04bf68ec79517699970260a7039b11a39b6009d40a0701383a"),
    (("classify", "--fn", "sigma", "--bound", "2000", "--decomposable", "multiplicative"),
     "f232593d8d18b5284ffca3202fde393d201b03e069fd862452330fed7a5dd7b6"),
    (("classify", "--fn", "bigomega", "--bound", "2000", "--decomposable", "additive"),
     "cf05f13ba6b2e5c131de72e4a6657a400fec90f8665a4b50d95a866a59932bf9"),
    (("probnum", "--beta", "omega", "--M", "2000", "--roots"),
     "818107404532395fbb44ca6ea97adf39a3feb53824eacb9834c11a45724e05c0"),
    (("verify", "--identity", "lemma-b", "--t", "2", "--nmax", "2000"),
     "defada329cad3e83ffd974fffd754f0ab2acbe4bf67bdef8138a83bbbcc96ae1"),
    (("verify", "--identity", "lemma-a", "--nmax", "2000", "--x", "1/2", "--prime-bound", "100",
      "--exp-bound", "8"),
     "4693850e149af47f1826ea2957d89d648555b177004ce4f596858016974ef1c4"),
    (("verify", "--identity", "euler-product", "--s", "2", "--nmax", "2000", "--prime-bound", "500"),
     "f3b66456c12731c6441b1fddd871917d21f402977884cc37796ebf732f45d708"),
    (("verify", "--identity", "partition-product", "--order", "500"),
     "afcc46860a89f053bc9e792386ad6d0bb675761eeefea5f0f5fa11049d3edfb4"),
    (("waring", "--t", "4", "--s", "2", "--order", "500"),
     "203d71245442dd85426dc33b00c762c86391f7e44a803d2973414f8cd96239aa"),
    (("waring", "--lemma-g", "2", "2", "--s", "2", "--order", "256", "--format", "structured"),
     "549f6ae06fa8f5f4e2776277785370e04b9a3e99ca2f74bf0b298ae1aced1c4b"),
    (("classify", "--fn", "phi", "--bound", "2000", "--decomposable", "additive"),
     "8b5730ce7a6e9dc0c139053e8700a6da363850f501a5f102aa04c19883f229c5"),
    (("classify", "--fn", "log", "--bound", "2000", "--decomposable", "additive"),
     "ac56c4e3ee6777c9696efac7acf6f9d33fcba599aab10a44e4115909401b08e1"),
    (("classify", "--fn", "partition", "--bound", "500", "--decomposable", "multiplicative"),
     "fcf74dcfccdc8da8c3e99eba23b85516dfbd6074af3822968d8aef5a7136eec5"),
    (("verify", "--identity", "lemma-c", "--nmax", "2000", "--x", "3/7", "--k", "3", "--prime-bound", "100",
      "--exp-bound", "8"),
     "c26760af33b4078d6e3a596681b04d49833adcaf86acce553fdd44671295ecd2"),
    (("verify", "--identity", "lemma-d", "--t", "2", "--nmax", "2000", "--x", "5/11", "--prime-bound", "100",
      "--exp-bound", "8"),
     "8adab9ca979f47ba2a95abcb8c4143785a59e6277865d75c04d21dd70806e885"),
    # recorded before the long arrays were spliced into the envelope as flat rows
    (("waring", "--s", "2", "--t", "4", "--order", "500", "--check-bruteforce", "200", "--format", "structured"),
     "83471ad7f5a2aed962b999c7d6e2c5afbd368d4798285943abb9c63a8e89ec0b"),
    (("probnum", "--beta", "d", "--M", "2000", "--format", "csv"),
     "d828c9e352971f980a7772007a616f6e99af6ce8f37a7844a9b7f1da0ed1048d"),
    (("table", "--fn", "d", "--nmax", "1", "--format", "structured"),
     "60bf4a44370cec2cc5940c037767554813c8764604320dfc65dd29b62ba99e3f"),
    (("probnum", "--beta", "omega", "--M", "1"),
     "31f81529412b55a9e602854fc769567249723d9f578d7403773bdce497687676"),
    # recorded before verify built its sections from one product-vs-sum record
    (("verify", "--identity", "lemma-a", "--nmax", "2000", "--x", "1/2", "--prime-bound", "100",
      "--exp-bound", "8", "--gap-tol", "1/100"),
     "9d9ad16a2302094e025d2c04701c2cd89fd6ac1c3af80a1f6c76982c19ff473c"),
    (("verify", "--identity", "euler-product", "--s", "2", "--nmax", "2000", "--prime-bound", "500",
      "--gap-tol", "1/100"),
     "1680e89568a371dddd958dbadf1ceaaf4c99ed2b3d3e54d775a88297aaf82129"),
]

# reports of a failed check, written in full before the run exits 1
FAILED_CHECK_SHA256 = [
    (("verify", "--identity", "lemma-a", "--nmax", "2000", "--x", "1/2", "--prime-bound", "100",
      "--exp-bound", "8", "--gap-tol", "1/1000000000"),
     "656af999d4687fb57d4e2c1b2ace7de5ce57ffb2e6eab5a1f906564c56a3c0c4"),
    (("verify", "--identity", "euler-product", "--s", "2", "--nmax", "2000", "--prime-bound", "500",
      "--gap-tol", "1/1000000000"),
     "433b2f1bdd8afb6ef02a0e24a406387d11878ee976a5ad76f97830565ca97714"),
]


def _pin_ids(pins):
    """The first three arguments of each pin; all of them where those three repeat a pin's."""
    ids = []
    for args, _ in pins:
        short = " ".join(args[:3])
        ids.append(" ".join(args) if short in ids else short)
    return ids


@pytest.mark.parametrize("args, digest, code",
                         [(*pin, 0) for pin in REPORT_SHA256] + [(*pin, 1) for pin in FAILED_CHECK_SHA256],
                         ids=_pin_ids(REPORT_SHA256 + FAILED_CHECK_SHA256))
def test_report_bytes_unchanged(args, digest, code):
    res = run(*args)
    assert res.exit_code == code
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


# --- report rendering ----------------------------------------------------------------------

# strings the encoder escapes, NUL-digit strings, and strings that are format fields
ODD_TEXT = st.sampled_from(["\x000", "\x001", "\x00\x000", 'a"b', "\\", "\u00e9", "\x7f", "\n",
                            "%s", "%d", "%%", "{}"])
SCALARS = st.one_of(st.integers(-10**6, 10**6), st.text(max_size=4), ODD_TEXT, st.booleans(),
                    st.floats(allow_nan=False), st.none())
KEYS = st.text(max_size=3) | ODD_TEXT
# plain values at any depth: scalars, and lists and dicts of them, empty ones too
PLAIN = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
                     max_leaves=8)

# the domain a FlatRows declares: a plain column holds ints of any sign and size, and a quoted
# column ints or format_rational strs, which print as the JSON strings of their str
BIG_INTS = st.integers() | st.sampled_from([2**64, -2**64 - 1, 10**100, -10**100])
QUOTED = BIG_INTS | st.fractions().map(format_rational) | st.just(format_rational(Fraction(-10**40, 3)))


@st.composite
def flat_arrays(draw):
    """A FlatRows of scalar rows (one column) or pair rows (two), and the list it stands for; each
    column is plain (ints) or quoted (ints or format_rational strs, which stand for their strs)."""
    n = draw(st.integers(0, 8))
    quoted_flags = draw(st.lists(st.booleans(), min_size=1, max_size=2))
    columns = [draw(st.lists(QUOTED if flag else BIG_INTS, min_size=n, max_size=n)) for flag in quoted_flags]
    quoted = tuple(j for j, flag in enumerate(quoted_flags) if flag)
    shown = [list(map(str, column)) if j in quoted else column for j, column in enumerate(columns)]
    plain = shown[0] if len(shown) == 1 else [list(row) for row in zip(*shown)]
    return FlatRows(tuple(map(iter, columns)), quoted), plain  # columns are read once, like map objects


@st.composite
def report_bodies(draw):
    """A report body, whose values are flat arrays or plain values, and the dict it stands for."""
    body, plain = {}, {}
    for key in draw(st.lists(KEYS, unique=True, max_size=4)):
        if draw(st.booleans()):
            body[key], plain[key] = draw(flat_arrays())
        else:
            body[key] = plain[key] = draw(PLAIN)
    return body, plain


@settings(max_examples=100, deadline=None, derandomize=True)
@given(report_bodies(), st.dictionaries(st.sampled_from(["m", "out", "fn", "t"]), SCALARS))
# a plain int column beside a quoted one over two batches, and an escaped key beside it
@example(({"rows": FlatRows(([2**64, -1, 0, -2**64 - 1], [2**70, "-1/3", 0, "22/7"]), (1,)), "\n": None},
          {"rows": [[2**64, "1180591620717411303424"], [-1, "-1/3"], [0, "0"], [-2**64 - 1, "22/7"]], "\n": None}),
         {})
def test_flat_rows_render_as_the_json_encoder_would(case, params):
    # the report of a table invocation with these parameters, in batches of 3 rows, so that
    # an array runs over several batches and ends inside one
    body, plain = case
    header = {"artifact": "arithmos", "version": __version__, "command": "table",
              "parameters": {("M" if name == "m" else name): value for name, value in params.items() if name != "out"}}
    with click.Context(cli_module.table) as ctx, patch.object(cli_module, "EMIT_BATCH", 3):
        ctx.params = dict(params)
        text = "".join(cli_module._structured(body))
    assert text == json.dumps({"header": header, "body": plain}, sort_keys=True, indent=2) + "\n"


# every kind of structured report at a small size; partition's values reach 100 digits
REAL_STRUCTURED_REPORTS = [
    *(("table", "--fn", fn, "--nmax", "9000" if fn == "partition" else "200", "--format", "structured")
      for fn in INTEGER_FUNCTION_IDS),
    ("table", "--fn", "sigma", "--t", "3", "--nmax", "200", "--format", "structured"),
    ("probnum", "--beta", "omega", "--M", "200", "--roots"),
    ("waring", "--s", "2", "--t", "4", "--order", "60", "--check-bruteforce", "20", "--lemma-g", "2", "2",
     "--format", "structured"),
    ("classify", "--fn", "sigma", "--bound", "200", "--decomposable", "multiplicative"),
    ("verify", "--identity", "lemma-a", "--nmax", "200", "--prime-bound", "20", "--exp-bound", "4", "--x", "1/2"),
]


@pytest.mark.parametrize("args", REAL_STRUCTURED_REPORTS, ids=" ".join)
def test_real_structured_reports_are_what_the_encoder_writes(args):
    # guards the FlatRows declarations: a str in a plain column, or a quoted value that needs an
    # escape, would print text that the encoder does not write (or fail the run)
    res = run(*args)
    assert res.exit_code == 0, res.output
    out = res.stdout
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
    if "partition" in args:
        assert len(json.loads(out)["body"]["rows"][-1][1]) >= 100


def csv_oracle(header, *columns):
    """CSV text as the per-row renderer wrote it: one ``str.format`` call per row."""
    rows = map((",".join(["{}"] * len(columns)) + "\n").format, *columns)
    return ",".join(header) + "\n" + "".join(rows)


# cells of one CSV column: ints past 2**64 either way, bools, text with format fields or commas, or a mix
CSV_TEXT = st.text(max_size=4) | ODD_TEXT | st.sampled_from(["%", ",", "a,b", "%(n)s", "{0}"])
CSV_KINDS = [
    st.integers(-2**70, 2**70) | st.sampled_from([2**64, -2**64 - 1, 2**100]),
    st.booleans(),
    CSV_TEXT,
    st.one_of(st.integers(-9, 9), st.booleans(), CSV_TEXT),
]


@st.composite
def csv_columns(draw):
    """One to three columns of equal length, empty ones too."""
    n = draw(st.integers(0, 8))
    return [draw(st.lists(draw(st.sampled_from(CSV_KINDS)), min_size=n, max_size=n))
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(csv_columns())
def test_csv_rows_render_as_the_per_row_format_would(columns):
    # in batches of 3 rows, so that a column runs over several batches and ends inside one
    header = tuple(f"c{i}" for i in range(len(columns)))
    with patch.object(cli_module, "EMIT_BATCH", 3):
        text = "".join(cli_module._csv(header, *map(iter, columns)))  # columns are read once
    assert text == csv_oracle(header, *columns)


@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_long_report_reaches_the_writer_in_small_chunks(monkeypatch, fmt):
    sizes = []
    emit = cli_module._emit
    monkeypatch.setattr(cli_module, "_emit", lambda chunks, out: emit((sizes.append(len(c)) or c for c in chunks), out))
    res = run("table", "--fn", "d", "--nmax", "200000", "--format", fmt)
    assert res.exit_code == 0
    assert sum(sizes) == len(res.stdout) > 10**6
    assert max(sizes) <= 10**5


# --- extension modules ---------------------------------------------------------------

#: Every lib-dynload extension module that a small `verify --x` or `euler-product` job loaded
#: when this list was made, interpreter start-up included. A new one maps another shared
#: object into every CLI process: `import array` alone raised a verify job's peak RSS by 0.15-0.4 MB.
EXTENSION_MODULES = frozenset([
    "_bisect", "_bz2", "_datetime", "_decimal", "_json", "_lzma", "_opcode", "_random", "_sha512", "_struct",
    "_typing", "_uuid", "binascii", "math", "zlib",
])

# Runs the CLI through cli.main in a fresh interpreter and writes to stderr the names of the
# lib-dynload modules loaded after start-up; stdout keeps the report.
EXTENSION_PROBE = """\
import os, sys, sysconfig
dynload = os.path.join(sysconfig.get_path("platstdlib"), "lib-dynload") + os.sep
def loaded():
    return {name for name, module in list(sys.modules.items())
            if (getattr(module, "__file__", None) or "").startswith(dynload)}
start = loaded()
from arithmos import cli
code = 0
try:
    cli.main()
except SystemExit as done:
    code = done.code
sys.stderr.write(" ".join(sorted(loaded() - start)) + "\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("args", [
    ("verify", "--identity", "lemma-a", "--nmax", "300", "--x", "5/8", "--prime-bound", "50", "--exp-bound", "4"),
    ("verify", "--identity", "euler-product", "--s", "2", "--nmax", "300", "--prime-bound", "50"),
], ids=["lemma-x", "euler-product"])
def test_jobs_load_no_new_extension_module(args):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", EXTENSION_PROBE, *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["body"]["all_passed"] is True
    loaded = set(done.stderr.split())
    assert loaded, "the probe saw no extension module loaded after start-up"
    assert loaded <= EXTENSION_MODULES, f"new extension modules: {sorted(loaded - EXTENSION_MODULES)}"
