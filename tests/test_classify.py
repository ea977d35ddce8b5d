import math
from fractions import Fraction
from math import gcd

import pytest

from arithmos.classify import (
    REAL_TOL,
    ArithFnHandle,
    EvaluationError,
    classify,
    exp_transform,
    verify_decomposable,
)
from arithmos.core import factorize
from arithmos.functions import make_handle


@pytest.fixture(scope="module")
def handles(sieve10k):
    return {
        "d": make_handle("d"),
        "sigma1": make_handle("sigma", t=1),
        "sigma2": make_handle("sigma", t=2),
        "omega": make_handle("omega"),
        "bigomega": make_handle("bigomega"),
        "L3": make_handle("L", t=3),
        "phi": make_handle("phi"),
    }


def test_divisor_count_verdicts(handles):
    rep = classify(handles["d"], 2000)
    assert rep.multiplicative and not rep.completely_multiplicative
    m, n = rep.witnesses["completely_multiplicative"]
    assert (m, n) == (2, 2)
    f = handles["d"].eval
    assert f(m * n) != f(m) * f(n)


def test_bigomega_completely_additive(handles):
    rep = classify(handles["bigomega"], 2000)
    assert rep.completely_additive and rep.additive


def test_omega_additive_not_completely(handles):
    rep = classify(handles["omega"], 2000)
    assert rep.additive and not rep.completely_additive
    m, n = rep.witnesses["completely_additive"]
    assert (m, n) == (2, 2)
    f = handles["omega"].eval
    assert f(4) == 1 and f(2) + f(2) == 2


def test_witnesses_reverify(handles):
    for name in ("d", "sigma1", "omega", "bigomega", "phi"):
        h = handles[name]
        rep = classify(h, 500)
        for law, (m, n) in rep.witnesses.items():
            lhs = h.eval(m * n)
            if law.endswith("multiplicative"):
                assert lhs != h.eval(m) * h.eval(n)
            else:
                assert lhs != h.eval(m) + h.eval(n)
            if law in ("multiplicative", "additive"):
                assert gcd(m, n) == 1


def test_completely_implies_plain(handles):
    for h in handles.values():
        rep = classify(h, 300)
        if rep.completely_multiplicative:
            assert rep.multiplicative
        if rep.completely_additive:
            assert rep.additive


def test_small_bound_rejected(handles):
    with pytest.raises(ValueError):
        classify(handles["d"], 3)


def test_identically_zero_rejected():
    zero = ArithFnHandle("zero", lambda n: 0)
    with pytest.raises(ValueError):
        classify(zero, 10)


def test_evaluation_error_carries_argument():
    def bad(n):
        if n == 7:
            raise RuntimeError("boom")
        return 1

    with pytest.raises(EvaluationError) as err:
        classify(ArithFnHandle("bad", bad), 10)
    assert err.value.n == 7


# --- prime-power tables -------------------------------------------------------

def test_local_factor_beyond_sieve(handles):
    # g(97, 20) = d(97^20): far above the sieve limit, eval falls back to trial division
    assert handles["d"].eval(97**20) == 21


def test_decomposable_multiplicative(handles):
    assert verify_decomposable(handles["sigma2"], "multiplicative", 5000).ok
    assert verify_decomposable(handles["phi"], "multiplicative", 5000).ok


def test_decomposable_additive(handles):
    assert verify_decomposable(handles["L3"], "additive", 5000).ok
    assert verify_decomposable(handles["bigomega"], "additive", 2000).ok


def test_decomposable_reports_witness(handles):
    # the totient is not additive; prime powers pass by construction, so the
    # first failure is the first n with two distinct primes
    res = verify_decomposable(handles["phi"], "additive", 100)
    assert not res.ok
    assert res.witness == 6
    h = handles["phi"].eval
    f = factorize(res.witness)
    combined = sum(h(p**a) for p, a in f)
    assert h(res.witness) != combined


def first_reconstruction_failure(f, mode, bound):
    """Per-n oracle for verify_decomposable: fold f(p^a) over factorize(n), n = 2, 3, ..."""
    v = [f.eval(n) if n else 0 for n in range(bound + 1)]
    for n in range(2, bound + 1):
        combined = 1 if mode == "multiplicative" else 0
        for p, a in factorize(n):
            combined = combined * v[p**a] if mode == "multiplicative" else combined + v[p**a]
        same = abs(v[n] - combined) <= REAL_TOL if f.real else v[n] == combined
        if not same:
            return n
    return None


@pytest.mark.parametrize("mode", ["multiplicative", "additive"])
@pytest.mark.parametrize("fn_id", ["d", "phi", "omega", "bigomega", "partition", "pi", "log", "2^omega"])
def test_decomposable_witness_matches_per_n_oracle(sieve10k, fn_id, mode):
    f = exp_transform(make_handle("omega"), 2) if fn_id == "2^omega" else make_handle(fn_id)
    witness = first_reconstruction_failure(f, mode, 3000)
    res = verify_decomposable(f, mode, 3000)
    assert (res.ok, res.witness) == (witness is None, witness)


def test_decomposable_notes_memory_distinction(handles):
    res = verify_decomposable(handles["phi"], "multiplicative", 200)
    assert res.ok
    assert "memoryless" in res.note


def test_decomposable_mode_validated(handles):
    with pytest.raises(ValueError):
        verify_decomposable(handles["d"], "weird", 100)


def test_decomposability_implies_coprime_law(handles):
    # functions passing the additive reconstruction also classify additive
    for name in ("omega", "bigomega", "L3"):
        if verify_decomposable(handles[name], "additive", 1000).ok:
            assert classify(handles[name], 1000).additive
    for name in ("d", "sigma1", "sigma2", "phi"):
        if verify_decomposable(handles[name], "multiplicative", 1000).ok:
            assert classify(handles[name], 1000).multiplicative


# --- exponential transform ------------------------------------------------------

def test_exp_transform_of_omega_is_multiplicative(handles):
    g = exp_transform(handles["omega"], 2)
    rep = classify(g, 2000)
    assert rep.multiplicative and not rep.completely_multiplicative


def test_exp_transform_of_bigomega_completely_multiplicative(handles):
    g = exp_transform(handles["bigomega"], 2)
    rep = classify(g, 2000)
    assert rep.completely_multiplicative


def test_exp_transform_of_zero_function():
    zero = ArithFnHandle("zero", lambda n: 0)
    g = exp_transform(zero, 2)
    rep = classify(g, 100)
    assert rep.completely_multiplicative
    assert g.eval(17) == 1


def test_exp_transform_rejects_negative_values():
    neg = ArithFnHandle("neg", lambda n: -1)
    g = exp_transform(neg, 2)
    with pytest.raises(ValueError):
        g.eval(5)


def test_exp_transform_rejects_fractional_values():
    frac = ArithFnHandle("frac", lambda n: Fraction(1, 2))
    g = exp_transform(frac, 3)
    with pytest.raises(ValueError):
        g.eval(5)


def test_exp_transform_base_validated(handles):
    with pytest.raises(ValueError):
        exp_transform(handles["omega"], 1)


def test_additivity_transfers_to_multiplicativity_pairwise(handles):
    # pair-by-pair equivalence of the two laws under the exact transform
    for name, base in (("omega", 2), ("bigomega", 2), ("omega", 3)):
        f = handles[name]
        g = exp_transform(f, base)
        fv = {n: f.eval(n) for n in range(1, 2001)}
        gv = {n: g.eval(n) for n in range(1, 2001)}
        m = 1
        while m * m <= 2000:
            for n in range(m, 2000 // m + 1):
                additive_here = fv[m * n] == fv[m] + fv[n]
                multiplicative_here = gv[m * n] == gv[m] * gv[n]
                assert additive_here == multiplicative_here
            m += 1


# --- approximate (real-valued) classification ----------------------------------

def test_log_is_completely_additive_approximately():
    log = ArithFnHandle("log", math.log, real=True)
    rep = classify(log, 400)
    assert rep.approximate
    assert rep.completely_additive
    assert not rep.multiplicative
