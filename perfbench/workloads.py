"""The benchmark's workloads: fixed job lists with an oracle per job.

Each job is one cold process: an arithmos CLI invocation (``kind="cli"``)
or a library job from ``libjob.py`` (``kind="lib"``). The seed picks
values only (x = p/q at fixed bit lengths, series coefficients, the
sample points the oracles check, and the job order); sizes and the job
mix never depend on it. ``check`` raises on a wrong output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isclose
from typing import Callable

import libjob
import oracles

SAMPLES = 48


class Mismatch(Exception):
    """A job's output disagrees with its oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass(frozen=True)
class Job:
    kind: str  # "cli": arithmos CLI arguments; "lib": libjob.py arguments
    args: tuple[str, ...]
    check: Callable[[bytes], None]

    @property
    def label(self) -> str:
        return " ".join(self.args) if self.kind == "cli" else "libjob " + " ".join(self.args)


def _sample(rng: random.Random, top: int) -> list[int]:
    return sorted(set(rng.sample(range(1, top + 1), SAMPLES)) | {1, top})


def _body(out: bytes) -> dict:
    return json.loads(out)["body"]


def _csv_rows(out: bytes, header: str, count: int) -> list[str]:
    lines = out.decode().split("\n")
    expect(lines[0] == header and lines[-1] == "", "csv header or trailing newline")
    expect(len(lines) == count + 2, f"csv has {len(lines) - 2} rows, expected {count}")
    return lines[1:-1]


def _table_check(nmax: int, points: list[int], expected: Callable[[list[int]], dict[int, int]],
                 structured: bool = False) -> Callable[[bytes], None]:
    """Rows n = 1..nmax; at each sample point the value equals the oracle's."""
    def check(out: bytes) -> None:
        if structured:
            rows = [f"{n},{v}" for n, v in _body(out)["rows"]]
            expect(len(rows) == nmax, "structured row count")
        else:
            rows = _csv_rows(out, "n,value", nmax)
        want = expected(points)
        for n in points:
            expect(rows[n - 1] == f"{n},{want[n]}", f"row {n}: {rows[n - 1]!r}, oracle {want[n]}")
    return check


def _classify_check(name: str, f: Callable[[int], int], laws: dict[str, bool], mode: str,
                    bound: int) -> Callable[[bytes], None]:
    """Verdicts match the known laws and every reported witness really violates its law."""
    def check(out: bytes) -> None:
        body = _body(out)
        expect(body["name"] == name and body["bound"] == bound, "classified function or bound")
        for law, holds in laws.items():
            expect(body[law] is holds, f"verdict {law}")
            expect((law in body["witnesses"]) is not holds, f"witness presence for {law}")
        for law, (m, n) in body["witnesses"].items():
            combined = f(m) * f(n) if law.endswith("multiplicative") else f(m) + f(n)
            coprime_law = not law.startswith("completely")
            expect(m * n <= bound and f(m * n) != combined and (gcd(m, n) == 1 or not coprime_law),
                   f"witness {law} ({m}, {n}) does not violate the law")
        dec = body["decomposable"]
        expect(dec["ok"] is True and dec["witness"] is None and dec["mode"] == mode, "decomposable")
    return check


def _passed_check(section: str, **size) -> Callable[[bytes], None]:
    """The program's own verdict passed, over the size the job asked for.

    Only the verdict and the echoed size can be checked: these sections
    report no values that an oracle could recompute.
    """
    def check(out: bytes) -> None:
        body = _body(out)
        expect(body[section]["failures"] == [] and body[section]["passed"] is True, f"{section} failures")
        expect(body["all_passed"] is True, "all_passed")
        for key, val in size.items():
            expect(body[section][key] == val, f"{section} {key}: {body[section][key]!r}, asked for {val!r}")
    return check


def _probnum_check(m_top: int) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        body = _body(out)
        omega = oracles.omega_sieve(m_top)
        hist: dict[int, int] = {}
        for n in range(1, m_top + 1):
            hist[omega[n]] = hist.get(omega[n], 0) + 1
        poly = sorted(hist.items())
        expect(body["polynomial"] == [list(t) for t in poly], "histogram polynomial")
        expect(body["eval_at_one"] == m_top + 1 == body["expected_at_one"], "eval_at_one")
        masses = dict(poly)
        masses[0] = masses.get(0, 0) + 1
        pmf = [(v, Fraction(c, m_top + 1)) for v, c in sorted(masses.items())]
        expect(body["pmf"] == [[v, f"{q.numerator}/{q.denominator}"] for v, q in pmf], "pmf")
        for r in (1, 2, 3, 4):
            mom = sum(q * v**r for v, q in pmf)
            expect(body["moments"][str(r)] == f"{mom.numerator}/{mom.denominator}", f"moment {r}")
        scan = body["root_scan"]
        expect(scan["degree"] == poly[-1][0], "root scan degree")
        for key, val in oracles.histogram_scan(poly).items():
            expect(scan[key] == val, f"root scan {key}")
    return check


def _counts_check(order: int, points: list[int], count: Callable[[int], int]) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        rows = _csv_rows(out, "m,count", order + 1)
        for m in points:
            expect(rows[m] == f"{m},{count(m)}", f"count at m={m}: {rows[m]!r}")
    return check


def _lemma_g_check(order: int) -> Callable[[bytes], None]:
    """The program's own convolution verdict passed, for r = s = t = 2 at the asked order."""
    def check(out: bytes) -> None:
        conv = _body(out)["convolution_check"]
        expect(conv["ok"] is True and conv["first_mismatch"] is None, "lemma-g convolution")
        expect((conv["order"], conv["r"], conv["s"], conv["t"]) == (order, 2, 2, 2), "lemma-g size")
    return check


def _close(reported: str, value: float, what: str, rel: float = 1e-10) -> None:
    expect(isclose(float(reported), value, rel_tol=rel), f"{what}: reported {reported}, float {value!r}")


def _numeric_check(identity: str, x: Fraction, nmax: int, prime_bound: int,
                   exp_bound: int) -> Callable[[bytes], None]:
    """Per-term verdict passes and product/sum/gap agree with a float recomputation.

    The gap is compared with its float value, not with a tolerance on its size.
    """
    spec = "lemma-b(t=1)" if identity == "lemma-b" else identity
    per_term = _passed_check("per_term", n_max=nmax, spec=spec)

    def check(out: bytes) -> None:
        per_term(out)
        num = _body(out)["numeric"]
        expect(num["x"] == f"{x.numerator}/{x.denominator}" and num["k"] == 2, "numeric x or k")
        expect((num["n_max"], num["prime_bound"], num["exp_bound"]) == (nmax, prime_bound, exp_bound),
               "numeric sizes")
        product, total = oracles.lemma_floats(identity, x, 2, prime_bound, exp_bound, nmax)
        _close(num["product"], product, "product")
        _close(num["sum"], total, "sum")
        _close(num["gap"], abs(product - total), "gap", rel=1e-7)
    return check


def _euler_check(s: int, nmax: int, prime_bound: int) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        euler = _body(out)["euler"]
        expect((euler["s"], euler["n_max"], euler["prime_bound"]) == (s, nmax, prime_bound), "euler sizes")
        total, product = oracles.zeta_floats(s, nmax, prime_bound)
        _close(euler["sum"], total, "zeta sum")
        _close(euler["product"], product, "Euler product")
        _close(euler["gap"], abs(product - total), "zeta gap", rel=1e-7)
    return check


def _pow_check(seed: int, den: int) -> Callable[[bytes], None]:
    """ps_pow equals ps_pow_recurrence, and g_0..g_2 match the binomial expansion."""
    def check(out: bytes) -> None:
        doc = json.loads(out)
        expect(doc["pow"] == doc["rec"], "ps_pow differs from ps_pow_recurrence")
        a0, a1, a2 = libjob.series_coeffs(seed, den)[:3]
        k = libjob.K
        head = [a0**k, k * a0 ** (k - 1) * a1, k * a0 ** (k - 1) * a2 + k * (k - 1) // 2 * a0 ** (k - 2) * a1**2]
        expect(doc["pow"][:3] == [f"{g.numerator}/{g.denominator}" for g in head], "leading coefficients")
        expect(len(doc["pow"]) == libjob.ORDER + 1, "series length")
    return check


def _small_x(rng: random.Random) -> Fraction:
    """x = p/q with a 3-bit p and a 4-bit q, coprime."""
    while True:
        p, q = rng.randrange(4, 8), rng.randrange(8, 16)
        if gcd(p, q) == 1:
            return Fraction(p, q)


def range_sweep(seed: int, rng: random.Random) -> list[Job]:
    return [
        Job("cli", ("table", "--fn", "d", "--nmax", "200000"),
            _table_check(200000, _sample(rng, 200000), lambda pts: {n: oracles.sigma(n, 0) for n in pts})),
        Job("cli", ("table", "--fn", "sigma", "--t", "2", "--nmax", "100000", "--format", "structured"),
            _table_check(100000, _sample(rng, 100000), lambda pts: {n: oracles.sigma(n, 2) for n in pts},
                         structured=True)),
        Job("cli", ("table", "--fn", "pi", "--nmax", "5000"),
            _table_check(5000, _sample(rng, 5000), lambda pts: dict(enumerate(oracles.prime_pi_table(max(pts)))))),
        Job("cli", ("table", "--fn", "partition", "--nmax", "3000"),
            _table_check(3000, _sample(rng, 3000), lambda pts: dict(enumerate(oracles.partitions(max(pts)))))),
        Job("cli", ("classify", "--fn", "sigma", "--bound", "20000", "--decomposable", "multiplicative"),
            _classify_check("sigma_1", lambda n: oracles.sigma(n, 1),
                            {"multiplicative": True, "completely_multiplicative": False,
                             "additive": False, "completely_additive": False}, "multiplicative", 20000)),
        Job("cli", ("classify", "--fn", "bigomega", "--bound", "20000", "--decomposable", "additive"),
            _classify_check("bigomega", lambda n: sum(oracles.prime_exponents(n)),
                            {"multiplicative": False, "completely_multiplicative": False,
                             "additive": True, "completely_additive": True}, "additive", 20000)),
        Job("cli", ("verify", "--identity", "lemma-b", "--t", "2", "--nmax", "100000"),
            _passed_check("per_term", n_max=100000, spec="lemma-b(t=2)")),
        Job("cli", ("probnum", "--beta", "omega", "--M", "100000", "--roots"), _probnum_check(100000)),
    ]


def theta_series(seed: int, rng: random.Random) -> list[Job]:
    fourth_powers = oracles.power_rep_counts(4, 8, 20000)
    return [
        Job("cli", ("waring", "--s", "2", "--t", "4", "--order", "8000"),
            _counts_check(8000, [0, *_sample(rng, 8000)], oracles.r4)),
        Job("cli", ("waring", "--s", "2", "--t", "3", "--order", "8000"),
            _counts_check(8000, [0, *_sample(rng, 8000)], oracles.r3)),
        Job("cli", ("waring", "--s", "4", "--t", "8", "--order", "20000"),
            _counts_check(20000, [0, *_sample(rng, 20000)], lambda m: fourth_powers.get(m, 0))),
        Job("cli", ("waring", "--s", "2", "--lemma-g", "2", "2", "--order", "4000"), _lemma_g_check(4000)),
        # Exit code 0 means the embedded enumeration check for m <= 200 passed.
        Job("cli", ("waring", "--s", "2", "--t", "4", "--order", "2048", "--check-bruteforce", "200"),
            _counts_check(2048, [0, *_sample(rng, 2048)], oracles.r4)),
        Job("cli", ("verify", "--identity", "partition-product", "--order", "3000"),
            _passed_check("partition_product", order=3000)),
    ]


def exact_rational(seed: int, rng: random.Random) -> list[Job]:
    xa, xb = _small_x(rng), _small_x(rng)
    return [
        Job("cli", ("verify", "--identity", "lemma-a", "--nmax", "30000", "--prime-bound", "300",
                    "--exp-bound", "16", "--x", f"{xa.numerator}/{xa.denominator}"),
            _numeric_check("lemma-a", xa, 30000, 300, 16)),
        Job("cli", ("verify", "--identity", "lemma-b", "--t", "1", "--nmax", "20000", "--prime-bound", "300",
                    "--exp-bound", "16", "--x", f"{xb.numerator}/{xb.denominator}"),
            _numeric_check("lemma-b", xb, 20000, 300, 16)),
        Job("cli", ("verify", "--identity", "euler-product", "--s", "2", "--nmax", "20000", "--prime-bound", "2000"),
            _euler_check(2, 20000, 2000)),
        *(Job("lib", (str(seed), str(den)), _pow_check(seed, den)) for den in (1, 2, 6)),
    ]


WORKLOADS = {"range-sweep": range_sweep, "theta-series": theta_series, "exact-rational": exact_rational}


def build(name: str, seed: int) -> list[Job]:
    """The workload's jobs, in the order the seed picks."""
    rng = random.Random(f"{name}/{seed}")
    jobs = WORKLOADS[name](seed, rng)
    rng.shuffle(jobs)
    return jobs
