"""Finite-range classification of arithmetical functions.

Given a function handle, :func:`classify` tests the four classical laws
(multiplicative / completely multiplicative / additive / completely
additive) over every pair with product inside a bound, and returns a
report with one violating witness per failed law. Verdicts are evidence
over ``1..bound``, never a proof for all n.

:func:`verify_decomposable` checks the stronger structural property that
f is recovered from its own prime-power table ``g(p, a) = f(p^a)`` by
multiplying (or adding) over the prime powers exactly dividing n — the
unique candidate local factor, so no search is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice, repeat
from math import gcd
from operator import add, eq, mul, ne
from typing import Callable, NamedTuple, Union

from .core import prime_power_table

Value = Union[int, Fraction, float]

#: Absolute tolerance for handles declared ``real=True`` (for instance the
#: natural logarithm). Every other handle compares with == only.
REAL_TOL = 1e-9


class EvaluationError(Exception):
    """A handle failed to evaluate; ``n`` carries the offending argument."""

    def __init__(self, name: str, n: int, cause: Exception):
        super().__init__(f"{name}({n}) failed to evaluate: {cause}")
        self.name = name
        self.n = n


# A dataclass, not a NamedTuple: perfbench/traced.py rebuilds every handle with dataclasses.replace.
@dataclass(frozen=True)
class ArithFnHandle:
    """A named arithmetical function.

    ``eval`` must be a deterministic, reentrant map from positive integers
    to exact values (floats when ``real``, compared within :data:`REAL_TOL`),
    total on any range under test and not identically zero there.
    ``range_values``, when present, maps N to the list ``v`` with
    ``v[n] = eval(n)`` for ``1 <= n <= N`` computed in one pass (see
    :func:`evaluate_range`).
    """

    name: str
    eval: Callable[[int], Value]
    real: bool = False
    range_values: Callable[[int], list[Value]] | None = None


class ClassificationReport(NamedTuple):
    """Verdicts over ``1..bound`` with one witness pair per failed law."""

    name: str
    bound: int
    multiplicative: bool
    completely_multiplicative: bool
    additive: bool
    completely_additive: bool
    witnesses: dict[str, tuple[int, int]]
    approximate: bool


class DecomposabilityResult(NamedTuple):
    """Outcome of the prime-power reconstruction check on ``1..bound``."""

    name: str
    mode: str
    bound: int
    ok: bool
    witness: int | None
    note: str


def evaluate_range(f: ArithFnHandle, bound: int) -> list[Value]:
    """``v`` with ``v[n] = f(n)`` for ``1 <= n <= bound``; ``v[0]`` is padding.

    This is the one path for f over a range: the handle's one-pass table
    when it has one, otherwise per-n ``eval``, whose failures surface as
    :class:`EvaluationError` carrying the offending n.
    """
    if f.range_values is not None:
        return f.range_values(bound)
    values: list[Value] = [0] * (bound + 1)
    for n in range(1, bound + 1):
        try:
            values[n] = f.eval(n)
        except Exception as exc:
            raise EvaluationError(f.name, n, exc) from exc
    return values


def _differs(f: ArithFnHandle) -> Callable[[Value, Value], bool]:
    """The mismatch test of f's values: != for exact handles, not within REAL_TOL for real ones."""
    return (lambda a, b: not abs(a - b) <= REAL_TOL) if f.real else ne


# The laws by family: the operation each tests, then its complete and its coprime-only law.
_LAWS = (
    (mul, "completely_multiplicative", "multiplicative"),
    (add, "completely_additive", "additive"),
)


def classify(f: ArithFnHandle, bound: int) -> ClassificationReport:
    """Test the four laws on every pair (m, n) with m*n <= bound.

    Pairs are scanned by m, then n = m..bound//m, so every witness is the
    first violating pair of its law in that order. Each row of one m is
    tested as a whole, per family of laws, with C-level maps over the
    slices ``v[m*n]`` and ``v[n]``: its mismatches witness the complete law
    at once and the coprime-only law where gcd(m, n) = 1. A family is
    skipped once its coprime-only law is witnessed, since the complete law
    then is too, and the scan stops once all four are.
    """
    if bound < 4:
        raise ValueError(f"bound must be >= 4, got {bound}")
    v = evaluate_range(f, bound)
    if not any(islice(v, 1, None)):
        raise ValueError(f"{f.name} is identically zero on 1..{bound}")
    differs = _differs(f)

    witnesses: dict[str, tuple[int, int]] = {}
    m = 1
    while m * m <= bound and len(witnesses) < 4:
        top = bound // m
        products, row = v[m * m:m * top + 1:m], v[m:top + 1]
        for op, complete, coprime in _LAWS:
            if coprime in witnesses:
                continue
            bad = list(compress(count(m), map(differs, products, map(op, repeat(v[m]), row))))
            if bad and complete not in witnesses:
                witnesses[complete] = (m, bad[0])
            n = next(compress(bad, map(eq, repeat(1), map(gcd, repeat(m), bad))), None)
            if n is not None:
                witnesses[coprime] = (m, n)
        m += 1

    return ClassificationReport(
        name=f.name,
        bound=bound,
        multiplicative="multiplicative" not in witnesses,
        completely_multiplicative="completely_multiplicative" not in witnesses,
        additive="additive" not in witnesses,
        completely_additive="completely_additive" not in witnesses,
        witnesses=witnesses,
        approximate=f.real,
    )


_MEMORY_NOTE = (
    "agreement on the tested range shows f is determined there by its values "
    "on prime powers; it does not by itself make f memoryless (the totient "
    "passes this check yet depends on more than the exponent pattern)"
)


def verify_decomposable(f: ArithFnHandle, mode: str, bound: int) -> DecomposabilityResult:
    """Check f(n) against the product/sum of g(p_i, e_i) for 2 <= n <= bound; witness = first n that differs."""
    if mode not in ("multiplicative", "additive"):
        raise ValueError(f"mode must be 'multiplicative' or 'additive', got {mode!r}")
    if bound < 4:
        raise ValueError(f"bound must be >= 4, got {bound}")
    v = evaluate_range(f, bound)
    # g(p, a) = f(p^a) is read from the range itself: p^a <= bound
    combine, unit = (mul, 1) if mode == "multiplicative" else (add, 0)
    rebuilt = prime_power_table(bound, lambda p, a: v[p**a], combine, unit)
    mismatches = map(_differs(f), islice(v, 2, bound + 1), islice(rebuilt, 2, None))
    witness = next(compress(count(2), mismatches), None)
    return DecomposabilityResult(
        name=f.name, mode=mode, bound=bound, ok=witness is None,
        witness=witness, note=_MEMORY_NOTE,
    )


def exp_transform(f: ArithFnHandle, base: int) -> ArithFnHandle:
    """The handle n -> base**f(n), computed with exact integer powers.

    Requires f to be integer-valued and nonnegative wherever evaluated;
    a negative value raises at evaluation time since exactness would be
    lost.
    """
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")

    def ev(n: int, _eval=f.eval, _base=base, _name=f.name) -> int:
        val = _eval(n)
        if isinstance(val, Fraction):
            if val.denominator != 1:
                raise ValueError(f"{_name}({n}) = {val} is not an integer")
            val = val.numerator
        if not isinstance(val, int):
            raise ValueError(f"{_name}({n}) = {val!r} is not an integer")
        if val < 0:
            raise ValueError(f"{_name}({n}) = {val} is negative; exact transform unsupported")
        return _base**val

    return ArithFnHandle(name=f"{base}^{f.name}", eval=ev)
