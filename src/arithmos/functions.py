"""Named function handles shared by the CLI, classification, and tests.

``make_handle`` wires the classical functions from :mod:`arithmos.core`
into :class:`~arithmos.classify.ArithFnHandle` objects. Per-n ``eval`` of
a handle backed by factorization uses the supplied sieve for arguments
inside its range and falls back to trial division beyond it, so prime
powers far above the sieve limit still evaluate exactly. Every handle
except ``log`` also carries :func:`~arithmos.core.range_values`, which
tabulates ``1..N`` in one pass over the sieve.
"""

from __future__ import annotations

import math
from functools import partial

from .classify import ArithFnHandle
from .core import (
    SieveTable,
    factorize,
    local_function,
    partition_count,
    prime_count_upto,
    range_values,
    trial_factorize,
)

#: Every id ``make_handle`` accepts. ``log`` evaluates in floating point
#: and is only meaningful for approximate classification.
FUNCTION_IDS = ("d", "sigma", "omega", "bigomega", "L", "phi", "pi", "partition", "log")

#: The integer-valued ids: what the table surface emits and what can serve
#: as an exponent function for histogram polynomials.
INTEGER_FUNCTION_IDS = ("d", "sigma", "omega", "bigomega", "L", "phi", "pi", "partition")


def _factorizer(sieve: SieveTable | None):
    if sieve is None:
        return trial_factorize

    def fac(n: int, _sieve=sieve):
        if n <= _sieve.limit:
            return factorize(n, _sieve)
        return trial_factorize(n)

    return fac


def make_handle(fn_id: str, t: int | None = None, sieve: SieveTable | None = None) -> ArithFnHandle:
    """Build a named handle; ``t`` parameterizes ``sigma`` and ``L`` only."""
    if fn_id not in FUNCTION_IDS:
        raise ValueError(f"unknown function id {fn_id!r}; expected one of {FUNCTION_IDS}")
    if t is not None and fn_id not in ("sigma", "L"):
        raise ValueError(f"parameter t does not apply to {fn_id!r}")

    if fn_id == "log":
        return ArithFnHandle("log", math.log, value_kind="real")
    name = fn_id
    if fn_id == "pi":
        if sieve is None:
            raise ValueError("pi needs an explicit sieve (it is not factorization-local)")
        ev = partial(prime_count_upto, sieve=sieve)
    elif fn_id == "partition":
        ev = partition_count
    else:
        local, _ = local_function(fn_id, t)
        if fn_id in ("sigma", "L"):
            t = 1 if t is None else t
            name = f"{fn_id}_{t}"
        fac = _factorizer(sieve)

        def ev(n: int) -> int:
            return local(fac(n))
    return ArithFnHandle(name, ev, range_values=partial(range_values, fn_id, sieve=sieve, t=t))


def constant_one() -> ArithFnHandle:
    """The constant function 1 (the trivial weight in several identities)."""
    return ArithFnHandle("one", lambda n: 1)
