"""Named function handles shared by the CLI, classification, and tests.

``make_handle`` wires the classical functions from :mod:`arithmos.core`
into :class:`~arithmos.classify.ArithFnHandle` objects. Per-n ``eval`` of
a handle backed by factorization calls :func:`~arithmos.core.factorize`,
the per-n route: it walks the sieve of :mod:`arithmos.core` inside its
range and trial-divides beyond it, so prime powers far above the sieve
still evaluate exactly. Every handle except ``log`` also carries
:func:`~arithmos.core.range_values`, which tabulates ``1..N`` in one pass
over the sieve.
"""

from __future__ import annotations

import math
from functools import partial

from .classify import ArithFnHandle
from .core import factorize, local_function, partition_count, prime_count_upto, range_values

#: Every id ``make_handle`` accepts. ``log`` evaluates in floating point
#: and is only meaningful for approximate classification.
FUNCTION_IDS = ("d", "sigma", "omega", "bigomega", "L", "phi", "pi", "partition", "log")

#: The integer-valued ids: what the table surface emits and what can serve
#: as an exponent function for histogram polynomials.
INTEGER_FUNCTION_IDS = ("d", "sigma", "omega", "bigomega", "L", "phi", "pi", "partition")


def make_handle(fn_id: str, t: int | None = None) -> ArithFnHandle:
    """Build a named handle; ``t`` parameterizes ``sigma`` and ``L`` only."""
    if fn_id not in FUNCTION_IDS:
        raise ValueError(f"unknown function id {fn_id!r}; expected one of {FUNCTION_IDS}")
    if t is not None and fn_id not in ("sigma", "L"):
        raise ValueError(f"parameter t does not apply to {fn_id!r}")

    if fn_id == "log":
        return ArithFnHandle("log", math.log, value_kind="real")
    name = fn_id
    if fn_id == "pi":
        ev = prime_count_upto
    elif fn_id == "partition":
        ev = partition_count
    else:
        local, _ = local_function(fn_id, t)
        if fn_id in ("sigma", "L"):
            t = 1 if t is None else t
            name = f"{fn_id}_{t}"

        def ev(n: int) -> int:
            return local(factorize(n))
    return ArithFnHandle(name, ev, range_values=partial(range_values, fn_id, t=t))


def constant_one() -> ArithFnHandle:
    """The constant function 1 (the trivial weight in several identities)."""
    return ArithFnHandle("one", lambda n: 1)
