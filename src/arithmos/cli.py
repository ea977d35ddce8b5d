"""Command-line interface: tables, identity verification, classification,
representation counts, and histogram/PMF summaries.

Reports are deterministic: identical configurations produce byte-identical
output. Structured reports separate a reproducibility header (command,
parameters, version) from the data body; CSV output always carries a
header row. Exact rationals are rendered as ``num/den`` in lowest terms;
very large rationals (truncation gaps) are rendered as fixed-precision
decimals.

Exit codes: 0 success / all checks passed, 1 runtime failure (reported as
``error: <message>`` on stderr) or a failed check (the report is still
written), 2 bad arguments.

A process loads what its subcommand runs and no more: at module level this
imports only ``click``, what ``click`` itself loads, and :mod:`arithmos.core`,
whose id tables give the options their choices. Each command body and helper
imports the library functions it calls, and ``json``, ``fractions`` and
``dataclasses``, from their defining modules where it calls them, so
``--version`` and ``--help`` load no other module of the package.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from math import floor, inf, log, log10
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import click

from . import __version__
from .core import (BUILTIN_SPEC_IDS, FUNCTION_IDS, INTEGER_FUNCTION_IDS, LEMMA_DIRECT, LEMMA_LEAST_T, LOCAL_FUNCTIONS,
                   takes_t)

if TYPE_CHECKING:
    from fractions import Fraction

    from .classify import ArithFnHandle
    from .identities import IdentityCheckReport, NumericCheck

IDENTITY_IDS = BUILTIN_SPEC_IDS + ("euler-product", "partition-product")

#: Largest value accepted by the size flags (table --nmax, classify --bound,
#: probnum --M, waring --order, verify --nmax/--order/--prime-bound/--exp-bound),
#: each declared as a click.IntRange, and by the enumeration of waring
#: --check-bruteforce; checked before anything of that size is allocated or run.
RANGE_CEILING = 10**7

#: Largest size of the partition paths (table/classify/probnum with partition and
#: verify partition-product --order), below the range ceiling: p(n) has about
#: 1.1*sqrt(n) digits, so the cost of these paths grows much faster than n. At the
#: ceiling a cold `verify partition-product --order 10000` takes about 0.66 s on a
#: 2-vCPU x86-64 VM (Python 3.11).
PARTITION_CEILING = 10**4

#: Largest degree that probnum --roots scans: the scan raises a Fraction to every
#: exponent at each of its 241 grid points.
ROOT_SCAN_DEGREE_CEILING = 1000

#: Largest estimated size of an exact denominator in verify, in units of its natural log,
#: checked after the range checks: a sum over n <= nmax with exponent k (or s) has a
#: denominator dividing lcm(1..nmax)^k, about e^(k*nmax); the lemma product side divides the
#: product of p^(k*exp_bound) over p <= prime_bound, about e^(k*exp_bound*prime_bound); and
#: the euler product side, about e^(s*prime_bound). With --x = u/v, the powers of x add their
#: own terms, each checked alone: max beta(n) * L on the sum side and max kappa(p, a) *
#: pi(prime_bound) * L on the product side, where L = ln max(|u|, v).
DENOMINATOR_CEILING = 4 * 10**5

#: Rows per chunk of a report's long arrays (CSV rows and FlatRows): the whole text of a
#: large report is never held at once, and a chunk of small values stays under about 0.1 MB.
EMIT_BATCH = 1024


def _check_partition(value: int, flag: str) -> None:
    if value > PARTITION_CEILING:
        raise click.UsageError(f"{flag} must be <= {PARTITION_CEILING} (the partition ceiling), got {value}")


def _check_denominator(flags: str, size: float) -> None:
    if size > DENOMINATOR_CEILING:
        shown = size if isinstance(size, int) else f"about {size:.3g}"
        raise click.UsageError(f"{flags} = {shown} must be <= {DENOMINATOR_CEILING} (the denominator ceiling)")


def _power(base: int, exponent: int) -> float:
    """``base ** exponent`` as a float, inf where that overflows: an estimate that builds no huge int."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return inf


def _check_digits(flags: str, exponent: int, base: int, power: int = 1, terms: int = 1) -> None:
    """Refuse a run, before it computes them, whose integers could pass the interpreter's
    int-to-str digit limit (0 means none); ``flags`` name the inputs in the message.

    A value at most base^exponent has at most exponent*len(str(base)) digits (one for base 1),
    a product of ``power`` such values ``power`` times as many, and a sum of ``terms`` such
    products len(str(terms)) more. Over 1..N, sigma_t(n) <= d(n)*n^t <= n^(t+1) and
    L_t(n) < n^t, so both take base N and exponent t+1.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    value_digits = exponent * len(str(base)) if base > 1 else 1
    digits = power * value_digits + (len(str(terms)) if terms > 1 else 0)
    if limit and digits > limit:
        raise click.UsageError(
            f"{flags} can give integers of {digits} digits, "
            f"more than the interpreter's limit of {limit} for printing them"
        )


def _usage(setup, *args, **kwargs):
    """Call a setup function whose ValueError means a bad argument (exit 2)."""
    try:
        return setup(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _handle(fn_id: str, t: int | None, flag: str, size: int, power: int = 1, terms: int = 1) -> ArithFnHandle:
    """The handle of a function flag over 1..``size``, after the checks that refuse it (exit 2): the
    partition ceiling on ``flag``, make_handle's, and with a t the digit estimate of sigma_t or L_t."""
    from .functions import make_handle

    if fn_id == "partition":
        _check_partition(size, flag)
    handle = _usage(make_handle, fn_id, t=t)
    if t is not None:
        _check_digits(f"--t {t} over 1..{size}", t + 1, size, power, terms)
    return handle


def _decimal(value: Fraction) -> str:
    """``value`` to 13 significant digits, rounded half to even, in the shape of ``%.12e``.

    Exact at every magnitude: the bit lengths give the decimal exponent e to within one, and
    one int division of |value|·10^(12-e) gives the digits and the remainder that rounds the
    last one. No float and no str of a huge int is made."""
    if not value:
        return f"{0:.12e}"
    num, den = abs(value.numerator), value.denominator
    # 10^e <= num/den < 10^(e+1), to within one from the bit lengths
    e = floor((num.bit_length() - den.bit_length()) * log10(2))
    while True:
        top, bottom = (num * 10 ** (12 - e), den) if e <= 12 else (num, den * 10 ** (e - 12))
        digits, rest = divmod(top, bottom)
        if digits < 10**12:
            e -= 1
        elif digits >= 10**13:
            e += 1
        else:
            break
    if 2 * rest > bottom or 2 * rest == bottom and digits % 2:
        digits += 1
    if digits == 10**13:  # rounded up to the next power of ten
        digits, e = 10**12, e + 1
    return f"{'-' if value < 0 else ''}{digits // 10**12}.{digits % 10**12:012d}e{e:+03d}"


class FlatRows(NamedTuple):
    """A long array of a report, given by columns of equal length: row i holds the i-th
    value of each column, as a list, or bare with one column. A column whose index is in
    ``quoted`` prints each value's ``str`` as a JSON string, which the caller guarantees
    needs no escape (true of ints and of :func:`format_rational`); every other column holds
    ints, which print as JSON numbers. It renders as ``list(zip(*columns))`` (or
    ``list(columns[0])``) would with each quoted column mapped through ``str``, in batches
    of EMIT_BATCH rows."""

    columns: tuple[Iterable, ...]
    quoted: tuple[int, ...] = ()


def _rows(row: str, columns: Iterable[Iterable]) -> Iterator[str]:
    """The rows of ``columns`` as text chunks of up to EMIT_BATCH rows: a chunk is one ``%``
    format of the batch's values, row by row in one flat tuple, into ``row`` repeated once per
    row. Column j of a batch is slice-assigned to every ``width``-th place of one flat list from j."""
    columns = [iter(column) for column in columns]
    width = len(columns)
    while (batch := [list(islice(column, EMIT_BATCH)) for column in columns])[0]:
        flat = [None] * (width * len(batch[0]))
        for j, column in enumerate(batch):
            flat[j::width] = column
        yield row * len(batch[0]) % tuple(flat)


def _json_rows(rows: FlatRows, pad: str) -> Iterator[str]:
    """JSON text of ``rows`` as an array value on a line indented by ``pad``, one chunk per batch
    of :func:`_rows`: a value prints with ``"%s"`` in a quoted column and ``%d`` in any other."""
    inner = pad + "  "
    cells = ['"%s"' if j in rows.quoted else "%d" for j in range(len(rows.columns))]
    # a row of several columns is a list, whose values sit one level deeper
    row = f"[\n{inner}  " + f",\n{inner}  ".join(cells) + f"\n{inner}]" if len(cells) > 1 else cells[0]
    opened = False
    # every row text starts with the comma that separates it from the row before
    for text in _rows(",\n" + inner + row, rows.columns):
        yield text if opened else "[" + text[1:]
        opened = True
    yield f"\n{pad}]" if opened else "[]"


def _structured(body: dict) -> Iterator[str]:
    """The report of the running subcommand, as JSON text chunks: ``json.dumps({"body": body,
    "header": header}, sort_keys=True, indent=2)`` and a newline, where a value of ``body`` may be
    a FlatRows in place of a list. The header's parameters are the invocation's, less ``out``."""
    import json

    ctx = click.get_current_context()
    header = {
        "artifact": "arithmos",
        "version": __version__,
        "command": ctx.command.name,
        "parameters": {
            ("M" if name == "m" else name): value for name, value in ctx.params.items() if name != "out"
        },
    }
    # the envelope's two keys in sorted order, each body value at the indent the encoder gives it
    yield '{\n  "body": {'
    for i, key in enumerate(sorted(body)):
        yield ("," if i else "") + f"\n    {json.dumps(key)}: "
        value = body[key]
        if isinstance(value, FlatRows):
            yield from _json_rows(value, "    ")
        else:
            yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n    ")
    yield ("\n  }" if body else "}") + ',\n  "header": '
    yield json.dumps(header, sort_keys=True, indent=2).replace("\n", "\n  ") + "\n}\n"


def _csv(header: tuple[str, ...], *columns: Iterable) -> Iterator[str]:
    """CSV text chunks: the header line, then row i from the i-th value of each column, each value
    as ``str`` gives it, in the chunks of :func:`_rows`."""
    yield ",".join(header) + "\n"
    yield from _rows(",".join(["%s"] * len(columns)) + "\n", columns)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write a report's text chunks to ``out`` or stdout, each as it comes, with the text stream's
    ``writelines``.

    The report is never held whole: its long arrays arrive as chunks of EMIT_BATCH
    rows, and the envelope around them in a few small pieces."""
    if out:
        with Path(out).open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        click.echo(f"wrote {out}", err=True)
    else:
        stdout = click.get_text_stream("stdout")
        stdout.writelines(chunks)
        stdout.flush()


def _parse_rational_opt(raw: str | None, flag: str) -> Fraction | None:
    if raw is None:
        return None
    from fractions import Fraction

    from .powerseries import parse_rational

    try:
        return Fraction(parse_rational(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"{flag} must be a rational like 1/2: {exc}")


def _normalize_config(raw: object, commands: dict[str, click.Command]) -> dict:
    # config keys mirror flags; fold them onto click's derived parameter names, which must exist
    if not isinstance(raw, dict):
        raise ValueError("the top level must be a JSON object")
    out = {}
    for command, section in raw.items():
        if command not in commands:
            raise ValueError(f"section {command!r} names no subcommand")
        if not isinstance(section, dict):
            raise ValueError(f"section {command!r} must be a JSON object")
        out[command] = {key.replace("-", "_").lower(): val for key, val in section.items()}
        unknown = sorted(out[command].keys() - {param.name for param in commands[command].params})
        if unknown:
            raise ValueError(f"section {command!r} names no parameter {unknown[0]!r}")
    return out


#: The --t of the function flags of table, classify and probnum.
_T_OPTION = click.option("--t", type=int, default=None,
                         help=f"Power parameter ({'/'.join(filter(takes_t, LOCAL_FUNCTIONS))} only).")


class _Runner(click.Command):
    """Runs a subcommand body: click's own errors pass through (exit 2), and
    any other failure becomes ``error: <message>`` on stderr with exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.ClickException:
            raise
        except Exception as exc:  # noqa: BLE001
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


class _Group(click.Group):
    command_class = _Runner


@click.group(cls=_Group, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="arithmos")
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file of per-command parameter defaults (keys mirror flags); explicit flags win.",
)
@click.pass_context
def cli(ctx: click.Context, config: str | None) -> None:
    """Exact-arithmetic number theory toolkit."""
    if config:
        import json

        with open(config, encoding="utf-8") as fh:
            try:
                ctx.default_map = _normalize_config(json.load(fh), ctx.command.commands)
            except ValueError as exc:  # JSON syntax, or a section or key that is no object or names nothing
                raise click.UsageError(f"bad config file {config}: {exc}")


@cli.command()
@click.option("--fn", required=True, type=click.Choice(INTEGER_FUNCTION_IDS), help="Function to tabulate.")
@_T_OPTION
@click.option("--nmax", type=click.IntRange(1, RANGE_CEILING), required=True, help="Tabulate n = 1..NMAX.")
@click.option("--format", type=click.Choice(["csv", "structured"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Output file (default: stdout).")
def table(fn: str, t: int | None, nmax: int, format: str, out: str | None) -> None:
    """Write (n, f(n)) rows for n = 1..NMAX."""
    from .classify import evaluate_range

    handle = _handle(fn, t, "--nmax", nmax)
    values = evaluate_range(handle, nmax)
    if format == "csv":
        report = _csv(("n", "value"), range(1, nmax + 1), islice(values, 1, None))
    else:
        rows = FlatRows((range(1, nmax + 1), islice(values, 1, None)), quoted=(1,))
        report = _structured({"function": handle.name, "rows": rows})
    _emit(report, out)


def _per_term_section(report: IdentityCheckReport, /, **params) -> dict:
    """A verify section of per-term failures, under the parameters that bound the check."""
    return {**params, "failures": list(report.per_term_failures), "passed": report.passed}


def _gap_section(check: NumericCheck, gap_tol: str | None, tol: Fraction | None, /, **params) -> dict:
    """A verify section of product, sum and gap; it passes or fails only against a tolerance."""
    return {**params, "product": _decimal(check.lhs), "sum": _decimal(check.rhs), "gap": _decimal(check.gap),
            "gap_tol": gap_tol, "passed": None if tol is None else check.gap <= tol}


@cli.command()
@click.option("--identity", required=True, type=click.Choice(IDENTITY_IDS))
@click.option("--t", type=int, default=None, help="Power parameter ("
              + ", ".join(f"{which} needs t >= {least}" for which, least in LEMMA_LEAST_T.items()) + ").")
@click.option("--nmax", type=click.IntRange(1, RANGE_CEILING), default=10000, show_default=True,
              help="Per-term range for lemma identities; sum truncation for euler-product and the numeric check.")
@click.option("--order", type=click.IntRange(1, RANGE_CEILING), default=1000, show_default=True,
              help="Series order for partition-product.")
@click.option("--s", type=click.IntRange(min=2), default=2, show_default=True, help="Exponent for euler-product.")
@click.option("--prime-bound", type=click.IntRange(1, RANGE_CEILING), default=10000, show_default=True)
@click.option("--exp-bound", type=click.IntRange(1, RANGE_CEILING), default=16, show_default=True)
@click.option("--x", default=None,
              help='Rational like "1/2"; enables the numeric product-vs-sum check. Its gap measures '
                   "convergence only where both sides converge absolutely: every x for lemma-a and "
                   "lemma-c, k > t + 1 for lemma-b, |x| <= 1 (or t = 1 and |x| < 2^k) for lemma-d. "
                   "The report does not check this.")
@click.option("--k", type=click.IntRange(min=2), default=None,
              help="Integer exponent >= 2 for the numeric check (default 2).")
@click.option("--gap-tol", default=None,
              help="Rational tolerance; numeric and euler gaps above it fail the run.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def verify(identity: str, t: int | None, nmax: int, order: int, s: int,
           prime_bound: int, exp_bound: int, x: str | None, k: int | None,
           gap_tol: str | None, out: str | None) -> None:
    """Verify an identity; exit 0 only if every requested check passes."""
    # a flag that this identity never reads exits 2, whether it was given or came from --config
    lemma = identity in LEMMA_DIRECT
    numeric = lemma and x is not None
    read = {"--x": (x, lemma), "--t": (t, lemma), "--k": (k, numeric),
            "--gap-tol": (gap_tol, numeric or identity == "euler-product")}
    for flag, (value, used) in read.items():
        if value is not None and not used:
            unless = " without --x" if lemma else ""
            raise click.UsageError(f"{flag} is not read by --identity {identity}{unless}")
    gap_tol_value = _parse_rational_opt(gap_tol, "--gap-tol")
    if gap_tol_value is not None and gap_tol_value < 0:  # no gap is below 0: every check would fail
        raise click.BadParameter(f"{gap_tol} is not in the range x>=0.", param_hint="'--gap-tol'")
    body: dict = {}

    if lemma:
        from .functions import constant_one
        from .identities import builtin_spec, lemma_direct, numeric_identity_check, spec_table, verify_per_term
        from .powerseries import format_rational

        if nmax < 2:
            raise click.UsageError("--nmax must be >= 2")
        spec = _usage(builtin_spec, identity, t=t)
        direct_alpha, direct_beta = (constant_one() if fn_id is None else _handle(fn_id, fn_t, "--nmax", nmax)
                                     for fn_id, fn_t in lemma_direct(identity, t))
        x_value = _parse_rational_opt(x, "--x")
        k_value = 2 if k is None else k
        if x_value is not None:
            _check_denominator("--k * --nmax", k_value * nmax)
            _check_denominator("--k * --exp-bound * --prime-bound", k_value * exp_bound * prime_bound)
            # x^beta(n) in each term and x^kappa(p, a) in each factor, from the spec's kappa(p, a) <= a^u:
            # max beta(n) <= floor(log2 nmax)^max(u, 1) and max kappa(p, a) <= exp_bound^u, where a
            # stock spec's nonzero u is its --t (L_t's a^t)
            power = spec.kappa_power
            ln_x = log(max(abs(x_value.numerator), x_value.denominator))
            # pi(P) < 1.25506 P / ln P for P > 1 (Rosser and Schoenfeld 1962), so no sieve is built
            primes = 1.25506 * prime_bound / log(prime_bound) if prime_bound > 1 else 0
            _check_denominator("floor(log2(--nmax))" + ("^--t" if power else "") + " * ln(--x)",
                               _power(nmax.bit_length() - 1, max(power, 1)) * ln_x)
            _check_denominator(("--exp-bound^--t * " if power else "") + "pi(--prime-bound) * ln(--x)",
                               _power(exp_bound, power) * primes * ln_x)
        # without --x each spec table is built as the per-term check reaches it, and dropped with it;
        # with --x both checks read one list of the two, which the numeric sum empties
        tables = spec_table(spec, nmax)
        if x_value is not None:
            tables = list(tables)
        report = verify_per_term(tables, direct_alpha, direct_beta, nmax)
        body["per_term"] = _per_term_section(report, spec=spec.name, n_max=nmax)
        if x_value is not None:
            num = numeric_identity_check(spec, tables, x_value, k_value, prime_bound, exp_bound)
            body["numeric"] = _gap_section(num, gap_tol, gap_tol_value, x=format_rational(x_value), k=k_value,
                                           prime_bound=prime_bound, exp_bound=exp_bound, n_max=nmax)
    elif identity == "euler-product":
        from .identities import euler_zeta_check

        _check_denominator("--s * --nmax", s * nmax)
        _check_denominator("--s * --prime-bound", s * prime_bound)
        check = euler_zeta_check(s, nmax, prime_bound)
        body["euler"] = _gap_section(check, gap_tol, gap_tol_value, s=s, n_max=nmax, prime_bound=prime_bound)
    else:  # partition-product
        from .identities import partition_product_check

        _check_partition(order, "--order")
        body["partition_product"] = _per_term_section(partition_product_check(order), order=order)

    body["all_passed"] = all_passed = all(section["passed"] is not False for section in body.values())
    _emit(_structured(body), out)
    if not all_passed:
        sys.exit(1)


@cli.command("classify")
@click.option("--fn", required=True, type=click.Choice(FUNCTION_IDS))
@_T_OPTION
@click.option("--bound", type=click.IntRange(4, RANGE_CEILING), required=True,
              help="Test all pairs with m*n <= BOUND.")
@click.option("--decomposable", type=click.Choice(["multiplicative", "additive"]), default=None,
              help="Also check reconstruction from the prime-power table g(p,a) = f(p^a).")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def classify_cmd(fn: str, t: int | None, bound: int, decomposable: str | None, out: str | None) -> None:
    """Classify a function over 1..BOUND; the verdict lives in the report."""
    from dataclasses import replace

    from .classify import classify, evaluate_range, verify_decomposable

    handle = _handle(fn, t, "--bound", bound, 2)  # the laws compare products v[m]*v[n]
    if decomposable:
        # both checks read one table of f over 1..bound
        values = evaluate_range(handle, bound)
        handle = replace(handle, range_values=lambda _: values)
    body = classify(handle, bound)._asdict()
    body["note"] = f"verdicts are exact over 1..{bound} only"
    if decomposable:
        body["decomposable"] = verify_decomposable(handle, decomposable, bound)._asdict()
    _emit(_structured(body), out)


@cli.command()
@click.option("--s", type=click.IntRange(min=2), required=True, help="Even power >= 2.")
@click.option("--t", type=click.IntRange(min=1), default=None, help="Number of summands for the count table.")
@click.option("--order", type=click.IntRange(0, RANGE_CEILING), required=True,
              help="Highest index in the count table.")
@click.option("--check-bruteforce", type=click.IntRange(min=0), default=None,
              help="Cross-check counts against enumeration for m <= LIMIT.")
@click.option("--lemma-g", type=(click.IntRange(min=1), click.IntRange(min=1)), default=None,
              help="Check the (T+R)-th power against the product of the T-th and R-th.")
@click.option("--format", type=click.Choice(["csv", "structured"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def waring(s: int, t: int | None, order: int, check_bruteforce: int | None,
           lemma_g: tuple[int, int] | None, format: str, out: str | None) -> None:
    """Representation-count tables for sums of s-th powers, with cross-checks."""
    from .waring import brute_force_count, integer_root, verify_lemma_g, waring_counts

    if s % 2:
        raise click.UsageError(f"odd power s={s} is unsupported; use an even s >= 2")
    if t is None and lemma_g is None:
        raise click.UsageError("provide --t for a count table and/or --lemma-g T R")
    if t is None and check_bruteforce is not None:
        raise click.UsageError("--check-bruteforce checks the count table; it needs --t")
    # a count of the t-th power is at most theta_sum^t, theta_sum the sum of the series' coefficients
    theta_sum = 1 + 2 * integer_root(order, s)
    if t is not None:
        _check_digits(f"--t {t} with --s {s} and --order {order}", t, theta_sum)
    if lemma_g is not None:
        _check_digits(f"--lemma-g {lemma_g[0]} {lemma_g[1]} with --s {s} and --order {order}",
                      sum(lemma_g), theta_sum)
    if check_bruteforce is not None:
        top = min(check_bruteforce, order)
        base = integer_root(top, s) + 1
        # base**t tuples bound the enumeration; an exponent past the ceiling's bit length
        # already decides the comparison for base >= 2, so base**t is never built huge
        if base ** min(t, RANGE_CEILING.bit_length()) > RANGE_CEILING:
            raise click.UsageError(
                f"--check-bruteforce {top} enumerates up to {base}**{t} tuples, "
                f"more than the range ceiling {RANGE_CEILING}"
            )

    body: dict = {}
    checks: dict[str, bool] = {}  # the verdict of each check run, by its report section
    if t is not None:
        counts = waring_counts(s, t, order)
        if format == "structured":
            body["counts"] = FlatRows((counts,))
        if check_bruteforce is not None:
            enumerated = brute_force_count(top, s, t)
            mismatches = [m for m in range(top + 1) if counts[m] != enumerated[m]]
            body["bruteforce_check"] = {
                "limit": top, "mismatches": mismatches, "passed": not mismatches,
            }
            checks["bruteforce_check"] = not mismatches
    if lemma_g is not None:
        conv = verify_lemma_g(s, *lemma_g, order)
        body["convolution_check"] = conv._asdict()
        checks["convolution_check"] = conv.ok

    body["all_passed"] = all(checks.values())
    if format == "csv" and t is not None:
        _emit(_csv(("m", "count"), range(len(counts)), counts), out)
        if checks:  # the CSV holds the counts only, so the verdicts go to stderr
            verdicts = (f"{name} {'passed' if ok else 'failed'}" for name, ok in checks.items())
            click.echo("checks: " + ", ".join(verdicts), err=True)
    else:
        _emit(_structured(body), out)
    if not body["all_passed"]:
        sys.exit(1)


@cli.command()
@click.option("--beta", required=True, type=click.Choice(INTEGER_FUNCTION_IDS),
              help="Exponent function for the histogram.")
@_T_OPTION
@click.option("--M", "m", type=click.IntRange(1, RANGE_CEILING), required=True, help="Histogram over n = 1..M.")
@click.option("--roots/--no-roots", default=False,
              help="Scan the shifted polynomial for real-root evidence (reported, never asserted).")
@click.option("--format", type=click.Choice(["csv", "structured"]), default="structured",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def probnum(beta: str, t: int | None, m: int, roots: bool, format: str, out: str | None) -> None:
    """Exponent histogram over 1..M, its exact PMF, and the first four moments."""
    from .powerseries import format_rational
    from .probnum import build_polynomial, eval_at_one, moment, normalize, shifted_sign_scan

    if roots and format == "csv":
        raise click.UsageError("--roots is reported in the structured format only, not with --format csv")
    # the structured report holds moments, sums of M r-th powers, r <= 4
    handle = _handle(beta, t, "--M", m, *((1, 1) if format == "csv" else (4, m + 1)))
    poly = build_polynomial(handle, m)
    pmf = normalize(poly)
    if format == "csv":
        _emit(_csv(("value", "probability"), *_pmf_columns(pmf)), out)
        return
    degree = poly.terms[-1][0]
    if roots and degree > ROOT_SCAN_DEGREE_CEILING:
        raise click.UsageError(
            f"--roots scans degrees <= {ROOT_SCAN_DEGREE_CEILING} (the root-scan ceiling); "
            f"the histogram over 1..{m} has degree {degree}"
        )
    body = {
        "beta": handle.name,
        "M": m,
        "polynomial": FlatRows((map(itemgetter(0), poly.terms), map(itemgetter(1), poly.terms))),
        "eval_at_one": eval_at_one(poly),
        "expected_at_one": m + 1,
        "pmf": FlatRows(_pmf_columns(pmf), quoted=(1,)),
        "total_probability": format_rational(sum(q for _, q in pmf.support)),
        "moments": {str(r): format_rational(moment(pmf, r)) for r in (1, 2, 3, 4)},
    }
    if roots:
        body["root_scan"] = shifted_sign_scan(poly)
    _emit(_structured(body), out)


def _pmf_columns(pmf) -> tuple[Iterable, Iterable]:
    from .powerseries import format_rational

    return map(itemgetter(0), pmf.support), map(format_rational, map(itemgetter(1), pmf.support))


def main() -> None:
    cli(prog_name="arithmos")


if __name__ == "__main__":
    main()
