"""Command line front end: order checks, range sieves, row verification,
exhaustive searches.

All reports go to stdout and are deterministic for identical inputs
(timing_ms aside); diagnostics go to stderr. Exit codes: 0 for a computed
verdict, 1 when a sieve's worker pool fails, 2 for usage or parse errors, 3
for NOT_APPLICABLE, 4 when an internal guard such as the sieve cap trips,
130 when interrupted by Ctrl-C and 141 when the reader of stdout goes away.
"""

import argparse
import functools
import math
import os
import sys
import time
from collections.abc import Callable

from .arith import MAX_INPUT
from .barker import search_barker
from .circulant import (SignRow, is_circulant_hadamard,
                        periodic_autocorrelation, search_all, spectrum)
from .criterion import (CriterionReport, Verdict, WitnessRecord,
                        available_parallelism, check_order, iter_sieve)
from .errors import LengthTooLarge, OrderTooLarge, PoolFailed, RangeTooLarge

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_POOL_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_APPLICABLE = 3
EXIT_GUARD = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _decimal_int(text: str) -> int:
    """int(text) for ASCII digits after an optional '-', not '3_6' or ' 36'."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _bounded_int(low: int, high: float, message: str) -> Callable[[str], int]:
    """A parser of decimal integers in [low, high]; message if outside."""
    def parse(text: str) -> int:
        value = _decimal_int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


_order_arg = _bounded_int(1, MAX_INPUT - 1,
                          "n must be a positive integer below 2^63")
_positive_arg = _bounded_int(1, math.inf, "must be a positive integer")


def _row_arg(text: str) -> SignRow:
    try:
        return SignRow.from_literal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _witness_dict(w: WitnessRecord) -> dict:
    return {"p": w.p, "a": w.a, "m": w.m, "order": w.order,
            "parity": w.parity, "j_index": w.j_index}


def _report_dict(report: CriterionReport) -> dict:
    return {
        "n": report.n,
        "applicable": report.applicable,
        "witnesses": [_witness_dict(w) for w in report.witnesses],
        "verdict": report.verdict.value,
        "rejection_primes": list(report.rejection_primes),
    }


def _json_record(u: int, report: CriterionReport) -> tuple[str, bool]:
    """(JSON line, whether u survives) of one sieve record.

    The line is the text json.dumps gives the record's dict. Every field is
    an int or a fixed ASCII word, so plain formatting with json.dumps's
    default separators writes the same bytes, faster. Each witness is
    unpacked once and its parity taken from order % 2: a sieve record always
    holds the witness of 2, so it is NOT_DECIDED exactly when no order is
    even. The parity and verdict words are written as literals, with no
    Verdict lookup per record.
    """
    primes, witnesses = [], []
    for p, a, m, order, j_index in report.witnesses:
        if order % 2:
            parity = "odd"
        else:
            parity = "even"
            primes.append(str(p))
        witnesses.append(
            f'{{"p": {p}, "a": {a}, "m": {m}, "order": {order}, '
            f'"parity": "{parity}", "j_index": {j_index}}}')
    verdict = "REJECTED" if primes else "NOT_DECIDED"
    return (f'{{"u": {u}, "n": {report.n}, "verdict": "{verdict}", '
            f'"rejection_primes": [{", ".join(primes)}], '
            f'"witnesses": [{", ".join(witnesses)}]}}'), not primes


def _csv_record(u: int, report: CriterionReport) -> tuple[str, bool]:
    """(CSV row, whether u survives) of one sieve record.

    No field holds a comma, quote or line break, so joining them with commas
    writes the bytes csv.writer would. Each witness is unpacked once, as in
    _json_record.
    """
    primes, witnesses = [], []
    for p, _, m, order, _ in report.witnesses:
        if order % 2 == 0:
            primes.append(str(p))
        witnesses.append(f"{p}:{m}:{order}")
    verdict = "REJECTED" if primes else "NOT_DECIDED"
    return (f"{u},{report.n},{verdict},{';'.join(primes)},"
            f"{';'.join(witnesses)}"), not primes


def _sieve_block(record: Callable, us: range,
                 reports: list) -> tuple[str, list[int]]:
    """(text, survivors) of one sieve span, made where the span runs.

    text is the record(u, report) line of each u, each ended by a newline;
    survivors are the span's NOT_DECIDED u.
    """
    lines, survivors = [], []
    for u, report in zip(us, reports):
        line, survives = record(u, report)
        lines.append(line)
        if survives:
            survivors.append(u)
    lines.append("")
    return "\n".join(lines), survivors


def _spectrum_dict(report) -> dict:
    return {
        "eigenvalues": [[b.real, b.imag] for b in report.eigenvalues],
        "magnitudes": list(report.magnitudes),
        "max_deviation": report.max_deviation,
        "root_convention": report.root_convention,
    }


def _emit_envelope(command: str, input_echo: dict, result: dict,
                   started: float) -> None:
    import json

    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": input_echo,
        "result": result,
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }
    print(json.dumps(doc, indent=2))


def _cmd_check(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    report = check_order(args.n)
    _emit_envelope("check", {"n": args.n}, _report_dict(report), started)
    if report.verdict is Verdict.NOT_APPLICABLE:
        return EXIT_NOT_APPLICABLE
    return EXIT_OK


def _cmd_verify_row(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    row = args.row
    result = {
        "literal": row.literal(),
        "n": row.n,
        "hadamard": is_circulant_hadamard(row),
        "paf": [periodic_autocorrelation(row, k) for k in range(row.n)],
        "spectrum": _spectrum_dict(spectrum(row)),
    }
    _emit_envelope("verify-row", {"row": row.literal()}, result, started)
    return EXIT_OK


def _cmd_sieve(args: argparse.Namespace) -> int:
    record = _csv_record if args.format == "csv" else _json_record
    try:
        blocks = iter_sieve(args.u_min, args.u_max,
                            workers=args.threads or available_parallelism(),
                            encode=functools.partial(_sieve_block, record))
    except ValueError as exc:  # RangeTooLarge is one too
        print(f"ryser: {exc}", file=sys.stderr)
        return EXIT_GUARD if isinstance(exc, RangeTooLarge) else EXIT_USAGE

    total, survivors = 0, []
    if args.format == "csv":
        print("u,n,verdict,rejection_primes,witnesses")
    # One write and one flush per span: a piped stdout is block-buffered,
    # and the flush passes each span on as soon as it is computed.
    for text, found in blocks:
        sys.stdout.write(text)
        sys.stdout.flush()
        total += text.count("\n")
        survivors += found
    counts = {Verdict.REJECTED.value: total - len(survivors),
              Verdict.NOT_DECIDED.value: len(survivors)}
    summary = {"total": total, "counts": counts, "survivors": survivors}
    if args.format == "csv":
        joined = " ".join(str(u) for u in survivors) or "none"
        print(f"# total {total}; rejected {counts[Verdict.REJECTED.value]}; "
              f"not decided {counts[Verdict.NOT_DECIDED.value]}; "
              f"survivors: {joined}", file=sys.stderr)
    else:
        import json

        print(json.dumps({"summary": summary}))
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    try:
        if args.kind == "circulant":
            rows = search_all(args.size)
        else:
            rows = search_barker(args.size)
    except (OrderTooLarge, LengthTooLarge) as exc:
        print(f"ryser: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for row in rows:
        print(row.literal())
    print(f"count {len(rows)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ryser",
        description="Screen integer orders for circulant Hadamard matrices, "
                    "verify candidate rows, and run desk-scale exhaustive "
                    "searches.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="apply the order rejection criterion to one n")
    p_check.add_argument("n", type=_order_arg)
    p_check.set_defaults(handler=_cmd_check)

    p_sieve = sub.add_parser(
        "sieve", help="criterion reports for n = 4u^2 over a range of odd u")
    p_sieve.add_argument("u_min", type=_decimal_int)
    p_sieve.add_argument("u_max", type=_decimal_int)
    p_sieve.add_argument("--format", choices=("json-lines", "csv"),
                         default="json-lines")
    p_sieve.add_argument("--threads", type=_positive_arg, default=None,
                         help="worker count (default and maximum: "
                              "available parallelism)")
    p_sieve.set_defaults(handler=_cmd_sieve)

    p_verify = sub.add_parser(
        "verify-row",
        help="exact and spectral Hadamard checks for one '+'/'-' row literal")
    p_verify.add_argument("row", type=_row_arg)
    p_verify.set_defaults(handler=_cmd_verify_row)

    p_search = sub.add_parser(
        "search", help="exhaustive circulant Hadamard or Barker search")
    p_search.add_argument("kind", choices=("circulant", "barker"))
    p_search.add_argument("size", type=_decimal_int)
    p_search.add_argument("--threads", type=_positive_arg, default=None,
                          help="accepted and ignored: both searches run "
                               "in one process")
    p_search.set_defaults(handler=_cmd_search)
    return parser


def _rows_as_positionals(argv: list[str]) -> list[str]:
    """argv with '--' put before a lone verify-row literal starting with '-'.

    argparse reads an argument such as '-+++' as an unknown option, so it
    would never reach the row parser.
    """
    if (len(argv) == 2 and argv[0] == "verify-row"
            and set(argv[1]) <= {"+", "-"} and argv[1].startswith("-")):
        return [argv[0], "--", argv[1]]
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_rows_as_positionals(argv))
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull so that the flush at
        # interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("ryser: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except PoolFailed as exc:
        print(f"ryser: {exc}", file=sys.stderr)
        return EXIT_POOL_FAILED


if __name__ == "__main__":
    sys.exit(main())
