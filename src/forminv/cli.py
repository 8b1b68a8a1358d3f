"""Command-line front end.

Subcommands:
  count   -- one invariant count
  series  -- a Poincare-series table in text/json/csv
  verify  -- cross-method and structural self-checks

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 work limit
exceeded or out of memory.  Data goes to stdout (or --out), diagnostics
to stderr.
Counts are serialized as decimal strings in JSON so arbitrary-precision
values survive 64-bit consumers.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, List, Optional, Tuple

from . import counts, sl3, weights
from .counts import (
    BINARY_METHODS,
    DEFAULT_WORK_LIMIT,
    TERNARY_METHODS,
    WorkLimitExceeded,
    poincare_series,
    resolve_method,
)

_ALL_METHODS = sorted(set(BINARY_METHODS) | set(TERNARY_METHODS))


def _at_least(floor: int) -> Callable[[str], int]:
    """The argparse type of an int flag of at least ``floor``.  It is
    named int, so argparse reports a value that is no int as it would for
    ``type=int``, and one below the floor in the same usage error."""

    def parse(text: str) -> int:
        if (value := int(text)) < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {text!r}")
        return value

    parse.__name__ = "int"
    return parse


# a degree is >= 0; a budget, and verify's --d-max, >= 1, so a range that
# runs no check cannot print PASS
_DEGREE, _POSITIVE = _at_least(0), _at_least(1)


def build_parser() -> argparse.ArgumentParser:
    # a HelpFormatter built with no width asks the terminal for one, and
    # argparse builds one per add_argument; ask once, as it would, for all
    import shutil

    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="forminv",
        description="Exact counts of invariants of binary and ternary forms.",
        formatter_class=formatter,
    )
    # a given prog spares argparse rendering a usage line to find it, and
    # every subparser takes the formatter from its class
    sub = parser.add_subparsers(
        dest="command", required=True, prog=parser.prog,
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=formatter),
    )

    p_count = sub.add_parser("count", help="print a single invariant count")
    _add_form_flags(p_count)
    p_count.add_argument("--n", type=_DEGREE, required=True, help="invariant degree")
    p_count.add_argument("--json", action="store_true", help="emit a JSON object")
    _add_common_flags(p_count)
    p_count.set_defaults(func=cmd_count)

    p_series = sub.add_parser("series", help="print a Poincare series table")
    _add_form_flags(p_series)
    p_series.add_argument("--max", type=_DEGREE, required=True, help="maximum degree")
    p_series.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    p_series.add_argument(
        "--skip-zeros", action="store_true", help="omit zero coefficients"
    )
    _add_common_flags(p_series)
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser(
        "verify", help="run cross-method self-checks",
        description="The weight table totals check d <= min(--d-max, 4), n <= min(--n-max, 8).",
    )
    p_verify.add_argument("--d-max", type=_POSITIVE, default=4, help="largest form degree d")
    p_verify.add_argument("--n-max", type=_DEGREE, default=9, help="largest invariant degree n")
    p_verify.add_argument("--lambda-max", type=_DEGREE, default=20, help="largest lambda component")
    _add_common_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _add_form_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--form", choices=("binary", "ternary"), required=True)
    p.add_argument("--d", type=_DEGREE, required=True, help="form degree")
    p.add_argument("--method", choices=_ALL_METHODS, default=None)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--work-limit", type=_POSITIVE, default=DEFAULT_WORK_LIMIT,
        help="bounds peel's state-count estimate (default %(default)s); other methods ignore it",
    )
    p.add_argument("--out", default=None, help="write stdout content to a file")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from exc


def cmd_count(args: argparse.Namespace) -> int:
    method = resolve_method(args.form, args.method)
    value = counts.count(args.form, args.d, args.n, method, args.work_limit)
    if args.json:
        obj = {
            "form": args.form,
            "d": args.d,
            "n": args.n,
            "method": method,
            "value": str(value),
        }
        _emit(json.dumps(obj) + "\n", args.out)
    else:
        _emit(f"{value}\n", args.out)
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    method = resolve_method(args.form, args.method)
    rows = poincare_series(
        args.form,
        args.d,
        args.max,
        method=method,
        include_zeros=not args.skip_zeros,
        work_limit=args.work_limit,
    )
    if args.format == "text":
        text = "".join(f"{n}\t{v}\n" for n, v in rows)
    elif args.format == "csv":
        text = "n,value\n" + "".join(f"{n},{v}\n" for n, v in rows)
    else:
        obj = {
            "form": args.form,
            "d": args.d,
            "method": method,
            "coefficients": [{"n": n, "value": str(v)} for n, v in rows],
        }
        text = json.dumps(obj) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    failure, peels = _verify_agreement("ternary", args)
    if failure is None and not peels:
        failure = f"no peel comparison ran within --work-limit {args.work_limit}"
    plural = "" if peels == 1 else "s"
    # (name, failure or None) per check, in the order they run and print
    checks = [
        (f"ternary method agreement ({peels} peel comparison{plural})", failure),
        ("binary method agreement", _verify_agreement("binary", args)[0]),
        ("trivial-rep functional sweep", _verify_functional(args.lambda_max)),
        ("weight table totals", _verify_table_totals(min(args.d_max, 4), min(args.n_max, 8))),
    ]
    ok = all(why is None for _, why in checks)
    lines = [f"PASS  {name}" if why is None else f"FAIL  {name}: {why}" for name, why in checks]
    lines.append("PASS" if ok else "FAIL")
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0 if ok else 1


def _verify_agreement(form: str, args: argparse.Namespace) -> Tuple[Optional[str], int]:
    """The first disagreement (or None) of each method of the form with
    its default (``resolve_method``), for d = 1..--d-max and
    n = 0..--n-max, and the number of peel comparisons made.  Each series
    method is compared as one series.  Peel, a ternary method, is
    compared degree by degree, and skips every (d, n) whose estimate
    exceeds --work-limit."""
    table = BINARY_METHODS if form == "binary" else TERNARY_METHODS
    first = resolve_method(form)
    others = [method for method in table if method not in (first, "peel")]
    peels = 0
    for d in range(1, args.d_max + 1):
        base = poincare_series(form, d, args.n_max, method=first)
        for method in others:
            rows = poincare_series(form, d, args.n_max, method=method)
            for (n, a), (_, b) in zip(base, rows):
                if a != b:
                    return f"{first}={a} but {method}={b} at d={d}, n={n}", peels
        if "peel" in table:
            for n, a in base:
                try:
                    b = counts.count(form, d, n, "peel", args.work_limit)
                except WorkLimitExceeded:
                    continue
                peels += 1
                if a != b:
                    return f"{first}={a} but peel={b} at d={d}, n={n}", peels
    return None, peels


def _verify_functional(lambda_max: int) -> Optional[str]:
    for m in range(lambda_max + 1):
        for k in range(lambda_max + 1):
            got = sl3.e_lambda((m, k))
            want = 1 if (m, k) == (0, 0) else 0
            if got != want:
                return f"E({m},{k}) = {got}, expected {want}"
    return None


def _verify_table_totals(d_max: int, n_max: int) -> Optional[str]:
    for d in range(1, d_max + 1):
        for n in range(n_max + 1):
            got = sum(weights.weight_table(d, n).values())
            want = weights.monomial_count(d, n)
            if got != want:
                return f"total {got} != {want} at d={d}, n={n}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except WorkLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(
            "error: out of memory; try a smaller --d, --n or --max",
            file=sys.stderr,
        )
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
