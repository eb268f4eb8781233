"""Command line interface.

Exit codes: 0 success, 1 verification or construction failure, 2 bad
usage or malformed input, 3 a bound was too small for the request, 4 a
safety cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fractal, greedy, grid, radix, render, verify, witness

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_CAP = 4


def _write_out(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_convert(args) -> int:
    base = radix.RationalBase.parse(args.base)
    if args.from_digits is not None:
        value = radix.evaluate(args.from_digits, base)
        text = radix.to_decimal(value.numerator)
        print(text if value.denominator == 1 else f"{text}/{radix.to_decimal(value.denominator)}")
    else:
        print(radix.represent(radix.from_decimal(args.value), base))
    return EXIT_OK


def cmd_sequence(args) -> int:
    if args.row < 0:
        raise ValueError(f"--row must be >= 0, got {args.row}")
    if args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    verify.check_cap("--limit", args.limit)
    if args.method == "greedy":
        values = list(greedy.build_partition(args.limit).row(args.row))
    else:
        values = fractal.row_values_below(args.row, args.limit)
    if args.json:
        print(json.dumps(values, separators=(",", ":")))
    else:
        for v in values:
            print(v)
    return EXIT_OK


def cmd_cross(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    verify.check_cap("--count", args.count, rows=True)
    rows = []
    if args.method in ("greedy", "both"):
        bound = greedy.first_term_bound(args.count)
        verify.check_cap(f"the sieve bound for {args.count} rows", bound)
        part = greedy.build_partition(bound)
        rows = greedy.cross_sequence(part, args.count)
    g_rows = []
    if args.method in ("grid", "both"):
        g_rows = [int(grid.cell(i, 0), 3) for i in range(args.count)]
    if args.method == "both" and rows != g_rows:
        print(f"mismatch: sieve {rows} vs grid {g_rows}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    values = rows or g_rows
    digits = [radix.represent(2 * i) for i in range(args.count)]
    if args.json:
        doc = [{"row": i, "value": v, "digits": s} for i, (v, s) in enumerate(zip(values, digits))]
        print(json.dumps(doc, separators=(",", ":")))
    else:
        for v, s in zip(values, digits):
            print(f"{v} {s}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, max_value=args.max_value, max_rows=args.max_rows)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    if args.timings:
        for r in report.results:
            print(f"check {r.name} took {r.duration_s:.3f}s", file=sys.stderr)
        print(f"suite {report.suite} took {report.duration_s:.2f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _check_window_cap(rows: int, cols: int) -> None:
    """Bound a grid or render window's cell count by the value cap before any cell is built.

    Sizes below 1 are left to the builders, which reject them as usage errors.
    """
    if rows > 0 and cols > 0:
        verify.check_cap(f"the cell count of --rows {rows} x --cols {cols}", rows * cols)


def cmd_grid(args) -> int:
    _check_window_cap(args.rows, args.cols)
    win = grid.window(args.rows, args.cols)
    if args.format == "csv":
        text = win.to_csv()
    elif args.format == "json":
        text = win.to_json() + "\n"
    else:
        text = win.to_text()
    _write_out(text, args.output)
    return EXIT_OK


def cmd_witness(args) -> int:
    pair, trace = witness.witness(args.x, args.target_row)
    _write_out(pair.to_json(trace) + "\n", args.output)
    return EXIT_OK


def cmd_render(args) -> int:
    _check_window_cap(args.rows, args.cols)
    if args.format == "ascii":
        text = render.render_ascii(args.levels, args.rows, args.cols)
    else:
        text = render.render_svg(args.levels, args.rows, args.cols)
    _write_out(text, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stanleygrid",
        description="Base 3/2 numeration and the greedy partition into 3-free sequences.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between integers and digit strings")
    p.add_argument("--base", default="3/2", help="base as p/q or p (default 3/2)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--value", help="integer to write in the base")
    group.add_argument("--from-digits", help="digit string to evaluate")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("sequence", help="one row of the partition, by sieve or by grid")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--limit", type=int, required=True, help="exclusive value bound")
    p.add_argument("--method", choices=("greedy", "grid"), default="greedy")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sequence)

    p = sub.add_parser("cross", help="first term of each row")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--method", choices=("greedy", "grid", "both"), default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cross)

    p = sub.add_parser("verify", help="run self-verification suites")
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.add_argument("--max-value", type=int, default=None)
    p.add_argument("--max-rows", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="print each check's duration, then the total, to stderr")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("grid", help="print a top-left window of the grid")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("witness", help="why a numeral was pushed past a row")
    p.add_argument("x", help="base-3 numeral")
    p.add_argument("--target-row", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("render", help="draw the nested triple structure")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--rows", type=int, default=18)
    p.add_argument("--cols", type=int, default=16)
    p.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_render)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except greedy.InsufficientRangeError as exc:
        hint = f" (a bound of {exc.required_bound} suffices)" if exc.required_bound else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_BOUND
    except verify.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except witness.ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
