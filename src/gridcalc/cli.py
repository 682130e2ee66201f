"""Command-line interface: recalc, get, dump, and bench verbs.

Exit codes: 0 success, 1 load/parse failure, 2 bad usage (including an
unknown workbook or sheet). Error values inside cells are data, not
failures.
"""

from __future__ import annotations

import argparse
import sys

from . import bench, gwb
from .engine import Engine
from .model import AddressError, CalcConfig, CellAddress, parse_address


def _calc_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--table-recalc",
        choices=["auto", "manual"],
        default="auto",
        help="recompute data tables on every recalc (auto) or never (manual)",
    )
    p.add_argument("--iterative", action="store_true", help="enable iterative calculation")
    p.add_argument("--max-iter", type=int, default=100, metavar="N")
    p.add_argument("--max-change", type=float, default=0.001, metavar="X")
    return p


def _config(args) -> CalcConfig:
    return CalcConfig(
        table_recalc=args.table_recalc,
        iterative=args.iterative,
        max_iterations=args.max_iter,
        max_change=args.max_change,
    )


def _load(args) -> Engine:
    ws = gwb.load_workspace(args.files, _config(args))
    return Engine(ws)


def _print_stats(stats) -> None:
    print(f"cell_evaluations={stats.cell_evaluations}")
    print(f"body_passes={stats.body_passes}")
    print(f"table_restores={stats.table_restores}")
    print(f"wall_time={stats.wall_time:.6f}")


def _cmd_recalc(args) -> int:
    engine = _load(args)
    stats = engine.full_recalc()
    if args.stats:
        _print_stats(stats)
    return 0


def _cmd_get(args) -> int:
    engine = _load(args)
    ws = engine.workspace
    books = ws.workbooks()
    if not books:
        print("empty workspace", file=sys.stderr)
        return 2
    sheets = books[0].sheets()
    context = CellAddress(books[0].name, sheets[0].name if sheets else "Sheet1", 1, 1)
    try:
        ref = parse_address(args.cell, context)
    except AddressError as exc:
        print(f"bad cell reference: {exc}", file=sys.stderr)
        return 2
    if not isinstance(ref, CellAddress):
        print("get takes a single cell, not a range", file=sys.stderr)
        return 2
    if ws.resolve_sheet(ref) is None:
        book, sheet = ref.workbook, ref.sheet
        where = f"workbook {book!r}" if ws.workbook(book) is None else f"sheet {sheet!r} in workbook {book!r}"
        print(f"unknown {where}", file=sys.stderr)
        return 2
    engine.full_recalc()
    print(gwb.render_value(ws.value(ref)))
    return 0


def _cmd_dump(args) -> int:
    engine = _load(args)
    ws = engine.workspace
    engine.full_recalc()
    book = args.book
    if book is None:
        books = ws.workbooks()
        if len(books) != 1:
            print("--book is required when several workbooks are loaded", file=sys.stderr)
            return 2
        book = books[0].name
    wb = ws.workbook(book)
    if wb is None:
        print(f"unknown workbook {book!r}", file=sys.stderr)
        return 2
    sheet = args.sheet
    if sheet is None and args.format == "source":
        sys.stdout.write(gwb.dump_workbook_source(ws, book))
        return 0
    if sheet is None:
        sheets = wb.sheets()
        if len(sheets) != 1:
            print("--sheet is required for tsv dumps of multi-sheet workbooks", file=sys.stderr)
            return 2
        sheet = sheets[0].name
    try:
        sys.stdout.write(gwb.dump_sheet(ws, book, sheet, args.format))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    return 0


def _cmd_bench(args) -> int:
    rows, _ = bench.run(args.calls, args.mode, args.repeat, args.seed)
    sys.stdout.write(bench.format_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcalc",
        description="Headless spreadsheet engine with what-if data tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    calc = _calc_flags()

    p = sub.add_parser("recalc", parents=[calc], help="recalculate a workspace")
    p.add_argument("files", nargs="+", help=".gws file or .gwb files")
    p.add_argument("--stats", action="store_true", help="print evaluation counters")
    p.set_defaults(func=_cmd_recalc)

    p = sub.add_parser("get", parents=[calc], help="print one cell's value after recalc")
    p.add_argument("files", nargs="+")
    p.add_argument("cell", help="cell reference, e.g. [Book]Sheet!A1")
    p.set_defaults(func=_cmd_get)

    p = sub.add_parser("dump", parents=[calc], help="dump a sheet or workbook")
    p.add_argument("files", nargs="+")
    p.add_argument("--book", help="workbook name (defaults to the only one)")
    p.add_argument("--sheet", help="sheet name")
    p.add_argument("--format", choices=["tsv", "source"], default="tsv")
    p.set_defaults(func=_cmd_dump)

    p = sub.add_parser("bench", help="time small-table vs large-table call layouts")
    p.add_argument("--calls", type=int, required=True, metavar="N")
    p.add_argument("--mode", choices=["small", "large"], required=True)
    p.add_argument("--repeat", type=int, default=1, metavar="K")
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except gwb.LoadError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:  # bad flag values, e.g. --max-iter 0 or a bench past the grid
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
