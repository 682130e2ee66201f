"""Seeded workload generators.

Each generator writes workbook text in the exact form
``gwb.dump_workbook_source`` produces (sorted cell directives, ``{=TABLE}``
markers on body cells, tables after cells, names last), so that a load
followed by a dump must give back the generated text byte for byte.

Why these three workloads:

* ``call-small``: N separate 2x2 call tables share the input cell A2 and
  call the shipped ISBN-10 body. Time goes to the table scheduler and the
  plan code; today each pass re-evaluates every table's result link.
* ``call-large``: the same kind of candidates go through one (N+1)-row
  table, so there is one restore per recalc and the time goes to the
  formula evaluator. Its workbook carries N ``{=TABLE(,A2)}`` markers,
  which the loader checks against the declared tables.
* ``edit-batch``: a client workbook with a thousand inline validation
  rows plus a few by-reference calls into the shipped ``lib.gwb``, driven
  by a stream of single-cell edits. Set-up is dominated by formula parsing
  and graph building; every edit clears and rebuilds the table plans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gridcalc import CellAddress

import oracle

# Each size is the largest that keeps a run's samples short and numerous
# enough; the measurements are under "Workload sizes" in DESIGN.md.
CALL_SMALL_N = 64
CALL_LARGE_N = 200
EDIT_ROWS = 1000
EDIT_ISBN_CALLS = 4  # per client sheet; Sheet1 and Sheet2 both call ISBN10check
EDIT_ISSN_CALLS = 4
EDIT_CALL_EVERY = 8  # every 8th edit rewrites a call's argument instead of a row

ASSETS = Path(__file__).resolve().parent.parent / "src" / "gridcalc" / "assets"

ISBN10_ROW = (
    'IF(12-MOD(SUMPRODUCT(VALUE(MID(A{r},{{1;2;3;4;5;6;7;8;9}},1)),{{10;9;8;7;6;5;4;3;2}}),11)'
    '=MATCH(RIGHT(A{r}),{{"0";"1";"2";"3";"4";"5";"6";"7";"8";"9";"X"}},0),"valid","invalid")'
)
ISBN13_ROW = (
    'IF(MOD(10-MOD(SUMPRODUCT(VALUE(MID(A{r},{{1;2;3;4;5;6;7;8;9;10;11;12}},1)),'
    '{{1;3;1;3;1;3;1;3;1;3;1;3}}),10),10)=VALUE(RIGHT(A{r})),"valid","invalid")'
)
RESULT_ROW = 'IF(ISBLANK(A{r}),"",IF(LEN(A{r})=10,B{r},C{r}))'


def canonical_asset(name: str) -> str:
    """A shipped workbook in dumped form: comments and blank lines dropped,
    ``name`` directives moved to the end in case-insensitive order."""
    body, names = [], []
    for raw in (ASSETS / name).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        (names if line.startswith("name ") else body).append(line)
    names.sort(key=lambda line: line.split()[1].casefold())
    return "\n".join(body + names) + "\n"


def _quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


@dataclass
class Edit:
    writes: list  # (CellAddress, text literal) pairs, applied in order
    read: CellAddress
    expected: str


@dataclass
class Workload:
    files: dict  # file name -> generated text
    load: list  # file names handed to gwb.load_workspace
    books: dict  # workbook name -> file name, for the round-trip check
    results: dict  # CellAddress -> verdict the oracle expects after a recalc
    inputs: list  # table input cells, blank again after every recalc
    useful_evals: int  # evaluations one recalc's table passes and restores need
    next_edit: Callable[[int], Edit]  # the index-th edit of the seeded stream


# -- call-small / call-large -------------------------------------------------


def _bench_addr(col: int, row: int) -> CellAddress:
    return CellAddress("calls", "Bench", col, row)


def _call_workload(seed: int, small: bool) -> Workload:
    rng = random.Random(seed)
    n = CALL_SMALL_N if small else CALL_LARGE_N
    args = [oracle.isbn10_candidate(rng) for _ in range(n)]
    lines = canonical_asset("bench_body.gwb").splitlines()
    results, tables, arg_rows = {}, [], []
    if small:
        for i, text in enumerate(args):
            top = 4 + 2 * i
            lines += [f"B{top} = D2", f"A{top + 1} : {_quote(text)}", f"B{top + 1} = {{=TABLE(,A2)}}"]
            tables.append(f"table A{top}:B{top + 1} colinput=A2")
            arg_rows.append(top + 1)
    else:
        lines.append("B4 = D2")
        for i, text in enumerate(args):
            lines += [f"A{5 + i} : {_quote(text)}", f"B{5 + i} = {{=TABLE(,A2)}}"]
            arg_rows.append(5 + i)
        tables.append(f"table A4:B{4 + n} colinput=A2")
    for row, text in zip(arg_rows, args):
        results[_bench_addr(2, row)] = oracle.isbn10_verdict(text)

    def edit(index: int) -> Edit:
        row = rng.choice(arg_rows)
        text = oracle.isbn10_candidate(rng)
        return Edit([(_bench_addr(1, row), text)], _bench_addr(2, row), oracle.isbn10_verdict(text))

    input_cell = _bench_addr(1, 2)
    return Workload(
        files={"calls.gwb": "\n".join(lines + tables) + "\n"},
        load=["calls.gwb"],
        books={"calls": "calls.gwb"},
        results=results,
        inputs=[input_cell],
        # B2, D2 and the table's own result link, once per value row and
        # once more for the restore: n tables of one row, or one of n rows
        useful_evals=3 * (2 * n if small else n + 1),
        next_edit=edit,
    )


# -- edit-batch ----------------------------------------------------------------


def _isbn_blocks(rng: random.Random, candidate: str) -> list:
    """Split a 10-character ISBN into group, publisher, item and check blocks."""
    group = rng.randint(1, 2)
    publisher = rng.randint(2, 4)
    return [candidate[:group], candidate[group : group + publisher], candidate[group + publisher : 9], candidate[9]]


def _edit_batch(seed: int) -> Workload:
    rng = random.Random(seed)
    results: dict = {}
    isbn_calls, issn_calls = [], []  # (sheet, argument row)
    book: list = []

    def book_addr(sheet: str, col: int, row: int) -> CellAddress:
        return CellAddress("Book2", sheet, col, row)

    def row_candidate() -> str:
        return oracle.isbn10_candidate(rng) if rng.random() < 0.5 else oracle.isbn13_candidate(rng)

    for sheet, n_issn in (("Sheet1", EDIT_ISSN_CALLS), ("Sheet2", 0)):
        cells, tables = [], []
        for k in range(max(EDIT_ISBN_CALLS, n_issn)):
            top, arg = 2 + 2 * k, 3 + 2 * k
            if k < EDIT_ISBN_CALLS:
                cells.append((top, 6, "F{r} = [lib]ISBN10check!B9"))
                text = oracle.isbn10_candidate(rng)
                for col, block in enumerate(_isbn_blocks(rng, text), start=1):
                    cells.append((arg, col, f"{'ABCD'[col - 1]}{{r}} : {_quote(block)}"))
                cells.append((arg, 5, f'E{{r}} : "[Book2]{sheet}!A{arg}:D{arg}"'))
                cells.append((arg, 6, "F{r} = {{=TABLE(,A1)}}"))
                tables.append(f"table E{top}:F{arg} colinput=A1")
                isbn_calls.append((sheet, arg))
                results[book_addr(sheet, 6, arg)] = oracle.isbn10_verdict(text)
            if k < n_issn:
                cells.append((top, 9, "I{r} = [lib]ISSNcheck!B5"))
                text = oracle.issn_candidate(rng)
                cells.append((arg, 8, f"H{{r}} : {_quote(text)}"))
                cells.append((arg, 9, "I{r} = {{=TABLE(,A2)}}"))
                tables.append(f"table H{top}:I{arg} colinput=A2")
                issn_calls.append((sheet, arg))
                results[book_addr(sheet, 9, arg)] = oracle.issn_verdict(text)
        book.append(f"sheet {sheet}")
        book += [fmt.format(r=row) for row, _, fmt in sorted(cells, key=lambda c: (c[0], c[1]))]
        book += tables

    book += ["sheet Rows", 'A1 : "ISBN"', 'B1 : "ISBN10"', 'C1 : "ISBN13"', 'D1 : "RESULT"']
    for r in range(2, EDIT_ROWS + 2):
        text = row_candidate()
        book += [
            f"A{r} : {_quote(text)}",
            f"B{r} = " + ISBN10_ROW.format(r=r),
            f"C{r} = " + ISBN13_ROW.format(r=r),
            f"D{r} = " + RESULT_ROW.format(r=r),
        ]
        results[book_addr("Rows", 4, r)] = oracle.verdict(text)

    def edit(index: int) -> Edit:
        if index % EDIT_CALL_EVERY != EDIT_CALL_EVERY - 1:
            row = rng.randrange(2, EDIT_ROWS + 2)
            text = row_candidate()
            return Edit([(book_addr("Rows", 1, row), text)], book_addr("Rows", 4, row), oracle.verdict(text))
        if (index // EDIT_CALL_EVERY) % 2 == 0:
            sheet, arg = rng.choice(isbn_calls)
            text = oracle.isbn10_candidate(rng)
            writes = [(book_addr(sheet, col, arg), block) for col, block in enumerate(_isbn_blocks(rng, text), start=1)]
            return Edit(writes, book_addr(sheet, 6, arg), oracle.isbn10_verdict(text))
        sheet, arg = rng.choice(issn_calls)
        text = oracle.issn_candidate(rng)
        return Edit([(book_addr(sheet, 8, arg), text)], book_addr(sheet, 9, arg), oracle.issn_verdict(text))

    isbn_inputs = [book_addr("Sheet1", 1, 1), book_addr("Sheet2", 1, 1)]
    issn_input = book_addr("Sheet1", 1, 2)
    return Workload(
        files={
            "Book2.gwb": "\n".join(book) + "\n",
            "lib.gwb": canonical_asset("lib.gwb"),
            "edit.gws": "workbook Book2 Book2.gwb\nworkbook lib lib.gwb\n",
        },
        load=["edit.gws"],
        books={"Book2": "Book2.gwb", "lib": "lib.gwb"},
        results=results,
        inputs=isbn_inputs + [issn_input],
        # lib's ISBN10check A2 and B2:B9 plus the call's own link; ISSNcheck
        # A2 and B2:B5 plus the link; each call has one value row and a restore.
        useful_evals=2 * (10 * len(isbn_calls) + 6 * len(issn_calls)),
        next_edit=edit,
    )


WORKLOADS = {
    "call-small": lambda seed: _call_workload(seed, small=True),
    "call-large": lambda seed: _call_workload(seed, small=False),
    "edit-batch": _edit_batch,
}
