"""Formula tokenizer, parser, and static dependency extraction.

Grammar uses US-locale separators: ``,`` between call arguments, ``;``
between array-constant rows and ``,`` between columns within a row, so
``{10;9;8}`` is a 3x1 column. Operator precedence comes from one table,
``_PRECEDENCE``; low to high: comparisons, ``&``, ``+ -``, ``* /``, ``^``;
a prefix ``-`` or ``+`` binds tighter than all of them, so ``-2^2`` is 4.
Formula text is ASCII outside text literals and whitespace, and holds no
line break (no character that :meth:`str.splitlines` ends a line at), not
even inside a text literal: a ``.gwb`` file holds one formula per line.

A formula's *shape* is its source with each cell reference's column, row
and ``$`` marks left out: ``A1+$B$1`` and ``C7+D2`` have one shape, in any
cells of one sheet. Formulas of one shape parse to one tree but for the
corners of their references, so :func:`shared_formula` parses each shape
once per sheet and gives every formula of it that template and the
references its own text names (:class:`Template`), not a tree of its own;
the engine compiles each template once, not each formula. A loaded formula
is first checked against the template of the formula above it
(:meth:`Template.copied`), and its text is scanned for its shape only when
that check fails.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, MutableMapping, Union

from .model import (
    MAX_ROWS,
    NUMBER_RE,
    Array,
    CellAddress,
    Error,
    ERROR_CODES,
    CELL_RE,
    Content,
    Formula,
    Literal,
    RangeRef,
    Reference,
    cell_coordinates,
    grid_coordinates,
    to_text,
)


class FormulaError(ValueError):
    """Base for lexing/parsing failures; carries a character offset."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class LexError(FormulaError):
    pass


class ParseError(FormulaError):
    pass


class TableFormulaError(ParseError):
    """TABLE cannot be entered in a formula; tables are declared, not typed."""


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

NUMBER = "number"
TEXT = "text"
BOOLEAN = "boolean"
IDENTIFIER = "identifier"
CELLREF = "cellref"
OPERATOR = "operator"
PUNCT = "punct"
ERROR_LITERAL = "error-literal"


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    start: int

    @property
    def end(self) -> int:
        return self.start + len(self.lexeme)


TEXT_RE = re.compile(r'"(?:""|[^"])*"')

_WORD = r"[$A-Za-z_][$A-Za-z0-9_.]*"
_ERROR = "|".join(re.escape(c) for c in sorted(ERROR_CODES, key=len, reverse=True))
# One alternative per token kind; their first characters never overlap.
# A word is then classified as a boolean, a cell reference or an identifier.
_TOKEN_RE = re.compile(
    rf"(?P<word>{_WORD})"
    rf"|(?P<number>{NUMBER_RE.pattern})"
    r"|(?P<punct>[(){};,:!\[\]])"
    r"|(?P<operator><>|<=|>=|[-+*/^&=<>])"
    rf"|(?P<text>{TEXT_RE.pattern})"
    r"|(?P<space>\s+)"
    rf"|(?P<error>{_ERROR})"
)
# Every character str.splitlines ends a line at.
_LINE_BREAK_RE = re.compile("[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
# Why no alternative matched, by the character it stopped at.
_LEX_FAILURES = {'"': "unterminated text literal", "#": "unknown error literal"}


def quote(text: str) -> str:
    """*text* as a text literal: in double quotes, each quote doubled."""
    return '"' + text.replace('"', '""') + '"'


def unquote(literal: str) -> str:
    """The text a literal matching :data:`TEXT_RE` stands for."""
    return literal[1:-1].replace('""', '"')


def _classify_word(lexeme: str, start: int) -> str:
    if lexeme.casefold() in ("true", "false"):
        return BOOLEAN
    if cell_coordinates(lexeme) is not None:
        return CELLREF
    if "$" in lexeme:
        raise LexError(f"illegal '$' in {lexeme!r}", start)
    return IDENTIFIER


def tokenize(source: str) -> list[Token]:
    """Tokenize formula source (without a leading ``=``).

    Concatenating the lexemes plus the skipped whitespace reconstructs the
    source exactly; spans are preserved on every token.
    """
    line_break = _LINE_BREAK_RE.search(source)
    if line_break is not None:
        raise LexError("line break in formula", line_break.start())
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            ch = source[pos]
            raise LexError(_LEX_FAILURES.get(ch, f"illegal character {ch!r}"), pos)
        kind, lexeme = m.lastgroup, m.group()
        if kind == "word":
            kind = _classify_word(lexeme, pos)
        elif kind == "error":
            kind = ERROR_LITERAL
        if kind != "space":
            tokens.append(Token(kind, lexeme, pos))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ref:
    """A reference: resolved address/range, or a defined name (str)."""

    target: Union[Reference, str]


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


class Omitted:
    """Placeholder for an omitted call argument, e.g. ``ADDRESS(1,1,,TRUE)``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OMITTED"


OMITTED = Omitted()


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


# A ``{...}`` array constant is a Literal holding an Array.
Node = Union[Literal, Ref, Unary, Binary, Call]

# Binary operators by precedence, low to high; all are left-associative.
_PRECEDENCE = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}

# The value of each kind of literal token, in formulas and array constants.
_LITERAL_VALUES = {
    NUMBER: float,
    TEXT: unquote,
    BOOLEAN: lambda lexeme: lexeme.casefold() == "true",
    ERROR_LITERAL: Error.of,
}

# Deepest nesting of parentheses, call arguments and prefix signs the
# parser accepts; each level costs it about ten stack frames.
MAX_NESTING = 64


class _Parser:
    def __init__(self, tokens: list[Token], source: str, context: CellAddress) -> None:
        self.tokens = tokens
        self.source = source
        self.context = context
        self.pos = 0
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token | None:
        idx = self.pos + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(self.source))
        self.pos += 1
        return tok

    def _accept(self, kind: str, lexeme: str | None = None) -> Token | None:
        tok = self._peek()
        if tok is not None and tok.kind == kind and (lexeme is None or tok.lexeme == lexeme):
            self.pos += 1
            return tok
        return None

    def _nest(self) -> None:
        """Enter one nesting level; too deep a formula is a parse error."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self._peek()
            where = tok.start if tok is not None else len(self.source)
            raise ParseError(f"formula nested more than {MAX_NESTING} levels deep", where)

    def _expect(self, kind: str, lexeme: str | None = None) -> Token:
        tok = self._accept(kind, lexeme)
        if tok is None:
            got = self._peek()
            where = got.start if got is not None else len(self.source)
            want = lexeme if lexeme is not None else kind
            raise ParseError(f"expected {want!r}", where)
        return tok

    @staticmethod
    def _literal_value(tok: Token):
        value = _LITERAL_VALUES[tok.kind](tok.lexeme)
        if value == math.inf:
            raise ParseError("number too large", tok.start)
        return value

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Node:
        node = self.expression()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.lexeme!r}", tok.start)
        return node

    def expression(self) -> Node:
        self._nest()
        node = self.binary(1)
        self.depth -= 1
        return node

    def binary(self, min_prec: int) -> Node:
        """Operands joined by operators of precedence *min_prec* or higher.

        Operators of one level are gathered in the loop, into a left-deep
        chain; recursion goes one precedence level up at a time, so its
        depth is bounded by the number of levels, not by the chain length.
        """
        node = self.unary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != OPERATOR or _PRECEDENCE[tok.lexeme] < min_prec:
                return node
            self.pos += 1
            node = Binary(tok.lexeme, node, self.binary(_PRECEDENCE[tok.lexeme] + 1))

    def unary(self) -> Node:
        tok = self._peek()
        if tok is not None and tok.kind == OPERATOR and tok.lexeme in ("-", "+"):
            self.pos += 1
            self._nest()
            node = Unary(tok.lexeme, self.unary())
            self.depth -= 1
            return node
        return self.primary()

    def primary(self) -> Node:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(self.source))
        after = self._peek(1)
        qualifies = after is not None and after.kind == PUNCT and after.lexeme == "!"
        if qualifies and tok.kind in (IDENTIFIER, CELLREF, BOOLEAN):  # S1!A1 and TRUE!A1 name sheets too
            return self.sheet_qualified_ref()
        if tok.kind in _LITERAL_VALUES:
            self.pos += 1
            return Literal(self._literal_value(tok))
        if tok.kind == PUNCT and tok.lexeme == "(":
            self.pos += 1
            node = self.expression()
            self._expect(PUNCT, ")")
            return node
        if tok.kind == PUNCT and tok.lexeme == "{":
            return self.array_const()
        if tok.kind == PUNCT and tok.lexeme == "[":
            return self.book_qualified_ref()
        if tok.kind == IDENTIFIER:
            if after is not None and after.kind == PUNCT and after.lexeme == "(":
                return self.call()
            self.pos += 1
            return Ref(tok.lexeme)
        if tok.kind == CELLREF:
            return Ref(self.cell_or_range())
        raise ParseError(f"unexpected {tok.lexeme!r}", tok.start)

    def call(self) -> Node:
        name_tok = self._next()
        if name_tok.lexeme.casefold() == "table":
            raise TableFormulaError(
                "TABLE formulas cannot be entered directly; declare a data table instead",
                name_tok.start,
            )
        self._expect(PUNCT, "(")
        args: list = []
        if self._accept(PUNCT, ")"):
            return Call(name_tok.lexeme, ())
        args.append(self.argument())
        while self._accept(PUNCT, ","):
            args.append(self.argument())
        self._expect(PUNCT, ")")
        return Call(name_tok.lexeme, tuple(args))

    def argument(self):
        tok = self._peek()
        if tok is not None and tok.kind == PUNCT and tok.lexeme in (",", ")"):
            return OMITTED
        return self.expression()

    def array_const(self) -> Node:
        self._expect(PUNCT, "{")
        rows: list[list] = [[self.array_element()]]
        while True:
            if self._accept(PUNCT, ","):
                rows[-1].append(self.array_element())
            elif self._accept(PUNCT, ";"):
                rows.append([self.array_element()])
            else:
                break
        close = self._expect(PUNCT, "}")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParseError("array constant rows differ in length", close.start)
        return Literal(Array(rows))

    def array_element(self):
        negate = self._accept(OPERATOR, "-") is not None
        tok = self._next()
        if negate and tok.kind != NUMBER:
            raise ParseError("array constants allow '-' only before numbers", tok.start)
        if tok.kind not in _LITERAL_VALUES:
            raise ParseError("array constants hold scalar literals only", tok.start)
        value = self._literal_value(tok)
        return -value if negate else value

    def book_qualified_ref(self) -> Node:
        self._expect(PUNCT, "[")
        book_tok = self._next()
        if book_tok.kind not in (IDENTIFIER, CELLREF, NUMBER, BOOLEAN):
            raise ParseError("expected workbook name", book_tok.start)
        self._expect(PUNCT, "]")
        sheet_tok = self._next()
        if sheet_tok.kind not in (IDENTIFIER, CELLREF, BOOLEAN):
            raise ParseError("expected sheet name", sheet_tok.start)
        self._expect(PUNCT, "!")
        return Ref(self.cell_or_range(book_tok.lexeme, sheet_tok.lexeme))

    def sheet_qualified_ref(self) -> Node:
        sheet_tok = self._next()
        self._expect(PUNCT, "!")
        return Ref(self.cell_or_range(self.context.workbook, sheet_tok.lexeme))

    def cell_or_range(self, workbook: str = "", sheet: str = "") -> Reference:
        """A cell or range on the named sheet, or else on the context's."""
        first = self._expect(CELLREF)
        coords = cell_coordinates(first.lexeme)
        a = CellAddress(workbook, sheet, *coords) if sheet else self.context.moved(*coords)
        colon = self._peek()
        after = self._peek(1)
        if (
            colon is not None
            and colon.kind == PUNCT
            and colon.lexeme == ":"
            and after is not None
            and after.kind == CELLREF
        ):
            self.pos += 2
            b = a.moved(*cell_coordinates(after.lexeme))
            return RangeRef.normalized(a, b)
        return a


def parse_formula(source: str, context: CellAddress) -> Node:
    """Parse formula source text (no leading ``=``) into an AST.

    References are qualified against *context* but not evaluated. The
    function name TABLE is rejected with :class:`TableFormulaError`.
    """
    return _Parser(tokenize(source), source, context).parse()


# ---------------------------------------------------------------------------
# Static dependencies
# ---------------------------------------------------------------------------


@dataclass
class DependencyInfo:
    refs: set
    volatile: bool = False
    unresolved_names: set = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.unresolved_names is None:
            self.unresolved_names = set()


def _scan(ast: Node) -> tuple[list, list, bool]:
    """The Ref nodes of *ast* that hold a cell or range, in source order;
    the defined names it reads; whether it is volatile (see
    :func:`static_dependencies`)."""
    from . import functions  # local import: functions depends on this module

    nodes: list = []
    named: list = []
    volatile = False
    stack = [ast]  # walked without recursion, as a chain can be long
    while stack:
        node = stack.pop()
        if isinstance(node, Binary):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Ref):
            if isinstance(node.target, str):
                named.append(node.target)
            else:
                nodes.append(node)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Call):
            spec = functions.REGISTRY.get(node.name.upper())
            if spec is not None and spec.volatile:
                volatile = True
            stack.extend([arg for arg in reversed(node.args) if arg is not OMITTED])
    return nodes, named, volatile


def static_dependencies(ast: Node, names: Mapping[str, Reference] | None = None) -> DependencyInfo:
    """Collect every statically known reference in *ast*.

    Defined names are resolved through *names* (case-insensitive keys);
    unresolvable ones are reported rather than raised, since the cell then
    simply evaluates to ``#NAME?``. Formulas using INDIRECT or OFFSET are
    flagged volatile because their true read set is unknowable before
    evaluation; which builtins are volatile is read from the function
    registry (``Builtin.volatile``), and nothing else makes a formula
    volatile: XADR of anything but a reference is ``#VALUE!``.
    """
    names = names or {}
    nodes, named, volatile = _scan(ast)
    info = DependencyInfo({node.target for node in nodes}, volatile)
    for name in named:
        target = names.get(name.casefold())
        if target is None:
            info.unresolved_names.add(name)
        else:
            info.refs.add(target)
    return info


# ---------------------------------------------------------------------------
# Formula templates: one parse per shape
# ---------------------------------------------------------------------------

# A run of tokens that hold no cell reference, then one bare word that may
# be one. The boundaries are _TOKEN_RE's: text literals and numbers are read
# whole (no reference in "A7" or in 1E5), and a workbook name after "[" and
# a sheet name before "!" are kept as they stand. Characters that start no
# such token (operators, punctuation, space) are read in runs. The word is
# a reference when its cell is inside the grid. No match is empty, so the
# last one ends the source.
_CELL_WORD = rf"{CELL_RE.pattern}(?![$A-Za-z0-9_.])"
_ROW_RE = re.compile("[0-9]+")
_SHAPE_RE = re.compile(
    r'(?!\Z)(?P<pre>(?:[^"$A-Za-z_0-9.#\[]+'
    rf"|{NUMBER_RE.pattern}|{TEXT_RE.pattern}|{_WORD}\s*!|(?!{_CELL_WORD}){_WORD}"
    rf"|\[\s*(?:{_WORD}|{NUMBER_RE.pattern})|{_ERROR})*)"
    rf"(?P<cell>{_CELL_WORD})?"
)
_LETTERS = _SHAPE_RE.groupindex["cell"] + 1  # CELL_RE's groups: column letters, then row digits


def _shape(source: str, corners: list, rows: list) -> str:
    r"""*source* with each cell reference as ``\n``: its column, row and
    ``$`` marks left out. Appends ``(column, row)`` of each reference to
    *corners* and the span of its row's digits to *rows*, in source order."""

    def mark(m: re.Match) -> str:
        coords = None if m["cell"] is None else grid_coordinates(m[_LETTERS], m[_LETTERS + 1])
        if coords is None:
            return m[0]
        corners.append(coords)
        rows.append(m.span(_LETTERS + 1))
        return m["pre"] + "\n"

    return _SHAPE_RE.sub(mark, source)


class Template:
    """One parse of a formula shape on one sheet (``sheet_key``).

    ``nodes`` lists the Ref nodes that hold a cell or range, in source
    order, and ``refs`` their targets in the source the template was parsed
    from. A formula of the shape holds its own targets in that order
    (``Formula.refs``), which is how the shape's one compiled function
    (which :mod:`gridcalc.engine` emits on first evaluation and the
    workspace keeps) reads the references of every formula of the shape. The
    shape gives each of its formulas' references the sheet and kind (cell
    or range) of the template's one in its place; its corners come from the
    formula's own text (:meth:`at`). ``names`` holds the defined names read
    and ``volatile`` whether the shape is volatile. ``ast`` is the shape's
    only tree: no formula holds a tree of its own.

    ``pieces`` is the template's source cut at the digits of each
    reference's row: for each reference, the text before its row's digits
    (from the end of the last row, so its column letters and ``$``
    included) and its column; then the text after the last row. A source
    that differs from it only in its rows has this shape (:meth:`copied`).
    """

    __slots__ = ("ast", "sheet_key", "pieces", "nodes", "refs", "names", "volatile", "__weakref__")

    def __init__(self, ast: Node, sheet_key: tuple, source: str, corners: list, rows: list) -> None:
        self.ast = ast
        self.sheet_key = sheet_key
        self.nodes, self.names, self.volatile = _scan(ast)
        self.refs = tuple([node.target for node in self.nodes])
        pieces, end = [], 0
        for (column, _), (start, stop) in zip(corners, rows):
            pieces.append((source[end:start], column))
            end = stop
        self.pieces = tuple(pieces), source[end:]

    def at(self, anchor: CellAddress, corners: list, source: str) -> Formula:
        """The formula *source* of this shape in cell *anchor*: this
        template, with each reference at its corners in *corners*, the
        ``(column, row)`` of each cell reference in *source*, in source order."""
        corners = iter(corners)
        refs = []
        for target in self.refs:
            if type(target) is RangeRef:
                head = target.top_left
                refs.append(RangeRef.normalized(head.moved(*next(corners)), head.moved(*next(corners))))
            else:
                refs.append(target.moved(*next(corners)))
        return Formula(source, self, tuple(refs), anchor)

    def copied(self, anchor: CellAddress, source: str) -> Formula | None:
        """The formula *source* in cell *anchor*, made by :meth:`at` with no
        scan, if *anchor* is on this template's sheet and *source* is
        ``pieces`` with a row inside the grid after each piece: such a
        source has this template's shape. None if it is not."""
        if anchor.sheet_key != self.sheet_key:
            return None
        pieces, tail = self.pieces
        corners, pos = [], 0
        for text, column in pieces:
            if not source.startswith(text, pos):
                return None
            digits = _ROW_RE.match(source, pos + len(text))
            row = 0 if digits is None else int(digits[0])
            if not 0 < row <= MAX_ROWS:
                return None
            corners.append((column, row))
            pos = digits.end()
        return self.at(anchor, corners, source) if source[pos:] == tail else None


def shared_formula(source: str, anchor: CellAddress, templates: MutableMapping, above: Content = None) -> Formula:
    """The formula *source* (no leading ``=``) in cell *anchor*, its
    ``Formula.cell``, parsed once per shape and sheet: *templates* maps ``(anchor.sheet_key, shape)`` to
    the :class:`Template` of every shape parsed so far. A source that does
    not parse raises as :func:`parse_formula` does and is not kept.

    *above* is the content of the cell above *anchor*, if any. When it is a
    formula whose template recognises *source* as of its shape
    (:meth:`Template.copied`), that template serves, and *source* is not
    scanned for its shape."""
    if type(above) is Formula:
        made = above.template.copied(anchor, source)
        if made is not None:
            return made
    corners: list = []
    rows: list = []
    key = (anchor.sheet_key, _shape(source, corners, rows))
    # a shape marks references with "\n", which no source that parses holds
    template = None if "\n" in source else templates.get(key)
    if template is None:
        template = templates[key] = Template(parse_formula(source, anchor), anchor.sheet_key, source, corners, rows)
    return template.at(anchor, corners, source)


# ---------------------------------------------------------------------------
# Literal text
# ---------------------------------------------------------------------------


def value_text(v) -> str:
    """A literal value as formula text: :func:`model.to_text`, with text
    quoted and an error as its code."""
    if isinstance(v, str):
        return quote(v)
    if isinstance(v, Error):
        return v.code
    return to_text(v)
