"""Formula tokenizer, parser, and static dependency extraction.

Grammar uses US-locale separators: ``,`` between call arguments, ``;``
between array-constant rows and ``,`` between columns within a row, so
``{10;9;8}`` is a 3x1 column. Operator precedence comes from one table,
``_PRECEDENCE``; low to high: comparisons, ``&``, ``+ -``, ``* /``, ``^``;
a prefix ``-`` or ``+`` binds tighter than all of them, so ``-2^2`` is 4.
Formula text is ASCII outside text literals and whitespace, and holds no
line break (no character that :meth:`str.splitlines` ends a line at), not
even inside a text literal: a ``.gwb`` file holds one formula per line.

A formula's *shape* is its source with each relative row or column of a
cell reference written as an offset from the formula's own cell, the
relative R1C1 form: ``A1+$B$1`` in C2 and ``A2+$B$1`` in C3 have one shape.
A column of copied formulas has few shapes, so :func:`shared_formula`
parses each shape once per sheet and gives every copy that template and its
references moved to the copy's own cell (:class:`Template`), not a tree of
its own; the engine compiles each template once, not each copy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, MutableMapping, Union

from .model import (
    NUMBER_RE,
    Array,
    CellAddress,
    Error,
    ERROR_CODES,
    CELL_RE,
    Formula,
    Literal,
    RangeRef,
    Reference,
    cell_coordinates,
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
_UNARY_PRECEDENCE = 6

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
            after = self._peek(1)
            if after is not None and after.kind == PUNCT and after.lexeme == "(":
                return self.call()
            if after is not None and after.kind == PUNCT and after.lexeme == "!":
                return self.sheet_qualified_ref()
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


def same_tree(a: Node, b: Node) -> bool:
    """Whether the ASTs *a* and *b* are equal, node by node; walked without
    recursion, as a chain can be long."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Binary):
            if x.op != y.op:
                return False
            stack += [(x.right, y.right), (x.left, y.left)]
        elif isinstance(x, Unary):
            if x.op != y.op:
                return False
            stack.append((x.operand, y.operand))
        elif isinstance(x, Call):
            if x.name != y.name or len(x.args) != len(y.args):
                return False
            stack += zip(x.args, y.args)
        elif x != y:  # a literal, a reference or an omitted argument
            return False
    return True


def _dependency_info(targets, named, volatile: bool, names: Mapping[str, Reference] | None) -> DependencyInfo:
    names = names or {}
    info = DependencyInfo(set(targets), volatile)
    for name in named:
        target = names.get(name.casefold())
        if target is None:
            info.unresolved_names.add(name)
        else:
            info.refs.add(target)
    return info


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
    nodes, named, volatile = _scan(ast)
    return _dependency_info([node.target for node in nodes], named, volatile, names)


# ---------------------------------------------------------------------------
# Formula templates: one parse per shape
# ---------------------------------------------------------------------------

# A run of tokens that hold no cell reference, then one bare word that may
# be one. The boundaries are _TOKEN_RE's: text literals and numbers are read
# whole (no reference in "A7" or in 1E5), and a workbook name after "[" and
# a sheet name before "!" are kept as they stand. Characters that start no
# such token (operators, punctuation, space) are read in runs. The word is
# a reference when cell_coordinates accepts it. No match is empty, so the
# last one ends the source.
_CELL_WORD = rf"{CELL_RE.pattern}(?![$A-Za-z0-9_.])"
_SHAPE_RE = re.compile(
    r'(?!\Z)(?P<pre>(?:[^"$A-Za-z_0-9.#\[]+'
    rf"|{NUMBER_RE.pattern}|{TEXT_RE.pattern}|{_WORD}\s*!|(?!{_CELL_WORD}){_WORD}"
    rf"|\[\s*(?:{_WORD}|{NUMBER_RE.pattern})|{_ERROR})*)"
    rf"(?P<cell>{_CELL_WORD})?"
)


def _shape(source: str, anchor: CellAddress, words: list) -> str:
    r"""*source* with each cell reference as ``\n<column>,<row>\n``: a
    relative part as its offset from *anchor*, an absolute one as ``$``
    and its number. Appends ``(column, row, column moves, row moves)`` of
    each reference to *words*, in source order."""
    column0, row0 = anchor.column, anchor.row

    def mark(m: re.Match) -> str:
        word = m["cell"]
        coords = None if word is None else cell_coordinates(word)
        if coords is None:
            return m[0]
        column, row = coords
        column_moves, row_moves = word[0] != "$", "$" not in word[1:]
        words.append((column, row, column_moves, row_moves))
        c = column - column0 if column_moves else f"${column}"
        r = row - row0 if row_moves else f"${row}"
        return f"{m['pre']}\n{c},{r}\n"

    return _SHAPE_RE.sub(mark, source)


class Template:
    """One parse of a formula shape, made at the cell it was first met in.

    ``nodes`` lists the Ref nodes that hold a cell or range, in source
    order, and ``refs`` their targets as written there: a formula of the
    shape holds its own targets in that order (``Formula.refs``), which is
    how the shape's one compiled function (``code``, emitted and compiled
    by :mod:`gridcalc.engine` on first evaluation) reads the references of
    every formula of the shape. ``names`` holds the defined names read and
    ``volatile`` whether the shape is volatile. ``ast`` is the shape's only
    tree: another cell's formula of the shape is derived from it on demand
    (:meth:`tree`), never kept.

    With the corners of its references as written (``words``, from
    :func:`_shape`), the template learns how to move its references
    (:meth:`at`) when a second cell of the shape is met. ``slots`` then
    lists the references that hold a relative part: each one's place in
    ``refs``, the cell it is relative to (None for the formula's own sheet,
    else an address on the named sheet) and its corners (column, row, and
    whether each moves). Without ``words`` (a formula built by hand)
    nothing moves.
    """

    __slots__ = ("ast", "anchor", "words", "nodes", "refs", "names", "volatile", "slots", "code", "__weakref__")

    def __init__(self, ast: Node, anchor: CellAddress, words: list | None = None) -> None:
        self.ast = ast
        self.anchor = anchor
        self.words = words
        self.nodes, self.names, self.volatile = _scan(ast)
        self.refs = tuple([node.target for node in self.nodes])
        self.slots = None if words is not None else []
        self.code = None

    def _learn(self) -> None:
        """Find ``slots``, taking each reference's corners as written from
        ``words`` in source order."""
        self.slots = []
        corners = iter(self.words)
        for index, target in enumerate(self.refs):
            written = [next(corners) for _ in range(2 if isinstance(target, RangeRef) else 1)]
            if any(c[2] or c[3] for c in written):
                head = target.top_left if isinstance(target, RangeRef) else target
                base = None if head.sheet_key == self.anchor.sheet_key else head
                self.slots.append((index, base, written))
        self.words = None

    def at(self, anchor: CellAddress, source: str) -> Formula:
        """The formula *source* of this shape in cell *anchor*: this
        template and its references with every relative part moved to
        *anchor*."""
        dc, dr = anchor.column - self.anchor.column, anchor.row - self.anchor.row
        if self.slots is None and (dc or dr):
            self._learn()
        if not self.slots or dc == dr == 0:  # nothing moves
            return Formula(source, template=self, refs=self.refs)
        refs = list(self.refs)
        for index, base, written in self.slots:
            if base is None:
                base = anchor
            corners = [
                base.moved(c + dc if c_moves else c, r + dr if r_moves else r)
                for c, r, c_moves, r_moves in written
            ]
            refs[index] = corners[0] if len(corners) == 1 else RangeRef.normalized(*corners)
        return Formula(source, template=self, refs=tuple(refs))

    def tree(self, refs: tuple) -> Node:
        """The AST of the formula of this shape that holds *refs*: made anew
        on each call, with each of ``nodes`` that *refs* moves replaced."""
        moved = {id(node): Ref(target) for node, target in zip(self.nodes, refs) if target != node.target}
        return _replaced(self.ast, moved) if moved else self.ast


def _replaced(node, moved: dict):
    """*node* with the nodes keyed in *moved* (by id) replaced."""
    if isinstance(node, Binary):
        chain = []  # a left-deep operator chain, walked without recursion
        while isinstance(node, Binary):
            chain.append(node)
            node = node.left
        out = _replaced(node, moved)
        for link in reversed(chain):
            out = Binary(link.op, out, _replaced(link.right, moved))
        return out
    if isinstance(node, Unary):
        return Unary(node.op, _replaced(node.operand, moved))
    if isinstance(node, Call):
        return Call(node.name, tuple([_replaced(arg, moved) for arg in node.args]))
    return moved.get(id(node), node)


def shared_formula(source: str, anchor: CellAddress, templates: MutableMapping) -> Formula:
    """The formula *source* (no leading ``=``) in cell *anchor*, parsed once
    per shape and sheet: *templates* maps ``(anchor.sheet_key, shape)`` to
    the :class:`Template` of every shape parsed so far. A source that does
    not parse raises as :func:`parse_formula` does and is not kept."""
    words: list = []
    key = (anchor.sheet_key, _shape(source, anchor, words))
    # a shape marks references with "\n", which no source that parses holds
    template = None if "\n" in source else templates.get(key)
    if template is None:
        template = templates[key] = Template(parse_formula(source, anchor), anchor, words)
    return template.at(anchor, source)


def formula_dependencies(f: Formula, names: Mapping[str, Reference] | None = None) -> DependencyInfo:
    """:func:`static_dependencies` of *f*'s AST, read off its ``refs`` and
    its template instead of walking the AST again."""
    template = f.template
    return _dependency_info(f.refs, template.names, template.volatile, names)


# ---------------------------------------------------------------------------
# Unparsing (canonical text)
# ---------------------------------------------------------------------------


def value_text(v) -> str:
    """A literal value as formula text: :func:`model.to_text`, with text
    quoted, an error as its code and an array in braces."""
    if isinstance(v, Array):
        return "{" + ";".join(",".join(value_text(x) for x in row) for row in v.rows) + "}"
    if isinstance(v, str):
        return quote(v)
    if isinstance(v, Error):
        return v.code
    return to_text(v)


def _is_identifier(text: str) -> bool:
    try:
        tokens = tokenize(text)
    except LexError:
        return False
    return len(tokens) == 1 and tokens[0].kind == IDENTIFIER and tokens[0].lexeme == text


def _ref_text(target: Union[Reference, str], context: CellAddress | None) -> str:
    if isinstance(target, str):
        return target
    head = target.top_left if isinstance(target, RangeRef) else target
    local = target.local_text()  # a one-cell range stays A1:A1, not A1
    if context is not None and head.sheet_key[0] == context.sheet_key[0]:
        if head.sheet_key == context.sheet_key:
            return local
        if _is_identifier(head.sheet):  # Sheet!A1 parses only for such names
            return f"{head.sheet}!{local}"
    return f"[{head.workbook}]{head.sheet}!{local}"


def unparse(ast: Node, context: CellAddress | None = None) -> str:
    """Render an AST back to formula text that reparses to an equal AST."""

    def emit(node, parent_prec: int) -> str:
        if isinstance(node, Literal):
            return value_text(node.value)
        if isinstance(node, Ref):
            return _ref_text(node.target, context)
        if isinstance(node, Unary):
            inner = emit(node.operand, _UNARY_PRECEDENCE)
            text = node.op + inner
            return f"({text})" if parent_prec > _UNARY_PRECEDENCE else text
        if isinstance(node, Binary):
            # an operator chain is left-deep: loop down its spine rather than
            # recurse once per term, so a long chain cannot exhaust the stack
            spine = []
            while isinstance(node, Binary):
                spine.append(node)
                node = node.left
            text = emit(node, _PRECEDENCE[spine[-1].op])
            for i in range(len(spine) - 1, -1, -1):
                prec = _PRECEDENCE[spine[i].op]
                right = emit(spine[i].right, prec + 1)  # left-associative
                text = f"{text}{spine[i].op}{right}"
                outer = _PRECEDENCE[spine[i - 1].op] if i else parent_prec
                if outer > prec:
                    text = f"({text})"
            return text
        if isinstance(node, Call):
            args = ",".join("" if a is OMITTED else emit(a, 0) for a in node.args)
            return f"{node.name}({args})"
        raise TypeError(f"cannot unparse {node!r}")

    return emit(ast, 0)
