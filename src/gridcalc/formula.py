"""Formula tokenizer, parser, and static dependency extraction.

Grammar uses US-locale separators: ``,`` between call arguments, ``;``
between array-constant rows and ``,`` between columns within a row, so
``{10;9;8}`` is a 3x1 column. Operator precedence, low to high:
comparisons, ``&``, ``+ -``, ``* /``, ``^``, unary ``-`` (which binds
tighter than ``^``, so ``-2^2`` is 4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .model import (
    MAX_COLUMNS,
    MAX_ROWS,
    CellAddress,
    Error,
    ERROR_CODES,
    Literal,
    RangeRef,
    Reference,
    format_reference,
    letters_to_column,
    number_to_text,
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


_NUMBER_RE = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_TEXT_RE = re.compile(r'"(?:""|[^"])*"')
_ERROR_RE = re.compile("|".join(re.escape(c) for c in sorted(ERROR_CODES, key=len, reverse=True)))
_WORD_RE = re.compile(r"[$A-Za-z_][$A-Za-z0-9_.]*")
_CELLREF_RE = re.compile(r"^\$?([A-Za-z]{1,3})\$?([0-9]+)$")
_OPERATORS = ("<>", "<=", ">=", "<", ">", "=", "+", "-", "*", "/", "^", "&")
_PUNCT = set("(){};,:![]")


def _classify_word(lexeme: str) -> str:
    folded = lexeme.casefold()
    if folded in ("true", "false"):
        return BOOLEAN
    m = _CELLREF_RE.match(lexeme)
    if m is not None:
        col = letters_to_column(m.group(1))
        row = int(m.group(2))
        if 1 <= row <= MAX_ROWS and col <= MAX_COLUMNS:
            return CELLREF
    if "$" in lexeme:
        raise LexError(f"illegal '$' in {lexeme!r}")
    return IDENTIFIER


def tokenize(source: str) -> list[Token]:
    """Tokenize formula source (without a leading ``=``).

    Concatenating the lexemes plus the skipped whitespace reconstructs the
    source exactly; spans are preserved on every token.
    """
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"':
            m = _TEXT_RE.match(source, i)
            if m is None:
                raise LexError("unterminated text literal", i)
            tokens.append(Token(TEXT, m.group(0), i))
            i = m.end()
            continue
        if ch == "#":
            m = _ERROR_RE.match(source, i)
            if m is None:
                raise LexError("unknown error literal", i)
            tokens.append(Token(ERROR_LITERAL, m.group(0), i))
            i = m.end()
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            m = _NUMBER_RE.match(source, i)
            tokens.append(Token(NUMBER, m.group(0), i))
            i = m.end()
            continue
        if ch.isalpha() or ch in "_$":
            m = _WORD_RE.match(source, i)
            try:
                kind = _classify_word(m.group(0))
            except LexError as exc:
                raise LexError(exc.message, i) from None
            tokens.append(Token(kind, m.group(0), i))
            i = m.end()
            continue
        two = source[i : i + 2]
        if two in _OPERATORS:
            tokens.append(Token(OPERATOR, two, i))
            i += 2
            continue
        if ch in _OPERATORS:
            tokens.append(Token(OPERATOR, ch, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(PUNCT, ch, i))
            i += 1
            continue
        raise LexError(f"illegal character {ch!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ref:
    """A reference: resolved address/range, or a defined name (str)."""

    target: Union[Reference, str]


@dataclass(frozen=True)
class ArrayConst:
    rows: tuple  # tuple of tuples of scalar values


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


Node = Union[Literal, Ref, ArrayConst, Unary, Binary, Call]

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

# Deepest nesting of parentheses, call arguments and prefix signs the
# parser accepts; each level costs it about ten stack frames.
MAX_NESTING = 64


def _unquote(lexeme: str) -> str:
    return lexeme[1:-1].replace('""', '"')


def _quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


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

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Node:
        node = self.expression()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.lexeme!r}", tok.start)
        return node

    def expression(self) -> Node:
        self._nest()
        node = self.comparison()
        self.depth -= 1
        return node

    def comparison(self) -> Node:
        node = self.concat()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != OPERATOR or tok.lexeme not in _COMPARISONS:
                return node
            self.pos += 1
            node = Binary(tok.lexeme, node, self.concat())

    def concat(self) -> Node:
        node = self.additive()
        while self._accept(OPERATOR, "&"):
            node = Binary("&", node, self.additive())
        return node

    def additive(self) -> Node:
        node = self.multiplicative()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != OPERATOR or tok.lexeme not in ("+", "-"):
                return node
            self.pos += 1
            node = Binary(tok.lexeme, node, self.multiplicative())

    def multiplicative(self) -> Node:
        node = self.power()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != OPERATOR or tok.lexeme not in ("*", "/"):
                return node
            self.pos += 1
            node = Binary(tok.lexeme, node, self.power())

    def power(self) -> Node:
        node = self.unary()
        while self._accept(OPERATOR, "^"):
            node = Binary("^", node, self.unary())
        return node

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
        if tok.kind == NUMBER:
            self.pos += 1
            return Literal(float(tok.lexeme))
        if tok.kind == TEXT:
            self.pos += 1
            return Literal(_unquote(tok.lexeme))
        if tok.kind == BOOLEAN:
            self.pos += 1
            return Literal(tok.lexeme.casefold() == "true")
        if tok.kind == ERROR_LITERAL:
            self.pos += 1
            return Literal(Error.of(tok.lexeme))
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
            return Ref(self.cell_or_range(self.context.workbook, self.context.sheet))
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
        return ArrayConst(tuple(tuple(r) for r in rows))

    def array_element(self):
        negate = self._accept(OPERATOR, "-") is not None
        tok = self._next()
        if tok.kind == NUMBER:
            return -float(tok.lexeme) if negate else float(tok.lexeme)
        if negate:
            raise ParseError("array constants allow '-' only before numbers", tok.start)
        if tok.kind == TEXT:
            return _unquote(tok.lexeme)
        if tok.kind == BOOLEAN:
            return tok.lexeme.casefold() == "true"
        if tok.kind == ERROR_LITERAL:
            return Error.of(tok.lexeme)
        raise ParseError("array constants hold scalar literals only", tok.start)

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

    def cell_or_range(self, workbook: str, sheet: str) -> Reference:
        first = self._expect(CELLREF)
        a = self._make_address(first, workbook, sheet)
        colon = self._peek()
        after = self._peek(1)
        if (
            colon is not None
            and colon.kind == PUNCT
            and colon.lexeme == ":"
            and after is not None
            and after.kind == CELLREF
        ):
            self.pos += 1
            b = self._make_address(self._next(), workbook, sheet)
            return RangeRef.normalized(a, b)
        return a

    @staticmethod
    def _make_address(tok: Token, workbook: str, sheet: str) -> CellAddress:
        m = _CELLREF_RE.match(tok.lexeme)
        assert m is not None  # guaranteed by the tokenizer
        return CellAddress(workbook, sheet, letters_to_column(m.group(1)), int(m.group(2)))


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


def static_dependencies(ast: Node, names: Mapping[str, Reference] | None = None) -> DependencyInfo:
    """Collect every statically known reference in *ast*.

    Defined names are resolved through *names* (case-insensitive keys);
    unresolvable ones are reported rather than raised, since the cell then
    simply evaluates to ``#NAME?``. Formulas using INDIRECT or OFFSET, or
    applying XADR to anything but a plain reference, are flagged volatile
    because their true read set is unknowable before evaluation; which
    builtins are volatile is read from the function registry.
    """
    from . import functions  # local import: functions depends on this module

    names = names or {}
    info = DependencyInfo(set())

    def walk(node) -> None:
        # an operator chain is left-deep: loop down its spine rather than
        # recurse once per term, so a long chain cannot exhaust the stack
        while isinstance(node, Binary):
            walk(node.right)
            node = node.left
        if isinstance(node, Ref):
            if isinstance(node.target, str):
                target = names.get(node.target.casefold())
                if target is None:
                    info.unresolved_names.add(node.target)
                else:
                    info.refs.add(target)
            else:
                info.refs.add(node.target)
        elif isinstance(node, Unary):
            walk(node.operand)
        elif isinstance(node, Call):
            spec = functions.REGISTRY.get(node.name.upper())
            if spec is not None and spec.volatile:
                info.volatile = True
            elif node.name.casefold() == "xadr":
                if not (len(node.args) == 1 and isinstance(node.args[0], Ref)):
                    info.volatile = True
            for arg in node.args:
                if arg is not OMITTED:
                    walk(arg)

    walk(ast)
    return info


# ---------------------------------------------------------------------------
# Unparsing (canonical text)
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}
_UNARY_PRECEDENCE = 6


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, float):
        return number_to_text(v)
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, Error):
        return v.code
    raise TypeError(f"cannot render literal {v!r}")


def _ref_text(target: Union[Reference, str], context: CellAddress | None) -> str:
    if isinstance(target, str):
        return target
    head = target.top_left if isinstance(target, RangeRef) else target
    if context is not None and head.workbook.casefold() == context.workbook.casefold():
        if head.sheet.casefold() == context.sheet.casefold():
            return format_reference(target, "local")
        return format_reference(target, "qualified").split("]", 1)[1]
    return format_reference(target, "qualified")


def unparse(ast: Node, context: CellAddress | None = None) -> str:
    """Render an AST back to formula text that reparses to an equal AST."""

    def emit(node, parent_prec: int) -> str:
        if isinstance(node, Literal):
            return _scalar_text(node.value)
        if isinstance(node, Ref):
            return _ref_text(node.target, context)
        if isinstance(node, ArrayConst):
            rows = ";".join(",".join(_scalar_text(v) for v in row) for row in node.rows)
            return "{" + rows + "}"
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
