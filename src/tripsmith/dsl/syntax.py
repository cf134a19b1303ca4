"""Constraint-language front end: lexer, AST and parser.

The language is a closed, indentation-structured expression language over the
concept functions: assignments (including `+=` accumulation and a list-append
effect), `for ... in` enumeration, `if`/`else` conditionals, `return`, boolean
and arithmetic operators, comparisons (including `in` over collections) and a
conditional expression. A `#` outside a string literal starts a comment that
runs to the end of the line. Anything else - loops other than `for`, function
definitions, imports, attribute access beyond `.append` - is rejected at parse
time as outside the language.

Operator precedence is stated once, as binding powers in `_POWER`, which two
parser methods read (Pratt's top-down operator precedence), so a bracket level
costs the parser six or seven frames. The parser, the checker, the compiler
and the compiled program all recurse per nesting level, so a program nested
past `MAX_NESTING` levels (open expressions, unary operators and blocks while
parsing, then tree depth, which a long operator chain adds to) is a syntax
error: the deepest accepted one runs well inside Python's default recursion
limit, even at a search leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

from ..errors import DslSyntaxError

MAX_NESTING = 50

KEYWORDS = {"for", "in", "if", "else", "return", "not", "and", "or", "True", "False"}

# recognized so we can reject them with a pointed message
FORBIDDEN_KEYWORDS = {
    "while", "def", "import", "from", "class", "lambda", "with", "try",
    "except", "finally", "yield", "global", "nonlocal", "pass", "break",
    "continue", "assert", "del", "raise", "elif", "None", "is", "print",
}

_DIGITS = frozenset("0123456789")    # a number is ASCII digits only

_OPERATORS = (
    "+=", "==", "!=", "<=", ">=",
    "=", "<", ">", "+", "-", "*", "/",
    "(", ")", "[", "]", ",", ":", ".",
)

# binding power of each binary operator and of `not`: an operator takes as its
# right operand everything that binds tighter; unary minus binds tightest
_POWER = {
    "or": 1, "and": 2, "not": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4, "==": 4, "!=": 4, "in": 4,
    "+": 5, "-": 5, "*": 6, "/": 6,
}
_COMPARE = _POWER["in"]
_UNARY = 7


@dataclass(frozen=True)
class Token:
    kind: str      # NAME KEYWORD NUMBER STRING OP NEWLINE INDENT DEDENT EOF
    value: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    indents = [0]
    lines = source.splitlines()
    for lineno, raw in enumerate(lines, 1):
        if "\t" in raw:
            raise DslSyntaxError("tab characters are not allowed; indent with spaces",
                                 lineno, raw.index("\t") + 1)
        indent = len(raw) - len(raw.lstrip(" "))
        text = raw[indent:].rstrip()
        if not text.split("#", 1)[0].strip():
            continue    # blank or comment-only
        if indent > indents[-1]:
            indents.append(indent)
            tokens.append(Token("INDENT", "", lineno, 1))
        else:
            while indent < indents[-1]:
                indents.pop()
                tokens.append(Token("DEDENT", "", lineno, 1))
            if indent != indents[-1]:
                raise DslSyntaxError("unindent does not match any outer level", lineno, indent + 1)
        _tokenize_line(text, lineno, indent, tokens)
        tokens.append(Token("NEWLINE", "", lineno, len(raw) + 1))
    while len(indents) > 1:
        indents.pop()
        tokens.append(Token("DEDENT", "", len(lines) + 1, 1))
    tokens.append(Token("EOF", "", len(lines) + 1, 1))
    return tokens


def _tokenize_line(text: str, lineno: int, offset: int, out: list[Token]) -> None:
    i = 0
    while i < len(text):
        ch = text[i]
        col = offset + i + 1
        if ch == " ":
            i += 1
            continue
        if ch == "#":
            return      # a comment runs to the end of the line
        if ch in "'\"":
            end = text.find(ch, i + 1)
            if end < 0:
                raise DslSyntaxError("unterminated string literal", lineno, col)
            out.append(Token("STRING", text[i + 1:end], lineno, col))
            i = end + 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and (text[j] in _DIGITS or text[j] == "."):
                j += 1
            lit = text[i:j]
            if lit.count(".") > 1:
                raise DslSyntaxError(f"bad number literal {lit!r}", lineno, col)
            out.append(Token("NUMBER", lit, lineno, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in FORBIDDEN_KEYWORDS:
                raise DslSyntaxError(f"construct not in DSL: {word!r}", lineno, col)
            kind = "KEYWORD" if word in KEYWORDS else "NAME"
            out.append(Token(kind, word, lineno, col))
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                out.append(Token("OP", op, lineno, col))
                i += len(op)
                break
        else:
            raise DslSyntaxError(f"unexpected character {ch!r}", lineno, col)


def quote(text: str) -> str | None:
    """`text` as a string literal that reads back as `text`, in the quote mark
    it lacks; None if it holds both marks, a tab or a line break, which no
    literal can spell."""
    if "\t" in text or "".join(text.splitlines()) != text:
        return None
    if '"' not in text:
        return f'"{text}"'
    return f"'{text}'" if "'" not in text else None


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    line: int = field(compare=False, default=1, kw_only=True)
    col: int = field(compare=False, default=1, kw_only=True)


@dataclass(frozen=True)
class Num(Node):
    value: Decimal


@dataclass(frozen=True)
class Str(Node):
    value: str


@dataclass(frozen=True)
class Bool(Node):
    value: bool


@dataclass(frozen=True)
class Name(Node):
    id: str


@dataclass(frozen=True)
class ListLit(Node):
    items: tuple


@dataclass(frozen=True)
class Call(Node):
    func: str
    args: tuple


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str            # "not" | "-"
    operand: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str            # + - * / and or
    left: Node
    right: Node


@dataclass(frozen=True)
class Compare(Node):
    op: str            # < > <= >= == != in
    left: Node
    right: Node


@dataclass(frozen=True)
class IfExp(Node):
    cond: Node
    then: Node
    orelse: Node


@dataclass(frozen=True)
class Assign(Node):
    target: str
    value: Node
    augmented: bool = False    # True for "+="


@dataclass(frozen=True)
class Append(Node):
    target: str
    value: Node


@dataclass(frozen=True)
class For(Node):
    var: str
    iterable: Node
    body: tuple


@dataclass(frozen=True)
class If(Node):
    cond: Node
    body: tuple
    orelse: tuple = ()


@dataclass(frozen=True)
class Return(Node):
    value: Node


@dataclass(frozen=True)
class Program:
    statements: tuple
    # the closure `dsl.interp.evaluate` compiles on first use, kept for every later one
    compiled: object = field(default=None, compare=False, repr=False)
    # set by `dsl.check.check_source` on a program without errors, which
    # `evaluate` then compiles without checking it again
    checked: bool = field(default=False, compare=False, repr=False)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nested(self, parse, *args):
        """`parse(*args)` one nesting level deeper; past MAX_NESTING the program is refused."""
        if self.depth == MAX_NESTING:
            tok = self.peek()
            raise DslSyntaxError(f"nested deeper than {MAX_NESTING} levels", tok.line, tok.col)
        self.depth += 1
        node = parse(*args)
        self.depth -= 1
        return node

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise DslSyntaxError(f"expected {want!r}, found {tok.value or tok.kind!r}",
                                 tok.line, tok.col)
        return self.advance()

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    # statements ---------------------------------------------------------

    def parse_program(self) -> Program:
        statements = []
        while not self.at("EOF"):
            statements.append(self.statement())
        if not statements:
            raise DslSyntaxError("empty program", 1, 1)
        return Program(tuple(statements))

    def statement(self) -> Node:
        tok = self.peek()
        if tok.kind == "KEYWORD":
            if tok.value == "for":
                return self.for_statement()
            if tok.value == "if":
                return self.if_statement()
            if tok.value == "return":
                return self.return_statement()
            raise DslSyntaxError(f"unexpected keyword {tok.value!r}", tok.line, tok.col)
        if tok.kind == "NAME":
            nxt = self.peek(1)
            if nxt.kind == "OP" and nxt.value in ("=", "+="):
                return self.assign_statement()
            if nxt.kind == "OP" and nxt.value == ".":
                return self.append_statement()
        raise DslSyntaxError(
            f"expected a statement, found {tok.value or tok.kind!r}", tok.line, tok.col
        )

    def assign_statement(self) -> Assign:
        target = self.expect("NAME")
        op = self.expect("OP")
        value = self.expression()
        self.end_of_statement()
        return Assign(target.value, value, augmented=(op.value == "+="),
                      line=target.line, col=target.col)

    def append_statement(self) -> Append:
        target = self.expect("NAME")
        self.expect("OP", ".")
        method = self.expect("NAME")
        if method.value != "append":
            raise DslSyntaxError(
                f"construct not in DSL: method call .{method.value}()",
                method.line, method.col,
            )
        self.expect("OP", "(")
        value = self.expression()
        self.expect("OP", ")")
        self.end_of_statement()
        return Append(target.value, value, line=target.line, col=target.col)

    def return_statement(self) -> Return:
        tok = self.expect("KEYWORD", "return")
        value = self.expression()
        self.end_of_statement()
        return Return(value, line=tok.line, col=tok.col)

    def for_statement(self) -> For:
        tok = self.expect("KEYWORD", "for")
        var = self.expect("NAME")
        self.expect("KEYWORD", "in")
        iterable = self.expression()
        self.expect("OP", ":")
        body = self.suite()
        return For(var.value, iterable, tuple(body), line=tok.line, col=tok.col)

    def if_statement(self) -> If:
        tok = self.expect("KEYWORD", "if")
        cond = self.expression()
        self.expect("OP", ":")
        body = self.suite()
        orelse: list = []
        if self.at("KEYWORD", "else"):
            self.advance()
            self.expect("OP", ":")
            orelse = self.suite()
        return If(cond, tuple(body), tuple(orelse), line=tok.line, col=tok.col)

    def suite(self) -> list:
        # inline form: `if x: effect` on one line
        if not self.at("NEWLINE"):
            return [self.nested(self.statement)]
        self.advance()
        self.expect("INDENT")
        body = []
        while not self.at("DEDENT") and not self.at("EOF"):
            body.append(self.nested(self.statement))
        self.expect("DEDENT")     # never empty: INDENT comes only before a line's tokens
        return body

    def end_of_statement(self) -> None:
        if self.at("NEWLINE"):
            self.advance()
        elif not (self.at("DEDENT") or self.at("EOF")):
            tok = self.peek()
            raise DslSyntaxError(
                f"unexpected {tok.value or tok.kind!r} after statement", tok.line, tok.col
            )

    # expressions --------------------------------------------------------

    def expression(self) -> Node:
        return self.nested(self.conditional)

    def conditional(self) -> Node:
        value = self.binary(0)
        if self.at("KEYWORD", "if"):
            tok = self.advance()
            cond = self.binary(0)
            self.expect("KEYWORD", "else")
            orelse = self.expression()
            return IfExp(cond, value, orelse, line=tok.line, col=tok.col)
        return value

    def binary(self, floor: int) -> Node:
        """An operand and the binary operators after it that bind tighter than
        `floor`, grouped from the left. A comparison takes only an arithmetic
        left operand, so comparisons never chain."""
        left = _POWER["not"] if self.at("KEYWORD", "not") else _UNARY    # what built `node`
        node = self.prefix(floor)
        while True:
            tok = self.peek()
            power = _POWER.get(tok.value, 0) if tok.kind in ("OP", "KEYWORD") else 0
            if power <= floor or tok.value == "not" or (power == _COMPARE and left <= power):
                return node
            self.advance()
            kind = Compare if power == _COMPARE else BinOp
            node = kind(tok.value, node, self.binary(power), line=tok.line, col=tok.col)
            left = power

    def prefix(self, floor: int) -> Node:
        """`not` where a comparison may start (below `floor`), unary minus or
        plus (which is dropped), else an atom."""
        tok = self.peek()
        if floor < _COMPARE and self.at("KEYWORD", "not"):
            self.advance()
            operand = self.nested(self.binary, _POWER["not"])
            return UnaryOp("not", operand, line=tok.line, col=tok.col)
        if tok.kind == "OP" and tok.value in ("-", "+"):
            self.advance()
            operand = self.nested(self.prefix, _UNARY)
            if tok.value == "+":
                return operand
            return UnaryOp("-", operand, line=tok.line, col=tok.col)
        return self.atom()

    def items(self, closer: str) -> tuple:
        """Comma-separated expressions up to and including the `closer` token."""
        items = []
        if not self.at("OP", closer):
            items.append(self.expression())
            while self.at("OP", ","):
                self.advance()
                items.append(self.expression())
        self.expect("OP", closer)
        return tuple(items)

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(Decimal(tok.value), line=tok.line, col=tok.col)
        if tok.kind == "STRING":
            self.advance()
            return Str(tok.value, line=tok.line, col=tok.col)
        if tok.kind == "KEYWORD" and tok.value in ("True", "False"):
            self.advance()
            return Bool(tok.value == "True", line=tok.line, col=tok.col)
        if tok.kind == "NAME":
            self.advance()
            if self.at("OP", "("):
                self.advance()
                return Call(tok.value, self.items(")"), line=tok.line, col=tok.col)
            return Name(tok.value, line=tok.line, col=tok.col)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            node = self.expression()
            self.expect("OP", ")")
            return node
        if tok.kind == "OP" and tok.value == "[":
            self.advance()
            return ListLit(self.items("]"), line=tok.line, col=tok.col)
        raise DslSyntaxError(f"expected an expression, found {tok.value or tok.kind!r}",
                             tok.line, tok.col)


def _check_height(program: Program) -> None:
    """Refuse a tree with a path of more than MAX_NESTING nodes."""
    stack = [(node, 1) for node in program.statements]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_NESTING:
            raise DslSyntaxError(f"nested deeper than {MAX_NESTING} levels",
                                 node.line, node.col)
        for value in vars(node).values():
            if isinstance(value, Node):
                stack.append((value, depth + 1))
            elif isinstance(value, tuple):
                stack.extend((child, depth + 1) for child in value)


def parse(source: str) -> Program:
    """Parse constraint source text into a Program; raises DslSyntaxError."""
    program = _Parser(tokenize(source)).parse_program()
    _check_height(program)
    return program

