"""A textual surface syntax for DO-loop programs.

Lets loops be written as plain text (files or strings) instead of
Python AST constructors — the adoption path for users coming from the
paper's FORTRAN world::

    loop sample
    array x 60
    array y 60
    scalar q 0.5
    scalar s 0.0
    liveout s
    do i = 2, 41
        x(i) = x(i-1) + q * y(i-2)
        if (y(i) > 1.0) then
            s = s + x(i)
        end if
    end do

Grammar (informal):

* header: ``loop NAME``, then any number of ``array NAME SIZE``,
  ``scalar NAME VALUE``, ``liveout NAME [NAME...]`` lines;
* ``do i = START, END`` ... ``end do`` brackets the body
  (trip = END - START + 1);
* statements: ``lhs = expr`` and
  ``if (cond) then ... [else ...] end if``;
* expressions: ``+ - * /`` with usual precedence, parentheses, unary
  minus, calls ``sqrt(e) abs(e) min(a,b) max(a,b)``, numbers, scalar
  names, the loop index ``i``, and subscripts ``name(affine-of-i)``.
  A subscript that is affine in ``i`` (``x(i)``, ``x(i-2)``,
  ``x(2*i+1)``) is an affine reference; any other subscript
  (``x(ix(i))``, ``x(i*i)``) becomes an indirect gather/scatter.
* comments run from ``!`` or ``#`` to end of line.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.frontend.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Compare,
    Const,
    DoLoop,
    ExitIf,
    Expr,
    Gather,
    If,
    Index,
    Scalar,
    Scatter,
    Stmt,
    Unary,
)


class ParseError(ValueError):
    """Syntax or semantic error in loop-language source."""

    def __init__(self, message: str, line: Optional[int] = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|!=|[-+*/(),<>=]))"
)


def _tokenize(text: str, line: int) -> List[Tuple[str, str]]:
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            rest = text[position:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", line)
            break
        position = match.end()
        for kind in ("number", "name", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


def _literal(convert, text: str, what: str, line: int):
    """``convert(text)``, raising a located ParseError instead of ValueError."""
    try:
        return convert(text)
    except ValueError:
        raise ParseError(f"invalid {what} {text!r}", line) from None


class _ExprParser:
    """Recursive-descent expression parser over one statement's tokens."""

    def __init__(self, tokens: List[Tuple[str, str]], line: int, index_name: str):
        self.tokens = tokens
        self.position = 0
        self.line = line
        self.index_name = index_name

    # -- token helpers --------------------------------------------------
    def peek(self) -> Optional[Tuple[str, str]]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def next(self) -> Tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression", self.line)
        self.position += 1
        return token

    def accept(self, value: str) -> bool:
        token = self.peek()
        if token is not None and token[1] == value:
            self.position += 1
            return True
        return False

    def expect(self, value: str) -> None:
        if not self.accept(value):
            found = self.peek()[1] if self.peek() else "end of line"
            raise ParseError(f"expected {value!r}, found {found!r}", self.line)

    def at_end(self) -> bool:
        return self.position >= len(self.tokens)

    # -- grammar --------------------------------------------------------
    def parse_compare(self) -> Expr:
        left = self.parse_sum()
        token = self.peek()
        if token is not None and token[1] in ("<", "<=", ">", ">=", "==", "!="):
            operator = self.next()[1]
            right = self.parse_sum()
            return Compare(operator, left, right)
        return left

    def parse_sum(self) -> Expr:
        expr = self.parse_term()
        while True:
            if self.accept("+"):
                expr = BinOp("+", expr, self.parse_term())
            elif self.accept("-"):
                expr = BinOp("-", expr, self.parse_term())
            else:
                return expr

    def parse_term(self) -> Expr:
        expr = self.parse_unary()
        while True:
            if self.accept("*"):
                expr = BinOp("*", expr, self.parse_unary())
            elif self.accept("/"):
                expr = BinOp("/", expr, self.parse_unary())
            else:
                return expr

    def parse_unary(self) -> Expr:
        if self.accept("-"):
            return Unary("neg", self.parse_unary())
        if self.accept("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        kind, value = self.next()
        if kind == "number":
            return Const(float(value))
        if kind == "op" and value == "(":
            inner = self.parse_compare()
            self.expect(")")
            return inner
        if kind != "name":
            raise ParseError(f"unexpected token {value!r}", self.line)
        if value in ("sqrt", "abs") and self.accept("("):
            operand = self.parse_compare()
            self.expect(")")
            return Unary(value, operand)
        if value in ("min", "max") and self.accept("("):
            left = self.parse_compare()
            self.expect(",")
            right = self.parse_compare()
            self.expect(")")
            return BinOp(value, left, right)
        if value == self.index_name and not (self.peek() and self.peek()[1] == "("):
            return Index()
        if self.accept("("):
            subscript = self.parse_compare()
            self.expect(")")
            affine = _as_affine(subscript)
            if affine is not None:
                stride, offset = affine
                return ArrayRef(value, offset=offset, stride=stride)
            return Gather(value, subscript)
        return Scalar(value)


def _as_affine(expr: Expr) -> Optional[Tuple[int, int]]:
    """Recognize ``s*i + k`` shapes; returns (stride, offset) or None."""

    def affine(node: Expr) -> Optional[Tuple[int, int]]:
        if isinstance(node, Index):
            return (1, 0)
        if isinstance(node, Const):
            if float(node.value).is_integer():
                return (0, int(node.value))
            return None
        if isinstance(node, Unary) and node.op == "neg":
            inner = affine(node.operand)
            if inner is None:
                return None
            return (-inner[0], -inner[1])
        if isinstance(node, BinOp):
            left, right = affine(node.left), affine(node.right)
            if left is None or right is None:
                return None
            if node.op == "+":
                return (left[0] + right[0], left[1] + right[1])
            if node.op == "-":
                return (left[0] - right[0], left[1] - right[1])
            if node.op == "*":
                if left[0] == 0:
                    return (left[1] * right[0], left[1] * right[1])
                if right[0] == 0:
                    return (left[0] * right[1], left[1] * right[1])
                return None
        return None

    result = affine(expr)
    if result is None:
        return None
    stride, offset = result
    if stride < 1:
        return None  # negative/zero strides fall back to indirect access
    return (stride, offset)


def parse_loop(source: str) -> DoLoop:
    """Parse loop-language source into a DoLoop program."""
    raw_lines = source.splitlines()
    lines: List[Tuple[int, str]] = []
    for number, raw in enumerate(raw_lines, start=1):
        stripped = re.split(r"[!#]", raw, maxsplit=1)[0].strip()
        if stripped:
            lines.append((number, stripped))
    if not lines:
        raise ParseError("empty program")

    name = "loop"
    arrays = {}
    scalars = {}
    live_out: List[str] = []
    position = 0

    while position < len(lines):
        number, text = lines[position]
        lowered = text.lower()
        if lowered.startswith("loop "):
            name = text.split(None, 1)[1].strip()
        elif lowered.startswith("array "):
            parts = text.split()
            if len(parts) != 3:
                raise ParseError("expected: array NAME SIZE", number)
            arrays[parts[1]] = _literal(int, parts[2], "array size", number)
        elif lowered.startswith("scalar "):
            parts = text.split()
            if len(parts) != 3:
                raise ParseError("expected: scalar NAME VALUE", number)
            scalars[parts[1]] = _literal(float, parts[2], "scalar value", number)
        elif lowered.startswith("liveout"):
            live_out.extend(text.split()[1:])
        elif lowered.startswith("do "):
            break
        else:
            raise ParseError(f"unexpected declaration {text!r}", number)
        position += 1

    if position >= len(lines):
        raise ParseError("missing 'do' header")
    number, header = lines[position]
    match = re.match(
        r"do\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(-?\d+)\s*,\s*(-?\d+)$", header
    )
    if match is None:
        raise ParseError("expected: do i = START, END", number)
    index_name, start_text, end_text = match.groups()
    start = _literal(int, start_text, "loop bound", number)
    end = _literal(int, end_text, "loop bound", number)
    if end < start:
        raise ParseError("loop upper bound below lower bound", number)
    position += 1

    body, position = _parse_statements(lines, position, index_name, terminators=("end do",))
    if position >= len(lines) or lines[position][1].lower() != "end do":
        raise ParseError("missing 'end do'")
    position += 1
    if position != len(lines):
        raise ParseError("trailing text after 'end do'", lines[position][0])

    return DoLoop(
        name=name,
        body=body,
        arrays=arrays,
        scalars=scalars,
        start=start,
        trip=end - start + 1,
        live_out=live_out,
    )


def _parse_statements(
    lines: List[Tuple[int, str]],
    position: int,
    index_name: str,
    terminators: Tuple[str, ...],
) -> Tuple[List[Stmt], int]:
    statements: List[Stmt] = []
    while position < len(lines):
        number, text = lines[position]
        lowered = text.lower()
        if lowered in terminators or lowered in ("else", "end if"):
            return statements, position
        exit_match = re.match(r"if\s*\((.*)\)\s*exit$", text, flags=re.IGNORECASE)
        if exit_match is not None:
            parser = _ExprParser(_tokenize(exit_match.group(1), number), number, index_name)
            condition = parser.parse_compare()
            if not parser.at_end() or not isinstance(condition, Compare):
                raise ParseError("exit condition must be a comparison", number)
            statements.append(ExitIf(condition))
            position += 1
            continue
        if lowered.startswith("if"):
            statement, position = _parse_if(lines, position, index_name)
            statements.append(statement)
            continue
        statements.append(_parse_assign(number, text, index_name))
        position += 1
    return statements, position


def _parse_if(
    lines: List[Tuple[int, str]], position: int, index_name: str
) -> Tuple[If, int]:
    number, text = lines[position]
    match = re.match(r"if\s*\((.*)\)\s*then$", text, flags=re.IGNORECASE)
    if match is None:
        raise ParseError("expected: if (condition) then", number)
    parser = _ExprParser(_tokenize(match.group(1), number), number, index_name)
    condition = parser.parse_compare()
    if not parser.at_end():
        raise ParseError("trailing tokens in condition", number)
    if not isinstance(condition, Compare):
        raise ParseError("if condition must be a comparison", number)
    position += 1
    then_body, position = _parse_statements(lines, position, index_name, ("end if",))
    else_body: List[Stmt] = []
    if position < len(lines) and lines[position][1].lower() == "else":
        position += 1
        else_body, position = _parse_statements(lines, position, index_name, ("end if",))
    if position >= len(lines) or lines[position][1].lower() != "end if":
        raise ParseError("missing 'end if'", number)
    position += 1
    return If(condition, then=then_body, orelse=else_body), position


def _parse_assign(number: int, text: str, index_name: str) -> Assign:
    tokens = _tokenize(text, number)
    # Find the top-level '=' (not part of <=, >=, ==, !=, handled by the
    # tokenizer as single tokens already).
    depth = 0
    split_at = None
    for token_index, (kind, value) in enumerate(tokens):
        if value == "(":
            depth += 1
        elif value == ")":
            depth -= 1
        elif value == "=" and depth == 0:
            split_at = token_index
            break
    if split_at is None:
        raise ParseError("expected an assignment", number)
    lhs_parser = _ExprParser(tokens[:split_at], number, index_name)
    target_expr = lhs_parser.parse_primary()
    if not lhs_parser.at_end():
        raise ParseError("malformed assignment target", number)
    rhs_parser = _ExprParser(tokens[split_at + 1 :], number, index_name)
    expr = rhs_parser.parse_compare()
    if not rhs_parser.at_end():
        raise ParseError("trailing tokens after expression", number)

    if isinstance(target_expr, Scalar):
        return Assign(target_expr, expr)
    if isinstance(target_expr, ArrayRef):
        return Assign(target_expr, expr)
    if isinstance(target_expr, Gather):
        return Assign(Scatter(target_expr.array, target_expr.index), expr)
    raise ParseError(f"cannot assign to {target_expr!r}", number)
