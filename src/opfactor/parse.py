"""Text grammar for coefficient expressions.

Accepted forms: integers, decimals and a/b rationals; identifiers
x1..x9 for independent variables and u, u1..u9 for dependent
components (u is the same as u1); the operators + - * / ^ with the
usual precedence, ^ associating to the right; unary minus; the
functions exp, log, sin, cos, sqrt; parentheses.  Whitespace is
insignificant.  Exponents must simplify to integers.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .expr import Const, DepVar, Div, Expr, Fun, FUN_NAMES, IndepVar, Power, Var, simplify

# deepest nesting of parentheses, function arguments, unary minus and
# exponents; far deeper input exhausts the interpreter's recursion limit
MAX_NESTING = 100


@dataclass(frozen=True)
class Token:
    kind: str  # num ident op lparen rparen end
    text: str
    line: int
    column: int


def _tokenize(text: str, line0: int = 1, col0: int = 1) -> list[Token]:
    tokens = []
    line, col = line0, col0
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if c.isdigit() or (c == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            tokens.append(Token("num", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in "+-*/^":
            tokens.append(Token("op", c, line, start_col))
        elif c == "(":
            tokens.append(Token("lparen", c, line, start_col))
        elif c == ")":
            tokens.append(Token("rparen", c, line, start_col))
        else:
            raise ParseError(f"unexpected character {c!r}", line, start_col)
        col += 1
        i += 1
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def nested(self, tok, parse) -> Expr:
        """parse() one nesting level below the one tok opens."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def parse(self) -> Expr:
        e = self.sum_()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().text!r}")
        return e

    def sum_(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            e = e * rhs if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            return -self.nested(self.advance(), self.unary)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.advance()
            exp = simplify(self.nested(caret, self.unary))
            if not isinstance(exp, Const) or exp.value.denominator != 1:
                self.fail("exponent must simplify to an integer", caret)
            return Power(base, int(exp.value))
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(Fraction(tok.text))
        if tok.kind == "lparen":
            self.advance()
            e = self.nested(tok, self.sum_)
            if self.peek().kind != "rparen":
                self.fail("expected ')'")
            self.advance()
            return e
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in FUN_NAMES:
                if self.peek().kind != "lparen":
                    self.fail(f"{name} needs parenthesized argument")
                self.advance()
                arg = self.nested(tok, self.sum_)
                if self.peek().kind != "rparen":
                    self.fail("expected ')'")
                self.advance()
                return Fun(name, arg)
            return Var(self._variable(name, tok))
        self.fail(f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input", tok)

    def _variable(self, name, tok):
        if name == "u":
            return DepVar(1)
        if len(name) == 2 and name[0] in "xu" and name[1].isdigit() and name[1] != "0":
            idx = int(name[1])
            return IndepVar(idx) if name[0] == "x" else DepVar(idx)
        if name[0] == "x" and name[1:].isdigit():
            self.fail("independent variables are x1..x9", tok)
        if name[0] == "u" and name[1:].isdigit():
            self.fail("dependent components are u, u1..u9", tok)
        self.fail(f"unknown identifier {name!r}", tok)


def parse_expr(text: str, line: int = 1, column: int = 1) -> Expr:
    """Parse a coefficient expression; positions offset error reports."""
    return _Parser(_tokenize(text, line, column)).parse()
