"""Grammar coverage for coefficient expressions."""

from fractions import Fraction

import pytest

from opfactor.errors import ParseError
from opfactor.expr import (
    Const,
    DepVar,
    IndepVar,
    ONE,
    Power,
    Var,
    ZERO,
    const,
    evaluate,
    render,
    simplify,
    u_,
    x_,
)
from opfactor.parse import MAX_EXPONENT, MAX_NESTING, parse_expr


def P(text):
    return simplify(parse_expr(text))


def test_numbers():
    assert parse_expr("3") == const(3)
    assert P("2/5") == const(Fraction(2, 5))
    assert P("0.25") == const(Fraction(1, 4))
    assert P("1.5") == const(Fraction(3, 2))
    assert P("-7") == const(-7)


def test_identifiers():
    assert parse_expr("x1") == Var(IndepVar(1))
    assert parse_expr("x2") == Var(IndepVar(2))
    assert parse_expr("u") == Var(DepVar(1))
    assert parse_expr("u1") == Var(DepVar(1))
    assert parse_expr("u3") == Var(DepVar(3))


def test_precedence():
    assert P("1 + 2*3") == const(7)
    assert P("2*3^2") == const(18)
    assert P("(1 + 2)*3") == const(9)
    assert P("2^3^2") == const(512)  # right associative
    assert P("6/3*2") == const(4)  # left associative
    assert P("1 - 2 - 3") == const(-4)


def test_unary_minus():
    assert P("-x1 + x1") == ZERO
    assert P("--5") == const(5)
    assert P("-x1^2") == P("-(x1^2)")
    assert P("2 - -3") == const(5)


def test_functions():
    e = P("exp(x1) * exp(-x1)")
    assert e == ONE
    assert evaluate(P("sin(0)"), {}) == pytest.approx(0.0)
    assert evaluate(P("sqrt(9)"), {}) == pytest.approx(3.0)
    assert P("log(1)") == ZERO


def test_mixed_expression():
    e = P("x1^2*u1 - (1/2)*x2 + exp(2*x1)")
    assert evaluate(e, {IndepVar(1): 0.0, IndepVar(2): 2.0, DepVar(1): 5.0}) == pytest.approx(0.0)


def test_power_requires_integer_exponent():
    with pytest.raises(ParseError):
        parse_expr("x1^x1")
    with pytest.raises(ParseError):
        parse_expr("x1^(1/2)")


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as info:
        parse_expr("x1 + ")
    assert "column" in str(info.value) or "line" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr("(x1 + 1")
    with pytest.raises(ParseError):
        parse_expr("x1 +* 2")
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("foo(x1)")
    with pytest.raises(ParseError):
        parse_expr("x1 @ 2")
    with pytest.raises(ParseError):
        parse_expr("x0")


@pytest.mark.parametrize("nest, width, start", [
    (lambda d: "(" * d + "x1" + ")" * d, 1, 0),
    (lambda d: "exp(" * d + "x1" + ")" * d, 4, 0),
    (lambda d: "-" * d + "x1", 1, 0),
    (lambda d: "x1" + "^1" * d, 2, 2)])
def test_nesting_limit(nest, width, start):
    e = P(nest(MAX_NESTING))
    assert P(render(e)) == e
    # the depth of one operand does not carry over to the next
    assert P(nest(MAX_NESTING) + "+" + nest(MAX_NESTING)) == simplify(e + e)
    with pytest.raises(ParseError) as info:
        parse_expr(nest(MAX_NESTING + 1))
    # reported at the token that opens the level past the limit
    assert info.value.column == start + width * MAX_NESTING + 1
    assert "nesting deeper" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr(nest(3000))


def test_position_offsets_carry_through():
    with pytest.raises(ParseError) as info:
        parse_expr("1 + %", line=7, column=10)
    msg = str(info.value)
    assert "7" in msg


def test_render_parse_roundtrip():
    samples = [
        "x1^2 - 2*x1*x2 + x2^2",
        "u1/(x1 + 1)",
        "exp(x1)*sin(x2) - sqrt(2)",
        "-3*x1 + 1/2",
    ]
    for text in samples:
        e = P(text)
        assert P(render(e)) == e


def test_exponent_limit():
    assert parse_expr(f"x1^{MAX_EXPONENT}") == Power(x_(1), MAX_EXPONENT)
    assert P(f"x1^(-{MAX_EXPONENT})") == P(f"1/x1^{MAX_EXPONENT}")
    for text, column in ((f"x1^{MAX_EXPONENT + 1}", 4), (f"x1^-{MAX_EXPONENT + 1}", 4),
                         ("2 + x1^(10^5)", 8), ("x1^100000000", 4)):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        # reported at the first token of the exponent
        assert info.value.column == column, text
        assert f"exponent larger than {MAX_EXPONENT}" in str(info.value)


@pytest.mark.parametrize("text", ["x1^²", "x²", "٣", "３", "x٣", "2*x1 + ٣", "１.5"])
def test_only_ascii_digits_are_numbers(text):
    # str.isdigit holds for these, and they used to end in a ValueError
    # (x1^², x²) or read silently as 3 and x3
    with pytest.raises(ParseError):
        parse_expr(text)
