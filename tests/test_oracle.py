"""The exact core against an independent oracle: sympy rebuilds each
expression on its own and decides the identities opfactor claims."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opfactor.errors import DomainError
from opfactor.expr import (Const, Div, Fun, IndepVar, Power, Product, Sum, Var,
                           diff, poly_sqrt, simplify, x_)

sympy = pytest.importorskip("sympy")

X = {1: sympy.Symbol("x1"), 2: sympy.Symbol("x2")}


def to_sympy(e):
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return X[e.vid.index]
    if isinstance(e, Sum):
        return sympy.Add(*[to_sympy(t) for t in e.terms])
    if isinstance(e, Product):
        return sympy.Mul(*[to_sympy(f) for f in e.factors])
    if isinstance(e, Power):
        return to_sympy(e.base) ** e.exp
    if isinstance(e, Div):
        return to_sympy(e.num) / to_sympy(e.den)
    return getattr(sympy, e.name)(to_sympy(e.arg))


def is_zero(d) -> bool:
    return sympy.cancel(sympy.expand(d)) == 0 or sympy.simplify(d) == 0


@st.composite
def trees(draw, depth=0, quotients=True):
    """Small trees over x1, x2 with exp and sin atoms."""
    leaf = st.one_of(st.fractions(-3, 3, max_denominator=3).map(Const),
                     st.sampled_from([x_(1), x_(2)]))
    if depth >= 3:
        return draw(leaf)
    # function atoms and quotients are drawn rarely, so that many trees
    # are polynomials and take the polynomial derivative
    branch = draw(st.sampled_from("llsspPPfd" if quotients else "llsspPPf"))
    sub = trees(depth=depth + 1, quotients=quotients)
    if branch == "l":
        return draw(leaf)
    if branch == "s":
        return Sum(tuple(draw(st.lists(sub, min_size=2, max_size=3))))
    if branch == "p":
        return Product(tuple(draw(st.lists(sub, min_size=2, max_size=3))))
    if branch == "P":
        return Power(draw(sub), draw(st.integers(-2 if quotients else 0, 3)))
    if branch == "f":
        return Fun(draw(st.sampled_from(["exp", "sin"])), draw(sub))
    return Div(draw(sub), draw(sub))


def _simplified(e):
    try:
        return simplify(e)
    except DomainError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(trees())
def test_simplify_keeps_the_value(e):
    assert is_zero(to_sympy(_simplified(e)) - to_sympy(e))


@settings(max_examples=40, deadline=None)
@given(trees(), st.sampled_from([1, 2]))
def test_diff_agrees_with_sympy(e, axis):
    d = diff(_simplified(e), IndepVar(axis))
    assert is_zero(to_sympy(d) - sympy.diff(to_sympy(e), X[axis]))


@settings(max_examples=40, deadline=None)
@given(trees(quotients=False))
def test_poly_sqrt_of_a_square(r):
    r = _simplified(r)
    root = poly_sqrt(Product((r, r)))
    assert root is not None
    expected = to_sympy(r)
    got = to_sympy(root)
    assert is_zero(got - expected) or is_zero(got + expected)
