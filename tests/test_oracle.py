"""The exact core against an independent oracle: sympy rebuilds each
expression on its own and decides the identities opfactor claims."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opfactor.conditions import discriminant
from opfactor.errors import DomainError
from opfactor.expr import (Const, DepVar, Div, Fun, IndepVar, Power, Product, Sum,
                           Var, const, diff, poly_sqrt, simplify, u_, x_)
from opfactor.jet import DerivIndex, index_to_axes
from opfactor.operator import expand_product, make_operator, operator_from_jet

X = {1: sympy.Symbol("x1"), 2: sympy.Symbol("x2")}


def to_sympy(e):
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        if isinstance(e.vid, DepVar):
            return sympy.Symbol(f"u{e.vid.component}")
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


# ---------------------------------------------------------------------------
# expansion and discriminant: sympy applies the factors to a generic u(x)
#
# Exact zero tests of these identities take sympy seconds to minutes per
# draw over two variables, so both sides are compared at random rational
# points instead, with u and its derivatives set to random rationals and
# the values taken to 50 digits.


def _rand_poly(rng, gens, degree=2):
    e = const(rng.randint(-3, 3))
    for g in gens:
        for d in range(1, degree + 1):
            e = e + const(rng.randint(-2, 2)) * Power(g, d)
    return e


def _rand_coeff(rng, n, quasi_linear, positive):
    """A polynomial, possibly in u1, times or plus an exp/log/sin atom, or
    over `positive`.  Logs take `positive` as argument too, so that their
    derivatives share denominators with the quotients: without a
    polynomial gcd, unrelated denominators multiply up and a single draw
    over two variables can take opfactor minutes."""
    xs = [x_(i) for i in range(1, n + 1)]
    p = _rand_poly(rng, xs + ([u_(1)] if quasi_linear else []))
    kind = rng.choice(["poly", "quotient", "quotient", "exp", "log", "sin"])
    if kind == "quotient":
        return p / positive
    if kind == "exp":
        return p * Fun("exp", _rand_poly(rng, xs, degree=1))
    if kind == "log":
        return p + Fun("log", positive)
    if kind == "sin":
        return p * Fun("sin", xs[-1])
    return p


def _rand_split(rng, n, quasi_linear=False):
    positive = Power(x_(rng.randint(1, n)), 2) + const(rng.randint(1, 2))
    factors = []
    for _ in range(2):
        coeffs = {(1, h): _rand_coeff(rng, n, quasi_linear, positive)
                  for h in range(1, n + 1)}
        coeffs[(0, 1)] = _rand_coeff(rng, n, quasi_linear, positive)
        factors.append(make_operator(n, 1, coeffs, linear=not quasi_linear))
    return factors


def _generic_u(n):
    return sympy.Function("u")(*[X[i] for i in range(1, n + 1)])


def _coeff(c, U):
    return to_sympy(c).subs(sympy.Symbol("u1"), U)


def _sympy_apply(op, f, U):
    """op applied to f by sympy."""
    out = 0
    for d, c in op.coeffs:
        df = f
        for a in index_to_axes(d):
            df = sympy.diff(df, X[a])
        out += _coeff(c, U) * df
    return out


def _jet_to_sympy(jp, U):
    out = 0
    for mono, c in jp.terms:
        term = _coeff(c, U)
        for (_, k, h), e in mono:
            du = U
            for a in index_to_axes(DerivIndex(k, h, jp.n)):
                du = sympy.diff(du, X[a])
            term *= du ** e
        out += term
    return out


def _agree(a, b, U, rng):
    """a and b agree to 40 digits at three random points."""
    for _ in range(3):
        point = {d: sympy.Rational(rng.randint(-20, 20), 7)
                 for d in sorted((a - b).atoms(sympy.Derivative), key=str)}
        point[U] = sympy.Rational(rng.randint(-20, 20), 7)
        point.update({x: sympy.Rational(rng.randint(-20, 20), 7) for x in X.values()})
        va, vb = (sympy.N(e.xreplace(point), 50) for e in (a, b))
        assert abs(va - vb) <= sympy.Float(10, 50) ** -40 * (1 + abs(vb))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [1, 2])
def test_expand_product_agrees_with_sympy(seed, n):
    rng = random.Random(100 * n + seed)
    Q1, Q2 = _rand_split(rng, n, quasi_linear=seed % 2 == 1)
    U = _generic_u(n)
    _agree(_jet_to_sympy(expand_product([Q1, Q2]), U),
           _sympy_apply(Q1, _sympy_apply(Q2, U, U), U), U, rng)


@pytest.mark.parametrize("seed", range(5))
def test_discriminant_agrees_with_sympy(seed):
    """Delta of the product against sympy's expansion of its principal
    part, (b11 D1 + b12 D2)(b21 D1 + b22 D2) on u."""
    rng = random.Random(seed)
    Q1, Q2 = _rand_split(rng, 2)
    U = _generic_u(2)
    top = [make_operator(2, 1, {(1, h): Q.coeff(1, h) for h in (1, 2)}) for Q in (Q1, Q2)]
    PU = _sympy_apply(top[0], _sympy_apply(top[1], U, U), U)
    a, b, c = (sympy.diff(PU, sympy.diff(U, *axes)) for axes in
               ((X[1], X[1]), (X[1], X[2]), (X[2], X[2])))
    P = operator_from_jet(expand_product([Q1, Q2]))
    _agree(to_sympy(discriminant(P)), b * b - 4 * a * c, U, rng)


# ---------------------------------------------------------------------------
# canonical quotients: numerator and denominator coprime, as sympy.cancel
#
# Each draw is (A C) / (B C) over x1, x2, u1 and log(x1^2 + 1), with one
# exp atom at degree one in one of the three factors: opfactor keeps
# exp(2 x1) as an atom of its own, where sympy reads exp(x1)^2.

GENERATORS = [x_(1), x_(2), u_(1), Fun("log", Power(x_(1), 2) + const(1))]


@st.composite
def factor_polys(draw, exp_atom=None):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        term = [const(draw(st.sampled_from([-3, -2, -1, 1, 2, 5])))]
        for g in GENERATORS:
            term.append(Power(g, draw(st.integers(0, 2))))
        terms.append(Product(tuple(term)))
    if exp_atom is not None:
        terms.append(Product((const(draw(st.sampled_from([-1, 2]))), exp_atom,
                              draw(st.sampled_from(GENERATORS)))))
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


@st.composite
def reducible_quotients(draw):
    exp_atom = Fun("exp", draw(st.sampled_from([x_(1), u_(1), x_(1) + x_(2)])))
    where = draw(st.integers(0, 2))
    A, B, C = (draw(factor_polys(exp_atom if where == i else None)) for i in range(3))
    return Div(Product((A, C)), Product((B, C)))


def _terms(p) -> int:
    return len(sympy.Add.make_args(sympy.expand(p)))


@settings(max_examples=60, deadline=None)
@given(reducible_quotients())
def test_quotients_are_as_coprime_as_sympy_cancel(e):
    got = _simplified(e)
    want_num, want_den = sympy.fraction(sympy.cancel(to_sympy(e)))
    assert (len(got._polys[1]) if isinstance(got, Div) else 1) == _terms(want_den)
    assert sympy.cancel(to_sympy(got) * want_den - want_num) == 0
