"""The x2 pivot of the principal symbol route against the old route.

Operators with no u_x1x1 slot used to be split by exchanging x1 and x2,
splitting on u_x1x1 and exchanging every result back.  That round trip
is kept here as an independent reference for the direct x2 pivot.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor.conditions import FactorizationCandidate
from opfactor.errors import EngineError, NonPolynomialSqrtDelta
from opfactor.expr import (FuncSym, IndepVar, ONE, Var, ZERO, expr_variables, render,
                           simplify, substitute)
from opfactor.factor import (PdeBranch, PdeFactorResult, PdeObligation,
                             factor_pde_second_order)
from opfactor.operator import expand_product, make_operator, operator_from_jet
from opfactor.parse import parse_expr


def E(text):
    return simplify(parse_expr(text))


def pde(coeffs):
    return make_operator(2, 1, {k: E(v) for k, v in coeffs.items()})


# ---------------------------------------------------------------------------
# the old route: swap the axes, split on u_x1x1, swap every result back

_SLOT_SWAP = {(0, 1): (0, 1), (1, 1): (1, 2), (1, 2): (1, 1),
              (2, 1): (2, 4), (2, 2): (2, 3), (2, 3): (2, 2), (2, 4): (2, 1)}


def _swap_coord(c):
    return ("x", 3 - c[1]) if c[0] == "x" else c


def _swap_expr(e):
    """Exchange x1 and x2, including derivative tags on opaque symbols."""
    mapping = {}
    for v in expr_variables(e):
        if isinstance(v, IndepVar):
            mapping[v] = Var(IndepVar(3 - v.index))
        elif isinstance(v, FuncSym):
            mapping[v] = Var(FuncSym(v.family, v.indices,
                                     tuple(sorted(_swap_coord(c) for c in v.derivs)),
                                     tuple(sorted(_swap_coord(c) for c in v.deps))))
    return substitute(e, mapping)


def _swap_axes(op):
    """Exchange the two independent variables, slots and coefficients."""
    return make_operator(op.n, op.m, {_SLOT_SWAP[(d.k, d.h)]: _swap_expr(c)
                                      for d, c in op.coeffs}, op.linear)


def _swap_candidate(c):
    return FactorizationCandidate(tuple(_swap_axes(f) for f in c.factors))


def _swap_result(res):
    sub = _swap_expr
    branches = tuple(PdeBranch(_swap_candidate(b.candidate), sub(b.residual), b.sign)
                     for b in res.branches)
    ob = res.obligation
    if ob is not None:
        ob = PdeObligation(_swap_axes(ob.operator), sub(ob.a2), sub(ob.a1),
                           sub(ob.c2), sub(ob.c1), sub(ob.equation))
    return PdeFactorResult(sub(res.delta), None if res.sqrt_delta is None
                           else sub(res.sqrt_delta), branches, ob, swapped=True)


def _has_exp(P):
    return any("exp(" in render(c) for _, c in P.coeffs)


def assert_matches_the_old_route(P):
    assert P.coeff(2, 1) == ZERO and P.coeff(2, 4) != ZERO
    try:
        want = _swap_result(factor_pde_second_order(_swap_axes(P)))
    except EngineError as err:
        with pytest.raises(type(err)):
            factor_pde_second_order(P)
        return
    got = factor_pde_second_order(P)
    assert got.swapped and want.swapped
    assert got.delta == want.delta
    assert got.sqrt_delta == want.sqrt_delta
    assert [b.sign for b in got.branches] == [b.sign for b in want.branches]
    for g, w in zip(got.branches, want.branches):
        # every slot coefficient of both factors
        assert g.candidate == w.candidate
        assert g.ok == w.ok
        if g.residual != w.residual:
            # pair arithmetic does not read exp(2 a) as exp(a)^2, so the
            # gcd can leave a different form of the same quotient on
            # either route; without exp atoms the trees are the same
            assert _has_exp(P)
            assert simplify(g.residual - w.residual) == ZERO
    if want.obligation is None:
        assert got.obligation is None
    else:
        for field in ("a1", "a2", "c1", "c2", "equation"):
            assert getattr(got.obligation, field) == getattr(want.obligation, field), field
        assert got.obligation == want.obligation
    return got


# ---------------------------------------------------------------------------
# draws with g21 = 0 and g24 != 0

_LEADS = ("1", "-2", "1/2", "x1", "x2 + 3", "x1*x2 + 1", "3/(x1 + 2)", "(x1 + 1)/(x2 - 4)",
          "exp(x1)", "exp(x2 - x1)")
_COEFFS = _LEADS + ("0", "0", "x1 - x2", "x2 - x1", "x2^2 - 2*x1", "x2/(x1 + x2 + 3)",
                    "exp(x2) - x1", "exp(x1 - x2)", "sin(x2)", "-x1*x2")
leads = st.sampled_from(_LEADS).map(E)
coeffs = st.sampled_from(_COEFFS).map(E)


@st.composite
def x2_lead_operators(draw):
    """(kind, P, planted factors or None)."""
    kind = draw(st.sampled_from(("free", "oriented", "repeated", "plant-left", "plant-right")))
    g = draw(leads)
    if kind == "plant-left":
        # (g D2 + a D1 + y)(D2 + z)
        Q1 = make_operator(2, 1, {(1, 2): g, (1, 1): draw(coeffs), (0, 1): draw(coeffs)})
        Q2 = make_operator(2, 1, {(1, 2): ONE, (0, 1): draw(coeffs)})
    elif kind == "plant-right":
        # (g D2 + y)(D2 + c D1 + z)
        Q1 = make_operator(2, 1, {(1, 2): g, (0, 1): draw(coeffs)})
        Q2 = make_operator(2, 1, {(1, 2): ONE, (1, 1): draw(coeffs), (0, 1): draw(coeffs)})
    else:
        s = draw(coeffs)
        if kind == "oriented":
            # a root whose leading term changes sign when x2 ranks first
            s = simplify(E("x1 - x2") * draw(leads))
        t = simplify(-s) if kind == "repeated" else draw(coeffs)
        P = make_operator(2, 1, {(2, 4): g, (2, 2): s, (2, 3): t, (1, 1): draw(coeffs),
                                 (1, 2): draw(coeffs), (0, 1): draw(coeffs)})
        return kind, P, None
    return kind, operator_from_jet(expand_product([Q1, Q2])), (Q1, Q2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x2_lead_operators())
def test_the_x2_pivot_matches_the_swap_round_trip(draw):
    kind, P, planted = draw
    got = assert_matches_the_old_route(P)
    if planted is None or got is None:
        return
    if got.obligation is not None:
        # a repeated root: the planted Q2's zero order slot completes it
        assert got.obligation.check(planted[1].coeff(0, 1)).ok
    else:
        assert any(all(_same_value(f, q) for f, q in zip(c.factors, planted))
                   for c in got.candidates)


def _same_value(A, B):
    return all(simplify(A.coeff(*s) - B.coeff(*s)) == ZERO
               for s in ((0, 1), (1, 1), (1, 2)))


@pytest.mark.parametrize("coeffs", [
    # S = x1 - x2: poly_sqrt ranks x1 first and returns x1 - x2; with the
    # pivot x2 ranked first the root is x2 - x1
    {(2, 4): "1", (2, 2): "x1 - x2"},
    {(2, 4): "x1", (2, 2): "x1", (2, 3): "-x2", (1, 1): "1", (0, 1): "x2"},
    {(2, 4): "exp(x1)", (2, 3): "x1 - x2", (1, 2): "x1"},
    # a quotient discriminant: the root of the numerator over that of the denominator
    {(2, 4): "1", (2, 2): "(x1 - x2)/(x2 + 2)", (1, 2): "1"},
    # a repeated root: g22 + g23 = 0
    {(2, 4): "x2", (2, 2): "x1 - x2", (2, 3): "x2 - x1", (1, 1): "x1", (0, 1): "1"},
])
def test_the_x2_pivot_keeps_the_old_orientation(coeffs):
    assert_matches_the_old_route(pde(coeffs))


def test_the_x2_pivot_ranks_x2_first_for_the_root_sign():
    res = factor_pde_second_order(pde({(2, 4): "1", (2, 2): "x1 - x2"}))
    assert res.swapped
    assert render(res.sqrt_delta) == "x2 - x1"


def test_the_x2_pivot_names_the_discriminant_in_the_operator_axes():
    # exp(2/x1) has no polynomial square root; the old route named the
    # discriminant of the swapped operator, exp(2/x2)
    with pytest.raises(NonPolynomialSqrtDelta, match=r"discriminant exp\(2/x1\) has no"):
        factor_pde_second_order(pde({(2, 4): "1", (2, 2): "exp(1/x1)"}))
