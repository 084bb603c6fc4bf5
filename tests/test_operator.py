"""Operator construction, product expansion, and application."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor.errors import OrderOverflow, ShapeMismatch
from opfactor.expr import (
    DepVar,
    IndepVar,
    ONE,
    ZERO,
    const,
    evaluate,
    simplify,
    u_,
    x_,
)
from opfactor.operator import (
    DiffOperator,
    MatrixOperator,
    apply_operator,
    apply_to_expr,
    expand_product,
    jet_polynomial,
    make_operator,
    matrix_apply,
    matrix_expand_product,
    operator_from_jet,
    render_jet,
)
from opfactor.parse import parse_expr


def E(text):
    return simplify(parse_expr(text))


def op1(coeffs, linear=True, m=1):
    return make_operator(1, m, coeffs, linear=linear)


def op2(coeffs, linear=True):
    return make_operator(2, 1, coeffs, linear=linear)


D = op1({(1, 1): ONE})


# ---------------------------------------------------------------------------
# construction


def test_make_operator_validates_slots():
    with pytest.raises(Exception):
        make_operator(1, 1, {(1, 2): ONE})
    with pytest.raises(Exception):
        make_operator(2, 1, {(2, 5): ONE})
    with pytest.raises(Exception):
        make_operator(1, 1, {(-1, 1): ONE})


def test_linear_operator_rejects_dependent_coefficients():
    with pytest.raises(Exception):
        make_operator(1, 1, {(1, 1): u_(1)}, linear=True)
    quasi = make_operator(1, 1, {(1, 1): u_(1)}, linear=False)
    assert quasi.coeff(1, 1) == u_(1)


def test_order_and_coeff_lookup():
    P = op1({(2, 1): ONE, (0, 1): const(-1)})
    assert P.order == 2
    assert P.coeff(2, 1) == ONE
    assert P.coeff(1, 1) == ZERO
    assert P.coeff(0, 1) == const(-1)


def test_matrix_operator_off_diagonal_order_bound():
    d = op1({(2, 1): ONE}, m=2)
    low = op1({(1, 1): ONE}, m=2)
    zero = op1({}, m=2)
    M = MatrixOperator(1, 2, ((d, low), (zero, d)))
    assert M.order == 2
    assert M.linear
    with pytest.raises(Exception):
        MatrixOperator(1, 2, ((d, d), (zero, d)))


# ---------------------------------------------------------------------------
# product expansion goldens


def test_expand_simple_ode_product():
    Q1 = op1({(1, 1): ONE, (0, 1): const(-1)})  # D - 1
    Q2 = op1({(1, 1): ONE, (0, 1): const(-2)})  # D - 2
    jp = expand_product([Q1, Q2])
    P = operator_from_jet(jp)
    assert P.coeff(2, 1) == ONE
    assert P.coeff(1, 1) == const(-3)
    assert P.coeff(0, 1) == const(2)


def test_expansion_is_noncommutative_with_variable_coefficients():
    A = op1({(1, 1): ONE})  # D
    B = op1({(0, 1): x_(1)})  # multiplication by x
    left = operator_from_jet(expand_product([A, B]))
    right = operator_from_jet(expand_product([B, A]))
    # D(x u) = x u' + u while x D(u) = x u'
    assert left.coeff(1, 1) == x_(1)
    assert left.coeff(0, 1) == ONE
    assert right.coeff(1, 1) == x_(1)
    assert right.coeff(0, 1) == ZERO


def test_commutator_of_d_and_x_is_identity():
    A = op1({(1, 1): ONE})
    B = op1({(0, 1): x_(1)})
    left = operator_from_jet(expand_product([A, B]))
    right = operator_from_jet(expand_product([B, A]))
    assert simplify(left.coeff(0, 1) - right.coeff(0, 1)) == ONE
    assert simplify(left.coeff(1, 1) - right.coeff(1, 1)) == ZERO


def test_expand_pde_product_collects_slot_twins():
    # (D1)(D2) has order-2 slot 2 = x1 then x2
    D1 = op2({(1, 1): ONE})
    D2 = op2({(1, 2): ONE})
    jp = expand_product([D1, D2])
    P = operator_from_jet(jp)
    # D1 applied after D2: axis word (2, 1) -> slot 3; twin of slot 2
    assert simplify(P.coeff(2, 2) + P.coeff(2, 3)) == ONE
    assert P.coeff(2, 1) == ZERO
    assert P.coeff(2, 4) == ZERO


def test_expand_wave_factorization():
    # (D1 - D2)(D1 + D2) = D1^2 - D2^2
    Q1 = op2({(1, 1): ONE, (1, 2): const(-1)})
    Q2 = op2({(1, 1): ONE, (1, 2): ONE})
    P = operator_from_jet(expand_product([Q1, Q2]))
    assert P.coeff(2, 1) == ONE
    assert P.coeff(2, 4) == const(-1)
    assert simplify(P.coeff(2, 2) + P.coeff(2, 3)) == ZERO
    assert P.coeff(1, 1) == ZERO
    assert P.coeff(1, 2) == ZERO


def test_expand_variable_pde_product():
    # (x1 + D1)(x2 + D1) = D1^2 + (x1 + x2) D1 + x1 x2, since D1 x2 = 0
    Q1 = op2({(0, 1): x_(1), (1, 1): ONE})
    Q2 = op2({(0, 1): x_(2), (1, 1): ONE})
    P = operator_from_jet(expand_product([Q1, Q2]))
    assert P.coeff(2, 1) == ONE
    assert P.coeff(1, 1) == E("x1 + x2")
    assert P.coeff(0, 1) == E("x1*x2")


def test_expand_variable_ode_product():
    # (x1 + D)(x1 + D) = D^2 + 2 x1 D + (x1^2 + 1), the +1 from D(x1)
    Q = op1({(0, 1): x_(1), (1, 1): ONE})
    P = operator_from_jet(expand_product([Q, Q]))
    assert P.coeff(2, 1) == ONE
    assert P.coeff(1, 1) == E("2*x1")
    assert P.coeff(0, 1) == E("x1^2 + 1")


def test_order_cap_enforced():
    P2 = op1({(2, 1): ONE})
    with pytest.raises(OrderOverflow):
        expand_product([P2, P2, P2, P2])
    jp = expand_product([P2, P2, P2, P2], order_cap=8)
    assert operator_from_jet(jp).order == 8


def test_shape_mismatch_detected():
    with pytest.raises(ShapeMismatch):
        expand_product([D, op2({(1, 1): ONE})])


def test_triple_product_associates():
    A = op1({(1, 1): ONE, (0, 1): x_(1)})
    B = op1({(1, 1): ONE, (0, 1): const(-1)})
    C = op1({(1, 1): ONE, (0, 1): E("x1^2")})
    whole = expand_product([A, B, C])
    left_pair = operator_from_jet(expand_product([A, B]), 1)
    via_left = expand_product([left_pair, C])
    assert render_jet(whole) == render_jet(via_left)


# ---------------------------------------------------------------------------
# matrix expansion


def test_matrix_expand_tracks_columns():
    d = op1({(1, 1): ONE}, m=2)
    one = op1({(0, 1): ONE}, m=2)
    two = op1({(0, 1): const(2)}, m=2)
    zero = op1({}, m=2)
    N1 = MatrixOperator(1, 2, ((d, one), (zero, d)))
    N2 = MatrixOperator(1, 2, ((d, zero), (two, d)))
    grid = matrix_expand_product([N1, N2])
    P = [[operator_from_jet(grid[p][q], q + 1) for q in range(2)] for p in range(2)]
    assert P[0][0].coeff(2, 1) == ONE
    assert P[0][0].coeff(0, 1) == const(2)
    assert P[0][1].coeff(1, 1) == ONE
    assert P[1][0].coeff(1, 1) == const(2)
    assert P[1][1].coeff(2, 1) == ONE


def test_matrix_single_factor_is_itself():
    d = op1({(2, 1): ONE, (0, 1): x_(1)}, m=2)
    zero = op1({}, m=2)
    M = MatrixOperator(1, 2, ((d, zero), (zero, d)))
    grid = matrix_expand_product([M])
    assert operator_from_jet(grid[0][0], 1).coeff(0, 1) == x_(1)
    assert grid[0][1].terms == ()
    assert grid[1][0].terms == ()


# ---------------------------------------------------------------------------
# application to concrete functions


def test_apply_operator_matches_expansion():
    Q1 = op1({(1, 1): ONE, (0, 1): const(-1)})
    Q2 = op1({(1, 1): ONE, (0, 1): const(-2)})
    P = operator_from_jet(expand_product([Q1, Q2]))
    u = E("exp(x1)")
    # (D-1)(D-2) exp(x) = (1 - 3 + 2) exp(x) = 0
    assert apply_to_expr(P, u, {1: u}) == ZERO
    inner = apply_to_expr(Q2, u, {1: u})
    outer = apply_to_expr(Q1, simplify(inner), {1: simplify(inner)})
    assert simplify(outer) == ZERO


def test_apply_to_expr_polynomial():
    P = op1({(2, 1): ONE})
    assert apply_to_expr(P, E("x1^3"), {1: E("x1^3")}) == E("6*x1")


def test_quasilinear_apply_substitutes_dependent_variable():
    # u u' as operator: coefficient u on slot (1,1)
    Q = op1({(1, 1): u_(1)}, linear=False)
    out = simplify(apply_to_expr(Q, E("x1^2"), {1: E("x1^2")}))
    assert out == E("2*x1^3")


def test_matrix_apply():
    d = op1({(1, 1): ONE}, m=2)
    one = op1({(0, 1): ONE}, m=2)
    zero = op1({}, m=2)
    M = MatrixOperator(1, 2, ((d, one), (zero, d)))
    out = matrix_apply(M, {1: E("x1"), 2: E("x1^2")})
    assert simplify(out[0]) == E("x1^2 + 1")
    assert simplify(out[1]) == E("2*x1")


def test_jet_polynomial_roundtrip():
    jp = expand_product([op1({(1, 1): ONE, (0, 1): x_(1)})])
    e = jp.to_expr()
    back = jet_polynomial(1, 1, e)
    assert render_jet(back) == render_jet(jp)


# ---------------------------------------------------------------------------
# property: expansion identity P(u) == Q1(Q2(u)) on sampled functions


@st.composite
def small_ops(draw):
    c1 = draw(st.integers(-3, 3))
    c0 = draw(st.integers(-3, 3))
    use_x = draw(st.booleans())
    zero_order = x_(1) * const(c0) if use_x else const(c0)
    return op1({(1, 1): const(c1) if c1 else ONE, (0, 1): simplify(zero_order)})


@settings(max_examples=60, deadline=None)
@given(small_ops(), small_ops())
def test_expansion_identity_on_samples(Q1, Q2):
    P = operator_from_jet(expand_product([Q1, Q2]))
    u = E("x1^3 - 2*x1")
    direct = simplify(apply_to_expr(P, u, {1: u}))
    inner = simplify(apply_to_expr(Q2, u, {1: u}))
    nested = simplify(apply_to_expr(Q1, inner, {1: inner}))
    assert direct == nested
