"""Factorization search: constant roots, Riccati ansatz, principal symbol."""

from fractions import Fraction

import pytest

from opfactor.conditions import CheckOptions, FactorizationCandidate, check_candidate
from opfactor.errors import (
    NoRealFactorization,
    NonPolynomialCoefficients,
    NonPolynomialSqrtDelta,
    NotConstant,
    UnsupportedTemplate,
)
from opfactor.expr import (
    Const,
    Fun,
    ONE,
    ZERO,
    const,
    is_zero,
    render,
    simplify,
    x_,
)
from opfactor.factor import (
    SearchConfig,
    factor_constant,
    factor_ode,
    factor_pde_second_order,
    riccati_candidate,
    riccati_from_operator,
    solve_riccati_ansatz,
)
from opfactor.operator import expand_product, make_operator, operator_from_jet
from opfactor.parse import parse_expr


def E(text):
    return simplify(parse_expr(text))


def ode(g2, g1, g0):
    return make_operator(1, 1, {(2, 1): E(g2), (1, 1): E(g1), (0, 1): E(g0)})


def pde(coeffs):
    return make_operator(2, 1, {k: E(v) for k, v in coeffs.items()})


def verified(P, cand):
    return check_candidate(P, cand, CheckOptions(samples=6, seed=2)).passed


# ---------------------------------------------------------------------------
# constant coefficients


def test_constant_distinct_rational_roots():
    P = ode("1", "-3", "2")
    found = factor_constant(P)
    assert len(found) == 2
    for cand in found:
        assert verified(P, cand)
    zero_orders = sorted(
        (cand.factors[0].coeff(0, 1).value, cand.factors[1].coeff(0, 1).value)
        for cand in found
    )
    assert zero_orders == [(Fraction(-2), Fraction(-1)), (Fraction(-1), Fraction(-2))]


def test_constant_double_root_deduplicates():
    P = ode("1", "-2", "1")
    found = factor_constant(P)
    assert len(found) == 1
    assert verified(P, found[0])


def test_constant_irrational_roots_stay_exact():
    P = ode("1", "-1", "-1")
    found = factor_constant(P)
    assert found
    for cand in found:
        assert verified(P, cand)
    atoms = render(found[0].factors[0].coeff(0, 1))
    assert "sqrt(5)" in atoms


def test_constant_negative_discriminant():
    with pytest.raises(NoRealFactorization):
        factor_constant(ode("1", "0", "1"))


def test_constant_rejects_variable_coefficients():
    with pytest.raises(NotConstant):
        factor_constant(ode("1", "x1", "0"))


def test_constant_requires_second_order():
    with pytest.raises(UnsupportedTemplate):
        factor_constant(make_operator(1, 1, {(1, 1): ONE}))


def test_constant_scaled_leading_coefficient():
    P = ode("2", "-6", "4")
    found = factor_constant(P)
    assert found
    for cand in found:
        assert verified(P, cand)


# ---------------------------------------------------------------------------
# Riccati ansatz


def test_riccati_recovers_variable_split():
    P = ode("1", "0", "-x1^2 - 1")
    prob = riccati_from_operator(P)
    ys = solve_riccati_ansatz(prob)
    assert ys
    for y in ys:
        cand = riccati_candidate(prob, y)
        assert verified(P, cand)
    assert E("-x1") in ys or E("x1") in ys


def test_riccati_constant_case_agrees_with_constant_route():
    # Y is the zero order term of the inner factor: (D + Y) with Y in {-2, -1}
    P = ode("1", "-3", "2")
    prob = riccati_from_operator(P)
    ys = solve_riccati_ansatz(prob)
    assert sorted(ys, key=lambda c: c.value) == [const(-2), const(-1)]
    for y in ys:
        assert verified(P, riccati_candidate(prob, y))


def test_riccati_no_polynomial_solution():
    # Airy: u'' - x u has no polynomial Riccati solution
    P = ode("1", "0", "-x1")
    assert solve_riccati_ansatz(riccati_from_operator(P)) == []


def test_riccati_perturbation_destroys_solutions():
    base = ode("1", "0", "-x1^2 - 1")
    assert solve_riccati_ansatz(riccati_from_operator(base))
    bumped = ode("1", "0", "-x1^2")
    assert solve_riccati_ansatz(riccati_from_operator(bumped)) == []


def test_riccati_requires_polynomial_coefficients():
    P = make_operator(1, 1, {(2, 1): ONE, (0, 1): E("1/x1")})
    with pytest.raises(NonPolynomialCoefficients):
        solve_riccati_ansatz(riccati_from_operator(P))


def test_riccati_degree_cap_limits_search():
    # planted Y = x1^3 needs degree 3; a cap of 2 must miss it
    y = E("x1^3")
    g11 = ZERO
    # Y' - Y^2 + (g11/g21) Y - g01/g21 = 0 with g21 = 1
    g01 = simplify(E("3*x1^2") - E("x1^6"))
    P = make_operator(1, 1, {(2, 1): ONE, (1, 1): g11, (0, 1): g01})
    prob = riccati_from_operator(P)
    assert solve_riccati_ansatz(prob, SearchConfig(ansatz_degree=2)) == []
    ys = solve_riccati_ansatz(prob, SearchConfig(ansatz_degree=3))
    assert y in ys
    cand = riccati_candidate(prob, y)
    assert verified(P, cand)


def test_factor_ode_dispatch():
    const_found = factor_ode(ode("1", "-3", "2"))
    assert len(const_found) == 2
    var_found = factor_ode(ode("1", "0", "-x1^2 - 1"))
    assert var_found
    for cand in var_found:
        assert verified(ode("1", "0", "-x1^2 - 1"), cand)
    assert factor_ode(ode("1", "0", "-x1")) == []


def test_factor_ode_rejects_pde():
    with pytest.raises(UnsupportedTemplate):
        factor_ode(pde({(2, 1): "1"}))


# ---------------------------------------------------------------------------
# principal symbol pipeline over two variables


def cfg(**kw):
    return SearchConfig(**kw)


def test_pde_wave_splits_both_ways():
    P = pde({(2, 1): "1", (2, 4): "-1"})
    res = factor_pde_second_order(P)
    assert res.delta == const(4)
    assert not res.swapped
    assert len(res.branches) == 2
    assert all(b.ok for b in res.branches)
    for cand in res.candidates:
        assert verified(P, cand)


def test_pde_laplace_has_no_real_split():
    with pytest.raises(NoRealFactorization):
        factor_pde_second_order(pde({(2, 1): "1", (2, 4): "1"}))


def test_pde_variable_coefficient_plant():
    Q1 = make_operator(2, 1, {(0, 1): x_(1), (1, 1): ONE, (1, 2): x_(1)})
    Q2 = make_operator(2, 1, {(0, 1): x_(2), (1, 1): ONE, (1, 2): E("-x1")})
    P = operator_from_jet(expand_product([Q1, Q2]))
    res = factor_pde_second_order(P)
    assert res.candidates
    for cand in res.candidates:
        assert verified(P, cand)
    # exactly one sign matches this plant
    assert sum(1 for b in res.branches if b.ok) == 1


def test_pde_obstructed_zero_order():
    # principal symbol splits but the zero order residual blocks it
    P = pde({(2, 1): "1", (2, 4): "-1", (0, 1): "1"})
    res = factor_pde_second_order(P)
    assert res.branches
    assert not res.candidates
    assert all(not b.ok for b in res.branches)


def test_pde_repeated_root_obligation():
    # (D1 + D2)^2 leaves a first order obligation instead of candidates
    P = pde({(2, 1): "1", (2, 2): "1", (2, 3): "1", (2, 4): "1"})
    res = factor_pde_second_order(P)
    assert res.delta == ZERO
    assert res.obligation is not None
    assert not res.branches
    chk = res.obligation.check(ZERO)
    assert chk.ok
    assert verified(P, chk.candidate)


def test_pde_obligation_with_nontrivial_z():
    # u_x2x2 - (x2^2 + 1) u has no pure second order slot on axis 1, so
    # the search swaps axes; the restored obligation accepts Z = -x2
    P = pde({(2, 4): "1", (0, 1): "-x2^2 - 1"})
    res = factor_pde_second_order(P)
    assert res.swapped
    assert res.obligation is not None
    good = res.obligation.check(E("-x2"))
    assert good.ok
    assert verified(P, good.candidate)
    bad = res.obligation.check(E("x2^2"))
    assert not bad.ok


def test_pde_swap_restores_orientation():
    # u_x2x2 + u_x1x2 only becomes supported after the axis swap; the
    # returned factors must be expressed in the original axes again
    P = pde({(2, 4): "1", (2, 2): "1"})
    res = factor_pde_second_order(P)
    assert res.swapped
    assert res.candidates
    for cand in res.candidates:
        assert verified(P, cand)


def test_pde_both_leading_slots_zero_unsupported():
    with pytest.raises(UnsupportedTemplate):
        factor_pde_second_order(pde({(2, 2): "1", (1, 1): "1"}))


def test_pde_indefinite_discriminant():
    # delta = 4 x1 is a non-square polynomial changing sign
    P = pde({(2, 1): "1", (2, 4): "-x1"})
    with pytest.raises(NonPolynomialSqrtDelta):
        factor_pde_second_order(P)


def test_pde_negative_definite_discriminant():
    # delta = -4 - 4 x1^2 < 0 everywhere: detected by sampling
    P = pde({(2, 1): "1", (2, 4): "x1^2 + 1"})
    with pytest.raises(NoRealFactorization):
        factor_pde_second_order(P)


def test_probably_negative_treats_undefined_points_as_not_negative():
    from opfactor.expr import Div, Sum
    from opfactor.factor import _probably_negative

    assert _probably_negative(E("-1 - x1^2"), 0)
    # negative wherever defined, undefined wherever x1 <= 0
    assert not _probably_negative(E("-1 - log(x1)^2"), 0)
    # sin of an overflowed quotient is a DomainError too
    assert not _probably_negative(
        Sum((Fun("sin", Div(const(10) ** 308, x_(1))), const(-2))), 0)


def test_pde_constant_surd_discriminant():
    P = pde({(2, 1): "1", (2, 4): "-2"})
    res = factor_pde_second_order(P)
    assert isinstance(res.sqrt_delta, Fun)
    assert res.candidates
    for cand in res.candidates:
        assert verified(P, cand)


def test_pde_rejects_ode():
    with pytest.raises(UnsupportedTemplate):
        factor_pde_second_order(ode("1", "0", "-1"))


def test_pde_rejects_nonlinear():
    P = make_operator(2, 1, {(2, 1): E("u1")}, linear=False)
    with pytest.raises(UnsupportedTemplate):
        factor_pde_second_order(P)
