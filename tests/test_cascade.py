"""Cascade construction of particular solutions and residual checks."""

import math
from fractions import Fraction

import pytest

from opfactor.cascade import (
    CascadeOptions,
    MIN_STEPS,
    Trajectory,
    _integral_from_midpoint,
    antiderivative,
    cascade_ode,
    cascade_system_numeric,
    uniform_grid,
    verify_solution,
)
from opfactor.conditions import FactorizationCandidate
from opfactor.errors import (
    ShapeMismatch,
    SingularLeadingCoefficient,
    StepCountTooSmall,
    UnsupportedTemplate,
)
from opfactor.expr import ONE, ZERO, const, evaluate, IndepVar, simplify, u_, x_
from opfactor.operator import (
    MatrixOperator,
    expand_product,
    make_operator,
    operator_from_jet,
)
from opfactor.parse import parse_expr


def E(text):
    return simplify(parse_expr(text))


def op1(coeffs, linear=True, m=1):
    return make_operator(1, m, {k: E(v) for k, v in coeffs.items()},
                         linear=linear)


def cand(*factors):
    return FactorizationCandidate(tuple(factors))


# ---------------------------------------------------------------------------
# antiderivative table


def test_antiderivative_polynomials():
    assert antiderivative(E("3*x1^2")) == E("x1^3")
    assert antiderivative(const(2)) == E("2*x1")
    assert antiderivative(ZERO) == ZERO


def test_antiderivative_log_branch():
    assert antiderivative(E("2/x1")) == E("2*log(x1)")


def test_antiderivative_exponentials_and_trig():
    assert antiderivative(E("exp(2*x1)")) == E("(1/2)*exp(2*x1)")
    assert antiderivative(E("sin(x1)")) == E("-cos(x1)")
    assert antiderivative(E("cos(3*x1)")) == E("(1/3)*sin(3*x1)")


def test_antiderivative_unknown_returns_none():
    assert antiderivative(E("exp(x1^2)")) is None
    assert antiderivative(E("1/(x1^2 + 1)")) is None


# ---------------------------------------------------------------------------
# scalar linear cascade, closed forms


def test_cascade_distinct_constant_roots():
    # (D - 1)(D - 2): u0 = exp(2x), v1 = exp(x), u1 = -exp(x)
    Q1 = op1({(1, 1): "1", (0, 1): "-1"})
    Q2 = op1({(1, 1): "1", (0, 1): "-2"})
    sol = cascade_ode(cand(Q1, Q2))
    assert sol.u0.form == E("exp(2*x1)")
    assert sol.v1.form == E("exp(x1)")
    assert sol.u1.form == E("-exp(x1)")
    for piece in sol.pieces:
        assert piece.residual == 0.0
        assert piece.provenance == "closed-form"


def test_cascade_double_root_gives_polynomial_second_solution():
    # (D)(D): u0 = 1, u1 = x
    D = op1({(1, 1): "1"})
    sol = cascade_ode(cand(D, D))
    assert sol.u0.form == ONE
    assert sol.u1.form == E("x1")
    assert sol.u1.residual == 0.0


def test_cascade_pieces_are_independent():
    # u0 and u1 must be linearly independent: nonzero Wronskian somewhere
    Q1 = op1({(1, 1): "1", (0, 1): "-1"})
    Q2 = op1({(1, 1): "1", (0, 1): "-2"})
    sol = cascade_ode(cand(Q1, Q2))
    x = 0.3
    b = {IndepVar(1): x}
    from opfactor.expr import diff

    w = (evaluate(sol.u0.form, b) * evaluate(diff(sol.u1.form, IndepVar(1)), b)
         - evaluate(diff(sol.u0.form, IndepVar(1)), b) * evaluate(sol.u1.form, b))
    assert abs(w) > 1e-9


def test_cascade_variable_coefficient_closed_form():
    # (x1 + D)(-x1 + D): u0 = exp(x^2/2) stays symbolic through the table?
    # -x1 has antiderivative -x1^2/2, so u0 = exp(x1^2/2) is closed form
    Q1 = op1({(1, 1): "1", (0, 1): "x1"})
    Q2 = op1({(1, 1): "1", (0, 1): "-x1"})
    sol = cascade_ode(cand(Q1, Q2))
    assert sol.u0.form is not None
    rep = verify_solution(operator_from_jet(expand_product([Q1, Q2])), sol.u0.form)
    assert rep.symbolic_zero
    assert rep.max_relative == 0.0


def test_cascade_quadrature_fallback():
    # zero order coefficient exp(x1^2) has no table antiderivative, so the
    # kernel comes back sampled with a small but nonzero residual
    Q1 = op1({(1, 1): "1"})
    Q2 = op1({(1, 1): "1", (0, 1): "exp(x1^2)"})
    sol = cascade_ode(cand(Q1, Q2))
    assert sol.u0.form is None
    assert sol.u0.trajectory is not None
    assert sol.u0.provenance == "quadrature"
    assert 0.0 < sol.u0.residual < 1e-4


def test_cascade_interval_and_steps_respected():
    Q1 = op1({(1, 1): "1", (0, 1): "-1"})
    Q2 = op1({(1, 1): "1", (0, 1): "-2"})
    sol = cascade_ode(cand(Q1, Q2), CascadeOptions(interval=(0.0, 2.0), steps=64))
    assert sol.interval == (0.0, 2.0)
    assert sol.steps == 64


def test_cascade_rejects_too_few_steps():
    Q = op1({(1, 1): "1"})
    with pytest.raises(StepCountTooSmall):
        cascade_ode(cand(Q, Q), CascadeOptions(steps=MIN_STEPS - 2))


def test_cascade_rejects_bad_shapes():
    Q = op1({(1, 1): "1"})
    second = op1({(2, 1): "1"})
    with pytest.raises(ShapeMismatch):
        cascade_ode(cand(Q, second))
    pde_factor = make_operator(2, 1, {(1, 1): ONE})
    with pytest.raises(ShapeMismatch):
        cascade_ode(cand(pde_factor, pde_factor))


@pytest.mark.parametrize("coeffs", [(1.0, -2.0, 0.5, 3.0), (-0.25, 0.0, 1.0, -7.0)])
@pytest.mark.parametrize("interval, steps", [((-1.0, 1.0), 16), ((0.0, 3.0), 18)])
def test_quadrature_is_exact_for_cubics_at_every_grid_index(coeffs, interval, steps):
    # two interleaved Simpson chains started the odd one with a three point
    # step, exact only for quadratics: odd indices carried an O(h^4) error
    a, b, c, d = coeffs
    grid, h = uniform_grid(interval, steps)

    def prim(x):
        return a * x ** 4 / 4 + b * x ** 3 / 3 + c * x ** 2 / 2 + d * x

    got = _integral_from_midpoint([a * x ** 3 + b * x ** 2 + c * x + d for x in grid], h)
    mid = grid[steps // 2]
    for x, y in zip(grid, got):
        assert y == pytest.approx(prim(x) - prim(mid), rel=1e-13, abs=1e-13)


def _fixed_point_residual(P, traj, parts=32):
    """max |P u| / max(1, sup |u|) by central differences at the parts - 1
    interior points a + j (b - a) / parts."""
    grid, vals = traj.grid, traj.values
    n = len(grid) - 1
    h = grid[1] - grid[0]
    sup = max(1.0, max(abs(v) for v in vals))
    worst = 0.0
    for j in range(1, parts):
        i = j * n // parts
        d = (vals[i], (vals[i + 1] - vals[i - 1]) / (2 * h),
             (vals[i + 1] - 2 * vals[i] + vals[i - 1]) / (h * h))
        bind = {IndepVar(1): grid[i]}
        worst = max(worst, abs(sum(evaluate(c, bind) * d[dv.k] for dv, c in P.coeffs)) / sup)
    return worst


def test_quadrature_u1_converges_at_second_order_at_fixed_points():
    # a planted split whose u1 residual fell only 2.35x from 512 to 1024
    # steps: the even/odd sawtooth of two Simpson chains, differenced twice
    Q1 = op1({(1, 1): "1", (0, 1): "2*x1 + 2"})
    Q2 = op1({(1, 1): "1", (0, 1): "x1^2 - 2*x1 - 3"})
    P = operator_from_jet(expand_product([Q1, Q2]))
    res = {}
    for steps in (512, 1024):
        sol = cascade_ode(cand(Q1, Q2), CascadeOptions(interval=(-1.0, 1.0), steps=steps))
        assert sol.u1.provenance == "quadrature"
        res[steps] = _fixed_point_residual(P, sol.u1.trajectory)
    assert res[512] >= 2.5 * res[1024]


def test_cascade_singular_leading_coefficient():
    Q1 = op1({(1, 1): "1"})
    Q2 = op1({(1, 1): "x1", (0, 1): "1"})  # vanishes inside (-1, 1)
    with pytest.raises(SingularLeadingCoefficient):
        cascade_ode(cand(Q1, Q2))


# ---------------------------------------------------------------------------
# quasi-linear cascade


def test_cascade_quasilinear_closed_form():
    # factors of u'' + u u': inner factor D + u/2 gives u0 = 2/(x + 1)
    Q1 = op1({(1, 1): "1"}, linear=False)
    Q2 = op1({(1, 1): "1", (0, 1): "(1/2)*u1"}, linear=False)
    sol = cascade_ode(cand(Q1, Q2), CascadeOptions(interval=(0.0, 1.0)))
    assert sol.v1 is None and sol.u1 is None
    assert sol.u0.form == E("2/(x1 + 1)")
    assert sol.u0.residual == 0.0


def test_cascade_quasilinear_constant_choice():
    Q1 = op1({(1, 1): "1"}, linear=False)
    Q2 = op1({(1, 1): "1", (0, 1): "(1/2)*u1"}, linear=False)
    sol = cascade_ode(cand(Q1, Q2),
                      CascadeOptions(interval=(0.0, 1.0), constant=Fraction(3)))
    assert sol.u0.form == E("2/(x1 + 3)")


def test_cascade_quasilinear_numeric_fallback():
    # u' + u^2 + x1 u = 0 is not in the separable closed form shape
    Q1 = op1({(1, 1): "1"}, linear=False)
    Q2 = op1({(1, 1): "1", (0, 1): "u1 + x1"}, linear=False)
    sol = cascade_ode(cand(Q1, Q2), CascadeOptions(interval=(0.0, 1.0)))
    assert sol.u0.form is None
    assert sol.u0.provenance == "rk4"
    assert sol.u0.residual < 1e-3


# ---------------------------------------------------------------------------
# verify_solution


def test_verify_solution_exact_zero():
    Q1 = op1({(1, 1): "1", (0, 1): "-1"})
    Q2 = op1({(1, 1): "1", (0, 1): "-2"})
    P = operator_from_jet(expand_product([Q1, Q2]))
    rep = verify_solution(P, E("exp(x1)"))
    assert rep.symbolic_zero
    assert rep.max_relative == 0.0
    assert rep.per_point == ()


def test_verify_solution_nonzero():
    P = operator_from_jet(expand_product([
        op1({(1, 1): "1", (0, 1): "-1"}),
        op1({(1, 1): "1", (0, 1): "-2"}),
    ]))
    rep = verify_solution(P, E("exp(3*x1)"))
    assert not rep.symbolic_zero
    assert rep.max_relative > 0.1
    assert rep.per_point


def test_verify_solution_on_trajectory():
    xs = [i / 64 for i in range(129)]
    traj = Trajectory(tuple(xs), tuple(math.exp(2 * x) for x in xs))
    P = operator_from_jet(expand_product([
        op1({(1, 1): "1", (0, 1): "-1"}),
        op1({(1, 1): "1", (0, 1): "-2"}),
    ]))
    rep = verify_solution(P, traj)
    assert not rep.symbolic_zero
    assert rep.max_relative < 1e-3


# ---------------------------------------------------------------------------
# system cascade


def sys_factors():
    d = make_operator(1, 2, {(1, 1): ONE})
    one = make_operator(1, 2, {(0, 1): ONE})
    two = make_operator(1, 2, {(0, 1): const(2)})
    zero = make_operator(1, 2, {})
    N1 = MatrixOperator(1, 2, ((d, one), (zero, d)))
    N2 = MatrixOperator(1, 2, ((d, zero), (two, d)))
    return N1, N2


def test_system_cascade_residuals_small():
    N1, N2 = sys_factors()
    sol = cascade_system_numeric(cand(N1, N2), (0.0, 1.0),
                                 CascadeOptions(steps=1024))
    assert sol.pieces
    for piece in sol.pieces:
        assert piece.provenance == "rk4"
        assert piece.residual <= 1e-5


def test_verify_solution_refuses_a_system_trajectory():
    # a system piece's samples are tuples; a scalar P cannot difference them
    N1, N2 = sys_factors()
    sol = cascade_system_numeric(cand(N1, N2), (0.0, 1.0), CascadeOptions(steps=16))
    P = operator_from_jet(expand_product([
        op1({(1, 1): "1", (0, 1): "-1"}),
        op1({(1, 1): "1", (0, 1): "-2"}),
    ]))
    with pytest.raises(UnsupportedTemplate, match="one float per grid point"):
        verify_solution(P, sol.u0[0].trajectory)


def test_system_cascade_converges_at_second_order():
    N1, N2 = sys_factors()
    worst = {}
    for steps in (256, 512):
        sol = cascade_system_numeric(cand(N1, N2), (0.0, 1.0),
                                     CascadeOptions(steps=steps))
        worst[steps] = max(p.residual for p in sol.pieces)
    assert worst[256] / worst[512] >= 3.5


def test_system_cascade_diagonal_matches_scalar_kernel():
    # diag(D-2, D+1) as inner factor: first u0 column is exp(2x)/exp(2a)
    d2 = make_operator(1, 2, {(1, 1): ONE, (0, 1): const(-2)})
    dp = make_operator(1, 2, {(1, 1): ONE, (0, 1): ONE})
    dd = make_operator(1, 2, {(1, 1): ONE})
    zero = make_operator(1, 2, {})
    N1 = MatrixOperator(1, 2, ((dd, zero), (zero, dd)))
    N2 = MatrixOperator(1, 2, ((d2, zero), (zero, dp)))
    sol = cascade_system_numeric(cand(N1, N2), (0.0, 1.0),
                                 CascadeOptions(steps=512))
    col = next(p for p in sol.pieces if p.label.startswith("u0"))
    xs = col.trajectory.grid
    vals = [v[0] for v in col.trajectory.values]
    for x, v in zip(xs, vals):
        assert v == pytest.approx(math.exp(2 * x), rel=1e-8, abs=1e-8)


def test_system_cascade_rejects_nonlinear():
    d = make_operator(1, 2, {(1, 1): ONE}, linear=False)
    du = make_operator(1, 2, {(0, 1): u_(1)}, linear=False)
    zero = make_operator(1, 2, {})
    N1 = MatrixOperator(1, 2, ((d, zero), (zero, d)))
    N2 = MatrixOperator(1, 2, ((du, zero), (zero, d)))
    with pytest.raises(UnsupportedTemplate):
        cascade_system_numeric(cand(N1, N2), (0.0, 1.0))


def test_system_cascade_singular_lead():
    d = make_operator(1, 2, {(1, 1): ONE})
    ident = make_operator(1, 2, {(0, 1): ONE})
    zero = make_operator(1, 2, {})
    N1 = MatrixOperator(1, 2, ((d, zero), (zero, d)))
    N2 = MatrixOperator(1, 2, ((ident, zero), (zero, ident)))
    with pytest.raises(SingularLeadingCoefficient):
        cascade_system_numeric(cand(N1, N2), (0.0, 1.0))


def test_system_cascade_checks_the_grid_before_the_stages():
    # the grid scan of both factors runs first; RK4's right-hand side checks
    # the leads where it evaluates them, at the stage abscissae in between
    one = make_operator(1, 2, {(1, 1): ONE})
    zero = make_operator(1, 2, {})

    def diag(lead):
        return MatrixOperator(1, 2, ((make_operator(1, 2, {(1, 1): E(lead)}), zero),
                                     (zero, one)))

    opts = CascadeOptions(steps=16)
    for N1, N2, name, x in ((diag("x1 - 1/32"), diag("x1 - 1/2"), "N2[1,1]", "0.5"),
                            (diag("x1 - 1/32"), diag("1"), "N1[1,1]", "0.03125"),
                            (diag("1"), diag("x1 - 3/32"), "N2[1,1]", "0.09375")):
        with pytest.raises(SingularLeadingCoefficient) as info:
            cascade_system_numeric(cand(N1, N2), (0.0, 1.0), opts)
        assert str(info.value) == f"leading coefficient of {name} vanishes near x1 = {x}"


def test_system_cascade_step_floor():
    N1, N2 = sys_factors()
    with pytest.raises(StepCountTooSmall):
        cascade_system_numeric(cand(N1, N2), (0.0, 1.0), CascadeOptions(steps=8))


# ---------------------------------------------------------------------------
# constant leads are decided exactly


def test_a_tiny_constant_lead_is_not_a_vanishing_one():
    # Q2 = 10^-13 (D + 1): its kernel is exp(-x1), whatever the scale
    Q1 = op1({(1, 1): "1", (0, 1): "1"})
    Q2 = op1({(1, 1): "1/10^13", (0, 1): "1/10^13"})
    sol = cascade_ode(cand(Q1, Q2), CascadeOptions(steps=64))
    assert sol.u0.form == E("exp(-x1)")
    assert [p.residual for p in sol.pieces] == [0.0, 0.0, 0.0]
    # the quasi-linear RK4 route: u' = -x1 u^2, u = 1 at the midpoint 0
    Q2 = op1({(1, 1): "1/10^13", (0, 1): "x1*u1/10^13"}, linear=False)
    u0 = cascade_ode(cand(op1({(1, 1): "1"}, linear=False), Q2), CascadeOptions(steps=64)).u0
    grid, values = u0.trajectory.grid, u0.trajectory.values
    assert u0.provenance == "rk4"
    assert all(abs(v - 1 / (1 + x * x / 2)) < 1e-8 for x, v in zip(grid, values))
    # and a system lead, on the grid and at every stage
    d = make_operator(1, 2, {(1, 1): E("1/10^13"), (0, 1): E("1/10^13")})
    one = make_operator(1, 2, {(1, 1): ONE})
    zero = make_operator(1, 2, {})
    N = MatrixOperator(1, 2, ((d, zero), (zero, one)))
    sol = cascade_system_numeric(cand(N, N), (0.0, 1.0), CascadeOptions(steps=16))
    assert all(math.isfinite(p.residual) for p in sol.pieces)


def test_a_constant_lead_whose_float_underflows_is_refused():
    one = make_operator(1, 2, {(1, 1): ONE})
    zero = make_operator(1, 2, {})
    d = make_operator(1, 2, {(1, 1): E("1/10^400")})
    N = MatrixOperator(1, 2, ((one, zero), (zero, d)))
    with pytest.raises(SingularLeadingCoefficient,
                       match=r"^leading coefficient of N2\[2,2\] vanishes near x1 = 0$"):
        cascade_system_numeric(cand(MatrixOperator(1, 2, ((one, zero), (zero, one))), N),
                               (0.0, 1.0), CascadeOptions(steps=16))
    Q2 = op1({(1, 1): "1/10^400", (0, 1): "u1^2"}, linear=False)
    with pytest.raises(SingularLeadingCoefficient,
                       match=r"^leading coefficient vanishes at x1 = 0\.5$"):
        cascade_ode(cand(op1({(1, 1): "1"}, linear=False), Q2),
                    CascadeOptions(interval=(0.0, 1.0), steps=16))
