"""The one-pass system cascade against the old two-pass column loop.

`cascade_system_numeric` used to integrate each identity column twice:
u0 alone, then v1 and u1 together, with right-hand sides that evaluated
the coefficients of N2 once per pass.  That loop is kept here, on the
tuple RK4 it ran on, as a reference that the single pass over all
columns must reproduce bit for bit.  Its residuals keep the old route
too: each piece swept on its own, by test-local copies of the
per-piece helpers the cascade used to have.
"""

import math
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import cascade
from opfactor.cascade import (CascadeOptions, CascadeSolution, SolutionPiece, Trajectory,
                              _X, _diag_leads, _entry_table, _expanded_system,
                              _normalize_steps, cascade_system_numeric, uniform_grid)
from opfactor.conditions import FactorizationCandidate
from opfactor.errors import EngineError, QuadratureFailure
from opfactor.expr import DepVar, compile_float, expr_variables, simplify
from opfactor.operator import MatrixOperator, make_operator
from opfactor.parse import parse_expr
from opfactor.problemfile import parse_problem

PROBLEMS = pathlib.Path(__file__).parent / "problems"


def E(text):
    return simplify(parse_expr(text))


# ---------------------------------------------------------------------------
# the old route: two RK4 passes per identity column


def _rk4_tuples(f, xs, y0):
    ys = [tuple(y0)]
    for i in range(len(xs) - 1):
        x, y = xs[i], ys[-1]
        h = xs[i + 1] - x
        half = h / 2
        k1 = f(x, y)
        k2 = f(x + half, tuple([a + half * b for a, b in zip(y, k1)]))
        k3 = f(x + half, tuple([a + half * b for a, b in zip(y, k2)]))
        k4 = f(x + h, tuple([a + h * b for a, b in zip(y, k3)]))
        ys.append(tuple([a + h * (p + 2 * q + 2 * r + s) / 6
                         for a, p, q, r, s in zip(y, k1, k2, k3, k4)]))
    return ys


def _compiled_table(table):
    """The residual sweep of one trajectory under an operator table."""
    vids = _X + tuple(DepVar(j) for j in range(1, len(table) + 1))
    shape = tuple(tuple(tuple(dv.k for dv, _ in cell.coeffs) for cell in row)
                  for row in table)
    return cascade._residual_sweep(shape, 1)([compile_float(coeff, vids) for row in table
                                              for cell in row for _, coeff in cell.coeffs])


def _system_piece(label, grid, vals, sweep):
    """A trajectory piece, its residual swept on its own."""
    h = grid[1] - grid[0]
    mags = [abs(c) for row in vals for c in row]
    if not all(map(math.isfinite, mags)):
        raise QuadratureFailure("trajectory leaves the float range (inf or nan)")
    sup = max(1.0, max(mags))
    worst, = sweep(grid, [vals], range(1, len(grid) - 1), 2 * h, h * h)
    traj = Trajectory(tuple(grid), tuple(tuple(v) for v in vals))
    return SolutionPiece(label, None, traj, "rk4", worst / sup)


def two_pass(cand, interval, opts):
    N1, N2 = cand.factors
    steps = _normalize_steps(opts.steps)
    grid, h = uniform_grid(interval, steps)
    m = N1.m
    a1, _ = _diag_leads(N1, grid, "N1")
    a2, _ = _diag_leads(N2, grid, "N2")
    b1 = _entry_table(N1)
    b2 = _entry_table(N2)

    def rhs_kernel(leads, b):
        def f(x, y):
            return tuple(
                -sum(b[p][q](x) * y[q] for q in range(m)) / leads[p](x)
                for p in range(m))
        return f

    f1 = rhs_kernel(a1, b1)
    f2 = rhs_kernel(a2, b2)

    def f_pair(x, y):
        v, w = y[:m], y[m:]
        dv = f1(x, v)
        dw = tuple(
            (v[p] - sum(b2[p][q](x) * w[q] for q in range(m))) / a2[p](x)
            for p in range(m))
        return dv + dw

    M = _compiled_table(_expanded_system(N1, N2))
    T1 = _compiled_table(N1.entries)
    u0c, v1c, u1c = [], [], []
    for col in range(m):
        e = tuple(1.0 if p == col else 0.0 for p in range(m))
        zero = (0.0,) * m
        u0 = _rk4_tuples(f2, grid, e)
        pair = _rk4_tuples(f_pair, grid, e + zero)
        v1 = [y[:m] for y in pair]
        u1 = [y[m:] for y in pair]
        u0c.append(_system_piece(f"u0[{col + 1}]", grid, u0, M))
        v1c.append(_system_piece(f"v1[{col + 1}]", grid, v1, T1))
        u1c.append(_system_piece(f"u1[{col + 1}]", grid, u1, M))
    return CascadeSolution(tuple(u0c), tuple(v1c), tuple(u1c),
                           (float(interval[0]), float(interval[1])), steps)


def assert_matches_the_two_pass_route(cand, interval, opts):
    want = two_pass(cand, interval, opts)
    got = cascade_system_numeric(cand, interval, opts)
    assert (got.interval, got.steps) == (want.interval, want.steps)
    assert len(got.pieces) == len(want.pieces) == 3 * cand.factors[0].m
    for g, w in zip(got.pieces, want.pieces):
        assert (g.label, g.provenance, g.form) == (w.label, w.provenance, w.form)
        # == on floats: every residual and trajectory value bit for bit
        assert g.residual == w.residual, g.label
        assert g.trajectory.grid == w.trajectory.grid
        assert g.trajectory.values == w.trajectory.values, g.label


# ---------------------------------------------------------------------------
# draws: m x m first order factors whose leads do not vanish on the interval

_LEADS = ("1", "-2", "1/2", "x1 + 2", "3/(x1 + 2)", "(x1 + 3)/(x1^2 + 1)")
_ENTRIES = ("0", "1", "-3", "x1", "2*x1 - 1", "x1^2 - 3", "1/(x1 + 2)", "x1/(x1 + 3)",
            "(1 - x1)/(x1^2 + 1)")


@st.composite
def system_factor(draw, m):
    rows = []
    for p in range(m):
        row = []
        for q in range(m):
            coeffs = {(0, 1): E(draw(st.sampled_from(_ENTRIES)))}
            if p == q:
                coeffs[(1, 1)] = E(draw(st.sampled_from(_LEADS)))
            row.append(make_operator(1, m, coeffs))
        rows.append(tuple(row))
    return MatrixOperator(1, m, tuple(rows))


@st.composite
def system_cascades(draw, m):
    N1, N2 = draw(system_factor(m)), draw(system_factor(m))
    interval = draw(st.sampled_from(((0.0, 1.0), (-1.0, 1.0), (-0.5, 0.25))))
    steps = draw(st.sampled_from((16, 17, 24)))
    return FactorizationCandidate((N1, N2)), interval, CascadeOptions(steps=steps)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(system_cascades(2))
def test_one_pass_matches_the_two_pass_route_on_2x2_systems(draw):
    assert_matches_the_two_pass_route(*draw)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(system_cascades(3))
def test_one_pass_matches_the_two_pass_route_on_3x3_systems(draw):
    assert_matches_the_two_pass_route(*draw)


@pytest.mark.parametrize("name", ["system-coupled.ini", "system-diag.ini"])
@pytest.mark.parametrize("steps", [64, None])
def test_one_pass_matches_the_two_pass_route_on_the_fixtures(name, steps):
    problem = parse_problem((PROBLEMS / name).read_text(encoding="utf-8"))
    opts = problem.solve if steps is None else CascadeOptions(problem.solve.interval, steps)
    assert_matches_the_two_pass_route(problem.candidate, opts.interval, opts)


def test_one_pass_keeps_the_singular_lead_verdict_on_the_grid():
    # a lead that vanishes at a grid point fails on both routes alike
    d = make_operator(1, 2, {(1, 1): E("x1 - 1/2")})
    one = make_operator(1, 2, {(1, 1): E("1")})
    zero = make_operator(1, 2, {})
    N1 = MatrixOperator(1, 2, ((d, zero), (zero, one)))
    N2 = MatrixOperator(1, 2, ((one, zero), (zero, one)))
    cand = FactorizationCandidate((N1, N2))
    opts = CascadeOptions(interval=(0.0, 1.0), steps=16)
    with pytest.raises(EngineError) as want:
        two_pass(cand, opts.interval, opts)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        cascade_system_numeric(cand, opts.interval, opts)


def test_one_rk4_pass_evaluates_each_coefficient_once_per_abscissa(monkeypatch):
    calls = {}
    compile_float, rk4 = cascade.compile_float, cascade._system_rk4

    def counted(e, vids):
        f = compile_float(e, vids)
        if vids != cascade._X:
            return f

        def g(x):
            calls[g].append(x)
            return f(x)
        calls[g] = []
        return g

    passes = []

    def one_pass(m):
        make = rk4(m)

        def bind(*cells):
            integrate = make(*cells)

            def run(xs, y0):
                # the grid scan before the pass samples the leads too
                for key in calls:
                    calls[key] = []
                passes.append(len(y0))
                return integrate(xs, y0)
            return run
        return bind

    monkeypatch.setattr(cascade, "compile_float", counted)
    monkeypatch.setattr(cascade, "_system_rk4", one_pass)
    problem = parse_problem((PROBLEMS / "system-coupled.ini").read_text(encoding="utf-8"))
    cascade_system_numeric(problem.candidate, (0.0, 1.0), CascadeOptions(steps=16))
    m = 2
    # u0, v1 and u1 of every column in the one state
    assert passes == [3 * m * m]
    # the 17 grid points and the 16 midpoints, each once, left to right:
    # a step's x + h is the next step's x, bit for bit, on this grid
    grid, h = uniform_grid((0.0, 1.0), 16)
    abscissae = sorted({*grid, *(x + h / 2 for x in grid[:-1])})
    assert len(abscissae) == 33
    # 2m leads and 2m^2 entries
    assert len(calls) == 2 * m + 2 * m * m
    assert all(xs == abscissae for xs in calls.values())


def test_the_quasilinear_rk4_route_matches_the_tuple_rk4():
    # u' = -(u1 + x1) u / (x1 + 2): not the separable shape, so RK4 from
    # u = 1 at the midpoint, forward and then backward
    def op(coeffs):
        return make_operator(1, 1, {k: E(v) for k, v in coeffs.items()}, linear=False)
    Q2 = op({(1, 1): "x1 + 2", (0, 1): "u1 + x1"})
    cand = FactorizationCandidate((op({(1, 1): "1"}), Q2))
    u0 = cascade.cascade_ode(cand, CascadeOptions(interval=(0.0, 1.0), steps=64)).u0
    assert u0.provenance == "rk4"
    b0, b1 = (compile_float(Q2.coeff(k, 1), cascade._XU) for k in (0, 1))

    def f(x, y):
        u, = y
        return (-b0(x, u) * u / b1(x, u),)
    grid = u0.trajectory.grid
    mid = len(grid) // 2
    fwd = [u for u, in _rk4_tuples(f, grid[mid:], (1.0,))]
    bwd = [u for u, in _rk4_tuples(f, grid[mid::-1], (1.0,))]
    assert u0.trajectory.values == tuple(list(reversed(bwd))[:-1] + fwd)


@pytest.mark.parametrize("steps", [16, None])
def test_a_trajectory_leaving_the_float_range_fails_as_on_the_two_pass_route(steps):
    problem = parse_problem((PROBLEMS / "system-coupled.ini").read_text(encoding="utf-8"))
    opts = CascadeOptions((1e308, 1.7e308), steps or problem.solve.steps)
    with pytest.raises(EngineError) as want:
        two_pass(problem.candidate, opts.interval, opts)
    assert isinstance(want.value, QuadratureFailure)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        cascade_system_numeric(problem.candidate, opts.interval, opts)


@pytest.mark.parametrize("name", ["system-coupled.ini", "system-diag.ini"])
def test_the_swept_tables_of_a_system_split_read_no_dependent_variable(name):
    # one sweep per table calls each coefficient with one piece's values
    # for all of them: sound only because no coefficient reads u
    problem = parse_problem((PROBLEMS / name).read_text(encoding="utf-8"))
    N1, N2 = problem.candidate.factors
    for table in (_expanded_system(N1, N2), N1.entries):
        coeffs = [c for row in table for cell in row for _, c in cell.coeffs]
        assert coeffs
        assert not [v for c in coeffs for v in expr_variables(c) if isinstance(v, DepVar)]
