"""The one-pass system cascade against the old two-pass column loop.

`cascade_system_numeric` used to integrate each identity column twice:
u0 alone, then v1 and u1 together, with right-hand sides that evaluated
the coefficients of N2 once per pass.  That loop is kept here, on the
tuple RK4 it ran on, as a reference that the single pass over all
columns must reproduce bit for bit.
"""

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import cascade
from opfactor.cascade import (CascadeOptions, CascadeSolution, _compiled_table,
                              _diag_leads, _entry_table, _expanded_system,
                              _normalize_steps, _system_piece, cascade_system_numeric,
                              uniform_grid)
from opfactor.conditions import FactorizationCandidate
from opfactor.errors import EngineError
from opfactor.expr import simplify
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


def two_pass(cand, interval, opts):
    N1, N2 = cand.factors
    steps = _normalize_steps(opts.steps)
    grid, h = uniform_grid(interval, steps)
    m = N1.m
    a1 = _diag_leads(N1, grid, "N1")
    a2 = _diag_leads(N2, grid, "N2")
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


def test_one_rk4_pass_evaluates_each_coefficient_once_per_call(monkeypatch):
    calls = {}
    compile_float, rk4 = cascade.compile_float, cascade._rk4_vector

    def counted(e, vids):
        f = compile_float(e, vids)
        if vids != cascade._X:
            return f

        def g(x):
            calls[g] += 1
            return f(x)
        calls[g] = 0
        return g

    rhs_calls, passes = [], []

    def one_pass(f, xs, y0):
        def rhs(x, y):
            for key in calls:
                calls[key] = 0
            out = f(x, y)
            rhs_calls.append(sorted(calls.values()))
            return out
        passes.append(len(y0))
        return rk4(rhs, xs, y0)

    monkeypatch.setattr(cascade, "compile_float", counted)
    monkeypatch.setattr(cascade, "_rk4_vector", one_pass)
    problem = parse_problem((PROBLEMS / "system-coupled.ini").read_text(encoding="utf-8"))
    cascade_system_numeric(problem.candidate, (0.0, 1.0), CascadeOptions(steps=16))
    m = 2
    # u0, v1 and u1 of every column in the one state
    assert passes == [3 * m * m]
    # 2m leads and 2m^2 entries, each evaluated once per right-hand side
    assert len(calls) == 2 * m + 2 * m * m
    assert len(rhs_calls) == 4 * 16
    assert all(c == [1] * len(calls) for c in rhs_calls)
