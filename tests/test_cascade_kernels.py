"""The generated kernels of the system cascade: the RK4 pass, made once
per component count m, and the residual sweep, made once per table
shape and trajectory count.  Their source holds only names made from
indices, at the component cap they still reproduce the two-pass
reference route of `test_cascade_system` bit for bit, and a sweep's
running maximum is the maximum of a per-point reference."""

import io
import math
import tokenize
from fractions import Fraction

import pytest
from test_cascade_system import E, assert_matches_the_two_pass_route, two_pass

from opfactor import cascade
from opfactor.cascade import _X, CascadeOptions, cascade_system_numeric, uniform_grid
from opfactor.conditions import FactorizationCandidate
from opfactor.expr import DepVar, compile_float
from opfactor.operator import MatrixOperator, make_operator
def _coupled(c):
    """A 2x2 split whose cells all hold a nonzero coefficient, scaled by c."""
    def factor(lead, a, b):
        return MatrixOperator(1, 2, (
            (make_operator(1, 2, {(1, 1): E(lead), (0, 1): E(f"{c}*x1 + {a}")}),
             make_operator(1, 2, {(0, 1): E(f"{c} + {b}*x1")})),
            (make_operator(1, 2, {(0, 1): E(f"{a}*x1^2 + {c}")}),
             make_operator(1, 2, {(1, 1): E(f"x1 + {c}"), (0, 1): E(f"{b} - x1")}))))
    return FactorizationCandidate((factor("x1 + 3", 2, 5), factor("2", 7, 11)))


def test_two_2x2_splits_of_one_shape_generate_each_kernel_once():
    cascade._system_rk4.cache_clear()
    cascade._residual_sweep.cache_clear()
    opts = CascadeOptions(steps=16)
    cascade_system_numeric(_coupled(3), (0.0, 1.0), opts)
    sweeps = cascade._residual_sweep.cache_info().misses
    assert cascade._system_rk4.cache_info().misses == 1
    # the product's cells and N1's entries: two table shapes
    assert sweeps == 2
    cascade_system_numeric(_coupled(13), (0.0, 1.0), opts)
    assert cascade._system_rk4.cache_info().misses == 1
    assert cascade._residual_sweep.cache_info().misses == sweeps


def test_generated_kernel_source_holds_no_coefficient_text(monkeypatch):
    sources = []
    generated = cascade._generated

    def spy(src, label):
        sources.append("\n".join(src))
        return generated(src, label)

    monkeypatch.setattr(cascade, "_generated", spy)
    cascade._system_rk4.cache_clear()
    cascade._residual_sweep.cache_clear()
    cascade_system_numeric(_coupled(Fraction(17, 3)), (0.0, 1.0), CascadeOptions(steps=16))
    cascade._system_rk4.cache_clear()
    cascade._residual_sweep.cache_clear()
    assert len(sources) == 3
    for src in sources:
        tokens = list(tokenize.generate_tokens(io.StringIO(src + "\n").readline))
        assert not [t for t in tokens if t.type == tokenize.STRING]
        # only the sums' start values, the stencil's 2, the neighbour
        # offset and the RK4 weights
        assert {t.string for t in tokens if t.type == tokenize.NUMBER} <= {
            "0", "0.0", "1", "2", "6"}
        assert "x1" not in src and "17" not in src and "/ 3" not in src


def test_one_pass_matches_the_two_pass_route_at_the_component_cap():
    # 9 x 9 upper triangular, most entries zero: rows summing only zero
    # products start from 0 as the old sum did; constant and varying leads
    m = 9
    zero = make_operator(1, m, {})

    def factor(shift):
        rows = []
        for p in range(m):
            row = []
            for q in range(m):
                coeffs = {}
                if p == q:
                    coeffs[(1, 1)] = E(f"x1 + {p + shift}" if p % 2 else f"{p + 1}")
                    coeffs[(0, 1)] = E(f"{p - 4}/{shift + 1}")
                elif q == p + 1 + shift or (q > p and (p + q) % 5 == 0):
                    coeffs[(0, 1)] = E(f"{q - p}*x1 - 1")
                row.append(make_operator(1, m, coeffs) if coeffs else zero)
            rows.append(tuple(row))
        return MatrixOperator(1, m, tuple(rows))

    cand = FactorizationCandidate((factor(1), factor(2)))
    opts = CascadeOptions(interval=(-0.5, 0.25), steps=16)
    assert_matches_the_two_pass_route(cand, opts.interval, opts)
    # the signs of zeros too
    assert repr(cascade_system_numeric(cand, opts.interval, opts)) == repr(
        two_pass(cand, opts.interval, opts))


def _per_point_maximum(table, grid, trajs, idxs):
    """The residual maxima by explicit loops: at each index of idxs, each
    row p sums 0.0 + coefficient * derivative over its cells (p, q) and
    their derivative orders, every coefficient called with trajs[0]'s
    values; a trajectory's value is max([0.0, *per_point])."""
    m = len(table)
    vids = _X + tuple(DepVar(j) for j in range(1, m + 1))
    h = grid[1] - grid[0]
    coeffs = [[[(dv.k, compile_float(c, vids)) for dv, c in cell.coeffs] for cell in row]
              for row in table]
    out = []
    for vals in trajs:
        per_point = []
        for i in idxs:
            args = (grid[i], *trajs[0][i])
            for p in range(m):
                acc = 0.0
                for q in range(m):
                    y, lo, hi = vals[i][q], vals[i - 1][q], vals[i + 1][q]
                    d = (y, (hi - lo) / (2 * h), (hi - 2 * y + lo) / (h * h))
                    for k, f in coeffs[p][q]:
                        acc = acc + f(*args) * d[k]
                per_point.append(abs(acc))
        out.append(max([0.0, *per_point]))
    return out


def _table(m, reads_u):
    """An m x m table whose cells hold no, one, two or three derivative
    orders; with reads_u a coefficient reads u1."""
    rows = []
    for p in range(m):
        row = []
        for q in range(m):
            texts = ("x1*u1 + 1" if reads_u and p == q == 0 else f"{p + 1}*x1 - {q}",
                     f"1/(x1 + {p + q + 2})", f"x1^2 - {p}")
            orders = range((p + 2 * q + 3 * (p == q)) % 4)
            row.append(make_operator(1, m, {(k, 1): E(texts[k]) for k in orders},
                                     linear=not reads_u))
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_keeps_the_per_point_maximum_bit_for_bit(m, n):
    grid, _ = uniform_grid((0.0, 1.0), 24)
    table = _table(m, reads_u=n == 1)

    def smooth(t):
        return [tuple(math.cos((q + 1) * x + t) * (t + 2) for q in range(m)) for x in grid]

    def with_nan(vals, i):
        vals[i] = (math.nan,) + vals[i][1:]
        return vals

    idxs = range(1, len(grid) - 1)
    # the last trajectory is special; for n = 1 it feeds the coefficients
    for special in (smooth(n), with_nan(smooth(n), idxs[0]), with_nan(smooth(n), 10),
                    with_nan(smooth(n), idxs[-1]), [(0.0,) * m] * len(grid)):
        trajs = [smooth(t) for t in range(n - 1)] + [special]
        got = cascade._residuals(table, grid, trajs, idxs)
        assert repr(got) == repr(_per_point_maximum(table, grid, trajs, idxs))
