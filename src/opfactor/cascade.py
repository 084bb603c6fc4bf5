"""Particular solutions built factor by factor from a factorization.

For P = Q1 Q2 the kernel chain gives two particular solutions of
P u = 0: u0 solving Q2 u0 = 0 and u1 solving Q2 u1 = v1, where v1
solves Q1 v1 = 0.  First order kernels come from an antiderivative
table when the integrand is tabulated, otherwise from a cumulative
Simpson quadrature; quasi-linear kernels use a separable closed form
when the coefficient shape permits, else a Runge-Kutta integration.

Every coefficient evaluated at many points (quadrature samples, RK4
stages, trajectory residuals) is compiled once per call with
`compile_float`, which reproduces `evaluate` bit for bit.

Integration constants are canonical: table antiderivatives carry no
constant term, numeric homogeneous solutions are normalized to value
one at the interval midpoint, and the inhomogeneous integral starts
at zero there.  Longer factor chains reduce to this routine by
cascading pairwise from the right.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (CapacityExceeded, DomainError, QuadratureFailure,
                     ShapeMismatch, SingularLeadingCoefficient, StepCountTooSmall,
                     UnsupportedTemplate)
from .expr import (Const, DepVar, Div, Expr, Fun, IndepVar, Var, ZERO,
                   compile_float, evaluate, expr_to_poly, simplify)
from .operator import (DiffOperator, MatrixOperator, apply_to_expr, as_matrix,
                       expand_product, matrix_expand_product, operator_from_jet)
from .conditions import FactorizationCandidate

MIN_STEPS = 16
# largest step count (CapacityExceeded above); a 2x2 system costs 0.18 ms a step
MAX_STEPS = 1 << 16
# points at which a residual is checked: a grid over the interval for a
# closed form, grid samples for a trajectory
RESIDUAL_POINTS = 32
_TINY = 1e-12


@dataclass(frozen=True)
class CascadeOptions:
    interval: tuple = (-1.0, 1.0)
    steps: int = 1024
    constant: Fraction = Fraction(1)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: values[i] is a float, or a tuple per component."""

    grid: tuple
    values: tuple


@dataclass(frozen=True)
class SolutionPiece:
    label: str
    form: "Expr | None"
    trajectory: "Trajectory | None"
    provenance: str  # closed-form | quadrature | rk4
    residual: float


@dataclass(frozen=True)
class CascadeSolution:
    """u0 and u1 solve P u = 0; v1 is the linking kernel element.

    Scalar cascades hold one piece per slot; system cascades hold a
    tuple of pieces, one per identity-column trajectory.  v1 and u1
    are None when only u0 was attempted (quasi-linear factors).
    """

    u0: object
    v1: object
    u1: object
    interval: tuple
    steps: int

    @property
    def pieces(self) -> tuple:
        slots = [s for s in (self.u0, self.v1, self.u1) if s is not None]
        return tuple(p for s in slots for p in (s if isinstance(s, tuple) else (s,)))


@dataclass(frozen=True)
class ResidualReport:
    max_relative: float
    symbolic_zero: bool
    per_point: tuple  # ((point, residual), ...)


# ---------------------------------------------------------------------------
# antiderivative table

def _slope(e: Expr):
    """a with e = a x1 + b over the rationals, or None."""
    p = expr_to_poly(e)
    x1 = ((Var(IndepVar(1)), 1),)
    if p is None or not p.keys() <= {(), x1}:
        return None
    return p.get(x1, Fraction(0))


def antiderivative(e: Expr):
    """Tabulated antiderivative along x1 with zero constant, or None.

    Table: polynomials, c/x1, exp(a x1 + b), sin and cos of a linear
    argument, and sums of those.
    """
    e = simplify(e)
    if e == ZERO:
        return ZERO
    x = Var(IndepVar(1))
    if isinstance(e, Div):
        den = expr_to_poly(e.den)
        num = expr_to_poly(e.num)
        if den is None or num is None or den.keys() != {((x, 1),)}:
            return None
        c = den[((x, 1),)]
        out = ZERO
        for mono, cn in num.items():
            if mono == ():
                out = out + Const(cn / c) * Fun("log", x)
            elif len(mono) == 1 and mono[0][0] == x:
                d = mono[0][1]
                out = out + Const(cn / (c * d)) * x ** d
            else:
                return None
        return simplify(out)
    p = expr_to_poly(e)
    if p is None:
        return None
    out = ZERO
    for mono, c in p.items():
        if mono == ():
            out = out + Const(c) * x
            continue
        if len(mono) != 1:
            return None
        atom, exp = mono[0]
        if atom == x:
            out = out + Const(c / (exp + 1)) * x ** (exp + 1)
            continue
        if not isinstance(atom, Fun) or exp != 1:
            return None
        slope = _slope(atom.arg)
        if slope is None or slope == 0:
            return None
        a = Const(1 / slope)
        if atom.name == "exp":
            out = out + Const(c) * a * atom
        elif atom.name == "sin":
            out = out - Const(c) * a * Fun("cos", atom.arg)
        elif atom.name == "cos":
            out = out + Const(c) * a * Fun("sin", atom.arg)
        else:
            return None
    return simplify(out)


# ---------------------------------------------------------------------------
# grids and quadrature

def uniform_grid(interval, steps):
    """steps + 1 equally spaced points of the interval, and their spacing."""
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError(f"empty interval ({a}, {b})")
    h = (b - a) / steps
    return tuple(a + i * h for i in range(steps + 1)), h


def _normalize_steps(steps: int) -> int:
    if steps < MIN_STEPS:
        raise StepCountTooSmall(f"{steps} steps; need at least {MIN_STEPS}")
    if steps > MAX_STEPS:
        raise CapacityExceeded(f"{steps} steps exceed {MAX_STEPS}")
    return steps + steps % 2


def _cumulative_simpson(vals, h):
    """Running integral from the left end on a uniform grid."""
    out = [0.0] * len(vals)
    if len(vals) == 2:
        out[1] = h * (vals[0] + vals[1]) / 2
        return out
    out[1] = h * (5 * vals[0] + 8 * vals[1] - vals[2]) / 12
    for i in range(2, len(vals)):
        out[i] = out[i - 2] + h * (vals[i - 2] + 4 * vals[i - 1] + vals[i]) / 3
    return out


# argument orders of the compiled coefficients: f(x1) and f(x1, u1)
_X = (IndepVar(1),)
_XU = (IndepVar(1), DepVar(1))


def _sample(e: Expr, grid) -> list:
    f = compile_float(e, _X)
    try:
        return [f(x) for x in grid]
    except DomainError as err:
        raise QuadratureFailure(f"integrand not evaluable: {err}") from err


# ---------------------------------------------------------------------------
# scalar cascade

def _kernel_piece(Q: DiffOperator, grid, h, label: str) -> SolutionPiece:
    """Solution of Q y = 0 for a linear first order factor."""
    ratio = simplify(Div(Q.coeff(0, 1), Q.coeff(1, 1)))
    prim = antiderivative(ratio)
    if prim is not None:
        form = simplify(Fun("exp", simplify(Const(Fraction(-1)) * prim)))
        return SolutionPiece(label, form, None, "closed-form", 0.0)
    vals = _sample(ratio, grid)
    acc = _cumulative_simpson(vals, h)
    mid = acc[len(acc) // 2]
    try:
        ys = tuple(math.exp(mid - a) for a in acc)
    except OverflowError as err:
        raise QuadratureFailure(f"kernel {label} overflows a float on the grid") from err
    return SolutionPiece(label, None, Trajectory(grid, ys), "quadrature", 0.0)


def _piece_values(piece: SolutionPiece, grid) -> list:
    if piece.trajectory is not None:
        return list(piece.trajectory.values)
    return _sample(piece.form, grid)


def cascade_ode(cand: FactorizationCandidate,
                opts: CascadeOptions = CascadeOptions()) -> CascadeSolution:
    """Particular solutions of P u = 0 for a scalar two-factor split."""
    Q1, Q2 = cand.factors
    if not isinstance(Q1, DiffOperator) or Q1.n != 1:
        raise ShapeMismatch("scalar cascade needs scalar factors over x1")
    if Q1.order != 1 or Q2.order != 1:
        raise ShapeMismatch("cascade factors must be first order")
    steps = _normalize_steps(opts.steps)
    grid, h = uniform_grid(opts.interval, steps)
    P = operator_from_jet(expand_product([Q1, Q2]))
    if not (Q1.linear and Q2.linear):
        u0 = _quasilinear_u0(Q2, grid, h, opts)
        u0 = _with_residual(P, u0, opts)
        return CascadeSolution(u0, None, None, tuple(opts.interval), steps)
    _diag_leads(as_matrix(Q2), grid, "Q2")
    _diag_leads(as_matrix(Q1), grid, "Q1")
    u0 = _kernel_piece(Q2, grid, h, "u0")
    v1 = _kernel_piece(Q1, grid, h, "v1")
    u1 = _second_solution(Q2, u0, v1, grid, h)
    u0 = _with_residual(P, u0, opts)
    v1 = _with_residual(Q1, v1, opts)
    u1 = _with_residual(P, u1, opts)
    return CascadeSolution(u0, v1, u1, tuple(opts.interval), steps)


def _second_solution(Q2, u0, v1, grid, h) -> SolutionPiece:
    """u1 = u0 * W with W' = v1 / (b211 u0), so that Q2 u1 = v1."""
    b211 = Q2.coeff(1, 1)
    if u0.form is not None and v1.form is not None:
        integrand = simplify(Div(v1.form, b211 * u0.form))
        prim = antiderivative(integrand)
        if prim is not None:
            return SolutionPiece("u1", simplify(u0.form * prim),
                                 None, "closed-form", 0.0)
    u0v = _piece_values(u0, grid)
    v1v = _piece_values(v1, grid)
    b2v = _sample(b211, grid)
    try:
        vals = [v / (b * u) for v, b, u in zip(v1v, b2v, u0v)]
    except ZeroDivisionError as err:
        raise QuadratureFailure("u1 integrand v1/(b211 u0) divides by zero: "
                                "b211 u0 underflows to 0 on the grid") from err
    acc = _cumulative_simpson(vals, h)
    mid = acc[len(acc) // 2]
    ys = tuple(u * (a - mid) for u, a in zip(u0v, acc))
    return SolutionPiece("u1", None, Trajectory(grid, ys), "quadrature", 0.0)


def _quasilinear_u0(Q2, grid, h, opts) -> SolutionPiece:
    """Kernel of a quasi-linear first order factor.

    Shape b201 = c u, b211 constant gives the separable closed form
    (b211/c) / (x1 + C); anything else integrates numerically.
    """
    b0, b1 = Q2.coeff(0, 1), Q2.coeff(1, 1)
    shape = _separable_shape(b0, b1)
    if shape is not None:
        c, alpha = shape
        form = simplify(Div(Const(alpha / c),
                            Var(IndepVar(1)) + Const(opts.constant)))
        return SolutionPiece("u0", form, None, "closed-form", 0.0)
    mid = len(grid) // 2
    b0f, b1f = compile_float(b0, _XU), compile_float(b1, _XU)

    def f(x, y):
        u, = y
        lead = b1f(x, u)
        if abs(lead) <= _TINY:
            raise SingularLeadingCoefficient(
                f"leading coefficient vanishes at x1 = {x:.6g}")
        return (-b0f(x, u) * u / lead,)

    fwd = [u for u, in _rk4_vector(f, grid[mid:], (1.0,))]
    bwd = [u for u, in _rk4_vector(f, grid[mid::-1], (1.0,))]
    ys = tuple(list(reversed(bwd))[:-1] + fwd)
    return SolutionPiece("u0", None, Trajectory(grid, ys), "rk4", 0.0)


def _separable_shape(b0: Expr, b1: Expr):
    """(c, alpha) when b0 = c * u1 and b1 = alpha, both rational."""
    if not (isinstance(b1, Const) and b1.value != 0):
        return None
    p = expr_to_poly(b0)
    u = Var(DepVar(1))
    if p is None or set(p.keys()) != {((u, 1),)} or p[((u, 1),)] == 0:
        return None
    return p[((u, 1),)], b1.value


# ---------------------------------------------------------------------------
# residual verification

def _residual_grid(interval, count):
    a, b = float(interval[0]), float(interval[1])
    return [a + (b - a) * i / (count - 1) for i in range(count)]


def _with_residual(P: DiffOperator, piece: SolutionPiece,
                   opts: CascadeOptions) -> SolutionPiece:
    if piece.form is not None:
        rep = verify_solution(P, piece.form,
                              _residual_grid(opts.interval, RESIDUAL_POINTS))
    else:
        rep = verify_solution(P, piece.trajectory)
    return SolutionPiece(piece.label, piece.form, piece.trajectory,
                         piece.provenance, rep.max_relative)


def verify_solution(P: DiffOperator, u, points=None) -> ResidualReport:
    """Residual report of P u against zero.

    Closed forms are differentiated symbolically; an identically zero
    residual is reported exactly.  Trajectories are differenced on
    their own grid.  `points` (tuples for n > 1) defaults to
    RESIDUAL_POINTS values spanning [-1, 1] per axis for closed forms.
    """
    if isinstance(u, Trajectory):
        return _verify_trajectory(P, u)
    resid = apply_to_expr(P, u, {1: u})
    if resid == ZERO:
        return ResidualReport(0.0, True, ())
    if points is None:
        points = _residual_grid((-1.0, 1.0), RESIDUAL_POINTS)
    rows = []
    worst = 0.0
    for pt in points:
        coords = (pt,) if isinstance(pt, (int, float)) else tuple(pt)
        bind = {IndepVar(i + 1): float(c) for i, c in enumerate(coords)}
        scale = max(1.0, abs(evaluate(u, bind)))
        val = abs(evaluate(resid, bind)) / scale
        worst = max(worst, val)
        rows.append((coords, val))
    return ResidualReport(worst, False, tuple(rows))


def _verify_trajectory(P: DiffOperator, traj: Trajectory) -> ResidualReport:
    if P.n != 1:
        raise UnsupportedTemplate("trajectory residuals are one dimensional")
    grid, vals = traj.grid, traj.values
    if len(grid) < 3:
        raise StepCountTooSmall("need at least three samples to difference")
    inner = range(1, len(grid) - 1)
    idxs = sorted({inner[int(t * (len(inner) - 1) / (RESIDUAL_POINTS - 1))]
                   for t in range(RESIDUAL_POINTS)})
    res = _fd_residuals(grid, [(v,) for v in vals],
                        _compiled_table(as_matrix(P).entries), idxs)
    rows = tuple(((grid[i],), r) for i, r in zip(idxs, res))
    return ResidualReport(max([0.0, *res]), False, rows)


def _fd_residuals(grid, vals, table, idxs) -> list:
    """Central-difference residuals of a compiled operator table on a
    trajectory whose vals[i] holds one float per component: |row p of
    the table applied to vals| / sup |vals| at each grid index of idxs,
    in (index, row) order."""
    m = len(table)
    h = grid[1] - grid[0]
    h2, hh = 2 * h, h * h
    sup = max(1.0, max(abs(c) for row in vals for c in row))
    out = []
    for i in idxs:
        y, lo, hi = vals[i], vals[i - 1], vals[i + 1]
        args = (grid[i], *y)
        stencils = [(y[q], (hi[q] - lo[q]) / h2, (hi[q] - 2 * y[q] + lo[q]) / hh)
                    for q in range(m)]
        for p in range(m):
            r = 0.0
            for q in range(m):
                d = stencils[q]
                for k, coeff in table[p][q]:
                    r += coeff(*args) * d[k]
            out.append(abs(r) / sup)
    return out


# ---------------------------------------------------------------------------
# linear systems

def cascade_system_numeric(cand: FactorizationCandidate, interval=None,
                           opts: CascadeOptions = CascadeOptions()) -> CascadeSolution:
    """Columnwise particular solutions for a linear system split.

    u0, v1 and u1 of every identity column integrate together, in one
    fixed-step fourth order Runge-Kutta pass from the left end, so u1
    rides along with its own v1 and no interpolation is needed.
    Residuals difference the expanded product on the grid, O(h^2).
    """
    N1, N2 = cand.factors
    if not isinstance(N1, MatrixOperator):
        raise ShapeMismatch("system cascade needs matrix factors")
    if not (N1.linear and N2.linear):
        raise UnsupportedTemplate("system cascade supports linear factors only")
    if N1.n != 1:
        raise UnsupportedTemplate("system cascade integrates along one variable")
    if interval is None:
        interval = opts.interval
    steps = _normalize_steps(opts.steps)
    grid, h = uniform_grid(interval, steps)
    m = N1.m
    stages = _rk4_abscissae(grid)
    a1, a2 = _diag_leads(N1, stages, "N1"), _diag_leads(N2, stages, "N2")
    b1, b2 = _entry_table(N1), _entry_table(N2)

    def f(x, y):
        # each lead and entry once per call, for every column's u0, v1 and u1
        A1, A2 = [a(x) for a in a1], [a(x) for a in a2]
        B1, B2 = [[b(x) for b in row] for row in b1], [[b(x) for b in row] for row in b2]
        out = []
        for c in range(0, len(y), 3 * m):
            u0, v1, u1 = y[c:c + m], y[c + m:c + 2 * m], y[c + 2 * m:c + 3 * m]
            out += [-sum([b * u for b, u in zip(row, u0)]) / a for row, a in zip(B2, A2)]
            out += [-sum([b * v for b, v in zip(row, v1)]) / a for row, a in zip(B1, A1)]
            out += [(v - sum([b * u for b, u in zip(row, u1)])) / a
                    for v, row, a in zip(v1, B2, A2)]
        return out

    M = _compiled_table(_expanded_system(N1, N2))
    T1 = _compiled_table(N1.entries)
    # per column: u0 and v1 from the identity column, u1 from zero
    ys = _rk4_vector(f, grid, [float(p == col and k < 2) for col in range(m)
                               for k in range(3) for p in range(m)])
    pieces = ([], [], [])
    for col in range(m):
        for k, (name, table) in enumerate((("u0", M), ("v1", T1), ("u1", M))):
            c = (3 * col + k) * m
            pieces[k].append(_system_piece(f"{name}[{col + 1}]", grid,
                                           [y[c:c + m] for y in ys], table))
    return CascadeSolution(*map(tuple, pieces),
                           (float(interval[0]), float(interval[1])), steps)


def _diag_leads(N: MatrixOperator, points, who: str) -> list:
    """Compiled diagonal leading coefficients of a first order factor,
    checked nonzero at the points; a scalar factor is its 1x1 system."""
    leads = []
    for p in range(1, N.m + 1):
        lead = N.entries[p - 1][p - 1].coeff(1, 1)
        if lead == ZERO:
            raise SingularLeadingCoefficient(
                f"diagonal entry ({p},{p}) of {who} has no derivative slot")
        f = compile_float(lead, _X)
        name = f"{who}[{p},{p}]" if N.m > 1 else who
        for x in points:
            if abs(f(x)) <= _TINY:
                raise SingularLeadingCoefficient(
                    f"leading coefficient of {name} vanishes near x1 = {x:.6g}")
        leads.append(f)
    return leads


def _entry_table(N: MatrixOperator) -> list:
    return [[compile_float(e.coeff(0, 1), _X) for e in row] for row in N.entries]


def _rk4_vector(f, xs, y0) -> list:
    ys = [list(y0)]
    for i in range(len(xs) - 1):
        x, y = xs[i], ys[-1]
        h = xs[i + 1] - x
        half = h / 2
        k1 = f(x, y)
        k2 = f(x + half, [a + half * b for a, b in zip(y, k1)])
        k3 = f(x + half, [a + half * b for a, b in zip(y, k2)])
        k4 = f(x + h, [a + h * b for a, b in zip(y, k3)])
        ys.append([a + h * (p + 2 * q + 2 * r + s) / 6
                   for a, p, q, r, s in zip(y, k1, k2, k3, k4)])
    return ys


def _rk4_abscissae(xs) -> list:
    """xs, then the stage abscissae _rk4_vector evaluates between them,
    computed as it computes them."""
    hs = [b - a for a, b in zip(xs, xs[1:])]
    return [*xs, *(x + h / 2 for x, h in zip(xs, hs)), *(x + h for x, h in zip(xs, hs))]


def _expanded_system(N1: MatrixOperator, N2: MatrixOperator) -> list:
    """Cellwise coefficient operators of the product, for residuals."""
    cells = matrix_expand_product([N1, N2])
    return [[operator_from_jet(cells[p][q], component=q + 1)
             for q in range(N1.m)] for p in range(N1.m)]


def _compiled_table(table) -> list:
    """Cellwise (order, coefficient) lists of an m x m operator table,
    each coefficient compiled over (x1, u1, ..., um) for _fd_residuals."""
    vids = _X + tuple(DepVar(j) for j in range(1, len(table) + 1))
    return [[[(dv.k, compile_float(coeff, vids)) for dv, coeff in cell.coeffs]
             for cell in row] for row in table]


def _system_piece(label, grid, vals, table) -> SolutionPiece:
    """Trajectory piece with its residual under a compiled table."""
    res = _fd_residuals(grid, vals, table, range(1, len(grid) - 1))
    traj = Trajectory(tuple(grid), tuple(tuple(v) for v in vals))
    return SolutionPiece(label, None, traj, "rk4", max([0.0, *res]))
