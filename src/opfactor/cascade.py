"""Particular solutions built factor by factor from a factorization.

For P = Q1 Q2 the kernel chain gives two particular solutions of
P u = 0: u0 solving Q2 u0 = 0 and u1 solving Q2 u1 = v1, where v1
solves Q1 v1 = 0.  First order kernels come from an antiderivative
table when the integrand is tabulated and the table's form holds on
the interval, otherwise from a running four-point cubic quadrature;
quasi-linear kernels use a separable closed form when the coefficient
shape permits and its pole lies outside the interval, else a
Runge-Kutta integration.  Whether a closed form holds is decided
exactly, never by sampling it.

Every coefficient evaluated at many points (quadrature samples, RK4
stages, trajectory residuals, `piece_values`) is compiled once per
call with `compile_float`, which reproduces `evaluate` bit for bit.
The loops around those coefficients, the system RK4 pass and the
residual sweep of a table, are generated straight-line code too: made
once per shape (m, and each cell's derivative orders) and cached, each
call binding its compiled coefficients as closure cells.  They
evaluate each coefficient once per abscissa: the RK4 pass once per
grid point and midpoint, a table's sweep once per grid point for all
the trajectories it checks, keeping each one's largest residual.
Closed-form residuals that are not symbolically zero are checked on
`uniform_grid` points, the grid every sampler uses.

Integration constants are canonical: table antiderivatives carry no
constant term, numeric homogeneous solutions are normalized to value
one at the interval midpoint, and the inhomogeneous integral starts
at zero there.  Longer factor chains reduce to this routine by
cascading pairwise from the right.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import (CapacityExceeded, DomainError, QuadratureFailure,
                     ShapeMismatch, SingularLeadingCoefficient, StepCountTooSmall,
                     UnsupportedTemplate, ValidationError)
from .expr import (Const, DepVar, Expr, Fun, IndepVar, Var, ZERO,
                   compile_float, evaluate, expr_to_poly, ratio, simplify)
from .operator import (DiffOperator, MatrixOperator, apply_to_expr, as_matrix,
                       expand_product, matrix_expand_product, operator_from_jet)
from .conditions import FactorizationCandidate
from .records import record

MIN_STEPS = 16
# largest step count (CapacityExceeded above); a 2x2 system costs about
# 0.02 ms a step at 4096 steps and 0.03 ms at this cap (2 s in all)
MAX_STEPS = 1 << 16
# points at which a residual is checked: a grid over the interval for a
# closed form, grid samples for a trajectory
RESIDUAL_POINTS = 32
_TINY = 1e-12


@record
class CascadeOptions:
    interval: tuple = (-1.0, 1.0)
    steps: int = 1024
    constant: Fraction = Fraction(1)

    def __post_init__(self):
        if self.steps <= 0:
            raise ValidationError(f"step count {self.steps} is not positive")


@record
class Trajectory:
    """Sampled solution: values[i] is a float, or a tuple per component."""

    grid: tuple
    values: tuple


@record
class SolutionPiece:
    label: str
    form: "Expr | None"
    trajectory: "Trajectory | None"
    provenance: str  # closed-form | quadrature | rk4
    residual: float


@record
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


@record
class ResidualReport:
    max_relative: float
    symbolic_zero: bool
    per_point: tuple  # ((point, residual), ...) of a closed form; () otherwise


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
    num, den = ratio(simplify(e))
    x = Var(IndepVar(1))
    if len(den) != 1 or next(iter(den)) not in ((), ((x, 1),)):
        return None
    (over, dc), = den.items()
    out = ZERO
    for mono, c in num.items():
        c = c / dc
        if not mono or (len(mono) == 1 and mono[0][0] == x):
            # x1^k, with k = -1 over the denominator x1 integrating to log
            k = (mono[0][1] if mono else 0) - len(over)
            out = out + (Const(c) * Fun("log", x) if k == -1 else
                         Const(c / (k + 1)) * x ** (k + 1))
            continue
        if over or len(mono) != 1:
            return None
        atom, exp = mono[0]
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
    # even, so that the grid has a point at the interval's midpoint
    return steps + steps % 2


def _integral_from_midpoint(f, h) -> list:
    """The integral of samples f on a uniform grid from its midpoint to
    each grid point: one running sum from the left end, each step by the
    cubic through its four nearest samples, less its midpoint value."""
    c = h / 24
    steps = [c * (9 * f[0] + 19 * f[1] - 5 * f[2] + f[3]),
             *[c * (13 * (a + b) - p - q) for p, a, b, q in zip(f, f[1:], f[2:], f[3:])],
             c * (f[-4] - 5 * f[-3] + 19 * f[-2] + 9 * f[-1])]
    acc = list(accumulate(steps, initial=0.0))
    mid = acc[len(acc) // 2]
    return [a - mid for a in acc]


# argument orders of the compiled coefficients: f(x1) and f(x1, u1)
_X = (IndepVar(1),)
_XU = (IndepVar(1), DepVar(1))


def _sample(e: Expr, grid, what: str) -> list:
    f = compile_float(e, _X)
    try:
        return [f(x) for x in grid]
    except DomainError as err:
        raise QuadratureFailure(f"{what} not evaluable: {err}") from err


# ---------------------------------------------------------------------------
# scalar cascade

def _kernel_piece(Q: DiffOperator, grid, h, label: str) -> SolutionPiece:
    """Solution of Q y = 0 for a linear first order factor."""
    rate = simplify(Q.coeff(0, 1) / Q.coeff(1, 1))
    prim = _table_antiderivative(rate, grid)
    if prim is not None:
        return SolutionPiece(label, _kernel_form(prim), None, "closed-form", 0.0)
    acc = _integral_from_midpoint(_sample(rate, grid, "integrand"), h)
    try:
        ys = tuple(math.exp(-a) for a in acc)
    except OverflowError as err:
        raise QuadratureFailure(f"kernel {label} overflows a float on the grid") from err
    return SolutionPiece(label, None, Trajectory(grid, ys), "quadrature", 0.0)


def _table_antiderivative(e: Expr, grid):
    """The table's antiderivative of e where it holds on the grid: over
    a denominator, its log(x1) and its poles need the grid in x1 > 0."""
    if grid[0] <= 0 and expr_to_poly(e) is None:
        return None
    return antiderivative(e)


def _kernel_form(prim: Expr) -> Expr:
    """exp(-prim), with prim's multiple k log(x1), k an integer, read
    back as x1^-k: the table writes log(x1) only for grids in x1 > 0,
    where exp(-k log(x1)) = x1^-k.  prim's denominator is a power of x1,
    so k is the coefficient of the one numerator term with log(x1)."""
    x = Var(IndepVar(1))
    log = simplify(Fun("log", x))
    k = sum(c for mono, c in ratio(prim)[0].items() if (log, 1) in mono)
    k = int(k) if k.denominator == 1 else 0
    return simplify(x ** -k * Fun("exp", simplify(Const(Fraction(k)) * log - prim)))


def piece_values(piece: SolutionPiece, grid) -> list:
    """A trajectory's samples, or the closed form evaluated on the grid."""
    if piece.trajectory is not None:
        return list(piece.trajectory.values)
    return _sample(piece.form, grid, f"closed form {piece.label}")


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
        integrand = simplify(v1.form / (b211 * u0.form))
        prim = _table_antiderivative(integrand, grid)
        if prim is not None:
            return SolutionPiece("u1", simplify(u0.form * prim),
                                 None, "closed-form", 0.0)
    u0v = piece_values(u0, grid)
    v1v = piece_values(v1, grid)
    b2v = _sample(b211, grid, "integrand")
    try:
        vals = [v / (b * u) for v, b, u in zip(v1v, b2v, u0v)]
    except ZeroDivisionError as err:
        raise QuadratureFailure("u1 integrand v1/(b211 u0) divides by zero: "
                                "b211 u0 underflows to 0 on the grid") from err
    ys = tuple(u * a for u, a in zip(u0v, _integral_from_midpoint(vals, h)))
    return SolutionPiece("u1", None, Trajectory(grid, ys), "quadrature", 0.0)


def _quasilinear_u0(Q2, grid, h, opts) -> SolutionPiece:
    """Kernel of a quasi-linear first order factor.

    Shape b201 = c u, b211 constant gives the separable closed form
    (b211/c) / (x1 + C), refused when its pole x1 = -C lies in the
    interval; anything else integrates numerically.
    """
    b0, b1 = Q2.coeff(0, 1), Q2.coeff(1, 1)
    shape = _separable_shape(b0, b1)
    if shape is not None:
        c, alpha = shape
        pole = -opts.constant
        a, b = opts.interval
        if a <= pole <= b:
            raise QuadratureFailure(f"closed form u0 has a pole at x1 = {pole} "
                                    f"in [{float(a):g}, {float(b):g}]")
        form = simplify(Const(alpha / c) / (Var(IndepVar(1)) + Const(opts.constant)))
        return SolutionPiece("u0", form, None, "closed-form", 0.0)
    mid = len(grid) // 2
    b0f, b1f = compile_float(b0, _XU), compile_float(b1, _XU)
    floor = _lead_floor(b1)

    def f(x, u):
        lead = b1f(x, u)
        if abs(lead) <= floor:
            raise SingularLeadingCoefficient(
                f"leading coefficient vanishes at x1 = {x:.6g}")
        return -b0f(x, u) * u / lead

    fwd = _rk4(f, grid[mid:], 1.0)
    ys = tuple(_rk4(f, grid[mid::-1], 1.0)[:0:-1] + fwd)
    return SolutionPiece("u0", None, Trajectory(grid, ys), "rk4", 0.0)


def _rk4(f, xs, y) -> list:
    """Classical RK4 for a scalar y' = f(x, y) from xs[0] through xs."""
    ys = [y]
    for i in range(len(xs) - 1):
        x = xs[i]
        h = xs[i + 1] - x
        half = h / 2
        p = f(x, y)
        q = f(x + half, y + half * p)
        r = f(x + half, y + half * q)
        s = f(x + h, y + h * r)
        y = y + h * (p + 2 * q + 2 * r + s) / 6
        ys.append(y)
    return ys


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

def _with_residual(P: DiffOperator, piece: SolutionPiece,
                   opts: CascadeOptions) -> SolutionPiece:
    if piece.form is not None:
        rep = verify_solution(P, piece.form,
                              uniform_grid(opts.interval, RESIDUAL_POINTS - 1)[0])
    else:
        rep = verify_solution(P, piece.trajectory)
    return SolutionPiece(piece.label, piece.form, piece.trajectory,
                         piece.provenance, rep.max_relative)


def verify_solution(P: DiffOperator, u, points=None) -> ResidualReport:
    """Residual report of P u against zero.

    Closed forms are differentiated symbolically; an identically zero
    residual is reported exactly.  Trajectories, one float per grid
    point, are differenced on their own grid and report no per-point
    rows.  `points` (tuples for n > 1) defaults to RESIDUAL_POINTS
    values spanning [-1, 1] for closed forms.
    """
    if isinstance(u, Trajectory):
        return _verify_trajectory(P, u)
    resid = apply_to_expr(P, u, {1: u})
    if resid == ZERO:
        return ResidualReport(0.0, True, ())
    if points is None:
        points = uniform_grid((-1.0, 1.0), RESIDUAL_POINTS - 1)[0]
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
    if any(isinstance(v, tuple) for v in vals):
        raise UnsupportedTemplate("trajectory residuals need one float per grid point")
    if len(grid) < 3:
        raise StepCountTooSmall("need at least three samples to difference")
    inner = range(1, len(grid) - 1)
    idxs = sorted({inner[int(t * (len(inner) - 1) / (RESIDUAL_POINTS - 1))]
                   for t in range(RESIDUAL_POINTS)})
    vals = [(v,) for v in vals]
    sup = _sup(vals)
    worst, = _residuals(as_matrix(P).entries, grid, [vals], idxs)
    # max(r) / sup is max(r / sup), as division by sup >= 1 is monotone
    return ResidualReport(worst / sup, False, ())


def _sup(vals) -> float:
    """max(1, |c|) over a trajectory's floats c, which must be finite."""
    mags = [abs(c) for row in vals for c in row]
    if not all(map(math.isfinite, mags)):
        raise QuadratureFailure("trajectory leaves the float range (inf or nan)")
    return max(1.0, max(mags))


def _residuals(table, grid, trajs, idxs) -> list:
    """Each trajectory's largest central-difference residual under an
    m x m operator table (its vals[i] holds one float per component):
    the max of 0.0 and |row p applied to it| over the grid indices idxs
    and rows p, by the sweep generated for the table's shape, each
    coefficient compiled over (x1, u1, ..., um).  A step whose square
    underflows to 0 is a QuadratureFailure."""
    h = grid[1] - grid[0]
    if h * h == 0.0:
        raise QuadratureFailure(f"grid step {h:.3g} is too short to difference: "
                                "its square underflows to 0")
    vids = _X + tuple(DepVar(j) for j in range(1, len(table) + 1))
    shape = tuple(tuple(tuple(dv.k for dv, _ in cell.coeffs) for cell in row)
                  for row in table)
    sweep = _residual_sweep(shape, len(trajs))([compile_float(coeff, vids) for row in table
                                                for cell in row for _, coeff in cell.coeffs])
    return sweep(grid, trajs, idxs, 2 * h, h * h)


# ---------------------------------------------------------------------------
# linear systems

def cascade_system_numeric(cand: FactorizationCandidate, interval,
                           opts: CascadeOptions = CascadeOptions()) -> CascadeSolution:
    """Columnwise particular solutions for a linear system split on `interval`.

    u0, v1 and u1 of every identity column integrate together, in one
    fixed-step fourth order Runge-Kutta pass from the left end, so u1
    rides along with its own v1 and no interpolation is needed.  A
    diagonal lead that vanishes on the grid or at a stage is refused.
    Residuals difference the expanded product on the grid, O(h^2).

    The pass is `_system_rk4(m)`, which evaluates each coefficient once
    per abscissa: the leads A1 of N1, then the leads A2 of N2; then,
    only when a lead is at or below its floor (_lead_floor), the grid
    scan's rule at x; then the entries B1 of N1 and B2 of N2, row by
    row.  Per column, row p of u0' is
    -(0 + B2[p][0] u0[0] + ... + B2[p][m-1] u0[m-1]) / A2[p], of v1'
    the same with B1, v1 and A1, and of u1' it is
    (v1[p] - (0 + B2[p][0] u1[0] + ...)) / A2[p], summed left to right.
    One sweep per table calls each coefficient once per grid point for
    all its pieces, the product's for u0 and u1, N1's for v1, and keeps
    each piece's largest residual: both factors are linear, so no
    coefficient reads u.  Errors come as piece by piece: u0[1] must be
    finite before the product's sweep, v1[1] before N1's, and every
    piece after both.
    """
    N1, N2 = cand.factors
    if not isinstance(N1, MatrixOperator):
        raise ShapeMismatch("system cascade needs matrix factors")
    if not (N1.linear and N2.linear):
        raise UnsupportedTemplate("system cascade supports linear factors only")
    if N1.n != 1:
        raise UnsupportedTemplate("system cascade integrates along one variable")
    steps = _normalize_steps(opts.steps)
    grid, h = uniform_grid(interval, steps)
    m = N1.m

    def off_grid(x):
        # a lead vanishes off the grid: the grid scan's rule at x names it
        _diag_leads(N1, (x,), "N1")
        _diag_leads(N2, (x,), "N2")

    a1, z1 = _diag_leads(N1, grid, "N1")
    a2, z2 = _diag_leads(N2, grid, "N2")
    integrate = _system_rk4(m)(a1, a2, _entry_table(N1), _entry_table(N2), z1, z2, off_grid)
    # the product's pieces and N1's, of u0[1], v1[1], u1[1], u0[2], ...
    on_tables = ([k for k in range(3 * m) if k % 3 != 1], range(1, 3 * m, 3))
    tables = (_expanded_system(N1, N2), N1.entries)
    # per column: u0 and v1 from the identity column, u1 from zero
    ys = integrate(grid, [float(p == col and k < 2) for col in range(m)
                          for k in range(3) for p in range(m)])
    vals = [tuple(y[c:c + m] for y in ys) for c in range(0, 3 * m * m, m)]
    del ys  # vals shares its floats; the stacked states would only add to the peak
    worst = {}
    for on, table in zip(on_tables, tables):
        _sup(vals[on[0]])  # finite first: the coefficients are called with it
        worst.update(zip(on, _residuals(table, grid, [vals[k] for k in on], range(1, steps))))
    # max(r) / sup is max(r / sup), as division by sup >= 1 is monotone
    pieces = [SolutionPiece(f"{('u0', 'v1', 'u1')[k % 3]}[{k // 3 + 1}]", None,
                            Trajectory(grid, v), "rk4", worst[k] / _sup(v))
              for k, v in enumerate(vals)]
    return CascadeSolution(*(tuple(pieces[k::3]) for k in range(3)),
                           (float(interval[0]), float(interval[1])), steps)


def _diag_leads(N: MatrixOperator, points, who: str) -> tuple:
    """Compiled diagonal leading coefficients of a first order factor,
    checked nonzero at the points, and their floors (_lead_floor); a
    scalar factor is its 1x1 system.  A nonzero constant lead is not
    sampled: only its float is checked, once, for an underflow to 0."""
    leads, floors = [], []
    for p in range(1, N.m + 1):
        lead = N.entries[p - 1][p - 1].coeff(1, 1)
        if lead == ZERO:
            raise SingularLeadingCoefficient(
                f"diagonal entry ({p},{p}) of {who} has no derivative slot")
        f = compile_float(lead, _X)
        name = f"{who}[{p},{p}]" if N.m > 1 else who
        floor = _lead_floor(lead)
        for x in points if floor else points[:1]:
            if abs(f(x)) <= floor:
                raise SingularLeadingCoefficient(
                    f"leading coefficient of {name} vanishes near x1 = {x:.6g}")
        leads.append(f)
        floors.append(floor)
    return leads, floors


def _lead_floor(lead: Expr) -> float:
    """The |value| at or below which a lead counts as vanishing: _TINY,
    or 0.0 for a constant, which is decided exactly."""
    return 0.0 if isinstance(lead, Const) else _TINY


def _entry_table(N: MatrixOperator) -> list:
    return [[compile_float(e.coeff(0, 1), _X) for e in row] for row in N.entries]


def _generated(src: list, label: str):
    """The function `make` defined by the lines src, compiled as file
    <label> so that profiles tell the shapes apart.  Like
    `compile_float`'s, the source holds names made from indices and
    never an operator's constants or coefficient text."""
    ns = {}
    exec(compile("\n".join(src), f"<{label}>", "exec"), ns)
    return ns["make"]


def _unpack(names) -> str:
    """'n0, n1, ': the targets of an unpacking, also of a 1-tuple."""
    return "".join(f"{n}, " for n in names)


@lru_cache(maxsize=None)
def _system_rk4(m: int):
    """make(a1, a2, b1, b2, z1, z2, off_grid): integrate(xs, y0), the RK4
    pass of `cascade_system_numeric` for m x m factors, with the compiled
    leads a, entry tables b and lead floors z of N1 and N2 bound as
    closure cells; it returns the state tuple at each point of xs.
    Straight-line: each stage is a set of named locals, and coeffs(x)
    evaluates the leads, their floor check and the entries, once at
    x + h/2 and once at x + h, which the next step reuses when that float
    is its x.  Generated once per m."""
    r = range(m)
    n = 3 * m * m
    src = ["def make(a1, a2, b1, b2, z1, z2, off_grid):"]
    for k in (1, 2):
        src.append(f"    {_unpack(f'a{k}_{p}' for p in r)}= a{k}")
        src.append(f"    {_unpack(f'z{k}_{p}' for p in r)}= z{k}")
        table = (f"({_unpack(f'b{k}_{p}_{q}' for q in r)})" for p in r)
        src.append(f"    {_unpack(table)}= b{k}")
    values = _unpack([f"A{k}_{p}" for k in (1, 2) for p in r] +
                     [f"B{k}_{p}_{q}" for k in (1, 2) for p in r for q in r])
    src.append("    def coeffs(x):")
    src += [f"        A{k}_{p} = a{k}_{p}(x)" for k in (1, 2) for p in r]
    src.append("        if " + " or ".join(f"abs(A{k}_{p}) <= z{k}_{p}"
                                           for k in (1, 2) for p in r) + ":")
    src.append("            off_grid(x)")
    src += [f"        B{k}_{p}_{q} = b{k}_{p}_{q}(x)" for k in (1, 2) for p in r for q in r]
    src.append(f"        return {values}")

    def stage(j, step):
        # k{j} at the state s, or at t = s + step * k{j - 1}
        y = "t" if step else "s"

        def row(k, p, start):
            return "(0" + "".join(f" + B{k}_{p}_{q} * {y}{start + q}" for q in r) + ")"
        out = []
        for c in range(0, n, 3 * m):
            out += [f"-{row(2, p, c)} / A2_{p}" for p in r]
            out += [f"-{row(1, p, c + m)} / A1_{p}" for p in r]
            out += [f"({y}{c + m + p} - {row(2, p, c + 2 * m)}) / A2_{p}" for p in r]
        return ([f"            t{i} = s{i} + {step} * k{j - 1}_{i}" for i in range(n) if step] +
                [f"            k{j}_{i} = {e}" for i, e in enumerate(out)])
    state = _unpack(f"s{i}" for i in range(n))
    src += ["    def integrate(xs, y0):",
            f"        {state}= y0",
            f"        out = [({state})]",
            "        xe = None",
            "        for i in range(len(xs) - 1):",
            "            x = xs[i]",
            "            h = xs[i + 1] - x",
            "            half = h / 2",
            # the last step's values at x + h where that float is x, bit
            # for bit: equal, and of the same sign when zero
            "            if not (x == xe and (x or x.hex() == xe.hex())):",
            "                E = coeffs(x)",
            f"            {values}= E",
            *stage(1, None),
            f"            {values}= coeffs(x + half)",
            *stage(2, "half"), *stage(3, "half"),
            "            xe = x + h",
            "            E = coeffs(xe)",
            f"            {values}= E",
            *stage(4, "h")]
    src += [f"            s{i} = s{i} + h * (k1_{i} + 2 * k2_{i} + 2 * k3_{i} + k4_{i}) / 6"
            for i in range(n)]
    src += [f"            out.append(({state}))",
            "        return out",
            "    return integrate"]
    return _generated(src, f"system_rk4 {m}")


def _expanded_system(N1: MatrixOperator, N2: MatrixOperator) -> list:
    """Cellwise coefficient operators of the product, for residuals."""
    cells = matrix_expand_product([N1, N2])
    return [[operator_from_jet(cells[p][q], component=q + 1)
             for q in range(N1.m)] for p in range(N1.m)]


# bounded: the shapes are few in practice (24 in 100 rounds of
# cascade-solve's draws), but m does not bound them
@lru_cache(maxsize=256)
def _residual_sweep(shape: tuple, n: int):
    """make(coeffs): sweep(grid, trajs, idxs, h2, hh), the largest
    residual of each of the n trajectories trajs over the grid indices
    idxs, rows and cells unrolled.  shape[p][q] lists the derivative
    orders of cell (p, q), and coeffs its compiled coefficients in that
    order, row by row; each is called once per point, with trajs[0]'s
    values, which for n > 1 it must not read.  A residual sums
    0.0 + coeff * d in cell order, d being u_q, (hi - lo) / h2 or
    (hi - 2 u_q + lo) / hh, and takes its abs; a running maximum from
    0.0 takes each residual that exceeds it, points then rows in order:
    max([0.0, *residuals]), NaN included.  Generated once per shape and n."""
    r, ts = range(len(shape)), range(n)
    cells = [(p, q, k) for p in r for q in r for k in shape[p][q]]
    used = {(q, k) for _, q, k in cells}
    src = ["def make(coeffs):",
           f"    {_unpack(f'c{j}' for j in range(len(cells)))}= coeffs",
           "    def sweep(grid, trajs, idxs, h2, hh):",
           f"        {_unpack(f'v{t}' for t in ts)}= trajs"]
    src += [f"        w{t} = 0.0" for t in ts]
    src += ["        for i in idxs:",
            "            x = grid[i]"]
    for t in ts:
        src += [f"            {_unpack(f'y{t}_{q}' for q in r)}= v{t}[i]",
                f"            {_unpack(f'lo{t}_{q}' for q in r)}= v{t}[i - 1]",
                f"            {_unpack(f'hi{t}_{q}' for q in r)}= v{t}[i + 1]"]
        src += [f"            d1_{t}_{q} = (hi{t}_{q} - lo{t}_{q}) / h2"
                for q in r if (q, 1) in used]
        src += [f"            d2_{t}_{q} = (hi{t}_{q} - 2 * y{t}_{q} + lo{t}_{q}) / hh"
                for q in r if (q, 2) in used]
    args = ", ".join(["x", *(f"y0_{q}" for q in r)])
    src += [f"            C{j} = c{j}({args})" for j in range(len(cells))]
    for t in ts:
        rows = [["abs(0.0"] for p in r]
        for j, (p, q, k) in enumerate(cells):
            rows[p].append(f" + C{j} * {('y', 'd1_', 'd2_')[k]}{t}_{q}")
        for row in rows:
            src += [f"            a = {''.join(row)})", f"            if a > w{t}: w{t} = a"]
    src += [f"        return [{', '.join(f'w{t}' for t in ts)}]",
            "    return sweep"]
    return _generated(src, f"residual_sweep {shape} {n}")
