"""Necessary and sufficient factorization condition systems.

For each template ({linear, nonlinear} x {scalar, system} x {one or
two independent variables}) the product of two generic first order
factors is expanded symbolically and identified, cell by cell, against
a generic second order operator.  A scalar template is the 1x1 system:
only its symbol families (g, b instead of f, a) and its lack of block
labels differ.  Identification (`operator.identify`) buckets every
monomial of a cell: a single degree-one jet coordinate of the target
component (times explicit order-0 factors, which fold into the
coefficient function) equates to the matching operator coefficient; a
pure order-0 monomial folds similarly after pulling one factor of the
target component; anything else has no counterpart and its
coefficient must vanish identically, a zero condition.

Zero conditions of nonlinear system templates are normalized: the
diagonal first-axis leading symbols of the left factor are
nonvanishing by standing assumption and are divided out, duplicates
merge, and an equation is dropped when every one of its terms is a
multiple of another zero condition that reduced to a bare symbol.  The
other templates keep their prefactors.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedTemplate
from .expr import (Const, DepVar, Expr, FuncSym, IndepVar, Power, Var, ZERO,
                   _poly_content, diff, evaluate, expr_to_poly,
                   expr_variables, poly_to_expr, render, simplify, sort_key,
                   substitute)
from .jet import DerivIndex, canonical_slot, slot_count
from .operator import (DiffOperator, MatrixOperator, as_matrix, identify,
                       make_operator, matrix_apply, matrix_expand_product,
                       render_mono)

TEMPLATES = (
    "linear-ode", "linear-pde2", "nonlinear-ode", "nonlinear-pde2",
    "linear-ode-system", "linear-pde2-system",
    "nonlinear-ode-system", "nonlinear-pde2-system",
)


def template_traits(template: str) -> tuple:
    """(linear, system, n) for a template id."""
    if template not in TEMPLATES:
        raise UnsupportedTemplate(f"unknown template {template!r}")
    linear = template.startswith("linear")
    system = template.endswith("system")
    n = 2 if "pde2" in template else 1
    return linear, system, n


def _deps(linear: bool, n: int, m: int) -> tuple:
    coords = tuple(("x", i) for i in range(1, n + 1))
    if not linear:
        coords += tuple(("u", j) for j in range(1, m + 1))
    return coords


def coeff_sym(family: str, head: tuple, p: int, q: int, k: int, h: int,
              deps) -> Expr:
    """Coefficient symbol family[head, p, q, k, h]; the scalar families
    g (operator) and b (factors) leave out the cell (p, q)."""
    cell = () if family in ("g", "b") else (p, q)
    return Var(FuncSym(family, head + cell + (k, h), deps=deps))


def _generic(template: str, m: int, factor: int = 0):
    """Generic operator (factor 0) or first order factor 1 or 2 of a
    template, with one symbol per slot: order 2 on the diagonal and 1
    off it for the operator, 1 and 0 for a factor."""
    linear, system, n = template_traits(template)
    _check_m(system, m)
    deps = _deps(linear, n, m)
    family = ("fa" if system else "gb")[factor > 0]
    head = (factor,) if factor else ()
    top = 1 if factor else 2
    rows = tuple(
        tuple(make_operator(n, m, {
            (k, h): coeff_sym(family, head, p, q, k, h, deps)
            for k in range(top + 1 if p == q else top)
            for h in range(1, slot_count(n, k) + 1)}, linear)
            for q in range(1, m + 1))
        for p in range(1, m + 1))
    mop = MatrixOperator(n, m, rows)
    return mop if system else mop.entries[0][0]


def symbolic_operator(template: str, m: int = 1):
    """Generic second order operator of a template, with symbol coefficients."""
    return _generic(template, m)


def symbolic_factors(template: str, m: int = 1):
    """The two generic first order factors of a template."""
    return _generic(template, m, 1), _generic(template, m, 2)


def _check_m(system: bool, m: int):
    if system and m < 2:
        raise UnsupportedTemplate("system templates need m >= 2")
    if not system and m != 1:
        raise UnsupportedTemplate("scalar templates have m = 1")


@dataclass(frozen=True)
class Equation:
    """lhs = rhs; lhs is an operator coefficient symbol (or a sum of the
    two slots merged by symmetry of mixed partials) or zero."""

    lhs: Expr
    rhs: Expr
    block: tuple | None = None  # (p, q) for system templates

    @property
    def is_zero_condition(self) -> bool:
        return self.lhs == ZERO


@dataclass(frozen=True)
class ConditionSystem:
    template: str
    n: int
    m: int
    equations: tuple


@dataclass(frozen=True)
class FactorizationCandidate:
    """An ordered pair of first order factors, scalar or matrix."""

    factors: tuple

    def __post_init__(self):
        if len(self.factors) != 2:
            raise ValueError("a candidate is exactly two factors")

    @property
    def is_matrix(self) -> bool:
        return isinstance(self.factors[0], MatrixOperator)


def _lhs_for(sym, k, h, n):
    """Operator symbol `sym(k, h)` for a bucket; mixed-partial twins
    appear summed."""
    others = [h2 for h2 in range(1, slot_count(n, k) + 1)
              if h2 != h and canonical_slot(DerivIndex(k, h2, n)).h == h]
    lhs = sym(k, h)
    for h2 in others:
        lhs = lhs + sym(k, h2)
    return simplify(lhs)


def _normalize_zeros(zeros, nonvanishing):
    """Strip standing-nonzero symbols, merge, drop implied equations."""
    work = []
    for z in zeros:
        z = _strip(z, nonvanishing, frozenset())
        if z != ZERO and z not in work:
            work.append(z)
    changed = True
    while changed:
        changed = False
        out = []
        for i, z in enumerate(work):
            others = frozenset(e.vid for j, e in enumerate(work)
                               if j != i and isinstance(e, Var))
            r = _strip(z, nonvanishing, others)
            if r == ZERO or r in out:
                changed = True
                continue
            if r != z:
                changed = True
            out.append(r)
        work = out
    return work


def _strip(e: Expr, nonvanishing, singles) -> Expr:
    """Drop monomials containing known-zero symbols, then divide out
    known-nonzero symbol factors and normalize the constant content."""
    p = expr_to_poly(e)
    if p is None:
        return simplify(e)
    p = {mono: c for mono, c in p.items()
         if not any(isinstance(a, Var) and a.vid in singles for a, _ in mono)}
    if not p:
        return ZERO
    common = None
    for mono in p:
        d = {a.vid: x for a, x in mono if isinstance(a, Var) and a.vid in nonvanishing}
        common = d if common is None else {
            v: x if x < d[v] else d[v] for v, x in common.items() if v in d}
        if not common:
            break
    if common:
        def cut(mono):
            out = []
            for a, x in mono:
                if isinstance(a, Var) and a.vid in common:
                    x -= common[a.vid]
                if x > 0:
                    out.append((a, x))
            return tuple(out)
        p = {cut(mono): c for mono, c in p.items()}
    scale = 1 / _poly_content(p)
    return poly_to_expr({mono: c * scale for mono, c in p.items()})


def _nonvanishing_symbols(deps, m: int) -> frozenset:
    """Leading symbols of a system template assumed nonzero: the
    first-axis diagonal coefficients of the left factor."""
    return frozenset(FuncSym("a", (1, p, p, 1, 1), deps=deps)
                     for p in range(1, m + 1))


def derive_conditions(template: str, m: int = 1) -> ConditionSystem:
    """Condition system equating a generic operator of a template with
    the expansion of two generic first order factors."""
    linear, system, n = template_traits(template)
    _check_m(system, m)
    deps = _deps(linear, n, m)
    factors = [as_matrix(f) for f in symbolic_factors(template, m)]
    grid = matrix_expand_product(factors)
    blocks = sorted(((p, q) for p in range(1, m + 1) for q in range(1, m + 1)),
                    key=lambda pq: (pq[0] != pq[1], pq[0], pq[1]))
    family = "f" if system else "g"
    equations = []
    for p, q in blocks:
        buckets, others = identify(grid[p - 1][q - 1], q)
        sym = lambda k, h: coeff_sym(family, (), p, q, k, h, deps)
        block = (p, q) if system else None
        for (k, h) in sorted(buckets, key=lambda kh: (-kh[0], kh[1])):
            equations.append(Equation(
                _lhs_for(sym, k, h, n), simplify(buckets[(k, h)]), block))
        zeros = [c for _, c in others]
        if system and not linear:
            zeros = _normalize_zeros(zeros, _nonvanishing_symbols(deps, m))
        for z in sorted(set(zeros), key=sort_key):
            equations.append(Equation(ZERO, z, block))
    return ConditionSystem(template, n, m, tuple(equations))

# ---------------------------------------------------------------------------
# candidate checking

@dataclass(frozen=True)
class CheckOptions:
    samples: int = 8
    tol: float = 1e-9
    seed: int = 0


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    residuals: tuple  # ((label, Expr), ...) nonzero symbolic residuals
    numeric_max: float
    samples: int
    tol: float
    seed: int


def check_candidate(P, candidate: FactorizationCandidate,
                    opts: CheckOptions = CheckOptions()) -> CheckReport:
    """Expand the candidate product and compare with P exactly, then
    probe the difference numerically on random polynomial data.

    The numeric probe applies the factors sequentially, so it does not
    share the expansion code path with the symbolic comparison.
    """
    import random
    rng = random.Random(opts.seed)
    matrix = isinstance(P, MatrixOperator)
    if candidate.is_matrix != matrix:
        raise UnsupportedTemplate("matrix operator needs matrix factors" if matrix
                                  else "scalar operator needs scalar factors")
    P = as_matrix(P)
    factors = [as_matrix(f) for f in candidate.factors]
    grid_p = matrix_expand_product([P])
    grid_c = matrix_expand_product(factors)
    residuals = []
    for p in range(P.m):
        for q in range(P.m):
            for label, r in _jet_residuals(grid_p[p][q], grid_c[p][q]):
                residuals.append((f"({p+1},{q+1}) {label}" if matrix else label, r))
    numeric_max = _numeric_probe(P, factors, rng, opts)
    passed = not residuals and numeric_max <= opts.tol
    return CheckReport(passed, tuple(residuals), numeric_max,
                       opts.samples, opts.tol, opts.seed)


def _jet_residuals(jp_p, jp_c):
    out = []
    dp, dc = jp_p.as_dict(), jp_c.as_dict()
    for mono in sorted(set(dp) | set(dc)):
        r = simplify(dp.get(mono, ZERO) - dc.get(mono, ZERO))
        if r != ZERO:
            out.append((render_mono(mono, jp_p.n), r))
    return out


def _random_poly(rng, n, degree=4, terms=6) -> Expr:
    e = Const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    for _ in range(terms):
        mono = Const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        total = 0
        for i in range(1, n + 1):
            d = rng.randint(0, degree - total) if total < degree else 0
            total += d
            if d:
                mono = mono * Power(Var(IndepVar(i)), d) if d > 1 else mono * Var(IndepVar(i))
        e = e + mono
    return simplify(e)


def _probe_points(rng, n, count):
    return [{IndepVar(i): rng.uniform(-1.0, 1.0) for i in range(1, n + 1)}
            for _ in range(count)]


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _numeric_probe(P: MatrixOperator, factors, rng, opts) -> float:
    """Largest relative gap between P u and N1 (N2 u) over the probe
    points, for a random polynomial u per component."""
    N1, N2 = factors
    u_exprs = {j: _random_poly(rng, P.n) for j in range(1, P.m + 1)}
    left = matrix_apply(P, u_exprs)
    right = matrix_apply(N1, u_exprs, matrix_apply(N2, u_exprs))
    worst = 0.0
    for pt in _probe_points(rng, P.n, opts.samples):
        for p in range(P.m):
            worst = max(worst, _rel_gap(evaluate(left[p], pt), evaluate(right[p], pt)))
    return worst


# ---------------------------------------------------------------------------
# residuals of a concrete pair against the symbolic conditions

def condition_residuals(system: ConditionSystem, P, candidate) -> list:
    """Evaluate each template equation on concrete coefficients.

    Returns (equation index, residual) pairs; a factorization satisfies
    the system exactly when every residual is zero.  This route never
    expands the candidate product, so it is independent of
    check_candidate.
    """
    mapping = {}
    syms = set()
    for eq in system.equations:
        for v in expr_variables(eq.lhs) | expr_variables(eq.rhs):
            if isinstance(v, FuncSym):
                syms.add(v)
    for s in syms:
        mapping[s] = _concrete_symbol(s, P, candidate)
    out = []
    for i, eq in enumerate(system.equations):
        r = simplify(substitute(eq.rhs, mapping) - substitute(eq.lhs, mapping))
        out.append((i, r))
    return out


def _concrete_symbol(s: FuncSym, P, candidate) -> Expr:
    if s.family not in ("g", "b", "f", "a"):
        raise UnsupportedTemplate(f"unknown symbol family {s.family!r}")
    op, indices = P, s.indices
    if s.family in ("b", "a"):
        op, indices = candidate.factors[indices[0] - 1], indices[1:]
    p, q, k, h = indices if len(indices) == 4 else (1, 1) + indices
    base = as_matrix(op).entries[p - 1][q - 1].coeff(k, h)
    for kind, idx in s.derivs:
        base = diff(base, IndepVar(idx) if kind == "x" else DepVar(idx))
    return base


# ---------------------------------------------------------------------------
# discriminant of the principal symbol (two independent variables)

def discriminant(P: DiffOperator) -> Expr:
    """(g22 + g23)^2 - 4 g21 g24 of a second order operator over n=2."""
    if P.n != 2:
        raise UnsupportedTemplate("discriminant needs two independent variables")
    s = P.coeff(2, 2) + P.coeff(2, 3)
    return simplify(s * s - 4 * P.coeff(2, 1) * P.coeff(2, 4))


# ---------------------------------------------------------------------------
# rendering

def render_equation(eq: Equation) -> str:
    lhs = "0" if eq.lhs == ZERO else render(eq.lhs)
    txt = f"{lhs} = {render(eq.rhs)}"
    if eq.block and eq.lhs == ZERO:
        txt += f"   [entry ({eq.block[0]},{eq.block[1]})]"
    return txt


def render_condition_system(cs: ConditionSystem) -> str:
    lines = [f"conditions for {cs.template} (n={cs.n}, m={cs.m}):"]
    for eq in cs.equations:
        lines.append("  " + render_equation(eq))
    return "\n".join(lines)
