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

from fractions import Fraction

from .errors import CapacityExceeded, DomainError, UnsupportedTemplate, ValidationError
from .expr import (DepVar, Expr, FuncSym, IndepVar, Var, ZERO, diff, evaluate,
                   expr_to_poly, expr_variables, from_pair, pair_substitute, pair_sum,
                   poly_content, poly_to_expr, ratio, render, simplify, sort_key)
from .jet import DerivIndex, Jet, canonical_slot, index_to_multiindex, slot_count
from .operator import (DiffOperator, MatrixOperator, as_matrix, identify,
                       make_operator, matrix_expand_product, render_mono)
from .records import record

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


def _generic(template: str, m: int, factor: int):
    """Generic first order factor 1 or 2 of a template, with one symbol
    per slot: order 1 on the diagonal and 0 off it."""
    linear, system, n = template_traits(template)
    check_m(template, m)
    deps = _deps(linear, n, m)
    family = "a" if system else "b"
    rows = tuple(
        tuple(make_operator(n, m, {
            (k, h): coeff_sym(family, (factor,), p, q, k, h, deps)
            for k in range(2 if p == q else 1)
            for h in range(1, slot_count(n, k) + 1)}, linear)
            for q in range(1, m + 1))
        for p in range(1, m + 1))
    mop = MatrixOperator(n, m, rows)
    return mop if system else mop.entries[0][0]


def symbolic_factors(template: str, m: int = 1):
    """The two generic first order factors of a template."""
    return _generic(template, m, 1), _generic(template, m, 2)


# components a template may have (CapacityExceeded above): u1..u9, all
# that the coefficient grammar can name
MAX_COMPONENTS = 9


def check_m(template: str, m: int):
    """Refuse a component count above MAX_COMPONENTS (CapacityExceeded)
    or outside the template's range, m >= 2 for a system and m = 1 for a
    scalar template (ValidationError)."""
    if m > MAX_COMPONENTS:
        raise CapacityExceeded(f"m = {m} exceeds {MAX_COMPONENTS} components")
    if template_traits(template)[1]:
        if m < 2:
            raise ValidationError(f"system kinds need m >= 2, got {m}")
    elif m != 1:
        raise ValidationError(f"scalar kinds fix m = 1, got {m}")


@record
class Equation:
    """lhs = rhs; lhs is an operator coefficient symbol (or a sum of the
    two slots merged by symmetry of mixed partials) or zero."""

    lhs: Expr
    rhs: Expr
    block: tuple | None = None  # (p, q) for system templates

    @property
    def is_zero_condition(self) -> bool:
        return self.lhs == ZERO


@record
class ConditionSystem:
    template: str
    n: int
    m: int
    equations: tuple


@record
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
    known-nonzero symbol factors and normalize the constant content;
    e is a polynomial, as every zero condition is."""
    p = {mono: c for mono, c in expr_to_poly(e).items()
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
    scale = 1 / poly_content(p)
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
    check_m(template, m)
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
            equations.append(Equation(_lhs_for(sym, k, h, n), buckets[(k, h)], block))
        zeros = [c for _, c in others]
        if system and not linear:
            zeros = _normalize_zeros(zeros, _nonvanishing_symbols(deps, m))
        for z in sorted(set(zeros), key=sort_key):
            equations.append(Equation(ZERO, z, block))
    return ConditionSystem(template, n, m, tuple(equations))

# ---------------------------------------------------------------------------
# candidate checking

# largest probe sample count (CapacityExceeded above); a sample costs about 0.1 ms
MAX_SAMPLES = 1 << 12


@record
class CheckOptions:
    """Probe settings: fewer than one sample or a tolerance that is not a
    finite number >= 0 raise ValidationError, over MAX_SAMPLES CapacityExceeded."""

    samples: int = 8
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValidationError(f"{self.samples} probe samples; need at least 1")
        if not 0 <= self.tol < float("inf"):
            raise ValidationError(f"tolerance {self.tol} is not a finite number >= 0")
        if self.samples > MAX_SAMPLES:
            raise CapacityExceeded(f"{self.samples} probe samples exceed {MAX_SAMPLES}")


@record
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

    The two routes are independent: the exact one expands and compares
    jet polynomials, the numeric one (`_numeric_probe`) evaluates the
    coefficient trees on floats and Taylor jets and applies the factors
    one after the other, with no simplification or symbolic
    differentiation.  On a valid split the probe's gap is at rounding
    level, not 0."""
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
        a, b = dp.get(mono, ZERO), dc.get(mono, ZERO)
        if a == b:
            continue
        r = simplify(a - b)
        if r != ZERO:
            out.append((render_mono(mono, jp_p.n), r))
    return out


def _random_poly(rng, n, degree=4, terms=6) -> list:
    """A random polynomial as (coefficient, exponents) monomials, the
    constant first; monomials may repeat."""
    out = [(float(Fraction(rng.randint(-3, 3), rng.randint(1, 3))), (0,) * n)]
    for _ in range(terms):
        c = float(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        exps = []
        total = 0
        for _ in range(n):
            d = rng.randint(0, degree - total) if total < degree else 0
            total += d
            exps.append(d)
        out.append((c, tuple(exps)))
    return out


# a probe point where P u or N1 (N2 u) is undefined (a log of a negative
# number, a pole) is redrawn, with at most this many draws per requested
# point in all
PROBE_DRAWS_PER_SAMPLE = 32


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _numeric_probe(P: MatrixOperator, factors, rng, opts) -> float:
    """Largest relative gap between (P u)(x0) and (N1 (N2 u))(x0) over
    opts.samples probe points x0 in [-1, 1]^n, for a random polynomial
    u per component.

    Works pointwise in floats, with no symbolic work: u is seeded as a
    Taylor jet at x0 of order ord N1 + ord N2 (ord P if that is higher),
    the coefficients of P and N1 are evaluated at x0 and u(x0), and
    those of N2 on jets of order ord N1, so that v = N2 u comes out as
    a jet from which N1 reads its derivatives (Taylor-mode
    differentiation).

    A point where either side is undefined is redrawn; the DomainError
    of the last draw propagates once PROBE_DRAWS_PER_SAMPLE * samples
    points have been drawn.
    """
    N1, N2 = factors
    n, m = P.n, P.m
    us = [_random_poly(rng, n) for _ in range(m)]
    inner = N1.order
    outer = max(P.order, inner + N2.order)
    rows_p, rows_1, rows_2 = _rows(P), _rows(N1), _rows(N2)
    worst = 0.0
    used = draws = 0
    while used < opts.samples:
        x0 = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        draws += 1
        jets = [Jet.polynomial(u, x0, outer) for u in us]
        at_x0 = {IndepVar(i): x for i, x in enumerate(x0, start=1)}
        at_x0.update((DepVar(j), u.c[0]) for j, u in enumerate(jets, start=1))
        near_x0 = {IndepVar(i): Jet.variable(x, i, n, inner)
                   for i, x in enumerate(x0, start=1)}
        near_x0.update((DepVar(j), u.truncate(inner)) for j, u in enumerate(jets, start=1))
        try:
            v = [_apply_row(row, jets, near_x0, n, inner) for row in rows_2]
            gaps = [_rel_gap(_apply_row(row_p, jets, at_x0, n, 0).c[0],
                             _apply_row(row_1, v, at_x0, n, 0).c[0])
                    for row_p, row_1 in zip(rows_p, rows_1)]
        except DomainError:
            if draws >= PROBE_DRAWS_PER_SAMPLE * opts.samples:
                raise
            continue
        used += 1
        for gap in gaps:
            worst = max(worst, gap)
    return worst


def _rows(mop: MatrixOperator) -> list:
    """Per row of mop, its (column, multi-index, coefficient) terms."""
    return [[(q, index_to_multiindex(d), coeff)
             for q, op in enumerate(row) for d, coeff in op.coeffs]
            for row in mop.entries]


def _apply_row(row, targets, bindings, n: int, order: int) -> Jet:
    """Order-`order` jet of one operator row applied to the target jets,
    its coefficients evaluated on `bindings` (floats or jets)."""
    out = Jet.constant(0.0, n, order)
    for q, alpha, coeff in row:
        out = out + evaluate(coeff, bindings) * targets[q].derivative(alpha, order)
    return out


# ---------------------------------------------------------------------------
# residuals of a concrete pair against the symbolic conditions

def condition_residuals(system: ConditionSystem, P, candidate) -> list:
    """Evaluate each template equation on concrete coefficients.

    Returns (equation index, residual) pairs; a factorization satisfies
    the system exactly when every residual is zero.  This route never
    expands the candidate product, so it is independent of
    check_candidate.
    """
    syms = {v for eq in system.equations for side in (eq.lhs, eq.rhs)
            for v in expr_variables(side) if isinstance(v, FuncSym)}
    values = {Var(s): ratio(_concrete_symbol(s, P, candidate)) for s in syms}
    return [(i, from_pair(pair_sum(pair_substitute(ratio(eq.rhs), values),
                                   pair_substitute(ratio(-eq.lhs), values))))
            for i, eq in enumerate(system.equations)]


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
