"""Factorization search strategies for second order scalar operators.

Three routes: exact root splitting for constant coefficient operators
over one variable, a polynomial ansatz for the Riccati equation that
governs variable coefficient factorizations over one variable, and the
principal symbol pipeline over two variables, which splits the second
order slots through the discriminant and solves the two first order
slots by elimination.  An exhausted ansatz search returns an empty
list; errors are reserved for structurally impossible inputs.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DomainError, NonPolynomialCoefficients, NonPolynomialSqrtDelta,
                     NoRealFactorization, NotConstant, UnsupportedTemplate)
from .expr import (Const, Div, Expr, Fun, FuncSym, IndepVar, Power, Var, ZERO,
                   ONE, evaluate, expr_to_poly, expr_variables, is_constant,
                   poly_sqrt, poly_to_expr, render, simplify, sort_key,
                   substitute, total_derivative, _fraction_sqrt)
from .conditions import FactorizationCandidate, discriminant
from .operator import DiffOperator, make_operator


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the search strategies."""

    ansatz_degree: int = 3
    seed: int = 0


# ---------------------------------------------------------------------------
# constant coefficients

def factor_constant(P: DiffOperator) -> list:
    """Split a constant coefficient operator over one variable.

    Roots of g21 t^2 - g11 t + g01 give the candidates
    (g21 t1 + g21 D, t2 + D), one per root order.  Irrational roots are
    kept exact as square root atoms.
    """
    if P.n != 1:
        raise UnsupportedTemplate("constant strategy works over one variable")
    for _, c in P.coeffs:
        if not is_constant(c):
            raise NotConstant(f"coefficient {render(c)} is not constant")
    g2 = P.coeff(2, 1)
    if g2 == ZERO:
        raise UnsupportedTemplate("operator is not second order")
    g2v = g2.value if isinstance(g2, Const) else None
    if g2v is None:
        raise NotConstant("leading coefficient is not a rational constant")
    A = _const_value(P.coeff(1, 1)) / g2v
    B = _const_value(P.coeff(0, 1)) / g2v
    disc = A * A - 4 * B
    if disc < 0:
        raise NoRealFactorization(f"discriminant {disc} is negative")
    root = _fraction_sqrt(disc)
    if root is not None:
        t1 = (A + root) / 2
        t2 = (A - root) / 2
        pairs = [(Const(t1), Const(t2))]
        if t1 != t2:
            pairs.append((Const(t2), Const(t1)))
    else:
        sq = Fun("sqrt", Const(disc))
        t1 = simplify((Const(A) + sq) * Const(Fraction(1, 2)))
        t2 = simplify((Const(A) - sq) * Const(Fraction(1, 2)))
        pairs = [(t1, t2), (t2, t1)]
    out = []
    for u, v in pairs:
        Q1 = make_operator(1, 1, {(0, 1): simplify(g2 * u), (1, 1): g2})
        Q2 = make_operator(1, 1, {(0, 1): v, (1, 1): ONE})
        out.append(FactorizationCandidate((Q1, Q2)))
    return out


def _const_value(e: Expr) -> Fraction:
    e = simplify(e)
    if isinstance(e, Const):
        return e.value
    raise NotConstant(f"{render(e)} is not a rational constant")


# ---------------------------------------------------------------------------
# Riccati ansatz over one variable

@dataclass(frozen=True)
class RiccatiProblem:
    """D(Y) + y2 Y^2 + y1 Y + y0 = 0 in the right factor's zero order
    coefficient Y, under the gauge (b111, b211)."""

    operator: DiffOperator
    b111: Expr
    b211: Expr
    y2: Expr
    y1: Expr
    y0: Expr


def riccati_from_operator(P: DiffOperator) -> RiccatiProblem:
    """Riccati problem of a second order operator over one variable,
    in the gauge b111 = g21, b211 = 1."""
    if P.n != 1 or not P.linear:
        raise UnsupportedTemplate("Riccati route needs a linear operator over x1")
    g21 = P.coeff(2, 1)
    if g21 == ZERO:
        raise UnsupportedTemplate("operator is not second order")
    g11, g01 = P.coeff(1, 1), P.coeff(0, 1)
    return RiccatiProblem(
        operator=P, b111=g21, b211=ONE,
        y2=Const(Fraction(-1)),
        y1=simplify(Div(g11, g21)),
        y0=simplify(Div(Const(Fraction(-1)) * g01, g21)),
    )


def solve_riccati_ansatz(prob: RiccatiProblem,
                         config: SearchConfig = SearchConfig()) -> list:
    """All polynomial solutions Y of degree <= config.ansatz_degree.

    Substitutes an undetermined polynomial, collects powers of x1 and
    solves the resulting quadratic system exactly over the rationals.
    An empty list means the ansatz is exhausted, not an error.
    """
    for c in (prob.y2, prob.y1, prob.y0):
        if not _polynomial_in_x(c):
            raise NonPolynomialCoefficients(
                f"Riccati coefficient {render(c)} is not polynomial in x1")
    deg = config.ansatz_degree
    cvars = [FuncSym("c", (d,)) for d in range(deg + 1)]
    Y = ZERO
    for d in range(deg + 1):
        term = Var(cvars[d])
        if d:
            term = term * (Power(Var(IndepVar(1)), d) if d > 1 else Var(IndepVar(1)))
        Y = Y + term
    resid = simplify(total_derivative(Y, 1, 1)
                     + prob.y2 * Y * Y + prob.y1 * Y + prob.y0)
    if isinstance(resid, Div):
        resid = resid.num
    equations = _collect_x_powers(resid)
    solutions = []
    _solve_branch(equations, {}, list(reversed(cvars)), solutions)
    out = []
    seen = set()
    for sol in solutions:
        y = simplify(substitute(Y, sol))
        check = simplify(substitute(resid, sol))
        if check != ZERO or y in seen:
            continue
        seen.add(y)
        out.append(y)
    out.sort(key=sort_key)
    return out


def _polynomial_in_x(e: Expr) -> bool:
    p = expr_to_poly(e)
    if p is None:
        return False
    return all(isinstance(a, Var) and isinstance(a.vid, IndepVar)
               for mono in p for a, _ in mono)


def _collect_x_powers(e: Expr) -> list:
    """Coefficients of powers of x1, highest power first."""
    by_deg = _c_degree(e, IndepVar(1))
    return [by_deg[d] for d in sorted(by_deg, reverse=True) if by_deg[d] != ZERO]


def _c_degree(eq: Expr, c) -> dict:
    """Coefficient exprs by degree of eq as a polynomial in the variable c."""
    p = expr_to_poly(eq)
    if p is None:
        raise NonPolynomialCoefficients("residual is not polynomial")
    by_deg = {}
    for mono, coeff in p.items():
        d = 0
        rest = []
        for a, exp in mono:
            if isinstance(a, Var) and a.vid == c:
                d = exp
            else:
                rest.append((a, exp))
        by_deg.setdefault(d, {})[tuple(rest)] = coeff
    return {d: simplify(poly_to_expr(m)) for d, m in by_deg.items()}


def _solve_branch(equations, assignment, cvars, solutions, depth=0):
    if depth > 64:
        return
    eqs = []
    for eq in equations:
        r = simplify(substitute(eq, assignment)) if assignment else eq
        if r == ZERO:
            continue
        if isinstance(r, Const):
            return  # contradiction
        eqs.append(r)
    if not eqs:
        solutions.append(_resolve(assignment, cvars))
        return
    # prefer an equation in a single unknown
    for eq in eqs:
        cs = [v for v in expr_variables(eq) if isinstance(v, FuncSym)]
        if len(set(cs)) == 1:
            c = cs[0]
            for val in _univariate_roots(eq, c):
                _solve_branch(eqs, {**assignment, c: val}, cvars, solutions, depth + 1)
            return
    # otherwise eliminate a variable that appears linearly with a
    # constant leading coefficient
    for c in cvars:
        if c in assignment:
            continue
        for eq in eqs:
            by_deg = _c_degree(eq, c)
            if by_deg.get(2, ZERO) == ZERO and isinstance(by_deg.get(1, ZERO), Const) \
                    and by_deg.get(1, ZERO) != ZERO:
                val = simplify(Div(Const(Fraction(-1)) * by_deg.get(0, ZERO), by_deg[1]))
                _solve_branch(eqs, {**assignment, c: val}, cvars, solutions, depth + 1)
                return
    return  # stuck: abandon this branch


def _univariate_roots(eq: Expr, c: FuncSym) -> list:
    by_deg = _c_degree(eq, c)
    a2 = by_deg.get(2, ZERO)
    a1 = by_deg.get(1, ZERO)
    a0 = by_deg.get(0, ZERO)
    if not all(isinstance(a, Const) for a in (a2, a1, a0)):
        return []
    a2v, a1v, a0v = a2.value, a1.value, a0.value
    if a2v == 0:
        if a1v == 0:
            return []
        return [Const(-a0v / a1v)]
    disc = a1v * a1v - 4 * a2v * a0v
    if disc < 0:
        return []
    root = _fraction_sqrt(disc)
    if root is None:
        return []  # only exact rational roots participate in the search
    if root == 0:
        return [Const(-a1v / (2 * a2v))]
    return [Const((-a1v + root) / (2 * a2v)), Const((-a1v - root) / (2 * a2v))]


def _resolve(assignment, cvars) -> dict:
    full = {c: assignment.get(c, ZERO) for c in cvars}
    for _ in range(len(cvars) + 1):
        changed = False
        for c, v in full.items():
            nv = simplify(substitute(v, full))
            if nv != v:
                full[c] = nv
                changed = True
        if not changed:
            break
    return full


def riccati_candidate(prob: RiccatiProblem, y: Expr) -> FactorizationCandidate:
    """Candidate (X + b111 D, Y + b211 D) for a Riccati solution Y."""
    P = prob.operator
    x_expr = simplify(Div(
        P.coeff(1, 1) - prob.b111 * total_derivative(prob.b211, 1, 1)
        - prob.b111 * y, prob.b211))
    Q1 = make_operator(1, 1, {(0, 1): x_expr, (1, 1): prob.b111})
    Q2 = make_operator(1, 1, {(0, 1): y, (1, 1): prob.b211})
    return FactorizationCandidate((Q1, Q2))


def factor_ode(P: DiffOperator, config: SearchConfig = SearchConfig()) -> list:
    """Dispatch: constant route when possible, else the Riccati ansatz."""
    if all(is_constant(c) for _, c in P.coeffs):
        return factor_constant(P)
    prob = riccati_from_operator(P)
    return [riccati_candidate(prob, y) for y in solve_riccati_ansatz(prob, config)]


# ---------------------------------------------------------------------------
# principal symbol pipeline over two variables

_SLOT_SWAP = {(0, 1): (0, 1), (1, 1): (1, 2), (1, 2): (1, 1),
              (2, 1): (2, 4), (2, 2): (2, 3), (2, 3): (2, 2), (2, 4): (2, 1)}


def _swap_coord(c):
    return ("x", 3 - c[1]) if c[0] == "x" else c


def _swap_expr(e: Expr) -> Expr:
    """Exchange x1 and x2, including derivative tags on opaque symbols."""
    mapping = {}
    for v in expr_variables(e):
        if isinstance(v, IndepVar):
            mapping[v] = Var(IndepVar(3 - v.index))
        elif isinstance(v, FuncSym):
            mapping[v] = Var(FuncSym(v.family, v.indices,
                                     tuple(sorted(_swap_coord(c) for c in v.derivs)),
                                     tuple(sorted(_swap_coord(c) for c in v.deps))))
    return substitute(e, mapping)


def _swap_axes(op: DiffOperator) -> DiffOperator:
    """Exchange the two independent variables, slots and coefficients."""
    coeffs = {}
    for d, c in op.coeffs:
        coeffs[_SLOT_SWAP[(d.k, d.h)]] = _swap_expr(c)
    return make_operator(op.n, op.m, coeffs, op.linear)


@dataclass(frozen=True)
class PdeBranch:
    """One root assignment: a fully determined candidate plus the zero
    order residual that decides whether it really factors."""

    candidate: FactorizationCandidate
    residual: Expr
    sign: int

    @property
    def ok(self) -> bool:
        return self.residual == ZERO


@dataclass(frozen=True)
class ObligationCheck:
    candidate: FactorizationCandidate
    residual_quadratic: Expr
    residual_mixed: Expr

    @property
    def ok(self) -> bool:
        return self.residual_quadratic == ZERO and self.residual_mixed == ZERO


@dataclass(frozen=True)
class PdeObligation:
    """Repeated root case: the first order slots of both factors are
    fixed, and any Z solving a quadratic first order equation completes
    the factorization.  `equation` renders that constraint with the
    placeholder symbol Z."""

    operator: DiffOperator
    a1: Expr  # carrier slots of the left factor
    a2: Expr
    c1: Expr  # carrier slots of the right factor
    c2: Expr
    equation: Expr

    def _carry(self, e: Expr) -> Expr:
        return simplify(self.a1 * total_derivative(e, 1, 2)
                        + self.a2 * total_derivative(e, 2, 2))

    def check(self, z: Expr) -> ObligationCheck:
        """Complete and verify a candidate for a proposed Z."""
        P = self.operator
        if self.c1 != ZERO:
            pivot, other = (1, 1), (1, 2)
            cp, co, ap, ao = self.c1, self.c2, self.a1, self.a2
        else:
            pivot, other = (1, 2), (1, 1)
            cp, co, ap, ao = self.c2, self.c1, self.a2, self.a1
        y = simplify(Div(P.coeff(*pivot) - ap * z - self._carry(cp), cp))
        res_mixed = simplify(y * co + ao * z + self._carry(co) - P.coeff(*other))
        res_quad = simplify(y * z + self._carry(z) - P.coeff(0, 1))
        Q1 = make_operator(2, 1, {(0, 1): y, (1, 1): self.a1, (1, 2): self.a2})
        Q2 = make_operator(2, 1, {(0, 1): z, (1, 1): self.c1, (1, 2): self.c2})
        return ObligationCheck(FactorizationCandidate((Q1, Q2)), res_quad, res_mixed)


@dataclass(frozen=True)
class PdeFactorResult:
    delta: Expr
    sqrt_delta: "Expr | None"
    branches: tuple
    obligation: "PdeObligation | None"
    swapped: bool = False

    @property
    def candidates(self) -> list:
        return [b.candidate for b in self.branches if b.ok]


def _swap_candidate(c: FactorizationCandidate) -> FactorizationCandidate:
    return FactorizationCandidate(tuple(_swap_axes(f) for f in c.factors))


def _swap_result(res: PdeFactorResult) -> PdeFactorResult:
    sub = _swap_expr
    branches = tuple(PdeBranch(_swap_candidate(b.candidate), sub(b.residual), b.sign)
                     for b in res.branches)
    ob = res.obligation
    if ob is not None:
        ob = PdeObligation(_swap_axes(ob.operator), sub(ob.a2), sub(ob.a1),
                           sub(ob.c2), sub(ob.c1), sub(ob.equation))
    return PdeFactorResult(sub(res.delta), None if res.sqrt_delta is None
                           else sub(res.sqrt_delta), branches, ob, swapped=True)


def _delta_sqrt(delta: Expr, config: SearchConfig) -> Expr:
    """Exact square root of the discriminant, or a domain error."""
    if isinstance(delta, Const):
        if delta.value < 0:
            raise NoRealFactorization(
                f"discriminant {render(delta)} is negative")
        root = _fraction_sqrt(delta.value)
        return Const(root) if root is not None else Fun("sqrt", delta)
    root = poly_sqrt(delta)
    if root is not None:
        return root
    if isinstance(delta, Div):
        rn, rd = poly_sqrt(delta.num), poly_sqrt(delta.den)
        if rn is not None and rd is not None:
            return simplify(Div(rn, rd))
    if _probably_negative(delta, config.seed):
        raise NoRealFactorization(
            "discriminant is negative on the sample grid")
    raise NonPolynomialSqrtDelta(
        f"discriminant {render(delta)} has no polynomial square root")


def _probably_negative(delta: Expr, seed: int) -> bool:
    rng = random.Random(seed ^ 0x5EED)
    names = {v for v in expr_variables(delta)}
    for _ in range(64):
        point = {v: rng.uniform(-1.0, 1.0) for v in names}
        try:
            if evaluate(delta, point) >= 0:
                return False
        except DomainError:
            return False
    return True


def factor_pde_second_order(P: DiffOperator,
                            config: SearchConfig = SearchConfig()) -> PdeFactorResult:
    """Split a linear second order operator over two variables.

    The roots of the principal symbol fix the first order slots of
    both factors.  Distinct roots leave a linear system for the zero
    order slots, solved by elimination, and the candidate stands iff
    the zero order residual vanishes.  A repeated root leaves one
    scalar freedom, returned as an obligation on Z.
    """
    if P.n != 2 or not P.linear:
        raise UnsupportedTemplate(
            "the principal symbol route needs a linear operator over two variables")
    g21, g24 = P.coeff(2, 1), P.coeff(2, 4)
    if g21 == ZERO:
        if g24 == ZERO:
            raise UnsupportedTemplate(
                "no pure second order slot present; the pipeline needs "
                "a nonzero coefficient on u_x1x1 or u_x2x2")
        return _swap_result(factor_pde_second_order(_swap_axes(P), config))
    S = simplify(P.coeff(2, 2) + P.coeff(2, 3))
    g11, g12, g01 = P.coeff(1, 1), P.coeff(1, 2), P.coeff(0, 1)
    delta = discriminant(P)
    half = Const(Fraction(1, 2))

    if delta == ZERO:
        a2 = simplify(half * S)
        c2 = simplify(Div(S, 2 * g21))
        zsym = FuncSym("Z", (), deps=(("x", 1), ("x", 2)))
        zv = Var(zsym)
        carry = (g21 * total_derivative(zv, 1, 2) + a2 * total_derivative(zv, 2, 2))
        equation = simplify(carry - g21 * zv * zv + g11 * zv - g01)
        ob = PdeObligation(P, g21, a2, ONE, c2, equation)
        return PdeFactorResult(delta, None, (), ob)

    sq = _delta_sqrt(delta, config)
    branches = []
    for sign in (1, -1):
        root = simplify(Const(Fraction(sign)) * sq)
        a2 = simplify(half * (S - root))
        c2 = simplify(Div(S + root, 2 * g21))
        carry = lambda e: simplify(g21 * total_derivative(e, 1, 2)
                                   + a2 * total_derivative(e, 2, 2))
        rb = simplify(g12 - carry(c2))
        det = simplify(a2 - g21 * c2)
        y = simplify(Div(g11 * a2 - g21 * rb, det))
        z = simplify(Div(rb - c2 * g11, det))
        residual = simplify(y * z + carry(z) - g01)
        Q1 = make_operator(2, 1, {(0, 1): y, (1, 1): g21, (1, 2): a2})
        Q2 = make_operator(2, 1, {(0, 1): z, (1, 1): ONE, (1, 2): c2})
        branches.append(PdeBranch(FactorizationCandidate((Q1, Q2)), residual, sign))
    return PdeFactorResult(delta, sq, tuple(branches), None)
