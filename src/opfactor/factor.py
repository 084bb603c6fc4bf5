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

from .errors import (CapacityExceeded, DomainError, NonPolynomialCoefficients,
                     NonPolynomialSqrtDelta, NoRealFactorization, NotConstant, UnsupportedTemplate,
                     ValidationError)
from .expr import (Const, Div, Expr, Fun, FuncSym, IndepVar, Power, Var, ZERO,
                   ONE, cancel, cancelled_tree, evaluate, expr_to_poly, expr_variables,
                   fraction_sqrt, from_pair, is_constant, pair_product, pair_sum, pair_total,
                   pair_total_derivative, poly_sqrt, poly_substitute, ratio, render,
                   simplify, sort_key, substitute)
from .conditions import FactorizationCandidate, discriminant
from .operator import DiffOperator, make_operator


# largest Riccati ansatz degree (CapacityExceeded above); the search costs
# 0.8-0.9 s per CLI call at 32, 6.3 s at 80 and 35 s at 160
MAX_ANSATZ_DEGREE = 32


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the search strategies.  An ansatz degree below 0 raises
    ValidationError, one above MAX_ANSATZ_DEGREE CapacityExceeded."""

    ansatz_degree: int = 3
    seed: int = 0

    def __post_init__(self):
        deg = self.ansatz_degree
        if deg < 0:
            raise ValidationError(f"ansatz degree {deg} is negative")
        if deg > MAX_ANSATZ_DEGREE:
            raise CapacityExceeded(f"ansatz degree {deg} exceeds {MAX_ANSATZ_DEGREE}")


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
    root = fraction_sqrt(disc)
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
    coefficient Y, for the split (X + g21 D)(Y + D)."""

    operator: DiffOperator
    y2: Expr
    y1: Expr
    y0: Expr


def riccati_from_operator(P: DiffOperator) -> RiccatiProblem:
    """Riccati problem of a second order operator over one variable."""
    if P.n != 1 or not P.linear:
        raise UnsupportedTemplate("Riccati route needs a linear operator over x1")
    g21 = P.coeff(2, 1)
    if g21 == ZERO:
        raise UnsupportedTemplate("operator is not second order")
    g11, g01 = P.coeff(1, 1), P.coeff(0, 1)
    return RiccatiProblem(
        operator=P,
        y2=Const(Fraction(-1)),
        y1=simplify(Div(g11, g21)),
        y0=simplify(Div(Const(Fraction(-1)) * g01, g21)),
    )


def solve_riccati_ansatz(prob: RiccatiProblem,
                         config: SearchConfig = SearchConfig()) -> list:
    """All polynomial solutions Y of degree <= config.ansatz_degree.

    Substitutes an undetermined polynomial, collects powers of x1 and
    solves the resulting quadratic system exactly over the rationals,
    on polys in the unknowns c_d.  An empty list means the ansatz is
    exhausted, not an error.  `SearchConfig` bounds the degree.
    """
    deg = config.ansatz_degree
    for c in (prob.y2, prob.y1, prob.y0):
        if not _polynomial_in_x(c):
            raise NonPolynomialCoefficients(
                f"Riccati coefficient {render(c)} is not polynomial in x1")
    cvars = [Var(FuncSym("c", (d,))) for d in range(deg + 1)]
    Y = ratio(simplify(sum((c * Power(Var(IndepVar(1)), d) for d, c in enumerate(cvars)), ZERO)))
    resid = cancel(pair_total([pair_total_derivative(Y, 1, 1),
                               pair_product(ratio(prob.y2), pair_product(Y, Y)),
                               pair_product(ratio(prob.y1), Y), ratio(prob.y0)]))[0]
    by_deg = _c_degree(resid, Var(IndepVar(1)))
    solutions = []
    _solve_branch([by_deg[d] for d in sorted(by_deg, reverse=True)], {}, cvars[::-1], solutions)
    out = {}  # distinct solutions, in the order found
    for sol in solutions:
        if not poly_substitute(resid, sol):
            out.setdefault(from_pair((poly_substitute(Y[0], sol), Y[1])))
    return sorted(out, key=sort_key)


def _polynomial_in_x(e: Expr) -> bool:
    p = expr_to_poly(e)
    if p is None:
        return False
    return all(isinstance(a, Var) and isinstance(a.vid, IndepVar)
               for mono in p for a, _ in mono)


def _c_degree(p, c) -> dict:
    """Coefficient polys by degree of the poly p in the atom c."""
    by_deg = {}
    for mono, coeff in p.items():
        d = 0
        rest = []
        for a, exp in mono:
            if a == c:
                d = exp
            else:
                rest.append((a, exp))
        by_deg.setdefault(d, {})[tuple(rest)] = coeff
    return by_deg


def _constant(p):
    """The value of a constant poly, or None."""
    return p.get((), Fraction(0)) if set(p) <= {()} else None


def _solve_branch(equations, assignment, cvars, solutions):
    """Each level assigns one unknown, so the depth is at most len(cvars)."""
    eqs = []
    for eq in equations:
        r = poly_substitute(eq, assignment) if assignment else eq
        if not r:
            continue
        if _constant(r) is not None:
            return  # contradiction
        eqs.append(r)
    if not eqs:
        solutions.append(_resolve(assignment, cvars))
        return
    # prefer an equation in a single unknown
    for eq in eqs:
        cs = {a for mono in eq for a, _ in mono}
        if len(cs) == 1:
            c, = cs
            for val in _univariate_roots(eq, c):
                _solve_branch(eqs, {**assignment, c: {(): val} if val else {}},
                              cvars, solutions)
            return
    # otherwise eliminate a variable that appears linearly with a
    # constant leading coefficient
    for c in cvars:
        if c in assignment:
            continue
        for eq in eqs:
            by_deg = _c_degree(eq, c)
            lead = _constant(by_deg.get(1, {}))
            if 2 not in by_deg and lead:
                val = {m: -v / lead for m, v in by_deg.get(0, {}).items()}
                _solve_branch(eqs, {**assignment, c: val}, cvars, solutions)
                return
    return  # stuck: abandon this branch


def _univariate_roots(eq, c) -> list:
    """Rational roots of a poly of degree at most 2 in its one atom c;
    only exact rational roots participate in the search."""
    by_deg = _c_degree(eq, c)
    a2, a1, a0 = (_constant(by_deg.get(d, {})) for d in (2, 1, 0))
    if a2 == 0:
        return [-a0 / a1] if a1 else []
    root = fraction_sqrt(a1 * a1 - 4 * a2 * a0)  # None below zero too
    if root is None:
        return []
    return [(-a1 + r) / (2 * a2) for r in dict.fromkeys((root, -root))]


def _resolve(assignment, cvars) -> dict:
    full = {c: assignment.get(c, {}) for c in cvars}
    for _ in range(len(cvars) + 1):
        changed = False
        for c, v in full.items():
            nv = poly_substitute(v, full)
            if nv != v:
                full[c] = nv
                changed = True
        if not changed:
            break
    return full


def riccati_candidate(prob: RiccatiProblem, y: Expr) -> FactorizationCandidate:
    """Candidate (X + g21 D, Y + D) for a Riccati solution Y, with
    X = g11 - g21 Y."""
    P = prob.operator
    g21 = P.coeff(2, 1)
    Q1 = make_operator(1, 1, {(0, 1): simplify(P.coeff(1, 1) - g21 * y), (1, 1): g21})
    Q2 = make_operator(1, 1, {(0, 1): y, (1, 1): ONE})
    return FactorizationCandidate((Q1, Q2))


def factor_ode(P: DiffOperator, config: SearchConfig = SearchConfig()) -> list:
    """Dispatch: constant route when possible, else the Riccati ansatz."""
    if all(is_constant(c) for _, c in P.coeffs):
        return factor_constant(P)
    prob = riccati_from_operator(P)
    return [riccati_candidate(prob, y) for y in solve_riccati_ansatz(prob, config)]


# ---------------------------------------------------------------------------
# principal symbol pipeline over two variables

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

    def check(self, z: Expr) -> ObligationCheck:
        """Complete and verify a candidate for a proposed Z."""
        P = self.operator
        a1, a2, c1, c2, zp = (ratio(simplify(e))
                              for e in (self.a1, self.a2, self.c1, self.c2, z))
        if c1[0]:
            pivot, other, cp, co, ap, ao = (1, 1), (1, 2), c1, c2, a1, a2
        else:
            pivot, other, cp, co, ap, ao = (1, 2), (1, 1), c2, c1, a2, a1
        carry = _carrier(a1, a2)
        y = _over(_minus(_minus(ratio(P.coeff(*pivot)), pair_product(ap, zp)), carry(cp)), cp)
        res_mixed = _minus(pair_total([pair_product(y, co), pair_product(ao, zp), carry(co)]),
                           ratio(P.coeff(*other)))
        res_quad = _minus(pair_sum(pair_product(y, zp), carry(zp)), ratio(P.coeff(0, 1)))
        Q1 = make_operator(2, 1, {(0, 1): cancelled_tree(y), (1, 1): self.a1, (1, 2): self.a2})
        Q2 = make_operator(2, 1, {(0, 1): z, (1, 1): self.c1, (1, 2): self.c2})
        return ObligationCheck(FactorizationCandidate((Q1, Q2)), from_pair(res_quad),
                               from_pair(res_mixed))


@dataclass(frozen=True)
class PdeFactorResult:
    delta: Expr
    sqrt_delta: "Expr | None"
    branches: tuple
    obligation: "PdeObligation | None"
    swapped: bool = False  # pivoted on x2: the operator has no u_x1x1 slot

    @property
    def candidates(self) -> list:
        return [b.candidate for b in self.branches if b.ok]


def _delta_sqrt(P: DiffOperator, delta: Expr, pivot: int, config: SearchConfig) -> Expr:
    """Exact square root of the discriminant, or a domain error.  Its
    sign is poly_sqrt's with the pivot axis ranked first."""
    if isinstance(delta, Const):
        if delta.value < 0:
            raise NoRealFactorization(
                f"discriminant {render(delta)} is negative")
        root = fraction_sqrt(delta.value)
        return Const(root) if root is not None else Fun("sqrt", delta)
    flip = _swap_x if pivot == 2 else (lambda e: e)
    root = poly_sqrt(flip(delta))
    if root is not None:
        return flip(root)
    # the sign is sampled on (g22 + g23)^2 - 4 g21 g24 evaluated from the
    # coefficients, which keeps the digits the expanded delta loses near a pole
    s = P.coeff(2, 2) + P.coeff(2, 3)
    if _probably_negative(s * s - Const(Fraction(4)) * P.coeff(2, 1) * P.coeff(2, 4),
                          config.seed):
        raise NoRealFactorization(
            "discriminant is negative on the sample grid")
    raise NonPolynomialSqrtDelta(
        f"discriminant {render(delta)} has no polynomial square root")


def _swap_x(e: Expr) -> Expr:
    """e with x1 and x2 exchanged."""
    return substitute(e, {IndepVar(1): Var(IndepVar(2)), IndepVar(2): Var(IndepVar(1))})


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

    The pivot axis i is x1 when u_x1x1 is present, else x2; j is the
    other axis.  The roots of the principal symbol fix the first order
    slots of both factors, Q1 = g_ii D_i + a D_j + y and
    Q2 = D_i + c D_j + z.  Distinct roots leave a linear system for y
    and z, solved by elimination, and the candidate stands iff the
    zero order residual vanishes.  A repeated root leaves one scalar
    freedom, returned as an obligation on Z.
    """
    if P.n != 2 or not P.linear:
        raise UnsupportedTemplate(
            "the principal symbol route needs a linear operator over two variables")
    pivot = 1 if P.coeff(2, 1) != ZERO else 2
    lead = P.coeff(2, 3 * pivot - 2)  # on u_x1x1 or u_x2x2
    if lead == ZERO:
        raise UnsupportedTemplate(
            "no pure second order slot present; the pipeline needs "
            "a nonzero coefficient on u_x1x1 or u_x2x2")

    def axes(on_i, on_j):
        """(on D1, on D2) of the coefficients on D_i and D_j."""
        return (on_i, on_j) if pivot == 1 else (on_j, on_i)

    def first_order(zero, on_i, on_j):
        return make_operator(2, 1, {(0, 1): zero, (1, pivot): on_i, (1, 3 - pivot): on_j})

    gii, gi, gj, g01 = (ratio(e) for e in (lead, P.coeff(1, pivot), P.coeff(1, 3 - pivot),
                                           P.coeff(0, 1)))
    S = cancel(pair_sum(ratio(P.coeff(2, 2)), ratio(P.coeff(2, 3))))
    delta = discriminant(P)

    if delta == ZERO:
        a = cancel(pair_product(_HALF, S))
        c = _over(S, pair_product(_TWO, gii))
        z = ratio(Var(FuncSym("Z", (), deps=(("x", 1), ("x", 2)))))
        equation = from_pair(pair_total([
            _carrier(*axes(gii, a))(z),
            pair_product(_MINUS, pair_product(gii, pair_product(z, z))),
            pair_product(gi, z), pair_product(_MINUS, g01)]))
        ob = PdeObligation(P, *axes(lead, cancelled_tree(a)), *axes(ONE, cancelled_tree(c)),
                           equation)
        return PdeFactorResult(delta, None, (), ob, pivot == 2)

    sq = _delta_sqrt(P, delta, pivot, config)
    branches = []
    for sign in (1, -1):
        root = ratio(sq) if sign == 1 else pair_product(_MINUS, ratio(sq))
        a = cancel(pair_product(_HALF, _minus(S, root)))
        c = _over(pair_sum(S, root), pair_product(_TWO, gii))
        carry = _carrier(*axes(gii, a))
        rb = cancel(_minus(gj, carry(c)))
        det = pair_product(_MINUS, root)  # a - g_ii c, identically
        y = _over(_minus(pair_product(gi, a), pair_product(gii, rb)), det)
        z = _over(_minus(rb, pair_product(c, gi)), det)
        residual = from_pair(_minus(pair_sum(pair_product(y, z), carry(z)), g01))
        Q1 = first_order(cancelled_tree(y), lead, cancelled_tree(a))
        Q2 = first_order(cancelled_tree(z), ONE, cancelled_tree(c))
        branches.append(PdeBranch(FactorizationCandidate((Q1, Q2)), residual, sign))
    return PdeFactorResult(delta, sq, tuple(branches), None, pivot == 2)


# constant pairs of the principal symbol route
_MINUS, _HALF, _TWO = (ratio(Const(Fraction(c))) for c in (-1, Fraction(1, 2), 2))


def _minus(a, b):
    """Pair of a - b."""
    return pair_sum(a, pair_product(_MINUS, b))


def _over(a, b):
    """Cancelled pair of a / b."""
    return cancel(pair_product(a, b[::-1]))


def _carrier(a1, a2):
    """The map from a pair e to the cancelled pair of a1 D1 e + a2 D2 e,
    with total derivatives over two variables."""
    return lambda e: cancel(pair_sum(pair_product(a1, pair_total_derivative(e, 1, 2)),
                                     pair_product(a2, pair_total_derivative(e, 2, 2))))
