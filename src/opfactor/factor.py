"""Factorization search strategies for second order scalar operators.

Three routes: exact root splitting for constant coefficient operators
over one variable, polynomial solutions of the Riccati equation that
governs variable coefficient factorizations over one variable (read
off its normal form from the top down), and the principal symbol
pipeline over two variables, which splits the second order slots
through the discriminant and solves the two first order slots by
elimination.  An exhausted ansatz search returns an empty
list; errors are reserved for structurally impossible inputs.
"""

import random
from fractions import Fraction

from .errors import (CapacityExceeded, DomainError, NonPolynomialCoefficients,
                     NonPolynomialSqrtDelta, NoRealFactorization, NotConstant, UnsupportedTemplate,
                     ValidationError)
from .expr import (Const, Expr, Fun, FuncSym, IndepVar, Var, ZERO,
                   ONE, cancel, cancelled_tree, evaluate, expr_to_poly, expr_variables,
                   fraction_sqrt, from_pair, is_constant, pair_product, pair_sum, pair_total,
                   pair_total_derivative, poly_sqrt, ratio, render, simplify, sort_key,
                   substitute)
from .conditions import FactorizationCandidate, discriminant
from .operator import DiffOperator, make_operator
from .records import record


# largest Riccati ansatz degree (CapacityExceeded above), kept as input
# contract: the normal-form solve hardly grows with it (`factor` on
# ode-riccati-poly.ini, in-process on a 2-vCPU host: 2.2 ms at 3 and at 32)
MAX_ANSATZ_DEGREE = 32


@record
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
    g2v = _const_value(g2)
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

@record
class RiccatiProblem:
    """D(Y) - Y^2 + y1 Y + y0 = 0 in the right factor's zero order
    coefficient Y, for the split (X + g21 D)(Y + D)."""

    operator: DiffOperator
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
        y1=simplify(g11 / g21),
        y0=simplify(Const(Fraction(-1)) * g01 / g21),
    )


def solve_riccati_ansatz(prob: RiccatiProblem,
                         config: SearchConfig = SearchConfig()) -> list:
    """All polynomial solutions Y of degree <= config.ansatz_degree with
    rational coefficients.  An empty list means the ansatz is exhausted,
    not an error.  `SearchConfig` bounds the degree.

    Y = y1/2 + w turns the equation into its normal form w^2 - w' = q,
    with q = y0 + y1'/2 + y1^2/4.  A polynomial w of degree k has w^2
    of degree 2k and w' of degree k - 1, so q has degree 2k and w_k is
    a square root of q's leading coefficient.  Each lower coefficient
    w_j is then fixed by q's coefficient of x1^(k+j), which is 2 w_k w_j
    plus products of higher ones.  When y1/2 has terms above the ansatz
    degree, w's terms there are their negatives, so w starts from them.
    Each start is kept when it solves the normal form exactly.
    """
    for c in (prob.y1, prob.y0):
        if not _polynomial_in_x(c):
            raise NonPolynomialCoefficients(
                f"Riccati coefficient {render(c)} is not polynomial in x1")
    d = config.ansatz_degree
    half = pair_product(_HALF, ratio(prob.y1))
    q = cancel(pair_total([ratio(prob.y0), pair_total_derivative(half, 1, 1),
                           pair_product(half, half)]))
    qs = _by_degree(q[0])
    k, odd = divmod(max(qs, default=0), 2)
    top = fraction_sqrt(qs.get(2 * k, Fraction(0)))
    above = {m: -c for m, c in half[0].items() if sum(e for _, e in m) > d}
    if above:
        starts = [(above, half[1])]
    elif odd or top is None or k > d:
        return []
    else:
        starts = [ratio(Const(lead) * _X1 ** k) for lead in {top, -top}]
    out = set()
    for w in starts:
        ws = _by_degree(w[0])
        kw = max(ws, default=0)
        rest = _minus(q, pair_product(w, w))  # q - w^2, updated with each term t of w
        for j in range(min(kw, d + 1) - 1, -1, -1):
            c = _by_degree(rest[0]).get(kw + j)
            if c:
                t = ratio(Const(c / (2 * ws[kw])) * _X1 ** j)
                rest = _minus(rest, pair_product(t, pair_total([w, w, t])))
                w = pair_sum(w, t)
        if not cancel(pair_sum(rest, pair_total_derivative(w, 1, 1)))[0]:
            out.add(from_pair(pair_sum(half, w)))
    return sorted(out, key=sort_key)


def _polynomial_in_x(e: Expr) -> bool:
    p = expr_to_poly(e)
    if p is None:
        return False
    return all(isinstance(a, Var) and isinstance(a.vid, IndepVar)
               for mono in p for a, _ in mono)


def _by_degree(p) -> dict:
    """{degree: coefficient} of a poly in x1 alone."""
    return {sum(e for _, e in mono): c for mono, c in p.items()}


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

@record
class PdeBranch:
    """One root assignment: a fully determined candidate plus the zero
    order residual that decides whether it really factors."""

    candidate: FactorizationCandidate
    residual: Expr
    sign: int

    @property
    def ok(self) -> bool:
        return self.residual == ZERO


@record
class ObligationCheck:
    candidate: FactorizationCandidate
    residual_quadratic: Expr
    residual_mixed: Expr

    @property
    def ok(self) -> bool:
        return self.residual_quadratic == ZERO and self.residual_mixed == ZERO


@record
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


@record
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
        return simplify(Fun("sqrt", delta))
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


# constant pairs, and x1
_MINUS, _HALF, _TWO = (ratio(Const(Fraction(c))) for c in (-1, Fraction(1, 2), 2))
_X1 = Var(IndepVar(1))


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
