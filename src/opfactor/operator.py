"""Differential operators and exact product expansion.

An operator is a finite sum of coefficient functions times derivative
slots.  Applying an operator to a generic dependent component and
expanding yields a jet polynomial: a sum of monomials in jet
coordinates (order >= 0) with coefficients depending on the base
coordinates only.  Slots that agree up to permutation of axes are
merged onto the smallest slot when an expansion is split, so two
expansions are equal exactly when their jet polynomials are
structurally equal.

Products expand right to left: the rightmost factor is applied to a
generic component first, then each next factor differentiates totally
through the jet coordinates, which is where quasi-linear coefficients
pick up their chain rule terms.  Each cell of the fold holds the exact
(num, den) polynomial pair of its whole jet expression (`expr.ratio`),
from the first factor to the last, and is split into jet monomials
once, at the end (`expr.split_jet`).

Application to concrete functions of the base coordinates and
expansion share that fold (`_apply_to_pair`); derivatives along a shared
prefix of axes are taken once per operator.  Reading an expansion back
(`identify`) sums each slot's coefficients on pairs into a canonical
coefficient, which `operator_from_jet` takes as it is.
"""

from fractions import Fraction

from .errors import ArityMismatch, NotQuasiLinear, OrderOverflow, ShapeMismatch
from .expr import (Const, DepVar, Expr, IndepVar, JetVar, Var, ZERO, ONE,
                   cancel, expr_to_poly, expr_variables, from_pair, pair_product, pair_substitute,
                   pair_total, pair_total_derivative, ratio, render, simplify, split_jet)
from .jet import DerivIndex, index_to_axes
from .records import record

DEFAULT_ORDER_CAP = 6

# A jet monomial maps (component, order, slot) to an exponent; stored as a
# sorted tuple of ((j, k, h), exp) with slots Schwarz-canonical.
JetMono = tuple


def _jet_mono_key(mono: JetMono):
    return (max((k for (_, k, _), _ in mono), default=-1),
            sum(e for _, e in mono), mono)


@record
class DiffOperator:
    """Scalar differential operator over n independent variables.

    `coeffs` maps derivative slots to coefficient expressions.  Linear
    operators may reference independent variables and opaque symbols;
    quasi-linear ones may also reference dependent components, but jet
    coordinates of order >= 1 are never legal in a coefficient.
    """

    n: int
    m: int
    coeffs: tuple  # ((DerivIndex, Expr), ...)
    linear: bool = True

    def __post_init__(self):
        seen = set()
        for d, coeff in self.coeffs:
            if d.n != self.n:
                raise ShapeMismatch(f"slot {d} does not live over n={self.n}")
            if d in seen:
                raise ShapeMismatch(f"duplicate coefficient for slot ({d.k},{d.h})")
            seen.add(d)
            for v in expr_variables(coeff):
                if isinstance(v, JetVar):
                    raise NotQuasiLinear(
                        "operator coefficients may not contain jet coordinates")
                if isinstance(v, DepVar):
                    if self.linear:
                        raise NotQuasiLinear(
                            f"linear coefficient contains {render(Var(v))}")
                    if not 1 <= v.component <= self.m:
                        raise ArityMismatch(
                            f"coefficient references u{v.component} but m={self.m}")
                if isinstance(v, IndepVar) and not 1 <= v.index <= self.n:
                    raise ArityMismatch(
                        f"coefficient references x{v.index} but n={self.n}")
        object.__setattr__(self, "coeffs", tuple(
            sorted(self.coeffs, key=lambda p: (p[0].k, p[0].h))))

    @property
    def order(self) -> int:
        return max((d.k for d, _ in self.coeffs), default=0)

    def coeff(self, k: int, h: int) -> Expr:
        for d, c in self.coeffs:
            if d.k == k and d.h == h:
                return c
        return ZERO


def make_operator(n: int, m: int, coeffs: dict, linear: bool = True) -> DiffOperator:
    """Build an operator from {(k, h): Expr}, dropping zero coefficients."""
    pairs = []
    for (k, h), e in sorted(coeffs.items()):
        e = simplify(e)
        if e != ZERO:
            pairs.append((DerivIndex(k, h, n), e))
    return DiffOperator(n, m, tuple(pairs), linear)


@record
class MatrixOperator:
    """Square system operator; entry (p, q) acts on component q.

    The order profile follows the factorization shape: with s the
    largest diagonal order, off-diagonal entries must have order at
    most s - 1.
    """

    n: int
    m: int
    entries: tuple  # m rows of m DiffOperator

    def __post_init__(self):
        if len(self.entries) != self.m or any(len(r) != self.m for r in self.entries):
            raise ShapeMismatch(f"need {self.m}x{self.m} entries")
        s = 0
        for p in range(self.m):
            for q in range(self.m):
                op = self.entries[p][q]
                if op.n != self.n or op.m != self.m:
                    raise ShapeMismatch(f"entry ({p+1},{q+1}) has wrong dimensions")
                if p == q:
                    s = max(s, op.order)
        for p in range(self.m):
            for q in range(self.m):
                if p != q and self.entries[p][q].order > max(s - 1, 0):
                    raise ShapeMismatch(
                        f"off-diagonal entry ({p+1},{q+1}) has order "
                        f"{self.entries[p][q].order}, profile allows {max(s-1,0)}")

    @property
    def order(self) -> int:
        return max(self.entries[p][p].order for p in range(self.m))

    @property
    def linear(self) -> bool:
        return all(op.linear for row in self.entries for op in row)


def as_matrix(op) -> MatrixOperator:
    """A matrix operator unchanged; a scalar operator as its 1x1 system."""
    if isinstance(op, MatrixOperator):
        return op
    return MatrixOperator(op.n, 1, ((op,),))


@record
class JetPolynomial:
    """Canonical expansion result: sorted (monomial, coefficient) terms."""

    n: int
    m: int
    terms: tuple  # ((JetMono, Expr), ...)

    def as_dict(self) -> dict:
        return dict(self.terms)


def _jet_poly(n: int, m: int, coeffs: dict) -> JetPolynomial:
    terms = sorted(coeffs.items(), key=lambda t: _jet_mono_key(t[0]), reverse=True)
    return JetPolynomial(n, m, tuple(terms))


def jet_polynomial(n: int, m: int, e: Expr) -> JetPolynomial:
    """Canonical jet polynomial of an expression in jet coordinates."""
    return _jet_poly(n, m, split_jet(ratio(simplify(e)), m))


def _apply_to_pair(op: DiffOperator, pair, u_exprs=None):
    """Pair of one operator applied to the jet expression num/den; with
    u_exprs, quasi-linear coefficients are evaluated along it first, and
    those that vanish there are skipped."""
    derived = {(): pair}

    def along(axes):
        if axes not in derived:
            derived[axes] = pair_total_derivative(along(axes[:-1]), axes[-1], op.n)
        return derived[axes]

    coeffs = [(d, _subs_components(coeff, u_exprs)) for d, coeff in op.coeffs]
    return pair_total([pair_product(c, along(index_to_axes(d))) for d, c in coeffs if c[0]])


def expand_product(factors) -> JetPolynomial:
    """Expand the product of scalar factors applied to a generic component.

    The (1, 1) cell of `matrix_expand_product` over the factors as 1x1
    systems.
    """
    return matrix_expand_product([as_matrix(f) for f in factors])[0][0]


def matrix_expand_product(factors):
    """Expand a product of matrix operators with target-column tracking.

    Returns an m x m tuple grid; cell (p, q) is the jet polynomial of
    everything row p picks up from source component q, so that row p of
    the product applied to u is the sum of its row cells.  Folds right
    to left over pairs: the last factor acts first.  Raises OrderOverflow
    when the accumulated order would exceed DEFAULT_ORDER_CAP.
    """
    if not factors:
        raise ValueError("need at least one factor")
    n, m = factors[0].n, factors[0].m
    for f in factors:
        if f.n != n or f.m != m:
            raise ShapeMismatch("factors live over different dimensions")
    total = sum(f.order for f in factors)
    if total > DEFAULT_ORDER_CAP:
        raise OrderOverflow(f"product order {total} exceeds cap {DEFAULT_ORDER_CAP}")
    grid = [[ratio(Var(DepVar(q + 1)) if p == q else ZERO) for q in range(m)]
            for p in range(m)]
    for f in reversed(factors):
        grid = [[pair_total([_apply_to_pair(f.entries[p][l], grid[l][q])
                              for l in range(m)
                              if grid[l][q][0] and f.entries[p][l].coeffs])
                 for q in range(m)] for p in range(m)]
    return tuple(tuple(_jet_poly(n, m, split_jet(cell, m)) for cell in row)
                 for row in grid)


# ---------------------------------------------------------------------------
# application to concrete functions

def _component(u_exprs: dict, j: int) -> Expr:
    if j not in u_exprs:
        raise ArityMismatch(f"no expression for component u{j}")
    return u_exprs[j]


def _subs_components(e: Expr, u_exprs):
    """Pair of e with each u^j replaced by u_exprs[j], cancelled."""
    values = {} if u_exprs is None else {  # expansion: u stays generic
        Var(v): ratio(_component(u_exprs, v.component))
        for v in expr_variables(e) if isinstance(v, DepVar)}
    return cancel(pair_substitute(ratio(e), values)) if values else ratio(e)


def apply_operator(op: DiffOperator, target: int, u_exprs: dict) -> Expr:
    """Apply an operator to component `target` of a concrete u."""
    return apply_to_expr(op, _component(u_exprs, target), u_exprs)


def apply_to_expr(op: DiffOperator, target_expr: Expr, u_exprs: dict) -> Expr:
    """Apply an operator to an explicit function of the base coordinates.

    Quasi-linear coefficients are evaluated along u_exprs before the
    derivatives act on the target.
    """
    return from_pair(_apply_to_pair(op, ratio(simplify(target_expr)), u_exprs))


def matrix_apply(mop: MatrixOperator, u_exprs: dict) -> tuple:
    """Row results of a matrix operator applied to a concrete u: entry
    (p, q) acts on component q + 1, with quasi-linear coefficients
    evaluated along u_exprs."""
    targets = [ratio(simplify(_component(u_exprs, q))) for q in range(1, mop.m + 1)]
    return tuple(from_pair(pair_total([
        cancel(_apply_to_pair(mop.entries[p][q], targets[q], u_exprs))
        for q in range(mop.m)])) for p in range(mop.m))


# ---------------------------------------------------------------------------
# reading an expansion back as an operator

def identify(jp: JetPolynomial, target: int):
    """Bucket a jet polynomial against the slots of component `target`.

    A monomial that is a single degree-one jet coordinate of the target,
    times order-0 factors that fold into the coefficient, goes to that
    coordinate's slot (k, h); a pure power of the target goes to (0, 1)
    after one factor is pulled out.  Returns ({(k, h): canonical
    coefficient}, [(monomial, coefficient)] of everything else); a slot
    that one monomial with no order-0 factor fills keeps its coefficient.
    """
    parts = {}
    others = []
    for mono, coeff in jp.terms:
        high = [(key, e) for key, e in mono if key[1] >= 1]
        lows = [(key, e) for key, e in mono if key[1] == 0]
        if len(high) == 1 and high[0][1] == 1 and high[0][0][0] == target:
            key, u = high[0][0][1:], tuple((Var(DepVar(j)), e) for (j, _, _), e in lows)
        elif not high and len(lows) == 1 and lows[0][0][0] == target:
            (_, e), = lows
            key, u = (0, 1), ((Var(DepVar(target)), e - 1),) if e > 1 else ()
        else:
            others.append((mono, coeff))
            continue
        parts.setdefault(key, []).append((coeff, u))
    buckets = {key: ps[0][0] if len(ps) == 1 and not ps[0][1] else from_pair(pair_total(
        [pair_product(ratio(c), ({u: Fraction(1)}, ratio(ONE)[1])) for c, u in ps]))
        for key, ps in parts.items()}
    return buckets, others


def operator_from_jet(jp: JetPolynomial, component: int = 1) -> DiffOperator:
    """Quasi-linear operator whose expansion is jp, if one exists.

    Each monomial must be a single jet coordinate of the given
    component, optionally times powers of order-0 components, which
    fold back into the coefficient.
    """
    buckets, others = identify(jp, component)
    if others:
        raise NotQuasiLinear(_no_slot(others[0][0], component, jp.n))
    coeffs = tuple((DerivIndex(k, h, jp.n), c) for (k, h), c in buckets.items() if c != ZERO)
    linear = not any(isinstance(v, DepVar) for _, c in coeffs for v in expr_variables(c))
    return DiffOperator(jp.n, jp.m, coeffs, linear)


def _no_slot(mono: JetMono, component: int, n: int) -> str:
    """Why `identify` found no operator slot for a monomial over n axes."""
    high = [((j, k, h), e) for (j, k, h), e in mono if k >= 1]
    if len(high) > 1 or (high and high[0][1] != 1):
        return f"monomial {render_mono(mono, n)} is not degree one in jets"
    if high:
        return f"jet coordinate of component u{high[0][0][0]}, expected u{component}"
    if not mono:
        return "free term with no dependence"
    return f"order-0 monomial {render_mono(mono, n)} mixes components"


# ---------------------------------------------------------------------------
# rendering

def render_mono(mono: JetMono, n: int) -> str:
    if not mono:
        return "1"
    parts = []
    for (j, k, h), e in mono:
        v = Var(DepVar(j)) if k == 0 else Var(JetVar(j, DerivIndex(k, h, n)))
        parts.append(render(v) if e == 1 else f"{render(v)}^{e}")
    return "*".join(parts)


def render_jet(jp: JetPolynomial) -> str:
    if not jp.terms:
        return "0"
    parts = []
    for mono, coeff in jp.terms:
        mtxt = render_mono(mono, jp.n)
        if coeff == ONE:
            txt = mtxt
        elif coeff == Const(Fraction(-1)):
            txt = f"-{mtxt}"
        else:
            ctxt = render(coeff)
            p = expr_to_poly(coeff)
            if p is None or len(p) > 1:
                ctxt = f"({ctxt})"
            txt = ctxt if mtxt == "1" else f"{ctxt}*{mtxt}"
        if parts:
            parts.append(" - " + txt[1:] if txt.startswith("-") else " + " + txt)
        else:
            parts.append(txt)
    return "".join(parts)
