"""Differential operators and exact product expansion.

An operator is a finite sum of coefficient functions times derivative
slots.  Applying an operator to a generic dependent component and
expanding yields a jet polynomial: a sum of monomials in jet
coordinates (order >= 0) with coefficients depending on the base
coordinates only.  Slots that agree up to permutation of axes are
merged onto the smallest slot while expanding, so two expansions are
equal exactly when their jet polynomials are structurally equal.

Products expand right to left: the rightmost factor is applied to a
generic component first, then each next factor differentiates totally
through the jet coordinates, which is where quasi-linear coefficients
pick up their chain rule terms.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ArityMismatch, NotQuasiLinear, OrderOverflow, ShapeMismatch
from .expr import (Const, DepVar, Div, Expr, IndepVar, JetVar, Power, Product,
                   Sum, Var, ZERO, ONE, expr_variables, render, simplify,
                   substitute, sum_exprs, total_derivative)
from .jet import DerivIndex, canonical_slot, index_to_axes

DEFAULT_ORDER_CAP = 6

# A jet monomial maps (component, order, slot) to an exponent; stored as a
# sorted tuple of ((j, k, h), exp) with slots Schwarz-canonical.
JetMono = tuple


def _mono_sorted(d: dict) -> JetMono:
    return tuple(sorted((key, e) for key, e in d.items() if e))


def _jet_mono_key(mono: JetMono):
    return (max((k for (_, k, _), _ in mono), default=-1),
            sum(e for _, e in mono), mono)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class JetPolynomial:
    """Canonical expansion result: sorted (monomial, coefficient) terms."""

    n: int
    m: int
    terms: tuple  # ((JetMono, Expr), ...)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def coeff(self, mono: JetMono) -> Expr:
        return self.as_dict().get(mono, ZERO)

    @property
    def order(self) -> int:
        return max((k for mono, _ in self.terms for (_, k, _), _ in mono), default=0)

    def __add__(self, other):
        acc = dict(self.terms)
        for mono, c in other.terms:
            acc[mono] = acc.get(mono, ZERO) + c
        return _jet_poly(self.n, self.m, acc)

    def to_expr(self) -> Expr:
        """Expression with explicit jet variables (slots canonical)."""
        out = ZERO
        for mono, c in self.terms:
            term = c
            for (j, k, h), e in mono:
                v = Var(DepVar(j)) if k == 0 else Var(JetVar(j, DerivIndex(k, h, self.n)))
                term = term * Power(v, e) if e > 1 else term * v
            out = out + term
        return simplify(out)


def _jet_poly(n: int, m: int, acc: dict) -> JetPolynomial:
    terms = []
    for mono, c in acc.items():
        c = simplify(c)
        if c != ZERO:
            terms.append((mono, c))
    terms.sort(key=lambda t: _jet_mono_key(t[0]), reverse=True)
    return JetPolynomial(n, m, tuple(terms))


def _split_terms(e: Expr, n: int, m: int) -> list:
    """Split an expression into (jet monomial, coefficient) pieces.

    Polynomial occurrences of dependent components and jet coordinates
    move into the monomial; anything else (independent variables,
    opaque symbols, function atoms, quotients with dependence in the
    denominator) stays in the coefficient.
    """
    e = simplify(e)
    if e == ZERO:
        return []
    if isinstance(e, Div):
        den_vars = expr_variables(e.den)
        if any(isinstance(v, JetVar) for v in den_vars):
            raise NotQuasiLinear("jet coordinate in a denominator")
        if any(isinstance(v, DepVar) for v in den_vars):
            return [((), e)]
        return [(mono, simplify(Div(c, e.den)))
                for mono, c in _split_terms(e.num, n, m)]
    pieces = []
    terms = e.terms if isinstance(e, Sum) else (e,)
    for term in terms:
        factors = term.factors if isinstance(term, Product) else (term,)
        mono = {}
        coeff = ONE
        for f in factors:
            base, exp = (f.base, f.exp) if isinstance(f, Power) else (f, 1)
            if isinstance(base, Var) and isinstance(base.vid, DepVar):
                j = base.vid.component
                if j > m:
                    raise ArityMismatch(f"component u{j} out of range for m={m}")
                key = (j, 0, 1)
                mono[key] = mono.get(key, 0) + exp
            elif isinstance(base, Var) and isinstance(base.vid, JetVar):
                d = canonical_slot(base.vid.index)
                j = base.vid.component
                if j > m:
                    raise ArityMismatch(f"component u{j} out of range for m={m}")
                key = (j, d.k, d.h)
                mono[key] = mono.get(key, 0) + exp
            else:
                coeff = coeff * f
        pieces.append((_mono_sorted(mono), simplify(coeff)))
    return pieces


def jet_polynomial(n: int, m: int, e: Expr) -> JetPolynomial:
    """Canonical jet polynomial of an expression in jet coordinates."""
    acc = {}
    for mono, c in _split_terms(e, n, m):
        acc[mono] = acc.get(mono, ZERO) + c
    return _jet_poly(n, m, acc)


def _apply_to_jet(op: DiffOperator, jp: JetPolynomial) -> JetPolynomial:
    """Apply one operator to an already expanded jet polynomial."""
    acc = {}
    derived_cache = {(): jp.to_expr()}

    def derived(axes):
        if axes not in derived_cache:
            derived_cache[axes] = total_derivative(derived(axes[:-1]), axes[-1], op.n)
        return derived_cache[axes]

    for d, coeff in op.coeffs:
        contribution = simplify(coeff * derived(index_to_axes(d)))
        for mono, c in _split_terms(contribution, op.n, op.m):
            acc[mono] = acc.get(mono, ZERO) + c
    return _jet_poly(op.n, op.m, acc)


def generic_jet(n: int, m: int, component: int) -> JetPolynomial:
    """The jet polynomial of the bare component u^component."""
    return JetPolynomial(n, m, (((((component, 0, 1), 1),), ONE),))


def expand_product(factors, order_cap: int = DEFAULT_ORDER_CAP) -> JetPolynomial:
    """Expand the product of scalar factors applied to a generic component.

    The (1, 1) cell of `matrix_expand_product` over the factors as 1x1
    systems.
    """
    return matrix_expand_product([as_matrix(f) for f in factors], order_cap)[0][0]


def matrix_expand_product(factors, order_cap: int = DEFAULT_ORDER_CAP):
    """Expand a product of matrix operators with target-column tracking.

    Returns an m x m tuple grid; cell (p, q) is the jet polynomial of
    everything row p picks up from source component q, so that row p of
    the product applied to u is the sum of its row cells.  Folds right
    to left: the last factor acts first.  Raises OrderOverflow when the
    accumulated order would exceed `order_cap`.
    """
    if not factors:
        raise ValueError("need at least one factor")
    n, m = factors[0].n, factors[0].m
    for f in factors:
        if f.n != n or f.m != m:
            raise ShapeMismatch("factors live over different dimensions")
    total = sum(f.order for f in factors)
    if total > order_cap:
        raise OrderOverflow(f"product order {total} exceeds cap {order_cap}")
    empty = JetPolynomial(n, m, ())
    grid = [[generic_jet(n, m, q + 1) if p == q else empty for q in range(m)]
            for p in range(m)]
    for f in reversed(factors):
        new = [[empty] * m for _ in range(m)]
        for p in range(m):
            for q in range(m):
                parts = [_apply_to_jet(f.entries[p][l], grid[l][q]) for l in range(m)
                         if grid[l][q].terms and f.entries[p][l].coeffs]
                if parts:
                    new[p][q] = sum(parts[1:], parts[0])
        grid = new
    return tuple(tuple(row) for row in grid)


# ---------------------------------------------------------------------------
# application to concrete functions

def _component(u_exprs: dict, j: int) -> Expr:
    if j not in u_exprs:
        raise ArityMismatch(f"no expression for component u{j}")
    return u_exprs[j]


def _subs_components(e: Expr, u_exprs: dict) -> Expr:
    mapping = {v: _component(u_exprs, v.component)
               for v in expr_variables(e) if isinstance(v, DepVar)}
    return substitute(e, mapping) if mapping else e


def apply_operator(op: DiffOperator, target: int, u_exprs: dict) -> Expr:
    """Apply an operator to component `target` of a concrete u."""
    return apply_to_expr(op, _component(u_exprs, target), u_exprs)


def apply_to_expr(op: DiffOperator, target_expr: Expr, u_exprs: dict) -> Expr:
    """Apply an operator to an explicit function of the base coordinates.

    Quasi-linear coefficients are evaluated along u_exprs before the
    derivatives act on the target.
    """
    out = ZERO
    for d, coeff in op.coeffs:
        val = target_expr
        for axis in index_to_axes(d):
            val = total_derivative(val, axis, op.n)
        out = out + _subs_components(coeff, u_exprs) * val
    return simplify(out)


def matrix_apply(mop: MatrixOperator, u_exprs: dict, targets=None) -> tuple:
    """Row results of a matrix operator applied to a concrete u.

    Entry (p, q) acts on targets[q], component q + 1 of u by default;
    quasi-linear coefficients are evaluated along u_exprs either way.
    """
    if targets is None:
        targets = [_component(u_exprs, q) for q in range(1, mop.m + 1)]
    return tuple(sum_exprs([apply_to_expr(mop.entries[p][q], targets[q], u_exprs)
                            for q in range(mop.m)])
                 for p in range(mop.m))


# ---------------------------------------------------------------------------
# reading an expansion back as an operator

def identify(jp: JetPolynomial, target: int):
    """Bucket a jet polynomial against the slots of component `target`.

    A monomial that is a single degree-one jet coordinate of the target,
    times order-0 factors that fold into the coefficient, goes to that
    coordinate's slot (k, h); a pure power of the target goes to (0, 1)
    after one factor is pulled out.  Returns ({(k, h): unsimplified
    coefficient sum}, [(monomial, coefficient)] of everything else).
    """
    buckets = {}
    others = []
    for mono, coeff in jp.terms:
        high = [(key, e) for key, e in mono if key[1] >= 1]
        lows = [(key, e) for key, e in mono if key[1] == 0]
        if len(high) == 1 and high[0][1] == 1 and high[0][0][0] == target:
            key = high[0][0][1:]
            extra = ONE
            for (j, _, _), e in lows:
                v = Var(DepVar(j))
                extra = extra * (Power(v, e) if e > 1 else v)
        elif not high and len(lows) == 1 and lows[0][0][0] == target:
            e = lows[0][1]
            key = (0, 1)
            extra = Power(Var(DepVar(target)), e - 1) if e > 2 else (
                Var(DepVar(target)) if e == 2 else ONE)
        else:
            others.append((mono, coeff))
            continue
        buckets[key] = buckets.get(key, ZERO) + coeff * extra
    return buckets, others


def operator_from_jet(jp: JetPolynomial, component: int = 1) -> DiffOperator:
    """Quasi-linear operator whose expansion is jp, if one exists.

    Each monomial must be a single jet coordinate of the given
    component, optionally times powers of order-0 components, which
    fold back into the coefficient.
    """
    buckets, others = identify(jp, component)
    if others:
        raise NotQuasiLinear(_no_slot(others[0][0], component))
    op = make_operator(jp.n, jp.m, buckets, linear=False)
    linear = not any(isinstance(v, DepVar)
                     for _, c in op.coeffs for v in expr_variables(c))
    return replace(op, linear=True) if linear else op


def _no_slot(mono: JetMono, component: int) -> str:
    """Why `identify` found no operator slot for a monomial."""
    high = [((j, k, h), e) for (j, k, h), e in mono if k >= 1]
    if len(high) > 1 or (high and high[0][1] != 1):
        return f"monomial {mono} is not degree one in jets"
    if high:
        return f"jet coordinate of component u{high[0][0][0]}, expected u{component}"
    if not mono:
        return "free term with no dependence"
    return f"order-0 monomial {mono} mixes components"


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
            if isinstance(coeff, (Sum, Div)):
                ctxt = f"({ctxt})"
            txt = ctxt if mtxt == "1" else f"{ctxt}*{mtxt}"
        if parts:
            parts.append(" - " + txt[1:] if txt.startswith("-") else " + " + txt)
        else:
            parts.append(txt)
    return "".join(parts)
