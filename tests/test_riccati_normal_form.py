"""The normal-form Riccati solve against the old polynomial-system search.

The Riccati search used to substitute Y = sum c_d x1^d with one unknown
c_d per coefficient, collect the residual by powers of x1 and solve the
quadratic system in the c_d by branching.  That search is kept here as
an independent reference for the top-down solve of w^2 - w' = q.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor.cli import main
from opfactor.errors import EngineError, NonPolynomialCoefficients
from opfactor.expr import (Const, FuncSym, IndepVar, Power, Var, ZERO, cancel, diff,
                           expr_to_poly, fraction_sqrt, from_pair, pair_product,
                           pair_substitute, pair_total, pair_total_derivative, ratio,
                           simplify, sort_key)
from opfactor.factor import SearchConfig, riccati_from_operator, solve_riccati_ansatz
from opfactor.operator import make_operator
from opfactor.parse import parse_expr

X1 = Var(IndepVar(1))
ONE_POLY = ratio(Const(Fraction(1)))[1]


# ---------------------------------------------------------------------------
# the old search: unknowns c_d, a quadratic system, branch by branch


def _poly_substitute(p, values):
    return pair_substitute((p, ONE_POLY), {a: (v, ONE_POLY) for a, v in values.items()})[0]


def _c_degree(p, c):
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
    return p.get((), Fraction(0)) if set(p) <= {()} else None


def _univariate_roots(eq, c):
    by_deg = _c_degree(eq, c)
    a2, a1, a0 = (_constant(by_deg.get(d, {})) for d in (2, 1, 0))
    if a2 == 0:
        return [-a0 / a1] if a1 else []
    root = fraction_sqrt(a1 * a1 - 4 * a2 * a0)
    if root is None:
        return []
    return [(-a1 + r) / (2 * a2) for r in dict.fromkeys((root, -root))]


def _resolve(assignment, cvars):
    full = {c: assignment.get(c, {}) for c in cvars}
    for _ in range(len(cvars) + 1):
        changed = False
        for c, v in full.items():
            nv = _poly_substitute(v, full)
            if nv != v:
                full[c] = nv
                changed = True
        if not changed:
            break
    return full


def _solve_branch(equations, assignment, cvars, solutions):
    eqs = []
    for eq in equations:
        r = _poly_substitute(eq, assignment) if assignment else eq
        if not r:
            continue
        if _constant(r) is not None:
            return
        eqs.append(r)
    if not eqs:
        solutions.append(_resolve(assignment, cvars))
        return
    for eq in eqs:
        cs = {a for mono in eq for a, _ in mono}
        if len(cs) == 1:
            c, = cs
            for val in _univariate_roots(eq, c):
                _solve_branch(eqs, {**assignment, c: {(): val} if val else {}},
                              cvars, solutions)
            return
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


def old_search(prob, config):
    """Polynomial solutions Y of D(Y) - Y^2 + y1 Y + y0 = 0, the old way."""
    for c in (prob.y1, prob.y0):
        p = expr_to_poly(c)
        if p is None or any(a != X1 for mono in p for a, _ in mono):
            raise NonPolynomialCoefficients("not polynomial in x1")
    deg = config.ansatz_degree
    cvars = [Var(FuncSym("c", (d,))) for d in range(deg + 1)]
    Y = ratio(simplify(sum((c * Power(X1, d) for d, c in enumerate(cvars)), ZERO)))
    resid = cancel(pair_total([pair_total_derivative(Y, 1, 1),
                               pair_product(ratio(Const(Fraction(-1))), pair_product(Y, Y)),
                               pair_product(ratio(prob.y1), Y), ratio(prob.y0)]))[0]
    by_deg = _c_degree(resid, X1)
    solutions = []
    _solve_branch([by_deg[d] for d in sorted(by_deg, reverse=True)], {}, cvars[::-1], solutions)
    out = {}
    for sol in solutions:
        if not _poly_substitute(resid, sol):
            out.setdefault(from_pair((_poly_substitute(Y[0], sol), Y[1])))
    return sorted(out, key=sort_key)


# ---------------------------------------------------------------------------
# draws


def ode(g2, g1, g0):
    return make_operator(1, 1, {(2, 1): simplify(g2), (1, 1): simplify(g1),
                                (0, 1): simplify(g0)})


def split(lead, X, Y):
    """(X + lead D)(Y + D) = lead D^2 + (X + lead Y) D + X Y + lead Y'."""
    return ode(lead, X + lead * Y, X * Y + lead * diff(Y, IndepVar(1)))


rationals = st.sampled_from([Fraction(c) for c in (-3, -2, -1, 1, 2, 3)]
                            + [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)])
coefficients = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def polys(draw, max_degree=2):
    cs = draw(st.lists(coefficients, min_size=1, max_size=max_degree + 1))
    return simplify(sum((Const(c) * Power(X1, d) for d, c in enumerate(cs)), ZERO))


@st.composite
def leads(draw):
    """A nonzero constant or a linear polynomial."""
    a = draw(st.one_of(st.just(Fraction(0)), rationals))
    return simplify(Const(a) * X1 + Const(draw(rationals)))


@st.composite
def operators(draw):
    lead = draw(leads())
    kind = draw(st.sampled_from(["planted", "const-d", "perturbed", "random"]))
    if kind == "random":
        return ode(lead, draw(polys(3)), draw(polys(3)))
    Y = draw(polys())
    if kind == "const-d":
        # X - Y = d constant: (lead (D + Y + d))(D + Y)
        return split(lead, simplify(lead * (Y + Const(draw(rationals)))), Y)
    P = split(lead, simplify(lead * draw(polys())), Y)
    if kind == "perturbed":
        c = draw(st.sampled_from([Fraction(-1), Fraction(1), Fraction(2), Fraction(-2)]))
        P = ode(P.coeff(2, 1), P.coeff(1, 1), P.coeff(0, 1) + Const(c))
    return P


def outcome(search, P, degree):
    """The result list, or the type of the engine error raised."""
    try:
        return search(riccati_from_operator(P), SearchConfig(ansatz_degree=degree))
    except EngineError as err:
        return type(err)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(operators(), st.integers(0, 5))
def test_normal_form_matches_the_old_search(P, degree):
    assert outcome(solve_riccati_ansatz, P, degree) == outcome(old_search, P, degree)


@pytest.mark.parametrize("g2, g1, g0", [
    ("1", "0", "-x1^2 - 1"),  # (D + x1)(D - x1)
    ("1", "2*x1", "x1^2 + 1"),  # (D + x1)(D + x1)
    ("1", "x1", "0"),  # (D + x1)(D): Y = 0
    ("1", "0", "0"),  # q = 0
    ("1", "0", "-4"),  # q = 4: w = 2 and w = -2
    ("1", "0", "-x1"),  # Airy: q of odd degree
    ("1", "0", "x1^2 + 1"),  # q with a negative lead
    ("1", "-x1^3", "x1^2"),  # Y above the ansatz degree
    ("x1 + 1", "2*x1^2 + 2*x1", "x1^2 + x1"),  # linear lead
    ("1", "x1^6 + x1", "x1^7 + 1"),  # (D + x1^6)(D + x1): y1/2 above the ansatz degree
    ("1", "(x1 + 1)^12", "x1"),
])
@pytest.mark.parametrize("degree", [0, 1, 3, 5])
def test_normal_form_matches_the_old_search_on_named_operators(g2, g1, g0, degree):
    P = ode(*(parse_expr(t) for t in (g2, g1, g0)))
    assert outcome(solve_riccati_ansatz, P, degree) == outcome(old_search, P, degree)


# ---------------------------------------------------------------------------
# rational coefficients only: the known gap

# u'' + x1 u' + (x1^2/4 - 3/2) u = (D + x1/2 - sqrt(2))(D + x1/2 + sqrt(2)) u:
# q = 2, so w = +-sqrt(2) and Y = x1/2 +- sqrt(2) has an irrational coefficient
WITNESS = """[problem]
kind = linear-ode

[operator]
g[2,1] = "1"
g[1,1] = "x1"
g[0,1] = "x1^2/4 - 3/2"
"""

WITNESS_SPLIT = """
[Q1]
b[0,1] = "x1/2 - sqrt(2)"
b[1,1] = "1"

[Q2]
b[0,1] = "x1/2 + sqrt(2)"
b[1,1] = "1"
"""


def test_the_irrational_witness_checks(tmp_path, capsys):
    path = tmp_path / "witness.ini"
    path.write_text(WITNESS + WITNESS_SPLIT, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.startswith("PASS")


@pytest.mark.parametrize("degree", ["3", "5"])
def test_the_irrational_witness_is_not_found(tmp_path, capsys, degree):
    path = tmp_path / "witness.ini"
    path.write_text(WITNESS, encoding="utf-8")
    assert main(["factor", "--ansatz-degree", degree, str(path)]) == 1
    assert capsys.readouterr().out == ("NoSolutionInAnsatz: no polynomial Riccati solution "
                                       f"with rational coefficients of degree <= {degree}\n")
    assert main(["factor", "--json", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["candidates"], doc["verdict"]) == ([], "NoSolutionInAnsatz")
