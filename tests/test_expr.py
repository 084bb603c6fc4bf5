"""Canonical form, differentiation, and evaluation of the expression core."""

import math
import re
import struct
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import expr
from opfactor.errors import CapacityExceeded, DomainError
from opfactor.expr import (
    _ONE_POLY,
    _poly_mul,
    _poly_pow,
    _total_leaf,
    Const,
    DepVar,
    Div,
    Expr,
    Fun,
    FuncSym,
    IndepVar,
    JetVar,
    ONE,
    Power,
    Product,
    Sum,
    Var,
    ZERO,
    cancel,
    compile_float,
    const,
    diff,
    evaluate,
    expr_variables,
    is_constant,
    is_zero,
    pair_product,
    pair_sum,
    pair_total,
    pair_total_derivative,
    poly_sqrt,
    ratio,
    render,
    simplify,
    sort_key,
    substitute,
    total_derivative,
    u_,
    x_,
)
from opfactor.jet import DerivIndex, Jet, canonical_slot
from opfactor.parse import parse_expr


def P(text: str) -> Expr:
    return simplify(parse_expr(text))


def _cancel(num, den):
    return cancel((num, den))


def _subs(e: Expr, mapping: dict) -> Expr:
    """Tree substitution: each Var that mapping maps is replaced, inside
    function arguments too, and nothing is simplified."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.vid, e)
    if isinstance(e, Sum):
        return Sum(tuple(_subs(t, mapping) for t in e.terms))
    if isinstance(e, Product):
        return Product(tuple(_subs(f, mapping) for f in e.factors))
    if isinstance(e, Power):
        return Power(_subs(e.base, mapping), e.exp)
    if isinstance(e, Div):
        return Div(_subs(e.num, mapping), _subs(e.den, mapping))
    return Fun(e.name, _subs(e.arg, mapping))


# ---------------------------------------------------------------------------
# canonical form


def test_simplify_collects_like_terms():
    assert P("x1 + x1") == P("2*x1")
    assert P("x1*x2 - x2*x1") == ZERO
    assert P("(x1 + 1)^2") == P("x1^2 + 2*x1 + 1")
    assert P("(x1 + x2)*(x1 - x2)") == P("x1^2 - x2^2")


def test_simplify_idempotent_on_samples():
    for text in [
        "x1^3 - 3*x1 + 2",
        "(x1 + u1)^2 / (x1 - 1)",
        "exp(x1)*sin(x2) + exp(x1)*sin(x2)",
        "2/3 * x1 * x2^2 - x2^2 * x1 / 3",
    ]:
        e = simplify(parse_expr(text))
        assert simplify(e) == e


def test_constant_arithmetic():
    assert P("2 + 3*4") == const(14)
    assert P("1/2 + 1/3") == const(Fraction(5, 6))
    assert P("(2/3)^2") == const(Fraction(4, 9))
    assert is_zero(P("5 - 5"))


def test_division_cancellation():
    assert P("x1^2/x1") == P("x1")
    assert P("(6*x1)/4") == P("(3/2)*x1")
    assert P("(x1 - 1)/(x1 - 1)") == ONE
    # quotients agree once the denominator content is normalized out
    assert P("(2*x1 + 2)/(4*x1 + 4)") == P("(x1 + 1)/(2*x1 + 2)")
    assert evaluate(P("(2*x1 + 2)/(4*x1 + 4)"), {IndepVar(1): 3.0}) == pytest.approx(0.5)


@pytest.mark.parametrize("text, canonical", [
    ("(x1^2 - 1)/(x1 - 1)", "x1 + 1"),
    ("(x1^2 - x2^2)/(x1 + x2)", "-x2 + x1"),
    ("(x1^2 + 2*x1 + 1)/(2*x1^2 - 2)", "((1/2)*x1 + 1/2)/(x1 - 1)"),
    ("(x1 + 1)/(exp(x1)*x1 + exp(x1))", "exp(-x1)"),
    # a zero term no longer multiplies its denominator into the sum
    ("0/(x1 + 1) + x2/(x1 + 2)", "x2/(x1 + 2)"),
])
def test_quotients_cancel_their_polynomial_gcd(text, canonical):
    assert render(P(text)) == canonical


def test_a_gcd_candidate_that_does_not_divide_is_retried(monkeypatch):
    # at its first evaluation point this quotient yields a candidate gcd
    # that does not divide; it is rejected, and a later point finds the
    # true gcd 3 - 3*x2
    rejected = []
    quotient = expr._exact_quotient

    def spy(f, h):
        q = quotient(f, h)
        if q is None:
            rejected.append(h)
        return q
    monkeypatch.setattr(expr, "_exact_quotient", spy)
    got = P("((-x1*x2 - 1)*(3 - 3*x2))/((-3 + 3*x2)*(3 - 3*x2))")
    assert rejected
    assert render(got) == "(-(1/3)*x1*x2 - 1/3)/(x2 - 1)"


def test_the_gcd_bounds_its_work_before_building_an_image():
    # 24 exp atoms on each side: a single Kronecker image of all atoms
    # would take millions of bits; evaluated one atom at a time, the
    # images of these sparse sides stay small and the common factor goes
    def side(shift):
        return sum((Fun("exp", const(k) * x_(1) + const(k + shift) * x_(2)) * (x_(1) + const(k))
                    for k in range(1, 25)), ZERO)
    common = x_(1) + x_(2) + const(1)
    for num, den in ((side(0), side(0) + x_(2)), (side(0), side(1))):
        start = time.perf_counter()
        got = simplify(Div(Product((num, common)), Product((den, common))))
        assert time.perf_counter() - start < 1.0
        assert got._polys == _cancel(ratio(simplify(num))[0], ratio(simplify(den))[0])


def test_a_gcd_over_the_bit_cap_leaves_the_pair_uncancelled(monkeypatch):
    # past MAX_GCD_BITS no image is built and the pair stays as the
    # monomial, content and constant-multiple steps leave it
    monkeypatch.setattr(expr, "MAX_GCD_BITS", 8)
    num, den = ratio(P("2*x1^2 - 2"))[0], ratio(P("4*x1 - 4"))[0]
    assert _cancel(num, den) == ({((x_(1), 2),): Fraction(1, 2), (): Fraction(-1, 2)},
                                 {((x_(1), 1),): Fraction(1), (): Fraction(-1)})


def test_division_by_zero_rejected():
    from opfactor.errors import DomainError

    with pytest.raises(DomainError):
        simplify(Div(x_(1), ZERO))


@pytest.mark.parametrize("text", ["x1/(1/0)", "(1/0)^(-2)", "(x1 - x1)^(-1)",
                                  "x1/(0*x2)"])
def test_dividing_by_an_undefined_or_zero_quotient_raises(text):
    # inverting 1/0 used to swap its empty denominator into a zero numerator
    from opfactor.errors import DomainError

    with pytest.raises(DomainError, match="division by a zero expression"):
        simplify(parse_expr(text))


def test_sqrt_of_square_collapses():
    s = simplify(Fun("sqrt", const(5)))
    assert simplify(Product((s, s))) == const(5)
    assert simplify(Power(s, 2)) == const(5)


@pytest.mark.parametrize("text", ["sqrt(8) - 2*sqrt(2)", "sqrt(1/2) - sqrt(2)/2",
                                  "sqrt(72)*sqrt(2) - 12", "sqrt(12/5) - (2/5)*sqrt(15)",
                                  "sqrt(2*997^2) - 997*sqrt(2)"])
def test_constant_surds_shed_their_square_factors(text):
    # sqrt(8) and sqrt(2) used to be unrelated atoms
    assert P(text) == ZERO


def test_constant_surd_forms_that_stay_open():
    assert render(P("sqrt(8)")) == "2*sqrt(2)"
    assert render(P("sqrt(1/2)")) == "(1/2)*sqrt(2)"
    # a square factor of a prime past the trial bound stays under the
    # root, and distinct surds do not multiply into one
    assert expr.SURD_TRIAL_PRIMES < 1009
    assert render(P("sqrt(2*1009^2)")) == "sqrt(2036162)"
    assert P("sqrt(2)*sqrt(3) - sqrt(6)") != ZERO


def test_operator_sugar():
    e = x_(1) + x_(2)
    assert simplify(e) == P("x1 + x2")
    assert simplify(x_(1) * x_(1)) == P("x1^2")
    assert simplify(-x_(1)) == P("-x1")
    assert simplify(x_(1) - x_(1)) == ZERO


def test_render_roundtrip():
    for text in ["x1^2 - 2*x1 + 1", "u1*x2", "exp(x1)", "-x1 - 1", "(1/2)*u1"]:
        e = P(text)
        assert P(render(e)) == e


# ---------------------------------------------------------------------------
# variables and constancy


def test_expr_variables():
    e = P("x1*u1 + exp(x2)")
    names = expr_variables(e)
    assert IndepVar(1) in names
    assert IndepVar(2) in names
    assert DepVar(1) in names


def test_is_constant():
    assert is_constant(const(7))
    assert is_constant(simplify(Fun("sqrt", const(2))))
    assert not is_constant(P("x1"))


def test_substitute():
    e = P("x1^2 + u1")
    out = simplify(substitute(e, {IndepVar(1): const(3)}))
    assert out == P("u1 + 9")
    out2 = simplify(substitute(e, {DepVar(1): P("x1")}))
    assert out2 == P("x1^2 + x1")


# ---------------------------------------------------------------------------
# differentiation


def test_diff_polynomial():
    assert diff(P("x1^3"), IndepVar(1)) == P("3*x1^2")
    assert diff(P("x1*x2"), IndepVar(2)) == P("x1")
    assert diff(P("u1^2"), DepVar(1)) == P("2*u1")
    assert diff(const(5), IndepVar(1)) == ZERO


def test_diff_functions():
    assert diff(P("exp(2*x1)"), IndepVar(1)) == P("2*exp(2*x1)")
    assert diff(P("sin(x1)"), IndepVar(1)) == P("cos(x1)")
    assert diff(P("cos(x1)"), IndepVar(1)) == P("-sin(x1)")
    assert diff(P("log(x1)"), IndepVar(1)) == P("1/x1")


def test_diff_quotient():
    e = P("x1 / (x1 + 1)")
    d = simplify(diff(e, IndepVar(1)))
    assert d == P("1/(x1^2 + 2*x1 + 1)")


def test_funcsym_partial_derivatives():
    f = FuncSym("Y", (), derivs=(), deps=(("x", 1),))
    e = Var(f)
    d = simplify(diff(e, IndepVar(1)))
    assert d == Var(FuncSym("Y", (), derivs=(("x", 1),), deps=(("x", 1),)))
    assert diff(e, IndepVar(2)) == ZERO


def test_funcsym_without_deps_is_constant():
    c = Var(FuncSym("c", (0,)))
    assert diff(c, IndepVar(1)) == ZERO
    assert total_derivative(c, 1, 1) == ZERO


def test_total_derivative_chain_rule():
    e = P("x1*u1")
    d = simplify(total_derivative(e, 1, 1))
    ux = JetVar(1, DerivIndex(1, 1, 1))
    assert d == simplify(u_(1) + x_(1) * Var(ux))


def canon_slots(e: Expr) -> Expr:
    """Send every jet coordinate to its canonical (sorted axis word) slot."""
    mapping = {}
    for v in expr_variables(e):
        if isinstance(v, JetVar):
            mapping[v] = Var(JetVar(v.component, canonical_slot(v.index)))
    return simplify(substitute(e, mapping))


def test_total_derivative_commutes_up_to_slot_twins():
    e = P("x1^2 * x2 + u1*x2")
    d12 = simplify(total_derivative(total_derivative(e, 1, 2), 2, 2))
    d21 = simplify(total_derivative(total_derivative(e, 2, 2), 1, 2))
    assert d12 != d21
    assert canon_slots(d12) == canon_slots(d21)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_basic():
    e = P("x1^2 + 2*x1 + 1")
    assert evaluate(e, {IndepVar(1): 2.0}) == pytest.approx(9.0)
    assert evaluate(P("exp(x1)"), {IndepVar(1): 1.0}) == pytest.approx(math.e)
    assert evaluate(P("sqrt(2)"), {}) == pytest.approx(math.sqrt(2))


def test_evaluate_domain_errors():
    from opfactor.errors import DomainError

    with pytest.raises(DomainError):
        evaluate(P("1/x1"), {IndepVar(1): 0.0})
    with pytest.raises(DomainError):
        evaluate(P("log(x1)"), {IndepVar(1): -1.0})
    with pytest.raises(DomainError):
        evaluate(Fun("sqrt", x_(1)), {IndepVar(1): -4.0})
    # float overflow and infinite trigonometric arguments are domain
    # errors too, never OverflowError or ValueError
    with pytest.raises(DomainError):
        evaluate(P("x1^400"), {IndepVar(1): 1e200})
    with pytest.raises(DomainError):
        evaluate(Power(x_(1), -400), {IndepVar(1): 1e-200})
    with pytest.raises(DomainError):
        evaluate(Const(Fraction(10) ** 400), {})
    with pytest.raises(DomainError):
        evaluate(Fun("sin", Div(const(10) ** 308, x_(1))), {IndepVar(1): 0.5})
    with pytest.raises(DomainError):
        evaluate(Fun("cos", x_(1)), {IndepVar(1): -math.inf})


# ---------------------------------------------------------------------------
# compiled evaluation


def _outcome(fn):
    """Float bits of fn(), with every NaN alike, or the exception type."""
    try:
        v = fn()
    except Exception as err:  # the comparison is of exception types
        return ("raises", type(err))
    return ("nan",) if math.isnan(v) else ("value", struct.pack("<d", v))


def _same_as_evaluate(e, vids, xs):
    f = compile_float(e, vids)
    got = _outcome(lambda: f(*xs))
    assert got == _outcome(lambda: evaluate(e, dict(zip(vids, xs))))
    return got


VIDS = (IndepVar(1), IndepVar(2), DepVar(1))


@st.composite
def float_exprs(draw, depth=0, powers=(-3, -2, -1, 0, 1, 2, 3, 5, 40)):
    # mostly variables and small constants; rarely zero or a constant
    # too large for a float
    leaf = st.sampled_from([Var(v) for v in VIDS] * 4 + [ZERO, Const(Fraction(10) ** 400)]
                           + [None] * 4).flatmap(
        lambda v: st.just(v) if v is not None else st.fractions(-9, 9, max_denominator=50).map(const))
    if depth >= 4:
        return draw(leaf)
    branch = draw(st.integers(0, 5))
    if branch == 0:
        return draw(leaf)
    sub = float_exprs(depth=depth + 1, powers=powers)
    if branch == 1:
        return Sum(tuple(draw(st.lists(sub, min_size=2, max_size=4))))
    if branch == 2:
        return Product(tuple(draw(st.lists(sub, min_size=2, max_size=3))))
    if branch == 3:
        return Power(draw(sub), draw(st.sampled_from(powers)))
    if branch == 4:
        return Div(draw(sub), draw(sub))
    return Fun(draw(st.sampled_from(["exp", "log", "sin", "cos", "sqrt"])), draw(sub))


binding_floats = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e-200, math.inf]),
    st.floats(allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(float_exprs(), st.tuples(binding_floats, binding_floats, binding_floats))
def test_compile_float_matches_evaluate_bitwise(e, xs):
    _same_as_evaluate(e, VIDS, xs)


def test_each_compiled_function_has_its_own_file_name():
    # a profile keys functions by file, line and name: one shared name
    # folded every compiled coefficient into one entry
    f, g = (compile_float(P("x1 + 1"), VIDS) for _ in range(2))
    assert f.__code__.co_filename != g.__code__.co_filename
    assert re.fullmatch(r"<compile_float \d+>", f.__code__.co_filename)


def test_compile_float_long_sum_and_deep_nesting():
    x = x_(1)
    # rounding makes this sum depend on the order of its terms
    long_sum = Sum(tuple(Product((const(Fraction(1, k + 1)), Power(x, k % 7)))
                         for k in range(5000)))
    assert _same_as_evaluate(long_sum, (IndepVar(1),), (0.3,))[0] == "value"
    deep = x
    for i in range(400):
        c = const(Fraction(i + 2, 3))
        deep = (Sum((deep, c)), Product((deep, c)), Div(deep, c), Fun("sin", deep))[i % 4]
    assert _same_as_evaluate(deep, (IndepVar(1),), (0.25,))[0] == "value"


def test_compile_float_raises_where_evaluate_does():
    from opfactor.errors import DomainError, UnboundVariable

    x = (IndepVar(1),)
    # an unbound variable or an oversized constant fails only when reached
    f = compile_float(P("1/x1 + x2"), x)
    with pytest.raises(DomainError):
        f(0.0)
    with pytest.raises(UnboundVariable, match="x2"):
        f(1.0)
    g = compile_float(Div(Const(Fraction(10) ** 400), x_(1)), x)
    with pytest.raises(DomainError, match="division by zero"):
        g(0.0)
    with pytest.raises(DomainError, match="constant too large"):
        g(1.0)


# ---------------------------------------------------------------------------
# evaluation on Taylor jets

X1, X2 = IndepVar(1), IndepVar(2)

# position in multi_indices(2, 2) -> (axes differentiated, k!-style divisor)
TAYLOR_SLOTS = {1: ((X1,), 1.0), 2: ((X2,), 1.0),
                3: ((X1, X1), 2.0), 4: ((X1, X2), 1.0), 5: ((X2, X2), 2.0)}

jet_points = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                       st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 1e-3))


def _partial(e, axes, point):
    """diff of e along axes at a point, substituted exactly before the
    float evaluation: diff's expanded rational form can lose digits to
    cancellation (7 of them for (x1/(x1 + x2 - 13/9))^-3 at (1/2, 1))."""
    for v in axes:
        e = diff(e, v)
    return evaluate(simplify(substitute(e, {v: Const(Fraction(x)) for v, x in point.items()})), {})


def _sqrt_args(e):
    """Arguments of the square roots in e."""
    children = {Sum: lambda: e.terms, Product: lambda: e.factors, Power: lambda: (e.base,),
                Div: lambda: (e.num, e.den), Fun: lambda: (e.arg,)}.get(type(e), tuple)()
    for child in children:
        yield from _sqrt_args(child)
    if isinstance(e, Fun) and e.name == "sqrt":
        yield e.arg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(float_exprs(depth=1, powers=(-3, -2, -1, 0, 1, 2, 3)), jet_points, jet_points, jet_points)
def test_jets_carry_the_value_and_two_orders_of_derivatives(e, x1, x2, u1):
    from opfactor.errors import DomainError

    floats = {X1: x1, X2: x2, DepVar(1): u1}
    jets = {X1: Jet.variable(x1, 1, 2, 2), X2: Jet.variable(x2, 2, 2, 2), DepVar(1): u1}
    value = _outcome(lambda: evaluate(e, floats))
    try:
        jet = evaluate(e, jets)
    except DomainError:
        # only where the value or a derivative is undefined, or where a
        # square root is taken at zero, which has no derivative
        assert value == ("raises", DomainError) or any(
            _outcome(lambda: _partial(e, axes, floats)) == ("raises", DomainError)
            for axes, _ in TAYLOR_SLOTS.values()) or any(
            _outcome(lambda: evaluate(arg, floats)) in (_outcome(lambda: 0.0), _outcome(lambda: -0.0))
            for arg in _sqrt_args(e))
        return
    if not isinstance(jet, Jet):  # e does not depend on x1 or x2
        assert _outcome(lambda: jet) == value
        return
    # the constant term has the float bits, and raises where floats do
    assert _outcome(lambda: jet.c[0]) == value
    if value[0] != "value":
        return
    for pos, (axes, divisor) in TAYLOR_SLOTS.items():
        try:
            want = _partial(e, axes, floats) / divisor
        except DomainError:
            continue
        got = jet.c[pos]
        if math.isfinite(want) and math.isfinite(got):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want)), (pos, got, want)


def test_jet_domain_rules_check_the_constant_term():
    from opfactor.errors import DomainError

    at = lambda x: {X1: Jet.variable(x, 1, 1, 2)}
    for text, bad, good in [("log(x1)", -0.5, 0.5), ("sqrt(x1)", -0.5, 0.5),
                            ("1/x1", 0.0, 0.5), ("x1^(-2)", 0.0, 0.5),
                            ("exp(x1 + 700)", 1.0, -1.0), ("sqrt(x1 + x1^2)", 0.0, 0.5)]:
        with pytest.raises(DomainError):
            evaluate(P(text), at(bad))
        jet = evaluate(P(text), at(good))
        assert jet.c[0] == evaluate(P(text), {X1: good})
        assert jet.c[1] == pytest.approx(evaluate(diff(P(text), X1), {X1: good}), rel=1e-12)
    # a constant jet under a square root has no derivative to lose
    assert evaluate(Fun("sqrt", Product((ZERO, x_(1)))), at(0.5)).c == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# polynomial square root


def test_poly_sqrt_perfect_squares():
    assert poly_sqrt(P("x1^2 + 2*x1 + 1")) in (P("x1 + 1"), P("-x1 - 1"))
    assert poly_sqrt(P("4*x1^2")) in (P("2*x1"), P("-2*x1"))
    sq = P("(x1^2 - x2 + 3)^2")
    root = poly_sqrt(sq)
    assert root is not None
    assert simplify(root * root) == sq


def test_poly_sqrt_rejects_non_squares():
    assert poly_sqrt(P("x1")) is None
    assert poly_sqrt(P("x1^2 + 1")) is None
    assert poly_sqrt(P("-x1^2")) is None


# ---------------------------------------------------------------------------
# property tests


@st.composite
def poly_exprs(draw, depth=0):
    leaf = st.one_of(
        st.integers(-4, 4).map(const),
        st.sampled_from([x_(1), x_(2), u_(1)]),
    )
    if depth >= 3:
        return draw(leaf)
    branch = draw(st.integers(0, 3))
    if branch == 0:
        return draw(leaf)
    a = draw(poly_exprs(depth=depth + 1))
    b = draw(poly_exprs(depth=depth + 1))
    if branch == 1:
        return Sum((a, b))
    if branch == 2:
        return Product((a, b))
    return Power(a, draw(st.integers(0, 2)))


BINDINGS = {IndepVar(1): 1.25, IndepVar(2): -0.5, DepVar(1): 2.0}


@settings(max_examples=150, deadline=None)
@given(poly_exprs())
def test_simplify_preserves_value(e):
    assert evaluate(simplify(e), BINDINGS) == pytest.approx(
        evaluate(e, BINDINGS), rel=1e-9, abs=1e-9
    )


@settings(max_examples=150, deadline=None)
@given(poly_exprs())
def test_simplify_idempotent(e):
    s = simplify(e)
    assert simplify(s) == s


@settings(max_examples=100, deadline=None)
@given(poly_exprs(), poly_exprs())
def test_diff_is_linear(a, b):
    v = IndepVar(1)
    lhs = simplify(diff(simplify(Sum((a, b))), v))
    rhs = simplify(Sum((diff(simplify(a), v), diff(simplify(b), v))))
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(poly_exprs(), poly_exprs())
def test_diff_product_rule(a, b):
    v = IndepVar(1)
    sa, sb = simplify(a), simplify(b)
    lhs = simplify(diff(simplify(Product((sa, sb))), v))
    rhs = simplify(Sum((Product((diff(sa, v), sb)), Product((sa, diff(sb, v))))))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(poly_exprs())
def test_diff_matches_finite_difference(e):
    s = simplify(e)
    v = IndepVar(1)
    d = simplify(diff(s, v))
    h = 1e-6
    up = dict(BINDINGS)
    dn = dict(BINDINGS)
    up[v] = BINDINGS[v] + h
    dn[v] = BINDINGS[v] - h
    approx = (evaluate(s, up) - evaluate(s, dn)) / (2 * h)
    exact = evaluate(d, BINDINGS)
    assert approx == pytest.approx(exact, rel=1e-4, abs=1e-4)


# ---------------------------------------------------------------------------
# carried polynomial pairs


def _copy(e: Expr) -> Expr:
    """An equal tree rebuilt from new nodes, none of which carries a pair."""
    return _subs(e, {})


# atoms of every kind the derivative meets: jet coordinates, coefficient
# symbols with x and u dependencies, and function applications, which
# take the chain rule
ATOMS = [
    Var(JetVar(1, DerivIndex(1, 1, 2))),
    Var(JetVar(1, DerivIndex(2, 2, 2))),
    Var(FuncSym("g", (2, 1), deps=(("x", 1), ("u", 1)))),
    Var(FuncSym("b", (1, 1), derivs=(("x", 2),), deps=(("x", 1), ("x", 2)))),
    Fun("exp", x_(1)),
    Fun("sin", u_(1)),
    Fun("log", x_(2)),
]


# ATOMS and function atoms whose derivatives bring a denominator: a
# surd, logs and exps of quotients, a constant surd, a nested function
CHAIN_ATOMS = ATOMS + [
    Fun("sqrt", x_(2)),
    Fun("cos", Product((x_(1), x_(2)))),
    Fun("log", Div(x_(1), Sum((x_(2), const(3))))),
    Fun("exp", Div(ONE, x_(1))),
    Fun("sqrt", const(2)),
    Fun("sin", Fun("log", Sum((x_(1), ONE)))),
]


@st.composite
def atom_exprs(draw, atoms=ATOMS):
    """poly_exprs trees with x2 and u1 replaced by drawn atoms, sometimes
    over a nonzero polynomial denominator."""
    mapping = {IndepVar(2): draw(st.sampled_from(atoms + [x_(2)])),
               DepVar(1): draw(st.sampled_from(atoms + [u_(1)]))}
    e = _subs(draw(poly_exprs()), mapping)
    if draw(st.integers(0, 3)) == 0:
        den = _subs(draw(poly_exprs()), mapping)
        if simplify(den) != ZERO:
            e = Div(e, den)
    return e


@settings(max_examples=200, deadline=None)
@given(atom_exprs())
def test_simplify_carries_the_pair_it_was_built_from(e):
    s = simplify(e)
    if isinstance(s, (Const, Var)):
        return
    c = _copy(s)
    assert not hasattr(c, "_polys")
    assert s._polys == ratio(c)
    assert s._polys == _cancel(*ratio(c))


# values a substitution may bring: zero (which can zero a denominator),
# constants, variables, quotients and function atoms
SUBSTITUTED = [ZERO, const(2), const(Fraction(-1, 3)), x_(1), x_(2), u_(1),
               Div(x_(2), Sum((x_(1), ONE))), Div(ONE, Sum((x_(1), const(-1)))),
               Fun("exp", x_(2)), Fun("sqrt", x_(1)), Fun("log", Div(x_(1), x_(2)))]


@st.composite
def substitutions(draw):
    """A mapping over x1, x2 and u1, sometimes starting from the x1 <-> x2
    swap, whose values are SUBSTITUTED or drawn atom expressions."""
    mapping = {IndepVar(1): x_(2), IndepVar(2): x_(1)} if draw(st.booleans()) else {}
    for vid in (IndepVar(1), IndepVar(2), DepVar(1)):
        if draw(st.integers(0, 2)) == 0:
            mapping[vid] = draw(st.sampled_from(SUBSTITUTED) | atom_exprs(CHAIN_ATOMS))
    return mapping


@settings(max_examples=100, deadline=None, derandomize=True)
@given(atom_exprs(CHAIN_ATOMS), substitutions())
def test_substitute_on_pairs_matches_the_tree_substitution(e, mapping):
    from opfactor.errors import DomainError
    e = simplify(e)
    try:
        want = simplify(_subs(e, mapping))
    except DomainError:
        with pytest.raises(DomainError):
            substitute(e, mapping)
        return
    assert substitute(e, mapping) == want


def test_substitute_swaps_inside_function_arguments():
    swap = {IndepVar(1): x_(2), IndepVar(2): x_(1)}
    assert substitute(P("exp(x1) + x1/x2"), swap) == P("exp(x2) + x2/x1")
    assert substitute(P("log(x1 + 2*x2)*x1"), swap) == P("log(2*x1 + x2)*x2")
    assert substitute(P("exp(x1)*exp(x2)"), {IndepVar(1): x_(2)}) == P("exp(2*x2)")


@pytest.mark.parametrize("text", ["1/(x1 - 1)", "x2/(x1^2 - x1) + 1", "log(1/(x1 - 1))"])
def test_substituting_a_zero_denominator_is_a_domain_error(text):
    from opfactor.errors import DomainError
    with pytest.raises(DomainError):
        simplify(_subs(P(text), {IndepVar(1): ONE}))
    with pytest.raises(DomainError):
        substitute(P(text), {IndepVar(1): ONE})


def _reference_chain(e: Expr, leaf) -> Expr:
    """The chain rule on the tree, unsimplified; `leaf(vid)` is the
    derivative of a variable.  An independent route to every derivative
    the pair calculus takes."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return leaf(e.vid)
    if isinstance(e, Sum):
        return Sum(tuple(_reference_chain(t, leaf) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        for i, f in enumerate(e.factors):
            rest = e.factors[:i] + e.factors[i + 1:]
            terms.append(Product((_reference_chain(f, leaf),) + rest))
        return Sum(tuple(terms))
    if isinstance(e, Power):
        return Const(Fraction(e.exp)) * Power(e.base, e.exp - 1) * _reference_chain(e.base, leaf)
    if isinstance(e, Div):
        return Div(_reference_chain(e.num, leaf) * e.den - e.num * _reference_chain(e.den, leaf),
                   Power(e.den, 2))
    da = _reference_chain(e.arg, leaf)
    if e.name == "exp":
        return Fun("exp", e.arg) * da
    if e.name == "log":
        return Div(da, e.arg)
    if e.name == "sin":
        return Fun("cos", e.arg) * da
    if e.name == "cos":
        return -(Fun("sin", e.arg) * da)
    return Div(da, Const(Fraction(2)) * Fun("sqrt", e.arg))


def _diff_leaf(vid):
    """`leaf` of the partial derivative against vid."""
    def leaf(v):
        if v == vid:
            return ONE
        if isinstance(v, FuncSym) and isinstance(vid, IndepVar) and ("x", vid.index) in v.deps:
            return Var(v.partial(("x", vid.index)))
        if isinstance(v, FuncSym) and isinstance(vid, DepVar) and ("u", vid.component) in v.deps:
            return Var(v.partial(("u", vid.component)))
        return ZERO
    return leaf


def assert_matches_the_chain_rule(got: Expr, e: Expr, leaf):
    """got equals the chain rule's derivative of the simplified tree e,
    exactly: the zero test of a quotient is its numerator's.  Where
    every atom of e is a variable, got is also the very tree the chain
    rule simplifies to."""
    want = simplify(_reference_chain(_copy(e), leaf))
    assert simplify(Sum((got, Product((const(-1), want))))) == ZERO
    if all(isinstance(a, Var) for p in ratio(e) for m in p for a, _ in m):
        assert got == want


# derandomized: the chain rule on the tree is slow on rare draws
@settings(max_examples=200, deadline=None, derandomize=True)
@given(atom_exprs(CHAIN_ATOMS), st.sampled_from([IndepVar(1), IndepVar(2), DepVar(1)]),
       st.integers(1, 2))
def test_derivatives_of_carried_pairs_match_the_chain_rule(e, vid, axis):
    s = simplify(e)
    assert_matches_the_chain_rule(diff(s, vid), s, _diff_leaf(vid))
    assert_matches_the_chain_rule(total_derivative(s, axis, 2), s, _total_leaf(axis, 2))
    # a tree that carries no pair is differentiated as its canonical form
    c = _copy(s)
    assert diff(c, vid) == diff(s, vid)
    assert total_derivative(c, axis, 2) == total_derivative(s, axis, 2)


def test_pair_is_not_part_of_equality_hash_or_a_dict():
    s = P("x1^2*u1 + exp(x2)/(x1 + 1)")
    c = _copy(s)
    assert s._polys is not None and not hasattr(c, "_polys")
    assert c == s and hash(c) == hash(s)
    nodes = [const(1), x_(1), s, s.num, Product((x_(1), x_(2))), Power(x_(1), 2),
             Fun("exp", x_(1))]
    assert {type(n) for n in nodes} == {Const, Var, Div, Sum, Product, Power, Fun}
    assert not any(hasattr(n, "__dict__") for n in nodes)


# ---------------------------------------------------------------------------
# product kernel and atom hashes


def _mono_mul(m1, m2):
    """The monomial m1 * m2 with its exp factors merged; a copy of the
    per-pair product that `_poly_mul` replaced."""
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for a, e in m2:
        acc[a] = acc.get(a, 0) + e
    return _norm_mono(acc)


def _norm_mono(acc: dict):
    """Sort a monomial and merge its exp factors into a single atom."""
    exps = [(a, e) for a, e in acc.items() if isinstance(a, Fun) and a.name == "exp"]
    if exps:
        total = ZERO
        for a, e in exps:
            del acc[a]
            total = total + Const(Fraction(e)) * a.arg
        total = simplify(total)
        if total != ZERO:
            a = Fun("exp", total)
            acc[a] = acc.get(a, 0) + 1
    return tuple((a, acc[a]) for a in sorted(acc, key=sort_key) if acc[a])


def _reference_mul(p1, p2):
    """The product as one Fraction at a time, per pair of terms, with
    the squared surds collapsed per pair: what `_poly_mul` must equal."""
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m, c = _mono_mul(m1, m2), c1 * c2
            changed = True
            while changed:
                changed = False
                for a, e in m:
                    if e >= 2 and isinstance(a, Fun) and a.name == "sqrt" \
                            and isinstance(a.arg, Const):
                        c *= a.arg.value ** (e // 2)
                        rest = [(b, f) for b, f in m if b is not a]
                        if e % 2:
                            rest.append((a, 1))
                        rest.sort(key=lambda p: (sort_key(p[0]), p[1]))
                        m = tuple(rest)
                        changed = True
                        break
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


SURDS = [Fun("sqrt", const(2)), Fun("sqrt", const(3))]
EXPS = [Fun("exp", x_(1)), Fun("exp", P("2*x1 - x2")), Fun("exp", P("-x1"))]


@st.composite
def kernel_polys(draw, surd_exp=3, max_terms=6):
    """Polys over x1, x2, u1, sqrt(2), sqrt(3) (up to `surd_exp`) and at
    most one exp atom per monomial, rational coefficients with
    denominators 1-12; empty polys included."""
    p = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = {a: draw(st.integers(0, 2)) for a in (x_(1), x_(2), u_(1))}
        for a in SURDS:
            mono[a] = draw(st.integers(0, surd_exp))
        if draw(st.booleans()):
            mono[draw(st.sampled_from(EXPS))] = 1
        key = tuple(sorted(((a, e) for a, e in mono.items() if e),
                           key=lambda t: sort_key(t[0])))
        p[key] = Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 12)))
    return p


@settings(max_examples=300, deadline=None)
@given(kernel_polys(), kernel_polys())
def test_poly_mul_equals_the_fraction_loop(p1, p2):
    out = _poly_mul(p1, p2)
    assert out == _reference_mul(p1, p2)
    assert all(type(c) is Fraction and c for c in out.values())


def test_poly_mul_drops_terms_that_cancel():
    # (x1 + sqrt(2)) (x1 - sqrt(2)) = x1^2 - 2: the x1 sqrt(2) terms
    # cancel, and sqrt(2)^2 collapses onto the constant
    s2 = SURDS[0]
    p1 = {((x_(1), 1),): Fraction(1), ((s2, 1),): Fraction(1)}
    p2 = {((x_(1), 1),): Fraction(1), ((s2, 1),): Fraction(-1)}
    assert _poly_mul(p1, p2) == {((x_(1), 2),): Fraction(1), (): Fraction(-2)}
    assert _poly_mul(p1, {}) == {} == _poly_mul({}, p2)
    # exp(x1) exp(-x1) = 1 merges two exp atoms into the constant term
    assert _poly_mul({((EXPS[0], 1),): Fraction(1, 2)},
                     {((EXPS[2], 1),): Fraction(4, 3)}) == {(): Fraction(2, 3)}


@settings(max_examples=60, deadline=None)
@given(kernel_polys(surd_exp=1, max_terms=3))
def test_poly_pow_equals_repeated_products(p):
    power = {(): Fraction(1)}
    for k in range(10):
        assert _poly_pow(p, k) == power
        power = _poly_mul(power, p)


@settings(max_examples=100, deadline=None)
@given(kernel_polys(surd_exp=1, max_terms=3), kernel_polys(surd_exp=1, max_terms=3),
       kernel_polys(surd_exp=1, max_terms=3))
def test_cancel_keeps_the_quotient_over_surds_and_exps(p, q, r):
    # the gcd treats sqrt and exp atoms as free indeterminates; the
    # cancelled pair must still multiply out to the same quotient
    num, den = _poly_mul(p, r), _poly_mul(q, r)
    if not den:
        return
    cn, cd = _cancel(num, den)
    assert _poly_mul(cn, den) == _poly_mul(num, cd)


def _reference_rows(p, shift):
    """Rows (exponent vector, integer c) and d, the lcm of p's
    denominators, with the exponent of atom a at bit shift[a]."""
    d = math.lcm(*(c.denominator for c in p.values()))
    return [(sum(e << shift[a] for a, e in m), c.numerator * (d // c.denominator))
            for m, c in p.items()], d


def _reference_packed_mul(p1, p2):
    """`_poly_mul` as it packed per call: the operands' atoms sorted by
    `sort_key`, fields just wide enough for their largest exponent, both
    operands re-packed and every result read back field by field."""
    if p1 is _ONE_POLY or p2 is _ONE_POLY:
        return p2 if p1 is _ONE_POLY else p1
    atoms = sorted({a for p in (p1, p2) for m in p for a, _ in m}, key=sort_key)
    width = max((e for p in (p1, p2) for m in p for _, e in m), default=0).bit_length() + 1
    shift = {a: width * i for i, a in enumerate(atoms)}
    (r1, d1), (r2, d2) = _reference_rows(p1, shift), _reference_rows(p2, shift)
    acc = {}
    for v1, c1 in r1:
        for v2, c2 in r2:
            v = v1 + v2
            if v in acc:
                acc[v] += c1 * c2
            else:
                acc[v] = c1 * c2
    fields, mask, d = tuple(shift.items()), (1 << width) - 1, d1 * d2
    if not any(isinstance(a, Fun) and (a.name == "exp" or expr._is_surd(a)) for a in atoms):
        return {tuple((a, e) for a, s in fields if (e := v >> s & mask)): Fraction(c, d)
                for v, c in acc.items() if c}
    out = {}
    for v, c in acc.items():
        m, c = expr._normal(tuple((a, e) for a, s in fields if (e := v >> s & mask)), c)
        out[m] = out.get(m, 0) + c
    return {m: Fraction(c, d) for m, c in out.items() if c}


@pytest.mark.parametrize("cap", [expr.MAX_PACKED_MONOMIALS, 4])
@settings(max_examples=300, deadline=None)
@given(p1=kernel_polys(), p2=kernel_polys())
def test_poly_mul_keeps_the_terms_and_order_of_the_per_call_packing(cap, p1, p2):
    # at a cap of 4 nearly every product empties the tables first, and
    # an exp merge in `_normal` multiplies, so may empty them mid-call
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "MAX_PACKED_MONOMIALS", cap)
        assert list(_poly_mul(p1, p2).items()) == list(_reference_packed_mul(p1, p2).items())


def test_a_product_past_the_cap_empties_the_tables_first(monkeypatch):
    monkeypatch.setattr(expr, "MAX_PACKED_MONOMIALS", 4)
    wide = {((x_(1), k),): Fraction(k) for k in range(1, 6)}
    _poly_mul(wide, {((x_(2), 1),): Fraction(1)})
    assert len(expr._PACKED) > 4
    p = {((u_(1), 1),): Fraction(1, 2)}
    assert _poly_mul(p, p) == {((u_(1), 2),): Fraction(1, 4)}
    assert expr._ATOMS == [u_(1)]
    assert set(expr._PACKED) == {((u_(1), 1),), ((u_(1), 2),)}


def test_exponents_stop_below_two_to_the_63():
    e = P("(((x1^10000)^10000)^10000)^10000 * x2 + 1")
    assert render(simplify(e * e)) == \
        "x1^20000000000000000*x2^2 + 2*x1^10000000000000000*x2 + 1"
    with pytest.raises(CapacityExceeded, match=r"below 2\^63"):
        P("((((x1^10000)^10000)^10000)^10000)^10000 * x2 + 1")
    # both checks at their edge: an operand's exponent as it is packed,
    # and a product's as it is read back
    top, one = 2 ** 63, {((x_(2), 1),): Fraction(1)}
    assert _poly_mul({((x_(1), top - 1),): Fraction(1)}, one) == \
        {((x_(1), top - 1), (x_(2), 1)): Fraction(1)}
    with pytest.raises(CapacityExceeded):
        _poly_mul({((x_(1), top),): Fraction(1)}, one)
    half = {((x_(1), top // 2),): Fraction(1)}
    with pytest.raises(CapacityExceeded):
        _poly_mul(half, half)


# ---------------------------------------------------------------------------
# the derivative against the per-term products it replaced


def _mono_times(m1, m2, c):
    """(monomial, coefficient) of c * m1 * m2, squared surds moved into c."""
    m = _mono_mul(m1, m2)
    for a, e in m:
        if e >= 2 and isinstance(a, Fun) and a.name == "sqrt" and isinstance(a.arg, Const):
            c *= a.arg.value ** (e // 2)
            m = tuple((b, e % 2 if b is a else f) for b, f in m if b is not a or e % 2)
    return m, c


def _reference_terms_derivative(p, leaf):
    """Pair of the derivative of the poly p, one monomial product per
    piece: c * prod a^k gives c * k * (monomial / a) * a' for each atom
    a.  A copy of the per-term route that `_terms_derivative` replaced."""
    parts = {}  # atom: (numerator of its derivative, the numerator it adds to)
    sums = {}  # denominator's items: (numerator, denominator)
    for mono, c in p.items():
        for i, (a, k) in enumerate(mono):
            if a not in parts:
                dn, dd = _reference_atom_derivative(a, leaf)
                parts[a] = dn, sums.setdefault(frozenset(dd.items()), ({}, dd))[0]
            dn, acc = parts[a]
            rest = mono[:i] + (((a, k - 1),) if k > 1 else ()) + mono[i + 1:]
            ck = c * k
            for m2, c2 in dn.items():
                m, t = (_mono_mul(rest, m2), ck * c2) if isinstance(a, Var) \
                    else _mono_times(rest, m2, ck * c2)
                s = acc[m] = acc.get(m, 0) + t
                if not s:
                    del acc[m]
    return pair_total([s for s in sums.values() if s[0]])


def _reference_poly_derivative(pair, leaf):
    num, den = pair
    if den == _ONE_POLY:
        return _reference_terms_derivative(num, leaf)
    top = pair_sum(pair_product(_reference_terms_derivative(num, leaf), (den, _ONE_POLY)),
                   pair_product(({m: -c for m, c in num.items()}, _ONE_POLY),
                                _reference_terms_derivative(den, leaf)))
    return pair_product(top, (_ONE_POLY, _poly_mul(den, den)))


def _reference_atom_derivative(a, leaf):
    if isinstance(a, Var):
        return ratio(leaf(a.vid))
    y = a.arg
    outer = {"exp": a, "log": Div(ONE, y), "sin": Fun("cos", y), "cos": -Fun("sin", y),
             "sqrt": Div(ONE, Const(Fraction(2)) * a)}[a.name]
    return pair_product(_reference_poly_derivative(ratio(y), leaf), ratio(outer))


SYMBOLS = [a for a in ATOMS if isinstance(a, Var) and isinstance(a.vid, FuncSym)]


@st.composite
def derivative_exprs(draw):
    """Canonical quotients over x1, an exp atom, a constant surd and a
    coefficient symbol: poly_exprs with x2 and u1 replaced, plus the surd
    times another, over a nonzero denominator of that shape."""
    mapping = {IndepVar(2): draw(st.sampled_from(EXPS)), DepVar(1): draw(st.sampled_from(SYMBOLS))}
    surd = draw(st.sampled_from(SURDS))
    num, den = (_subs(draw(poly_exprs()), mapping) + surd * _subs(draw(poly_exprs()), mapping)
                for _ in range(2))
    return simplify(Div(num, surd if is_zero(den) else den))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(derivative_exprs(), st.sampled_from([IndepVar(1), IndepVar(2), DepVar(1)]),
       st.integers(1, 2))
def test_derivatives_equal_the_per_term_products(e, vid, axis):
    pair = ratio(e)
    assert pair_total_derivative(pair, axis, 2) == \
        cancel(_reference_poly_derivative(pair, _total_leaf(axis, 2)))
    assert ratio(diff(e, vid)) == cancel(_reference_poly_derivative(pair, _diff_leaf(vid)))


def test_atom_hash_is_the_dataclass_hash():
    vids = [IndepVar(1), DepVar(2), JetVar(1, DerivIndex(2, 3, 2)),
            FuncSym("b", (1, 1), derivs=(("x", 2),), deps=(("x", 1), ("x", 2)))]
    for v in vids:
        a = Var(v)
        assert hash(a) == hash((v,)) == hash(a)
        assert a == Var(v) and repr(a) == repr(Var(v)) == f"Var(vid={v!r})"
    for name, arg in (("exp", P("x1 + x2")), ("sqrt", const(2)), ("sin", u_(1))):
        a = Fun(name, arg)
        assert hash(a) == hash((name, arg)) == hash(a)
        assert a == Fun(name, arg) and repr(a) == repr(Fun(name, arg))
        assert repr(a) == f"Fun(name={name!r}, arg={arg!r})"


def test_caches_report_a_finite_size():
    # the benchmark's tracer reads these counters
    for cached in (simplify, sort_key):
        info = cached.cache_info()
        assert info.maxsize is not None and info.maxsize > 0


# ---------------------------------------------------------------------------
# function atoms: one constructor, whose rules every path reaches


@pytest.mark.parametrize("text, canonical", [
    ("exp(0)", "1"), ("cos(0)", "1"), ("log(1)", "0"), ("sin(0)", "0"), ("sqrt(0)", "0"),
    ("sqrt(4/9)", "2/3"),
    # exp atoms merge in a product, and leave a one-term denominator
    ("exp(x1)*exp(-x1)", "1"), ("exp(x1)^2*exp(-x1)", "exp(x1)"),
    ("1/exp(x1)", "exp(-x1)"), ("x1/(2*exp(x1))", "(1/2)*x1*exp(-x1)"),
    ("(x1 + 1)/(x2*exp(x1 - x2))", "(x1*exp(x2 - x1) + exp(x2 - x1))/x2"),
])
def test_function_atoms_take_their_canonical_form(text, canonical):
    assert render(P(text)) == canonical


@pytest.mark.parametrize("text, message", [
    ("log(0) + x1", "log(0) is not a real number"), ("log(-1)", "log(-1) is not a real number"),
    ("x1*sqrt(-4)", "sqrt(-4) is not a real number"),
    ("sqrt(-1/2)", "sqrt(-1/2) is not a real number"),
])
def test_constant_atoms_outside_the_real_domain_raise_where_they_are_made(text, message):
    # log(0) + x1 used to stay an atom, and its derivative by x1 raised
    # "division by a zero expression" although it is 1
    with pytest.raises(DomainError, match=re.escape(message)):
        P(text)
    with pytest.raises(DomainError, match=re.escape(message)):
        diff(parse_expr(text), IndepVar(1))


def test_atoms_at_the_edge_of_the_real_domain():
    assert P("sqrt(0)") == ZERO and P("log(1)") == ZERO
    # substituting into a variable argument meets the same rule
    with pytest.raises(DomainError, match=r"log\(0\) is not a real number"):
        substitute(P("log(x1)"), {IndepVar(1): ZERO})


def test_substitution_rebuilds_atoms_under_their_rules():
    assert substitute(P("exp(x1*x2)"), {IndepVar(2): ZERO}) == ONE
    assert substitute(P("cos(x1) + sin(x1)*x2"), {IndepVar(1): ZERO}) == ONE
    e = substitute(P("sqrt(x1) + log(x1*x2)"), {IndepVar(1): const(8), IndepVar(2): P("1/8")})
    assert render(e) == "2*sqrt(2)"


@pytest.mark.parametrize("text, derivative", [
    ("log(x1^2 + 1)", "2*x1/(x1^2 + 1)"), ("cos(x1^2)", "-2*x1*sin(x1^2)"),
    ("sqrt(x1^2 + 1)", "x1/sqrt(x1^2 + 1)"), ("sqrt(x1)", "1/2/sqrt(x1)"),
    ("sqrt(2)*x1 + log(3) + sqrt(x2)", "sqrt(2)"),
])
def test_diff_of_functions_of_compound_arguments(text, derivative):
    assert render(diff(P(text), IndepVar(1))) == derivative


@pytest.mark.parametrize("text, root", [
    # a quotient side by side, exp atoms through their stand-ins
    ("(x1^2 + 2*x1 + 1)/(4*x2^2)", "((1/2)*x1 + 1/2)/x2"),
    ("exp(2*x1) + 2*exp(x1) + 1", "exp(x1) + 1"),
    ("(exp(2*x1) - 2*x2*exp(x1) + x2^2)/(x1^2 + 2*x1 + 1)", "(exp(x1) - x2)/(x1 + 1)"),
    ("exp(x1)", "exp((1/2)*x1)"), ("4/9", "2/3"), ("0", "0"),
    # a quotient needs both sides squares
    ("x1/x2^2", None), ("x2^2/x1", None), ("exp(x1) + 1", None), ("exp(x1/x2)", None),
])
def test_poly_sqrt_of_quotients_and_exp_atoms(text, root):
    out = poly_sqrt(P(text))
    assert (out if out is None else render(out)) == root
