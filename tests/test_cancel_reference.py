"""`cancel` on one integer form against the cancel it replaced.

`cancel` used to find the common monomial on the monomial dicts, the
constant multiple on Fractions, the gcd through `_poly_gcd` (which built
integer polys over exponent vectors and read the cofactors back) and
the normalization through `poly_content` and two scalings.  That
version is kept here as an independent reference: the cancel of today
must return equal pairs with the same item order, and hand the input
dicts back exactly when the reference did.  The reference keeps its own
copy of the function atom constructor of that time, which returned a
tree where `expr._fun_atom` now returns a pair.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import expr
from opfactor.errors import DomainError
from opfactor.expr import (Const, Fun, FuncSym, ONE, Product, Var, ZERO, cancel, const,
                           poly_content, sort_key, u_, x_)
from opfactor.parse import parse_expr

_ONE_POLY = expr._ONE_POLY


# ---------------------------------------------------------------------------
# the reference: cancel before the integer form, with its `_poly_gcd`

def _reference_gcd(p, q):
    atoms = sorted({a for r in (p, q) for m in r for a, _ in m}, key=sort_key)
    slot = {a: i for i, a in enumerate(atoms)}

    def dense(r):
        d = math.lcm(*(c.denominator for c in r.values()))
        out = {}
        for m, c in r.items():
            v = [0] * len(atoms)
            for a, e in m:
                v[slot[a]] = e
            out[tuple(v)] = c.numerator * (d // c.denominator)
        return out, d

    def sparse(r, d):
        return {tuple((atoms[i], e) for i, e in enumerate(v) if e): Fraction(c, d)
                for v, c in r.items()}

    (f, df), (g, dg) = dense(p), dense(q)
    found = expr._heu_gcd(f, g, [expr.MAX_GCD_POINTS])
    if found is None or (len(found[0]) == 1 and not any(next(iter(found[0])))):
        return None
    return sparse(found[1], df), sparse(found[2], dg)


def _reference_fun_atom(name, arg):
    """The function atom as a tree, as `expr._fun_atom` built it before
    it returned the atom's pair: a constant, r * sqrt(s) or the atom."""
    arg = expr.simplify(arg)
    if name == "exp" and arg == ZERO:
        return ONE
    if name == "log" and arg == ONE:
        return ZERO
    if name == "sin" and arg == ZERO:
        return ZERO
    if name == "cos" and arg == ZERO:
        return ONE
    if name == "sqrt" and isinstance(arg, Const):
        if arg.value == 0:
            return ZERO
        if arg.value > 0:
            root = expr.fraction_sqrt(arg.value)
            if root is not None:
                return Const(root)
            q, r = arg.value.numerator * arg.value.denominator, Fraction(1, arg.value.denominator)
            for p in range(2, min(expr.SURD_TRIAL_PRIMES, math.isqrt(q) + 1)):
                while q % (p * p) == 0:
                    q, r = q // (p * p), r * p
            if r != 1:
                return Product((Const(r), Fun(name, Const(Fraction(q)))))
    return Fun(name, arg)


def _reference_cancel(pair):
    num, den = pair
    if not den:
        raise DomainError("division by a zero expression")
    if not num:
        return {}, _ONE_POLY
    if den == _ONE_POLY:
        return num, den
    common = None
    for p in (num, den):
        for m, _ in p.items():
            d = dict(m)
            if common is None:
                common = d
            else:
                common = {a: min(e, d[a]) for a, e in common.items() if a in d}
            if not common:
                break
    if common:
        shift = lambda m: tuple((a, e - common.get(a, 0)) for a, e in m
                                if e > common.get(a, 0))
        num = {shift(m): c for m, c in num.items()}
        den = {shift(m): c for m, c in den.items()}
    if len(num) > 1 and len(den) > 1:
        if num.keys() == den.keys():
            mono = next(iter(den))
            c = num[mono] / den[mono]
            if all(num[m] == c * v for m, v in den.items()):
                return {(): c}, _ONE_POLY
        num, den = _reference_gcd(num, den) or (num, den)
    if len(den) == 1:
        (mono, c), = den.items()
        exps = [(a, e) for a, e in mono if isinstance(a, Fun) and a.name == "exp"]
        if exps:
            inv = _ONE_POLY
            for a, e in exps:
                neg = _reference_fun_atom("exp", Const(Fraction(-e)) * a.arg)
                if neg != ONE:
                    inv = expr._poly_mul(inv, {((neg, 1),): Fraction(1)})
            num = expr._poly_mul(num, inv)
            mono = tuple((a, e) for a, e in mono
                         if not (isinstance(a, Fun) and a.name == "exp"))
            den = {mono: c}
    if len(den) == 1 and () in den:
        return expr._poly_scale(num, 1 / den[()]), _ONE_POLY
    content = poly_content(den)
    if content != 1:
        num = expr._poly_scale(num, 1 / content)
        den = expr._poly_scale(den, 1 / content)
    return num, den


# ---------------------------------------------------------------------------
# draws

def E(text):
    return expr.simplify(parse_expr(text))


ATOMS = [x_(1), x_(2), u_(1), Var(FuncSym("b", (1, 1), deps=(("x", 1), ("x", 2)))),
         Var(FuncSym("g", (2, 1), derivs=(("x", 1),), deps=(("x", 1),)))]
SURDS = [Fun("sqrt", const(2)), Fun("sqrt", const(3))]
EXPS = [Fun("exp", x_(1)), Fun("exp", E("2*x1 - x2")), Fun("exp", E("-x1"))]


@st.composite
def monomials(draw, max_exp=2):
    """A canonical monomial: atoms to `max_exp`, a constant surd and an
    exp atom at most once each."""
    mono = {a: draw(st.integers(0, max_exp)) for a in draw(st.sets(st.sampled_from(ATOMS),
                                                                   max_size=3))}
    for extra in (SURDS, EXPS):
        if draw(st.booleans()):
            mono[draw(st.sampled_from(extra))] = 1
    return tuple(sorted(((a, e) for a, e in mono.items() if e), key=lambda t: sort_key(t[0])))


@st.composite
def polys(draw, min_terms=1, max_terms=4):
    return {draw(monomials()): Fraction(draw(st.integers(-6, 6).filter(bool)),
                                        draw(st.integers(1, 12)))
            for _ in range(draw(st.integers(min_terms, max_terms)))}


def _times(*ps):
    out = _ONE_POLY
    for p in ps:
        out = expr._poly_mul(out, p)
    return out


@st.composite
def pairs(draw):
    """(num, den) of one of five shapes, the denominator's sign flipped
    half the time so that its leading term is negative."""
    mono = lambda: {draw(monomials(max_exp=3)): Fraction(1)}
    shape = draw(st.sampled_from(["common", "multiple", "one-term", "constant", "free"]))
    if shape == "common":  # (A C M1) / (B C M2)
        C = draw(polys())
        num = _times(draw(polys()), C, mono())
        den = _times(draw(polys()), C, mono())
    elif shape == "multiple":  # c B M1 / (B M2), M1 = M2 half the time
        B, c, m1 = draw(polys(min_terms=2)), Fraction(draw(st.integers(-9, 9)), 7), mono()
        num = _times(B, m1, {(): c})
        den = _times(B, m1 if draw(st.booleans()) else mono())
    elif shape == "one-term":
        num, den = draw(polys()), draw(polys(max_terms=1))
    elif shape == "constant":
        num, den = draw(polys()), {(): Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))}
    else:
        num, den = draw(polys()), draw(polys())
    if draw(st.booleans()):
        den = {m: -c for m, c in den.items()}
    return num, den


def _assert_same(pair):
    try:
        want = _reference_cancel(pair)
    except DomainError:
        with pytest.raises(DomainError):
            cancel(pair)
        return
    got = cancel(pair)
    assert got == want
    assert [list(p) for p in got] == [list(p) for p in want]
    assert all(type(c) is Fraction for p in got for c in p.values())
    # the same dicts handed back, and the same shared constant 1
    assert [g is p for g, p in zip(got, pair)] == [w is p for w, p in zip(want, pair)]
    assert (got[1] is _ONE_POLY) == (want[1] is _ONE_POLY)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pairs())
def test_cancel_matches_the_reference(pair):
    _assert_same(pair)


@pytest.mark.parametrize("name, value", [("MAX_GCD_BITS", 8), ("MAX_GCD_POINTS", 1)])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=pairs())
def test_cancel_matches_the_reference_past_the_gcd_caps(name, value, pair):
    # the gcd gives up for both, and both keep the other steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, name, value)
        _assert_same(pair)


def test_the_leading_term_is_the_one_mono_key_picks():
    # in x1 - x2^2 the vector of x1 is the lexicographic maximum, but
    # -x2^2 leads by degree, so the denominator flips to x2^2 - x1
    pair = expr.ratio(E("x1 + 1"))[0], expr.ratio(E("x1 - x2^2"))[0]
    got = cancel(pair)
    assert got == _reference_cancel(pair)
    assert got[1] == {((x_(2), 2),): 1, ((x_(1), 1),): -1}
