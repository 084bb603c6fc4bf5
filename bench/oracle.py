"""Untimed sympy oracle for a seeded sample of verified outputs.

Each item names an operator P and two factors.  The oracle rebuilds
them in sympy, applies Q1(Q2 u) and P u to a generic function u of the
independent variables (quasi-linear coefficients take the same u), and
compares exactly: the numerator of the difference must expand to 0 for
planted splits and must not for perturbed ones.  Laplace-type items
check that the discriminant (g22 + g23)^2 - 4 g21 g24 is a negative
constant.  It runs after the timed loop and after peak memory is read,
never on the timed path.  Without sympy it records a skip reason.
"""

import time

from opfactor.expr import (Const, DepVar, Div, Fun, IndepVar, Power, Product, Sum,
                           Var)
from opfactor.operator import MatrixOperator


def check(items) -> dict:
    try:
        import sympy
    except ImportError as err:
        return {"status": "skipped", "reason": f"sympy not importable: {err}",
                "checked": 0, "mismatches": 0}
    start = time.perf_counter()
    mismatches = []
    for item in items:
        if not _agrees(sympy, item):
            mismatches.append({"index": item["index"], "kind": item["kind"]})
    return {"status": "ok" if not mismatches else "mismatch",
            "sympy": sympy.__version__, "checked": len(items),
            "mismatches": len(mismatches), "details": mismatches,
            "seconds": time.perf_counter() - start}


def _agrees(sp, item) -> bool:
    P = item["P"]
    if item.get("negative_discriminant"):
        conv = _Converter(sp, P.n, P.m)
        c = lambda k, h: conv.expr(P.coeff(k, h))
        delta = sp.expand((c(2, 2) + c(2, 3)) ** 2 - 4 * c(2, 1) * c(2, 4))
        return delta.is_number and bool(delta < 0)
    Q1, Q2 = item["factors"]
    conv = _Converter(sp, P.n, P.m)
    us = conv.us
    if isinstance(P, MatrixOperator):
        m = P.m
        inner = [sum((conv.apply(Q2.entries[l][q], us[q]) for q in range(m)), sp.Integer(0))
                 for l in range(m)]
        lhs = [sum((conv.apply(Q1.entries[p][l], inner[l]) for l in range(m)), sp.Integer(0))
               for p in range(m)]
        rhs = [sum((conv.apply(P.entries[p][q], us[q]) for q in range(m)), sp.Integer(0))
               for p in range(m)]
        diffs = [a - b for a, b in zip(lhs, rhs)]
    else:
        diffs = [conv.apply(Q1, conv.apply(Q2, us[0])) - conv.apply(P, us[0])]
    zero = all(sp.expand(sp.together(d).as_numer_denom()[0]) == 0 for d in diffs)
    return zero == item["equal"]


class _Converter:
    def __init__(self, sp, n, m):
        self.sp = sp
        self.xs = sp.symbols(" ".join(f"x{i}" for i in range(1, n + 1)), seq=True)
        self.us = [sp.Function(f"u{j}")(*self.xs) for j in range(1, m + 1)]

    def expr(self, e):
        sp = self.sp
        if isinstance(e, Const):
            return sp.Rational(e.value.numerator, e.value.denominator)
        if isinstance(e, Var):
            if isinstance(e.vid, IndepVar):
                return self.xs[e.vid.index - 1]
            if isinstance(e.vid, DepVar):
                return self.us[e.vid.component - 1]
            raise ValueError(f"unexpected variable {e.vid!r} in a concrete coefficient")
        if isinstance(e, Sum):
            return sp.Add(*(self.expr(t) for t in e.terms))
        if isinstance(e, Product):
            return sp.Mul(*(self.expr(f) for f in e.factors))
        if isinstance(e, Power):
            return self.expr(e.base) ** e.exp
        if isinstance(e, Div):
            return self.expr(e.num) / self.expr(e.den)
        if isinstance(e, Fun):
            return getattr(sp, e.name)(self.expr(e.arg))
        raise TypeError(f"not an Expr: {e!r}")

    def apply(self, op, target):
        """op applied to the sympy expression target."""
        out = self.sp.Integer(0)
        for d, coeff in op.coeffs:
            term = target
            for axis in _axes(d.k, d.h, op.n):
                term = self.sp.diff(term, self.xs[axis - 1])
            out += self.expr(coeff) * term
        return out


def _axes(k, h, n):
    """Axis word of slot h of order k over n variables: the base-n digits
    of h - 1, most significant first, each plus one.  Restated here so
    the oracle does not share opfactor's slot code."""
    digits = []
    rem = h - 1
    for _ in range(k):
        digits.append(rem % n + 1)
        rem //= n
    return digits[::-1]
