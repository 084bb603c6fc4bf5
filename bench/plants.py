"""Seeded input generators for the benchmark workloads.

The scalar plant generators are copies of the acceptance suite's
criterion-2 generators (`rand_poly`, `plant_scalar`), kept here so that
an edit to the tests cannot change what the benchmark measures.  Every
other generator builds an operator whose correct answer is known by
construction; the docstrings say why.

All functions take a `random.Random` and return plain opfactor objects.
"""

from fractions import Fraction

from opfactor.expr import (ONE, Const, Power, ZERO, const, expr_variables,
                           simplify, u_, x_)
from opfactor.operator import MatrixOperator, make_operator

SCALAR_TEMPLATES = ("linear-ode", "linear-pde2", "nonlinear-ode", "nonlinear-pde2")


# ---------------------------------------------------------------------------
# criterion-2 copies


def rand_poly(rng, gens, degree=2, span=2):
    """Random polynomial of total degree <= degree over the given atoms."""
    e = const(rng.randint(-3, 3))
    for g in gens:
        for d in range(1, degree + 1):
            c = rng.randint(-span, span)
            if c:
                e = e + const(c) * (Power(g, d) if d > 1 else g)
    return simplify(e)


def nonzero_const(rng):
    return const(rng.choice([-2, -1, 1, 2]))


# ---------------------------------------------------------------------------
# fixed-shape polynomials


def full_poly(rng, gens):
    """c0 + c1 g1 + ... with every coefficient nonzero.

    Draws built from these have the same expression shape for every
    seed, so their cost varies much less than that of `rand_poly` draws.
    """
    e = nonzero_const(rng)
    for g in gens:
        e = e + nonzero_const(rng) * g
    return simplify(e)


def plant_scalar(rng, template):
    if template == "linear-ode":
        gens = (x_(1),)
        Q = lambda: make_operator(1, 1, {
            (1, 1): nonzero_const(rng), (0, 1): rand_poly(rng, gens)})
        return Q(), Q()
    if template == "linear-pde2":
        gens = (x_(1), x_(2))
        Q = lambda: make_operator(2, 1, {
            (1, 1): nonzero_const(rng), (1, 2): rand_poly(rng, gens),
            (0, 1): rand_poly(rng, gens)})
        return Q(), Q()
    if template == "nonlinear-ode":
        gens = (x_(1), u_(1))
        Q = lambda: make_operator(1, 1, {
            (1, 1): nonzero_const(rng),
            (0, 1): rand_poly(rng, gens)}, linear=False)
        return Q(), Q()
    gens = (x_(1), x_(2), u_(1))
    lead = (x_(1), x_(2))
    Q = lambda: make_operator(2, 1, {
        (1, 1): nonzero_const(rng), (1, 2): rand_poly(rng, lead, degree=1),
        (0, 1): rand_poly(rng, gens)}, linear=False)
    return Q(), Q()


# ---------------------------------------------------------------------------
# systems


def plant_system(rng, m, full=False):
    """Two m x m first order linear factors over x1.

    Diagonal entries are c D + p with c a nonzero constant, so the
    leading coefficients never vanish; off-diagonal entries are zero
    order polynomials of degree <= 1, as the factorization profile
    requires.  With `full` every polynomial has both terms (see
    `full_poly`).
    """
    gens = (x_(1),)
    poly = (lambda: full_poly(rng, gens)) if full else (
        lambda: rand_poly(rng, gens, degree=1))

    def factor():
        rows = []
        for p in range(m):
            row = []
            for q in range(m):
                coeffs = {(0, 1): poly()}
                if p == q:
                    coeffs[(1, 1)] = nonzero_const(rng)
                row.append(make_operator(1, m, coeffs))
            rows.append(tuple(row))
        return MatrixOperator(1, m, tuple(rows))

    return factor(), factor()


# ---------------------------------------------------------------------------
# constant coefficient ODEs


def const_ode_roots(rng):
    """g2 (D - r1)(D - r2) with rational roots: both splits exist."""
    g2 = rng.choice([1, 2, 3])
    r1 = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
    r2 = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
    return make_operator(1, 1, {(2, 1): const(g2), (1, 1): const(-g2 * (r1 + r2)),
                                (0, 1): const(g2 * r1 * r2)})


def const_ode_surd(rng):
    """u'' + a u' + b u with a^2 - 4b positive and not a rational square."""
    while True:
        a = rng.randint(-5, 5)
        b = rng.randint(-6, 6)
        disc = a * a - 4 * b
        if disc > 0 and int(disc ** 0.5) ** 2 != disc:
            return make_operator(1, 1, {(2, 1): ONE, (1, 1): const(a),
                                        (0, 1): const(b)})


def const_ode_complex(rng):
    """u'' + a u' + b u with a^2 - 4b < 0: NoRealFactorization."""
    while True:
        a = rng.randint(-4, 4)
        b = rng.randint(1, 9)
        if a * a - 4 * b < 0:
            return make_operator(1, 1, {(2, 1): ONE, (1, 1): const(a),
                                        (0, 1): const(b)})


# ---------------------------------------------------------------------------
# Riccati ODEs


def _nonconstant_poly(rng, gens, degree=2):
    while True:
        e = rand_poly(rng, gens, degree=degree)
        if expr_variables(e):
            return e


def riccati_plant(rng):
    """(D + X)(D + Y) with polynomial X, Y of degree <= 2 (criterion 4).

    Y is a polynomial solution of the operator's Riccati equation, so
    the degree-3 ansatz must return it.  Returns (X, Y).
    """
    X = rand_poly(rng, (x_(1),))
    Y = _nonconstant_poly(rng, (x_(1),))
    return X, Y


def riccati_perturbed(rng, linear_d):
    """(D + X)(D + Y) + 1 with X - Y = d chosen so no polynomial Z exists.

    Z solves the perturbed Riccati equation iff W = Z - Y solves
    W' = W^2 - d W + 1.  For constant d a polynomial W must be a
    constant c with c^2 - d c + 1 = 0, which has no rational root when
    d^2 - 4 is negative or not a rational square.  For d = a x1 + b a
    polynomial W must be a x1 + c, which forces c = b and a = 1.  So
    constant d in {-1, 0, 1, 3} and linear d with a != 1 leave the ansatz
    empty.  Returns (X, Y).
    """
    Y = _nonconstant_poly(rng, (x_(1),))
    if linear_d:
        d = simplify(const(rng.choice([-2, -1, 2, 3])) * x_(1)
                     + const(rng.randint(-2, 2)))
    else:
        d = const(rng.choice([-1, 0, 1, 3]))
    return simplify(Y + d), Y


# ---------------------------------------------------------------------------
# second order operators over two variables


def pde2_plant(rng, variable_lead):
    """Q1 = b111 D1 + b112 D2 + b101, Q2 = D1 + b212 D2 + b201.

    Delta is (b112 - b111 b212)^2, which vanishes only for a repeated
    principal root, so the draw is repeated until it does not; the
    planted split is then one of the principal-symbol branches.

    With `variable_lead`, b111 and b212 are degree-1 polynomials in x1
    and b112 one in x2, every term present, and the zero order slots
    are constants: one search then costs within about 30% of its median
    on every draw.  Otherwise b111 is a constant, b112 and b212 are
    random degree-1 polynomials and the zero order slots have degree 1.
    """
    gens = (x_(1), x_(2))
    while True:
        if variable_lead:
            b111 = full_poly(rng, (x_(1),))
            b112 = full_poly(rng, (x_(2),))
            b212 = full_poly(rng, (x_(1),))
        else:
            b111 = nonzero_const(rng)
            b112 = rand_poly(rng, gens, degree=1)
            b212 = rand_poly(rng, gens, degree=1)
        if simplify(b112 - b111 * b212) != ZERO:
            break
    low = (lambda: const(rng.randint(-2, 2))) if variable_lead else (
        lambda: rand_poly(rng, gens, degree=1))
    Q1 = make_operator(2, 1, {(1, 1): b111, (1, 2): b112, (0, 1): low()})
    Q2 = make_operator(2, 1, {(1, 1): ONE, (1, 2): b212, (0, 1): low()})
    return Q1, Q2


def pde2_repeated(rng):
    """Q1 = a (D1 + c D2) + r1, Q2 = D1 + c D2 + r2: Delta = 0.

    The principal roots coincide, so the search returns a PdeObligation,
    and the planted r2 is a Z that completes it.
    """
    gens = (x_(1), x_(2))
    a = nonzero_const(rng)
    c = rand_poly(rng, gens, degree=1)
    Q1 = make_operator(2, 1, {(1, 1): a, (1, 2): simplify(a * c),
                              (0, 1): rand_poly(rng, gens, degree=1)})
    Q2 = make_operator(2, 1, {(1, 1): ONE, (1, 2): c,
                              (0, 1): rand_poly(rng, gens, degree=1)})
    return Q1, Q2


def pde2_laplace(rng):
    """a u_x1x1 + s (u_x1x2 + u_x2x1) / 2 + b u_x2x2 + lower order terms
    with constant s^2 - 4ab < 0: NoRealFactorization."""
    gens = (x_(1), x_(2))
    while True:
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        s = rng.randint(-3, 3)
        if s * s - 4 * a * b < 0:
            break
    return make_operator(2, 1, {
        (2, 1): const(a), (2, 2): const(Fraction(s, 2)), (2, 3): const(Fraction(s, 2)),
        (2, 4): const(b), (1, 1): rand_poly(rng, gens, degree=1),
        (1, 2): rand_poly(rng, gens, degree=1), (0, 1): rand_poly(rng, gens)})


# ---------------------------------------------------------------------------
# cascade inputs


def cascade_const(rng):
    """Constant coefficient factors (a1 D + a0)(b1 D + b0): closed forms."""
    a1, b1 = (rng.choice([-2, -1, 1, 2]) for _ in range(2))
    a0, b0 = (Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(2))
    Q1 = make_operator(1, 1, {(1, 1): const(a1), (0, 1): const(a0)})
    Q2 = make_operator(1, 1, {(1, 1): const(b1), (0, 1): const(b0)})
    return Q1, Q2


def cascade_variable(rng, lead_x):
    """(D + X)(D + Y) with polynomial X, Y; u1 needs quadrature.

    The u1 integrand exp(int Y - int X) has a non-linear exponent, which
    the antiderivative table does not cover.  With `lead_x` Q2 gets the
    lead x1 + 2 instead of 1, so u0 needs quadrature too.
    """
    X = _nonconstant_poly(rng, (x_(1),))
    Y = _nonconstant_poly(rng, (x_(1),))
    while isinstance(simplify(X - Y), Const):
        Y = _nonconstant_poly(rng, (x_(1),))
    lead = simplify(x_(1) + const(2)) if lead_x else ONE
    Q1 = make_operator(1, 1, {(1, 1): ONE, (0, 1): X})
    Q2 = make_operator(1, 1, {(1, 1): lead, (0, 1): Y})
    return Q1, Q2


def cascade_quasilinear(rng, separable):
    """Quasi-linear (D)(D + c u + p): closed form for p = 0 (`separable`),
    else RK4 with p = +-x1 + k.

    On [0, 1] with c in {1/2, 1} and k in {-1, 0, 1}, u' = -(c u + p) u
    stays bounded from u(1/2) = 1.
    """
    c = Fraction(rng.choice([1, 2]), 2)
    if separable:
        p = ZERO
    else:
        p = simplify(const(rng.choice([-1, 1])) * x_(1) + const(rng.randint(-1, 1)))
    Q1 = make_operator(1, 1, {(1, 1): ONE}, linear=False)
    Q2 = make_operator(1, 1, {(1, 1): ONE, (0, 1): simplify(const(c) * u_(1) + p)},
                       linear=False)
    return Q1, Q2
