"""Factorization condition systems: goldens, both checking routes, plants."""

import pathlib
import random
import sys
import time
from fractions import Fraction

import pytest

from opfactor.conditions import (
    CheckOptions,
    MAX_SAMPLES,
    FactorizationCandidate,
    TEMPLATES,
    _numeric_probe,
    check_candidate,
    condition_residuals,
    derive_conditions,
    discriminant,
    render_condition_system,
    template_traits,
)
from opfactor.errors import CapacityExceeded, UnsupportedTemplate, ValidationError
from opfactor.expr import ONE, ZERO, const, is_zero, simplify, u_, x_
from opfactor.operator import (
    MatrixOperator,
    as_matrix,
    expand_product,
    make_operator,
    matrix_expand_product,
    operator_from_jet,
)
from opfactor.parse import parse_expr

GOLDEN = pathlib.Path(__file__).parent / "golden" / "condition_systems.txt"

EXPECTED_COUNTS = {
    "linear-ode": 3,
    "linear-pde2": 6,
    "nonlinear-ode": 4,
    "nonlinear-pde2": 9,
    "linear-ode-system": 10,
    "linear-pde2-system": 18,
    "nonlinear-ode-system": 18,
    "nonlinear-pde2-system": 30,
}


def E(text):
    return simplify(parse_expr(text))


def test_template_registry():
    assert tuple(TEMPLATES) == tuple(EXPECTED_COUNTS)
    for t in TEMPLATES:
        linear, system, n = template_traits(t)
        assert n in (1, 2)
        assert linear == t.startswith("linear")
        assert system == t.endswith("system")
    with pytest.raises(UnsupportedTemplate):
        template_traits("cubic-ode")


def test_condition_systems_match_golden():
    start = time.monotonic()
    chunks = []
    for t in TEMPLATES:
        m = 2 if "system" in t else 1
        system = derive_conditions(t, m=m)
        assert len(system.equations) == EXPECTED_COUNTS[t]
        chunks.append(render_condition_system(system))
    text = "\n".join(chunks) + "\n"
    assert text == GOLDEN.read_text()
    assert time.monotonic() - start < 5.0


def test_zero_conditions_only_in_nonlinear_templates():
    for t in TEMPLATES:
        m = 2 if "system" in t else 1
        system = derive_conditions(t, m=m)
        zero = [eq for eq in system.equations if eq.is_zero_condition]
        if "nonlinear" in t:
            assert zero
        else:
            assert not zero


def test_scalar_m_must_be_one():
    with pytest.raises(Exception):
        derive_conditions("linear-ode", m=2)
    with pytest.raises(Exception):
        derive_conditions("linear-ode-system", m=1)


# ---------------------------------------------------------------------------
# both verification routes agree on plants and perturbations


def plant_ode(c1, c0, d1, d0):
    Q1 = make_operator(1, 1, {(1, 1): c1, (0, 1): c0})
    Q2 = make_operator(1, 1, {(1, 1): d1, (0, 1): d0})
    P = operator_from_jet(expand_product([Q1, Q2]))
    return P, FactorizationCandidate((Q1, Q2))


def both_routes(template, P, cand, m=1):
    rep = check_candidate(P, cand, CheckOptions(samples=6, tol=1e-9, seed=3))
    system = derive_conditions(template, m=m)
    residuals = condition_residuals(system, P, cand)
    return rep, all(is_zero(r) for _, r in residuals)


def test_planted_ode_passes_both_routes():
    P, cand = plant_ode(ONE, E("-x1"), ONE, E("x1^2"))
    rep, conds_ok = both_routes("linear-ode", P, cand)
    assert rep.passed
    assert conds_ok
    assert rep.numeric_max <= 1e-9


def test_perturbed_ode_fails_both_routes():
    P, cand = plant_ode(ONE, const(-1), ONE, const(-2))
    bad = make_operator(1, 1, {(2, 1): P.coeff(2, 1), (1, 1): P.coeff(1, 1),
                               (0, 1): simplify(P.coeff(0, 1) + ONE)})
    rep, conds_ok = both_routes("linear-ode", bad, cand)
    assert not rep.passed
    assert not conds_ok


def test_planted_pde_passes_both_routes():
    Q1 = make_operator(2, 1, {(0, 1): x_(1), (1, 1): ONE, (1, 2): x_(1)})
    Q2 = make_operator(2, 1, {(0, 1): x_(2), (1, 1): ONE, (1, 2): E("-x1")})
    P = operator_from_jet(expand_product([Q1, Q2]))
    rep, conds_ok = both_routes("linear-pde2", P, FactorizationCandidate((Q1, Q2)))
    assert rep.passed
    assert conds_ok


def test_planted_quasilinear_ode():
    Q1 = make_operator(1, 1, {(1, 1): ONE}, linear=False)
    Q2 = make_operator(1, 1, {(1, 1): ONE, (0, 1): E("(1/2)*u1")}, linear=False)
    P = operator_from_jet(expand_product([Q1, Q2]))
    assert not P.linear
    rep, conds_ok = both_routes("nonlinear-ode", P, FactorizationCandidate((Q1, Q2)))
    assert rep.passed
    assert conds_ok


def test_nonlinear_zero_condition_catches_dependent_leading_coeff():
    # a u-dependent leading coefficient in the inner factor violates the
    # closure conditions; the residual route sees it without expanding
    # (the product itself would not even be quasi-linear)
    Q1 = make_operator(1, 1, {(1, 1): ONE}, linear=False)
    Q2 = make_operator(1, 1, {(1, 1): u_(1)}, linear=False)
    P = make_operator(1, 1, {(2, 1): u_(1)}, linear=False)
    cand = FactorizationCandidate((Q1, Q2))
    system = derive_conditions("nonlinear-ode")
    residuals = condition_residuals(system, P, cand)
    zero_rows = [r for (i, r), eq in zip(residuals, system.equations)
                 if eq.is_zero_condition]
    assert zero_rows
    assert any(not is_zero(r) for r in zero_rows)


def test_planted_system_passes_both_routes():
    d = make_operator(1, 2, {(1, 1): ONE})
    one = make_operator(1, 2, {(0, 1): ONE})
    two = make_operator(1, 2, {(0, 1): const(2)})
    zero = make_operator(1, 2, {})
    N1 = MatrixOperator(1, 2, ((d, one), (zero, d)))
    N2 = MatrixOperator(1, 2, ((d, zero), (two, d)))
    grid = matrix_expand_product([N1, N2])
    entries = tuple(
        tuple(operator_from_jet(grid[p][q], q + 1) for q in range(2))
        for p in range(2)
    )
    P = MatrixOperator(1, 2, entries)
    cand = FactorizationCandidate((N1, N2))
    assert cand.is_matrix
    rep, conds_ok = both_routes("linear-ode-system", P, cand, m=2)
    assert rep.passed
    assert conds_ok


def test_system_perturbation_fails_both_routes():
    d = make_operator(1, 2, {(1, 1): ONE})
    one = make_operator(1, 2, {(0, 1): ONE})
    two = make_operator(1, 2, {(0, 1): const(2)})
    zero = make_operator(1, 2, {})
    N1 = MatrixOperator(1, 2, ((d, one), (zero, d)))
    N2 = MatrixOperator(1, 2, ((d, zero), (two, d)))
    grid = matrix_expand_product([N1, N2])
    entries = [[operator_from_jet(grid[p][q], q + 1) for q in range(2)]
               for p in range(2)]
    # drop the coupling entry the product requires
    entries[0][1] = make_operator(1, 2, {})
    P = MatrixOperator(1, 2, tuple(tuple(r) for r in entries))
    rep, conds_ok = both_routes("linear-ode-system", P,
                                FactorizationCandidate((N1, N2)), m=2)
    assert not rep.passed
    assert not conds_ok


def test_check_report_fields():
    P, cand = plant_ode(ONE, const(-1), ONE, const(-2))
    rep = check_candidate(P, cand, CheckOptions(samples=5, tol=1e-8, seed=11))
    assert rep.passed
    assert rep.samples == 5
    assert rep.tol == 1e-8
    assert rep.seed == 11
    assert rep.numeric_max == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("fields, kind, message", [
    ({"samples": 0}, ValidationError, "0 probe samples; need at least 1"),
    ({"tol": float("nan")}, ValidationError, "tolerance nan is not a finite number >= 0"),
    ({"tol": -1.0}, ValidationError, "tolerance -1.0 is not a finite number >= 0"),
    ({"samples": MAX_SAMPLES + 1}, CapacityExceeded,
     f"{MAX_SAMPLES + 1} probe samples exceed {MAX_SAMPLES}"),
])
def test_check_options_check_their_own_fields(fields, kind, message):
    # refused where the options are made, before any candidate is read
    with pytest.raises(kind) as info:
        CheckOptions(**fields)
    assert type(info.value) is kind and str(info.value) == message


def test_check_is_deterministic_in_seed():
    P, cand = plant_ode(ONE, E("-x1"), ONE, E("x1"))
    bad = make_operator(1, 1, {(2, 1): ONE, (1, 1): P.coeff(1, 1),
                               (0, 1): simplify(P.coeff(0, 1) + x_(1))})
    r1 = check_candidate(bad, cand, CheckOptions(seed=5))
    r2 = check_candidate(bad, cand, CheckOptions(seed=5))
    assert r1.numeric_max == r2.numeric_max


# ---------------------------------------------------------------------------
# the numeric probe is independent of the symbolic route


def _expanded(N1, N2):
    """P = N1 N2, read back cell by cell from the expansion."""
    grid = matrix_expand_product([as_matrix(N1), as_matrix(N2)])
    m = len(grid)
    rows = tuple(tuple(operator_from_jet(grid[p][q], q + 1) for q in range(m))
                 for p in range(m))
    return MatrixOperator(N1.n, m, rows)


def _probe_plants():
    """(P, N1, N2, P with 1 added to its (1,1) order-0 coefficient) for a
    linear-pde2, a nonlinear-pde2 and a 2x2 linear-pde2-system split."""
    out = []
    nl = lambda n, m, coeffs: make_operator(n, m, {k: E(v) for k, v in coeffs.items()},
                                            linear=False)
    scalar = [
        (nl(2, 1, {(1, 1): "2", (1, 2): "x1 - x2", (0, 1): "exp(x2)/(3 + x1)"}),
         nl(2, 1, {(1, 1): "-1", (1, 2): "x1^2 + 1", (0, 1): "log(2 + x2) - x1"})),
        (nl(2, 1, {(1, 1): "1", (1, 2): "x2", (0, 1): "u1^2 + x1"}),
         nl(2, 1, {(1, 1): "-2", (1, 2): "1 - x1", (0, 1): "x2*u1 - 1/2"})),
    ]
    for Q1, Q2 in scalar:
        out.append((as_matrix(Q1), as_matrix(Q2)))
    D = lambda a, b, c: nl(2, 2, {(1, 1): a, (1, 2): b, (0, 1): c})
    c = lambda value: nl(2, 2, {(0, 1): value})
    out.append((MatrixOperator(2, 2, ((D("1", "x2", "x1"), c("1")),
                                      (c("x1 - x2"), D("1", "-1", "2")))),
                MatrixOperator(2, 2, ((D("2", "1", "0"), c("x1^2")),
                                      (c("-2"), D("1", "x1", "1"))))))
    plants = []
    for N1, N2 in out:
        P = _expanded(N1, N2)
        e11 = P.entries[0][0]
        bumped = make_operator(e11.n, e11.m, {**{(d.k, d.h): c for d, c in e11.coeffs},
                                              (0, 1): simplify(e11.coeff(0, 1) + ONE)},
                               linear=False)
        rows = ((bumped,) + P.entries[0][1:],) + P.entries[1:]
        plants.append((P, N1, N2, MatrixOperator(P.n, P.m, rows)))
    return plants


def _probe(P, N1, N2):
    return _numeric_probe(P, [N1, N2], random.Random(7), CheckOptions())


def test_numeric_probe_runs_without_the_symbolic_route(monkeypatch):
    plants = _probe_plants()
    expected = [(_probe(P, N1, N2), _probe(bad, N1, N2)) for P, N1, N2, bad in plants]

    def forbidden(*args, **kwargs):
        raise AssertionError("the numeric probe reached the symbolic route")
    for name, module in list(sys.modules.items()):
        if name == "opfactor" or name.startswith("opfactor."):
            for attr in ("simplify", "total_derivative", "apply_to_expr",
                         "matrix_apply", "ratio"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    with pytest.raises(AssertionError, match="symbolic route"):
        sys.modules["opfactor.conditions"].simplify(x_(1))
    for (P, N1, N2, bad), (gap, bad_gap) in zip(plants, expected):
        assert _probe(P, N1, N2) == gap < 1e-12
        assert _probe(bad, N1, N2) == bad_gap > 1e-3


# ---------------------------------------------------------------------------
# discriminant of the principal symbol


def test_discriminant_constant_cases():
    wave = make_operator(2, 1, {(2, 1): ONE, (2, 4): const(-1)})
    laplace = make_operator(2, 1, {(2, 1): ONE, (2, 4): ONE})
    heat = make_operator(2, 1, {(2, 1): ONE, (1, 2): const(-1)})
    assert discriminant(wave) == const(4)
    assert discriminant(laplace) == const(-4)
    assert discriminant(heat) == ZERO


def test_discriminant_variable_case():
    P = make_operator(2, 1, {(2, 1): ONE, (2, 4): E("-x1^2")})
    assert discriminant(P) == E("4*x1^2")


def test_discriminant_identity_for_products():
    # for any factorization the discriminant is the square of the
    # difference of the cross terms
    cases = [
        (ONE, x_(1), ONE, E("-x1")),
        (const(2), const(3), ONE, const(-1)),
        (ONE, E("x1 + x2"), ONE, E("x2")),
    ]
    for b111, b112, b211, b212 in cases:
        Q1 = make_operator(2, 1, {(1, 1): b111, (1, 2): b112})
        Q2 = make_operator(2, 1, {(1, 1): b211, (1, 2): b212})
        P = operator_from_jet(expand_product([Q1, Q2]))
        expected = simplify((b112 * b211 - b111 * b212) ** 2)
        assert simplify(discriminant(P) - expected) == ZERO
