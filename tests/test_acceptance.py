"""Acceptance gate: one test per contract criterion, stated bounds enforced.

Each test prints one PASS line under -v through its own pytest status;
runtimes are measured inside the tests that carry a budget.
"""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from opfactor.cascade import (
    CascadeOptions,
    cascade_ode,
    cascade_system_numeric,
    verify_solution,
)
from opfactor.cli import main as cli_main
from opfactor.conditions import (
    CheckOptions,
    FactorizationCandidate,
    TEMPLATES,
    check_candidate,
    derive_conditions,
    discriminant,
    render_condition_system,
)
from opfactor.errors import NoRealFactorization
from opfactor.expr import (
    Const,
    ONE,
    Power,
    ZERO,
    const,
    is_zero,
    render,
    simplify,
    u_,
    x_,
)
from opfactor.factor import (
    factor_constant,
    factor_pde_second_order,
    riccati_candidate,
    riccati_from_operator,
    solve_riccati_ansatz,
)
from opfactor.jet import (
    DerivIndex,
    axes_to_index,
    canonical_slot,
    compose_index,
    decompose_index,
    index_to_axes,
    index_to_multiindex,
    multiindex_to_index,
    slot_count,
)
from opfactor.operator import (
    MatrixOperator,
    expand_product,
    make_operator,
    operator_from_jet,
)
from opfactor.parse import parse_expr

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden" / "condition_systems.txt"
PROBLEMS = HERE / "problems"


def E(text):
    return simplify(parse_expr(text))


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
# 1. golden proposition lists


def test_criterion_1_golden_condition_systems():
    """All eight derived condition systems match the frozen fixtures, < 5 s."""
    start = time.monotonic()
    chunks = []
    for template in TEMPLATES:
        m = 2 if "system" in template else 1
        chunks.append(render_condition_system(derive_conditions(template, m=m)))
    text = "\n".join(chunks) + "\n"
    assert text == GOLDEN.read_text()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"golden derivation took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. expansion identity suite


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


def test_criterion_2_expansion_identity_suite():
    """200 plants per scalar template pass both check routes, < 60 s."""
    start = time.monotonic()
    scalar_templates = [t for t in TEMPLATES if not t.endswith("system")]
    assert len(scalar_templates) == 4
    for template in scalar_templates:
        rng = random.Random(42)
        for _ in range(200):
            Q1, Q2 = plant_scalar(rng, template)
            P = operator_from_jet(expand_product([Q1, Q2]))
            rep = check_candidate(P, FactorizationCandidate((Q1, Q2)),
                                  CheckOptions(samples=8, tol=1e-9, seed=1))
            assert rep.passed, template
            assert rep.numeric_max < 1e-9, (template, rep.numeric_max)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"expansion suite took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. discriminant identity


def test_criterion_3_discriminant_identity():
    """Delta of 100 planted pde2 splits equals the cross-term square exactly."""
    rng = random.Random(5)
    gens = (x_(1), x_(2))
    for _ in range(100):
        b111 = rand_poly(rng, gens)
        b112 = rand_poly(rng, gens)
        b211 = rand_poly(rng, gens)
        b212 = rand_poly(rng, gens)
        Q1 = make_operator(2, 1, {(1, 1): b111, (1, 2): b112,
                                  (0, 1): rand_poly(rng, gens)})
        Q2 = make_operator(2, 1, {(1, 1): b211, (1, 2): b212,
                                  (0, 1): rand_poly(rng, gens)})
        P = operator_from_jet(expand_product([Q1, Q2]))
        expected = simplify((b112 * b211 - b111 * b212) ** 2)
        assert simplify(discriminant(P) - expected) == ZERO


# ---------------------------------------------------------------------------
# 4. Riccati equivalence


def test_criterion_4_riccati_equivalence():
    """50 plants are recovered by the degree-3 ansatz; the +1 perturbed
    operators admit no polynomial solution. < 30 s."""
    start = time.monotonic()
    rng = random.Random(9)
    for _ in range(50):
        X = rand_poly(rng, (x_(1),))
        Y = rand_poly(rng, (x_(1),))
        Q1 = make_operator(1, 1, {(1, 1): ONE, (0, 1): X})
        Q2 = make_operator(1, 1, {(1, 1): ONE, (0, 1): Y})
        P = operator_from_jet(expand_product([Q1, Q2]))
        prob = riccati_from_operator(P)
        ys = solve_riccati_ansatz(prob)
        assert ys, (render(X), render(Y))
        assert any(
            check_candidate(P, riccati_candidate(prob, y),
                            CheckOptions(samples=6, seed=2)).passed
            for y in ys
        )
        bumped = make_operator(1, 1, {
            (2, 1): P.coeff(2, 1), (1, 1): P.coeff(1, 1),
            (0, 1): simplify(P.coeff(0, 1) + ONE)})
        leftovers = solve_riccati_ansatz(riccati_from_operator(bumped))
        assert leftovers == [], [render(y) for y in leftovers]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"riccati suite took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 5. worked-example battery


def test_criterion_5_worked_examples():
    """The named splits behave exactly as documented."""
    # (D - 1)(D - 2) recovery from u'' - 3u' + 2u
    P = make_operator(1, 1, {(2, 1): ONE, (1, 1): const(-3), (0, 1): const(2)})
    found = factor_constant(P)
    zero_orders = sorted(
        (c.factors[0].coeff(0, 1).value, c.factors[1].coeff(0, 1).value)
        for c in found
    )
    assert zero_orders == [(Fraction(-2), Fraction(-1)), (Fraction(-1), Fraction(-2))]
    for cand in found:
        assert check_candidate(P, cand).passed

    # (x + D)(-x + D) for u'' - (x^2 + 1) u
    P = make_operator(1, 1, {(2, 1): ONE, (0, 1): E("-x1^2 - 1")})
    prob = riccati_from_operator(P)
    ys = solve_riccati_ansatz(prob)
    assert E("-x1") in ys
    cand = riccati_candidate(prob, E("-x1"))
    assert cand.factors[0].coeff(0, 1) == E("x1")
    assert cand.factors[1].coeff(0, 1) == E("-x1")
    assert check_candidate(P, cand).passed

    # wave operator splits both ways
    wave = make_operator(2, 1, {(2, 1): ONE, (2, 4): const(-1)})
    res = factor_pde_second_order(wave)
    assert len(res.candidates) == 2
    for cand in res.candidates:
        assert check_candidate(wave, cand).passed

    # Laplace operator is rejected
    with pytest.raises(NoRealFactorization):
        factor_pde_second_order(make_operator(2, 1, {(2, 1): ONE, (2, 4): ONE}))

    # quasi-linear u'' + u u' candidate passes
    P = make_operator(1, 1, {(2, 1): ONE, (1, 1): u_(1)}, linear=False)
    Q1 = make_operator(1, 1, {(1, 1): ONE}, linear=False)
    Q2 = make_operator(1, 1, {(1, 1): ONE, (0, 1): E("(1/2)*u1")}, linear=False)
    rep = check_candidate(P, FactorizationCandidate((Q1, Q2)))
    assert rep.passed and rep.numeric_max < 1e-12


# ---------------------------------------------------------------------------
# 6. cascade verification


CONSTANT_BATTERY = [
    ((1, -1), (1, -2)),
    ((1, 0), (1, 0)),
    ((1, 1), (1, -1)),
    ((1, -2), (1, -2)),
    ((2, -2), (1, 3)),
]


def test_criterion_6_cascade_verification():
    """Cascade solutions verify: symbolic zeros for the constant battery,
    the quasi-linear closed form, and O(h^2) system residuals."""
    for (a1, a0), (b1, b0) in CONSTANT_BATTERY:
        Q1 = make_operator(1, 1, {(1, 1): const(a1), (0, 1): const(a0)})
        Q2 = make_operator(1, 1, {(1, 1): const(b1), (0, 1): const(b0)})
        sol = cascade_ode(FactorizationCandidate((Q1, Q2)))
        P = operator_from_jet(expand_product([Q1, Q2]))
        for piece, target in ((sol.u0, P), (sol.v1, Q1), (sol.u1, P)):
            assert piece.form is not None, piece.label
            rep = verify_solution(target, piece.form)
            assert rep.symbolic_zero, (piece.label, render(piece.form))
            assert piece.residual == 0.0

    # quasi-linear: u'' + u u' has u0 = 2/(x + 1) exactly
    Q1 = make_operator(1, 1, {(1, 1): ONE}, linear=False)
    Q2 = make_operator(1, 1, {(1, 1): ONE, (0, 1): E("(1/2)*u1")}, linear=False)
    sol = cascade_ode(FactorizationCandidate((Q1, Q2)),
                      CascadeOptions(interval=(0.0, 1.0)))
    assert sol.u0.form == E("2/(x1 + 1)")
    assert sol.u0.residual == 0.0

    # system: residual <= 1e-5 at 1024 steps on [0,1], factor >= 3.5 on doubling
    d = make_operator(1, 2, {(1, 1): ONE})
    one = make_operator(1, 2, {(0, 1): ONE})
    two = make_operator(1, 2, {(0, 1): const(2)})
    zero = make_operator(1, 2, {})
    N1 = MatrixOperator(1, 2, ((d, one), (zero, d)))
    N2 = MatrixOperator(1, 2, ((d, zero), (two, d)))
    cand = FactorizationCandidate((N1, N2))
    worst = {}
    for steps in (512, 1024):
        sol = cascade_system_numeric(cand, (0.0, 1.0), CascadeOptions(steps=steps))
        worst[steps] = max(p.residual for p in sol.pieces)
    assert worst[1024] <= 1e-5, worst
    assert worst[512] / worst[1024] >= 3.5, worst


# ---------------------------------------------------------------------------
# 7. index-calculus exhaustives


def test_criterion_7_index_calculus_exhaustive():
    """Slot arithmetic invariants hold for every slot with n <= 3, k <= 4, < 1 s."""
    start = time.monotonic()
    for n in range(1, 4):
        for k in range(5):
            seen = set()
            for h in range(1, slot_count(n, k) + 1):
                d = DerivIndex(k, h, n)
                axes = index_to_axes(d)
                seen.add(axes)
                assert axes_to_index(axes, n) == d
                mu = index_to_multiindex(d)
                assert sum(mu) == k
                assert multiindex_to_index(mu, n) == canonical_slot(d)
                assert canonical_slot(canonical_slot(d)) == canonical_slot(d)
                if k:
                    axis, inner = decompose_index(d)
                    assert compose_index(axis, inner) == d
                for axis in range(1, n + 1):
                    up = compose_index(axis, d)
                    assert decompose_index(up) == (axis, d)
            assert len(seen) == slot_count(n, k)
            assert seen == set(itertools.product(range(1, n + 1), repeat=k))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"index sweep took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 8. CLI contract


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_8_cli_contract(capsys):
    """>= 12 fixtures drive every command; exit codes, schema, determinism."""
    fixtures = sorted(PROBLEMS.glob("*.ini"))
    assert len(fixtures) >= 12

    # every command runs over the corpus with contract exit codes
    for p in fixtures:
        code, out, err = run_cli(capsys, "expand", str(p))
        assert code == 0, (p.name, err)
        code, out, err = run_cli(capsys, "conditions", str(p))
        assert code == 0
        code, out, err = run_cli(capsys, "check", str(p))
        assert code in (0, 1, 2)
        code, out, err = run_cli(capsys, "factor", str(p))
        assert code in (0, 1)
        code, out, err = run_cli(capsys, "cascade", str(p))
        assert code in (0, 1)

    # named exit codes
    assert run_cli(capsys, "check", str(PROBLEMS / "ode-const-factorable.ini"))[0] == 0
    assert run_cli(capsys, "check", str(PROBLEMS / "ode-check-fail.ini"))[0] == 1
    assert run_cli(capsys, "check", "missing.ini")[0] == 2
    assert run_cli(capsys, "factor", str(PROBLEMS / "ode-const-norealroots.ini"))[0] == 1

    # JSON schema and determinism under a fixed seed
    for args in (
        ("expand", "--json", str(PROBLEMS / "system-coupled.ini")),
        ("conditions", "--json", "--kind", "nonlinear-pde2"),
        ("check", "--json", "--seed", "4", str(PROBLEMS / "pde2-wave.ini")),
        ("factor", "--json", str(PROBLEMS / "ode-riccati-poly.ini")),
        ("cascade", "--json", str(PROBLEMS / "system-diag.ini")),
    ):
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second, args
        doc = json.loads(first[1])
        assert doc["schema"] == 1
        assert doc["command"] == args[0]
        assert first[1] == json.dumps(doc, indent=2, sort_keys=True) + "\n"
