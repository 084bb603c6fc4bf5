"""Problem file parsing, validation, and canonical printing."""

import pathlib
import time
from fractions import Fraction

import pytest

from opfactor.errors import DomainError, ParseError, ValidationError
from opfactor.expr import ONE, const, simplify
from opfactor.parse import parse_expr
from opfactor.problemfile import parse_problem, print_problem

PROBLEMS = pathlib.Path(__file__).parent / "problems"


def E(text):
    return simplify(parse_expr(text))


SCALAR = """
[problem]
kind = linear-ode

[operator]
g[2,1] = "1"
g[1,1] = "-3"
g[0,1] = "2"

[Q1]
b[1,1] = "1"
b[0,1] = "-1"

[Q2]
b[1,1] = "1"
b[0,1] = "-2"

[solve]
interval = 0,1
steps = 256
constant = 2
"""


def test_parse_scalar_roundtrip():
    p = parse_problem(SCALAR)
    assert p.kind == "linear-ode"
    assert (p.n, p.m) == (1, 1)
    assert not p.is_system
    assert p.operator.coeff(1, 1) == const(-3)
    assert p.candidate is not None
    assert p.candidate.factors[0].coeff(0, 1) == const(-1)
    assert p.solve.interval == (0.0, 1.0)
    assert p.solve.steps == 256
    assert p.solve.constant == Fraction(2)
    again = parse_problem(print_problem(p))
    assert print_problem(again) == print_problem(p)


def test_parse_operator_only():
    text = '[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\ng[0,1] = "-x1"\n'
    p = parse_problem(text)
    assert p.candidate is None
    assert p.solve is None
    assert p.operator.coeff(0, 1) == E("-x1")


def test_comments_and_blank_lines_ignored():
    text = ('# leading comment\n[problem]\n# inside\nkind = linear-ode\n\n'
            '[operator]\ng[2,1] = "1"\n')
    assert parse_problem(text).kind == "linear-ode"


def test_all_fixture_files_parse_and_roundtrip():
    files = sorted(PROBLEMS.glob("*.ini"))
    assert len(files) >= 12
    for path in files:
        p = parse_problem(path.read_text())
        canon = print_problem(p)
        assert print_problem(parse_problem(canon)) == canon


def test_system_fixture_shape():
    p = parse_problem((PROBLEMS / "system-coupled.ini").read_text())
    assert p.is_system
    assert (p.n, p.m) == (1, 2)
    assert p.operator.entries[0][1].coeff(1, 1) == ONE
    assert p.candidate.is_matrix


def test_pde_fixture_shape():
    p = parse_problem((PROBLEMS / "pde2-wave.ini").read_text())
    assert p.n == 2
    assert p.operator.coeff(2, 4) == const(-1)


# ---------------------------------------------------------------------------
# validation errors


def bad(text):
    with pytest.raises(ValidationError) as info:
        parse_problem(text)
    return str(info.value)


def test_missing_problem_section():
    bad('[operator]\ng[2,1] = "1"\n')


def test_missing_operator_section():
    bad("[problem]\nkind = linear-ode\n")


def test_unknown_kind():
    msg = bad('[problem]\nkind = cubic\n\n[operator]\ng[2,1] = "1"\n')
    assert "cubic" in msg


def test_unknown_section():
    bad('[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\n\n[Q3]\nb[1,1] = "1"\n')


def test_duplicate_key():
    bad('[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\ng[2,1] = "2"\n')


def test_wrong_key_family_for_scalar():
    bad('[problem]\nkind = linear-ode\n\n[operator]\nf[1,1,2,1] = "1"\n')


def test_slot_out_of_range():
    bad('[problem]\nkind = linear-ode\n\n[operator]\ng[2,2] = "1"\n')
    bad('[problem]\nkind = linear-ode\n\n[operator]\ng[3,1] = "1"\n')


SYSTEM_FACTORS = ('[problem]\nkind = linear-pde2-system\nm = 2\n\n[operator]\n'
                  'f[1,1,2,1] = "1"\nf[2,2,2,1] = "1"\n\n'
                  '[N1]\na[1,1,1,1] = "1"\na[2,2,1,1] = "1"\n\n[N2]\n')


def test_order_bound_is_the_sections_own():
    # a system factor is first order: its bound used to read "exceeds 2"
    assert bad(SYSTEM_FACTORS + 'a[1,1,3,1] = "1"\n') == "a[1,1,3,1] on line 14: order 3 exceeds 1"
    assert bad(SYSTEM_FACTORS + 'a[1,1,2,1] = "1"\n') == "a[1,1,2,1] on line 14: order 2 exceeds 1"
    assert bad('[problem]\nkind = linear-pde2-system\nm = 2\n\n[operator]\n'
               'f[1,1,3,1] = "1"\n') == "f[1,1,3,1] on line 6: order 3 exceeds 2"
    # the bound comes before the slot range, so n ** k is never formed
    start = time.monotonic()
    msg = bad(SYSTEM_FACTORS + 'a[1,1,999999999999,1] = "1"\n')
    assert time.monotonic() - start < 1.0
    assert msg == "a[1,1,999999999999,1] on line 14: order 999999999999 exceeds 1"


@pytest.mark.parametrize("value, message", [
    ("log(0)", "g[1,1] on line 7: log(0) is not a real number"),
    ("x1 + sqrt(-4)", "g[1,1] on line 7: sqrt(-4) is not a real number"),
    ("1/0", "g[1,1] on line 7: division by a zero expression"),
])
def test_undefined_coefficient_names_its_key_and_line(value, message):
    text = f'[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\n\ng[1,1] = "{value}"\n'
    with pytest.raises(DomainError) as info:
        parse_problem(text)
    assert str(info.value) == message


def test_missing_second_order_coefficient():
    msg = bad('[problem]\nkind = linear-ode\n\n[operator]\ng[1,1] = "1"\n')
    assert "second order" in msg


def test_system_diagonal_needs_nonzero_second_order_coefficient():
    base = ('[problem]\nkind = linear-ode-system\nm = 2\n\n[operator]\n'
            'f[1,1,1,1] = "-3"\nf[2,2,2,1] = "1"\n')
    msg = bad(base + 'f[1,1,2,1] = "0"\n')
    assert "diagonal entry (1,1)" in msg
    assert "second order" in msg
    bad(base + 'f[1,1,2,1] = "x1 - x1"\n')
    assert parse_problem(base + 'f[1,1,2,1] = "1"\n').operator.order == 2


def test_scalar_zero_second_order_coefficient_rejected():
    msg = bad('[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "0"\ng[1,1] = "1"\n')
    assert msg == "operator needs a nonzero second order coefficient"


def test_linear_kind_rejects_dependent_coefficient():
    bad('[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\ng[1,1] = "u1"\n')


def test_nonlinear_kind_accepts_dependent_coefficient():
    text = '[problem]\nkind = nonlinear-ode\n\n[operator]\ng[2,1] = "1"\ng[1,1] = "u1"\n'
    p = parse_problem(text)
    assert not p.operator.linear


def test_candidate_needs_both_factors():
    bad('[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\n\n[Q1]\nb[1,1] = "1"\n')


def test_candidate_factors_must_be_first_order():
    bad('[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\n\n'
        '[Q1]\nb[1,1] = "1"\n\n[Q2]\nb[2,1] = "1"\n')


def test_system_kind_needs_m():
    bad('[problem]\nkind = linear-ode-system\n\n[operator]\nf[1,1,2,1] = "1"\n')


def test_scalar_kind_rejects_system_sections():
    bad('[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\n\n'
        '[N1]\na[1,1,1,1] = "1"\n\n[N2]\na[1,1,1,1] = "1"\n')


def test_solve_validation():
    base = '[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\n\n[solve]\n'
    bad(base + "interval = 1,0\n")
    bad(base + "interval = 1\n")
    bad(base + "steps = -4\n")
    bad(base + "steps = many\n")
    bad(base + "flavor = blue\n")


def test_interval_endpoints_must_be_finite():
    base = '[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1"\n\n[solve]\n'
    for value in ("0,inf", "-inf,1", "nan,1", "0,nan", "0,1e400"):
        assert "finite" in bad(base + f"interval = {value}\n")


def test_interval_roundtrips_at_full_precision():
    text = SCALAR.replace("interval = 0,1", "interval = 0.1234567891,1")
    p = parse_problem(text)
    assert p.solve.interval == (0.1234567891, 1.0)
    assert parse_problem(print_problem(p)) == p


def test_unquoted_value_tolerated():
    # quotes are canonical but plain values parse too
    p = parse_problem('[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = 1\n')
    assert p.operator.coeff(2, 1) == const(1)
    with pytest.raises(ParseError):
        parse_problem('[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1\n')


# ---------------------------------------------------------------------------
# parse errors carry positions


def test_bad_expression_position():
    text = '[problem]\nkind = linear-ode\n\n[operator]\ng[2,1] = "1 +"\n'
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert "line 5" in str(info.value)


def test_structural_parse_error():
    with pytest.raises(ParseError):
        parse_problem("[problem\nkind = linear-ode\n")
    with pytest.raises(ParseError):
        parse_problem("[problem]\njust some words\n")


@pytest.mark.parametrize("section, line", [
    ("solve", "steps = ６４"),
    ("solve", "interval = -１,1"),
    ("solve", "constant = ３"),
    ("problem", "m = １"),
    ("problem", "n = １"),
])
def test_plain_numbers_take_ascii_digits_only(section, line):
    # int(), float() and Fraction() read any Unicode decimal digit, so
    # steps = ６４ ran 64 steps
    text = ('[problem]\nkind = linear-ode\n' + (line + "\n" if section == "problem" else "")
            + '\n[operator]\ng[2,1] = "1"\n\n[solve]\n'
            + (line + "\n" if section == "solve" else ""))
    bad(text)
