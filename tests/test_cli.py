"""Command line contract: subcommands, exit codes, JSON schema, CSV export."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

from opfactor.cascade import MAX_STEPS
from opfactor.cli import main
from opfactor.conditions import MAX_SAMPLES
from opfactor.expr import MAX_PRODUCT_PAIRS
from opfactor.factor import MAX_ANSATZ_DEGREE
from opfactor.parse import MAX_EXPONENT, MAX_NESTING
from opfactor.problemfile import parse_problem, print_problem

PROBLEMS = pathlib.Path(__file__).parent / "problems"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name):
    return str(PROBLEMS / name)


def test_fixture_corpus_is_large_enough():
    assert len(list(PROBLEMS.glob("*.ini"))) >= 12


# ---------------------------------------------------------------------------
# expand


def test_expand_text(capsys):
    code, out, err = run(capsys, "expand", path("ode-const-factorable.ini"))
    assert code == 0
    assert "u1_x1x1 - 3*u1_x1 + 2*u1" in out


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, "expand", "--json", path("ode-const-factorable.ini"))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "expand"
    assert "rendered" in doc or "cells" in doc or "terms" in doc


def test_expand_system_cells(capsys):
    code, out, _ = run(capsys, "expand", "--json", path("system-coupled.ini"))
    assert code == 0
    doc = json.loads(out)
    cells = doc["cells"]
    assert any(c["row"] == 1 and c["col"] == 2 for c in cells)


# ---------------------------------------------------------------------------
# conditions


def test_conditions_from_kind(capsys):
    code, out, _ = run(capsys, "conditions", "--kind", "linear-ode")
    assert code == 0
    assert "g[2,1] = b[1,1,1]*b[2,1,1]" in out


def test_conditions_from_file(capsys):
    code, out, _ = run(capsys, "conditions", path("pde2-wave.ini"))
    assert code == 0
    assert "g[2,4] = b[1,1,2]*b[2,1,2]" in out


def test_conditions_unknown_kind_is_validation_error(capsys):
    code, out, err = run(capsys, "conditions", "--kind", "cubic")
    assert code == 2
    assert "error" in err.lower()


def test_conditions_json_lists_equations(capsys):
    code, out, _ = run(capsys, "conditions", "--json", "--kind",
                       "nonlinear-ode")
    assert code == 0
    doc = json.loads(out)
    eqs = doc["equations"]
    assert len(eqs) == 4
    assert any(e["zero_condition"] for e in eqs)


# ---------------------------------------------------------------------------
# check


def test_check_pass_text_and_exit(capsys):
    code, out, _ = run(capsys, "check", path("ode-const-factorable.ini"))
    assert code == 0
    assert out.splitlines()[0] == "PASS, 3/3 conditions residual 0"


def test_check_fail_exit_one(capsys):
    code, out, _ = run(capsys, "check", path("ode-check-fail.ini"))
    assert code == 1
    assert out.startswith("FAIL")


def test_check_without_candidate_is_validation_error(capsys):
    code, _, err = run(capsys, "check", path("ode-riccati-poly.ini"))
    assert code == 2


def test_check_json_fields(capsys):
    code, out, _ = run(capsys, "check", "--json", path("pde2-wave.ini"))
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check"
    assert doc["verdict"] == "PASS"
    assert doc["conditions"]["zero"] == doc["conditions"]["total"] == 6
    assert doc["samples"] == 8
    assert doc["numeric_max"] < 1e-12
    assert doc["residuals"] == [] and doc["condition_residuals"] == []


def test_check_seed_and_samples_flags(capsys):
    code, out, _ = run(capsys, "check", "--json", "--seed", "9",
                       "--samples", "4", path("ode-const-factorable.ini"))
    doc = json.loads(out)
    assert doc["seed"] == 9
    assert doc["samples"] == 4


def _split_with(tmp_path, coeff: str) -> str:
    """P = D^2 + (1 + L) D + L with its split (D + L)(D + 1), L = coeff."""
    ini = tmp_path / "split.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   f'[operator]\ng[2,1] = "1"\ng[1,1] = "1 + {coeff}"\ng[0,1] = "{coeff}"\n\n'
                   f'[Q1]\nb[0,1] = "{coeff}"\nb[1,1] = "1"\n\n'
                   '[Q2]\nb[0,1] = "1"\nb[1,1] = "1"\n', encoding="utf-8")
    return str(ini)


def test_check_redraws_probe_points_outside_the_domain(tmp_path, capsys):
    # log(x1) is undefined on half of the probe box
    code, out, _ = run(capsys, "check", "--json", _split_with(tmp_path, "log(x1)"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS" and doc["samples"] == 8
    assert doc["numeric_max"] <= 1e-9


def test_check_probe_gives_up_where_nothing_is_defined(tmp_path, capsys):
    code, out, _ = run(capsys, "check", "--json", _split_with(tmp_path, "log(-1 - x1^2)"))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_dependent_component_in_a_denominator(tmp_path, capsys):
    # (D)(D + 1/(1 + u)) has no jet polynomial: its u_x1 term is divided by 1 + u
    ini = tmp_path / "den.ini"
    ini.write_text('[problem]\nkind = nonlinear-ode\n\n'
                   '[operator]\ng[2,1] = "1"\ng[1,1] = "1/(1+u)^2"\n\n'
                   '[Q1]\nb[1,1] = "1"\n\n'
                   '[Q2]\nb[0,1] = "1/(1+u)"\nb[1,1] = "1"\n', encoding="utf-8")
    for command in ("expand", "check", "cascade"):
        code, _, err = run(capsys, command, str(ini))
        assert code == 1, command
        assert "NotQuasiLinear: u1 in a denominator" in err, command


# ---------------------------------------------------------------------------
# factor


def test_factor_constant_ode(capsys):
    code, out, _ = run(capsys, "factor", path("ode-const-factorable.ini"))
    assert code == 0
    assert "2 candidate(s)" in out


def test_factor_verdict_json(capsys):
    code, out, _ = run(capsys, "factor", "--json", path("ode-riccati-poly.ini"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "FACTORED"
    assert doc["candidates"]


def test_factor_no_real_roots(capsys):
    code, _, err = run(capsys, "factor", path("ode-const-norealroots.ini"))
    assert code == 1
    assert "NoRealFactorization" in err


def test_factor_ansatz_exhausted(capsys):
    code, out, _ = run(capsys, "factor", path("ode-riccati-nosolution.ini"))
    assert code == 1
    assert "NoSolutionInAnsatz" in out


def test_factor_ansatz_degree_flag(capsys):
    code, out, _ = run(capsys, "factor", "--json", "--ansatz-degree", "1",
                       path("ode-riccati-poly.ini"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "FACTORED"


def test_factor_pde_branches(capsys):
    code, out, _ = run(capsys, "factor", "--json", path("pde2-wave.ini"))
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == "4"
    assert len(doc["branches"]) == 2
    assert doc["verdict"] == "FACTORED"


def test_factor_pde_obligation(capsys):
    code, out, _ = run(capsys, "factor", "--json", path("pde2-parabolic.ini"))
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == "0"
    assert "obligation" in doc


def test_factor_system_unsupported(capsys):
    code, _, err = run(capsys, "factor", path("system-diag.ini"))
    assert code == 1
    assert "UnsupportedTemplate" in err


def test_factor_nonlinear_unsupported(capsys):
    code, _, err = run(capsys, "factor", path("nonlinear-ode-friction.ini"))
    assert code == 1


# ---------------------------------------------------------------------------
# cascade


def test_cascade_text_output(capsys):
    code, out, _ = run(capsys, "cascade", path("ode-const-factorable.ini"))
    assert code == 0
    assert "u0" in out and "u1" in out


def test_cascade_json_solutions(capsys):
    code, out, _ = run(capsys, "cascade", "--json", path("ode-const-factorable.ini"))
    assert code == 0
    doc = json.loads(out)
    labels = [s["label"] for s in doc["solutions"]]
    assert labels == ["u0", "v1", "u1"]
    assert doc["interval"] == [-1.0, 1.0]


def test_cascade_searches_when_no_candidate(capsys):
    code, out, _ = run(capsys, "cascade", "--json", path("ode-riccati-poly.ini"))
    assert code == 0
    doc = json.loads(out)
    assert doc["solutions"]


def test_cascade_interval_and_steps_flags(capsys):
    code, out, _ = run(capsys, "cascade", "--json", "--interval", "0,2",
                       "--steps", "128", path("ode-const-factorable.ini"))
    doc = json.loads(out)
    assert doc["interval"] == [0.0, 2.0]
    assert doc["steps"] == 128


def test_cascade_bad_interval_flag(capsys):
    code, _, err = run(capsys, "cascade", "--interval", "2,0",
                       path("ode-const-factorable.ini"))
    assert code == 2


def test_cascade_interval_flag_must_be_finite(capsys):
    for value in ("0,inf", "-inf,1", "0,nan"):
        code, out, _ = run(capsys, "cascade", "--json", f"--interval={value}",
                           path("ode-const-factorable.ini"))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError" and "finite" in error["message"]


def test_cascade_blowup_is_domain_error(tmp_path, capsys):
    # Q2 = D - u^3: u0' = u0^4 with u0(2) = 1 blows up at x1 = 7/3
    ini = tmp_path / "blowup.ini"
    ini.write_text('[problem]\nkind = nonlinear-ode\n\n'
                   '[operator]\ng[2,1] = "1"\ng[1,1] = "-4*u^3"\n\n'
                   '[Q1]\nb[1,1] = "1"\n\n'
                   '[Q2]\nb[0,1] = "-u^3"\nb[1,1] = "1"\n\n'
                   '[solve]\ninterval = 0,4\n', encoding="utf-8")
    code, out, _ = run(capsys, "cascade", "--json", str(ini))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_cascade_pde_unsupported(capsys):
    code, _, err = run(capsys, "cascade", path("pde2-wave.ini"))
    assert code == 1
    assert "UnsupportedTemplate" in err


def test_cascade_system(capsys):
    code, out, _ = run(capsys, "cascade", "--json", path("system-coupled.ini"))
    assert code == 0
    doc = json.loads(out)
    assert doc["solutions"]
    assert all(s["residual"] <= 1e-5 for s in doc["solutions"])


def test_cascade_csv_export(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "cascade", "--csv", str(target),
                       path("system-diag.ini"))
    assert code == 0
    written = sorted(tmp_path.glob("out-*.csv"))
    assert written
    header = written[0].read_text().splitlines()[0]
    assert header == "x,u1,u2"
    row = written[0].read_text().splitlines()[1].split(",")
    assert len(row) == 3
    float(row[0])


def test_cascade_scalar_csv(tmp_path, capsys):
    target = tmp_path / "tr.csv"
    code, _, _ = run(capsys, "cascade", "--csv", str(target),
                     path("ode-const-factorable.ini"))
    assert code == 0
    files = sorted(tmp_path.glob("tr-*.csv"))
    assert len(files) == 3
    assert files[0].read_text().splitlines()[0] == "x,u1"


# ---------------------------------------------------------------------------
# cross-cutting contract


def test_flags_of_other_commands_are_rejected(capsys):
    for argv in (["expand", "--seed", "5"], ["check", "--csv", "out.csv"],
                 ["factor", "--steps", "3"], ["cascade", "--seed", "1"],
                 ["conditions", "--samples", "5"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, path("ode-const-factorable.ini")])
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_json_usage_error_is_a_json_document(capsys):
    for argv in (["check", "--json", "--bogus"], ["expand", "--json", "--seed", "5"],
                 ["check", "--json", "--seed", "x"]):
        code, out, err = run(capsys, *argv, path("ode-const-factorable.ini"))
        assert code == 2, argv
        assert err == ""
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["command"] == argv[0]
        assert doc["error"]["type"] == "ValidationError"


def test_huge_exponent_is_a_parse_error(tmp_path, capsys):
    # without MAX_EXPONENT, expand ran on this until it was killed
    ini = tmp_path / "huge.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   '[operator]\ng[2,1] = "1"\ng[0,1] = "x1^100000000"\n', encoding="utf-8")
    start = time.monotonic()
    code, out, _ = run(capsys, "expand", "--json", str(ini))
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ParseError",
        "message": f"line 6, column 14: exponent larger than {MAX_EXPONENT} in absolute value"}



def test_huge_product_is_a_capacity_error(tmp_path, capsys):
    # (x1+x2+1)^400 has 80,601 terms; expand ran on it until it was killed
    ini = tmp_path / "wide.ini"
    ini.write_text('[problem]\nkind = linear-pde2\n\n'
                   '[operator]\ng[2,1] = "1"\ng[0,1] = "(x1+x2+1)^400"\n', encoding="utf-8")
    start = time.monotonic()
    code, out, _ = run(capsys, "expand", "--json", str(ini))
    assert time.monotonic() - start < 1.0
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "CapacityExceeded"
    assert f"exceeds {MAX_PRODUCT_PAIRS} term pairs" in error["message"]

@pytest.mark.parametrize("coeff", ["x1^²", "x²", "٣", "x٣"])
def test_non_ascii_digits_are_a_parse_error(tmp_path, capsys, coeff):
    # x1^² and x² used to end in a traceback, with no JSON document
    ini = tmp_path / "digits.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   f'[operator]\ng[2,1] = "1"\ng[0,1] = "{coeff}"\n', encoding="utf-8")
    code, out, _ = run(capsys, "expand", "--json", str(ini))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("command, flag, value, fixture", [
    ("factor", "--ansatz-degree", MAX_ANSATZ_DEGREE + 1, "ode-riccati-poly.ini"),
    ("factor", "--ansatz-degree", 64, "ode-riccati-poly.ini"),
    ("cascade", "--steps", MAX_STEPS + 1, "ode-const-factorable.ini"),
    ("cascade", "--steps", 10 ** 9, "ode-const-factorable.ini"),
    ("check", "--samples", MAX_SAMPLES + 1, "ode-const-factorable.ini"),
    ("check", "--samples", 10 ** 9, "ode-const-factorable.ini"),
])
def test_request_size_above_its_cap_is_a_capacity_error(capsys, command, flag, value,
                                                         fixture):
    # each is refused before any work: a grid of 10^9 steps alone would
    # not fit in memory, and --ansatz-degree 64 gave a wrong verdict
    start = time.monotonic()
    code, out, _ = run(capsys, command, "--json", flag, str(value), path(fixture))
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert json.loads(out)["error"]["type"] == "CapacityExceeded"


@pytest.mark.parametrize("coeff", ["x1/(1/0)", "(1/0)^(-2)"])
def test_dividing_by_an_undefined_quotient_is_a_domain_error(tmp_path, capsys, coeff):
    # the zero denominator of 1/0 used to become the zero numerator of
    # its inverse, and the coefficient read as 0
    ini = tmp_path / "zero.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   f'[operator]\ng[2,1] = "1"\ng[0,1] = "{coeff}"\n', encoding="utf-8")
    code, out, _ = run(capsys, "expand", "--json", str(ini))
    assert code == 1
    assert json.loads(out)["error"] == {"message": "division by a zero expression",
                                        "type": "DomainError"}


def test_coefficient_nesting_limit(tmp_path, capsys):
    # a coefficient nested exactly MAX_NESTING deep goes through expand,
    # check, cascade and printing; one level deeper is a ParseError at
    # the offending token
    for depth, code in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
        deep = "sin(" * depth + "x1" + ")" * depth
        ini = tmp_path / f"deep{depth}.ini"
        ini.write_text('[problem]\nkind = linear-ode\n\n'
                       f'[operator]\ng[2,1] = "1"\ng[1,1] = "{deep}"\n\n'
                       f'[Q1]\nb[1,1] = "1"\nb[0,1] = "{deep}"\n\n'
                       '[Q2]\nb[1,1] = "1"\n', encoding="utf-8")
        for command in ("expand", "check", "cascade"):
            got, out, _ = run(capsys, command, "--json", str(ini))
            assert got == code, command
            if code == 2:
                assert json.loads(out)["error"] == {
                    "type": "ParseError",
                    "message": f"line 6, column {4 * MAX_NESTING + 11}: "
                               f"nesting deeper than {MAX_NESTING} levels"}
    problem = parse_problem((tmp_path / f"deep{MAX_NESTING}.ini").read_text())
    assert parse_problem(print_problem(problem)) == problem


def test_missing_file_is_validation_error(capsys):
    code, _, err = run(capsys, "check", "no-such-file.ini")
    assert code == 2


def test_error_json_on_stdout(capsys):
    code, out, _ = run(capsys, "factor", "--json", path("ode-const-norealroots.ini"))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "NoRealFactorization"


def test_json_output_is_byte_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "check", "--json", path("pde2-wave.ini"))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    for name in ("factor", "cascade"):
        pair = []
        for _ in range(2):
            code, out, _ = run(capsys, name, "--json",
                               path("ode-const-factorable.ini"))
            assert code == 0
            pair.append(out)
        assert pair[0] == pair[1]


def test_json_keys_sorted(capsys):
    _, out, _ = run(capsys, "check", "--json", path("pde2-wave.ini"))
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "opfactor.cli", "conditions", "--kind", "linear-ode"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "conditions for linear-ode" in proc.stdout


def test_fixture_corpus_check_verdicts(capsys):
    expected_fail = {"ode-check-fail.ini"}
    for p in sorted(PROBLEMS.glob("*.ini")):
        code, out, err = run(capsys, "check", str(p))
        if p.name in expected_fail:
            assert code == 1, p.name
        elif "PASS" in out:
            assert code == 0, p.name
        else:
            assert code == 2, p.name  # no candidate sections


@pytest.mark.parametrize("command, flag, value, fixture, message", [
    ("check", "--samples", "-3", "ode-const-factorable.ini", "-3 probe samples; need at least 1"),
    ("check", "--samples", "0", "ode-const-factorable.ini", "0 probe samples; need at least 1"),
    ("check", "--tol", "nan", "ode-const-factorable.ini",
     "tolerance nan is not a finite number >= 0"),
    ("check", "--tol", "inf", "ode-const-factorable.ini",
     "tolerance inf is not a finite number >= 0"),
    ("check", "--tol", "-1e-09", "ode-const-factorable.ini",
     "tolerance -1e-09 is not a finite number >= 0"),
    ("factor", "--ansatz-degree", "-1", "ode-riccati-poly.ini", "ansatz degree -1 is negative"),
])
def test_request_value_below_its_range_is_a_validation_error(capsys, command, flag, value,
                                                              fixture, message):
    # --samples -3 and 0 printed PASS with the probe skipped, --tol nan
    # always failed, and --ansatz-degree -1 searched degree <= -1
    code, out, _ = run(capsys, command, "--json", f"{flag}={value}", path(fixture))
    assert code == 2
    assert json.loads(out) == {"command": command, "schema": 1,
                               "error": {"type": "ValidationError", "message": message}}
    code, out, err = run(capsys, command, f"{flag}={value}", path(fixture))
    assert (code, out, err) == (2, "", f"error: ValidationError: {message}\n")


def test_request_values_at_the_bottom_of_their_range_run(capsys):
    assert run(capsys, "check", "--samples", "1", path("ode-const-factorable.ini"))[0] == 0
    # a gap at rounding level fails a zero tolerance; the value is legal
    code, out, _ = run(capsys, "check", "--tol", "0", path("ode-const-factorable.ini"))
    assert code in (0, 1) and "(tol 0, seed 0)" in out
    code, out, _ = run(capsys, "factor", "--ansatz-degree", "0", path("ode-riccati-poly.ini"))
    assert code == 1 and "degree <= 0" in out


@pytest.mark.parametrize("command, flag, value, fixture", [
    ("cascade", "--steps", "６４", "ode-const-factorable.ini"),
    ("check", "--seed", "３", "ode-const-factorable.ini"),
    ("check", "--samples", "８", "ode-const-factorable.ini"),
    ("check", "--tol", "１e-9", "ode-const-factorable.ini"),
    ("factor", "--seed", "٣", "ode-riccati-poly.ini"),
    ("factor", "--ansatz-degree", "３", "ode-riccati-poly.ini"),
    ("conditions", "--m", "２", "system-diag.ini"),
    ("cascade", "--steps", "many", "ode-const-factorable.ini"),
    ("check", "--tol", "tiny", "ode-const-factorable.ini"),
])
def test_number_flags_take_ascii_digits_only(capsys, command, flag, value, fixture):
    # int() and float() read any Unicode decimal digit, so --steps ６４
    # ran 64 steps; argparse's message for a value that is not a number stays
    code, out, _ = run(capsys, command, "--json", flag, value, path(fixture))
    assert code == 2
    kind = "float" if flag == "--tol" else "int"
    assert json.loads(out)["error"] == {
        "type": "ValidationError",
        "message": f"argument {flag}: invalid {kind} value: '{value}'"}


@pytest.mark.parametrize("degree, code, kind", [
    (-1, 2, "ValidationError"), (MAX_ANSATZ_DEGREE + 1, 3, "CapacityExceeded"),
    (999, 3, "CapacityExceeded")])
@pytest.mark.parametrize("fixture", ["ode-const-factorable.ini", "pde2-wave.ini",
                                     "ode-riccati-poly.ini"])
def test_ansatz_degree_is_range_checked_on_every_factor_route(capsys, fixture, degree,
                                                              code, kind):
    # the constant and principal-symbol routes never read the degree, so
    # -1 and 999 used to factor them with exit 0
    got, out, _ = run(capsys, "factor", "--json", f"--ansatz-degree={degree}", path(fixture))
    assert got == code
    assert json.loads(out)["error"]["type"] == kind


_CASCADE_FAILURES = {
    # N1 = diag((x1 - 1/32) D, D): the lead vanishes at the first RK4
    # midpoint on 16 steps of [0, 1], not at a grid point
    "stage-lead.ini": ("[problem]\nkind = linear-ode-system\nm = 2\n\n"
                       '[operator]\nf[1,1,2,1] = "x1 - 1/32"\nf[2,2,2,1] = "1"\n\n'
                       '[N1]\na[1,1,1,1] = "x1 - 1/32"\na[2,2,1,1] = "1"\n\n'
                       '[N2]\na[1,1,1,1] = "1"\na[2,2,1,1] = "1"\n\n'
                       "[solve]\ninterval = 0,1\nsteps = 16\n",
                       "SingularLeadingCoefficient",
                       "leading coefficient of N1[1,1] vanishes near x1 = 0.03125"),
    # u0 = exp(-int 2000/(x1 + 2)) by quadrature overflows a float
    "kernel-overflow.ini": ("[problem]\nkind = linear-ode\n\n"
                            '[operator]\ng[2,1] = "x1 + 2"\ng[1,1] = "2001"\n\n'
                            '[Q1]\nb[1,1] = "1"\n\n'
                            '[Q2]\nb[1,1] = "x1 + 2"\nb[0,1] = "2000"\n',
                            "QuadratureFailure", "kernel u0 overflows a float on the grid"),
    # the closed form u0 = exp(-1000 x1^2) underflows to 0.0 near the ends
    "kernel-underflow.ini": ("[problem]\nkind = linear-ode\n\n"
                             '[operator]\ng[2,1] = "1"\ng[1,1] = "2000*x1"\n'
                             'g[0,1] = "2000"\n\n'
                             '[Q1]\nb[1,1] = "1"\n\n'
                             '[Q2]\nb[1,1] = "1"\nb[0,1] = "2000*x1"\n',
                             "QuadratureFailure", "b211 u0 underflows to 0 on the grid"),
}


@pytest.mark.parametrize("name", sorted(_CASCADE_FAILURES))
def test_cascade_numeric_failures_are_contract_errors(tmp_path, capsys, name):
    # each ended in a ZeroDivisionError or OverflowError traceback
    text, kind, message = _CASCADE_FAILURES[name]
    ini = tmp_path / name
    ini.write_text(text, encoding="utf-8")
    assert run(capsys, "check", str(ini))[0] == 0
    code, out, _ = run(capsys, "cascade", "--json", str(ini))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == kind and message in error["message"]
    code, out, err = run(capsys, "cascade", str(ini))
    assert (code, out) == (1, "") and err.startswith(f"error: {kind}: ")


def test_cascade_csv_to_an_unwritable_path_is_a_validation_error(tmp_path, capsys):
    # open() raised FileNotFoundError out of main
    target = tmp_path / "missing" / "out.csv"
    code, out, _ = run(capsys, "cascade", "--json", "--csv", str(target),
                       path("ode-const-factorable.ini"))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith(f"cannot write {tmp_path / 'missing' / 'out-u0.csv'}: ")
    code, out, err = run(capsys, "cascade", "--csv", str(target), path("ode-const-factorable.ini"))
    assert (code, out) == (2, "") and err.startswith("error: ValidationError: cannot write ")
