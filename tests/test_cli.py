"""Command line contract: subcommands, exit codes, JSON schema, CSV export."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from opfactor.cascade import MAX_STEPS
from opfactor.cli import BROKEN_PIPE_EXIT, COMMANDS, main
from opfactor.conditions import MAX_COMPONENTS, MAX_SAMPLES, derive_conditions
from opfactor.errors import CapacityExceeded, ValidationError
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


@pytest.mark.parametrize("argv, code, kind, message", [
    (("--kind", "linear-ode-system", "--m", "0"), 2, "ValidationError",
     "system kinds need m >= 2, got 0"),
    (("--kind", "nonlinear-pde2-system", "--m", "1"), 2, "ValidationError",
     "system kinds need m >= 2, got 1"),
    (("--kind", "linear-ode", "--m", "3"), 2, "ValidationError",
     "scalar kinds fix m = 1, got 3"),
    (("--kind", "nonlinear-pde2-system", "--m", str(MAX_COMPONENTS + 1)), 3,
     "CapacityExceeded", f"m = {MAX_COMPONENTS + 1} exceeds {MAX_COMPONENTS} components"),
    (("--kind", "nonlinear-pde2-system", "--m", "32"), 3, "CapacityExceeded",
     f"m = 32 exceeds {MAX_COMPONENTS} components"),
    (("--kind", "linear-ode", "--m", "32"), 3, "CapacityExceeded",
     f"m = 32 exceeds {MAX_COMPONENTS} components"),
    ((path("system-diag.ini"), "--kind", "linear-ode", "--m", "7"), 2, "ValidationError",
     "conditions takes a problem file or --kind [--m], not both"),
    ((path("system-diag.ini"), "--kind", "linear-ode-system"), 2, "ValidationError",
     "conditions takes a problem file or --kind [--m], not both"),
    ((path("system-diag.ini"), "--m", "2"), 2, "ValidationError",
     "conditions takes a problem file or --kind [--m], not both"),
])
def test_conditions_m_has_one_range_and_a_cap(capsys, argv, code, kind, message):
    # --m 0 on a system kind and --m 3 on a scalar kind exited 1, --m 32
    # ran for 20 s, and a file given with --kind or --m ignored both;
    # each is refused before any expansion
    start = time.monotonic()
    got, out, _ = run(capsys, "conditions", "--json", *argv)
    assert time.monotonic() - start < 1.0
    assert (got, json.loads(out)) == (code, {"command": "conditions", "schema": 1,
                                             "error": {"type": kind, "message": message}})
    got, out, err = run(capsys, "conditions", *argv)
    assert (got, out, err) == (code, "", f"error: {kind}: {message}\n")


@pytest.mark.parametrize("kind, m, code, error", [
    ("linear-ode-system", MAX_COMPONENTS + 1, 3, "CapacityExceeded"),
    ("linear-ode", 32, 3, "CapacityExceeded"),
    ("linear-ode-system", 1, 2, "ValidationError"),
])
def test_problem_file_m_follows_the_same_rule(tmp_path, capsys, kind, m, code, error):
    ini = tmp_path / "components.ini"
    ini.write_text(f'[problem]\nkind = {kind}\nm = {m}\n\n[operator]\nf[1,1,2,1] = "1"\n',
                   encoding="utf-8")
    got, out, _ = run(capsys, "conditions", "--json", str(ini))
    assert (got, json.loads(out)["error"]["type"]) == (code, error)
    got, _, err = run(capsys, "conditions", str(ini))
    assert got == code and err.startswith(f"error: {error}: ")
    with pytest.raises(CapacityExceeded if code == 3 else ValidationError):
        derive_conditions(kind, m)


def test_conditions_run_at_the_component_cap(capsys):
    code, out, _ = run(capsys, "conditions", "--json", "--kind", "linear-ode-system",
                       "--m", str(MAX_COMPONENTS))
    assert code == 0 and json.loads(out)["m"] == MAX_COMPONENTS


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


def test_check_passes_a_split_over_equal_surds(tmp_path, capsys):
    # (D + sqrt(8)/2)(D + sqrt(2)) = D^2 + 2 sqrt(2) D + 2 failed with
    # "1/3 conditions residual 0", sqrt(8) and sqrt(2) unrelated atoms
    ini = tmp_path / "surds.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   '[operator]\ng[2,1] = "1"\ng[1,1] = "2*sqrt(2)"\ng[0,1] = "2"\n\n'
                   '[Q1]\nb[0,1] = "sqrt(8)/2"\nb[1,1] = "1"\n\n'
                   '[Q2]\nb[0,1] = "sqrt(2)"\nb[1,1] = "1"\n', encoding="utf-8")
    code, out, _ = run(capsys, "check", str(ini))
    assert code == 0 and out.startswith("PASS, 3/3 conditions residual 0")
    code, out, _ = run(capsys, "check", "--json", str(ini))
    assert code == 0 and json.loads(out)["verdict"] == "PASS"


def test_factor_writes_a_surd_root_without_square_factors(tmp_path, capsys):
    # u'' - 2u has the roots +-sqrt(8)/2, printed as (1/2)*sqrt(8)
    ini = tmp_path / "surd.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   '[operator]\ng[2,1] = "1"\ng[0,1] = "-2"\n', encoding="utf-8")
    code, out, _ = run(capsys, "factor", str(ini))
    assert code == 0
    assert "b[0,1] = sqrt(2), b[1,1] = 1" in out and "b[0,1] = -sqrt(2)" in out
    assert "sqrt(8)" not in out


def test_factor_writes_a_surd_discriminant_root_without_square_factors(tmp_path, capsys):
    # u_x1x1 - 2 u_x2x2 printed sqrt(delta) = sqrt(8), its factors sqrt(2)
    ini = tmp_path / "surd-pde.ini"
    ini.write_text('[problem]\nkind = linear-pde2\n\n'
                   '[operator]\ng[2,1] = "1"\ng[2,4] = "-2"\n', encoding="utf-8")
    code, out, _ = run(capsys, "factor", str(ini))
    assert code == 0
    assert out.startswith("discriminant: 8\nsqrt(delta) = 2*sqrt(2)\n")
    assert "b[1,2] = sqrt(2)" in out and "sqrt(8)" not in out
    code, out, _ = run(capsys, "factor", "--json", str(ini))
    doc = json.loads(out)
    assert (code, doc["delta"], doc["sqrt_delta"], doc["verdict"]) == (0, "8", "2*sqrt(2)",
                                                                       "FACTORED")


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


@pytest.mark.parametrize("value, code", [("-2,-1", 0), ("-1,1", 0), ("-2,", 2)])
def test_a_spaced_interval_reads_as_the_joined_one(capsys, value, code):
    """argparse alone takes `-2,-1` after `--interval` for an option."""
    ini = path("ode-const-factorable.ini")
    for flags in ((), ("--json",)):
        joined = run(capsys, "cascade", *flags, f"--interval={value}", ini)
        assert joined[0] == code
        for spelling in ("--interval", "--int"):
            assert run(capsys, "cascade", *flags, spelling, value, ini) == joined
            assert run(capsys, "cascade", *flags, ini, spelling, value) == joined
    if code == 2:
        assert joined[1].startswith('{') and '"type": "ValidationError"' in joined[1]
        assert run(capsys, "cascade", "--interval", value, ini)[2].startswith(
            "error: ValidationError: ")


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


@pytest.mark.parametrize("power, code", [("(((x1^10000)^10000)^10000)^10000", 0),
                                         ("((((x1^10000)^10000)^10000)^10000)^10000", 3)])
def test_an_exponent_from_2_to_the_63_is_a_capacity_error(tmp_path, capsys, power, code):
    # a product packs each exponent into 64 bits: 10^16 fits, 10^20 does not
    ini = tmp_path / "tall.ini"
    ini.write_text(pathlib.Path(path("ode-const-factorable.ini")).read_text(encoding="utf-8")
                   .replace('b[0,1] = "-1"', f'b[0,1] = "{power}*x1 + 1"'), encoding="utf-8")
    got, out, err = run(capsys, "expand", str(ini))
    assert got == code
    assert ("x1^10000000000000001" in out) if code == 0 else \
        err.startswith("error: CapacityExceeded: an exponent of ")


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
    # its inverse, and the coefficient read as 0; the error names the key
    ini = tmp_path / "zero.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   f'[operator]\ng[2,1] = "1"\ng[0,1] = "{coeff}"\n', encoding="utf-8")
    code, out, _ = run(capsys, "expand", "--json", str(ini))
    assert code == 1
    assert json.loads(out)["error"] == {
        "message": "g[0,1] on line 6: division by a zero expression", "type": "DomainError"}


@pytest.mark.parametrize("value", ["log(0)", "sqrt(-4)"])
def test_undefined_constant_atom_fails_where_it_is_written(tmp_path, capsys, value):
    # expand and cascade exited 0, check and factor failed far from the key
    text = (PROBLEMS / "ode-const-factorable.ini").read_text(encoding="utf-8")
    ini = tmp_path / "undefined.ini"
    ini.write_text(text.replace('g[1,1] = "-3"', f'g[1,1] = "{value}"'), encoding="utf-8")
    message = f"g[1,1] on line 7: {value} is not a real number"
    for command in COMMANDS:
        assert run(capsys, command, str(ini)) == (1, "", f"error: DomainError: {message}\n")
        code, out, _ = run(capsys, command, "--json", str(ini))
        assert (code, json.loads(out)["error"]) == (1, {"type": "DomainError",
                                                        "message": message})


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


@pytest.mark.parametrize("args", [["cascade", "--json", "--steps=0"], ["expand"],
                                  ["check", "--json"]])
def test_a_closed_stdout_exits_with_the_broken_pipe_code(args):
    # the reader's end is closed before the first write: the report and
    # the error document alike meet a broken pipe, which is no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "opfactor.cli", *args,
                               str(path("ode-const-factorable.ini"))],
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (BROKEN_PIPE_EXIT, b"")


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
    # Q2 = x1 D + u: the quasi-linear RK4 lead vanishes at x1 = 0, where
    # the integration starts
    "rk4-lead.ini": ("[problem]\nkind = nonlinear-ode\n\n"
                     '[operator]\ng[2,1] = "x1"\ng[1,1] = "2*u + 1"\n\n'
                     '[Q1]\nb[1,1] = "1"\n\n'
                     '[Q2]\nb[1,1] = "x1"\nb[0,1] = "u"\n\n'
                     "[solve]\ninterval = -1,1\n",
                     "SingularLeadingCoefficient", "leading coefficient vanishes at x1 = 0"),
    # u0 = exp(1000 x1) overflows where u1's quadrature samples it
    "closed-form-overflow.ini": ("[problem]\nkind = linear-ode\n\n"
                                 '[operator]\ng[2,1] = "1"\ng[1,1] = "-2*x1 - 1000"\n'
                                 'g[0,1] = "2000*x1"\n\n'
                                 '[Q1]\nb[1,1] = "1"\nb[0,1] = "-2*x1"\n\n'
                                 '[Q2]\nb[1,1] = "1"\nb[0,1] = "-1000"\n',
                                 "QuadratureFailure", "closed form u0 not evaluable: exp overflow"),
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


# N1 = diag(D, D), N2 = diag(D - 1000, D) on [0, 1]: u0[1] = exp(1000 x1)
# overflows to inf and then nan on the grid
_OVERFLOWING_SYSTEM = """[problem]
kind = linear-ode-system
m = 2

[operator]
f[1,1,2,1] = "1"
f[1,1,1,1] = "-1000"
f[2,2,2,1] = "1"

[N1]
a[1,1,1,1] = "1"
a[2,2,1,1] = "1"

[N2]
a[1,1,1,1] = "1"
a[1,1,0,1] = "-1000"
a[2,2,1,1] = "1"

[solve]
interval = 0,1
steps = 1024
"""


def test_cascade_trajectory_that_leaves_the_float_range_is_a_quadrature_failure(
        tmp_path, capsys):
    # it exited 0 with "max residual 0.000e+00" for u0[1]
    ini = tmp_path / "overflow.ini"
    ini.write_text(_OVERFLOWING_SYSTEM, encoding="utf-8")
    assert run(capsys, "check", str(ini))[0] == 0
    code, out, _ = run(capsys, "cascade", "--json", str(ini))
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "QuadratureFailure", "message": "trajectory leaves the float range (inf or nan)"}
    code, out, err = run(capsys, "cascade", str(ini))
    assert (code, out) == (1, "") and err.startswith("error: QuadratureFailure: ")


@pytest.mark.parametrize("name", ["system-coupled.ini", "ode-var-candidate.ini"])
def test_an_interval_too_short_to_difference_is_a_quadrature_failure(capsys, name):
    # the step's square underflowed to 0.0, and the residual sweep ended in
    # a ZeroDivisionError traceback with an empty --json stdout
    message = "grid step 9.77e-204 is too short to difference: its square underflows to 0"
    code, out, _ = run(capsys, "cascade", "--json", "--interval=0,1e-200", path(name))
    assert code == 1
    assert json.loads(out)["error"] == {"type": "QuadratureFailure", "message": message}
    code, out, err = run(capsys, "cascade", "--interval=0,1e-200", path(name))
    assert (code, out, err) == (1, "", f"error: QuadratureFailure: {message}\n")


def test_a_closed_form_cascade_needs_no_difference_step(capsys):
    code, out, _ = run(capsys, "cascade", "--interval=0,1e-320",
                       path("nonlinear-ode-friction.ini"))
    assert code == 0
    assert "u0 [closed-form] = 2/(x1 + 1), max residual 0.000e+00" in out


@pytest.mark.parametrize("steps, code, kind", [
    ("0", 2, "ValidationError"), ("-5", 2, "ValidationError"),
    ("1", 1, "StepCountTooSmall"), ("15", 1, "StepCountTooSmall"),
])
def test_step_counts_below_the_floor_exit_alike_from_flag_and_file(
        tmp_path, capsys, steps, code, kind):
    # --steps 0 and --steps -5 exited 1 (StepCountTooSmall), steps = 0 in [solve] 2
    ini = tmp_path / "steps.ini"
    ini.write_text(_OVERFLOWING_SYSTEM.replace("steps = 1024", f"steps = {steps}"),
                   encoding="utf-8")
    for argv in (("--steps", steps, path("ode-const-factorable.ini")), (str(ini),)):
        got, out, _ = run(capsys, "cascade", "--json", *argv)
        error = json.loads(out)["error"]
        assert (got, error["type"]) == (code, kind)
        if code == 2:
            assert error["message"] == f"step count {steps} is not positive"


def _fixture_with(tmp_path, name, **values) -> str:
    """A copy of a fixture with `key = value` lines replaced."""
    text = (PROBLEMS / name).read_text(encoding="utf-8")
    for key, value in values.items():
        text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} = ") else line
                         for line in text.splitlines()) + "\n"
    ini = tmp_path / name
    ini.write_text(text, encoding="utf-8")
    return str(ini)


def _cascade_three_ways(tmp_path, capsys, ini, *flags):
    """(code, out, err) of cascade in text, the --json document, and
    (code, out, err, CSV file names) of cascade --csv."""
    text = run(capsys, "cascade", ini, *flags)
    code, out, err = run(capsys, "cascade", "--json", ini, *flags)
    assert not err
    csv = run(capsys, "cascade", "--csv", str(tmp_path / "out.csv"), ini, *flags)
    names = sorted(p.name for p in tmp_path.glob("out*.csv"))
    return text, (code, json.loads(out)), (*csv, names)


@pytest.mark.parametrize("constant, interval, where", [
    ("0", "-1,1", "x1 = 0 in [-1, 1]"), ("0", "0,1", "x1 = 0 in [0, 1]"),
    ("0", "-2,0", "x1 = 0 in [-2, 0]"), ("1/2", "-1,1", "x1 = -1/2 in [-1, 1]"),
])
def test_cascade_refuses_a_closed_form_with_a_pole_in_the_interval(tmp_path, capsys,
                                                                    constant, interval, where):
    # u0 = 2/(x1 + C) with C = 0 on [-1, 1] printed "max residual
    # 0.000e+00" and exited 0, and --csv exited 1 with a bare
    # "DomainError: division by zero"
    ini = _fixture_with(tmp_path, "nonlinear-ode-friction.ini", constant=constant,
                        interval=interval)
    message = f"closed form u0 has a pole at {where}"
    text, (code, doc), csv = _cascade_three_ways(tmp_path, capsys, ini)
    assert text == (1, "", f"error: QuadratureFailure: {message}\n")
    assert (code, doc["error"]) == (1, {"type": "QuadratureFailure", "message": message})
    assert csv == (1, "", f"error: QuadratureFailure: {message}\n", [])


def test_cascade_keeps_a_closed_form_whose_pole_lies_outside(tmp_path, capsys):
    ini = _fixture_with(tmp_path, "nonlinear-ode-friction.ini", constant=0, interval="0.5,1")
    text, (code, doc), csv = _cascade_three_ways(tmp_path, capsys, ini)
    assert text[0] == code == csv[0] == 0
    assert "  u0 [closed-form] = 2/x1, max residual 0.000e+00\n" in text[1]
    assert [(s["form"], s["residual"]) for s in doc["solutions"]] == [("2/x1", 0.0)]
    assert csv[3] == ["out-u0.csv"]


# Q1 = D, Q2 = D + 2/x1: the table's u0 = 1/x1^2 holds for x1 > 0 only
_OVER_X1 = ('[problem]\nkind = linear-ode\n\n'
            '[operator]\ng[2,1] = "1"\ng[1,1] = "2/x1"\ng[0,1] = "-2/x1^2"\n\n'
            '[Q1]\nb[1,1] = "1"\n\n'
            '[Q2]\nb[1,1] = "1"\nb[0,1] = "2/x1"\n')


@pytest.mark.parametrize("interval, provenances", [
    ("-2,-1", ["quadrature", "closed-form", "quadrature"]),
    ("0.5,1", ["closed-form", "closed-form", "closed-form"]),
])
def test_table_antiderivatives_over_x1_hold_for_x1_positive_only(tmp_path, capsys,
                                                                  interval, provenances):
    # [-2, -1] exited 1 with "integrand not evaluable: log of a non-positive number"
    ini = tmp_path / "over-x1.ini"
    ini.write_text(_OVER_X1, encoding="utf-8")
    assert run(capsys, "check", str(ini))[0] == 0
    text, (code, doc), csv = _cascade_three_ways(tmp_path, capsys, str(ini),
                                                 f"--interval={interval}")
    assert text[0] == code == csv[0] == 0
    assert [s["provenance"] for s in doc["solutions"]] == provenances
    assert all(s["residual"] < 1e-5 for s in doc["solutions"])
    assert [line.split()[1] for line in text[1].splitlines()[1:]] == [
        f"[{p}]" for p in provenances]
    assert csv[3] == ["out-u0.csv", "out-u1.csv", "out-v1.csv"]
    rows = (tmp_path / "out-u0.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1026 and all(math.isfinite(float(v)) for r in rows[1:]
                                     for v in r.split(","))


def test_table_kernels_read_integer_log_multiples_back_as_powers(tmp_path, capsys):
    # u0 printed as exp(-2*log(x1)), and u1's integrand x1^2 written as
    # exp(2*log(x1)) missed the table: u1 by quadrature, residual 4.267e-06
    ini = tmp_path / "over-x1.ini"
    ini.write_text(_OVER_X1, encoding="utf-8")
    text, (code, doc), csv = _cascade_three_ways(tmp_path, capsys, str(ini), "--interval=0.5,1")
    assert text == (0, "cascade over [0.5, 1] with 1024 steps:\n"
                       "  u0 [closed-form] = 1/x1^2, max residual 0.000e+00\n"
                       "  v1 [closed-form] = 1, max residual 0.000e+00\n"
                       "  u1 [closed-form] = (1/3)*x1, max residual 0.000e+00\n", "")
    assert code == 0
    assert [(s["label"], s["provenance"], s["form"], s["residual"])
            for s in doc["solutions"]] == [("u0", "closed-form", "1/x1^2", 0.0),
                                           ("v1", "closed-form", "1", 0.0),
                                           ("u1", "closed-form", "(1/3)*x1", 0.0)]
    assert csv[0] == 0 and csv[1].startswith(text[1])
    assert csv[3] == ["out-u0.csv", "out-u1.csv", "out-v1.csv"]
    rows = (tmp_path / "out-u0.csv").read_text(encoding="utf-8").splitlines()
    assert (rows[1], rows[-1]) == ("0.5,4", "1,1")
    rows = (tmp_path / "out-u1.csv").read_text(encoding="utf-8").splitlines()
    assert float(rows[-1].split(",")[1]) == pytest.approx(1 / 3, abs=1e-15)


@pytest.mark.parametrize("rate, form", [
    # a non-integer multiple of log(x1) keeps the exp form
    ("1/(2*x1)", "exp(-(1/2)*log(x1))"),
    ("3/x1 + 1", "exp(-x1)/x1^3"),
])
def test_table_kernels_keep_the_exp_of_what_is_left(tmp_path, capsys, rate, form):
    ini = tmp_path / "kernel.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   f'[operator]\ng[2,1] = "1"\ng[1,1] = "{rate}"\n\n'
                   '[Q1]\nb[1,1] = "1"\n\n'
                   f'[Q2]\nb[1,1] = "1"\nb[0,1] = "{rate}"\n', encoding="utf-8")
    code, out, _ = run(capsys, "cascade", "--json", "--interval=0.5,1", str(ini))
    u0 = json.loads(out)["solutions"][0]
    assert (code, u0["provenance"], u0["form"], u0["residual"]) == (0, "closed-form", form, 0.0)


def test_table_antiderivatives_over_x1_are_not_used_through_zero(tmp_path, capsys):
    # it failed on "log of a non-positive number" sampling u0 = exp(-2*log(x1))
    ini = tmp_path / "over-x1.ini"
    ini.write_text(_OVER_X1, encoding="utf-8")
    message = "integrand not evaluable: division by zero"
    text, (code, doc), csv = _cascade_three_ways(tmp_path, capsys, str(ini),
                                                 "--interval=-1,1")
    assert text == (1, "", f"error: QuadratureFailure: {message}\n")
    assert (code, doc["error"]) == (1, {"type": "QuadratureFailure", "message": message})
    assert csv == (1, "", f"error: QuadratureFailure: {message}\n", [])


def test_a_monomial_not_degree_one_in_jets_is_named(tmp_path, capsys):
    # it was printed as the tuple (((1, 0, 1), 1), ((1, 1, 1), 2))
    ini = tmp_path / "u-D.ini"
    ini.write_text('[problem]\nkind = nonlinear-ode\n\n'
                   '[operator]\ng[2,1] = "u^2"\ng[1,1] = "u"\n\n'
                   '[Q1]\nb[1,1] = "u"\n\n[Q2]\nb[1,1] = "u"\n', encoding="utf-8")
    message = "monomial u1*u1_x1^2 is not degree one in jets"
    assert run(capsys, "cascade", str(ini)) == (
        1, "", f"error: NotQuasiLinear: {message}\n")
    code, out, _ = run(capsys, "cascade", "--json", str(ini))
    assert (code, json.loads(out)["error"]) == (
        1, {"type": "NotQuasiLinear", "message": message})


def test_conditions_needs_a_file_or_a_kind(capsys):
    message = "conditions needs a problem file or --kind"
    assert run(capsys, "conditions") == (2, "", f"error: ValidationError: {message}\n")
    code, out, _ = run(capsys, "conditions", "--json")
    assert (code, json.loads(out)["error"]) == (2, {"type": "ValidationError", "message": message})


def test_cascade_of_a_system_needs_its_factors(tmp_path, capsys):
    ini = tmp_path / "no-factors.ini"
    lines = (PROBLEMS / "system-diag.ini").read_text(encoding="utf-8").splitlines(True)
    ini.write_text("".join(line for line in lines if not line.startswith(("[N", "a["))),
                   encoding="utf-8")
    assert run(capsys, "cascade", str(ini)) == (
        1, "", "error: UnsupportedTemplate: system cascades need explicit [N1]/[N2] sections\n")


def test_factor_says_when_it_swapped_the_axes(tmp_path, capsys):
    # u_x2x2 + (x1 - x2) u_x1x2 has no u_x1x1 slot to pivot on
    ini = tmp_path / "swap.ini"
    ini.write_text('[problem]\nkind = linear-pde2\n\n'
                   '[operator]\ng[2,4] = "1"\ng[2,2] = "x1 - x2"\n', encoding="utf-8")
    code, out, err = run(capsys, "factor", str(ini))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "axes were swapped internally (no u_x1x1 slot)"


def test_csv_of_a_closed_form_that_leaves_the_float_range(tmp_path, capsys):
    # (D - 1000)^2: every piece is an exact closed form, and exp(1000 x1)
    # overflows only where the export samples it; that was a bare
    # "DomainError: exp overflow"
    ini = tmp_path / "square.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   '[operator]\ng[2,1] = "1"\ng[1,1] = "-2000"\ng[0,1] = "1000000"\n\n'
                   '[Q1]\nb[1,1] = "1"\nb[0,1] = "-1000"\n\n'
                   '[Q2]\nb[1,1] = "1"\nb[0,1] = "-1000"\n', encoding="utf-8")
    message = "closed form u0 not evaluable: exp overflow"
    text, (code, doc), csv = _cascade_three_ways(tmp_path, capsys, str(ini))
    assert text[0] == code == 0
    assert [s["provenance"] for s in doc["solutions"]] == ["closed-form"] * 3
    assert csv == (1, "", f"error: QuadratureFailure: {message}\n", [])
    code, out, _ = run(capsys, "cascade", "--json", "--csv", str(tmp_path / "out.csv"), str(ini))
    assert (code, json.loads(out)["error"]) == (1, {"type": "QuadratureFailure", "message": message})


def test_cascade_takes_a_split_with_a_tiny_constant_lead(tmp_path, capsys):
    # P = 10^-13 (D + 1)^2 as (D + 1) * 10^-13 (D + 1): the lead of Q2 is a
    # nonzero constant, so it never vanishes, however small
    ini = tmp_path / "tiny-lead.ini"
    ini.write_text('[problem]\nkind = linear-ode\n\n'
                   '[operator]\ng[2,1] = "1/10^13"\ng[1,1] = "2/10^13"\ng[0,1] = "1/10^13"\n\n'
                   '[Q1]\nb[1,1] = "1"\nb[0,1] = "1"\n\n'
                   '[Q2]\nb[1,1] = "1/10^13"\nb[0,1] = "1/10^13"\n', encoding="utf-8")
    assert run(capsys, "check", str(ini))[0] == 0
    code, out, err = run(capsys, "cascade", str(ini))
    assert (code, err) == (0, "")
    assert "u0 [closed-form] = exp(-x1), max residual 0.000e+00" in out
    assert "u1 [closed-form] = 10000000000000*x1*exp(-x1)" in out
