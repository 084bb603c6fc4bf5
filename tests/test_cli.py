"""Command line contract: subcommands, exit codes, JSON schema, CSV export."""

import json
import pathlib
import subprocess
import sys

import pytest

from opfactor.cli import main
from opfactor.parse import MAX_NESTING
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
    assert doc["numeric_max"] == 0.0
    assert doc["residuals"] == [] and doc["condition_residuals"] == []


def test_check_seed_and_samples_flags(capsys):
    code, out, _ = run(capsys, "check", "--json", "--seed", "9",
                       "--samples", "4", path("ode-const-factorable.ini"))
    doc = json.loads(out)
    assert doc["seed"] == 9
    assert doc["samples"] == 4


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
