"""Golden CLI reports: the --json output and exit status of expand,
conditions, check (at seeds 0 and 4) and factor on every fixture
problem file, compared byte for byte.

cascade is pinned only where every piece is closed-form
(`CASCADE_STEMS`): such a residual is the exact symbolic 0.0, while a
quadrature or rk4 residual goes through libm exp, whose last bit may
differ between platforms.

After a deliberate change to a report, regenerate the files with
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import io
import pathlib

import pytest

from opfactor.cli import main

HERE = pathlib.Path(__file__).parent
PROBLEMS = HERE / "problems"
GOLDEN = HERE / "golden" / "cli"

COMMANDS = {
    "expand": ("expand",),
    "conditions": ("conditions",),
    "check-seed0": ("check", "--seed", "0"),
    "check-seed4": ("check", "--seed", "4"),
    "factor": ("factor",),
    "cascade": ("cascade",),
}

# fixtures whose cascade pieces are all closed-form
CASCADE_STEMS = ("nonlinear-ode-friction", "ode-check-fail", "ode-const-factorable")

CASES = [(p.stem, name) for p in sorted(PROBLEMS.glob("*.ini")) for name in COMMANDS
         if name != "cascade" or p.stem in CASCADE_STEMS]


def report(stem: str, name: str) -> str:
    """'exit N' on the first line, then the command's stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*COMMANDS[name], "--json", str(PROBLEMS / f"{stem}.ini")])
    assert err.getvalue() == ""
    return f"exit {code}\n{out.getvalue()}"


def golden_path(stem: str, name: str) -> pathlib.Path:
    return GOLDEN / f"{stem}.{name}.txt"


@pytest.mark.parametrize("stem,name", CASES)
def test_cli_report_matches_golden(stem, name):
    expected = golden_path(stem, name).read_text(encoding="utf-8")
    assert report(stem, name) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == \
        sorted(golden_path(*case).name for case in CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        golden_path(*case).write_text(report(*case), encoding="utf-8")
