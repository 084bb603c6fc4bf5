"""The two tours README documents run against the current API."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from opfactor.conditions import TEMPLATES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_worked_examples_run():
    proc = run_script("worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_condition_catalog_json_lists_every_template():
    proc = run_script("condition_catalog.py", "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert sorted(s["template"] for s in doc["systems"]) == sorted(TEMPLATES)
    assert all(s["equations"] for s in doc["systems"])


def test_condition_catalog_applies_m_to_system_templates_only():
    # the usage line's own `--m 3` ended in a ValidationError traceback
    # at the first scalar template
    proc = run_script("condition_catalog.py", "--m", "3", "--json")
    assert proc.returncode == 0, proc.stderr
    ms = {s["template"]: s["m"] for s in json.loads(proc.stdout)["systems"]}
    assert ms == {t: 3 if t.endswith("system") else 1 for t in TEMPLATES}
    assert run_script("condition_catalog.py", "--m", "1", "linear-ode").returncode == 0


@pytest.mark.parametrize("m, code, message", [
    ("10", 3, "error: CapacityExceeded: m = 10 exceeds 9 components"),
    ("1", 2, "error: ValidationError: system kinds need m >= 2, got 1"),
])
def test_condition_catalog_reports_a_refused_m_as_the_cli_does(m, code, message):
    # --m 10 ended in a CapacityExceeded traceback
    proc = run_script("condition_catalog.py", "--m", m, "linear-ode", "linear-ode-system")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message + "\n")


def test_condition_catalog_reads_m_in_ascii_digits_only():
    proc = run_script("condition_catalog.py", "--m", "٣", "linear-ode-system")
    assert proc.returncode == 2 and "invalid int value" in proc.stderr
