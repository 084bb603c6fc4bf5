"""The two tours README documents run against the current API."""

import json
import os
import pathlib
import subprocess
import sys

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
