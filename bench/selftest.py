"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. BENCHMARK.json lists exactly the workloads bench/workloads.py
   defines.  For every workload, the first rounds drawn from one seed give
   identical request fingerprints when drawn twice, and another seed
   gives another sequence.
2. Every workload runs for 2 s with --trace 1; the run must be correct,
   which includes identical verdicts for every request in the traced
   run and in its untraced replay, and must print exactly the
   per-layer metrics that BENCHMARK.json lists.  One --trace 0 run
   checks the end-to-end list the same way.

Exits 1 on the first failed check.
"""

import json
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

SECONDS = 2.0


def fingerprints(name, seed, rounds=2):
    wl = workloads.make(name, ROOT, seed)
    rng = random.Random(f"{name}:{seed}:timed")
    out = []
    for r in range(rounds):
        for kind, payload in wl.round(rng, r):
            out.append(workloads.fingerprint(workloads.Request(len(out), kind, payload)))
    return out


def check(ok, text):
    print(("ok    " if ok else "FAIL  ") + text, flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(workloads.REGISTRY),
          "BENCHMARK.json lists the workloads that workloads.py defines")
    for name in names:
        first, again, other = fingerprints(name, 7), fingerprints(name, 7), fingerprints(name, 8)
        check(first == again, f"{name}: seed 7 gives identical fingerprints twice")
        # small draw spaces (constant factors, the fixed CLI corpus) may
        # repeat a request, so only the sequence has to differ
        check(first != other, f"{name}: seed 8 gives another request sequence")
    for name, trace in [(n, 1) for n in names] + [(names[0], 0)]:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", name,
             "--seed", "7", "--seconds", str(SECONDS), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        check(proc.returncode == 0, f"{name} --trace {trace}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(result["correct"] and result["failed"] == 0,
              f"{name} --trace {trace}: correct" + (
                  ", traced and untraced verdicts identical" if trace else ""))
        listed = spec["per_layer"] if trace else spec["end_to_end"]
        want = {m["name"]: m["unit"] for m in listed}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want, f"{name} --trace {trace}: metrics match BENCHMARK.json")


if __name__ == "__main__":
    main()
