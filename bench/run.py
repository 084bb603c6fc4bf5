"""opfactor benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it lives in.  The
workloads are those BENCHMARK.json lists: identity-plants, factor-search,
cascade-solve, cli-corpus (bench/README.md says what each one stresses
and why; bench/workloads.py says how each is generated, checked and
measured).

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics, their timings converted to the speed of a reference
machine (bench/speed.py says how and why); with --trace 1 it has the
per-layer metrics of a traced run instead, plus the tracing overhead,
measured by replaying the same requests untraced.  The lines before it are the same figures for
people, and the full record (latency samples, percentile used,
provenance, failures) goes to .bench_out/.  Exits 2 without a result
when the checkout lacks the program or its fixtures.
"""

import argparse
import collections
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(ROOT, "bench", "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REQUIRED = ("src/opfactor/__init__.py", "tests/problems/ode-const-factorable.ini",
            "tests/golden/condition_systems.txt")
# set-up is measured this many times per run; the median is reported
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {"throughput_rps": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
OVERHEAD_UNITS = {"trace.traced_rps": "1/s", "trace.untraced_rps": "1/s",
                  "trace.overhead_ratio": "ratio"}


class WorkerFailed(Exception):
    pass


def main():
    with open(SPEC, encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    procs = []
    try:
        record = measure(args, procs)
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    report(args, record)
    return 0


# ---------------------------------------------------------------------------
# workers


def spawn(procs, args, mode, trace=0, requests=None):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(trace), "--mode", mode]
    if requests is not None:
        cmd += ["--requests", str(requests)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    return proc, start


def wait_event(proc, name, deadline):
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise WorkerFailed(f"worker did not report {name!r} before the deadline")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise WorkerFailed(f"worker exited with code {proc.returncode} before {name!r}")
        if line.startswith("@bench "):
            event = json.loads(line[len("@bench "):])
            if event.get("event") == name:
                return event


def wait_setup(proc, start, deadline) -> tuple:
    """(own set-up samples or None, seconds from `start` to the ready
    event, speed factor measured just after it) of a worker.  Own
    samples are (seconds, kernel times taken just after) pairs."""
    own = wait_event(proc, "ready", deadline)["setup_samples"]
    elapsed = time.perf_counter() - start
    factor = speed.factor(wait_event(proc, "speed", deadline)["samples"])
    return own, elapsed, factor


def run_worker(procs, args, deadline, trace=0, requests=None):
    proc, start = spawn(procs, args, "run", trace, requests)
    _, elapsed, factor = wait_setup(proc, start, deadline)
    result = wait_event(proc, "result", deadline)
    proc.wait()
    return (elapsed, factor), result


def measure(args, procs) -> dict:
    """Set-up samples are in wall-clock seconds, each with the speed
    factor measured just after it."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    # the first set-up may compile bytecode; it is not counted
    for i in range(SETUP_SAMPLES + 1):
        proc, start = spawn(procs, args, "setup")
        own, elapsed, factor = wait_setup(proc, start, deadline)
        proc.wait()
        if own is not None:  # the workload timed its own set-ups
            setups = [(t, speed.factor(ks)) for t, ks in own]
            break
        if i:
            setups.append((elapsed, factor))
    setup, result = run_worker(procs, args, deadline, trace=args.trace)
    if len(setups) == SETUP_SAMPLES:
        setups.append(setup)
    record = {"result": result, "setups": setups}
    if args.trace:
        _, replay = run_worker(procs, args, deadline, trace=0,
                                  requests=result["attempted"])
        record["replay"] = {
            "attempted": replay["attempted"], "busy_s": replay["busy_s"],
            "failed": replay["failed"],
            "same_requests": replay["fingerprints"] == result["fingerprints"],
            "same_verdicts": replay["verdicts"] == result["verdicts"]}
    return record


# ---------------------------------------------------------------------------
# metrics


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def block_rates(res, latencies) -> list:
    """Verified requests per second of request time, per block: a round,
    or the whole run where rounds are long.  The median over rounds
    discounts a short burst of load on the machine."""
    bad = set(res["failed_indices"])
    rates, start = [], 0
    for end in res["rate_ends"]:
        busy = sum(latencies[start:end])
        if busy > 0:
            ok = sum(1 for i in range(start, end) if i not in bad)
            rates.append(ok / busy)
        start = end
    return rates


def timings(res, latencies) -> dict:
    lat = sorted(latencies)
    return {"throughput_rps": statistics.median(block_rates(res, latencies)),
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_tail_ms": percentile(lat, res["tail_pct"]) * 1e3}


def end_to_end(record) -> dict:
    """The timings are at the reference machine's speed (speed.py): each
    latency divided by the speed factor measured around it.  The
    wall-clock figures go to the record and the human-readable lines."""
    res = record["result"]
    factors = speed.factors(res["speed_samples"])
    adjusted = [t / f for t, f in zip(res["latencies"], factors)]
    tail = percentile(sorted(adjusted), res["tail_pct"])
    return {
        **timings(res, adjusted),
        "setup_s": statistics.median(t / f for t, f in record["setups"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }, {"tail_percentile": res["tail_pct"], "samples": len(adjusted),
        "samples_beyond_tail": sum(1 for v in adjusted if v > tail),
        "fail_ratio": res["failed"] / res["attempted"],
        "wall_clock": {**timings(res, res["latencies"]),
                       "setup_s": statistics.median(t for t, _ in record["setups"])},
        "speed_factor_median": statistics.median(factors)}


def provenance(args, res) -> dict:
    prov = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "seconds": args.seconds, "workload": args.workload,
            "attempted": res["attempted"], "failed": res["failed"],
            "rounds": res["rounds"]}
    try:
        prov["numpy"] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        prov["numpy"] = None
    prov["requests_by_kind"] = dict(collections.Counter(res["kinds"]))
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True)
        prov["git_revision"] = rev.stdout.strip() or None
        prov["git_dirty"] = bool(dirty.stdout.strip())
    else:
        prov["git_revision"] = None
        prov["git_dirty"] = None
        prov["git_note"] = "not a git checkout"
    return prov


def breakdown(trace) -> tuple:
    """Per draw type (or CLI command) figures, and the profile checks on
    the draw types they concern: nonlinear-pde2 plants and system-*
    cascades."""
    by_kind = {}
    for kind, name, (calls, self_ns, total_ns) in trace["by_kind"]:
        by_kind.setdefault(kind, {})[name] = (calls, self_ns / 1e9, total_ns / 1e9)
    rows = []
    checks = {}
    for kind in sorted(by_kind):
        spans = by_kind[kind]
        calls, _, total = spans.get("request", (0, 0.0, 0.0))
        top = sorted(((v[1], n) for n, v in spans.items() if n != "request"), reverse=True)
        row = {"kind": kind, "requests": calls,
               "mean_ms": total / calls * 1e3 if calls else 0.0,
               "top_self_s": [[n, round(s, 6)] for s, n in top[:4]]}
        if kind in trace["check"]:
            _, sym, probe = trace["check"][kind]
            row["check_symbolic_s"], row["check_probe_s"] = sym / 1e9, probe / 1e9
            row["outside_check_s"] = total - (sym + probe) / 1e9  # expand + from_jet
        if kind.startswith("system-") and "cascade.system" in spans:
            sys_total = spans["cascade.system"][2]
            ev = spans.get("expr.evaluate", (0, 0.0, 0.0))[1]
            row["evaluate_share_of_system"] = ev / sys_total if sys_total else 0.0
            inside = [(v[1], n) for n, v in spans.items() if n != "request"]
            checks[f"{kind}: expr.evaluate.self_s is the largest part of cascade.system"] = (
                max(inside)[1] == "expr.evaluate")
        rows.append(row)
    if "nonlinear-pde2" in trace["check"]:
        _, sym, probe = trace["check"]["nonlinear-pde2"]
        checks["nonlinear-pde2: conditions.check.probe_s > symbolic_s"] = probe > sym
    return rows, checks


def report(args, record):
    res = record["result"]
    metrics, tail_info = end_to_end(record)
    correct = (res["failed"] == 0 and not res["truncated"]
               and res["oracle"]["status"] in ("ok", "skipped", "not applicable"))
    full = {"workload": args.workload, "trace": args.trace,
            "provenance": provenance(args, res), "end_to_end": metrics, **tail_info,
            "setups": record["setups"], "busy_s": res["busy_s"],
            "wall_s": res["wall_s"], "failures": res["failures"],
            "truncated": res["truncated"],
            "rounds": res["rounds"], "round_ends": res["round_ends"],
            "rss_late": res["rss_late"],
            "oracle": res["oracle"], "latencies_ms": [v * 1e3 for v in res["latencies"]],
            "speed_samples_ms": [v * 1e3 for v in res["speed_samples"]],
            "kinds": res["kinds"], "verdicts": res["verdicts"],
            "fingerprints": res["fingerprints"]}
    lines = [f"{args.workload} seed {args.seed}: {res['attempted']} requests "
             f"({res['failed']} failed) in {res['busy_s']:.2f} s of request time, "
             f"{res['rounds']} rounds"]
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    lines.append(f"  fail_ratio = {tail_info['fail_ratio']:.6g} (failed / attempted)")
    lines.append(f"  latency_tail_ms is p{tail_info['tail_percentile']} of "
                 f"{tail_info['samples']} samples, {tail_info['samples_beyond_tail']} beyond it")
    lines.append(f"  timings above are at reference speed (median speed factor "
                 f"{tail_info['speed_factor_median']:.4g}, above 1 when this machine "
                 f"ran slower); wall clock: " + ", ".join(
                     f"{name} = {value:.6g}" for name, value in tail_info["wall_clock"].items()))
    oracle = res["oracle"]
    if "sympy" in oracle:
        lines.append(f"  oracle: {oracle['status']}, {oracle['checked']} outputs "
                     f"re-expanded with sympy {oracle['sympy']}")
    else:
        lines.append(f"  oracle: {oracle['status']} {oracle.get('reason', '')}".rstrip())
    if res["rss_late"]:
        lines.append("  peak_rss_mb read at the end: the run ended before its checkpoint round")
    for fail in res["failures"][:5]:
        lines.append(f"  FAILED #{fail['index']} {fail['kind']}: {fail['verdict']} "
                     f"{fail['detail'][:200]}")
    out_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics.items()}
    if args.trace:
        import tracing
        trace = res["trace"]
        replay = record["replay"]
        traced_rps = (res["attempted"] - res["failed"]) / res["busy_s"]
        untraced_rps = (replay["attempted"] - replay["failed"]) / replay["busy_s"]
        per_layer = dict(trace["per_layer"])
        per_layer.update({"trace.traced_rps": traced_rps, "trace.untraced_rps": untraced_rps,
                          "trace.overhead_ratio": untraced_rps / traced_rps})
        units = {**tracing.PER_LAYER, **OVERHEAD_UNITS}
        rows, checks = breakdown(trace)
        same = replay["same_requests"] and replay["same_verdicts"]
        correct = correct and same and replay["failed"] == 0
        full.update({"per_layer": per_layer, "breakdown": rows, "profile_checks": checks,
                     "replay": replay, "spans_file": trace["spans_file"],
                     "spans_kept": trace["spans_kept"],
                     "spans_dropped": trace["spans_dropped"],
                     "binding_sites": trace["binding_sites"]})
        lines.append(f"  traced run: {trace['binding_sites']} binding sites wrapped, "
                     f"{trace['spans_kept']} spans kept ({trace['spans_dropped']} dropped) "
                     f"in {trace['spans_file']}")
        lines.append(f"  tracing overhead: untraced {untraced_rps:.4g} 1/s vs traced "
                     f"{traced_rps:.4g} 1/s over the same {replay['attempted']} requests; "
                     f"verdicts {'identical' if same else 'DIFFER'}")
        lines.append("  per draw type / command (traced):")
        for row in rows:
            extra = ""
            if "check_probe_s" in row:
                extra += (f" | outside check {row['outside_check_s']:.3f} s, check: symbolic "
                          f"{row['check_symbolic_s']:.3f} s, probe {row['check_probe_s']:.3f} s")
            if "evaluate_share_of_system" in row:
                extra += f" evaluate/system {row['evaluate_share_of_system']:.2f}"
            top = ", ".join(f"{n} {s:.3f}" for n, s in row["top_self_s"][:3])
            lines.append(f"    {row['kind']:<28} n={row['requests']:<4} "
                         f"{row['mean_ms']:8.2f} ms  self: {top}{extra}")
        for text, ok in checks.items():
            lines.append(f"  profile check: {text}: {'yes' if ok else 'NO'}")
        for name in sorted(per_layer):
            lines.append(f"  {name} = {per_layer[name]:.6g} {units[name]}")
        out_metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in per_layer.items()}
    full["correct"] = correct
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    lines.append(f"  record: {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out_metrics}))


if __name__ == "__main__":
    sys.exit(main())
