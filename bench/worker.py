"""One benchmark worker process: set up, run the timed loop, report.

    python3 bench/worker.py --workload NAME --seed N --seconds S
                            [--trace 0|1] [--mode setup|run] [--requests N]

Started by run.py, never by hand.  Protocol on stdout, one JSON object
per line prefixed with "@bench ": {"event": "ready", ...} once set-up is
done, {"event": "speed", ...} with kernel times taken just after it
(in --mode setup the worker then exits), and {"event": "result", ...}
at the end.

Set-up is `import opfactor`, generating the first timed round, and a
warm-up round drawn from a separate seed stream (run, not verified).  A
workload that measures its set-up another way reports the samples in
the ready event of --mode setup.  The timed loop is a closed loop with
one client: each request starts after the previous one has finished and
been verified.  Only the call into opfactor is timed; generation and
verification are not.  After each request the worker times one run of
`speed.kernel`, the machine's speed at that moment.  The loop stops at
the end of the round in which the summed request time reaches --seconds
(at the request instead when the workload's rounds are long), or after
--requests requests when that is given.  How each workload is measured is set by the attributes of
its class in workloads.py.
"""

import argparse
import json
import os
import random
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

# a run that exceeds this much wall time stops early and says so
WALL_LIMIT_S = 120.0
ORACLE_LIMIT = 8


def emit(event: dict):
    sys.stdout.write("@bench " + json.dumps(event) + "\n")
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--requests", type=int, default=None)
    args = ap.parse_args()

    import opfactor
    if not os.path.abspath(opfactor.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"opfactor imported from {opfactor.__file__}, not this checkout")
    import speed
    import workloads

    wl = workloads.make(args.workload, ROOT, args.seed)
    rng = random.Random(f"{args.workload}:{args.seed}:timed")
    warm_rng = random.Random(f"{args.workload}:{args.seed}:warm")

    samples = wl.setup_samples() if args.mode == "setup" else None
    for i, (kind, payload) in enumerate(wl.round(warm_rng, 0, warm=True)):
        wl.run(workloads.Request(-1 - i, kind, payload))
    pending = wl.round(rng, 0)
    emit({"event": "ready", "setup_samples": samples})
    emit({"event": "speed", "samples": [speed.sample() for _ in range(speed.SETUP_WINDOW)]})
    if args.mode == "setup":
        return

    tracer = children = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install(extra=[workloads])
        if wl.traces_children:
            wl.trace_dir = OUT_DIR
            children = tracing.empty_raw()
    result = timed_loop(wl, rng, pending, args, tracer, children)
    if tracer is not None:
        result["trace"] = collect_trace(tracer, children, args)
    result["oracle"] = run_oracle(wl, result.pop("oracle_items"))
    emit(result)


def timed_loop(wl, rng, pending, args, tracer, children) -> dict:
    import speed
    import workloads
    latencies, kinds, verdicts, fingerprints, failures = [], [], [], [], []
    speed_samples = []
    oracle_items, round_ends, failed_indices = [], [], []
    peak_rss_mb = None
    failed = 0
    busy = 0.0
    rounds = 0
    index = 0
    wall0 = time.perf_counter()
    truncated = False
    done = False
    while not done:
        for kind, payload in pending:
            if args.requests is not None and index >= args.requests:
                done = True
                break
            req = workloads.Request(index, kind, payload)
            frame = tracer.begin_request(index, kind) if tracer else None
            err = None
            t0 = time.perf_counter()
            try:
                out = wl.run(req)
            except Exception as exc:  # an engine defect: count it, keep going
                err = exc
            dt = time.perf_counter() - t0
            if frame is not None:
                tracer.end_request(frame)
            busy += dt
            latencies.append(dt)
            kinds.append(kind)
            fingerprints.append(workloads.fingerprint(req))
            if err is None:
                verdict, ok, detail = wl.verify(req, out)
                if children is not None:
                    merge_child(children, out[3])
            else:
                verdict, ok = f"unexpected:{type(err).__name__}", False
                detail = "".join(traceback.format_exception(err))[-800:]
            verdicts.append(verdict)
            if not ok:
                failed += 1
                failed_indices.append(index)
                if len(failures) < 20:
                    failures.append({"index": index, "kind": kind, "verdict": verdict,
                                     "fingerprint": fingerprints[-1], "detail": detail})
            elif (len(oracle_items) < ORACLE_LIMIT and wl.oracle_rate
                  and rng_pick(args, index) < wl.oracle_rate):
                item = wl.oracle_item(req, out)
                if item is not None:
                    item["index"] = index
                    oracle_items.append(item)
            speed_samples.append(speed.sample())
            index += 1
            if args.requests is None and not wl.whole_rounds and busy >= args.seconds:
                done = True
                break
            if time.perf_counter() - wall0 > WALL_LIMIT_S:
                truncated = done = True
                break
        rounds += 1
        round_ends.append(index)
        if rounds == wl.rss_rounds:
            peak_rss_mb = wl.peak_rss_mb()
        if args.requests is None and busy >= args.seconds:
            done = True
        if not done:
            pending = wl.round(rng, rounds)
    rss_late = wl.rss_rounds is not None and peak_rss_mb is None
    if peak_rss_mb is None:
        peak_rss_mb = wl.peak_rss_mb()
    return {"event": "result", "attempted": index, "failed": failed, "busy_s": busy,
            "rounds": rounds, "round_ends": round_ends, "truncated": truncated,
            "rate_ends": round_ends if wl.whole_rounds else [index],
            "tail_pct": wl.tail_pct,
            "peak_rss_mb": peak_rss_mb, "rss_late": rss_late,
            "latencies": latencies, "speed_samples": speed_samples,
            "kinds": kinds, "verdicts": verdicts, "fingerprints": fingerprints,
            "failures": failures, "failed_indices": failed_indices,
            "oracle_items": oracle_items,
            "wall_s": time.perf_counter() - wall0}


def rng_pick(args, index) -> float:
    """Seeded draw deciding whether request `index` goes to the oracle;
    independent of the timed stream so it cannot change the inputs."""
    return random.Random(f"{args.workload}:{args.seed}:pick:{index}").random()


def merge_child(children, path):
    """Fold a cli child's trace file into the merged child counters."""
    import tracing
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    os.remove(path)
    spans = raw.pop("spans")
    room = max(0, tracing.SPAN_CAP - len(children["spans"]))
    children["spans"].extend(spans[:room])
    children["spans_dropped"] += len(spans[room:])
    tracing.merge(children, raw)


def collect_trace(tracer, children, args) -> dict:
    import tracing
    raw = tracer.raw()
    if children is None:
        merged = tracing.merge(tracing.empty_raw(), raw)
        spans = [s for s in tracer.spans if s is not None]
    else:
        # the children traced opfactor; the worker's own spans are the requests
        merged, spans = children, children["spans"]
        for kind, name, v in raw["by_kind"]:
            merged["by_kind"][(kind, name)] = v
        merged["stats"]["request"] = raw["stats"]["request"]
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    tracing.write_spans(path, spans)
    return {"per_layer": tracing.per_layer_metrics(merged),
            "by_kind": [[k, n, v] for (k, n), v in merged["by_kind"].items()],
            "check": merged["check"], "spans_file": os.path.relpath(path, ROOT),
            "spans_kept": len(spans), "spans_dropped": merged["spans_dropped"],
            "binding_sites": merged["sites"]}


def run_oracle(wl, items) -> dict:
    if not wl.oracle_rate:
        return {"status": "not applicable"}
    import oracle
    return oracle.check(items)


if __name__ == "__main__":
    main()
