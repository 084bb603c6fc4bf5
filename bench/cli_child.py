"""One cli-corpus request: a fresh interpreter running opfactor.cli.main.

    python3 bench/cli_child.py [--trace-out PATH] -- <opfactor arguments>
    python3 bench/cli_child.py --import-only

Prints what the CLI prints and exits with its code.  With --trace-out
the child installs the tracing wrappers itself after the import and
writes its counters and spans to PATH as JSON.  --import-only prints, as
JSON, the seconds `import opfactor` took and the times of speed.SETUP_WINDOW
kernel runs made just after it in this process, and exits.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

start = time.perf_counter()
import opfactor.cli  # noqa: E402
import_s = time.perf_counter() - start


def main(argv):
    if argv == ["--import-only"]:
        import json
        import speed
        kernel = [speed.sample() for _ in range(speed.SETUP_WINDOW)]
        print(json.dumps([import_s, kernel]))
        return 0
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: cli_child.py [--trace-out PATH] -- ARGS", file=sys.stderr)
        return 64
    argv = argv[1:]
    if trace_out is None:
        return opfactor.cli.main(argv)
    import json
    import tracing
    tracer = tracing.Tracer().install()
    frame = tracer.begin_request(0, argv[0])
    try:
        code = opfactor.cli.main(argv)
    finally:
        tracer.end_request(frame)
    raw = tracer.raw()
    raw["import_s"] = import_s
    raw["spans"] = [s for s in tracer.spans if s is not None]
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
