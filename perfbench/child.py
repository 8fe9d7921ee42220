"""One benchmark run of the chainalg CLI in a fresh interpreter.

Usage: python3 child.py --report FILE [--trace] [--setup-only] -- CLI-ARGS...

The parent starts this with stdout redirected to a file and PYTHONPATH
pointing at the checkout's `src`.  It writes a JSON report to FILE:

* `ready`: the CLOCK_MONOTONIC time at which chainalg is imported and
  ready to dispatch (the parent subtracts its spawn time);
* `wall_s`: the time of `chainalg.cli.main(argv)`, up to stdout flushed;
* `cpu_s`: the CPU time of the same call;
* `rc`: the CLI's exit code;
* `trace`: the tracer's per-layer aggregates, in a traced run.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    report_path = opts[opts.index("--report") + 1]

    import chainalg.cli

    report = {"ready": time.monotonic()}
    if "--setup-only" in opts:
        rc = 0
    else:
        tracer = None
        if "--trace" in opts:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        rc = chainalg.cli.main(cli_args)
        sys.stdout.flush()
        report["wall_s"] = time.perf_counter() - t0
        report["cpu_s"] = time.process_time() - c0
        if tracer is not None:
            report["trace"] = tracer.report()
    report["rc"] = rc
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
