"""One benchmark process: set up, run the op list once, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
``--t0`` holding ``time.monotonic()`` just before the process was spawned
(the clock is system-wide), so set-up time counts interpreter start,
``import idealforms`` and input generation.  Prints one JSON object as
its last line of standard output: op latencies as measured (``raw``)
and scaled to the reference speed (``latencies``, see calib.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

BLOCK_S = 0.25


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--inproc", action="store_true", help="cli_verbs through cli.main")
    ap.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = ap.parse_args()

    import idealforms  # noqa: F401  (part of the measured set-up)
    import calib
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(inproc=args.inproc) if cls is workloads.CliVerbs else cls()
    ops = workload.inputs(args.seed, args.scale)
    setup_s = time.monotonic() - args.t0
    setup_cal = calib.sample()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cal": setup_cal}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    raw: list[float] = []
    latencies: list[float] = []
    failures: list[str] = []
    # ops run in blocks of at least BLOCK_S between calibration samples;
    # each op is scaled by the mean of the samples around its block
    cal_before = setup_cal
    block_start, block_s = 0, 0.0
    for op_id, inp in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        t0 = clock()
        try:
            answer = workload.run(inp)
            error = None
        except Exception as exc:  # an op must never raise
            error = f"{workload.describe(inp)}: raised {exc!r}"
        raw.append(clock() - t0)
        block_s += raw[-1]
        if error is None:
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                error = workload.check(inp, answer)
        if error is not None:
            failures.append(error)
        if block_s >= BLOCK_S or op_id == len(ops) - 1:
            cal_after = calib.sample()
            factor = calib.REFERENCE_S / ((cal_before + cal_after) / 2)
            latencies.extend(dt * factor for dt in raw[block_start:])
            cal_before, block_start, block_s = cal_after, op_id + 1, 0.0

    who = resource.RUSAGE_CHILDREN if cls is workloads.CliVerbs and not args.inproc else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "latencies": latencies,
        "raw": raw,
        "labels": [workload.describe(inp) for inp in ops],
        "failures": failures,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["calls"] = tracer.all_calls()
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as fh:
                for name, start, end, parent, op in tracer.spans:
                    fh.write(json.dumps([name, start, end, parent, op]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
