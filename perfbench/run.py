"""Benchmark entry point for idealforms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its
``src``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Five
set-up probes (fresh processes that import the package, build the inputs
and exit) and the measured workers give the set-up samples, whose median
is ``setup_s``.  A worker runs the op list once, one op at a time, and
checks every answer outside the timed spans; ``ROUNDS`` workers run the
same list when single ops are too short to time once.

``--trace 1`` reports the per-module metrics: the same op list runs
untraced and then traced (tracer.py) in two fresh processes, and
``trace.overhead_ratio`` is the ratio of their (scaled) wall times.  It also
times bare interpreter start, ``import idealforms`` and the CLI mix
through ``cli.main``, and runs the CLI error-contract probe.

Times: every end-to-end time is scaled to a reference machine speed
(calib.py), because the shared host's speed changes by up to two times
from one minute to the next.  The times as measured are kept in the run
detail file ``perfbench/out/<workload>-s<seed>-t<trace>.json``.  The
per-module times of the traced run are as measured.

Run size: the op list is sized so that a run at the nominal 30 seconds
takes at most about that long on the reference machine (NOTES.md).
``--seconds`` below 30 shrinks it in proportion; the work of a run never
depends on how fast the program is, so two commits are compared on the
same ops.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOMINAL_SECONDS = 30
SETUP_PROBES = 5
# schema_corpus ops take under a millisecond, so a host stall of a few
# milliseconds would decide its tail; each op's latency there is the
# median of three rounds
ROUNDS = {"schema_corpus": 3}
DEADLINE_S = 170  # every run must end within 180 s


class RunFailed(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed string hashing, so that set and dict orders, and with them
    # the call counts of the traced run, repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(cmd: list[str], deadline: float) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child to completion; returns it and its wall time.  On
    timeout the child's whole process group is killed and reaped."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time")
    t0 = time.monotonic()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise RunFailed(f"timed out: {' '.join(cmd)}") from exc
    proc = subprocess.CompletedProcess(cmd, child.returncode, out, err)
    return proc, time.monotonic() - t0


def _worker(workload: str, seed: int, scale: float, deadline: float, *flags: str) -> dict:
    """Run worker.py; its set-up time is scaled by calibration samples
    taken here just before the spawn and by the worker just after set-up."""
    cal_before = calib.sample()
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--scale", repr(scale), "--t0", repr(t0), *flags,
    ]
    proc, _ = _spawn(cmd, deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"worker {' '.join(flags)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_ref_s"] = out["setup_s"] * calib.REFERENCE_S / ((cal_before + out["setup_cal"]) / 2)
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile (nearest rank) that
    still has at least 10 samples beyond it; the maximum for tiny runs."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    rank = len(xs) - 10
    return xs[rank - 1], 100.0 * rank / len(xs)


def end_to_end(workload: str, seed: int, scale: float, deadline: float) -> tuple[dict, dict]:
    setups = [
        _worker(workload, seed, scale, deadline, "--setup-only")["setup_ref_s"]
        for _ in range(SETUP_PROBES)
    ]
    runs = [_worker(workload, seed, scale, deadline) for _ in range(ROUNDS.get(workload, 1))]
    setups += [run["setup_ref_s"] for run in runs]
    # one latency per op: its median over the rounds, which run the same
    # ops in the same order, each in a fresh process
    lat = [statistics.median(ts) for ts in zip(*(run["latencies"] for run in runs))]
    raw = [statistics.median(ts) for ts in zip(*(run["raw"] for run in runs))]
    failures = [f for run in runs for f in run["failures"]]
    attempted = len(lat) * len(runs)
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (max(run["peak_rss_mb"] for run in runs), "MB"),
        "pass_ratio": ((attempted - len(failures)) / attempted, "1"),
    }
    labels = runs[0]["labels"]
    detail = {
        "setup_samples_s": setups,
        "ops": len(lat),
        "rounds": len(runs),
        "tail_percentile": pct,
        "raw_wall_s": sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "failures": failures,
        "slowest_ops": sorted(zip(lat, labels), reverse=True)[:10],
    }
    if len(lat) <= 1000:
        detail["ops_in_order"] = list(zip(labels, lat, raw))
    return _result(attempted, failures, metrics), detail


def _bare_ms(code: str, deadline: float, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        proc, dt = _spawn([sys.executable, "-c", code], deadline)
        if proc.returncode != 0:
            raise RunFailed(f"python -c {code!r} exited {proc.returncode}:\n{proc.stderr}")
        times.append(dt * 1e3)
    return statistics.median(times)


def per_layer(workload: str, seed: int, scale: float, deadline: float) -> tuple[dict, dict]:
    spans = HERE / "out" / f"spans-{workload}-s{seed}.jsonl"
    inproc = ("--inproc",) if workload == "cli_verbs" else ()
    plain = _worker(workload, seed, scale, deadline, *inproc)
    traced = _worker(workload, seed, scale, deadline, "--trace", *inproc, "--spans", str(spans))
    # the CLI layer: interpreter start, package import, verbs in-process
    cli_run = plain if inproc else _worker("cli_verbs", seed, scale, deadline, "--inproc")
    interp_ms = _bare_ms("pass", deadline)
    import_ms = _bare_ms("import idealforms", deadline) - interp_ms
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import KNOWN_DEFECTS, contract_violation

    violations = []
    for argv in KNOWN_DEFECTS:
        proc, _ = _spawn([sys.executable, "-m", "idealforms.cli", *argv], deadline)
        if contract_violation(proc.returncode, proc.stdout, proc.stderr):
            violations.append(argv)

    layers = dict(traced["layers"])
    layers.update({
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.main_ms": statistics.median(cli_run["raw"]) * 1e3,
        "cli.contract_violations": len(violations),
        "trace.overhead_ratio": sum(traced["latencies"]) / sum(plain["latencies"]),
    })
    units = {"_s": "s", "_ms": "ms", "_ratio": "1"}
    metrics = {
        name: (value, next((u for sfx, u in units.items() if name.endswith(sfx)), "count"))
        for name, value in layers.items()
    }
    failures = plain["failures"] + traced["failures"]
    detail = {
        "ops": len(traced["latencies"]),
        "failures": failures,
        "contract_violations": [" ".join(argv) for argv in violations],
        "calls": traced["calls"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return _result(len(plain["latencies"]) + len(traced["latencies"]), failures, metrics), detail


def _result(attempted: int, failures: list[str], metrics: dict) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["deep_forms", "schema_corpus", "law_trials", "cli_verbs"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "idealforms" / "__init__.py").is_file():
        print(f"no idealforms sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    scale = min(1.0, args.seconds / NOMINAL_SECONDS)
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        result, detail = measure(args.workload, args.seed, scale, deadline)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for failure in detail["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    out = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "result": result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
