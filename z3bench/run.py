"""z3conn benchmark runner.

    python3 z3bench/run.py --workload {sweep,large,exceptions,verify} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository: the package is imported from its
`src/` directory, nothing is installed.  Each workload runs in a fresh
single-threaded worker process (BLAS/OpenMP thread variables set to 1), so
its peak RSS and set-up time are its own.  Set-up is timed in that worker
and in SETUP_REPEATS extra set-up-only workers; `setup_s` is the median.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones, from
spans recorded around the calls into each layer, and the tracing overhead.
Exit status: 0 with a result, 1 when the worker failed, 2 when the
checkout has no package to benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "large", "exceptions", "verify")
SETUP_REPEATS = 4
# All workers of one run together must end within this many seconds.
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "z3conn" / "__init__.py").is_file():
        print(f"error: no z3conn package under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    env.update({v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, _ = _worker(cmd + ["--setup-only"], env, deadline)
        setups.append(setup_s)
    setup_s, result = _worker(cmd, env, deadline)
    setups.append(setup_s)
    if result is None:
        print("error: the worker ended without a result", file=sys.stderr)
        return 1
    _report(args, setups, result)
    return 0


def _worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one worker, killing it at `deadline` (time.monotonic); returns its
    set-up seconds (start to READY) and its result.  Exits with status 1 if
    the worker fails."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        setup_s = None
        result = None
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if setup_s is None or code != 0:
        raise SystemExit(f"error: worker exited with status {code}: {' '.join(cmd)}")
    return setup_s, result


def _report(args, setups: list[float], r: dict):
    out = print
    out(f"z3bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    out(f"  {r['rounds']} untraced rounds of {r['ops']} ops, seconds in ops per round: "
        + ", ".join(f"{s:.3f}" for s in r["round_s"]))
    out(f"  work unit: {r['work_unit']}")
    setup_s = statistics.median(setups)
    out(f"  {'setup_s':28} {setup_s:12.6f} s      median of "
        + ", ".join(f"{s:.3f}" for s in setups))
    for name, (value, unit) in r["metrics"].items():
        out(f"  {name:28} {value:12.6f} {unit}")
    for name, value, unit, note in r["named"]:
        shown = "n/a" if value is None else f"{value:.6f}"
        out(f"  {name:28} {shown:>12} {unit:6} {note}")
    out("  failures: " + " ".join(f"{b}={n}" for b, n in r["buckets"].items()))
    for bucket, msg in r["first_error"].items():
        out(f"    first {bucket}: {msg[:160]}")
    if args.trace:
        out("  per-layer self time (traced rounds):")
        for layer, count, own in r["self_table"]:
            out(f"    {layer:12} {count:9d} spans {own:12.6f} s")
        for name, (value, unit) in r["layers"].items():
            out(f"  {name:40} {value:16.6f} {unit}")
        metrics = r["layers"]
    else:
        metrics = dict(r["metrics"], setup_s=(setup_s, "s"))
    print(json.dumps({
        "correct": r["wrong"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
