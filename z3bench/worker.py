"""One benchmark process: set up a workload, run it closed-loop (one client,
each op starts when the previous one has returned), check every output and
report the results as one JSON line.

Protocol on stdout: a line `READY` once set-up (import, input generation,
warm-up) is done, then, unless --setup-only, a line `RESULT <json>`.
`run.py` starts this file; it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import refkernel
import tracing
from workloads import WORKLOADS, Outcome

BUCKETS = ("ConstructionError", "RecursionError", "wrong", "other")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
OUT_DIR = Path(__file__).resolve().parent.parent / ".z3bench_out"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    ops = wl.batch()
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    tracer = tracing.Tracer() if args.trace else None
    rounds = _run(wl, ops, args.seconds, tracer)
    result = _summarize(wl, rounds, tracer)
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _run(wl, ops: list, seconds: float, tracer) -> list[dict]:
    """Rounds over the same ops until the next round would likely overrun
    `seconds`, and at least two.

    Traced runs alternate an untraced and a traced round, so the difference
    between them is the tracing overhead.
    """
    start = time.perf_counter()
    rounds = []
    checked: dict = {}
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rounds.append(_round(wl, ops, tracer if traced else None, checked))
        finally:
            if traced:
                tracer.uninstall()
        rounds[-1]["traced"] = traced
        elapsed = time.perf_counter() - start
        done = len(rounds)
        if done >= 2 and done % (2 if tracer else 1) == 0 and elapsed + elapsed / done > seconds:
            return rounds


def _round(wl, ops: list, tracer, checked: dict) -> dict:
    """Each op once, closed loop; returns per-op seconds, outcomes, and the
    median of the reference kernel's times taken before, between and after
    the ops.

    `checked` maps an op's index to its last output and that output's
    outcome.  The package is deterministic, so an output equal to one
    already checked gets the same outcome without checking it again.
    """
    seconds, outcomes = [], []
    refs = [refkernel.reference_seconds()]
    for i, op in enumerate(ops):
        span = tracer.begin_op() if tracer else None
        t0 = time.perf_counter()
        try:
            result, error = wl.run(op), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, exc
        seconds.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_op(span)
        if error is None:
            seen = checked.get(i)
            if seen is None or seen[0] != result:
                seen = checked[i] = (result, wl.check(op, result))
            outcomes.append(seen[1])
        else:
            name = type(error).__name__
            bucket = name if name in BUCKETS else "other"
            outcomes.append(Outcome(wl.units, [(bucket, f"{name}: {error}")] * wl.units, 0))
        refs.append(refkernel.reference_seconds())
    return {"seconds": seconds, "outcomes": outcomes, "ref": _median(refs)}


def _summarize(wl, rounds: list[dict], tracer) -> dict:
    """End-to-end metrics from the untraced rounds.

    An op's cost is its time divided by the reference kernel's time in the
    same round, which cancels the drift in machine speed, and of that the
    median over the rounds.  `work_per_ref` is the work done per kernel time at
    that cost.  The wall-clock throughput, from each op's median time, is
    reported alongside, ungated.
    """
    plain = [r for r in rounds if not r["traced"]]
    per_op = list(zip(*(r["seconds"] for r in plain)))
    refs = [r["ref"] for r in plain]
    op_s = [_median(list(t)) for t in per_op]
    op_cost = [_median([t / f for t, f in zip(ts, refs)]) for ts in per_op]
    work = [statistics.fmean(o.work for o in outs)
            for outs in zip(*(r["outcomes"] for r in plain))]
    outcomes = [o for r in rounds for o in r["outcomes"]]
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    buckets = Counter(b for b, _ in failures)
    first_error = {}
    for b, msg in failures:
        first_error.setdefault(b, msg)
    metrics = {
        "ok_frac": (1 - len(failures) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_ref": (sum(work) / sum(op_cost), "1/ref"),
    }
    raw = {"work_per_s": sum(work) / sum(op_s),
           "ref_s": _median(refs)}
    samples: dict[str, list] = {"op_s": [t for r in plain for t in r["seconds"]]}
    for r in plain:
        for o in r["outcomes"]:
            for k, v in o.samples.items():
                samples.setdefault(k, []).append(v)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "wrong": buckets["wrong"],
        "buckets": {b: buckets[b] for b in BUCKETS},
        "first_error": first_error,
        "rounds": len(plain),
        "round_s": [sum(r["seconds"]) for r in plain],
        "ops": len(op_s),
        "work_unit": wl.work_unit,
        "metrics": metrics,
        "named": _named(wl.name, raw, samples, len(failures), attempted),
    }
    if tracer:
        traced = [r for r in rounds if r["traced"]]
        t_cost, u_cost = (sum(sum(r["seconds"]) / r["ref"] for r in rs) for rs in (traced, plain))
        wrong = sum(1 for r in traced for o in r["outcomes"] for b, _ in o.failures
                    if b == "wrong")
        layers = tracing.layer_metrics(tracer.spans, wrong if wl.name in ("sweep", "large") else 0)
        layers["bench.trace_overhead_frac"] = (t_cost / u_cost - 1, "frac")
        result["layers"] = layers
        result["self_table"] = tracing.self_time_table(tracer.spans)
    return result


def _named(name, raw, samples, failed, attempted) -> list:
    """The workload's metrics under their descriptive names, in wall-clock
    units (not gated), each timing with its median, tail percentile and
    sample count."""
    rows = [("fail_frac", failed / attempted, "frac", f"{failed} of {attempted} failed"),
            ("ref_s", raw["ref_s"], "s", "median reference kernel time"),
            ("work_per_s", raw["work_per_s"], "1/s", "wall-clock")]
    if name == "sweep":
        rows.append(("sweep_seq_per_s", raw["work_per_s"], "1/s", "= work_per_s"))
    elif name == "large":
        rows.append(("realize_vertices_per_s", raw["work_per_s"], "1/s", "= work_per_s"))
        rows += _timing("realize", samples["op_s"])
    elif name == "exceptions":
        rows += _timing("confirm", samples["op_s"])
    elif name == "verify":
        rows += _timing("verify", samples.get("verify_s", []))
        rows += _timing("witness", samples.get("witness_s", []))
        rows += _timing("certify", samples.get("certify_s", []))
        yes = sum(samples.get("z3", []))
        proved = sum(samples.get("proved", []))
        rows.append(("certify_proved_on_yes", proved / yes if yes else 0.0, "frac",
                     f"{proved:.0f} proved of {yes:.0f} Z3-connected"))
    return rows


def _timing(prefix: str, values: list[float]) -> list:
    n = len(values)
    rows = [(f"{prefix}_p50_s", _median(values), "s", f"N={n}")]
    level = next((p for p in PERCENTILES if n * (1 - p / 100) >= 10), None)
    if level is None:
        rows.append((f"{prefix}_tail_s", None, "s",
                     f"N={n}: no percentile has 10 samples beyond it"))
    else:
        rows.append((f"{prefix}_tail_s", _percentile(values, level), "s", f"p{level:g}, N={n}"))
    return rows


def _median(values: list[float]) -> float:
    return _percentile(values, 50.0) if values else 0.0


def _percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, as numpy's default."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


if __name__ == "__main__":
    sys.exit(main())
