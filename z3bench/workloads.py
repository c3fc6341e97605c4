"""The four benchmark workloads.

Each workload makes its list of ops (`batch`), runs one op
through the package's public entry points (`run`, the timed part) and
checks the op's output independently (`check`, untimed).  An op covers
`units` attempted items; `check` returns how many of them failed and why,
and how much work (the unit of `work_per_s`) the op completed.

Every call into the package goes through the `z3conn` module attribute at
call time, so the tracer's wrappers see it.
"""
from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter

import z3conn as api
import z3conn.sweep

from gen import ROUTES, covered_sequence, erdos_gallai, random_graph


# The `large` and `verify` inputs are drawn once from this seed and run in a
# fixed order; the run's --seed does not change them.  Drawn afresh per
# seed, their cost depended on the draw more than on the code (whether
# certify proves a graph at once or exhausts its budget, how deep a size-768
# sequence recurses): over five seeds the spread of work_per_s was 0.09 on
# large and 0.27 on verify.  Shuffled per seed, the op order alone moved the
# peak RSS of large by 10%.
CORPUS_SEED = 0


@dataclasses.dataclass
class Outcome:
    attempted: int
    failures: list[tuple[str, str]]  # (bucket, message)
    work: float
    samples: dict[str, float] = dataclasses.field(default_factory=dict)


def _simple_with_degrees(G, degrees: tuple[int, ...]) -> str | None:
    """Why G is not a simple graph with exactly these degrees, or None."""
    seen = set()
    deg = [0] * G.n
    for u, v in G.edges:
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            return f"edge {key} is a loop or parallel"
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    if tuple(sorted(deg, reverse=True)) != degrees:
        return "degrees differ from the sequence"
    return None


def _route_of(degrees: tuple[int, ...]) -> str:
    gap = len(degrees) - degrees[0]
    return {1: "T12", 2: "L41", 3: "T14"}.get(gap, "T15")


class Sweep:
    """`run_sweep(6, 9)` exactly as `z3conn sweep --n-min 6 --n-max 9` runs
    it."""

    name = "sweep"
    work_unit = "covered sequences checked"
    N_MIN, N_MAX = 6, 9
    # Covered sequences per n under the four routes of the paper.
    EXPECTED = {6: 11, 7: 51, 8: 210, 9: 823}
    units = sum(EXPECTED.values())

    def batch(self) -> list:
        return [(self.N_MIN, self.N_MAX)]

    def warm_up(self):
        api.sweep.run_sweep(self.N_MIN, self.N_MIN)

    def run(self, op):
        return api.sweep.run_sweep(*op)

    def check(self, op, report) -> Outcome:
        failures = []
        per_n = Counter()
        seen = set()
        for row in report.rows:
            d = row.sequence.degrees
            per_n[len(d)] += 1
            if not row.ok:
                bucket = "other" if row.detail.startswith("error") else "wrong"
                failures.append((bucket, f"{row.sequence.render()}: {row.detail}"))
            elif (d in seen or not erdos_gallai(list(d)) or min(d) < 3
                  or row.classification.route.value != _route_of(d)):
                failures.append(("wrong", f"{row.sequence.render()}: bad row"))
            seen.add(d)
        for n, want in self.EXPECTED.items():
            failures += [("wrong", f"n={n}: covered sequence missing")] * max(0, want - per_n[n])
        attempted = max(len(report.rows), self.units)
        return Outcome(attempted, failures, attempted - len(failures))


class Large:
    """`realize` on covered sequences of every route, n on a log-spaced grid
    over [32, 1024] (the midpoints of six equal log-width strata)."""

    name = "large"
    work_unit = "vertices realized and replayed"
    GRID = tuple(round(32 * 32 ** ((k + 0.5) / 6)) for k in range(6))
    units = 1

    def batch(self) -> list:
        rng = random.Random(CORPUS_SEED)
        return [covered_sequence(route, n, rng) for route in ROUTES for n in self.GRID]

    def warm_up(self):
        api.realize(covered_sequence("L41", 8, random.Random(0)))

    def run(self, seq):
        return api.realize(seq)

    def check(self, seq, r) -> Outcome:
        if r.status != "realized" or r.certificate is None:
            why = f"status {r.status}, proof {r.proof}"
        else:
            why = _simple_with_degrees(r.graph, seq.degrees)
            if why is None:
                rr = api.replay(r.graph, r.certificate)
                if not rr.ok:
                    why = f"certificate fails at step {rr.failed_step}: {rr.message}"
        if why:
            return Outcome(1, [("wrong", f"{seq.render()}: {why}")], 0)
        return Outcome(1, [], seq.n)


class Exceptions:
    """`verify_exception` on the five acceptance-gate families; one op
    confirms the whole set."""

    name = "exceptions"
    work_unit = "families confirmed"
    FAMILIES = ("(3^4)", "(5,3^5)", "(5^2,3^4)", "(3^6)", "(4,3^6)")
    units = len(FAMILIES)

    def batch(self) -> list:
        return [tuple(api.parse_sequence(f) for f in self.FAMILIES)]

    def warm_up(self):
        api.verify_exception(api.parse_sequence(self.FAMILIES[0]))

    def run(self, families):
        return [api.verify_exception(seq) for seq in families]

    def check(self, families, answers) -> Outcome:
        failures = [("wrong", f"{seq.render()}: a Z3-connected realization was found")
                    for seq, ok in zip(families, answers) if ok is not True]
        return Outcome(len(families), failures, len(families) - len(failures))


class Verify:
    """Per graph, the three commands a user runs on a graph file:
    `z3conn verify` (is_z3_connected and is_3_flowable), a zero-boundary
    witness from solve_boundary, and `z3conn certify` (certify, then replay
    of a found certificate).  Graphs have n in 10..14, one realization of a
    covered sequence and one random graph per n."""

    name = "verify"
    work_unit = "graphs through all three commands"
    N_VALUES = range(10, 15)
    units = 1

    def batch(self) -> list:
        rng = random.Random(CORPUS_SEED)
        ops = []
        for n in self.N_VALUES:
            seq = covered_sequence(rng.choice(ROUTES[1:]), n, rng)
            ops.append(("realized", api.realize(seq).graph))
            ops.append(("random", random_graph(n, rng)))
        return ops

    def warm_up(self):
        self.run(("random", random_graph(6, random.Random(0))))

    def run(self, op):
        _, G = op
        t0 = time.perf_counter()
        z3 = api.is_z3_connected(G)
        flowable = api.is_3_flowable(G)
        t1 = time.perf_counter()
        witness = api.solve_boundary(G, api.ZeroSumFunction((0,) * G.n))
        t2 = time.perf_counter()
        found = api.certify(G)
        replayed = api.replay(G, found.certificate) if found.proved else None
        t3 = time.perf_counter()
        return {"z3": z3, "flowable": flowable, "witness": witness,
                "proved": found.proved, "replayed": replayed,
                "verify_s": t1 - t0, "witness_s": t2 - t1, "certify_s": t3 - t2}

    def check(self, op, r) -> Outcome:
        source, G = op
        problems = []
        if source == "realized" and not r["z3"]:
            problems.append("realization of a covered sequence is not Z3-connected")
        if r["z3"] and not r["flowable"]:
            problems.append("Z3-connected but not 3-flowable")
        if (r["witness"] is None) == r["flowable"]:
            problems.append("zero-boundary witness disagrees with is_3_flowable")
        if r["witness"] is not None and any(api.boundary(G, r["witness"]).values):
            problems.append("witness boundary is not zero")
        if r["proved"] and not r["z3"]:
            problems.append("certified but the oracle says not Z3-connected")
        if r["proved"] and not r["replayed"].ok:
            problems.append("found certificate does not replay")
        samples = {k: r[k] for k in ("verify_s", "witness_s", "certify_s")}
        samples["z3"] = float(r["z3"])
        samples["proved"] = float(r["proved"])
        failures = [("wrong", f"{source} n={G.n}: {p}") for p in problems]
        return Outcome(1, failures, 0 if failures else 1, samples)


WORKLOADS = {w.name: w for w in (Sweep, Large, Exceptions, Verify)}
