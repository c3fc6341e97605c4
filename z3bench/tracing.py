"""Spans around the calls into each layer of the package, recorded from the
benchmark's own code.

`Tracer.install` rebinds the public functions of the layers (and the
enumeration dedup step) in every loaded `z3conn` module to wrappers that
record a span per call: name, start, end, parent span and op id, plus a few
counts read from the arguments and the result.  Spans stay in memory; the
worker writes them out when the run ends.  `uninstall` restores the
original functions, so untraced rounds run the package untouched.
"""
from __future__ import annotations

import collections
import json
import math
import sys
import time

from gen import ROUTES

LAYERS = ("seqcore", "sweep", "builder", "reducer", "verifier", "enumerate")


def _graph_key(G) -> int:
    return hash((G.n, G.edges))


def _note_classify(args, result):
    return {"route": result.route.value if result.route else None}


def _note_realize(args, result):
    return {"n": args[0].n, "proof": result.proof}


def _note_replay(args, result):
    return {"steps": len(args[1].steps)}


def _note_certify(args, result):
    return {"proved": result.proved, "key": _graph_key(args[0])}


def _note_dp(args, result):
    G = args[0]
    return {"cells": 3 ** G.n * G.m}


def _note_z3(args, result):
    G = args[0]
    ran_dp = G.n > 1 and G.is_connected()
    return {"cells": 3 ** G.n * G.m if ran_dp else 0, "yes": result,
            "key": _graph_key(G)}


def _note_is_new(args, result):
    return {"new": result}


# (module, attribute, span name, note, is a generator)
TARGETS = (
    ("z3conn.seqcore", "classify", "seqcore.classify", _note_classify, False),
    ("z3conn.sweep", "run_sweep", "sweep.run_sweep", None, False),
    ("z3conn.sweep", "graphic_sequences", "sweep.graphic_sequences", None, True),
    ("z3conn.builder", "realize", "builder.realize", _note_realize, False),
    ("z3conn.reducer", "replay", "reducer.replay", _note_replay, False),
    ("z3conn.reducer", "certify", "reducer.certify", _note_certify, False),
    ("z3conn.verifier", "is_z3_connected", "verifier.is_z3_connected", _note_z3, False),
    ("z3conn.verifier", "is_3_flowable", "verifier.is_3_flowable", _note_dp, False),
    ("z3conn.verifier", "solve_boundary", "verifier.solve_boundary", _note_dp, False),
    ("z3conn.enumerate", "verify_exception", "enumerate.verify_exception", None, False),
    ("z3conn.enumerate", "all_realizations", "enumerate.all_realizations", None, True),
    ("z3conn.enumerate", "_is_new", "enumerate.dedup", _note_is_new, False),
)

# Span fields.
NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0
        self._patched: list[tuple] = []
        self.recording = False

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        self._stack.append(i)
        return i

    def close(self, i: int, info=None):
        self.spans[i][END] = time.perf_counter()
        self.spans[i][INFO] = info
        while self._stack and self._stack.pop() != i:
            pass

    def begin_op(self) -> int:
        self._op += 1
        self.recording = True
        return self.open("bench.op")

    def end_op(self, i: int):
        self.close(i)
        self.recording = False

    # ---------------------------------------------------------- patching

    def install(self):
        for modname, attr, name, note, is_gen in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = (self._wrap_gen if is_gen else self._wrap_call)(orig, name, note)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def _wrap_call(self, fn, name, note):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(i, {"error": type(exc).__name__})
                raise
            self.close(i)
            if note:  # after the span ends, so the note's own work is not timed
                self.spans[i][INFO] = note(args, result)
            return result
        return wrapper

    def _wrap_gen(self, fn, name, note):
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            dedup = bool(kwargs.get("dedup"))
            while True:
                if not self.recording:
                    yield from items
                    return
                i = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    self.close(i)
                    return
                except Exception as exc:
                    self.close(i, {"error": type(exc).__name__})
                    raise
                self.close(i, {"item": 1, "dedup": dedup})
                yield item
        return wrapper

    # ----------------------------------------------------------- output

    def dump(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, default=str) + "\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "z3conn" or name.startswith("z3conn."))]


def layer_metrics(spans: list[list], wrong_realize: int) -> dict[str, tuple]:
    """Per-layer metrics, as name -> (value, unit), from finished spans.

    A `.s` metric is the inclusive time of the calls; `<layer>.self_s` is
    the time inside the layer minus the calls it made into other layers.
    `wrong_realize` is the number of `realize` results the benchmark's own
    checks rejected, which the spans alone cannot see.
    """
    dur, self_dur, children = _durations(spans)
    by = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[END] is not None:
            by[s[NAME]].append(i)

    def calls(name):
        return len(by[name])

    def secs(name, own=False):
        return sum((self_dur if own else dur)[i] for i in by[name])

    def info(i, key, default=None):
        return (spans[i][INFO] or {}).get(key, default)

    def count(name, key, value=True):
        return sum(1 for i in by[name] if info(i, key) == value)

    m: dict[str, tuple] = {}
    m["seqcore.classify.calls"] = (calls("seqcore.classify"), "count")
    m["seqcore.classify.s"] = (secs("seqcore.classify"), "s")
    m["sweep.graphic_sequences.count"] = (count("sweep.graphic_sequences", "item", 1), "count")
    m["sweep.graphic_sequences.s"] = (secs("sweep.graphic_sequences"), "s")

    realize = by["builder.realize"]
    m["builder.realize.calls"] = (len(realize), "count")
    m["builder.realize.s"] = (secs("builder.realize"), "s")
    per_route = {r: [0, 0.0] for r in ROUTES}
    for i in realize:
        # The route is the answer of the first classify call realize makes.
        route = next((info(c, "route") for c in children[i]
                      if spans[c][NAME] == "seqcore.classify"), None)
        if route in per_route:
            per_route[route][0] += 1
            per_route[route][1] += dur[i]
    for r in ROUTES:
        m[f"builder.realize.{r}.calls"] = (per_route[r][0], "count")
        m[f"builder.realize.{r}.s"] = (per_route[r][1], "s")
    errors = collections.Counter(info(i, "error") for i in realize if info(i, "error"))
    m["builder.realize.fail.ConstructionError"] = (errors.pop("ConstructionError", 0), "count")
    m["builder.realize.fail.RecursionError"] = (errors.pop("RecursionError", 0), "count")
    m["builder.realize.fail.wrong"] = (wrong_realize, "count")
    m["builder.realize.fail.other"] = (sum(errors.values()), "count")
    # Construction alone: what realize does besides calling other layers.
    m["builder.realize_family.s"] = (secs("builder.realize", own=True), "s")
    for p in ("certificate", "oracle", "unverified"):
        m[f"builder.proof.{p}"] = (count("builder.realize", "proof", p), "count")
    m["builder.realize.scaling_exp"] = (_loglog_slope(
        [(info(i, "n"), dur[i]) for i in realize if info(i, "proof") and dur[i] > 0]), "1")

    steps = sum(info(i, "steps", 0) for i in by["reducer.replay"])
    replay_s = secs("reducer.replay")
    m["reducer.replay.calls"] = (calls("reducer.replay"), "count")
    m["reducer.replay.s"] = (replay_s, "s")
    m["reducer.replay.steps"] = (steps, "count")
    m["reducer.replay.us_per_step"] = (1e6 * replay_s / steps if steps else 0.0, "us")
    certify = by["reducer.certify"]
    yes = {info(i, "key") for i in by["verifier.is_z3_connected"] if info(i, "yes")}
    certified_yes = {info(i, "key") for i in certify} & yes
    proved_yes = {info(i, "key") for i in certify if info(i, "proved")} & certified_yes
    m["reducer.certify.calls"] = (len(certify), "count")
    m["reducer.certify.s"] = (secs("reducer.certify"), "s")
    m["reducer.certify.proved"] = (count("reducer.certify", "proved"), "count")
    m["reducer.certify.proved_ratio_on_yes"] = (
        len(proved_yes) / len(certified_yes) if certified_yes else 0.0, "frac")

    for f in ("is_z3_connected", "is_3_flowable", "solve_boundary"):
        m[f"verifier.{f}.calls"] = (calls(f"verifier.{f}"), "count")
        m[f"verifier.{f}.s"] = (secs(f"verifier.{f}"), "s")
    m["verifier.dp_cells"] = (sum(
        info(i, "cells", 0) for f in ("is_z3_connected", "is_3_flowable", "solve_boundary")
        for i in by[f"verifier.{f}"]), "count")

    m["enumerate.verify_exception.calls"] = (calls("enumerate.verify_exception"), "count")
    m["enumerate.verify_exception.s"] = (secs("enumerate.verify_exception"), "s")
    dedup_calls = calls("enumerate.dedup")
    classes = count("enumerate.dedup", "new")
    plain = sum(1 for i in by["enumerate.all_realizations"]
                if info(i, "item") and not info(i, "dedup"))
    m["enumerate.labeled.count"] = (plain + dedup_calls, "count")
    m["enumerate.labeled.s"] = (secs("enumerate.all_realizations", own=True), "s")
    m["enumerate.classes.count"] = (classes, "count")
    m["enumerate.classes.s"] = (secs("enumerate.dedup"), "s")
    m["enumerate.dedup_ratio"] = (classes / dedup_calls if dedup_calls else 0.0, "frac")

    for layer, _, own in self_time_table(spans):
        if layer in LAYERS:
            m[f"{layer}.self_s"] = (own, "s")
    for layer in LAYERS:
        m.setdefault(f"{layer}.self_s", (0.0, "s"))
    return m


def _durations(spans):
    """Inclusive and self duration of every span, and each span's children."""
    dur = [0.0] * len(spans)
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[END] is not None:
            dur[i] = s[END] - s[START]
            if s[PARENT] >= 0:
                children[s[PARENT]].append(i)
    self_dur = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]
    return dur, self_dur, children


def self_time_table(spans: list[list]) -> list[tuple[str, int, float]]:
    """(layer, spans, self seconds) for every layer seen; the benchmark's
    own op spans form layer 'bench'."""
    _, self_dur, _ = _durations(spans)
    count = collections.Counter()
    own = collections.defaultdict(float)
    for i, s in enumerate(spans):
        if s[END] is not None:
            layer = s[NAME].split(".")[0]
            count[layer] += 1
            own[layer] += self_dur[i]
    return [(layer, count[layer], own[layer]) for layer in sorted(count)]


def _loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(n); 0 without two
    distinct n."""
    pts = [(math.log(n), math.log(t)) for n, t in points]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
