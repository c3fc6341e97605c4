"""Reduction certificates: machine-checkable evidence of Z3-connectivity.

A certificate is a sequence of steps replayed against the input graph.
Steps keep the original vertex labels throughout: merged vertices form
classes, and any original member names its class.  Every step is sound on
its own (if the reduced graph is Z3-connected then so was the graph before
the step), so a replay that validates all preconditions and ends at a
single vertex, or at a triangular-rule terminal, proves the input graph
Z3-connected regardless of how the steps were found.

Step kinds and their preconditions:
  lift u v w            deg(u) >= 4 and edges uv, uw present (v != w);
                        replaces uv, uw by vw
  contract-2cycle u v   at least two parallel edges between the classes
  contract-even-wheel c r1..r2k
                        even rim length >= 4, spokes and rim edges present
  contract-base NAME v1..vk
                        the named catalog graph embeds on these classes
                        (every base edge present between the mapped classes)
  absorb v              the class of v sends >= 2 edges to the rest;
                        deletes the class
  triangular            terminal: remaining graph triangularly connected
                        with minimum degree >= 4
  done                  terminal: remaining graph is a single vertex

`replay` checks a certificate; `certify` searches for one.  Both run on one
`_State`, a class-adjacency map, and build no graph.  The search reads the
map at each node, and every step it emits, absorbs and terminal included,
passes replay's check once, in order, on the search's own state: the
search is its own replay.  It finds the pieces it contracts, even wheels
and catalog bases alike, with one backtracking subgraph matcher
(`_embed`), each piece given as a pattern graph.  Once no rule fits, each
later state is the subgraph induced by the classes left, so the absorb
search keys states by bitmask and never walks a failed one twice.
`certify` also reports the nodes it spent and why it stopped (`reason`).
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterable

from .catalog import CERTIFIABLE_BASES, base_graph, wheel, wheel_edges
from .graph import Multigraph, triangularly_connected


class CertificateError(ValueError):
    """Malformed certificate text."""


# Each step kind's arguments, in order: "v" a vertex, "n" a base name.  A
# trailing "+" takes the rest of the line as one tuple of vertices.
_ARGS = {
    "lift": "vvv",
    "contract-2cycle": "vv",
    "contract-even-wheel": "v+",
    "contract-base": "n+",
    "absorb": "v",
    "triangular": "",
    "done": "",
}


@dataclasses.dataclass(frozen=True)
class Step:
    kind: str
    args: tuple = ()

    def render(self) -> str:
        spec = _ARGS.get(self.kind)
        if spec is None:
            raise CertificateError(f"unknown step kind {self.kind!r}")
        head = spec.rstrip("+")
        words = [self.kind, *self.args[:len(head)]]
        if spec != head:
            words += self.args[len(head)]
        return " ".join(map(str, words))


def lift_step(u, v, w) -> Step:
    return Step("lift", (u, v, w))


def two_cycle_step(u, v) -> Step:
    return Step("contract-2cycle", (u, v))


def wheel_step(center, rim) -> Step:
    return Step("contract-even-wheel", (center, tuple(rim)))


def base_step(name, vertices) -> Step:
    return Step("contract-base", (name, tuple(vertices)))


def absorb_step(v) -> Step:
    return Step("absorb", (v,))


@dataclasses.dataclass(frozen=True)
class Certificate:
    steps: tuple[Step, ...]

    def render(self) -> str:
        return "\n".join(step.render() for step in self.steps) + "\n"


def parse_certificate(text: str) -> Certificate:
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *rest = line.split()
        try:
            spec = _ARGS.get(kind)
            if spec is None:
                raise ValueError(f"unknown step {kind!r}")
            head = spec.rstrip("+")
            more = spec != head
            if len(rest) < len(head) or len(rest) > len(head) and not more:
                raise ValueError(f"{kind} got {len(rest)} arguments, expects "
                                 f"{len(head)}{' or more' * more}")
            args = [w if form == "n" else int(w) for form, w in zip(head, rest)]
            if more:
                args.append(tuple(map(int, rest[len(head):])))
        except ValueError as exc:
            raise CertificateError(f"line {lineno}: {exc}") from None
        steps.append(Step(kind, tuple(args)))
    if not steps:
        raise CertificateError("empty certificate")
    return Certificate(tuple(steps))


class _State:
    """Replay state: a union-find over the original vertices and one
    class-adjacency map.

    `adj` has one entry per live class, keyed by its union-find root: a
    plain dict from each neighbouring root to the number of edges between
    the two classes.  Edges inside a class vanish when it forms, and a
    deleted class leaves `adj` (its members still find its root, which
    `root` then rejects).  `lift`, `merge`, `delete_class` and `degree`
    take live roots, as `root` returns them.  `merge` folds the class with
    fewer neighbours into the other (small to large), so it patches only
    the smaller side of the map.  `label[root]` is the name a class is
    printed under, kept apart from the root: `merge(ru, rv)` names the
    merged class after rv's class, whichever root survives.  `realize`
    validates a built graph on a fresh state's rows, then replays on it.
    """

    def __init__(self, G: Multigraph):
        self.parent = list(range(G.n))
        self.label = list(range(G.n))
        self.adj = G.adjacency()

    def __len__(self) -> int:
        """Number of live classes."""
        return len(self.adj)

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def _add(self, a: int, b: int, count: int):
        """Change the number of edges between roots a and b by count."""
        row_a, row_b = self.adj[a], self.adj[b]
        total = row_a.get(b, 0) + count
        if total:
            row_a[b] = row_b[a] = total
        else:
            del row_a[b], row_b[a]

    def root(self, v) -> int | None:
        """The root of v's class, or None unless v names a live class."""
        if isinstance(v, int) and 0 <= v < len(self.parent):
            r = self.find(v)
            if r in self.adj:
                return r
        return None

    def degree(self, r: int, cap: int | None = None) -> int:
        """Edges leaving class r; with `cap`, a sum over only `cap` rows of
        at least one edge each, so exact below `cap` and >= `cap` otherwise."""
        return sum(itertools.islice(self.adj[r].values(), cap))

    def lift(self, ru: int, rv: int, rw: int):
        self._add(ru, rv, -1)
        self._add(ru, rw, -1)
        self._add(rv, rw, 1)

    def merge(self, ru: int, rv: int) -> int:
        """Merge the distinct classes ru and rv into one named after rv's
        class; returns its root."""
        adj, name = self.adj, self.label[rv]
        small, big = (ru, rv) if len(adj[ru]) <= len(adj[rv]) else (rv, ru)
        big_row = adj[big]
        for x, count in adj.pop(small).items():
            row = adj[x]
            del row[small]
            if x != big:
                row[big] = big_row[x] = big_row.get(x, 0) + count
        self.parent[small] = big
        self.label[big] = name
        return big

    def delete_class(self, r: int):
        for x in self.adj.pop(r):
            del self.adj[x][r]

    def rows(self) -> tuple[list[int], list[dict[int, int]]]:
        """The live classes numbered 0..k-1 in name order: their names, and
        each class's neighbour -> multiplicity map in that numbering."""
        roots = sorted(self.adj, key=self.label.__getitem__)
        index = {r: i for i, r in enumerate(roots)}
        return ([self.label[r] for r in roots],
                [{index[x]: c for x, c in self.adj[r].items()} for r in roots])


def _apply_step(state: _State, step: Step) -> str | None:
    """Apply one step, validating preconditions; returns an error or None."""
    if step.kind == "lift":
        roots = _check(state, step.args, _LIFT, "lift")
        if isinstance(roots, str):
            return roots
        if (deg := state.degree(roots[0], 4)) < 4:
            return f"lift center has degree {deg} < 4"
        state.lift(*roots)
        return None
    if step.kind == "contract-2cycle":
        u, v = step.args
        return _contract(state, (u, v), _TWO_CYCLE, "parallel")
    if step.kind == "contract-even-wheel":
        center, rim = step.args
        if len(rim) < 4 or len(rim) % 2 != 0:
            return "rim must have even length >= 4"
        return _contract(state, (center, *rim),
                         ((e, 1) for e in wheel_edges(len(rim))),
                         "spoke or rim")
    if step.kind == "contract-base":
        name, vertices = step.args
        if name not in CERTIFIABLE_BASES:
            return f"base {name!r} not certifiable"
        base = base_graph(name)
        if len(vertices) != base.n:
            return f"base {name} needs {base.n} vertices"
        # every base is simple, so each edge is needed once
        return _contract(state, vertices, ((e, 1) for e in base.edges), "base")
    if step.kind == "absorb":
        (v,) = step.args
        roots = _check(state, (v,), (), "absorb")
        if isinstance(roots, str):
            return roots
        deg = state.degree(roots[0])
        if deg < 2:
            return f"class of {v} has only {deg} outgoing edges"
        if len(state) < 2:
            return "cannot absorb the last class"
        state.delete_class(roots[0])
        return None
    if step.kind == "triangular":
        if not triangularly_connected(state.adj):
            return "remaining graph not triangularly connected"
        if min(state.degree(r, 4) for r in state.adj) < 4:
            return "remaining graph has a vertex of degree < 4"
        return None
    if step.kind == "done":
        if len(state) != 1:
            return "more than one class remains"
        return None
    return f"unknown step kind {step.kind!r}"


# The edges a lift u v w needs, uv and uw, and the pattern a 2-cycle
# contracts, K2 taken twice, as (edge, multiplicity) pairs.
_LIFT = (((0, 1), 1), ((0, 2), 1))
_TWO_CYCLE = (((0, 1), 2),)


def _check(state: _State, vertices,
           pattern: Iterable[tuple[tuple[int, int], int]],
           what: str) -> list[int] | str:
    """The roots of `vertices`' classes, each resolved once; or an error
    unless they are distinct live classes and, for each ((a, b), need) of
    `pattern`, classes a and b share at least `need` edges (a missing one
    is named a `what` edge)."""
    roots = [state.root(x) for x in vertices]
    if None in roots:
        return f"vertex {vertices[roots.index(None)]} invalid"
    if len(set(roots)) != len(roots):
        return "step vertices must be distinct classes"
    for (a, b), need in pattern:
        if state.adj[roots[a]].get(roots[b], 0) < need:
            return f"missing {what} edge ({vertices[a]},{vertices[b]})"
    return roots


def _contract(state: _State, vertices,
              pattern: Iterable[tuple[tuple[int, int], int]],
              what: str) -> str | None:
    """Merge the classes of `vertices` into one, named after the last,
    once they hold `pattern`, a Z3-connected graph on 0..k-1."""
    roots = _check(state, vertices, pattern, what)
    if isinstance(roots, str):
        return roots
    functools.reduce(state.merge, roots)
    return None


@dataclasses.dataclass(frozen=True)
class ReplayResult:
    ok: bool
    failed_step: int | None = None
    message: str | None = None


def replay(G: Multigraph, cert: Certificate) -> ReplayResult:
    """Validate a certificate against a graph, step by step."""
    return _replay(_State(G), cert)


def _replay(state: _State, cert: Certificate) -> ReplayResult:
    """`replay` from a state that no step has touched yet."""
    if not cert.steps:
        return ReplayResult(False, None, "empty certificate")
    for i, step in enumerate(cert.steps):
        if step.kind in ("triangular", "done") and i != len(cert.steps) - 1:
            return ReplayResult(False, i, "terminal step before end")
        err = _apply_step(state, step)
        if err:
            return ReplayResult(False, i, err)
    last = cert.steps[-1]
    if last.kind not in ("triangular", "done"):
        return ReplayResult(False, len(cert.steps) - 1,
                            "certificate must end with 'done' or 'triangular'")
    return ReplayResult(True)


def _plan(G: Multigraph) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """How `_embed` places the simple connected pattern G: one (vertex,
    degree, anchors) entry per position, the anchors being the positions of
    the vertex's neighbours placed before it.  The widest vertex comes
    first, then always the vertex with most neighbours already placed (the
    wider, then the smaller, on a tie), so W_k comes out as 0, 1, ..., k."""
    badj = G.neighbor_sets()
    order = [max(range(G.n), key=lambda v: len(badj[v]))]
    while len(order) < G.n:
        placed = set(order)
        order.append(max((v for v in range(G.n) if v not in placed),
                         key=lambda v: (len(badj[v] & placed), len(badj[v]), -v)))
    return tuple((v, len(badj[v]),
                  tuple(j for j, x in enumerate(order[:i]) if x in badj[v]))
                 for i, v in enumerate(order))


def _embed(plan, qadj: list[set[int]], first: int | None = None) -> list[int] | None:
    """A subgraph embedding (extra edges allowed) of the pattern `plan`
    describes into the class graph Q, given as each Q-vertex's set of
    neighbours: pattern vertex -> Q-vertex, or None.

    Deterministic backtracking: pattern vertices in plan order, each tried
    on the unused Q-vertices, ascending, that are adjacent to the images of
    its anchors and have at least its degree; the first pattern vertex on
    every Q-vertex, or on `first` alone when given.
    """
    got: list[int] = []           # the images of the positions placed
    used: set[int] = set()
    tries = [iter(range(len(qadj)) if first is None else (first,))]
    while True:
        i = len(got)
        for q in tries[i]:
            if len(qadj[q]) >= plan[i][1]:
                break
        else:
            tries.pop()
            if not got:
                return None
            used.remove(got.pop())
            continue
        got.append(q)
        used.add(q)
        if len(got) == len(plan):
            mapping = [0] * len(plan)
            for (v, _, _), q in zip(plan, got):
                mapping[v] = q
            return mapping
        anchors = plan[i + 1][2]
        tries.append(iter(sorted(qadj[got[anchors[0]]].intersection(
            *(qadj[got[j]] for j in anchors[1:])) - used)))


WHEEL_MAX_RIM = 8
# The even wheels the search contracts, as (rim length, plan), short to long.
_WHEELS = tuple((k, _plan(wheel(k))) for k in range(4, WHEEL_MAX_RIM + 1, 2))


def find_even_wheel(G: Multigraph) -> tuple[int, tuple[int, ...]] | None:
    """Find a wheel subgraph with an even rim of length 4..WHEEL_MAX_RIM.

    Returns (hub, rim cycle) for the first wheel found scanning hubs in
    ascending order and rim lengths from short to long, or None.  The rim
    is a cycle through distinct neighbors of the hub; spoke and rim edges
    must all be present (the wheel need not be induced).  Of the rims at
    the first hub and length, it is the lexicographically least.
    """
    return find_even_wheel_in(G.neighbor_sets())


def find_even_wheel_in(nbrs: list[set[int]]) -> tuple[int, tuple[int, ...]] | None:
    """`find_even_wheel` on a graph given as each vertex's set of distinct
    neighbors: `_embed` of each wheel with its hub pinned."""
    for hub, nb in enumerate(nbrs):
        for k, plan in _WHEELS:
            if len(nb) < k:
                break
            mapping = _embed(plan, nbrs, hub)
            if mapping is not None:
                return hub, tuple(mapping[1:])
    return None


# The catalog bases the search embeds, name -> plan, in catalog order.  It
# leaves out those that hold an even wheel (k5 and k5minus): wherever one
# embeds, the wheel rule fits first.  Replay accepts every certifiable base.
_BASES = {name: _plan(base_graph(name)) for name in CERTIFIABLE_BASES
          if find_even_wheel(base_graph(name)) is None}


@functools.cache
def _bases_that_fit(k: int, widest: int) -> tuple[str, ...]:
    """The searched bases, in order, with at most k vertices and maximum
    degree at most `widest`: the only ones that can embed in a class graph
    with k classes, none of which has more than `widest` neighbours."""
    return tuple(name for name, plan in _BASES.items()
                 if len(plan) <= k and plan[0][1] <= widest)


@dataclasses.dataclass(frozen=True)
class CertifyResult:
    """`nodes` is the budget spent.  `reason` is "proved", "budget" (the
    search was cut off), "no-rule" (every branch ended with no rule that
    applies, or with no absorb that Lemma A allows), "disconnected" or
    "sparse" (m < 2n - 2, so G is not Z3-connected by Lemma A; no search
    was run for either)."""
    proved: bool
    certificate: Certificate | None
    nodes: int
    reason: str


def certify(G: Multigraph, budget: int = 20000) -> CertifyResult:
    """Search for a reduction certificate.  Sound but incomplete: each step
    of a proved result has passed replay's check once, in order, from
    `_State(G)`; an unproved result says nothing.

    Rule order per reduction state: contract a 2-cycle, contract an even
    wheel, contract an embedded catalog base, triangular-rule terminal,
    then absorption of a vertex tried with backtracking under a budget.
    The budget counts search nodes: every reduction state the search looks
    at, one per rule applied and one per absorb branch entered (a branch
    to a set of classes already searched in full is charged, not walked).

    Lemma A (proved in the `verifier` docstring: every Z3-connected
    loopless multigraph has m >= 2n - 2) prunes the search.  A graph with
    m < 2n - 2 stops at once as "sparse".  An absorb branch is entered only
    if the state it leads to keeps e >= 2k - 2 (e edges on k classes): on
    a proving path every state is Z3-connected, since the terminal is and
    each absorbed class sends >= 2 edges back, so a skipped branch holds
    no proof.  The order of the branches kept is unchanged, so a proof
    and its certificate are the ones the unpruned search finds.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not G.is_connected():
        return CertifyResult(False, None, 0, "disconnected")
    if G.m < 2 * G.n - 2:
        return CertifyResult(False, None, 0, "sparse")
    counter = [budget]
    steps, reason = _search(_State(G), counter)
    cert = None if steps is None else Certificate(tuple(steps))
    return CertifyResult(cert is not None, cert, budget - counter[0], reason)


def _search(state: _State, counter: list[int]) -> tuple[list[Step] | None, str]:
    """Depth-first search for reduction steps from `state`, spending one
    unit of `counter` per node; returns (steps, reason) as in CertifyResult.

    Each node reads the state's class map as rows in name order (`_State.rows`)
    and applies the first rule that fits (`_first_rule`).  The first state R
    where none does roots the absorb search.  Absorbing only deletes a class,
    so each state below R is the subgraph of R induced by the classes left.
    The rule searches are exhaustive, so no rule fits there either, and a node
    is fixed by the bitmask of R's classes it keeps.  R has no 2-cycle, so no
    two classes left share two edges and the last two never absorb into one:
    only R can end in `done`.  A node below ends in `triangular` or branches
    over the classes it could absorb in name order, with degrees kept
    incrementally and the path on an explicit stack, so the recursion limit
    does not bound the depth.  It branches on x only if 2 <= deg[x] <=
    slack + 2, where slack = e - 2k + 2 >= 0 by Lemma A (see `certify`):
    absorbing x lowers the slack by deg[x] - 2.  Classes are kept in one
    bitmask per degree, so a change of slack by t moves t degrees' classes
    in or out of the branch set, and a skipped branch is neither entered
    nor charged.  A failed subtree is not walked again: its node
    count is charged to the budget.  Every step it emits, a proof's absorbs and
    terminal too, passes replay's check once, in order, on `state`.
    """
    steps: list[Step] = []
    while True:
        if counter[0] <= 0:
            return None, "budget"
        counter[0] -= 1
        names, rows = state.rows()
        step = _first_rule(names, rows)
        if step is None:
            break
        steps.append(_must_apply(state, step))

    # Lemma A: a state on a proving path is Z3-connected, so it keeps
    # slack = edges - 2 * classes + 2 >= 0; absorbing x costs deg[x] - 2
    deg = [sum(row.values()) for row in rows]
    slack = sum(deg) // 2 - 2 * len(rows) + 2
    by_deg = [0] * (max(deg) + 1)  # degree -> the classes left with it
    for v, d in enumerate(deg):
        by_deg[d] |= 1 << v
    mask = (1 << len(rows)) - 1
    able = functools.reduce(int.__or__, by_deg[2:max(slack + 3, 2)], 0)

    def move(x: int, sign: int):
        """Absorb class x (sign -1) or put it back (sign +1).  With `low`
        the slack once x is absorbed, the classes of degree low + 3 ..
        low + deg[x] leave or rejoin `able`; x's neighbours are placed
        afresh as their degrees change by sign times their edges to x."""
        nonlocal mask, able, slack
        bit, d = 1 << x, deg[x]
        mask, able, by_deg[d] = mask ^ bit, able ^ bit, by_deg[d] ^ bit
        low = slack if sign > 0 else slack - d + 2
        cut = functools.reduce(int.__or__, by_deg[low + 3:low + d + 1], 0)
        if sign > 0:
            able, slack = able | cut, low + d - 2
        else:
            able, slack = able & ~cut, low
        for y, c in rows[x].items():
            if mask >> y & 1:
                b = 1 << y
                by_deg[deg[y]] ^= b
                deg[y] += sign * c
                by_deg[deg[y]] |= b
                able = able | b if 2 <= deg[y] <= slack + 2 else able & ~b

    failed: dict[int, int] = {}   # remaining classes -> nodes of its subtree
    # the nodes on the path from R: [class absorbed to get here, last class
    # tried from here, counter on entry]; mask, able, slack, deg and by_deg
    # are kept for the last node, so a node costs O(deg) of the class it
    # absorbs or puts back
    path: list[list] = []
    start, x = counter[0] + 1, None
    while True:
        path.append([x, -1, start])
        single = mask & (mask - 1) == 0
        if single or not any(by_deg[:4]) and triangularly_connected(
                {v: row for v, row in enumerate(rows) if mask >> v & 1}):
            for step in [*(absorb_step(names[node[0]]) for node in path[1:]),
                         Step("done" if single else "triangular")]:
                steps.append(_must_apply(state, step))
            return steps, "proved"
        while True:
            node = path[-1]
            x, last, start = node
            left = able >> (last + 1)
            if left:
                last += (left & -left).bit_length()
                node[1] = last
                spent = failed.get(mask ^ 1 << last)
                if spent is None:
                    break
                if counter[0] < spent:
                    counter[0] = 0
                    return None, "budget"
                counter[0] -= spent
                continue
            failed[mask] = start - counter[0]
            path.pop()
            if not path:
                return None, "no-rule"
            move(x, 1)
        if counter[0] <= 0:
            return None, "budget"
        start = counter[0]
        counter[0] -= 1
        x = last
        move(x, -1)


def _first_rule(names: list[int], rows: list[dict[int, int]]) -> Step | None:
    """The first rule that fits the class graph given as rows in name
    order: a 2-cycle, then an even wheel, then an embedded catalog base.
    Wheels and bases are both `_embed` of a pattern: W4, W6 and W8 with
    the hub pinned, hubs ascending and rims short to long
    (`find_even_wheel_in`), then the bases of `_bases_that_fit`, in
    catalog order, on every class."""
    parallel = min(((i, j) for i, row in enumerate(rows)
                    for j, c in row.items() if i < j and c >= 2), default=None)
    if parallel is not None:
        return two_cycle_step(*(names[x] for x in parallel))
    nbrs = [set(row) for row in rows]
    found = find_even_wheel_in(nbrs)
    if found is not None:
        return wheel_step(names[found[0]], (names[x] for x in found[1]))
    for name in _bases_that_fit(len(nbrs), max(map(len, nbrs))):
        mapping = _embed(_BASES[name], nbrs)
        if mapping is not None:
            return base_step(name, (names[x] for x in mapping))
    return None


def _must_apply(state: _State, step: Step) -> Step:
    if err := _apply_step(state, step):
        raise AssertionError(f"internal step rejected: {step.render()}: {err}")
    return step
