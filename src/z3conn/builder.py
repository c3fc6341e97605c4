"""Constructions realizing covered degree sequences as Z3-connected graphs.

Each covered sequence is built by one of four routes keyed on d1:
  T12 (d1 = n-1): a residual step when d3 >= 4; otherwise vertex 0
    joined to a flower of cycles (the wheel W_{n-1} among them), a theta
    graph, a second dominating vertex, or K5.
  L41 (d1 = n-2): a residual step when d3 >= 4; otherwise the
    (n-2,4,3^(n-2)) family, with d2 >= 6 by inverse lifts onto its 4-vertex.
  T14 (d1 = n-3): a residual step, or wheel-based gadgets for the
    (n-3,5,3^(n-2)) shape, with d2 >= 7 by inverse lifts onto its 5-vertex,
    and the (n-3,4^2,3^(n-3)) shape.
  T15 (d1 <= n-4): a residual step; the (4^(n-4),3^4) family, glued
    from halves with each piece written once, at its offset; and
    (d1,4^(n-6),3^5), by inverse lifts from d1 = 5.  (d1,4^(n-5),3^4)
    with even d1 >= 6 takes one residual step onto (d1-1,4^(n-7),3^5).
  An inverse lift pulls disjoint far edges onto one vertex, picked by a
  scan in edge order plus augmenting paths.

A residual step deletes the smallest degree (see seqcore.residual).  The
builder loops: it peels residual steps until some route builds the rest
in closed form, then re-attaches the peeled vertices in reverse order.
The loop holds the sequence as (value, count) runs, so a step costs
O(runs touched), and re-attachment pops anchors from per-degree min-heaps
of labels; graphicality is checked once, since by Kleitman-Wang (1973) a
residual step keeps a graphic sequence graphic.

Constructions return an edge list with its reduction certificate: lift
and contraction steps that collapse the graph to one vertex.  Steps of
separately built pieces compose (merging never deletes vertices, so edges
added between pieces survive until their turn), and each re-attached
vertex adds one 2-cycle contraction.  `realize` validates the one graph on
its replay state's class map and replays the certificate on that state;
only the out-of-coverage fallback search uses the certifier or the oracle.
"""
from __future__ import annotations

import dataclasses
import functools
import heapq

from .catalog import base_graph, wheel_edges
from .enumerate import EnumerationCapError, first_z3_connected
from .graph import Multigraph, count_degrees
from .reducer import (Certificate, Step, _replay, _State, base_step, certify,
                      lift_step, two_cycle_step, wheel_step)
from .seqcore import (EXCEPTION_KINDS, Classification, DegreeSequence, Kind,
                      Route, classify, classify_shape, render_runs,
                      residual_runs, run_entry)

FALLBACK_LIMIT = 10 ** 6


class ConstructionError(RuntimeError):
    """A construction produced something other than what it promised."""


@dataclasses.dataclass
class _Pack:
    """Edge list, reduction steps (lift/contract only, ending with every
    vertex in one class) and trace lines; `realize` builds the graph."""

    edges: list[tuple[int, int]]
    steps: list[Step]
    trace: list[str]


@dataclasses.dataclass(frozen=True)
class RealizationResult:
    sequence: DegreeSequence
    classification: Classification
    status: str  # "realized" | "exception" | "not_graphic" | "unsupported"
    graph: Multigraph | None = None
    certificate: Certificate | None = None
    proof: str | None = None  # "certificate" | "oracle"
    trace: tuple[str, ...] = ()


def realize(seq: DegreeSequence) -> RealizationResult:
    """Realize a degree sequence as a Z3-connected simple graph.

    Covered sequences always succeed with a certificate that replays (a
    failure is a bug and raises).  Out-of-coverage sequences with n <=
    ENUMERATE_N_MAX get `first_z3_connected` over at most FALLBACK_LIMIT
    realizations up to swapping twin vertices (it returns the first
    Z3-connected labeled realization).  When it finds none the status is
    "unsupported", never a wrong negative, and the trace says whether every
    candidate was checked or the limit stopped the search.
    """
    c = classify(seq)
    if c.kind == Kind.NOT_GRAPHIC:
        return RealizationResult(seq, c, "not_graphic",
                                 trace=("sequence is not graphic",))
    if c.kind in EXCEPTION_KINDS:
        return RealizationResult(
            seq, c, "exception",
            trace=(f"no Z3-connected realization exists ({c.kind.value})",))
    if c.kind == Kind.COVERED:
        pack = _build(seq, c.route)
        G = Multigraph(seq.n, tuple(pack.edges))
        state = _State(G)
        _validate(seq, G, state)
        cert = Certificate(tuple(pack.steps) + (Step("done"),))
        rr = _replay(state, cert)
        if not rr.ok:
            raise ConstructionError(
                f"built certificate failed replay at step {rr.failed_step}: "
                f"{rr.message}")
        return RealizationResult(seq, c, "realized", G, cert,
                                 "certificate", tuple(pack.trace))
    # the first labeled realization the oracle accepts is realized; that
    # oracle check is its proof unless certify finds a certificate as well
    try:
        G, tried = first_z3_connected(seq, limit=FALLBACK_LIMIT)
    except EnumerationCapError:
        return RealizationResult(seq, c, "unsupported", trace=(
            "out of coverage and beyond fallback search size",))
    if G is None:
        why = (f"checked all {tried}" if tried < FALLBACK_LIMIT
               else f"stopped at its limit of {FALLBACK_LIMIT}")
        return RealizationResult(seq, c, "unsupported", trace=(
            f"out of coverage; fallback search {why} realizations up to "
            "swapping twin vertices, none Z3-connected",))
    found = certify(G)
    return RealizationResult(
        seq, c, "realized", G, found.certificate,
        "certificate" if found.proved else "oracle",
        (f"out-of-coverage fallback search: candidate {tried} verified",))


def _validate(seq: DegreeSequence, G: Multigraph, state: _State):
    """Check G against seq on its replay state before any step: each row
    holds one vertex's distinct neighbours, so G (loop-free) is simple when
    the rows hold 2m entries, and then a row's length is its degree."""
    rows = state.adj.values()
    if sum(map(len, rows)) != 2 * G.m:
        raise ConstructionError(f"construction for {seq.render()} not simple")
    if tuple(sorted(map(len, rows), reverse=True)) != seq.degrees:
        raise ConstructionError(
            f"construction degrees {G.degree_sequence().render()} "
            f"!= {seq.render()}")


def _build(seq: DegreeSequence, route: Route) -> _Pack:
    """Build a covered sequence on the given route.

    Route builders read the runs and return None where they take a
    residual step, which renders its trace line from the runs and skips
    the graphicality check (Kleitman-Wang).  The peeled vertices then go
    back in reverse, each joined to the lowest-labeled vertices, popped
    from the degree heaps, whose degrees the residual decremented.
    """
    runs, n = seq.runs(), seq.n
    peeled: list[list[tuple[int, int]]] = []  # per step, the anchors' degrees
    trace: list[str] = []
    while (pack := _ROUTES[route](runs, n)) is None:
        k = runs[-1][0]
        peeled.append(residual_runs(runs))
        n -= 1
        trace.append(f"{_RESIDUAL_NOTES[route]}: attach degree-{k} vertex "
                     f"to realization of {render_runs(runs)}")
        c = classify_shape(runs, n)
        if c.kind != Kind.COVERED:
            raise ConstructionError(
                f"residual steps left the covered families at "
                f"{render_runs(runs)} ({c.kind.value})")
        route = c.route
    heaps: dict[int, list[int]] = {}  # labels by degree, min-heaps
    for v, d in enumerate(count_degrees(n, pack.edges)):
        heaps.setdefault(d, []).append(v)
    for v, lowered in enumerate(reversed(peeled), n):
        anchors = []  # lowered values are distinct: no push feeds a later pop
        for d, t in lowered:
            heap, up = heaps.get(d, ()), heaps.setdefault(d + 1, [])
            if len(heap) < t:
                raise ConstructionError(f"no spare vertex of degree {d}")
            got = [heapq.heappop(heap) for _ in range(t)]
            for a in got:
                heapq.heappush(up, a)
            anchors += got
        heapq.heappush(heaps.setdefault(len(anchors), []), v)
        pack.edges += zip(anchors, [v] * len(anchors))
        pack.steps.append(two_cycle_step(anchors[0], v))
    return _Pack(pack.edges, pack.steps, trace + pack.trace)


# ---------------------------------------------------------------- helpers

def _matching(vertices: list[int]) -> list[tuple[int, int]]:
    if len(vertices) % 2:
        raise ConstructionError("matching needs an even vertex set")
    return [(vertices[i], vertices[i + 1]) for i in range(0, len(vertices), 2)]


def _base_pack(name: str, note: str) -> _Pack:
    G = base_graph(name)  # cached: copy its edges, as _build appends to them
    return _Pack(list(G.edges), [base_step(name, tuple(range(G.n)))], [note])


# ----------------------------------------------------------- route: T12

def _build_t12(runs: list[tuple[int, int]], n: int) -> _Pack | None:
    """Vertex 0 joined to a graph H on 1..n-1.  A residual step keeps
    d1 = n'-1 and every degree >= 3, so it stays on T12 unless d3 = 3 or
    the residual is an exception family; those shapes are built here."""
    if runs == [(4, 5)]:
        return _base_pack("k5", "K5 realizes (4^5)")
    d2, d3 = run_entry(runs, 1), run_entry(runs, 2)
    if d3 == 3:
        return _t12_flower(n, d2)
    if n % 2 == 0 or d3 != 4 or run_entry(runs, 3) != 3:
        return None
    if d2 == 4:  # (n-1,4^2,3^(n-3)): paths 1-3-2, 1-4-2 and 1-5-...-(n-1)-2
        path = [1, *range(5, n), 2]
        h = [(1, 3), (2, 3), (1, 4), (2, 4)] + list(zip(path, path[1:]))
        return _join_pack(n, h, (1, 3, 2, 4),
                          "dominating vertex joined to a theta graph")
    if d2 == n - 1:  # (n-1,n-1,4,3^(n-3))
        h = [(1, v) for v in range(2, n)] + [(2, 3), (2, 4)]
        h += _matching(list(range(5, n)))
        return _join_pack(n, h, (1, 3, 2, 4),
                          "two dominating vertices plus a matching")
    return None


def _t12_flower(n: int, d2: int) -> _Pack:
    """(n-1, d2, 3^(n-2)) with odd d2: H is a flower of (d2-1)/2 cycles
    through hub 1.  Each petal has two inner vertices plus a share of the
    n-1-d2 spare ones, arranged so that petal 1 is an even cycle; at
    d2 = 3 this is the wheel W_{n-1}."""
    sizes = [2] * ((d2 - 1) // 2)
    extra = n - 1 - d2
    if extra % 2:
        sizes[0] += extra
    else:
        sizes[0] += 1
        sizes[-1] += extra - 1
    h, first = [], 2
    for size in sizes:
        petal = [1, *range(first, first + size), 1]
        h += list(zip(petal, petal[1:]))
        first += size
    return _join_pack(n, h, tuple(range(1, sizes[0] + 2)),
                      f"dominating vertex joined to a {len(sizes)}-petal flower")


def _join_pack(n: int, h: list[tuple[int, int]], rim: tuple[int, ...],
               note: str) -> _Pack:
    """Vertex 0 joined to every vertex of the graph with edges h on
    1..n-1.  The certificate contracts the even wheel of 0 and rim, then
    each later vertex v in label order by a 2-cycle: its edge to 0 and an
    H-edge into the merged class.  Callers keep, and replay checks, that
    the rim is 1..len(rim) and every later vertex has an H-neighbour with
    a smaller label: the hub or the vertex before it on a petal, vertex 1
    or the vertex before it on a theta or matching."""
    steps = [wheel_step(0, rim)]
    steps += [two_cycle_step(0, v) for v in range(len(rim) + 1, n)]
    return _Pack([(0, v) for v in range(1, n)] + h, steps, [note])


# ----------------------------------------------------------- route: L41

def _build_l41(runs: list[tuple[int, int]], n: int) -> _Pack | None:
    if run_entry(runs, 2) >= 4:
        return None
    d2 = run_entry(runs, 1)
    if d2 == 4:
        return _l31_i(n)
    # (n-2, d2, 3^(n-2)) with even d2 >= 6: lifts onto _l31_i's 4-vertex
    return _inverse_lift(_l31_i(n), 1 if n % 2 == 0 else n - 3, (d2 - 4) // 2)


def _l31_i(n: int) -> _Pack:
    """(n-2, 4, 3^(n-2)), n >= 6; its 4-vertex is 1, or n-3 for odd n > 7."""
    if n == 6:
        return _base_pack("fig1a", "fixed realization of (4^2,3^4)")
    if n == 7:
        return _base_pack("fig1b", "fixed realization of (5,4,3^5)")
    if n == 8:
        return _base_pack("fig1c", "fixed realization of (6,4,3^6)")
    if n % 2 == 1:
        rim = n - 5
        u1, u2, u3, u4 = n - 4, n - 3, n - 2, n - 1
        edges = list(wheel_edges(rim))
        edges += [(u1, u2), (u2, u3), (u3, u4), (u1, u4), (u2, u4)]
        edges += [(0, u1), (0, u2), (0, u3)]
        steps = [wheel_step(0, tuple(range(1, rim + 1))),
                 wheel_step(u2, (u1, 0, u3, u4))]
        return _Pack(edges, steps,
                     [f"wheel W{rim} joined to near-complete 4-block, odd case"])
    rim = n - 6
    edges = list(base_graph("fig1a").edges)
    spokes = [(0, 6 + i) for i in range(rim)]
    ring = [(6 + i, 6 + i + 1) for i in range(rim - 1)] + [(6, 6 + rim - 1)]
    edges += spokes + ring
    steps = [wheel_step(0, tuple(range(6, 6 + rim))),
             base_step("fig1a", tuple(range(6)))]
    return _Pack(edges, steps,
                 [f"(4^2,3^4) base sharing its 4-vertex with wheel W{rim}, "
                  "even case"])


# ----------------------------------------------------------- route: T14

def _build_t14(runs: list[tuple[int, int]], n: int) -> _Pack | None:
    if run_entry(runs, 2) == 3:
        return _t14_two_heavy(n, run_entry(runs, 1))
    if run_entry(runs, 1) == 4 and run_entry(runs, 3) == 3:
        return _t14_shape_442(n)
    return None


def _t14_two_heavy(n: int, d2: int) -> _Pack:
    """(n-3, d2, 3^(n-2)), odd d2 >= 5: two 3-fans, lifted when d2 >= 7."""
    if n == 8:  # d2 = 5
        return _base_pack("fig1d", "fixed realization of (5^2,3^6)")
    fans = _t14_fans(n, 1, "two 3-fans")
    return fans if d2 == 5 else _inverse_lift(fans, 1, (d2 - 5) // 2)


def _t14_shape_442(n: int) -> _Pack:
    """(n-3, 4^2, 3^(n-3)); includes (4^3,3^4) at n = 7."""
    if n == 7:
        return _base_pack("fig2a", "fixed realization of (4^3,3^4)")
    if n == 8:
        return _base_pack("fig2b", "fixed realization of (5,4^2,3^5)")
    return _t14_fans(n, 2, "3-fans on two rim vertices")


def _t14_fans(n: int, anchor: int, note: str) -> _Pack:
    """An even wheel with two 3-fans hung off hub 0 and rim vertex 1; the
    second fan also reaches rim vertex `anchor` (1 or 2)."""
    if n % 2 == 1:
        rim = n - 5
        s1, s2, x1, x2 = n - 4, n - 3, n - 2, n - 1
        edges = list(wheel_edges(rim))
        edges += [(0, s1), (0, s2)]
        edges += [(1, x1), (s1, x1), (s2, x1)]
        edges += [(anchor, x2), (s1, x2), (s2, x2)]
        steps = [wheel_step(0, tuple(range(1, rim + 1))),
                 wheel_step(0, (s1, x1, s2, x2))]
        return _Pack(edges, steps, [f"wheel W{rim} with {note}, odd case"])
    rim = n - 6
    s1, s2, s3, x1, x2 = n - 5, n - 4, n - 3, n - 2, n - 1
    edges = list(wheel_edges(rim))
    edges += [(0, s1), (0, s2), (0, s3), (1, s1)]
    edges += [(anchor, x1), (s2, x1), (s3, x1)]
    edges += [(s1, x2), (s2, x2), (s3, x2)]
    steps = [wheel_step(0, tuple(range(1, rim + 1))),
             two_cycle_step(0, s1),
             wheel_step(0, (s2, x1, s3, x2))]
    return _Pack(edges, steps, [f"wheel W{rim} with {note}, even case"])


# ----------------------------------------------------------- route: T15

def _build_t15(runs: list[tuple[int, int]], n: int) -> _Pack | None:
    d1 = runs[0][0]
    if runs[1:] == [(4, n - 6), (3, 5)] and d1 % 2 == 1:
        sub = _l31_iii(n)  # its vertex 0 is the 5-vertex (see _glue)
        return sub if d1 == 5 else _inverse_lift(sub, 0, (d1 - 5) // 2)
    if runs == [(4, n - 4), (3, 4)]:
        return _l31_ii(n)
    return None


def _l31_ii(n: int) -> _Pack:
    """(4^(n-4), 3^4) for n >= 5."""
    if n == 5:
        return _Pack(list(wheel_edges(4)), [wheel_step(0, (1, 2, 3, 4))],
                     ["wheel W4 realizes (4,3^4)"])
    if n == 6:
        return _base_pack("fig1a", "fixed realization of (4^2,3^4)")
    if n == 7:
        return _base_pack("fig2a", "fixed realization of (4^3,3^4)")
    if n == 8:
        return _base_pack("fig2c", "fixed realization of (4^4,3^4)")
    if n == 9:
        return _w4_block([(1, 6), (2, 8), (3, 5)],
                         "wheel W4 joined to near-complete 4-block")
    return _glue(n, False)


def _l31_iii(n: int) -> _Pack:
    """(5, 4^(n-6), 3^5) for n >= 9."""
    if n == 9:
        return _w4_block([(0, 6), (1, 5), (2, 8)],
                         "wheel W4 joined to near-complete 4-block, hub-heavy")
    return _glue(n, True)


def _glue(n: int, hub_heavy: bool) -> _Pack:
    """(4^(n-4),3^4), or (5,4^(n-6),3^5) when hub_heavy, for n >= 10.
    Halves (4^(k-4),3^4), k = n//2, are halved down to fixed pieces on
    5..9 vertices; each piece is written once, at its offset (notes in
    pre-order, edges and steps in post-order).  Two cross edges join the
    first half's two lowest 3-vertices (vertex 0 and its lowest 3-vertex
    when hub_heavy) to the second's two lowest.  Vertex 0 of a piece is
    its lowest 4-vertex, so it is the 5-vertex of (5,4^(n-6),3^5)."""
    edges, steps, trace = [], [], []

    def piece(n: int, off: int, hub_heavy: bool) -> list[int]:
        """Write the piece on off..off+n-1; return its 3-vertices."""
        if n <= 9:
            leaf_edges, leaf_steps, leaf_trace, threes = _leaf(n)
            edges.extend((u + off, v + off) for u, v in leaf_edges)
            for kind, h, vs in leaf_steps:
                steps.append(Step(kind, (h if isinstance(h, str) else h + off,
                                         tuple(v + off for v in vs))))
            trace.extend(leaf_trace)
            return [v + off for v in threes]
        k = n // 2
        trace.append(f"glue (4^{k - 4},3^4) and (4^{n - k - 4},3^4) "
                     + ("raising one 4-vertex to degree 5" if hub_heavy
                        else "on two 3-vertex pairs"))
        threes1, threes2 = piece(k, off, False), piece(n - k, off + k, False)
        tails = [off, threes1[0]] if hub_heavy else threes1[:2]
        edges.extend(zip(tails, threes2))
        steps.append(two_cycle_step(tails[0], threes2[0]))
        return threes1[1 if hub_heavy else 2:] + threes2[2:]

    piece(n, 0, hub_heavy)
    return _Pack(edges, steps, trace)


@functools.cache
def _leaf(n: int) -> tuple[tuple, tuple, tuple, tuple]:
    """_glue's piece _l31_ii(n), n = 5..9: edges, steps as (kind, wheel hub
    or base name, vertices), trace and 3-vertices."""
    p = _l31_ii(n)
    deg = count_degrees(n, p.edges)
    return (tuple(p.edges), tuple((s.kind, *s.args) for s in p.steps),
            tuple(p.trace), tuple(v for v in range(n) if deg[v] == 3))


def _w4_block(cross: list[tuple[int, int]], note: str) -> _Pack:
    """Wheel W4 on 0..4 joined by three cross edges to a near-complete
    block on 5..8."""
    edges = list(wheel_edges(4))
    edges += [(5, 6), (5, 7), (5, 8), (6, 7), (7, 8)]
    edges += cross
    steps = [wheel_step(0, (1, 2, 3, 4)), wheel_step(5, (6, 7, 8, 0))]
    return _Pack(edges, steps, [note])


def _inverse_lift(sub: _Pack, u: int, need: int) -> _Pack:
    """Pull `need` disjoint edges of `sub` away from u's closed
    neighbourhood onto u, raising its degree by 2 * need; each lift step
    undoes one before `sub`'s own steps."""
    closed = {x for e in sub.edges if u in e for x in e}
    far = [(a, b) for a, b in sub.edges if a not in closed and b not in closed]
    picked = _disjoint_edges(far, need)
    onto = f"the {len(closed) - 1}-vertex"
    if len(picked) < need:
        raise ConstructionError(
            f"{len(picked)} of {need} disjoint edges away from {onto} {u}")
    dropped = set(picked)
    edges = [e for e in sub.edges if e not in dropped]
    edges += [(u, x) for e in picked for x in e]
    steps = [lift_step(u, a, b) for a, b in picked] + sub.steps
    return _Pack(edges, steps,
                 [f"inverse lifts of {len(picked)} edges onto {onto}"]
                 + sub.trace)


def _disjoint_edges(edges: list[tuple[int, int]],
                    need: int) -> list[tuple[int, int]]:
    """Up to `need` disjoint edges of a simple graph, in edge order.

    A scan in edge order takes each edge that fits.  While that falls
    short, each phase grows the matching along augmenting paths, found by
    iterative depth-first searches from the unmatched vertices that share
    one visited set, so a phase costs O(m).  Blossoms are not shrunk, so a
    path may be missed; the search ends when a phase finds none.
    """
    mate: dict[int, int] = {}
    for a, b in edges:
        if len(mate) < 2 * need and a not in mate and b not in mate:
            mate[a], mate[b] = b, a
    adj: dict[int, list[int]] = {}
    if len(mate) < 2 * need:  # the scan fell short: augment along paths
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    size = -1
    while size < len(mate) < 2 * need:
        size, seen = len(mate), set()
        for r in [v for v in adj if v not in mate]:
            if r in seen or len(mate) == 2 * need:
                continue
            seen.add(r)
            stack = [(r, iter(adj[r]), None)]  # vertex, unread nbrs, mate
            while stack:
                y = next((y for y in stack[-1][1] if y not in seen), None)
                if y is None:
                    stack.pop()
                elif y in mate:
                    seen.update((y, mate[y]))
                    stack.append((mate[y], iter(adj[mate[y]]), y))
                else:
                    seen.add(y)
                    for x, _, via in reversed(stack):  # flip the path r..x-y
                        mate[x], mate[y] = y, x
                        y = via
                    break
    return [(a, b) for a, b in edges if mate.get(a) == b]


# Trace note for each route's residual step, keyed by the route taking it.
_RESIDUAL_NOTES = {
    Route.T12: "d1=n-1 with d3>=4",
    Route.L41: "d1=n-2 with d3>=4",
    Route.T14: "d1=n-3 with enough degree above 3",
    Route.T15: "d1<=n-4 with enough degree above 3",
}

_ROUTES = {
    Route.T12: _build_t12,
    Route.L41: _build_l41,
    Route.T14: _build_t14,
    Route.T15: _build_t15,
}
