"""Independent oracles used to cross-check the package, implemented from
first principles without reusing package internals, and reference
versions of searches the package has since sped up."""
from __future__ import annotations

import copy
import itertools
import random

from z3conn.graph import Multigraph, is_triangularly_connected
from z3conn.reducer import (_BASES, Certificate, Step, _bases_that_fit,
                            _embed, _must_apply, _State, absorb_step,
                            base_step, find_even_wheel_in, two_cycle_step,
                            wheel_step)


def naive_boundaries(G: Multigraph) -> set[tuple[int, ...]]:
    """All achievable flow boundaries by brute force over 2^m assignments."""
    out = set()
    for flows in itertools.product((1, 2), repeat=G.m):
        b = [0] * G.n
        for (u, v), f in zip(G.edges, flows):
            b[u] = (b[u] + f) % 3
            b[v] = (b[v] - f) % 3
        out.add(tuple(b))
    return out


def naive_z3_connected(G: Multigraph) -> bool:
    if G.n == 1:
        return True
    reach = naive_boundaries(G)
    want = {b for b in itertools.product((0, 1, 2), repeat=G.n)
            if sum(b) % 3 == 0}
    return want <= reach


def naive_triangularly_connected(G: Multigraph) -> bool:
    """Triangular connectivity from its definition: m >= 2, no isolated
    vertex, and the graph on the edges is connected, where two edges are
    adjacent when they are parallel or two sides of a triangle."""
    if G.m < 2 or {v for e in G.edges for v in e} != set(range(G.n)):
        return False
    pairs = {frozenset(e) for e in G.edges}

    def adjacent(e, f):
        e, f = set(e), set(f)
        return e == f or (len(e & f) == 1 and frozenset(e ^ f) in pairs)

    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j in range(G.m):
            if j not in seen and adjacent(G.edges[i], G.edges[j]):
                seen.add(j)
                stack.append(j)
    return len(seen) == G.m


def erdos_gallai_reference(degrees) -> bool:
    """Graphicality via the classical inequalities (independent copy)."""
    d = sorted(degrees, reverse=True)
    n = len(d)
    if sum(d) % 2 == 1 or any(x < 0 or x > n - 1 for x in d):
        return False
    for k in range(1, n + 1):
        lhs = sum(d[:k])
        rhs = k * (k - 1) + sum(min(x, k) for x in d[k:])
        if lhs > rhs:
            return False
    return True


def brute_force_graphic(degrees) -> bool:
    """Existence of a simple realization by trying all edge subsets."""
    n = len(degrees)
    pairs = list(itertools.combinations(range(n), 2))
    want = sorted(degrees, reverse=True)
    for subset in itertools.product((0, 1), repeat=len(pairs)):
        deg = [0] * n
        for bit, (u, v) in zip(subset, pairs):
            if bit:
                deg[u] += 1
                deg[v] += 1
        if sorted(deg, reverse=True) == want:
            return True
    return False


def random_multigraph(rng: random.Random, n_max: int = 5,
                      m_max: int = 10) -> Multigraph:
    """Connected-ish random multigraph with parallel edges likely."""
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append((u, v))
    return Multigraph(n, tuple(edges))


def naive_even_wheel(G: Multigraph) -> tuple[int, tuple[int, ...]] | None:
    """The first even wheel by its definition: hubs ascending, rim lengths
    4, 6 and 8, and at each the lexicographically least sequence of
    distinct neighbours of the hub in which each two consecutive ones, the
    last and the first included, are adjacent."""
    nbrs = [set() for _ in range(G.n)]
    for u, v in G.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for hub in range(G.n):
        for k in (4, 6, 8):
            for rim in itertools.permutations(sorted(nbrs[hub]), k):
                if all(rim[i - 1] in nbrs[rim[i]] for i in range(k)):
                    return hub, rim
    return None


def random_simple_graph(rng: random.Random, n: int, p: float) -> Multigraph:
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Multigraph(n, tuple(edges))


def naive_runs(degrees) -> list[tuple[int, int]]:
    """(value, count) runs of a nonincreasing tuple, by a plain scan."""
    out = []
    for d in degrees:
        if out and out[-1][0] == d:
            out[-1] = (d, out[-1][1] + 1)
        else:
            out.append((d, 1))
    return out


def naive_residual(degrees) -> tuple[int, ...] | None:
    """Drop the last entry k and lower the k largest, on the whole tuple;
    None where that is undefined (k > n-1, or a degree would reach 0)."""
    k = degrees[-1]
    if k > len(degrees) - 1:
        return None
    out = [d - 1 for d in degrees[:k]] + list(degrees[k:-1])
    return None if 0 in out else tuple(sorted(out, reverse=True))


def naive_render(degrees) -> str:
    return "(" + ",".join(str(v) if c == 1 else f"{v}^{c}"
                          for v, c in naive_runs(degrees)) + ")"


def naive_shape(d) -> tuple[str, str | None, int | None]:
    """(kind, route, k) of a graphic nonincreasing tuple, read from the
    family definitions entry by entry."""
    n = len(d)
    rest_3 = all(x == 3 for x in d[1:])
    if rest_3 and d[0] == n - 3:
        return "exception_n3", None, None
    if rest_3 and d[0] == n - 1 and d[0] % 2 == 1:
        return "exception_odd_k", None, d[0]
    if (n >= 2 and d[0] == d[1] == n - 1 and d[0] % 2 == 1
            and all(x == 3 for x in d[2:])):
        return "exception_odd_k_square", None, d[0]
    if min(d) < 3:
        return "out_of_coverage", None, None
    route = {1: "T12", 2: "L41", 3: "T14"}.get(n - d[0])
    if route is None and n >= 6 and d[n - 6] >= 4:
        route = "T15"
    return ("covered", route, None) if route else ("out_of_coverage", None, None)


def quotient(state: _State) -> tuple[Multigraph, list[int], list[dict[int, int]]]:
    """A replay state's current graph on its live classes, numbered in name
    order, with `_State.rows`' names and rows."""
    names, rows = state.rows()
    return Multigraph(len(rows), tuple(
        (u, v) for u, row in enumerate(rows) for v, c in row.items()
        if u < v for _ in range(c))), names, rows


def certify_outcome(res) -> tuple:
    """A `CertifyResult` in `ordered_certify`'s form."""
    return (res.proved, res.certificate.render() if res.proved else None,
            res.nodes, res.reason)


def ordered_certify(G: Multigraph, budget: int, lemma_a: bool = True) -> tuple:
    """`certify` as a plain depth-first search over every order of absorbs,
    as (proved, rendered certificate or None, nodes, reason).

    Every node, above or below the first state without a rule, reads the
    class rows afresh and tries each rule before it branches; each absorb
    branch runs on its own copy of the state.  Reuses the package's replay
    state and rule finders, so it pins only the search order and the
    budget accounting.

    With `lemma_a` (as `certify` does) a graph with m < 2n - 2 stops as
    "sparse" before any node, and a node with e edges on k classes enters
    only the absorbs of classes of degree d with 2 <= d <= e - 2k + 4, so
    the state it leads to keeps e >= 2k - 2; without it, every class of
    degree >= 2 is tried.
    """
    if not G.is_connected():
        return False, None, 0, "disconnected"
    if lemma_a and G.m < 2 * G.n - 2:
        return False, None, 0, "sparse"
    counter = budget
    # open branch points: (steps from the previous one, state, classes
    # left to absorb, last one on top)
    frames = []
    steps, state = [], _State(G)
    while True:
        if counter <= 0:
            return False, None, budget - counter, "budget"
        counter -= 1
        names, rows = state.rows()
        if len(rows) == 1:
            steps.append(Step("done"))
            break
        parallel = min(((i, j) for i, row in enumerate(rows)
                        for j, c in row.items() if i < j and c >= 2), default=None)
        nbrs = [set(row) for row in rows]
        found = None if parallel is not None else find_even_wheel_in(nbrs)
        step = None
        if parallel is not None:
            step = two_cycle_step(names[parallel[0]], names[parallel[1]])
        elif found is not None:
            step = wheel_step(names[found[0]], tuple(names[x] for x in found[1]))
        else:
            for name in _bases_that_fit(len(nbrs), max(map(len, nbrs))):
                mapping = _embed(_BASES[name], nbrs)
                if mapping is not None:
                    step = base_step(name, tuple(names[x] for x in mapping))
                    break
        if step is not None:
            _must_apply(state, step)
            steps.append(step)
            continue
        degrees = [sum(row.values()) for row in rows]
        if min(degrees) >= 4 and is_triangularly_connected(quotient(state)[0]):
            steps.append(Step("triangular"))
            break
        most = sum(degrees) // 2 - 2 * len(rows) + 4 if lemma_a else sum(degrees)
        frames.append((steps, state,
                       [names[v] for v, d in enumerate(degrees) if 2 <= d <= most][::-1]))
        while frames and not frames[-1][2]:
            frames.pop()
        if not frames:
            return False, None, budget - counter, "no-rule"
        _, at, left = frames[-1]
        v = left.pop()
        state = copy.copy(at)
        state.parent, state.label = list(at.parent), list(at.label)
        state.adj = {r: dict(row) for r, row in at.adj.items()}
        state.delete_class(state.find(v))
        steps = [absorb_step(v)]
    cert = Certificate(tuple(s for prefix, _, _ in frames for s in prefix) + tuple(steps))
    return True, cert.render(), budget - counter, "proved"
