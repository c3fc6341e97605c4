"""Independent oracles used to cross-check the package, implemented from
first principles without reusing package internals."""
from __future__ import annotations

import itertools
import random

from z3conn.graph import Multigraph


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


def random_simple_graph(rng: random.Random, n: int, p: float) -> Multigraph:
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Multigraph(n, tuple(edges))


def random_cubic_graph(rng: random.Random, n: int) -> Multigraph:
    """Uniform random simple 3-regular graph on n (even) vertices, by
    pairing 3n half-edges and retrying until the pairing is simple."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        edges = [(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])]
        if all(a != b for a, b in edges) and len(set(edges)) == len(edges):
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
