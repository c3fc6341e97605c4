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
