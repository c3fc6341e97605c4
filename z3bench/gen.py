"""Seeded benchmark inputs.

Two generators, both deterministic in the `random.Random` they are given:

- covered_sequence: a degree sequence on n vertices that the public
  `classify` puts on a requested construction route, by rejection sampling
  from a route-shaped proposal;
- random_graph: a simple graph with minimum degree 3, built from a random
  degree sequence by this file's own Erdos-Gallai test, Havel-Hakimi
  construction and degree-preserving 2-switches.  It uses nothing from the
  package but the `Multigraph` container.
"""
from __future__ import annotations

import random

from z3conn import DegreeSequence, Kind, Multigraph, classify

ROUTES = ("T12", "L41", "T14", "T15")
# d1 = n - gap on the first three routes; T15 has d1 <= n - 4.
_TOP_GAP = {"T12": 1, "L41": 2, "T14": 3}
_MAX_TRIES = 10_000


def covered_sequence(route: str, n: int, rng: random.Random) -> DegreeSequence:
    """A covered sequence on n vertices that `classify` routes to `route`."""
    for _ in range(_MAX_TRIES):
        degrees = _proposal(route, n, rng)
        if sum(degrees) % 2:
            continue
        seq = DegreeSequence.of(degrees)
        c = classify(seq)
        if c.kind is Kind.COVERED and c.route.value == route:
            return seq
    raise RuntimeError(f"no covered {route} sequence found for n={n}")


def _proposal(route: str, n: int, rng: random.Random) -> list[int]:
    if route == "T15":
        # At most five degree-3 entries, so that d_{n-5} >= 4.
        top = rng.randint(4, n - 4)
        rest = [4 + _extra(rng, top - 4) for _ in range(n - 1)]
        for i in rng.sample(range(n - 1), rng.randint(0, 5)):
            rest[i] = 3
    else:
        top = n - _TOP_GAP[route]
        rest = [3 + _extra(rng, top - 3) for _ in range(n - 1)]
    return [top] + rest


def _extra(rng: random.Random, cap: int) -> int:
    """A small excess degree: geometric-like with mean about 1, capped."""
    return min(int(rng.expovariate(0.7)), cap)


def random_graph(n: int, rng: random.Random) -> Multigraph:
    """A random simple graph on n >= 4 vertices with minimum degree 3."""
    while True:
        degrees = [3 + _extra(rng, n - 4) for _ in range(n)]
        if sum(degrees) % 2 == 0 and erdos_gallai(degrees):
            break
    edges = two_switch(havel_hakimi(degrees), rng, 10 * sum(degrees) // 2)
    return Multigraph(n, tuple(edges))


def erdos_gallai(degrees: list[int]) -> bool:
    """Whether a simple graph has these degrees (any order)."""
    d = sorted(degrees, reverse=True)
    if sum(d) % 2:
        return False
    prefix = 0
    for k in range(1, len(d) + 1):
        prefix += d[k - 1]
        if prefix > k * (k - 1) + sum(min(x, k) for x in d[k:]):
            return False
    return True


def havel_hakimi(degrees: list[int]) -> list[tuple[int, int]]:
    """Edges of one simple realization of a graphic degree list: join the
    vertex of highest remaining degree to the next-highest ones."""
    left = list(degrees)
    order = list(range(len(left)))
    edges = []
    while True:
        order.sort(key=lambda v: (-left[v], v))
        v = order[0]
        need = left[v]
        if need == 0:
            return edges
        left[v] = 0
        for u in order[1:need + 1]:
            if left[u] == 0:
                raise ValueError("degree list is not graphic")
            left[u] -= 1
            edges.append((min(u, v), max(u, v)))


def two_switch(edges: list[tuple[int, int]], rng: random.Random,
               tries: int) -> list[tuple[int, int]]:
    """Randomize a simple graph by 2-switches ab, cd -> ac, bd, which keep
    every degree; a switch that would make a loop or a parallel edge is
    skipped."""
    edges = list(edges)
    present = set(edges)
    for _ in range(tries):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        e1, e2 = (min(a, c), max(a, c)), (min(b, d), max(b, d))
        if e1 in present or e2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {e1, e2}
        edges[i], edges[j] = e1, e2
    return edges
