"""Fixed small Z3-connected base graphs and wheels.

The seven "fig" graphs are the hand-built realizations the constructions
bottom out in; each is Z3-connected (locked in by the oracle test suite)
and realizes the degree sequence noted next to it.  Vertex 0 plays the
role of the highest-degree vertex in each.
"""
from __future__ import annotations

import functools
import itertools

from .graph import Multigraph

# Bases usable as contraction targets in certificates (all Z3-connected),
# in the order the certify search tries them.  Edge lists are canonical:
# sorted pairs, ascending.
_BASE_EDGES: dict[str, tuple[tuple[int, int], ...]] = {
    "k5": tuple(itertools.combinations(range(5), 2)),
    "k5minus": tuple(itertools.combinations(range(5), 2))[:-1],
    # (4^2,3^4), degree-4 vertices 0 and 1
    "fig1a": ((0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4),
              (1, 5), (2, 3), (2, 4), (3, 5)),
    # (5,4,3^5), degree-5 vertex 0, degree-4 vertex 1
    "fig1b": ((0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2),
              (1, 5), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6)),
    # (6,4,3^6), degree-6 vertex 0, degree-4 vertex 1
    "fig1c": ((0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
              (1, 2), (1, 4), (1, 5), (1, 7), (2, 3), (3, 4),
              (5, 6), (6, 7)),
    # (5^2,3^6), degree-5 vertices 0 and 1
    "fig1d": ((0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (1, 2),
              (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (3, 4),
              (5, 6), (6, 7)),
    # (4^3,3^4), degree-4 vertices 0, 1, 2
    "fig2a": ((0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
              (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4)),
    # (5,4^2,3^5), degree-5 vertex 0, degree-4 vertices 1, 2
    "fig2b": ((0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (1, 2),
              (1, 3), (1, 6), (2, 3), (2, 4), (3, 4), (4, 5),
              (5, 7), (6, 7)),
    # (4^4,3^4), degree-4 vertices 0..3
    "fig2c": ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3),
              (1, 6), (1, 7), (2, 3), (2, 6), (3, 7), (4, 5),
              (4, 6), (5, 7)),
    "k44": tuple((i, 4 + j) for i in range(4) for j in range(4)),
}

CERTIFIABLE_BASES = tuple(_BASE_EDGES)


@functools.cache
def base_graph(name: str) -> Multigraph:
    """The named base graph, built once (Multigraph is immutable)."""
    try:
        edges = _BASE_EDGES[name]
    except KeyError:
        raise KeyError(f"unknown base graph {name!r}") from None
    n = max(max(e) for e in edges) + 1
    return Multigraph(n, edges)


def wheel_edges(k: int):
    """W_k's edges in order: the spokes 0-1..0-k, then the rim 1-2..(k-1)-k
    and 1-k.  Lazy, so replay checks a rim of 10^6 without keeping it."""
    for i in range(1, k + 1):
        yield 0, i
    for i in range(1, k):
        yield i, i + 1
    yield 1, k


def wheel(k: int) -> Multigraph:
    """Wheel W_k: hub 0 joined to a k-cycle on 1..k.  Z3-connected iff k is
    even (and k >= 4); odd wheels and W_2 are not bases."""
    if k < 3:
        raise ValueError("wheel needs rim length >= 3")
    return Multigraph(k + 1, tuple(wheel_edges(k)))
