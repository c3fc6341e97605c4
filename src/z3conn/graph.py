"""Undirected multigraphs on vertices 0..n-1, the even-wheel and
triangular-connectivity checks the reduction certifier runs, and
edge-list / DOT serialization.  The reduction rules themselves, lifting
and contraction, act on the certifier's class map (`reducer._State`),
not on this type.

Edges are stored as an ordered tuple of (tail, head) pairs; the pair order
is only a reference orientation, the graph is undirected.  Parallel edges
are allowed, loops are not.
"""
from __future__ import annotations

import dataclasses
import itertools

from .seqcore import DegreeSequence


class GraphError(ValueError):
    """Invalid graph content or an operation precondition failure."""


def count_degrees(n: int, edges) -> list[int]:
    """Degrees of vertices 0..n-1 under an edge list."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


@dataclasses.dataclass(frozen=True)
class Multigraph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum((u == v) + (w == v) for u, w in self.edges)

    def degrees(self) -> list[int]:
        return count_degrees(self.n, self.edges)

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence.of(self.degrees())

    def edge_multiplicity(self, u: int, v: int) -> int:
        return sum(1 for a, b in self.edges if {a, b} == {u, v})

    def neighbors(self, v: int) -> list[int]:
        """Distinct neighbors of v, ascending."""
        return sorted(self.neighbor_sets()[v])

    def neighbor_sets(self) -> list[set[int]]:
        """Each vertex's set of distinct neighbors."""
        out = [set() for _ in range(self.n)]
        for u, v in self.edges:
            out[u].add(v)
            out[v].add(u)
        return out

    def is_simple(self) -> bool:
        return len({(min(e), max(e)) for e in self.edges}) == self.m

    def is_connected(self) -> bool:
        if self.m < self.n - 1:  # connected needs at least n-1 edges
            return False
        nbrs, seen, stack = self.neighbor_sets(), {0}, [0]
        while stack:
            for y in nbrs[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        return len(seen) == self.n


def build_graph(n: int, edges) -> Multigraph:
    return Multigraph(n, tuple((int(u), int(v)) for u, v in edges))


WHEEL_MAX_RIM = 8


def find_even_wheel(G: Multigraph) -> tuple[int, tuple[int, ...]] | None:
    """Find a wheel subgraph with an even rim of length 4..WHEEL_MAX_RIM.

    Returns (hub, rim cycle) for the first wheel found scanning hubs in
    ascending order and rim lengths from short to long, or None.  The rim
    is a cycle through distinct neighbors of the hub; spoke and rim edges
    must all be present (the wheel need not be induced).
    """
    return find_even_wheel_in(G.neighbor_sets())


def find_even_wheel_in(nbrs: list[set[int]]) -> tuple[int, tuple[int, ...]] | None:
    """`find_even_wheel` on a graph given as each vertex's set of distinct
    neighbors."""
    for hub, nb in enumerate(nbrs):
        if len(nb) < 4:
            continue
        ordered = sorted(nb)
        for length in range(4, min(WHEEL_MAX_RIM, len(nb)) + 1, 2):
            rim = _find_cycle(ordered, nbrs, length)
            if rim is not None:
                return hub, rim
    return None


def _find_cycle(vertices, adj, length) -> tuple[int, ...] | None:
    """First simple cycle of exactly `length` within `vertices`, by DFS in
    ascending label order starting from the smallest vertex on the cycle."""
    vset = set(vertices)

    def extend(path, used):
        if len(path) == length:
            return path if path[0] in adj[path[-1]] else None
        for nxt in sorted(adj[path[-1]] & vset):
            if nxt <= path[0] or nxt in used:
                continue
            got = extend(path + [nxt], used | {nxt})
            if got:
                return got
        return None

    for start in vertices:
        got = extend([start], {start})
        if got:
            return tuple(got)
    return None


def is_triangularly_connected(G: Multigraph) -> bool:
    """Whether every pair of edges is linked by a chain of cycles of length
    at most 3 (parallel-edge 2-cycles count), and G has at least 2 edges.

    Edges of one 2-cycle or triangle are put in one class.  An edge on
    neither stays alone in its class, so one class means every edge lies
    on such a cycle."""
    if G.m < 2 or not G.is_connected():
        return False
    parent = list(range(G.m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_pair: dict[tuple[int, int], list[int]] = {}
    for i, (u, v) in enumerate(G.edges):
        by_pair.setdefault((min(u, v), max(u, v)), []).append(i)
    nbrs = G.neighbor_sets()
    for (u, v), ids in by_pair.items():
        # each side uv of a triangle uvw joins side uw: that links all three
        for j in ids[1:] + [by_pair[min(u, w), max(u, w)][0]
                            for w in nbrs[u] & nbrs[v]]:
            parent[find(j)] = find(ids[0])
    root = find(0)
    return all(find(i) == root for i in range(G.m))


def parse_edgelist(text: str) -> Multigraph:
    """Parse "n m" header followed by m "tail head" lines.

    Blank lines and lines starting with '#' are ignored, so serialized
    realization output can be read back directly.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"expected 'n m' header, got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise GraphError(f"header says {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def format_edgelist(G: Multigraph) -> str:
    return "".join([f"{G.n} {G.m}\n", *(f"{u} {v}\n" for u, v in G.edges)])


def to_dot(G: Multigraph) -> str:
    return "".join(["graph G {\n", *(f"  {v};\n" for v in range(G.n)),
                    *(f"  {u} -- {v};\n" for u, v in G.edges), "}\n"])


def complete_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Multigraph:
    return Multigraph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def cycle_graph(n: int) -> Multigraph:
    if n < 2:
        raise GraphError("cycle needs at least 2 vertices")
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))
