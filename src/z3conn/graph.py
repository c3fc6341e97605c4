"""Undirected multigraphs on vertices 0..n-1, the triangular-connectivity
check the reduction certifier runs, and edge-list / DOT serialization.
The reduction rules themselves, lifting and contraction, and the search
for the pieces they contract, act on the certifier's class map
(`reducer._State`), not on this type, and the triangular check runs on
that map's rows.

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

    def degrees(self) -> list[int]:
        return count_degrees(self.n, self.edges)

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence.of(self.degrees())

    def adjacency(self) -> dict[int, dict[int, int]]:
        """Each vertex's {neighbour: number of edges} dict."""
        adj: dict[int, dict[int, int]] = {v: {} for v in range(self.n)}
        for u, v in self.edges:
            row = adj[u]
            row[v] = adj[v][u] = row.get(v, 0) + 1
        return adj

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


def is_triangularly_connected(G: Multigraph) -> bool:
    """`triangularly_connected` on G's adjacency."""
    return triangularly_connected(G.adjacency())


def triangularly_connected(rows: dict[int, dict[int, int]]) -> bool:
    """Whether the graph on `rows`' keys, each mapped to a {neighbour:
    multiplicity} dict whose non-key neighbours are ignored, has at least 2
    edges, no isolated vertex, and every two edges linked by a chain of
    cycles of length at most 3 (parallel-edge 2-cycles count).

    The union-find has a node per adjacent pair, whose edges are one 2-cycle
    or one edge, and a triangle uvw joins pair uv to pair uw.  One class
    left means every edge lies on such a cycle and the graph is connected."""
    pair: dict[tuple[int, int], int] = {}
    for u, row in rows.items():
        kept = row.keys() & rows.keys()
        if not kept:
            return False
        for v in kept:
            if u < v:
                pair[u, v] = len(pair)
    if len(pair) < 2 and sum(rows[u][v] for u, v in pair) < 2:
        return False
    parent = list(range(len(pair)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), i in pair.items():
        # each side uv of a triangle uvw joins side uw: that links all three
        for w in rows[u].keys() & rows[v].keys() & rows.keys():
            parent[find(pair[min(u, w), max(u, w)])] = find(i)
    return len({find(i) for i in range(len(pair))}) == 1


def parse_edgelist(text: str) -> Multigraph:
    """Parse "n m" header followed by m "tail head" lines.

    Blank lines and '#' lines are ignored, and a "# certificate:" line ends
    the graph, so `realize` output, with --certify too, reads back directly.
    """
    lines = [ln for ln in itertools.takewhile(
        lambda ln: ln != "# certificate:", map(str.strip, text.splitlines()))
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
