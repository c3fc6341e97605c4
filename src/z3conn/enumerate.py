"""Exhaustive enumeration of simple realizations of a degree sequence, and
the one search for a Z3-connected realization among them.

Enumeration is a backtracking search assigning, for each vertex in turn,
its set of higher-indexed neighbors, pruning branches whose remaining
degree demand is not graphic.  Every labeled simple realization appears
exactly once.  The vertex count is capped because the space is enormous.

`first_z3_connected` serves `verify_exception` and `realize`'s fallback on
labeled graphs, since relabeling keeps Z3-connectivity.  Only `dedup=True`
(the first graph per isomorphism class, by Weisfeiler-Lehman hash and an
exact isomorphism test) imports networkx.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from .graph import Multigraph
from .seqcore import EXCEPTION_KINDS, DegreeSequence, classify, is_graphic
from .verifier import is_z3_connected

ENUMERATE_N_MAX = 12


class EnumerationCapError(ValueError):
    """Sequence too large for exhaustive enumeration."""


def all_realizations(seq: DegreeSequence, limit: int | None = None,
                     dedup: bool = False) -> Iterator[Multigraph]:
    """All labeled simple graphs with exactly these degrees, streamed.

    With dedup=True, one representative per isomorphism class is kept.
    `limit` bounds the number of graphs yielded; it must not be negative.
    """
    n = seq.n
    if n > ENUMERATE_N_MAX:
        raise EnumerationCapError(f"enumeration limited to n<={ENUMERATE_N_MAX}, got {n}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if not is_graphic(seq):
        return iter(())
    graphs = (Multigraph(n, tuple(edges))
              for edges in _assign(list(seq.degrees), 0, []))
    if dedup:
        seen: dict[str, list] = {}
        graphs = (G for G in graphs if _is_new(G, seen))
    return itertools.islice(graphs, limit)


def _assign(deg: list[int], v: int, edges: list) -> Iterator[list]:
    n = len(deg)
    if v == n:
        yield edges
        return
    r = deg[v]
    if r == 0:
        yield from _assign(deg, v + 1, edges)
        return
    candidates = [u for u in range(v + 1, n) if deg[u] > 0]
    if len(candidates) < r:
        return
    for combo in itertools.combinations(candidates, r):
        deg[v] = 0
        for u in combo:
            deg[u] -= 1
        if is_graphic(sorted(deg[v + 1:], reverse=True)):
            yield from _assign(deg, v + 1, edges + [(v, u) for u in combo])
        for u in combo:
            deg[u] += 1
        deg[v] = r


def _is_new(G: Multigraph, seen: dict[str, list]) -> bool:
    """Whether G is isomorphic to no graph in `seen`; if so, record it."""
    import networkx as nx  # only deduplication needs it
    H = nx.Graph()
    # explicit degree labels: without any label networkx warns on every
    # process's first hash that its unlabeled hashes changed in v3.5
    H.add_nodes_from((v, {"deg": d}) for v, d in enumerate(G.degrees()))
    H.add_edges_from(G.edges)
    wl = nx.weisfeiler_lehman_graph_hash(H, node_attr="deg")
    bucket = seen.setdefault(wl, [])
    for other in bucket:
        if nx.is_isomorphic(H, other):
            return False
    bucket.append(H)
    return True


def count_isomorphism_classes(seq: DegreeSequence) -> int:
    return sum(1 for _ in all_realizations(seq, dedup=True))


def first_z3_connected(seq: DegreeSequence, limit: int | None = None
                       ) -> tuple[Multigraph | None, int]:
    """The first Z3-connected labeled realization (None if the first `limit`,
    by default all, hold none) and the number of realizations tried."""
    tried = 0
    for tried, G in enumerate(all_realizations(seq, limit=limit), start=1):
        if is_z3_connected(G):
            return G, tried
    return None, tried


def verify_exception(seq: DegreeSequence) -> bool:
    """Confirm by exhaustion that no realization is Z3-connected.

    Only meaningful for sequences classified into an exception family;
    anything else raises.
    """
    c = classify(seq)
    if c.kind not in EXCEPTION_KINDS:
        raise ValueError(f"{seq.render()} is not in an exception family")
    return first_z3_connected(seq)[0] is None
