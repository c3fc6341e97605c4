"""Exhaustive enumeration of simple realizations of a degree sequence, and
the one search for a Z3-connected realization among them.

Enumeration is a backtracking search assigning, for each vertex in turn,
its set of higher-indexed neighbors, pruning branches whose remaining
degree demand is not graphic.  `all_realizations` yields every labeled
simple realization exactly once.  The vertex count is capped because the
space is enormous.

Two unassigned vertices are twins when they have the same degree and the
same neighbours among the vertices already assigned; since degrees are
nonincreasing, twins form intervals.  Swapping two twins is an automorphism
of the partial graph, so the twin-pruned search (`_realizations(seq,
twins=True)`) lets each vertex choose only a prefix of every interval.
Swapping a chosen twin for an unchosen earlier one gives a smaller
combination, so in any set of realizations closed under swapping vertices
of equal degree the first graph in labeled order is never pruned.
`first_z3_connected` (serving `verify_exception` and `realize`'s fallback,
since relabeling keeps Z3-connectivity) and `dedup=True` therefore return
exactly what a scan of every labeled graph would, from far fewer
candidates.  Only `dedup=True` (the first graph per isomorphism class, by
Weisfeiler-Lehman hash and an exact isomorphism test) imports networkx.
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

    With dedup=True, one representative per isomorphism class is kept, the
    first of its class in labeled order.  `limit` bounds the number of
    graphs yielded; it must not be negative.
    """
    graphs = _realizations(seq, twins=dedup)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if dedup:
        seen: dict[str, list] = {}
        graphs = (G for G in graphs if _is_new(G, seen))
    return itertools.islice(graphs, limit)


def _realizations(seq: DegreeSequence, twins: bool) -> Iterator[Multigraph]:
    """The labeled realizations in order; with twins=True, only those the
    twin rule keeps (see the module docstring)."""
    n = seq.n
    if n > ENUMERATE_N_MAX:
        raise EnumerationCapError(f"enumeration limited to n<={ENUMERATE_N_MAX}, got {n}")
    if not is_graphic(seq):
        return iter(())
    d = seq.degrees
    twin = [twins and 0 < u and d[u] == d[u - 1] for u in range(n)]
    return (Multigraph(n, tuple(edges))
            for edges in _assign(list(d), 0, [], twin))


def _assign(deg: list[int], v: int, edges: list, twin: list[bool]
            ) -> Iterator[list]:
    # twin[u] (read while u - 1 > v): u and u - 1 are twins.  v may choose
    # u only together with its twin u - 1: combinations come in
    # lexicographic order, so the choice with u - 1 in place of u came
    # first, and its subtree holds the same graphs with u and u - 1
    # swapped.  After a choice, each interval of twins splits after its
    # chosen prefix; the split is undone on backtrack.
    n = len(deg)
    if v == n:
        yield edges
        return
    r = deg[v]
    if r == 0:
        yield from _assign(deg, v + 1, edges, twin)
        return
    candidates = [u for u in range(v + 1, n) if deg[u] > 0]
    pruned = any(twin[v + 2:])  # always False on the unpruned stream
    for combo in itertools.combinations(candidates, r):
        if pruned and any(twin[u] and u - 1 != p
                          for p, u in zip((v,) + combo, combo)):
            continue
        deg[v] = 0
        for u in combo:
            deg[u] -= 1
        if is_graphic(sorted(deg[v + 1:], reverse=True)):
            split = [u + 1 for u, w in zip(combo, combo[1:] + (n,))
                     if w != u + 1 and twin[u + 1]] if pruned else []
            for u in split:
                twin[u] = False
            yield from _assign(deg, v + 1, edges + [(v, u) for u in combo],
                               twin)
            for u in split:
                twin[u] = True
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
    """The first Z3-connected labeled realization (None if the first `limit`
    candidates, by default all, hold none) and the number of candidates
    tried: realizations up to swapping twin vertices."""
    tried = 0
    graphs = itertools.islice(_realizations(seq, twins=True), limit)
    for tried, G in enumerate(graphs, start=1):
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
