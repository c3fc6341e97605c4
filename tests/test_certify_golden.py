"""Pins `certify`'s output, proved or not, on a fixed seeded corpus.

The golden file holds, per graph, a header naming the graph and then the
rendered certificate or `unknown`.  Any change to the search's rule order,
candidate order or budget accounting shows up as a byte difference.

Regenerate the golden (only when a change to the search is meant to change
its answers) with:

    PYTHONPATH=src python tests/test_certify_golden.py
"""
from __future__ import annotations

import itertools
import pathlib
import random

from z3conn.catalog import base_graph, wheel
from z3conn.graph import (Multigraph, build_graph, complete_bipartite,
                          complete_graph, cycle_graph)
from z3conn.reducer import certify

from helpers import certify_outcome, ordered_certify

GOLDEN = pathlib.Path(__file__).parent / "golden" / "certify_corpus.txt"
BUDGET = 2000


def _known_graphs() -> list[Multigraph]:
    """The graphs of test_certify_known_positives and _negatives."""
    return [wheel(4), wheel(6), complete_graph(5), base_graph("k5minus"),
            build_graph(2, [(0, 1), (0, 1)]), base_graph("fig1b"),
            base_graph("fig2c"), base_graph("k44"),
            complete_graph(4), wheel(5), complete_bipartite(3, 3),
            cycle_graph(5), complete_bipartite(2, 3),
            build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])]


def _random_multigraph(rng: random.Random) -> Multigraph:
    n = rng.randint(2, 11)
    edges = []
    for _ in range(rng.randint(n - 1, 3 * n)):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        edges.append((u, v + (v >= u)))
    return Multigraph(n, tuple(edges))


def _random_simple_graph(rng: random.Random) -> Multigraph:
    # near-simple graphs with n 6..11 are where the absorb backtracking
    # runs out of budget
    n = rng.randint(6, 11)
    p = rng.uniform(0.3, 0.6)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Multigraph(n, tuple(edges) or ((0, 1),))


def corpus() -> list[tuple[Multigraph, int]]:
    """(graph, budget) pairs: the known graphs at the default budget, then
    150 random multigraphs and 60 random simple graphs at BUDGET."""
    rng = random.Random(20261018)
    out = [(G, 20000) for G in _known_graphs()]
    out += [(_random_multigraph(rng), BUDGET) for _ in range(150)]
    out += [(_random_simple_graph(rng), BUDGET) for _ in range(60)]
    return out


def render_corpus() -> str:
    parts = []
    for i, (G, budget) in enumerate(corpus()):
        edges = " ".join(f"{u}-{v}" for u, v in G.edges)
        parts.append(f"# {i} budget={budget} n={G.n} edges={edges}\n")
        found = certify(G, budget=budget)
        parts.append(found.certificate.render() if found.proved else "unknown\n")
    return "".join(parts)


def test_certify_corpus_matches_golden():
    assert render_corpus() == GOLDEN.read_text()


def test_certify_matches_ordered_search_on_corpus():
    for i, (G, budget) in enumerate(corpus()):
        got = certify_outcome(certify(G, budget=budget))
        assert got == ordered_certify(G, budget), i


if __name__ == "__main__":
    GOLDEN.write_text(render_corpus())
