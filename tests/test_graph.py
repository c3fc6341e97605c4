import random

import pytest
from hypothesis import given, settings, strategies as st

from z3conn.catalog import base_graph, wheel
from z3conn.graph import (GraphError, Multigraph, build_graph,
                          complete_bipartite, complete_graph, cycle_graph,
                          format_edgelist, is_triangularly_connected,
                          parse_edgelist, to_dot, triangularly_connected)
from z3conn.reducer import WHEEL_MAX_RIM, find_even_wheel

from helpers import naive_triangularly_connected, random_multigraph


def test_build_and_accessors():
    G = build_graph(4, [(0, 1), (0, 1), (2, 3)])
    assert G.n == 4 and G.m == 3
    assert G.degrees()[0] == 2 and G.degrees()[2] == 1
    assert G.adjacency()[0][1] == 2
    assert G.adjacency()[1][0] == 2
    assert G.neighbor_sets()[0] == {1}
    assert not G.is_simple()
    assert G.degree_sequence().degrees == (2, 2, 1, 1)


def test_build_rejects_loops_and_range():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        Multigraph(0, ())


def test_connectivity():
    assert complete_graph(4).is_connected()
    assert not build_graph(3, [(0, 1)]).is_connected()
    assert build_graph(1, []).is_connected()


def test_find_even_wheel_in_wheels():
    assert find_even_wheel(wheel(4)) == (0, (1, 2, 3, 4))
    hub, rim = find_even_wheel(wheel(6))
    assert hub == 0 and len(rim) == 6
    assert find_even_wheel(wheel(5)) is None
    assert find_even_wheel(complete_bipartite(3, 3)) is None


def test_find_even_wheel_in_k5():
    hub, rim = find_even_wheel(complete_graph(5))
    assert hub == 0 and len(rim) == 4


def test_find_even_wheel_after_split():
    # the figure graph for (6,4,3^6) with its degree-3 vertex 2 split off
    # (neighbor 3 dropped, the other two joined): a 4-wheel appears around
    # the main hub, which has no even wheel before the split
    assert find_even_wheel(base_graph("fig1c")) is None
    H = build_graph(7, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 3),
                        (1, 4), (1, 6), (2, 3), (4, 5), (5, 6), (0, 1)])
    found = find_even_wheel(H)
    assert found is not None
    hub, rim = found
    assert hub == 0 and len(rim) == 4


def test_find_even_wheel_respects_max_rim():
    rim = tuple(range(1, WHEEL_MAX_RIM + 1))
    assert find_even_wheel(wheel(WHEEL_MAX_RIM)) == (0, rim)
    assert find_even_wheel(wheel(WHEEL_MAX_RIM + 2)) is None


def test_triangular_connectivity():
    assert is_triangularly_connected(complete_graph(4))
    assert is_triangularly_connected(wheel(5))
    assert is_triangularly_connected(build_graph(2, [(0, 1), (0, 1)]))
    assert not is_triangularly_connected(cycle_graph(4))
    assert not is_triangularly_connected(build_graph(2, [(0, 1)]))
    assert not is_triangularly_connected(complete_bipartite(2, 3))
    # two triangles sharing a vertex but no edge chain through it
    G = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert not is_triangularly_connected(G)
    # ... unless a chord forms a triangle across the cut
    H = build_graph(5, list(G.edges) + [(1, 3)])
    assert is_triangularly_connected(H)


@st.composite
def multigraphs(draw):
    """Multigraphs with n <= 9 and up to 3n edges, parallel edges likely."""
    n = draw(st.integers(2, 9))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)),
                         max_size=3 * n))
    return Multigraph(n, tuple((u, v + (v >= u)) for u, v in ends))


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.data())
def test_triangular_connectivity_matches_definition(G, data):
    # `ordered_certify` calls the package's check too, so the search
    # comparisons cannot catch a fault in it; this reference does not
    assert is_triangularly_connected(G) == naive_triangularly_connected(G)
    # on rows cut down to some keys, the check sees the induced subgraph
    keep = sorted(data.draw(st.sets(st.integers(0, G.n - 1), min_size=1)))
    index = {v: i for i, v in enumerate(keep)}
    rows = {v: {} for v in keep}
    for u, v in G.edges:
        for a, b in ((u, v), (v, u)):
            if a in rows:
                rows[a][b] = rows[a].get(b, 0) + 1
    H = Multigraph(len(keep), tuple((index[u], index[v]) for u, v in G.edges
                                    if u in index and v in index))
    assert triangularly_connected(rows) == naive_triangularly_connected(H)


def test_edgelist_roundtrip():
    rng = random.Random(23)
    for _ in range(50):
        G = random_multigraph(rng)
        H = parse_edgelist(format_edgelist(G))
        assert H.n == G.n and H.edges == G.edges


def test_edgelist_ignores_comments_and_blanks():
    text = "# hello\n\n3 2\n0 1\n\n1 2\n"
    G = parse_edgelist(text)
    assert G.n == 3 and G.m == 2


def test_edgelist_rejects_garbage():
    with pytest.raises(GraphError):
        parse_edgelist("")
    with pytest.raises(GraphError):
        parse_edgelist("2 1\n0 1\n1 0")
    with pytest.raises(GraphError):
        parse_edgelist("nope")


def test_dot_output():
    text = to_dot(build_graph(2, [(0, 1)]))
    assert text.startswith("graph G {")
    assert "0 -- 1;" in text
    assert text.rstrip().endswith("}")
