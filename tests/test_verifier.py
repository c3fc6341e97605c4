import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from z3conn import all_realizations, parse_sequence, verifier
from z3conn.catalog import base_graph, wheel
from z3conn.graph import (Multigraph, build_graph, complete_bipartite,
                          complete_graph, cycle_graph)
from z3conn.verifier import (FlowAssignment, OracleCapError, ZeroSumFunction,
                             boundary, has_modular_3_orientation,
                             is_3_flowable, is_z3_connected,
                             reachable_boundaries, solve_boundary)

from helpers import naive_boundaries, naive_z3_connected, random_multigraph


def reach_set(G):
    """Reachable boundaries as a set of tuples, for oracle comparison."""
    arr = reachable_boundaries(G)
    return {b for b in itertools.product((0, 1, 2), repeat=G.n) if arr[b]}


def test_boundary_of_explicit_flow():
    G = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    # value 1 around the cycle cancels at every vertex
    assert boundary(G, FlowAssignment((1, 1, 1))).values == (0, 0, 0)
    assert boundary(G, FlowAssignment((1, 2, 1))).values == (0, 1, 2)


def test_value_validation():
    with pytest.raises(ValueError):
        FlowAssignment((0, 1))
    with pytest.raises(ValueError):
        FlowAssignment((1, 3))
    with pytest.raises(ValueError):
        ZeroSumFunction((1, 1))
    with pytest.raises(ValueError):
        ZeroSumFunction((1, 5, 0))
    with pytest.raises(ValueError):
        boundary(build_graph(2, [(0, 1)]), FlowAssignment((1, 1)))


def test_reachable_boundaries_two_cycle():
    G = build_graph(2, [(0, 1), (0, 1)])
    assert reach_set(G) == {(0, 0), (1, 2), (2, 1)}


def test_reachable_boundaries_k4_frozen():
    reach = reach_set(complete_graph(4))
    assert len(reach) == 26
    assert (0, 0, 0, 0) not in reach
    assert all(sum(b) % 3 == 0 for b in reach)


def test_oracle_matches_naive_on_random_multigraphs():
    rng = random.Random(71)
    for _ in range(150):
        G = random_multigraph(rng)
        assert reach_set(G) == naive_boundaries(G)
        assert is_z3_connected(G) == naive_z3_connected(G)


def test_known_positive_graphs():
    for G in (wheel(4), wheel(6), complete_graph(5),
              base_graph("k5minus"), build_graph(2, [(0, 1), (0, 1)]),
              base_graph("fig1a"), base_graph("fig2c")):
        assert is_z3_connected(G)


def test_known_negative_graphs():
    for G in (complete_graph(4), wheel(5), complete_bipartite(2, 3),
              complete_bipartite(3, 3), cycle_graph(5),
              build_graph(4, [(0, 1), (1, 2), (2, 3)])):
        assert not is_z3_connected(G)


def test_single_vertex_and_disconnected():
    assert is_z3_connected(build_graph(1, []))
    assert not is_z3_connected(build_graph(4, [(0, 1), (2, 3)]))


def test_solve_boundary_returns_valid_witness():
    rng = random.Random(97)
    checked = 0
    for _ in range(60):
        G = random_multigraph(rng)
        for b in sorted(naive_boundaries(G)):
            flow = solve_boundary(G, ZeroSumFunction(b))
            assert flow is not None
            assert all(v in (1, 2) for v in flow.values)
            assert boundary(G, flow).values == b
            checked += 1
    assert checked > 100


def test_every_zero_sum_target_at_the_dropped_axis():
    # the DP has no axis for vertex n-1; put edges there in both orientations
    rng = random.Random(131)
    unreachable = 0
    for _ in range(80):
        H = random_multigraph(rng, n_max=5, m_max=7)
        last = H.n - 1
        edges = list(H.edges) + [(last, rng.randrange(last)),
                                 (rng.randrange(last), last)]
        rng.shuffle(edges)
        G = Multigraph(H.n, tuple(edges))
        reach = naive_boundaries(G)
        for b in itertools.product((0, 1, 2), repeat=G.n):
            if sum(b) % 3:
                continue
            flow = solve_boundary(G, ZeroSumFunction(b))
            if b in reach:
                assert flow is not None
                assert boundary(G, flow).values == b
            else:
                assert flow is None
                unreachable += 1
    assert unreachable > 100


def test_early_stop_and_edge_count_bound_match_naive(monkeypatch):
    rng = random.Random(173)
    for _ in range(60):
        n = rng.randint(2, 5)
        # a tree of parallel pairs is Z3-connected, so the reachable set
        # fills before the trailing random edges are processed
        edges = [(rng.randrange(i), i) for i in range(1, n) for _ in (0, 1)]
        edges += [tuple(rng.sample(range(n), 2))
                  for _ in range(rng.randint(0, 4))]
        G = Multigraph(n, tuple(edges))
        assert is_z3_connected(G) and naive_z3_connected(G)
        assert is_3_flowable(G) and (0,) * n in naive_boundaries(G)
    sparse = []
    for _ in range(40):
        n = rng.randint(4, 6)
        # a cycle plus few chords: 2^m < 3^(n-1), so m edges reach fewer
        # boundaries than there are targets
        edges = [(i, (i + 1) % n) for i in range(n)]
        while 2 ** (len(edges) + 1) < 3 ** (n - 1):
            edges.append(tuple(rng.sample(range(n), 2)))
        sparse.append(Multigraph(n, tuple(edges)))
        assert 2 ** sparse[-1].m < 3 ** (n - 1)
    for _ in range(40):
        n = rng.randint(4, 7)
        # a cycle plus n - 3 chords: m = 2n - 3 and 2^m >= 3^(n-1), so
        # only the edge-count rule m < 2n - 2 (Lemma A) decides it
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(n - 3)]
        sparse.append(Multigraph(n, tuple(edges)))
        assert 2 ** sparse[-1].m >= 3 ** (n - 1)

    def no_dp(*args, **kwargs):
        raise AssertionError("the DP ran on a graph with m < 2n - 2")

    for G in sparse:
        assert G.m < 2 * G.n - 2
        with monkeypatch.context() as patched:
            patched.setattr(verifier, "_reach", no_dp)
            assert not is_z3_connected(G)
        assert not naive_z3_connected(G)
        assert is_3_flowable(G) == ((0,) * G.n in naive_boundaries(G))


def test_lemma_a_against_the_dp():
    # Lemma A: a Z3-connected loopless multigraph has m >= 2n - 2.  Check
    # it on the DP itself, which has no edge-count guard, and by brute
    # force where 2^m assignments could reach all 3^(n-1) targets (m <= 10
    # keeps the brute force under a second)
    rng = random.Random(523)
    naive = 0
    for _ in range(5000):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, 2 * n - 3)
        edges = [(rng.randrange(i), i) for i in range(1, n)]  # a tree
        while len(edges) < m:
            edges.append(tuple(rng.sample(range(n), 2)))
        rng.shuffle(edges)
        G = Multigraph(n, tuple(edges))
        assert reachable_boundaries(G).flags != (1 << 3 ** (n - 1)) - 1
        if m <= 10 and 2 ** m >= 3 ** (n - 1):
            assert not naive_z3_connected(G)
            naive += 1
    assert naive > 500
    # the bound is sharp: even wheels attain m = 2n - 2, and the DP finds
    # no realization of the exception family (n-3, 3^(n-1)), m = 2n - 3, full
    for k in (4, 6, 8, 10, 12):
        G = wheel(k)
        assert G.m == 2 * G.n - 2 and is_z3_connected(G)
    for n in range(6, 10):
        seq = parse_sequence(f"({n - 3},3^{n - 1})")
        G = next(all_realizations(seq))
        assert G.m == 2 * n - 3 and not is_z3_connected(G)
        assert reachable_boundaries(G).flags != (1 << 3 ** (n - 1)) - 1


def test_lemma_b_against_the_dp():
    # Lemma B: if G is Z3-connected and v has degree 2, so is G - v; the
    # converse is absorb's rule.  v's two edges go to one vertex or to two,
    # and m runs across 2n - 2, where the DP does the work; brute force
    # confirms both sides where m <= 10
    rng = random.Random(2027)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randint(3, 9)
        m = rng.randint(max(2, 2 * n - 4), 2 * n + 4)
        v = n - 1
        rest = tuple(tuple(rng.sample(range(v), 2)) for _ in range(m - 2))
        a, b = rng.randrange(v), rng.randrange(v)
        G, H = Multigraph(n, rest + ((a, v), (b, v))), Multigraph(v, rest)
        answer = is_z3_connected(G)
        assert answer == is_z3_connected(H), (G.edges, v)
        if m <= 10:
            assert naive_z3_connected(G) == answer == naive_z3_connected(H)
        seen[answer] += 1
    assert seen[True] > 1000 and seen[False] > 500, seen


def test_oracle_memory_at_n14():
    G = wheel(13)  # n = 14, m = 26; odd wheel, so the DP never fills up
    state = 3 ** 13  # bytes in 8 zero-sum layers of 3^13 bits each
    # build the n = 14 digit masks inside the traced region, whatever ran
    # before this test
    verifier._masks.cache_clear()
    tracemalloc.start()
    try:
        assert not is_z3_connected(G)
        _, peak_yes_no = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solve_boundary(G, ZeroSumFunction((0,) * G.n))
        _, peak_witness = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state <= peak_yes_no < 3 * state
    assert peak_witness < 3 * state


def test_single_target_peak_below_yes_no_at_n14():
    # the backward side takes the rim's widest labels, so the one-target
    # search never holds a full-width slice; the yes/no DP does
    G = wheel(13)
    assert not is_z3_connected(G)  # warm the n = 14 masks
    zero = ZeroSumFunction((0,) * G.n)
    peaks = []
    for check in (is_z3_connected, lambda G: solve_boundary(G, zero)):
        tracemalloc.start()
        try:
            check(G)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0]


def _meet_cross_check_graphs(rng):
    """Graphs for each case of the meeting rule, as (case, graph): dense
    graphs and multigraphs whose label-0 vertex has degree n - 2 or more,
    sparse multigraphs with n = 10..14 whose vertex n - 1 takes edges in
    both orientations, and n <= 5."""
    for n in (10, 11, 10, 11, 12):
        drop = rng.sample(range(n), n // 2 * 2)
        gone = {frozenset(drop[j:j + 2]) for j in range(0, len(drop), 2)}
        edges = [e if rng.random() < 0.5 else e[::-1]
                 for e in itertools.combinations(range(n), 2)
                 if frozenset(e) not in gone]
        edges += rng.sample(edges, n) if n % 2 else []
        rng.shuffle(edges)
        yield "dense", Multigraph(n, tuple(edges))
    for n in (10, 11, 12, 13, 14) * 4:
        hub, ring = n - 1, rng.sample(range(n), n)
        edges = [(hub, rng.randrange(hub)), (rng.randrange(hub), hub)]
        edges += list(zip(ring, ring[1:] + ring[:1]))
        while len(edges) < rng.randint(2 * n - 4, 2 * n + 3):
            u, v = rng.sample(range(n), 2)
            u = rng.choice((u, hub)) if v != hub else u
            edges += [rng.choice(((u, v), (v, u)))] * rng.choice((1, 1, 2))
        rng.shuffle(edges)
        yield "sparse", Multigraph(n, tuple(edges))
    for n in (3, 4, 5) * 3:
        edges = [tuple(rng.sample(range(n), 2))
                 for _ in range(rng.randint(n, 2 * n + 2))]
        yield "small", Multigraph(n, tuple(edges))


def test_meeting_halfway_matches_reachable_boundaries():
    # solve_boundary meets the degree-ordered DP halfway; reachable_boundaries
    # runs the whole DP in the input labels, an independent path.  Reach
    # each case of the meeting rule: the backward side stops at once, takes
    # two labels or more, or takes no edge because n <= 5; and the DP stops
    # once its set is full, leaving edges the witness sets freely
    rng = random.Random(3203)
    cases, targets = set(), {True: 0, False: 0}
    for kind, G in _meet_cross_check_graphs(rng):
        reach = reachable_boundaries(G)
        zero = (0,) * G.n
        label = verifier._degree_labels(G)
        low, back, residuals = verifier._backward(G, label, 0)
        top = label.index(G.n - 1)
        if kind == "sparse" and {(top in e, e[0] == top) for e in G.edges} >= {
                (True, True), (True, False)}:
            cases.add("digitless vertex both ways")
        if kind == "dense" and low == 0:
            cases.add("at once")
            layers = []
            verifier._reach(G, label, layers)
            if len(layers) < G.m:
                cases.add("full before the last edge")
        elif kind == "sparse" and low >= 2 and residuals:
            cases.add("two labels or more")
        elif kind == "small":
            assert not back
            cases.add("none")
        assert is_3_flowable(G) == reach[zero]
        orient = has_modular_3_orientation(G)
        assert (orient is not None) == reach[zero]
        if orient is not None:
            net = [0] * G.n
            for (u, v), rev in zip(G.edges, orient):
                net[v if rev else u] += 1
                net[u if rev else v] -= 1
            assert all(x % 3 == 0 for x in net)
        for _ in range(4):
            b = [rng.randrange(3) for _ in range(G.n - 1)]
            b = tuple(b + [-sum(b) % 3])
            flow = solve_boundary(G, ZeroSumFunction(b))
            assert (flow is not None) == reach[b]
            if flow is not None:
                assert boundary(G, flow).values == b
            targets[reach[b]] += 1
    assert cases == {"at once", "two labels or more", "none",
                     "digitless vertex both ways", "full before the last edge"}
    assert targets[True] > 20 and targets[False] > 20, targets


def test_digit_masks_are_no_wider_than_a_slice():
    # the widest slice is label 0's, 3^(n-2) flags; a mask is only ANDed
    # with a slice, so bits above that width would never be read
    for n in range(3, 15):
        masks = verifier._masks(n)
        assert len(masks) == n - 1
        assert max(m0.bit_length() for _, m0 in masks) <= 3 ** (n - 2)


def test_digit_masks_at_large_n_match_naive():
    # sparse multigraphs reach every digit mask up to the cap, including
    # edges at vertex n-1 (which has no digit) in both orientations
    rng = random.Random(211)
    for n in range(9, 15):
        for _ in range(3):
            last = n - 1
            edges = [(last, rng.randrange(last)), (rng.randrange(last), last)]
            edges += [tuple(rng.sample(range(n), 2))
                      for _ in range(rng.randint(4, 14))]
            rng.shuffle(edges)
            G = Multigraph(n, tuple(edges))
            reach = naive_boundaries(G)
            # bit i of the DP state flags the zero-sum boundary whose first
            # n-1 values are the base-3 digits of i, most significant first
            want = 0
            for b in reach:
                assert sum(b) % 3 == 0
                want |= 1 << int("".join(map(str, b[:-1])), 3)
            arr = reachable_boundaries(G)
            assert arr.flags == want
            assert all(arr[b] for b in reach)
            for b in rng.sample(sorted(reach), 3):
                flow = solve_boundary(G, ZeroSumFunction(b))
                assert boundary(G, flow).values == b
            for _ in range(3):
                b = [rng.randrange(3) for _ in range(last)]
                b = tuple(b + [-sum(b) % 3])
                flow = solve_boundary(G, ZeroSumFunction(b))
                assert (flow is None) == (b not in reach)
                assert arr[b] == (b in reach)


def test_degree_order_matches_naive_on_every_target():
    # the DP relabels the vertices by degree and takes the edges in that
    # order; answers, targets and witnesses must still be in input labels,
    # with degree ties, parallel edges, isolated vertices and edges at the
    # highest-degree vertex in both orientations
    rng = random.Random(307)
    for n in range(1, 10):
        for _ in range(8):
            used = rng.sample(range(n), rng.randint(min(n, 2), n))
            edges = []
            if len(used) >= 2:
                top, others = used[0], used[1:]
                edges = [(top, rng.choice(others)), (rng.choice(others), top)]
                m = rng.randint(2, 12)
                while len(edges) < m:
                    u, v = rng.sample(used, 2)
                    edges += [(u, v)] * rng.choice((1, 1, 2))
                edges = edges[:m]
            rng.shuffle(edges)
            G = Multigraph(n, tuple(edges))
            reach = naive_boundaries(G)
            zero = (0,) * n
            assert is_z3_connected(G) == naive_z3_connected(G)
            assert is_3_flowable(G) == (zero in reach)
            assert (has_modular_3_orientation(G) is None) == (zero not in reach)
            for b in itertools.product((0, 1, 2), repeat=n):
                if sum(b) % 3:
                    continue
                flow = solve_boundary(G, ZeroSumFunction(b))
                if b in reach:
                    assert boundary(G, flow).values == b
                else:
                    assert flow is None


def _slice_transitions(G, label):
    """The slice transitions the DP takes on G with vertex v at digit
    label[v]: a join that skips a label with no edge to a higher one, a
    label whose first edge goes to vertex n-1, and parallel edges."""
    first = {}
    for u, v in G.edges:
        p, q = sorted((label[u], label[v]))
        first.setdefault(p, q)
    used = sorted(first)
    return {"skip": any(b - a > 1 for a, b in zip(used, used[1:])),
            "top_first": G.n - 1 in first.values(),
            "parallel": len({frozenset(e) for e in G.edges}) < G.m}


def test_slice_transitions_match_naive_on_every_target():
    # the DP holds the set as three slices of its current digit; build
    # multigraphs that take every transition between slices, in the input
    # labels (reachable_boundaries) and in the degree order (the rest)
    rng = random.Random(419)
    seen = set()
    for _ in range(24):
        n = rng.randint(4, 8)
        top = n - 1
        first, gap = rng.sample(range(1, top), 2)
        # `first` takes an edge to vertex n-1 before its other edges, and
        # `gap` only meets smaller labels, so the DP takes no edge there
        edges = [rng.choice(((first, top), (top, first))), (gap, 0)]
        while len(edges) < rng.randint(6, 10):
            u, v = rng.sample(range(n), 2)
            if gap not in (u, v) or max(u, v) == gap:
                edges.append((u, v))
        edges.append(rng.choice(edges)[::rng.choice((1, -1))])
        G = Multigraph(n, tuple(edges))
        for order, label in (("input", range(n)),
                             ("degree", verifier._degree_labels(G))):
            seen |= {(order, k) for k, v
                     in _slice_transitions(G, label).items() if v}
        reach = naive_boundaries(G)
        assert reach_set(G) == reach
        assert is_3_flowable(G) == ((0,) * n in reach)
        for b in itertools.product((0, 1, 2), repeat=n):
            if sum(b) % 3:
                continue
            flow = solve_boundary(G, ZeroSumFunction(b))
            assert (flow is None) == (b not in reach)
            if flow is not None:
                assert boundary(G, flow).values == b
    assert seen == {(order, k) for order in ("input", "degree")
                    for k in ("skip", "top_first", "parallel")}


def test_solve_boundary_unreachable():
    G = complete_graph(4)
    assert solve_boundary(G, ZeroSumFunction((0, 0, 0, 0))) is None
    with pytest.raises(ValueError):
        solve_boundary(G, ZeroSumFunction((0, 0, 0)))


def test_modular_orientation_and_flowability():
    G = complete_bipartite(3, 3)
    orient = has_modular_3_orientation(G)
    assert orient is not None
    # reversing the flagged edges gives outdeg = indeg mod 3 everywhere
    net = [0] * G.n
    for (u, v), rev in zip(G.edges, orient):
        a, b = (v, u) if rev else (u, v)
        net[a] += 1
        net[b] -= 1
    assert all(x % 3 == 0 for x in net)
    assert is_3_flowable(G)
    assert not is_z3_connected(G)
    assert not is_3_flowable(complete_graph(4))
    assert has_modular_3_orientation(complete_graph(4)) is None
    assert is_3_flowable(cycle_graph(4))
    # a bridge blocks every nowhere-zero flow
    assert not is_3_flowable(build_graph(2, [(0, 1)]))


def test_reachable_boundaries_indexing():
    arr = reachable_boundaries(wheel(4))  # Z3-connected: every zero sum
    assert arr[(0,) * 5] and arr[(1, 2, 0, 0, 0)] and arr[(2, 2, 2, 0, 0)]
    assert not arr[(1, 0, 0, 0, 0)]
    for bad in [(0,) * 4, (0,) * 6, (3, 0, 0, 0, 0), (-1, 1, 0, 0, 0)]:
        with pytest.raises(IndexError):
            arr[bad]


def test_oracle_cap():
    # every entry point refuses one vertex past the limit, before the DP
    n = verifier.ORACLE_N_MAX + 1
    G = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    for check in (reachable_boundaries, is_z3_connected, is_3_flowable,
                  has_modular_3_orientation,
                  lambda G: solve_boundary(G, ZeroSumFunction((0,) * n))):
        with pytest.raises(OracleCapError, match=f"n<={n - 1}, got n={n}"):
            check(G)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_z3_connectivity_survives_relabeling(data):
    # relabeling the vertices, shuffling the edge list and reversing edges
    # keep the answer, so a search may scan labeled graphs without first
    # reducing them to one graph per isomorphism class
    n = data.draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e, keep in zip(pairs, data.draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    perm = data.draw(st.permutations(range(n)))
    order = data.draw(st.permutations(range(len(edges))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges),
                               max_size=len(edges)))
    moved = [(perm[v], perm[u]) if flips[i] else (perm[u], perm[v])
             for i in order for u, v in [edges[i]]]
    assert (is_z3_connected(Multigraph(n, tuple(moved)))
            == is_z3_connected(Multigraph(n, tuple(edges))))
