import inspect
import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from z3conn import parse_sequence, realize, reducer
from z3conn.catalog import CERTIFIABLE_BASES, base_graph, wheel
from z3conn.graph import (Multigraph, build_graph, complete_bipartite,
                          complete_graph, cycle_graph)
from z3conn.reducer import (Certificate, CertificateError, Step, _apply_step,
                            _bases_that_fit, _State, absorb_step, base_step,
                            certify, find_even_wheel, lift_step,
                            parse_certificate, replay, two_cycle_step,
                            wheel_step)
from z3conn.verifier import is_z3_connected

from helpers import (certify_outcome, naive_even_wheel, naive_z3_connected,
                     ordered_certify, quotient, random_multigraph,
                     random_simple_graph)
from test_certify_golden import corpus


def test_render_parse_roundtrip():
    cert = Certificate((lift_step(3, 5, 6), two_cycle_step(0, 1),
                        wheel_step(0, (1, 2, 3, 4)),
                        base_step("fig1a", (0, 1, 2, 3, 4, 5)),
                        absorb_step(7), Step("done")))
    text = cert.render()
    assert "lift 3 5 6" in text
    assert "contract-even-wheel 0 1 2 3 4" in text
    assert "contract-base fig1a 0 1 2 3 4 5" in text
    assert parse_certificate(text) == cert


def test_parse_skips_comments_and_blanks():
    cert = parse_certificate("# note\n\ncontract-2cycle 0 1\ndone\n")
    assert len(cert.steps) == 2


@pytest.mark.parametrize("text", [
    "", "# only a comment\n", "frobnicate 1\ndone",
    "lift 1 2\ndone", "absorb x\ndone", "done extra", "absorb 1 2 3\ndone",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(CertificateError):
        parse_certificate(text)


def test_parse_error_reports_line():
    with pytest.raises(CertificateError, match="line 3"):
        parse_certificate("contract-2cycle 0 1\n# fine\nabsorb q\ndone")


def test_replay_wheel_certificate():
    cert = Certificate((wheel_step(0, (1, 2, 3, 4)), Step("done")))
    assert replay(wheel(4), cert).ok


def test_replay_base_certificate():
    cert = Certificate((base_step("k5", (0, 1, 2, 3, 4)), Step("done")))
    assert replay(complete_graph(5), cert).ok


def test_replay_triangular_terminal():
    assert replay(complete_graph(5), Certificate((Step("triangular"),))).ok
    # K4 is triangularly connected but has degree-3 vertices
    res = replay(complete_graph(4), Certificate((Step("triangular"),)))
    assert not res.ok and "degree" in res.message


def test_replay_two_cycle_and_absorb():
    G = build_graph(3, [(0, 1), (0, 1), (0, 2), (1, 2)])
    cert = Certificate((two_cycle_step(0, 1), two_cycle_step(0, 2),
                        Step("done")))
    assert replay(G, cert).ok
    # after merging 0 and 1, vertex 2 has two edges into the merged class
    cert = Certificate((two_cycle_step(0, 1), absorb_step(2), Step("done")))
    assert replay(G, cert).ok


def test_replay_lift_keeps_track_of_edges():
    # lifting at a degree-4 vertex creates a parallel pair at its neighbors
    G = build_graph(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)])
    cert = Certificate((lift_step(0, 1, 2), two_cycle_step(1, 2),
                        two_cycle_step(0, 1), Step("done")))
    assert replay(G, cert).ok


@pytest.mark.parametrize("graph,steps,fragment", [
    (complete_graph(4), (two_cycle_step(0, 1), Step("done")), "parallel"),
    (complete_graph(4), (lift_step(0, 1, 2), Step("done")), "degree"),
    (wheel(4), (lift_step(0, 1, 1), Step("done")), "distinct"),
    (wheel(4), (wheel_step(0, (1, 2, 3)), Step("done")), "even"),
    (wheel(5), (wheel_step(0, (1, 2, 3, 4)), Step("done")), "rim edge"),
    (complete_graph(5), (base_step("k5", (0, 1, 2, 3)), Step("done")), "needs"),
    (complete_graph(5), (base_step("nosuch", (0, 1, 2, 3)), Step("done")),
     "not certifiable"),
    (build_graph(2, [(0, 1)]), (absorb_step(0), Step("done")), "outgoing"),
    (build_graph(1, []), (absorb_step(0), Step("done")), "outgoing"),
    (wheel(4), (Step("done"), wheel_step(0, (1, 2, 3, 4))), "terminal"),
    (wheel(4), (wheel_step(0, (1, 2, 3, 4)),), "must end"),
    (wheel(4), (two_cycle_step(0, 9), Step("done")), "invalid"),
    (wheel(4), parse_certificate("absorb -1\ndone").steps, "invalid"),
    (wheel(4), (absorb_step(1), lift_step(0, 2, 1), Step("done")), "invalid"),
])
def test_replay_rejects_bad_certificates(graph, steps, fragment):
    res = replay(graph, Certificate(tuple(steps)))
    assert not res.ok
    assert fragment in res.message


def test_lift_center_degree_counts_parallel_edges():
    # the centre's check stops counting at 4; below 4 it names the degree
    cases = [([(0, 1), (0, 2), (0, 3)], "lift center has degree 3 < 4"),
             ([(0, 1), (0, 1), (0, 2)], "lift center has degree 3 < 4"),
             ([(0, 1), (0, 1), (0, 2), (0, 3)], None),
             ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], None)]
    for edges, message in cases:
        state = _State(build_graph(6, edges))
        assert _apply_step(state, lift_step(0, 1, 2)) == message
    state = _State(build_graph(6, [(0, 1), (0, 1), (0, 2), (0, 3)]))
    _apply_step(state, lift_step(0, 1, 2))
    r = state.find(0)
    assert state.degree(r) == 2 and state.degree(r, 4) == 2


def test_replay_uses_original_labels_after_merges():
    # referring to a merged-away vertex must still resolve to its class
    G = build_graph(4, [(0, 1), (0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    cert = Certificate((two_cycle_step(0, 1), two_cycle_step(1, 2),
                        two_cycle_step(0, 3), Step("done")))
    assert replay(G, cert).ok


def test_certify_known_positives():
    for G in (wheel(4), wheel(6), complete_graph(5), base_graph("k5minus"),
              build_graph(2, [(0, 1), (0, 1)]), base_graph("fig1b"),
              base_graph("fig2c"), base_graph("k44")):
        res = certify(G)
        assert res.proved
        assert replay(G, res.certificate).ok


def test_certify_never_proves_negatives():
    for G in (complete_graph(4), wheel(5), complete_bipartite(3, 3),
              cycle_graph(5), complete_bipartite(2, 3),
              build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])):
        assert not certify(G).proved


def test_certify_sound_on_random_graphs():
    rng = random.Random(211)
    proved = 0
    for _ in range(200):
        G = random_multigraph(rng)
        res = certify(G, budget=2000)
        if res.proved:
            assert replay(G, res.certificate).ok
            assert naive_z3_connected(G)
            proved += 1
    assert proved > 50


@pytest.mark.parametrize("graph,budget,reason,nodes", [
    (wheel(4), 20000, "proved", 2),
    # m = 2n - 2 leaves no slack, and every class has degree 3
    (complete_graph(4), 20000, "no-rule", 1),
    (build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), 20000,
     "disconnected", 0),
    # m = 9 < 2n - 2: Lemma A, before any node is spent
    (complete_bipartite(3, 3), 5, "sparse", 0),
])
def test_certify_says_why_it_stopped(graph, budget, reason, nodes):
    res = certify(graph, budget=budget)
    assert (res.proved, res.reason, res.nodes) == (reason == "proved", reason, nodes)
    assert (res.certificate is not None) == res.proved


def test_certify_rejects_too_few_edges_without_per_vertex_work(monkeypatch):
    # m < n-1 cannot be connected; a million-vertex header costs nothing
    def refuse(self):
        raise AssertionError("neighbor sets built")
    monkeypatch.setattr(Multigraph, "neighbor_sets", refuse)
    res = certify(Multigraph(10 ** 6, ((0, 1),)))
    assert (res.proved, res.reason, res.nodes) == (False, "disconnected", 0)


def test_certify_absorb_depth_is_not_bounded_by_recursion_limit():
    # the absorb backtracking on K_{3,300} takes the degree-3 side one
    # class at a time, more than 60 branch points deep within 200 nodes
    G = complete_bipartite(3, 300)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        res = certify(G, budget=200)
    finally:
        sys.setrecursionlimit(old)
    assert (res.proved, res.reason, res.nodes) == (False, "budget", 200)


def antiprism(k: int, shift: int = 0) -> list[tuple[int, int]]:
    """Edges of the antiprism on 2k vertices, moved up by `shift`: cycles
    0..k-1 and k..2k-1, with k+i joined to i and to (i+1) mod k."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(k + i, j) for i in range(k) for j in (i, (i + 1) % k)]
    return [(u + shift, v + shift) for u, v in edges]


@pytest.mark.parametrize("k", range(4, 13))
def test_certify_proves_antiprisms_by_the_triangular_terminal(k):
    # 4-regular with every edge on a triangle, and no 2-cycle, even wheel
    # or base fits: the search's first node is its triangular terminal
    G = build_graph(2 * k, antiprism(k))
    res = certify(G)
    assert (res.certificate.render(), res.nodes) == ("triangular\n", 1)
    if G.n <= 14:
        assert is_z3_connected(G)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_certify_absorbs_down_to_an_antiprism(k):
    # a degree-2 vertex keeps the first node off the triangular terminal;
    # its absorb branch checks the rows of the classes it keeps
    G = build_graph(2 * k + 1, antiprism(k, 1) + [(0, 1), (0, 1 + k // 2)])
    res = certify(G)
    assert (res.certificate.render(), res.nodes) == ("absorb 0\ntriangular\n", 2)


def test_reducer_builds_no_graph(monkeypatch):
    # the triangular check reads the class map at a replay step and at an
    # absorb node alike; catalog bases are built once and cached, so only
    # a warm run is counted
    antiprisms = [build_graph(12, antiprism(6)),
                  build_graph(13, antiprism(6, 1) + [(0, 1), (0, 4)])]
    K5, cert = complete_graph(5), parse_certificate("triangular\n")

    def run():
        assert all(certify(G).proved for G in antiprisms)
        assert replay(K5, cert).ok

    run()
    built = []
    monkeypatch.setattr(Multigraph, "__post_init__", lambda G: built.append(G))
    run()
    assert built == []


def test_certify_checks_each_step_once_on_one_class_map(monkeypatch):
    # the search is its own replay: each step of a proof, rules, absorbs
    # and terminal alike, passes replay's check once and in order, on the
    # one class map certify builds
    applied, maps = [], []
    check, adjacency = reducer._apply_step, Multigraph.adjacency
    monkeypatch.setattr(reducer, "_apply_step",
                        lambda state, step: applied.append(step) or check(state, step))
    monkeypatch.setattr(Multigraph, "adjacency",
                        lambda G: maps.append(G) or adjacency(G))
    # the corpus proves by rules alone; antiprisms add the absorb and
    # triangular steps
    extra = [build_graph(12, antiprism(6)),
             build_graph(13, antiprism(6, 1) + [(0, 1), (0, 4)])]
    kinds = set()
    for G, budget in corpus() + [(G, 20000) for G in extra]:
        applied.clear()
        maps.clear()
        res = certify(G, budget=budget)
        if res.proved:
            assert applied == list(res.certificate.steps)
            assert maps == [G]
            kinds.update(step.kind for step in res.certificate.steps)
    assert kinds == {"contract-2cycle", "contract-even-wheel", "contract-base",
                      "absorb", "done", "triangular"}, kinds


def test_certify_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        certify(wheel(4), budget=-5)


def test_certify_scales_to_k3n_with_1000_vertices():
    # no rule fits K_{3,997}, so the whole budget goes to absorbs, 993 deep
    # along the degree-3 side; a repeated set of remaining classes is
    # charged from its recorded count, so the default budget runs out in
    # well under a second
    G = complete_bipartite(3, 997)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = certify(G)
    finally:
        sys.setrecursionlimit(old)
    assert (res.proved, res.reason, res.nodes) == (False, "budget", 20000)


def test_certify_cutoff_scans_no_classes():
    # K_{3,1000} with 30 degree-2 vertices on hubs 0 and 1, and pendants on
    # hub 2 until m = 2n - 2: only the degree-2 classes pass the cut-off,
    # so a node that looked at the 1 000 degree-3 classes, or absorbed a
    # hub, would take seconds here
    G = complete_bipartite(3, 1000)
    edges, n = list(G.edges), G.n
    for v in range(n, n + 30):
        edges += [(0, v), (1, v)]
    n += 30
    while len(edges) > 2 * n - 2:
        edges.append((2, n))
        n += 1
    G = Multigraph(n, tuple(edges))
    start = time.perf_counter()
    res = certify(G)
    elapsed = time.perf_counter() - start
    assert (res.proved, res.reason, res.nodes) == (False, "budget", 20000)
    assert elapsed <= 1.0, elapsed


def test_certify_memory_does_not_grow_with_budget_times_n():
    # on K_{3,20000} the absorb path runs 19 996 nodes deep; a node that
    # kept its own n-bit class mask would need about 50 MB per mask here
    G = complete_bipartite(3, 20000)
    tracemalloc.start()
    try:
        res = certify(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.proved, res.reason, res.nodes) == (False, "budget", 20000)
    assert peak < 40 * 2 ** 20


@pytest.mark.parametrize("graph", [
    complete_graph(4), wheel(5), complete_bipartite(3, 6),
    # slack 2: degree-3 and degree-4 classes branch until a degree-3
    # absorb lowers the cut-off past the degree-4 ones
    build_graph(12, [(0, 4), (0, 5), (0, 8), (0, 9), (1, 2), (1, 4), (1, 6),
                     (1, 9), (1, 10), (1, 11), (2, 10), (2, 11), (3, 5), (3, 7),
                     (3, 10), (4, 5), (4, 6), (4, 8), (5, 7), (5, 11), (6, 9),
                     (7, 9), (8, 10), (10, 11)]),
    # vertex 9 hangs on vertex 3: undoing 3's absorb must not make 9, back
    # at degree 1, a branch
    Multigraph(10, complete_bipartite(3, 6).edges + ((0, 1), (3, 9))),
])
def test_certify_matches_ordered_search_at_every_budget(graph):
    # cut-offs land on every node of the full search, including inside
    # subtrees that are charged from their recorded counts
    full = ordered_certify(graph, 20000)
    assert full[3] == "no-rule"
    for budget in range(full[2] + 2):
        assert certify_outcome(certify(graph, budget)) == ordered_certify(graph, budget)


@st.composite
def small_graphs(draw):
    """Simple graphs or multigraphs with n <= 11, connected or not."""
    n = draw(st.integers(2, 11))
    if draw(st.booleans()):
        pairs = list(itertools.combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return build_graph(n, [e for e, k in zip(pairs, keep) if k])
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)),
                         max_size=3 * n))
    return Multigraph(n, tuple((u, v + (v >= u)) for u, v in ends))


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.sampled_from([1, 2, 16, 17, 50, 500, 3000]))
def test_certify_matches_ordered_search(G, budget):
    assert certify_outcome(certify(G, budget)) == ordered_certify(G, budget)


def test_lemma_a_prune_keeps_every_proof():
    # the plain search (every class of degree >= 2 branches) against
    # certify, which prunes by Lemma A: the same graphs are proved, with
    # the same certificates in no more nodes, and only failures get cheaper
    rng = random.Random(2030)
    proved = spent = plain_spent = 0
    for _ in range(2000):
        n = rng.randint(2, 11)
        ends = [(rng.randrange(n), rng.randrange(n - 1))
                for _ in range(rng.randint(n, 3 * n))]
        G = Multigraph(n, tuple((u, v + (v >= u)) for u, v in ends))
        plain = ordered_certify(G, 3000, lemma_a=False)
        got = certify_outcome(certify(G, 3000))
        assert got[0] == plain[0]
        if got[0]:
            assert got[1] == plain[1] and got[2] <= plain[2]
            assert is_z3_connected(G)
            proved += 1
        else:
            spent += got[2]
            plain_spent += plain[2]
    assert proved > 1000
    assert spent * 10 < plain_spent, (spent, plain_spent)


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(2, 10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(simple_graphs())
def test_certify_proofs_agree_with_oracle_on_simple_graphs(G):
    res = certify(G, budget=2000)
    if res.proved:
        assert replay(G, res.certificate).ok
        assert is_z3_connected(G)


def test_certifiable_bases_are_z3_connected():
    # replay needs each base edge once, so every base must be simple
    for name in CERTIFIABLE_BASES:
        assert base_graph(name).is_simple(), name
        assert is_z3_connected(base_graph(name)), name


def test_find_even_wheel_matches_its_definition():
    # the first hub, then the shortest rim, then the lexicographically
    # least rim: the order the certificates' wheel steps follow
    rng, found = random.Random(29), 0
    for i in range(2000):
        if i % 2:
            G = random_simple_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.9))
        else:
            G = random_multigraph(rng, 9, 30)
        want = naive_even_wheel(G)
        assert find_even_wheel(G) == want, G
        found += want is not None
    assert 400 < found < 1600


def test_bases_holding_a_wheel_are_left_to_replay():
    # k5 and k5minus hold W4, so the wheel rule fits wherever they would;
    # the search skips them, and replay still takes the builder's k5
    for k in range(1, 9):
        for widest in range(8):
            assert not {"k5", "k5minus"} & set(_bases_that_fit(k, widest))
    assert _bases_that_fit(8, 7) == tuple(
        name for name in CERTIFIABLE_BASES if name not in ("k5", "k5minus"))
    r = realize(parse_sequence("(4^5)"))
    assert r.certificate.render() == "contract-base k5 0 1 2 3 4\ndone\n"
    assert replay(r.graph, r.certificate).ok


class _EdgeListModel:
    """Reference for the replay state: a class name per original vertex
    (None once deleted) and a flat edge list rescanned on every query."""

    def __init__(self, G):
        self.name = list(range(G.n))
        self.edges = list(G.edges)

    def names(self):
        return sorted({c for c in self.name if c is not None})

    def pairs(self):
        out = {}
        for a, b in self.edges:
            x, y = self.name[a], self.name[b]
            if x != y:
                key = (min(x, y), max(x, y))
                out[key] = out.get(key, 0) + 1
        return out

    def degree(self, c):
        return sum(k for key, k in self.pairs().items() if c in key)

    def contract(self, u, v):
        old, new = self.name[u], self.name[v]
        self.name = [new if c == old else c for c in self.name]

    def lift(self, u, v, w):
        for a, b in ((u, v), (u, w)):
            ends = {self.name[a], self.name[b]}
            self.edges.remove(next(e for e in self.edges
                                   if {self.name[e[0]], self.name[e[1]]} == ends))
        self.edges.append((v, w))

    def absorb(self, v):
        gone = self.name[v]
        self.edges = [e for e in self.edges
                      if gone not in (self.name[e[0]], self.name[e[1]])]
        self.name = [None if c == gone else c for c in self.name]


def _snapshot(state):
    """(class names, name-pair -> multiplicity, name -> degree) of a state."""
    Q, names, rows = quotient(state)
    pairs = {(names[i], names[j]): k for i, row in enumerate(rows)
             for j, k in row.items() if i < j}
    from_edges = {}
    for a, b in Q.edges:
        key = (min(names[a], names[b]), max(names[a], names[b]))
        from_edges[key] = from_edges.get(key, 0) + 1
    assert from_edges == pairs
    return names, pairs, {c: state.degree(state.find(c)) for c in names}


def test_state_matches_edge_list_model():
    rng = random.Random(4242)
    merges = {"first_wider": 0, "second_wider": 0}
    for _ in range(300):
        G = random_multigraph(rng, n_max=8, m_max=24)
        state, model = _State(G), _EdgeListModel(G)
        for _ in range(12):
            names, pairs = model.names(), model.pairs()
            deg = {c: model.degree(c) for c in names}
            nbrs = {c: [x for x in names if (min(c, x), max(c, x)) in pairs]
                    for c in names}
            moves = [("contract-2cycle", (a, b)) for key, k in pairs.items()
                     if k >= 2 for a, b in (key, key[::-1])]
            moves += [("lift", (u, v, w)) for u in names if deg[u] >= 4
                      for v, w in itertools.permutations(nbrs[u], 2)]
            if len(names) >= 2:
                moves += [("absorb", (c,)) for c in names if deg[c] >= 2]
            if not moves:
                break
            kind, classes = rng.choice(moves)
            # any member of a class may name it
            args = tuple(rng.choice([v for v, c in enumerate(model.name) if c == x])
                         for x in classes)
            if kind == "contract-2cycle":
                a, b = classes
                if len(nbrs[a]) > len(nbrs[b]):
                    merges["first_wider"] += 1
                elif len(nbrs[a]) < len(nbrs[b]):
                    merges["second_wider"] += 1
            assert _apply_step(state, Step(kind, args)) is None
            {"contract-2cycle": model.contract, "lift": model.lift,
             "absorb": model.absorb}[kind](*args)
            names, pairs, degrees = _snapshot(state)
            assert names == model.names()
            assert pairs == model.pairs()
            assert degrees == {c: model.degree(c) for c in names}
            for a, b in itertools.combinations(names, 2):
                assert (state.adj[state.find(a)].get(state.find(b), 0)
                        == pairs.get((a, b), 0))
    assert merges["first_wider"] > 20 and merges["second_wider"] > 20, merges
