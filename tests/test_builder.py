import sys

import pytest
from hypothesis import given, settings, strategies as st

import z3conn.builder
import z3conn.enumerate
import z3conn.seqcore
from z3conn.builder import (_RESIDUAL_NOTES, ConstructionError, _disjoint_edges,
                            realize)
from z3conn.graph import Multigraph
from z3conn.reducer import parse_certificate, replay
from z3conn.seqcore import (Classification, DegreeSequence, Kind, Route,
                            classify, parse_sequence)
from z3conn.sweep import graphic_sequences
from z3conn.verifier import is_z3_connected


def run(text):
    return realize(parse_sequence(text))


def check_realized(text, expect_proof=None):
    res = run(text)
    assert res.status == "realized", (text, res.trace)
    G = res.graph
    assert G.is_simple()
    assert G.degree_sequence() == res.sequence
    if res.proof == "certificate":
        assert replay(G, res.certificate).ok
    if G.n <= 12:
        assert is_z3_connected(G)
    if expect_proof is not None:
        assert res.proof == expect_proof
    return res


def test_statuses_for_negative_inputs():
    assert run("(5,4,3^4)").status == "not_graphic"
    assert run("(4,3^6)").status == "exception"
    assert run("(7,3^7)").status == "exception"
    assert run("(7^2,3^6)").status == "exception"


def test_dominating_vertex_families():
    for text in ["(4,3^4)", "(5,3^5)", "(5,4^2,3^3)", "(5,5,4,4,3,3)",
                 "(7,3^7)"]:
        res = run(text)
        assert res.status in ("realized", "exception")
    check_realized("(4,3^4)")
    check_realized("(6,4,4,3^4)")
    check_realized("(7,4^2,3^5)")


def test_near_dominating_families():
    check_realized("(5,4,3^5)", expect_proof="certificate")
    check_realized("(4^2,3^4)", expect_proof="certificate")
    check_realized("(6,4,3^6)", expect_proof="certificate")
    check_realized("(7,4,3^7)", expect_proof="certificate")
    check_realized("(8,4,3^8)", expect_proof="certificate")
    check_realized("(6,5,4,3^5)")
    check_realized("(7,6,3^7)")


def test_two_below_families():
    check_realized("(5^2,3^6)", expect_proof="certificate")
    check_realized("(6,5,3^7)", expect_proof="certificate")
    check_realized("(7,5,3^8)", expect_proof="certificate")
    check_realized("(7,7,3^8)", expect_proof="certificate")
    check_realized("(8,7,3^9)", expect_proof="certificate")
    check_realized("(5,4^2,3^5)", expect_proof="certificate")
    check_realized("(6,4^2,3^6)", expect_proof="certificate")
    check_realized("(4^3,3^4)")
    check_realized("(6,4,4,3^6)")


def test_low_maximum_families():
    check_realized("(4^5,3^4)", expect_proof="certificate")
    check_realized("(4^6,3^4)", expect_proof="certificate")
    check_realized("(4^7,3^4)", expect_proof="certificate")
    check_realized("(5,4^4,3^5)", expect_proof="certificate")
    check_realized("(7,4^5,3^5)", expect_proof="certificate")
    check_realized("(6,4^5,3^4)", expect_proof="certificate")
    check_realized("(6,4^7,3^4)", expect_proof="certificate")
    check_realized("(8,4^7,3^4)", expect_proof="certificate")
    check_realized("(8,4^8,3^4)", expect_proof="certificate")


def test_certificates_scale_past_oracle_cap():
    # closed-form constructions carry their own proof, so size is no bar;
    # the n = 1000 T14 sequence takes 349 residual steps, which must not
    # recurse once per step under the default recursion limit.  The T12
    # inputs cover the flower, theta and two-dominating-vertex joins and a
    # long residual run; the last two are L41 and T14 inputs whose
    # residual steps reach T12.
    for text in ["(14,4,3^14)", "(13,5,3^14)", "(6,4^13,3^4)",
                 "(4^12,3^4)", "(9,4^9,3^5)", "(997,4^700,3^299)",
                 "(20,5,3^19)", "(15,4^2,3^13)", "(16,16,4,3^14)",
                 "(14,9,3^13)", "(999,4^600,3^399)",
                 "(38^2,27^2,25,17,16,6^8,5^7,4^9,3^9)",
                 "(77,76,74,55,46,42,6^19,5^16,4^29,3^10)"]:
        res = run(text)
        assert res.status == "realized"
        assert res.proof == "certificate"
        assert replay(res.graph, res.certificate).ok
        assert res.graph.n > 14


def test_residual_loop_makes_no_per_step_passes(monkeypatch):
    # T12 and T14 inputs with n = 10^4 take thousands of residual steps;
    # realize checks graphicality once and builds a fixed number of
    # DegreeSequence objects, however many steps it takes.  The counters
    # raise as soon as a bound is passed, so a per-step pass fails fast.
    calls = {}

    def counted(name, bound, f):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if calls[name] > bound:
                raise AssertionError(f"{name} called more than {bound} times")
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(z3conn.seqcore, "is_graphic",
                        counted("is_graphic", 1, z3conn.seqcore.is_graphic))
    monkeypatch.setattr(DegreeSequence, "__post_init__",
                        counted("DegreeSequence", 4,
                                DegreeSequence.__post_init__))
    for text, route in [("(9999,4^6000,3^3999)", Route.T12),
                        ("(9997,4^7000,3^2999)", Route.T14)]:
        seq = parse_sequence(text)
        calls.clear()
        res = realize(seq)
        assert res.classification.route is route
        assert res.status == "realized"
        assert len(res.trace) > 2500
        assert replay(res.graph, res.certificate).ok
        assert calls["is_graphic"] == 1


def test_every_route_builds_one_graph(monkeypatch):
    # constructions return edge lists; realize builds and validates the
    # one Multigraph, so builder code constructs exactly one per covered
    # realize, whatever the construction (catalog and replay not counted)
    built = [0]

    def counted(*args):
        built[0] += 1
        return Multigraph(*args)

    monkeypatch.setattr(z3conn.builder, "Multigraph", counted)
    for text, route, note in [
            ("(1000,3^1000)", Route.T12, "1-petal flower"),
            ("(1000,5,3^999)", Route.T12, "2-petal flower"),
            ("(1000,4^2,3^998)", Route.T12, "theta graph"),
            ("(1000^2,4,3^998)", Route.T12, "two dominating vertices"),
            ("(999,4^600,3^399)", Route.T12, "d1=n-1 with d3>=4"),
            ("(998,4,3^998)", Route.L41, "(4^2,3^4) base sharing"),
            ("(999,4,3^999)", Route.L41, "near-complete 4-block, odd"),
            ("(998,6,3^998)", Route.L41, "independent set of 2"),
            ("(997,5,3^998)", Route.T14, "two 3-fans"),
            ("(997,4^2,3^997)", Route.T14, "3-fans on two rim vertices"),
            ("(997,7,3^998)", Route.T14, "independent set of 3, even"),
            ("(996,7,3^997)", Route.T14, "independent set of 4, odd"),
            ("(4^996,3^4)", Route.T15, "on two 3-vertex pairs"),
            ("(5,4^994,3^5)", Route.T15, "raising one 4-vertex"),
            ("(7,4^994,3^5)", Route.T15, "inverse lifts of 1 edges"),
            ("(22,4^995,3^4)", Route.T15, "to realization of (21,4^993")]:
        built[0] = 0
        res = run(text)
        assert res.status == "realized", text
        assert res.classification.route is route, text
        assert note in res.trace[0], (text, res.trace[0])
        assert built[0] == 1, (text, built[0])


def test_covered_sequences_need_no_search_or_oracle(monkeypatch):
    # every covered sequence is proved by replaying its built certificate
    def forbidden(*args, **kwargs):
        raise AssertionError("search or oracle used on a covered sequence")

    for name in ("first_z3_connected", "certify"):
        monkeypatch.setattr(z3conn.builder, name, forbidden)
    for name in ("all_realizations", "is_z3_connected"):
        monkeypatch.setattr(z3conn.enumerate, name, forbidden)
    checked = 0
    for n in range(5, 10):
        for seq in graphic_sequences(n):
            if classify(seq).kind is Kind.COVERED:
                assert realize(seq).proof == "certificate", seq.render()
                checked += 1
    assert checked == 1098


def test_inverse_lift_family_is_realized():
    # (d1, 4^(n-6), 3^5): for odd d1 >= 17 close to n-4 the scan for far
    # edges in edge order comes up short, first at (17,4^15,3^5), and the
    # builder grows its matching along augmenting paths instead
    checked = 0
    for n in range(7, 41):
        for d1 in range(5, n, 2):
            seq = DegreeSequence((d1,) + (4,) * (n - 6) + (3,) * 5)
            if classify(seq).kind is Kind.COVERED:
                res = realize(seq)
                assert replay(res.graph, res.certificate).ok, seq.render()
                checked += 1
    assert checked == 323
    # (d1, 4^(n-5), 3^4) with even d1 >= 6 takes one residual step onto
    # the family above, (d1-1, 4^(n-7), 3^5)
    note = _RESIDUAL_NOTES[Route.T15]
    checked = 0
    for n in range(10, 41):
        for d1 in range(6, n - 3, 2):
            seq = DegreeSequence((d1,) + (4,) * (n - 5) + (3,) * 4)
            assert classify(seq).route is Route.T15, seq.render()
            res = realize(seq)
            assert replay(res.graph, res.certificate).ok, seq.render()
            assert res.trace[0] == (
                f"{note}: attach degree-3 vertex to realization of "
                f"{DegreeSequence((d1 - 1,) + (4,) * (n - 7) + (3,) * 5).render()}")
            if n <= 14:
                assert is_z3_connected(res.graph), seq.render()
            checked += 1
    assert checked == 256


def test_inverse_lift_at_n_3001_under_default_recursion_limit():
    # d1 = n-4 needs 1496 far edges, 37 more than the scan finds, so the
    # augmenting-path search runs; it must not recurse along a path.
    # (2996,4^2995,3^4) reaches the same shape by one residual step.
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for text in ["(2997,4^2995,3^5)", "(2996,4^2995,3^4)"]:
            seq = parse_sequence(text)
            res = realize(seq)
            assert replay(res.graph, res.certificate).ok, text
            assert res.graph.degree_sequence() == seq, text
    finally:
        sys.setrecursionlimit(old)


def test_disjoint_edges_augment_along_long_paths():
    # on a path 0-1-...-(2k+1) with its inner edges first, the scan takes
    # the k inner edges; the one augmenting path runs the whole length
    k = 5000
    inner = [(i, i + 1) for i in range(1, 2 * k, 2)]
    outer = [(i, i + 1) for i in range(0, 2 * k + 1, 2)]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert _disjoint_edges(inner + outer, k) == inner
        assert _disjoint_edges(inner + outer, k + 1) == outer
        assert _disjoint_edges(inner + outer, k + 2) == outer
    finally:
        sys.setrecursionlimit(old)
    # a triangle has no two disjoint edges
    assert _disjoint_edges([(0, 1), (1, 2), (0, 2)], 2) == [(0, 1)]


def test_built_certificates_parse_back():
    for n in range(5, 9):
        for seq in graphic_sequences(n):
            if classify(seq).kind is Kind.COVERED:
                cert = realize(seq).certificate
                assert parse_certificate(cert.render()) == cert, seq.render()


def test_out_of_coverage_fallback_positive():
    # minimum degree 2 is outside the covered families, yet some such
    # sequences do have verified realizations found by search
    for text in ["(4^5,2)", "(5,4,3^3,2)"]:
        res = run(text)
        assert res.classification.kind == Kind.OUT_OF_COVERAGE
        assert res.status == "realized"
        assert is_z3_connected(res.graph)


def test_out_of_coverage_fallback_exhaustion():
    # every realization fails verification; search reports honestly
    for text, total in [("(3^4,2)", 6), ("(4^2,3^2,2^2)", 17)]:
        res = run(text)
        assert res.classification.kind == Kind.OUT_OF_COVERAGE
        assert res.status == "unsupported"
        assert res.trace == (
            f"out of coverage; fallback search checked all {total} labeled "
            "realizations, none Z3-connected",)


def test_out_of_coverage_trace_names_the_search_limit(monkeypatch):
    monkeypatch.setattr(z3conn.builder, "FALLBACK_LIMIT", 5)
    res = run("(4^2,3^2,2^2)")
    assert res.status == "unsupported"
    assert res.trace == ("out of coverage; fallback search stopped at its "
                         "limit of 5 labeled realizations, none Z3-connected",)


def test_out_of_coverage_beyond_search_size():
    # too large for the fallback search
    res = run("(4,4,3^12)")
    assert res.status == "unsupported"
    assert res.trace == ("out of coverage and beyond fallback search size",)


def test_determinism():
    for text in ["(4^2,3^4)", "(6,5,3^7)", "(6,4^5,3^4)", "(7,4^5,3^5)"]:
        a = run(text)
        b = run(text)
        assert a.graph.edges == b.graph.edges
        assert a.certificate == b.certificate
        assert a.trace == b.trace


def test_realize_matches_route():
    s = parse_sequence("(5,4,3^5)")
    assert classify(s).route == Route.L41
    assert realize(s).graph.degree_sequence() == s



def test_trace_is_informative():
    res = check_realized("(6,4^5,3^4)")
    assert res.trace
    assert all(isinstance(line, str) for line in res.trace)


def _is_exception(d):
    """The exception families, written out apart from `classify`:
    (n-3, 3^(n-1)), and (k, 3^k) and (k, k, 3^(k-1)) for odd k = n-1."""
    n = len(d)
    odd_top = d[0] == n - 1 and d[0] % 2 == 1
    return ((set(d[1:]) == {3} and (d[0] == n - 3 or odd_top))
            or (odd_top and d[1] == d[0] and set(d[2:]) == {3}))


_GAP = {Route.T12: 1, Route.L41: 2, Route.T14: 3}


@st.composite
def covered_sequences(draw):
    """A covered sequence and its route, drawn route first and graphic by
    construction: vertex 0 gets the route's d1 and a random neighbourhood,
    the other vertices a Hamiltonian cycle, and then edges among them lift
    every degree into [3, d1], add random extras, keep at most five 3s on
    T15 and move the sequence off the exception families."""
    route = draw(st.sampled_from(list(Route)))
    n = draw(st.integers({Route.T12: 5, Route.L41: 6, Route.T14: 7,
                          Route.T15: 8}[route], 12))
    top = n - _GAP[route] if route in _GAP else draw(st.integers(4, n - 4))
    order = draw(st.permutations(range(1, n)))
    edges, deg = set(), [0] * n

    def join(u, v):
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1

    def free(u, degree=None):
        """Non-neighbours of u below degree top, lowest degree first."""
        return sorted((w for w in range(1, n) if w != u
                       and (min(u, w), max(u, w)) not in edges
                       and deg[w] < top and degree in (None, deg[w])),
                      key=deg.__getitem__)

    for v in order[:top]:
        join(0, v)
    for u, v in zip(order, order[1:] + order[:1]):
        join(u, v)
    for u in order:
        if deg[u] < 3:
            join(u, free(u)[0])
    pairs = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1))
    for u, v in draw(st.lists(pairs, max_size=2 * n)):
        if deg[u] < top and v in free(u):
            join(u, v)
    while ((route is Route.T15 and deg.count(3) > 5)
           or _is_exception(sorted(deg, reverse=True))):
        u = next(w for w in range(1, n) if deg[w] == 3 and free(w, 3))
        join(u, free(u, 3)[0])
    return DegreeSequence.of(deg), route


@settings(max_examples=100, deadline=None)
@given(covered_sequences())
def test_generated_covered_sequences_are_realized_and_confirmed(drawn):
    seq, route = drawn
    assert classify(seq) == Classification(Kind.COVERED, route=route)
    check_realized(seq.render())
