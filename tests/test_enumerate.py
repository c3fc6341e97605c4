import itertools
import random

import pytest

import z3conn.enumerate
from z3conn.enumerate import (EnumerationCapError, _realizations,
                              all_realizations, count_isomorphism_classes,
                              first_z3_connected, verify_exception)
from z3conn.seqcore import (DegreeSequence, is_graphic, no_z3_realization,
                            parse_sequence)
from z3conn.verifier import is_z3_connected

from helpers import brute_force_graphic, erdos_gallai_reference


def seq(text):
    return parse_sequence(text)


def test_erdos_gallai_against_reference():
    # raw nonincreasing lists as enumeration prunes on: zeros allowed, and
    # entries up to n so that d1 > n-1 is exercised too
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 8)
        degrees = sorted((rng.randint(0, n) for _ in range(n)),
                         reverse=True)
        assert is_graphic(degrees) == erdos_gallai_reference(degrees)


def labeled_count(s):
    return sum(1 for _ in all_realizations(s))


def test_labeled_counts_frozen():
    # counted independently by brute force over all edge subsets below
    assert labeled_count(seq("(3^4)")) == 1
    assert labeled_count(seq("(4,3^4)")) == 3
    assert labeled_count(seq("(5,3^5)")) == 12
    assert labeled_count(seq("(5^2,3^4)")) == 3
    assert labeled_count(seq("(4^2,3^4)")) == 31
    assert labeled_count(seq("(3^6)")) == 70
    assert labeled_count(seq("(4,3^6)")) == 810


def test_labeled_counts_match_subset_brute_force():
    for text in ["(3^4)", "(4,3^4)", "(5,3^5)", "(4^2,3^4)", "(3^6)"]:
        s = seq(text)
        want = sorted(s.degrees, reverse=True)
        pairs = list(itertools.combinations(range(s.n), 2))
        count = 0
        for subset in itertools.product((0, 1), repeat=len(pairs)):
            deg = [0] * s.n
            for bit, (u, v) in zip(subset, pairs):
                if bit:
                    deg[u] += 1
                    deg[v] += 1
            if deg == list(s.degrees):
                count += 1
        # brute force counts one labeling order; enumeration assigns degrees
        # positionally, so both count graphs with degree(i) == degrees[i]
        assert labeled_count(s) == count


def test_realizations_have_right_degrees_and_are_distinct():
    s = seq("(4,3^6)")
    seen = set()
    for G in all_realizations(s):
        assert G.is_simple()
        assert tuple(G.degrees()) == s.degrees
        assert G.edges not in seen
        seen.add(G.edges)


def test_isomorphism_class_counts_frozen():
    assert count_isomorphism_classes(seq("(3^4)")) == 1
    assert count_isomorphism_classes(seq("(4,3^4)")) == 1
    assert count_isomorphism_classes(seq("(5,3^5)")) == 1
    assert count_isomorphism_classes(seq("(5^2,3^4)")) == 1
    assert count_isomorphism_classes(seq("(3^6)")) == 2
    assert count_isomorphism_classes(seq("(4^2,3^4)")) == 3
    assert count_isomorphism_classes(seq("(4,3^6)")) == 4


def test_dedup_representatives_are_nonisomorphic():
    import networkx as nx
    reps = list(all_realizations(seq("(4,3^6)"), dedup=True))
    assert len(reps) == 4
    nX = [nx.MultiGraph(list(G.edges)) for G in reps]
    for a, b in itertools.combinations(nX, 2):
        assert not nx.is_isomorphic(a, b)


def test_dedup_crosses_exact_canonical_cutoff():
    # a dominating vertex plus a forced matching: 15 labeled graphs, all
    # isomorphic, at n=8 and n=9 alike
    s8 = seq("(7,2^6,1)")
    s9 = seq("(8,2^6,1^2)")
    assert sum(1 for _ in all_realizations(s8)) == 15
    assert count_isomorphism_classes(s8) == 1
    assert sum(1 for _ in all_realizations(s9)) == 15
    assert count_isomorphism_classes(s9) == 1


def test_limit_and_cap():
    assert len(list(all_realizations(seq("(3^6)"), limit=5))) == 5
    with pytest.raises(EnumerationCapError):
        list(all_realizations(seq("(3^14)")))


def test_nongraphic_enumerates_empty():
    assert list(all_realizations(DegreeSequence((3, 3, 1, 1)))) == []


def test_verify_exception_families():
    # the n = 8 members (5,3^7), (7,3^7) and (7^2,3^6) have up to 9 660
    # labeled realizations each
    for text in ["(3^4)", "(5,3^5)", "(5^2,3^4)",
                 "(5,3^7)", "(7,3^7)", "(7^2,3^6)"]:
        assert verify_exception(seq(text)), text
    with pytest.raises(ValueError):
        verify_exception(seq("(4,3^4)"))
    with pytest.raises(ValueError):
        verify_exception(seq("(3,1,1,1)"))


def test_first_z3_connected_scans_in_labeled_order():
    s = seq("(5,4,3^3,2)")
    G, tried = first_z3_connected(s)
    assert tried == 3
    assert G == list(all_realizations(s))[3] and is_z3_connected(G)
    assert first_z3_connected(s, limit=2) == (None, 2)
    assert first_z3_connected(seq("(5,3^5)")) == (None, 1)
    assert first_z3_connected(DegreeSequence((3, 3, 1, 1))) == (None, 0)
    with pytest.raises(EnumerationCapError):
        first_z3_connected(seq("(4^14)"))


def test_the_sequence_rule_builds_no_candidate(monkeypatch):
    # sparse sequences stop before the scan and its size cap, so the whole
    # (n-3, 3^(n-1)) family is confirmed at any n
    def forbidden(*args, **kwargs):
        raise AssertionError("a candidate was built")

    monkeypatch.setattr(z3conn.enumerate, "_realizations", forbidden)
    assert verify_exception(seq("(17,3^19)"))
    assert first_z3_connected(seq("(4,3^6)")) == (None, 0)


def test_the_sequence_rule_agrees_with_the_scan():
    # every graphic sequence with n <= 8 that no_z3_realization rejects:
    # the scan it replaces (every labeled realization up to swapping twins,
    # which keeps the first Z3-connected one) finds no Z3-connected graph.
    # For the dense ones, all with an entry 1, the oracle runs its DP; the
    # sparse ones meet Lemma A, which test_lemma_a_against_the_dp checks
    fired = dense = 0
    for n in range(1, 9):
        for s in sequences_with_positive_degrees(n):
            if no_z3_realization(s) is None:
                continue
            fired += 1
            dense += sum(s.degrees) >= 4 * n - 4
            assert not any(map(is_z3_connected,
                               _realizations(s, twins=True))), s.render()
    assert (fired, dense) == (668, 198)


def sequences_with_positive_degrees(n):
    for degrees in itertools.combinations_with_replacement(range(n - 1, 0, -1), n):
        if is_graphic(degrees):
            yield DegreeSequence(degrees)


def test_twin_pruning_keeps_the_first_graph_of_every_class():
    # the twin-pruned search behind first_z3_connected and dedup=True must
    # find what a scan of every labeled realization finds
    import networkx as nx
    checked = 0
    for n in range(1, 8):
        for s in sequences_with_positive_degrees(n):
            want = next((G for G in all_realizations(s) if is_z3_connected(G)),
                        None)
            assert first_z3_connected(s)[0] == want, s.render()
            checked += 1
            if n > 6:
                continue
            reps, classes = [], []
            for G in all_realizations(s):
                H = nx.Graph()
                H.add_nodes_from(range(n))
                H.add_edges_from(G.edges)
                if not any(nx.is_isomorphic(H, K) for K in classes):
                    classes.append(H)
                    reps.append(G)
            assert list(all_realizations(s, dedup=True)) == reps, s.render()
    assert checked == 341
