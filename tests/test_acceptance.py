"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS line on
success (visible with `pytest -s` or in captured output).  Criteria:

1. Known-graph fact suite for the exhaustive oracle.
2. The seven catalog figure graphs are Z3-connected.
3. Every covered sequence with 6 <= n <= 10 realizes and verifies.
4. Exception families confirmed by exhaustive enumeration.
5. Flow equivalence on the cubic / near-cubic corpus up to n = 8.
6. Dynamic-program oracle agrees with brute force on random multigraphs.
7. Closure-rule properties hold on random oracle-checked instances.
8. Realized graphs are deterministic, matching stored golden files.
"""
import io
import itertools
import pathlib
import random
import time
from contextlib import redirect_stdout

from z3conn.builder import realize
from z3conn.catalog import base_graph, wheel
from z3conn.cli import main as cli_main
from z3conn.enumerate import all_realizations, verify_exception
from z3conn.graph import (Multigraph, build_graph, complete_bipartite,
                          complete_graph, cycle_graph)
from z3conn.reducer import (_apply_step, _State, lift_step, replay,
                            two_cycle_step)
from z3conn.seqcore import classify, parse_sequence
from z3conn.verifier import (has_modular_3_orientation, is_3_flowable,
                             is_z3_connected, reachable_boundaries)
from z3conn.sweep import run_sweep

from helpers import naive_boundaries, quotient, random_multigraph

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDEN_SEQUENCES = [
    "(4,3^4)", "(6,5,4^4,3)", "(5,4,3^5)", "(4^2,3^4)", "(7,4,3^7)",
    "(8,4,3^8)", "(6,6,3^6)", "(7,6,3^7)", "(6,5,4,3^5)", "(5^2,3^6)",
    "(7,5,3^8)", "(7,7,3^8)", "(8,7,3^9)", "(6,4^2,3^6)", "(5,4^2,3^5)",
    "(4^3,3^4)", "(4^6,3^4)", "(5,4^4,3^5)", "(7,4^5,3^5)", "(6,4^7,3^4)",
]


def random_tree(rng, n):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return build_graph(n, edges)


def test_criterion_1_known_graph_facts():
    start = time.time()
    positives = [wheel(4), wheel(6), build_graph(2, [(0, 1), (0, 1)]),
                 complete_graph(5), base_graph("k5minus"), base_graph("k44")]
    negatives = [complete_graph(4), wheel(5), complete_bipartite(2, 3),
                 complete_bipartite(3, 3)]
    rng = random.Random(13)
    negatives += [random_tree(rng, n) for n in (2, 4, 7, 10)]
    negatives += [cycle_graph(k) for k in (3, 4, 5, 6, 9)]
    for G in positives:
        assert is_z3_connected(G)
    for G in negatives:
        assert not is_z3_connected(G)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 known-graph fact suite: PASS ({elapsed:.2f}s)")


def test_criterion_2_figure_catalog():
    names = ["fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b", "fig2c"]
    worst = 0.0
    for name in names:
        start = time.time()
        assert is_z3_connected(base_graph(name)), name
        worst = max(worst, time.time() - start)
    assert worst < 1.0
    print(f"ACCEPTANCE 2 figure catalog Z3-connected: PASS "
          f"(7 graphs, worst {worst:.3f}s)")


def test_criterion_3_construction_sweep():
    start = time.time()
    report = run_sweep(6, 10)
    bad = [row for row in report.rows if not row.ok]
    assert report.checked > 3000
    assert not bad, bad[:3]
    print(f"ACCEPTANCE 3 covered sweep n=6..10: PASS "
          f"({report.checked} sequences, 0 failures, {time.time()-start:.1f}s)")


def test_criterion_4_exception_confirmation():
    # every member of (n-3,3^(n-1)), (k,3^k) and (k^2,3^(k-1)) (k odd) up
    # to the enumeration cap of 12 vertices
    start = time.time()
    members = {f"({n - 3},3^{n - 1})" for n in range(6, 13)}
    members |= {f"({k},3^{k})" for k in range(3, 12, 2)}
    members |= {f"({k}^2,3^{k - 1})" for k in range(3, 12, 2)}
    seqs = {parse_sequence(text) for text in members}
    assert len(seqs) == 16
    for text in ["(3^4)", "(5,3^5)", "(5^2,3^4)", "(3^6)", "(4,3^6)"]:
        assert parse_sequence(text) in seqs, text
    for s in sorted(seqs, key=lambda s: (s.n, s.degrees)):
        assert verify_exception(s), s.render()
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 4 exception families confirmed: PASS "
          f"({len(seqs)} sequences with n <= 12, {elapsed:.1f}s)")


def test_criterion_5_flow_equivalence_corpus():
    corpus_texts = ["(3^4)", "(4,3^4)", "(3^6)", "(4,3^6)", "(4^2,3^4)",
                    "(4^2,3^6)", "(3^8)"]
    checked = 0
    for text in corpus_texts:
        n = parse_sequence(text).n
        zero = (0,) * n
        for G in all_realizations(parse_sequence(text)):
            reach = reachable_boundaries(G)
            flowable = bool(reach[zero])
            assert is_3_flowable(G) == flowable
            assert (has_modular_3_orientation(G) is not None) == flowable
            if is_z3_connected(G):
                assert flowable
            checked += 1
    K33 = complete_bipartite(3, 3)
    assert is_3_flowable(K33) and not is_z3_connected(K33)
    print(f"ACCEPTANCE 5 flow equivalence corpus: PASS "
          f"({checked} graphs, zero disagreements)")


def test_criterion_6_oracle_equivalence():
    start = time.time()
    rng = random.Random(2026)
    for _ in range(200):
        G = random_multigraph(rng, n_max=5, m_max=10)
        arr = reachable_boundaries(G)
        got = {b for b in itertools.product((0, 1, 2), repeat=G.n) if arr[b]}
        assert got == naive_boundaries(G)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 6 oracle vs brute force: PASS "
          f"(200 multigraphs, {elapsed:.1f}s)")


def test_criterion_7_closure_rule_properties():
    rng = random.Random(424)

    def reduced(G, step):
        """G after `step`, applied by the code that replays certificates."""
        state = _State(G)
        assert _apply_step(state, step) is None
        return quotient(state)[0]

    # lifting: Z3-connectivity of the lifted graph implies the original
    done = 0
    while done < 100:
        G = random_multigraph(rng, n_max=5, m_max=12)
        deg, nbrs = G.degrees(), [sorted(s) for s in G.neighbor_sets()]
        triples = [(u, v, w)
                   for u in range(G.n) if deg[u] >= 4
                   for v in nbrs[u] for w in nbrs[u]
                   if v != w and v != u and w != u]
        if not triples:
            continue
        u, v, w = triples[rng.randrange(len(triples))]
        if is_z3_connected(reduced(G, lift_step(u, v, w))):
            assert is_z3_connected(G)
        done += 1

    # contraction: with a Z3-connected piece (a parallel pair) inside,
    # the whole is Z3-connected exactly when the quotient is
    done = 0
    while done < 100:
        G = random_multigraph(rng, n_max=5, m_max=10)
        adj = G.adjacency()
        pairs = [(u, v) for u in range(G.n) for v in range(u + 1, G.n)
                 if adj[u].get(v, 0) >= 2]
        if not pairs:
            continue
        u, v = pairs[rng.randrange(len(pairs))]
        H = reduced(G, two_cycle_step(u, v))
        assert H.n == G.n - 1
        assert is_z3_connected(G) == is_z3_connected(H)
        done += 1

    # spanning subgraph: adding edges preserves Z3-connectivity
    done = 0
    while done < 100:
        H = random_multigraph(rng, n_max=5, m_max=8)
        extra = [tuple(sorted(rng.sample(range(H.n), 2)))
                 for _ in range(rng.randint(1, 3))]
        G = Multigraph(H.n, H.edges + tuple(extra))
        if is_z3_connected(H):
            assert is_z3_connected(G)
        done += 1

    # absorption: attaching a new vertex by >= 2 edges preserves it
    done = 0
    while done < 100:
        G = random_multigraph(rng, n_max=5, m_max=10)
        if not is_z3_connected(G):
            continue
        k = rng.randint(2, 3)
        extra = tuple((rng.randrange(G.n), G.n) for _ in range(k))
        bigger = Multigraph(G.n + 1, G.edges + extra)
        assert is_z3_connected(bigger)
        done += 1

    print("ACCEPTANCE 7 closure-rule properties: PASS "
          "(4 rules x 100 random instances)")


def test_criterion_8_golden_determinism():
    def render(text):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(["realize", text, "--certify"])
        assert code == 0, text
        return out.getvalue()

    for text in GOLDEN_SEQUENCES:
        name = text.strip("()").replace(",", "_").replace("^", "x") + ".txt"
        stored = (GOLDEN_DIR / name).read_text()
        first = render(text)
        second = render(text)
        assert first == second, f"{text} not deterministic"
        assert first == stored, f"{text} differs from golden file {name}"
    print(f"ACCEPTANCE 8 golden determinism: PASS "
          f"({len(GOLDEN_SEQUENCES)} sequences byte-identical)")
