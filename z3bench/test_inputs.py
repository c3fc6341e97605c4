"""The benchmark's inputs: one seed always gives identical inputs, every
generated sequence has the route it was asked for, and every random graph
is simple with minimum degree 3."""
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from z3conn import Kind, classify  # noqa: E402

from gen import ROUTES, covered_sequence, erdos_gallai, havel_hakimi, random_graph  # noqa: E402
from workloads import Large, Verify  # noqa: E402


def test_covered_sequences_take_the_requested_route():
    rng = random.Random(1)
    for route in ROUTES:
        for n in (10, 43, 136):
            seq = covered_sequence(route, n, rng)
            c = classify(seq)
            assert seq.n == n
            assert c.kind is Kind.COVERED and c.route.value == route


def test_one_seed_gives_identical_inputs():
    assert Large().batch() == Large().batch()
    assert Verify().batch() == Verify().batch()
    assert random_graph(12, random.Random(5)) == random_graph(12, random.Random(5))
    assert random_graph(12, random.Random(5)) != random_graph(12, random.Random(6))


def test_large_batch_has_every_route_on_every_grid_size():
    seqs = Large().batch()
    assert sorted((classify(s).route.value, s.n) for s in seqs) == sorted(
        (r, n) for r in ROUTES for n in Large.GRID)


def test_random_graphs_are_simple_with_min_degree_3():
    rng = random.Random(9)
    for n in range(10, 15):
        G = random_graph(n, rng)
        assert G.is_simple()
        assert min(G.degrees()) >= 3


def test_havel_hakimi_realizes_graphic_lists_only():
    for degrees in ([3, 3, 3, 3], [4, 3, 3, 3, 3], [5, 5, 4, 3, 3, 3, 3]):
        assert erdos_gallai(degrees)
        deg = [0] * len(degrees)
        for u, v in havel_hakimi(degrees):
            deg[u] += 1
            deg[v] += 1
        assert deg == degrees
    assert not erdos_gallai([4, 4, 1, 1])
    assert not erdos_gallai([3, 3, 3])
