"""Exhaustive group-connectivity oracle over the group Z3.

A graph is Z3-connected when for every zero-sum target b: V -> Z3 there is
an orientation together with a nowhere-zero flow value in {1,2} per edge
whose boundary (out minus in, mod 3) equals b at every vertex.  Assigning
value 2 along an edge is the same as assigning 1 against it, so searching
flow values {1,2} on a fixed reference orientation covers all orientations.

The oracle runs a reachable-boundary dynamic program: process edges one at
a time and track which boundaries are hit.  Every boundary sums to 0 mod 3,
so one vertex's value is fixed by the others and the state set is a Python
int bitset over the other n-1 digits.  The DP relabels the vertices for
itself: sorted by degree, ascending, ties by label, so the highest-degree
vertex becomes n-1 and has no digit, and label p < n-1 has stride
3^(n-2-p); bit i flags the zero-sum boundary with flat index i in those
labels.  Each edge is taken at the smaller label p of its ends, in
descending order of p, as a few shift-and-mask operations against digit
masks cached once per n.  While the edges at label p run, every digit
with a smaller label is still 0, so the set fits in 3^(n-1-p) bits; an int
costs its own length, so the DP does about sum over edges of
3^(n-1-p) bit operations rather than m * 3^(n-1), and only the
lowest-degree vertex's edges run at full width.  Yes/no answers stop early
once the set is full; only `solve_boundary` keeps one int per edge, for its
witness, which it maps back to the input edges.  `reachable_boundaries`
runs the same DP in the input labels, so its flags index input boundaries.
Every entry point refuses graphs with more than `ORACLE_N_MAX` vertices:
the last edges run at 3^(n-1) bits, so each further vertex triples time
and memory.
"""
from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterator

from .graph import Multigraph

ORACLE_N_MAX = 14


class OracleCapError(ValueError):
    """Graph too large for the exhaustive oracle."""


@dataclasses.dataclass(frozen=True)
class ZeroSumFunction:
    """A target b: V -> Z3 with values summing to 0 mod 3."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (0, 1, 2) for v in self.values):
            raise ValueError("values must lie in {0,1,2}")
        if sum(self.values) % 3 != 0:
            raise ValueError("values must sum to 0 mod 3")


@dataclasses.dataclass(frozen=True)
class FlowAssignment:
    """Per-edge values in {1,2} on the reference orientation."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (1, 2) for v in self.values):
            raise ValueError("flow values must lie in {1,2}")


def boundary(G: Multigraph, flow: FlowAssignment) -> ZeroSumFunction:
    """Boundary of a flow: at each vertex, outgoing minus incoming mod 3."""
    if len(flow.values) != G.m:
        raise ValueError("flow length must match edge count")
    b = [0] * G.n
    for (u, v), f in zip(G.edges, flow.values):
        b[u] = (b[u] + f) % 3
        b[v] = (b[v] - f) % 3
    return ZeroSumFunction(tuple(b))


def _check_size(G: Multigraph):
    if G.n > ORACLE_N_MAX:
        raise OracleCapError(
            f"oracle limited to n<={ORACLE_N_MAX}, got n={G.n}")


@functools.cache
def _masks(n: int) -> tuple[tuple[int, int], ...]:
    """Per label p < n-1: its stride s = 3^(n-2-p) and m0, the flags of
    the states whose digit p is 0 (s ones with period 3s, grown by
    tripling).  The DP reads a set X's digit-2 flags as (X >> 2s) & m0."""
    size = 3 ** (n - 1)
    masks = []
    for p in range(n - 1):
        s = 3 ** (n - 2 - p)
        m0, L = (1 << s) - 1, 3 * s
        while L < size:
            m0 |= (m0 << L) | (m0 << 2 * L)
            L *= 3
        masks.append((s, m0))
    return tuple(masks)


def _degree_labels(G: Multigraph) -> list[int]:
    """The DP label of each vertex: vertices sorted by degree, ascending,
    ties by label, so the highest-degree vertex is n-1 and has no digit."""
    deg = G.degrees()
    label = [0] * G.n
    for new, v in enumerate(sorted(range(G.n), key=deg.__getitem__)):
        label[v] = new
    return label


def _layers(G: Multigraph, label) -> Iterator[tuple[int, int]]:
    """The DP with vertex v at digit label[v]: yields (edge index, set)
    after each edge, taking each edge at the smaller label of its ends, in
    descending order of that label (input order among equals).

    Values 1 and 2 give +1 at one end and -1 at the other, either way
    round, so the orientation does not matter.  Every edge so far has both
    labels >= p, so the digits with labels below p are 0 and every operand
    fits in 3^(n-1-p) bits: (X >> 2s) & m0 and X & m0 are as short as X,
    and no step builds a full-width mask."""
    masks = _masks(G.n)
    plan = []
    for i, (u, v) in enumerate(G.edges):
        p, q = sorted((label[u], label[v]))
        plan.append((p, i, masks[p], masks[q] if q < len(masks) else None))
    plan.sort(key=lambda t: -t[0])
    S = 1  # no edges yet: only the all-zero boundary (flat index 0)
    for _, i, (s, m0), far in plan:
        X = Y = S  # an edge to vertex n-1 moves digit p alone
        if far is not None:  # X: -1 at the far digit, Y: +1 there
            t, n0 = far
            lo = S & n0
            X = ((S ^ lo) >> t) | (lo << 2 * t)
            hi = (S >> 2 * t) & n0
            Y = ((S ^ (hi << 2 * t)) << t) | hi
        hi = (X >> 2 * s) & m0  # then +1 at digit p on X, -1 on Y
        X = ((X ^ (hi << 2 * s)) << s) | hi
        lo = Y & m0
        S = X | ((Y ^ lo) >> s) | (lo << 2 * s)
        yield i, S


def _reach(G: Multigraph, label=None) -> int:
    """Reachable zero-sum boundaries of G as an int of 3^(n-1) flags, by
    flat index in `label` (the degree order when None).

    Stops once the set is full, which more edges keep full; k edges reach
    at most 2^k states, so fullness is tested only once 2^k >= 3^(n-1)."""
    if label is None:
        label = _degree_labels(G)
    size = 3 ** (G.n - 1)
    full = (1 << size) - 1
    first_check = (size - 1).bit_length()
    S = 1
    for k, (_, S) in enumerate(_layers(G, label), 1):
        if k >= first_check and S == full:
            break
    return S


@dataclasses.dataclass(frozen=True)
class ReachableBoundaries:
    """The achievable flow boundaries of an n-vertex graph: `reach[b]`
    says whether the boundary tuple b over Z3^n is one of them."""
    n: int
    flags: int  # bit i: the zero-sum boundary with flat index i

    def __getitem__(self, b: tuple[int, ...]) -> bool:
        if len(b) != self.n or not set(b) <= {0, 1, 2}:
            raise IndexError(f"not a boundary over Z3^{self.n}: {b}")
        return sum(b) % 3 == 0 and bool(self.flags >> _flat(b) & 1)


def _flat(b) -> int:
    """Flat index of a zero-sum boundary; vertex n-1 has no digit."""
    return sum(t * 3 ** (len(b) - 2 - p) for p, t in enumerate(b[:-1]))


def reachable_boundaries(G: Multigraph) -> ReachableBoundaries:
    """Every achievable flow boundary of G, indexed by boundary tuple."""
    _check_size(G)
    return ReachableBoundaries(G.n, _reach(G, range(G.n)))


def is_z3_connected(G: Multigraph) -> bool:
    """Whether every zero-sum boundary is achievable.

    Disconnected graphs are never Z3-connected and are rejected before the
    dynamic program runs, as are graphs with 2^m < 3^(n-1): m edges reach
    at most 2^m boundaries.
    """
    _check_size(G)
    if not G.is_connected() or 2 ** G.m < 3 ** (G.n - 1):
        return False
    return _reach(G) == (1 << 3 ** (G.n - 1)) - 1


def solve_boundary(G: Multigraph, b: ZeroSumFunction) -> FlowAssignment | None:
    """A flow with the given boundary, or None when unreachable.

    Keeps one zero-sum layer per edge, in the DP's degree order, then
    walks back from the target through them to recover one witness.
    """
    _check_size(G)
    if len(b.values) != G.n:
        raise ValueError("boundary length must match vertex count")
    label = _degree_labels(G)
    order, layers = [], [1]
    for i, S in _layers(G, label):
        order.append(i)
        layers.append(S)
    state = [0] * G.n
    for v, t in enumerate(b.values):
        state[label[v]] = t
    if not layers[-1] >> _flat(state) & 1:
        return None
    values = [0] * G.m
    for k in reversed(range(G.m)):
        i = order[k]
        u, v = (label[x] for x in G.edges[i])
        for a in (1, 2):
            cand = list(state)
            cand[u] = (cand[u] - a) % 3
            cand[v] = (cand[v] + a) % 3
            if layers[k] >> _flat(cand) & 1:
                break
        else:
            raise RuntimeError("witness reconstruction failed")
        values[i] = a
        state = cand
    return FlowAssignment(tuple(values))


def has_modular_3_orientation(G: Multigraph) -> list[bool] | None:
    """An orientation with outdegree congruent to indegree mod 3 everywhere.

    Returns a per-edge reversal list against the reference orientation, or
    None when no such orientation exists.  Such an orientation exists iff
    the all-zero boundary is achievable: value 2 on an edge acts exactly
    like value 1 on the reversed edge.
    """
    flow = solve_boundary(G, ZeroSumFunction((0,) * G.n))
    return None if flow is None else [f == 2 for f in flow.values]


def is_3_flowable(G: Multigraph) -> bool:
    """Whether G admits a nowhere-zero 3-flow (the zero-boundary case)."""
    _check_size(G)
    return bool(_reach(G) & 1)
