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
descending order of p.  While the edges at label p run, every digit with a
smaller label is still 0, so the set is three ints of 3^(n-2-p) flags, one
per value of digit p: an edge moves digit p by renaming them, and its other
end by a few shift-and-mask operations on each against digit masks cached
once per n.  An int costs its own length, so the DP does about sum over
edges of 3^(n-1-p) bit operations rather than m * 3^(n-1), and only the
lowest-degree vertex's edges run at full width.  Yes/no answers stop early
once the set is full; only `solve_boundary` keeps the slices after each
edge, for its witness, which it maps back to the input edges.
`reachable_boundaries` runs the same DP in the input labels.
Every entry point refuses graphs with more than `ORACLE_N_MAX` vertices:
the last edges run at 3^(n-1) bits, so each further vertex triples time
and memory.

`is_z3_connected` answers without the DP when G is disconnected or when
m < 2n - 2, by Lemma A: every Z3-connected loopless multigraph has
m >= 2n - 2.  Proof: value 2 along an edge is value 1 against it, so G
is Z3-connected iff for every zero-sum b some orientation has
out(v) - in(v) = b(v) mod 3 at every v, that is out(v) = gamma(v) :=
2(b(v) + deg v) mod 3; as b runs over the zero-sum targets, gamma runs
over every gamma with sum gamma = m mod 3.  Take gamma = 2 at every
vertex but one: an orientation that meets it has out(v) >= 2 at n - 1
vertices, so m = sum out(v) >= 2(n - 1).  Even wheels attain
m = 2n - 2, so the bound is sharp; the paper's exception family
(n-3, 3^(n-1)) has m = 2n - 3.
"""
from __future__ import annotations

import dataclasses
import functools

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
    """Per label p < n-1: stride s = 3^(n-2-p) and m0, the flags of states
    with digit p 0 (s ones with period 3s, tripled to 3^(n-2) bits, the
    widest slice); the DP reads slice X's digit-2 flags as (X >> 2s) & m0."""
    size = 3 ** (n - 2)
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


def _reach(G: Multigraph, label=None, layers=None) -> int:
    """Reachable zero-sum boundaries of G as an int of 3^(n-1) flags, by
    flat index in `label` (the degree order when None).

    At label p the set is slices S0, S1, S2 of s = 3^(n-2-p) flags, by
    digit p.  Values 1 and 2 give +1 at one end and -1 at the other, either
    way round, so an edge to digit q rotates each slice by -1 (D) and +1
    (U) at q and sets S'_a = D_(a-1) | U_(a+1); an edge to vertex n-1 sets
    S'_a = S_(a-1) | S_(a+1).  A lower label joins the slices into one int,
    its slice 0.  With `layers`, appends (edge index, s, slices) after each
    edge; else stops once the set is full, which more edges keep full.
    Before label 0 each slice is narrower than `full`, so the test fails
    on the int sizes alone."""
    if label is None:
        label = _degree_labels(G)
    masks = _masks(G.n)
    plan = []
    for i, (u, v) in enumerate(G.edges):
        p, q = sorted((label[u], label[v]))
        plan.append((masks[p][0], i, masks[q] if q < len(masks) else None))
    plan.sort(key=lambda t: t[0])  # descending label p: ascending stride
    full = (1 << 3 ** (G.n - 1) // 3) - 1  # one full slice at label 0
    S0, S1, S2, s = 1, 0, 0, 0
    for ps, i, far in plan:
        if ps != s:
            S0, S1, S2, s = S0 | S1 << s | S2 << 2 * s, 0, 0, ps
        if far is None:
            S0, S1, S2 = S1 | S2, S2 | S0, S0 | S1
        else:  # x & n0: digit q is 0; (x >> t2) & n0: digit q is 2
            t, n0 = far
            t2 = 2 * t
            lo0, lo1, lo2 = S0 & n0, S1 & n0, S2 & n0
            hi0, hi1, hi2 = (S0 >> t2) & n0, (S1 >> t2) & n0, (S2 >> t2) & n0
            S0, S1, S2 = (
                ((S2 ^ lo2) >> t) | lo2 << t2 | ((S1 ^ hi1 << t2) << t) | hi1,
                ((S0 ^ lo0) >> t) | lo0 << t2 | ((S2 ^ hi2 << t2) << t) | hi2,
                ((S1 ^ lo1) >> t) | lo1 << t2 | ((S0 ^ hi0 << t2) << t) | hi0)
        if layers is not None:
            layers.append((i, s, (S0, S1, S2)))
        elif S0 == full and S1 == full and S2 == full:
            break
    return S0 | S1 << s | S2 << 2 * s


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

    Graphs with m < 2n - 2 (Lemma A, in the module docstring) and
    disconnected graphs are rejected before the dynamic program runs.
    """
    _check_size(G)
    if G.m < 2 * G.n - 2 or not G.is_connected():
        return False
    return oracle_verdict(G)[0]


def solve_boundary(G: Multigraph, b: ZeroSumFunction) -> FlowAssignment | None:
    """A flow with the given boundary, or None when unreachable.

    Keeps the slices after each edge, in the DP's degree order, then walks
    back from the target through them to recover one witness; each step
    moves two digits, so a candidate's flat index is the current one plus
    those digits' changes times their strides.
    """
    _check_size(G)
    if len(b.values) != G.n:
        raise ValueError("boundary length must match vertex count")
    label = _degree_labels(G)
    layers = [(None, 1, (1, 0, 0))]  # no edges: the zero boundary alone
    _reach(G, label, layers)
    state = [0] * G.n
    for v, t in enumerate(b.values):
        state[label[v]] = t
    stride = [3 ** (G.n - 2 - p) for p in range(G.n - 1)] + [0]
    index = _flat(state)
    if not _flag(layers[-1], index):
        return None
    values = [0] * G.m
    for k in reversed(range(G.m)):
        i = layers[k + 1][0]
        u, v = (label[x] for x in G.edges[i])
        for a in (1, 2):
            du, dv = (state[u] - a) % 3, (state[v] + a) % 3
            cand = (index + (du - state[u]) * stride[u]
                    + (dv - state[v]) * stride[v])
            if _flag(layers[k], cand):
                break
        else:
            raise RuntimeError("witness reconstruction failed")
        values[i] = a
        state[u], state[v], index = du, dv, cand
    return FlowAssignment(tuple(values))


def _flag(layer, index: int) -> bool:
    """Whether a stored layer (edge index, s, slices) flags `index`."""
    _, s, slices = layer
    a, r = divmod(index, s)
    return a < 3 and bool(slices[a] >> r & 1)


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
    return oracle_verdict(G)[1]


def oracle_verdict(G: Multigraph) -> tuple[bool, bool]:
    """Whether G is Z3-connected and whether it is 3-flowable, from one DP
    run: only a full set is Z3-connected; bit 0 flags the zero boundary."""
    _check_size(G)
    S = _reach(G)
    return S == (1 << 3 ** (G.n - 1)) - 1, bool(S & 1)
