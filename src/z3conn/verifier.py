"""Exhaustive group-connectivity oracle over the group Z3.

A graph is Z3-connected when for every zero-sum target b: V -> Z3 there is
an orientation together with a nowhere-zero flow value in {1,2} per edge
whose boundary (out minus in, mod 3) equals b at every vertex.  Assigning
value 2 along an edge is the same as assigning 1 against it, so searching
flow values {1,2} on a fixed reference orientation covers all orientations.

The oracle runs a reachable-boundary dynamic program: process edges one at
a time and track which boundaries are hit.  Every boundary sums to 0 mod 3,
so the last vertex's value is fixed by the others and the state set is a
Python int bitset: bit i flags the zero-sum boundary with flat index i
(vertex p < n-1 has stride 3^(n-2-p)).  Each edge is a few shift-and-mask
operations against digit masks cached once per n.  Yes/no answers stop
early once the set is full; only `solve_boundary` keeps one int per edge,
for its witness.  Every entry point refuses graphs with more than
`ORACLE_N_MAX` vertices: the set holds 3^(n-1) bits, so each further
vertex triples time and memory.
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
    """Per vertex p < n-1: its stride s = 3^(n-2-p) and m0, the flags of
    the states whose digit p is 0 (s ones with period 3s, grown by tripling;
    the digit-2 flags are m0 << 2s and are not stored)."""
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


def _up(S: int, s: int, m0: int) -> int:
    hi = S & (m0 << 2 * s)  # +1 mod 3 at the digit with stride s; 2 wraps
    return ((S ^ hi) << s) | (hi >> 2 * s)


def _down(S: int, s: int, m0: int) -> int:
    lo = S & m0  # -1 mod 3 at the digit with stride s; 0 wraps
    return ((S ^ lo) >> s) | (lo << 2 * s)


def _step(S: int, masks, u: int, v: int) -> int:
    """The zero-sum states reachable from S through one more edge uv.

    Values 1 and 2 give +1 at one endpoint and -1 at the other, either way
    round, so the orientation does not matter.  Vertex n-1 has no digit:
    an edge there moves only the other endpoint's digit, by +1 or -1."""
    p, q = sorted((u, v))
    if q == len(masks):
        return _up(S, *masks[p]) | _down(S, *masks[p])
    return (_up(_down(S, *masks[q]), *masks[p])
            | _down(_up(S, *masks[q]), *masks[p]))


def _reach(G: Multigraph) -> int:
    """Reachable zero-sum boundaries of G as an int of 3^(n-1) flags.

    Stops once the set is full, which more edges keep full; k edges reach
    at most 2^k states, so fullness is tested only once 2^k >= 3^(n-1)."""
    masks = _masks(G.n)
    size = 3 ** (G.n - 1)
    full = (1 << size) - 1
    first_check = (size - 1).bit_length()
    S = 1  # no edges yet: only the all-zero boundary (flat index 0)
    for k, (u, v) in enumerate(G.edges, 1):
        S = _step(S, masks, u, v)
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
    return ReachableBoundaries(G.n, _reach(G))


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

    Keeps one zero-sum layer per edge, then walks the dynamic program
    backwards from the target through them to recover one witness.
    """
    _check_size(G)
    if len(b.values) != G.n:
        raise ValueError("boundary length must match vertex count")
    masks = _masks(G.n)
    layers = [1]
    for u, v in G.edges:
        layers.append(_step(layers[-1], masks, u, v))
    state = list(b.values)
    if not layers[-1] >> _flat(state) & 1:
        return None
    values = [0] * G.m
    for i in reversed(range(G.m)):
        u, v = G.edges[i]
        for a in (1, 2):
            cand = list(state)
            cand[u] = (cand[u] - a) % 3
            cand[v] = (cand[v] + a) % 3
            if layers[i] >> _flat(cand) & 1:
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
