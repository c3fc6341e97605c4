"""Exhaustive group-connectivity oracle over the group Z3.

A graph is Z3-connected when for every zero-sum target b: V -> Z3 there is
an orientation together with a nowhere-zero flow value in {1,2} per edge
whose boundary (out minus in, mod 3) equals b at every vertex.  Assigning
value 2 along an edge is the same as assigning 1 against it, so searching
flow values {1,2} on a fixed reference orientation covers all orientations.

The oracle runs a reachable-boundary dynamic program: process edges one at
a time and track which boundaries are hit.  Every boundary sums to 0 mod 3,
so the last vertex's value is fixed by the others and the state is a flat
boolean array over the 3^(n-1) zero-sum boundaries.  Each edge is one pass
of nine slice ORs (three at the last vertex) from one buffer into another.
The graph is Z3-connected iff every zero-sum boundary is reachable.
Yes/no answers keep only the two buffers and stop early once the set is
full; only `solve_boundary` keeps one layer per edge, for its witness.
State space is exponential, so calls are capped (default n <= 14).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .graph import Multigraph

DEFAULT_CAP = 14


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


def _check_cap(G: Multigraph, cap: int):
    if G.n > cap:
        raise OracleCapError(f"oracle limited to n<={cap}, got n={G.n}")


def _step(cur: np.ndarray, nxt: np.ndarray, n: int, u: int, v: int):
    """Write into nxt the zero-sum states reachable from cur through one
    more edge uv carrying value 1 or 2.

    Value a on uv and value -a give the same two moves, so the orientation
    does not matter: target values (i, j) at the two endpoints come from
    (i+1, j+2) and (i+2, j+1).  Vertex n-1 has no axis (its value is fixed
    by the zero sum), so an edge there moves only the other endpoint's
    axis, to each of its two other values.
    """
    p, q = sorted((u, v))
    if q == n - 1:
        c = cur.reshape(3 ** p, 3, -1)
        x = nxt.reshape(3 ** p, 3, -1)
        for i in range(3):
            np.bitwise_or(c[:, (i + 1) % 3], c[:, (i + 2) % 3], out=x[:, i])
        return
    shape = (3 ** p, 3, 3 ** (q - p - 1), 3, -1)
    c = cur.reshape(shape)
    x = nxt.reshape(shape)
    for i in range(3):
        for j in range(3):
            np.bitwise_or(c[:, (i + 1) % 3, :, (j + 2) % 3],
                          c[:, (i + 2) % 3, :, (j + 1) % 3],
                          out=x[:, i, :, j])


def _start(n: int) -> np.ndarray:
    """The zero-edge layer: only the all-zero boundary (flat index 0)."""
    S = np.zeros(3 ** (n - 1), dtype=bool)
    S[0] = True
    return S


def _reach(G: Multigraph) -> np.ndarray:
    """Reachable zero-sum boundaries of G as a flat array of 3^(n-1) flags.

    Two buffers take turns.  The loop returns as soon as every state is
    reachable, since adding edges keeps a full set full.  After k edges at
    most 2^k states are reachable, so fullness is tested only from the
    first k with 2^k >= 3^(n-1).
    """
    cur = _start(G.n)
    nxt = np.empty_like(cur)
    first_check = (cur.size - 1).bit_length()
    for k, (u, v) in enumerate(G.edges, 1):
        _step(cur, nxt, G.n, u, v)
        cur, nxt = nxt, cur
        if k >= first_check and cur.all():
            break
    return cur


def reachable_boundaries(G: Multigraph, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Boolean array over Z3^n marking every achievable flow boundary."""
    _check_cap(G, cap)
    reach = _reach(G)
    # the last value of zero-sum state (b_0..b_(n-2)) is -(b_0+...+b_(n-2))
    last = np.zeros(1, dtype=np.int8)
    for _ in range(G.n - 1):
        last = ((last[:, None] - np.arange(3, dtype=np.int8)) % 3).ravel()
    full = np.zeros((reach.size, 3), dtype=bool)
    for r in range(3):
        full[:, r] = reach & (last == r)
    return full.reshape((3,) * G.n)


def is_z3_connected(G: Multigraph, cap: int = DEFAULT_CAP) -> bool:
    """Whether every zero-sum boundary is achievable.

    Disconnected graphs are never Z3-connected and are rejected before the
    dynamic program runs, as are graphs with 2^m < 3^(n-1): m edges reach
    at most 2^m boundaries.
    """
    _check_cap(G, cap)
    if G.n == 1:
        return True
    if not G.is_connected() or 2 ** G.m < 3 ** (G.n - 1):
        return False
    return bool(_reach(G).all())


def solve_boundary(G: Multigraph, b: ZeroSumFunction,
                   cap: int = DEFAULT_CAP) -> FlowAssignment | None:
    """A flow with the given boundary, or None when unreachable.

    Keeps one zero-sum layer per edge, then walks the dynamic program
    backwards from the target through them to recover one witness
    assignment.
    """
    _check_cap(G, cap)
    if len(b.values) != G.n:
        raise ValueError("boundary length must match vertex count")
    n = G.n
    layers = [_start(n)]
    for u, v in G.edges:
        layers.append(np.empty_like(layers[-1]))
        _step(layers[-2], layers[-1], n, u, v)
    # flat index of a boundary; vertex n-1 has no axis
    stride = [3 ** (n - 2 - i) for i in range(n - 1)] + [0]

    def index(state):
        return sum(s * t for s, t in zip(state, stride))

    state = list(b.values)
    if not layers[-1][index(state)]:
        return None
    values = []
    for i in range(G.m - 1, -1, -1):
        u, v = G.edges[i]
        for a in (1, 2):
            cand = list(state)
            cand[u] = (cand[u] - a) % 3
            cand[v] = (cand[v] + a) % 3
            if layers[i][index(cand)]:
                break
        else:
            raise RuntimeError("witness reconstruction failed")
        values.append(a)
        state = cand
    values.reverse()
    return FlowAssignment(tuple(values))


def has_modular_3_orientation(G: Multigraph,
                              cap: int = DEFAULT_CAP) -> list[bool] | None:
    """An orientation with outdegree congruent to indegree mod 3 everywhere.

    Returns a per-edge reversal list against the reference orientation, or
    None when no such orientation exists.  Such an orientation exists iff
    the all-zero boundary is achievable: value 2 on an edge acts exactly
    like value 1 on the reversed edge.
    """
    flow = solve_boundary(G, ZeroSumFunction((0,) * G.n), cap)
    if flow is None:
        return None
    return [f == 2 for f in flow.values]


def is_3_flowable(G: Multigraph, cap: int = DEFAULT_CAP) -> bool:
    """Whether G admits a nowhere-zero 3-flow (the zero-boundary case)."""
    _check_cap(G, cap)
    return bool(_reach(G)[0])
