"""Exhaustive realization sweep: every graphic sequence with minimum
degree 3 in a vertex range is classified, covered ones are realized, and
each realization on at most `ORACLE_N_MAX` vertices is confirmed by the
oracle, independently of its proof.
`realize` itself raises on a construction that is not simple or has the
wrong degrees, and the sweep reports that as an error row."""
from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator

from .builder import realize
from .seqcore import Classification, DegreeSequence, Kind, classify, is_graphic
from .verifier import ORACLE_N_MAX, is_z3_connected


def graphic_sequences(n: int) -> Iterator[DegreeSequence]:
    """All graphic sequences on n vertices with degrees >= 3."""
    for degs in itertools.combinations_with_replacement(range(n - 1, 2, -1), n):
        seq = DegreeSequence(tuple(degs))
        if is_graphic(seq):
            yield seq


@dataclasses.dataclass(frozen=True)
class SweepRow:
    sequence: DegreeSequence
    classification: Classification
    ok: bool
    detail: str


@dataclasses.dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    checked: int
    failed: int


def run_sweep(n_min: int = 6, n_max: int = 10) -> SweepReport:
    """Realize and validate every covered sequence with 1 <= n_min <= n <= n_max."""
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"sweep range n_min={n_min}..n_max={n_max} must "
                         "satisfy 1 <= n_min <= n_max")
    rows = []
    failed = 0
    for n in range(n_min, n_max + 1):
        for seq in graphic_sequences(n):
            c = classify(seq)
            if c.kind is not Kind.COVERED:
                continue
            ok, detail = _check_one(seq)
            if not ok:
                failed += 1
            rows.append(SweepRow(seq, c, ok, detail))
    return SweepReport(tuple(rows), len(rows), failed)


def _check_one(seq: DegreeSequence) -> tuple[bool, str]:
    try:
        r = realize(seq)
    except Exception as exc:  # a construction bug; report, do not crash
        return False, f"error: {exc}"
    if r.status != "realized":
        return False, f"status {r.status}"
    if r.graph.n <= ORACLE_N_MAX and not is_z3_connected(r.graph):
        return False, "oracle rejected"
    return True, f"proof={r.proof}"
