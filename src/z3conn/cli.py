"""Command line interface.

Subcommands: classify, realize, verify, certify, enumerate, sweep.
Exit codes: 0 for a positive answer (realized, Z3-connected, certified,
sweep clean), 1 for a negative mathematical answer (not graphic, exception
family, `none`: sparse or with a degree-1 entry, not Z3-connected, no
certificate found), 2 for usage, input, size-limit or missing-package
errors (an oracle that cannot allocate its arrays, `enumerate --dedup`
without networkx) and for `realize`'s `unsupported`.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import builder, enumerate as enum_mod, reducer, sweep as sweep_mod
from .graph import format_edgelist, parse_edgelist, to_dot
from .seqcore import EXCEPTION_KINDS, Kind, classify, parse_sequence
from .verifier import oracle_verdict

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, ImportError,
            builder.ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z3conn",
        description="Realize degree sequences as Z3-connected simple graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a degree sequence")
    p.add_argument("sequence")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("realize", help="build a Z3-connected realization")
    p.add_argument("sequence")
    p.add_argument("--format", choices=("edgelist", "dot", "json"),
                   default="edgelist")
    p.add_argument("--certify", action="store_true",
                   help="print the reduction certificate as well")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="test a graph file for Z3-connectivity")
    p.add_argument("path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="search for a reduction certificate")
    p.add_argument("path")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("enumerate", help="stream all simple realizations")
    p.add_argument("sequence")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--dedup", action="store_true",
                   help="one representative per isomorphism class")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sweep",
                       help="realize every covered sequence up to a size")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--n-min", type=int, default=6)
    p.set_defaults(func=_cmd_sweep)
    return parser


def _cmd_classify(args) -> int:
    seq = parse_sequence(args.sequence)
    c = classify(seq)
    print(json.dumps({
        "sequence": seq.render(),
        "graphic": c.kind is not Kind.NOT_GRAPHIC,
        "tag": c.kind.value,
        "route": c.route.value if c.route else None,
        "k": c.k,
    }))
    negative = c.kind is Kind.NOT_GRAPHIC or c.kind in EXCEPTION_KINDS
    return EXIT_NEGATIVE if negative else EXIT_OK


def _cmd_realize(args) -> int:
    seq = parse_sequence(args.sequence)
    r = builder.realize(seq)
    if r.status in ("not_graphic", "exception", "none"):
        print(f"# {r.status}: {seq.render()}")
        for line in r.trace:
            print(f"# {line}")
        return EXIT_NEGATIVE
    if r.status == "unsupported":
        print(f"# unsupported: {seq.render()}", file=sys.stderr)
        for line in r.trace:
            print(f"# {line}", file=sys.stderr)
        return EXIT_ERROR
    show_cert = args.certify and r.certificate is not None
    if args.format == "json":
        out = {
            "sequence": seq.render(),
            "n": r.graph.n,
            "edges": [list(e) for e in r.graph.edges],
            "proof": r.proof,
            "trace": list(r.trace),
        }
        if show_cert:  # one rendered step per entry
            out["certificate"] = [s.render() for s in r.certificate.steps]
        print(json.dumps(out))
        return EXIT_OK
    print(f"# realization of {seq.render()}")
    for line in r.trace:
        print(f"# {line}")
    print(f"# proof: {r.proof}")
    sys.stdout.write((to_dot if args.format == "dot"
                      else format_edgelist)(r.graph))
    if show_cert:
        print("# certificate:")
        sys.stdout.write(r.certificate.render())
    return EXIT_OK


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edgelist(fh.read())


def _cmd_verify(args) -> int:
    G = _read_graph(args.path)
    z3, flow = oracle_verdict(G)
    print(f"z3_connected={'true' if z3 else 'false'}")
    print(f"three_flowable={'true' if flow else 'false'}")
    return EXIT_OK if z3 else EXIT_NEGATIVE


def _cmd_certify(args) -> int:
    G = _read_graph(args.path)
    found = reducer.certify(G)
    if not found.proved:
        print("unknown")
        print(f"certify stopped: {found.reason} after {found.nodes} nodes",
              file=sys.stderr)
        return EXIT_NEGATIVE
    sys.stdout.write(found.certificate.render())
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    seq = parse_sequence(args.sequence)
    count = 0
    for G in enum_mod.all_realizations(seq, limit=args.limit,
                                       dedup=args.dedup):
        if count:
            print()
        sys.stdout.write(format_edgelist(G))
        count += 1
    print(f"# total: {count}")
    return EXIT_OK if count else EXIT_NEGATIVE


def _cmd_sweep(args) -> int:
    report = sweep_mod.run_sweep(args.n_min, args.n_max)
    for row in report.rows:
        mark = "ok" if row.ok else "FAIL"
        print(f"{row.sequence.render():24} route={row.classification.route.value}"
              f" {mark} {row.detail}")
    print(f"# checked {report.checked} covered sequences, "
          f"{report.failed} failures")
    return EXIT_OK if report.failed == 0 else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
