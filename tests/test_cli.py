import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from z3conn.cli import main
from z3conn.graph import build_graph, format_edgelist, parse_edgelist
from z3conn.reducer import parse_certificate, replay
from z3conn.verifier import is_z3_connected

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_classify_covered():
    code, out, _ = run_cli("classify", "(6,5,4^4,3)")
    assert code == 0
    data = json.loads(out)
    assert data["sequence"] == "(6,5,4^4,3)"
    assert data["graphic"] is True
    assert data["tag"] == "covered"
    assert data["route"] == "T12"


def test_classify_negative_cases():
    code, out, _ = run_cli("classify", "(4,3^6)")
    assert code == 1
    assert json.loads(out)["tag"] == "exception_n3"
    code, out, _ = run_cli("classify", "(5,4,3^4)")
    assert code == 1
    data = json.loads(out)
    assert data["graphic"] is False
    code, out, _ = run_cli("classify", "(7,3^7)")
    assert code == 1
    assert json.loads(out)["k"] == 7


def test_classify_syntax_error():
    code, _, err = run_cli("classify", "(3^^4)")
    assert code == 2
    assert "error:" in err


def test_classify_rejects_huge_exponent_before_expanding():
    start = time.perf_counter()
    code, _, err = run_cli("classify", "(3^1000000000)")
    assert code == 2
    assert "error:" in err
    assert time.perf_counter() - start < 1.0


def test_realize_edgelist_roundtrips_through_verify(tmp_path):
    code, out, _ = run_cli("realize", "(4^2,3^4)")
    assert code == 0
    assert out.startswith("# realization of (4^2,3^4)")
    assert "# proof: certificate" in out
    G = parse_edgelist(out)
    assert G.degree_sequence().degrees == (4, 4, 3, 3, 3, 3)
    path = tmp_path / "g.txt"
    path.write_text(out)
    code, out, _ = run_cli("verify", str(path))
    assert code == 0
    assert "z3_connected=true" in out


# SHA-256 of `realize --certify` output, each recorded before the code it
# pins was replaced.  The first three pin residual loops that run hundreds
# of steps through long runs (the T14 one lands in T12 at n = 30), from the
# tuple-based loop that the run form replaced.  (15,4^20,3^5) pins an
# inverse lift whose 5 far edges the scan in edge order finds on its own,
# from before augmenting paths took over where the scan falls short.
# (999,4^600,3^399) was re-recorded when T12 joins began to contract in
# label order: its edge list stayed, its 2-cycle lines were reordered.
LONG_RUN_SHA256 = {
    "(999,4^600,3^399)":
        "1b810b2efd365fe44fb1e0ea0bce8ceb503f5fa204c51c510ac32fea88772c16",
    "(997,4^700,3^299)":
        "06a91cb6bb94693586ce52a5a1eb1e4ebfc5441e93d0c1a9a5033722600dc53d",
    "(77,76,74,55,46,42,6^19,5^16,4^29,3^10)":
        "856cad4e41d656be1296d54abe84680f2be6ead74c9ea5e46c38fb4de9917936",
    "(15,4^20,3^5)":
        "59e4da29fe66651b7b03436cc65884608ef11d048ec345fbb0c7fa075de87f0d",
    "(4^996,3^4)":
        "61d7f2383146953b604419213b7fb7aa041f8ed76159d5fab0c52201cbd3800e",
    "(5,4^994,3^5)":
        "55d09267d788b7ed635554d6e3169a6fe47db9e447c269a81fd7382b55b89853",
    "(333,4^994,3^5)":
        "5c5f380988194ea9cda8917f51ab7ae40ee044067fbdfc0e12d9ed6c525adefd",
    "(500,4^996,3^4)":
        "a391be37734097283559f60add091ef64139418d894da5e117e3e108c77b8724",
}


@pytest.mark.parametrize("text", list(LONG_RUN_SHA256))
def test_realize_long_runs_match_pinned_bytes(text):
    code, out, _ = run_cli("realize", "--certify", text)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_RUN_SHA256[text]


def test_import_loads_neither_numpy_nor_networkx():
    # nor do the two proof paths that enumerate: confirming an exception
    # family and an out-of-coverage realize
    code = ("import sys, z3conn; "
            "assert z3conn.verify_exception(z3conn.parse_sequence('(4,3^6)')); "
            "r = z3conn.realize(z3conn.parse_sequence('(4^5,2)')); "
            "assert r.status == 'realized', r; "
            "print(sorted({'numpy', 'networkx'} & set(sys.modules)))")
    src = str(pathlib.Path(__file__).parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_realize_json_and_dot():
    code, out, _ = run_cli("realize", "(5,3^5)", "--format", "json")
    assert code == 1 or code == 0
    code, out, _ = run_cli("realize", "(4^2,3^4)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6
    assert len(data["edges"]) == 10
    assert "certificate" not in data
    # with --certify the steps go inside the one JSON object
    code, out, _ = run_cli("realize", "(4^2,3^4)", "--format", "json",
                           "--certify")
    assert code == 0
    data = json.loads(out)
    cert = parse_certificate("\n".join(data["certificate"]))
    assert replay(build_graph(data["n"], data["edges"]), cert).ok
    code, out, _ = run_cli("realize", "(4^2,3^4)", "--format", "dot")
    assert code == 0
    assert "graph G {" in out


def test_realize_prints_certificate_on_request():
    code, out, _ = run_cli("realize", "(6,4,3^6)", "--certify")
    assert code == 0
    assert "# certificate:" in out
    cert_text = out.split("# certificate:\n", 1)[1]
    cert = parse_certificate(cert_text)
    G = parse_edgelist(out.split("# certificate:", 1)[0])
    assert replay(G, cert).ok


def test_realize_negative_and_unsupported():
    code, out, _ = run_cli("realize", "(4,3^6)")
    assert code == 1
    assert "# exception" in out
    code, out, _ = run_cli("realize", "(5,4,3^4)")
    assert code == 1
    assert "# not_graphic" in out
    code, out, err = run_cli("realize", "(4,4,3^12)")
    assert code == 2
    assert "unsupported" in err


def test_verify_negative_graph(tmp_path):
    from z3conn.graph import complete_graph
    path = tmp_path / "k4.txt"
    path.write_text(format_edgelist(complete_graph(4)))
    code, out, _ = run_cli("verify", str(path))
    assert code == 1
    assert "z3_connected=false" in out
    assert "three_flowable=false" in out


def test_verify_reports_oracle_memory_error(tmp_path, monkeypatch):
    import z3conn.verifier
    from z3conn.graph import complete_graph

    def no_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the boundary arrays")

    # K4 passes the connectivity and edge-count checks, so the DP is called
    monkeypatch.setattr(z3conn.verifier, "_reach", no_memory)
    path = tmp_path / "k4.txt"
    path.write_text(format_edgelist(complete_graph(4)))
    code, out, err = run_cli("verify", str(path))
    assert code == 2
    assert out == ""
    assert "error: cannot allocate" in err


@pytest.mark.parametrize("z3", [True, False])
def test_verify_runs_oracle_once_on_yes_graph(tmp_path, monkeypatch, z3):
    import z3conn.verifier
    from z3conn.catalog import wheel
    from z3conn.graph import complete_graph

    calls = []
    reach = z3conn.verifier._reach

    def counting_reach(G):
        calls.append(G)
        return reach(G)

    # W4 is Z3-connected, so 3-flowable; K4 is neither
    monkeypatch.setattr(z3conn.verifier, "_reach", counting_reach)
    path = tmp_path / "g.txt"
    path.write_text(format_edgelist(wheel(4) if z3 else complete_graph(4)))
    code, out, _ = run_cli("verify", str(path))
    flag = "true" if z3 else "false"
    assert code == (0 if z3 else 1)
    assert out == f"z3_connected={flag}\nthree_flowable={flag}\n"
    assert len(calls) == 1


def test_verify_missing_file():
    code, _, err = run_cli("verify", "/nonexistent/file.txt")
    assert code == 2
    assert "error:" in err


def test_certify_command(tmp_path):
    from z3conn.catalog import wheel
    from z3conn.graph import complete_bipartite
    path = tmp_path / "w4.txt"
    path.write_text(format_edgelist(wheel(4)))
    code, out, _ = run_cli("certify", str(path))
    assert code == 0
    assert "contract-even-wheel" in out
    assert out.rstrip().endswith("done")
    path.write_text(format_edgelist(complete_bipartite(3, 3)))
    code, out, _ = run_cli("certify", str(path))
    assert code == 1
    assert out.strip() == "unknown"


def test_certify_says_why_it_stopped_on_stderr(tmp_path):
    from z3conn.graph import complete_bipartite
    path = tmp_path / "k33.txt"
    path.write_text(format_edgelist(complete_bipartite(3, 3)))
    code, out, err = run_cli("certify", str(path))
    assert (code, out) == (1, "unknown\n")
    # K_{3,3} has m = 9 < 2n - 2 edges: Lemma A answers before any node
    assert err == "certify stopped: sparse after 0 nodes\n"


def test_realize_certify_output_reads_back(tmp_path):
    # the certificate section after the edges does not count as edge lines
    code, out, _ = run_cli("realize", "--certify", "(6,4^9,3^4)")
    assert code == 0 and "# certificate:" in out
    path = tmp_path / "g14.txt"
    path.write_text(out)
    code, out, _ = run_cli("verify", str(path))
    assert code == 0
    assert "z3_connected=true" in out.splitlines()
    code, _, _ = run_cli("certify", str(path))
    assert code == 0


def test_enumerate_command():
    code, out, _ = run_cli("enumerate", "(3^4)")
    assert code == 0
    assert "# total: 1" in out
    code, out, _ = run_cli("enumerate", "(4,3^6)", "--dedup")
    assert code == 0
    assert "# total: 4" in out
    code, out, _ = run_cli("enumerate", "(3^6)", "--limit", "3")
    assert "# total: 3" in out
    code, out, _ = run_cli("enumerate", "(3,3,1,1)")
    assert code == 1
    assert "# total: 0" in out
    code, out, _ = run_cli("enumerate", "(3^4)", "--limit", "0")
    assert (code, out) == (1, "# total: 0\n")
    code, out, err = run_cli("enumerate", "(3^4)", "--limit", "-1")
    assert (code, out) == (2, "")
    assert "limit must be nonnegative" in err


def test_enumerate_dedup_without_networkx_is_an_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)  # import fails
    code, out, err = run_cli("enumerate", "--dedup", "(4,3^6)")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "networkx" in err


@pytest.mark.parametrize("text, name", [("(4,3^6)", "dedup_4_3x6.txt"),
                                        ("(3^6)", "dedup_3x6.txt")])
def test_enumerate_dedup_matches_golden(text, name):
    # pins which labeled graph represents each isomorphism class
    code, out, _ = run_cli("enumerate", "--dedup", text)
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text()


def test_sweep_command_small():
    code, out, _ = run_cli("sweep", "--n-min", "6", "--n-max", "6")
    assert code == 0
    assert "0 failures" in out
    assert "route=" in out


@pytest.mark.parametrize("bounds", [("9", "6"), ("0", "8"), ("-3", "8")])
def test_sweep_rejects_bad_range(bounds):
    code, out, err = run_cli("sweep", "--n-min", bounds[0], "--n-max", bounds[1])
    assert code == 2
    assert out == ""
    assert f"n_min={bounds[0]}..n_max={bounds[1]}" in err


def test_verify_refuses_graphs_above_oracle_limit(tmp_path):
    from z3conn.builder import realize
    from z3conn.seqcore import parse_sequence
    # a 16-vertex graph is past the oracle limit; only a certificate proves it
    res = realize(parse_sequence("(14,4,3^14)"))
    path = tmp_path / "big.txt"
    path.write_text(format_edgelist(res.graph))
    code, _, err = run_cli("verify", str(path))
    assert code == 2
    assert "oracle" in err
