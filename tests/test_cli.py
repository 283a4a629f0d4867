import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from lgmult import cli, verify
from lgmult.cli import main
from lgmult.enumeration import enumerate_connected
from lgmult.families import CASE_TAGS
from lgmult.graphio import to_graph6
from lgmult.graphs import build_graph, summarize
from lgmult.verify import verify_graphs, verify_main_theorem

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "src" / "lgmult" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_linegraph_subcommand(capsys):
    code, payload = run_json(capsys, ["linegraph", "--g6", "Ch"])
    assert code == 0
    jsonschema.validate(payload, load_schema("linegraph"))
    assert payload["line"]["vertex_count"] == 3  # L(P_4) = P_3


def test_mult_subcommand(capsys):
    # C4: A(C4) and A(L(C4)) = A(C4) both have 0 twice; the bound excludes cycles
    code, payload = run_json(capsys, ["mult", "--g6", "Cr", "--lambda", "1/2"])
    assert code == 0
    jsonschema.validate(payload, load_schema("mult"))
    assert payload["graph_multiplicity"] == 2
    assert payload["line_graph_multiplicity"] == 2
    assert payload["line_graph_bound"] is None

    # C4 with a pendant path of two edges attains 2c + p - 1 = 2 at 0
    g6 = to_graph6(build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]))
    code, payload = run_json(capsys, ["mult", "--g6", g6, "--lambda", "1/2"])
    assert code == 0
    jsonschema.validate(payload, load_schema("mult"))
    assert payload["line_graph_multiplicity"] == payload["line_graph_bound"] == 2
    assert payload["graph_multiplicity"] == 2

    # P3: 0 is an eigenvalue of A(P3) but not of A(L(P3)) = A(P2)
    code, payload = run_json(capsys, ["mult", "--g6", to_graph6(build_graph(3, [(0, 1), (1, 2)])), "--lambda", "1/2"])
    assert code == 0
    jsonschema.validate(payload, load_schema("mult"))
    assert (payload["graph_multiplicity"], payload["line_graph_multiplicity"], payload["line_graph_bound"]) == (1, 0, 1)

    # K_{2,3}: L(K_{2,3}) = K_2 x K_3 has spectrum 3, 1, 0, 0, -2, -2, so
    # char_poly(L(G)) = R * (x+2)**2, and 0 is read off R alone
    k23 = build_graph(5, [(i, j) for i in range(2) for j in range(2, 5)])
    code, payload = run_json(capsys, ["mult", "--g6", to_graph6(k23), "--lambda", "1/2"])
    assert code == 0
    jsonschema.validate(payload, load_schema("mult"))
    assert (payload["graph_multiplicity"], payload["line_graph_multiplicity"], payload["line_graph_bound"]) == (3, 2, 3)


def test_check_optimal_and_not(capsys, tmp_path):
    g6 = to_graph6(build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]))
    code, payload = run_json(capsys, ["check", "--g6", g6, "--lambda", "1/2"])
    assert code == 0
    jsonschema.validate(payload, load_schema("certificate"))
    assert payload["certificate"]["case_tag"] == "AttachedCycles"

    code, payload = run_json(capsys, ["check", "--g6", g6, "--lambda", "1/3"])
    assert code == 1
    jsonschema.validate(payload, load_schema("certificate"))
    assert payload["certificate"]["case_tag"] == "NotOptimal"


def test_check_reads_edge_file_and_stdin(capsys, tmp_path, monkeypatch):
    edge_file = tmp_path / "p4.edges"
    edge_file.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, payload = run_json(capsys, ["check", "--edges", str(edge_file), "--lambda", "1/4"])
    assert code == 0
    assert payload["certificate"]["case_tag"] == "PathCase"

    monkeypatch.setattr("sys.stdin", __import__("io").StringIO("4 3\n0 1\n1 2\n2 3\n"))
    code, payload = run_json(capsys, ["check", "--stdin", "--lambda", "1/4"])
    assert code == 0


def test_usage_errors_exit_two(capsys, tmp_path, monkeypatch):
    assert main(["check", "--g6", "Cr", "--g6", "Cr", "--lambda", "x"]) == 2
    assert main(["check", "--lambda", "1/2"]) == 2  # no input source
    assert main(["check", "--g6", "Cr", "--lambda", "5/3"]) == 2  # non-canonical
    assert main(["mult", "--g6", "", "--lambda", "1/2"]) == 2
    assert main(["gen", "--seed", "1"]) == 2  # no case
    for spec in (
        {"case": "path", "lambda": [1], "params": {"t": 2}},
        {"case": "path", "lambda": 5, "params": {"t": 2}},
        {"case": "path", "lambda": "1/2", "params": [1]},
        [1, 2],
        {"case": "path", "lambda": "1/2", "params": {"t": None}},
        {"case": "attached_cycles", "lambda": "2/3", "params": {"multiples": 3}},
        # truncated by int() before: t = 2.5 built t = 2, true read as 1
        {"case": "path", "lambda": "1/2", "params": {"t": 2.5}},
        {"case": "path", "lambda": "1/2", "params": {"t": True}},
        {"case": "path", "lambda": {"a": 1.7, "b": 2}, "params": {"t": 2}},
        {"case": "path", "lambda": [1, 2], "params": {"t": 2}, "seed": 0.5},
        {"case": "attached_cycles", "lambda": "2/3", "params": {"multiples": [1.5]}},
        {"case": "two_cycles_edge", "params": {"n1": 4, "n2": False}},
    ):
        assert main(["gen", "--spec-json", json.dumps(spec)]) == 2, spec
    assert main(["gen", "--case", "path", "--lambda", "1/2", "--param", "t=[1]"]) == 2
    assert main(["gen", "--case", "path", "--lambda", "1/2", "--param", "t=2.5"]) == 2
    assert main(["gen", "--case", "path", "--lambda", "1/2", "--param", "t=true"]) == 2
    # a loop, a duplicate edge and an endpoint outside 0..n-1
    for name, text in (("loop", "3 1\n0 0\n"), ("dup", "3 2\n0 1\n1 0\n"), ("range", "2 1\n0 5\n")):
        path = tmp_path / f"{name}.edges"
        path.write_text(text)
        assert main(["mult", "--edges", str(path), "--lambda", "1/2"]) == 2, name
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["check", "--stdin", "--lambda", "1/2"]) == 2, name
        assert capsys.readouterr().err.startswith("error:"), name
    capsys.readouterr()


def test_gen_cases_are_the_family_cases_and_verify_has_no_json_flag(capsys):
    for case in CASE_TAGS:
        # argparse takes the case; the bad spec is refused after parsing
        assert main(["gen", "--case", case, "--spec-json", "[]"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--case", "no_such_case"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-n", "3", "--json"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_past_the_enumeration_cap_is_a_usage_error(capsys):
    assert main(["verify", "--max-n", "11"]) == 2
    assert "graph6" in capsys.readouterr().err


def _run(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )


def test_python_dash_m_runs_the_cli():
    done = _run(["-m", "lgmult", "check", "--g6", "Cr", "--lambda", "1/2"])
    assert done.returncode == 2 and done.stderr.startswith("error:")


def test_verify_does_not_depend_on_asserts():
    # python -O strips assert statements; the sweep and the reduction
    # identities must neither need them nor change their answer without them
    for extra, graphs in (((), 27), (("--lemmas", "--samples", "5"), 27 + 30)):
        plain, optimized = (
            _run([*opt, "-m", "lgmult", "verify", "--max-n", "5", *extra]) for opt in ((), ("-O",))
        )
        assert plain.returncode == optimized.returncode == 0
        reports = [json.loads(done.stdout) for done in (plain, optimized)]
        for report in reports:
            report.pop("elapsed")
        assert reports[0] == reports[1]
        assert reports[0]["graphs_checked"] == graphs


def test_program_has_no_assert_statements():
    # the check above runs the verify paths only; this one reads every module
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"python -O strips these assert statements: {found}"


def _reads_process_knobs(node):
    """An import of multiprocessing, or a read of os.environ or os.getenv."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "multiprocessing" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        root = (node.module or "").split(".")[0]
        return root == "multiprocessing" or (
            root == "os" and any(alias.name in ("environ", "getenv") for alias in node.names)
        )
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("environ", "getenv")
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def test_program_has_no_process_pool_or_environment_knob():
    # every sweep runs in one process, and no hidden setting changes a run
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _reads_process_knobs(node)
    ]
    assert found == [], f"multiprocessing or environment reads: {found}"


@pytest.mark.parametrize("flag", ["--max-n=11", "--max-n=1", "--trees-to=14", "--low-cycle-to=12"])
def test_verify_checks_every_cap_before_any_sweep(flag, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    for module in (cli, verify):
        monkeypatch.setattr(module, "verify_graphs", no_sweep)
        monkeypatch.setattr(module, "enumerate_connected", no_sweep)
    assert main(["verify", flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if not flag.startswith("--max-n"):
        assert f"error: {flag.split('=')[0]} " in err


def test_gen_subcommand_round_trip(capsys):
    argv = [
        "gen", "--case", "attached_cycles", "--lambda", "2/3", "--seed", "4",
        "--param", "tree=spider", "--param", "legs=3", "--param", "r=0",
        "--param", "multiples=[1, 1, 1]",
    ]
    code, payload = run_json(capsys, argv)
    assert code == 0
    jsonschema.validate(payload, load_schema("gen"))

    g6 = payload["graph"]["graph6"]
    lam = payload["spec"]["lambda"]
    lam_text = f"{lam['a']}/{lam['b']}"
    code, checked = run_json(capsys, ["check", "--g6", g6, "--lambda", lam_text])
    assert code == 0
    assert checked["certificate"]["case_tag"] == "ManyCycles"


def test_gen_names_a_missing_parameter(capsys):
    for case, name in (("path", "t"), ("spider", "legs")):
        assert main(["gen", "--case", case, "--lambda", "2/3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"missing parameter '{name}'" in err, err


def test_gen_spec_json_inline(capsys):
    spec = {"case": "path", "lambda": "1/2", "params": {"t": 2}}
    code, payload = run_json(capsys, ["gen", "--spec-json", json.dumps(spec)])
    assert code == 0
    assert payload["graph"]["vertex_count"] == 4


def test_verify_subcommand_json_and_exit_codes(capsys):
    code, payload = run_json(capsys, ["verify", "--max-n", "4"])
    assert code == 0
    jsonschema.validate(payload, load_schema("report"))
    assert payload["passed"] is True
    assert payload["graphs_checked"] == 7  # 9 connected graphs on 2..4 vertices minus C_3, C_4


def test_verify_g6_file_table_and_out(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Cr\nCs\n")
    out = tmp_path / "report.json"
    code = main(["verify", "--g6-file", str(corpus), "--table", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    written = json.loads(out.read_text())
    jsonschema.validate(written, load_schema("report"))
    assert written["graphs_checked"] == 1  # the cycle is skipped


def test_report_digest_script_matches_the_pinned_digest(capsys, tmp_path):
    # the script hashes a written report as the pinned report tests hash theirs
    out = tmp_path / "report.json"
    assert main(["verify", "--max-n", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = verify_main_theorem(5).to_json_dict()
    payload.pop("elapsed")
    want = hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()
    done = _run(["scripts/report_digest.py", str(out)])
    assert done.returncode == 0 and done.stdout == want + "\n"


def test_verify_lemmas_flag(capsys):
    code, payload = run_json(
        capsys, ["verify", "--max-n", "4", "--lemmas", "--samples", "5", "--seed", "1"]
    )
    assert code == 0
    assert payload["passed"] is True


def test_verify_extra_sweeps_and_congruences(capsys):
    argv = ["verify", "--max-n", "3", "--trees-to", "6", "--low-cycle-to", "5", "--congruences"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    jsonschema.validate(payload, load_schema("report"))
    expected = verify_main_theorem(3)
    expected.merge(verify_graphs(enumerate_connected(6, max_c=0, smallest=4)))
    low_cycle = enumerate_connected(5, max_c=2, smallest=4)
    expected.merge(verify_graphs(g for g in low_cycle if summarize(g).cyclomatic in (1, 2)))
    assert payload["graphs_checked"] == expected.graphs_checked
    assert payload["candidates_checked"] == expected.candidates_checked


def test_verify_congruence_failures_exit_one(capsys, monkeypatch):
    failures = [{"shape": "path", "k": k} for k in range(25)]
    monkeypatch.setattr(cli, "verify_congruence_laws", lambda: failures)
    assert main(["verify", "--max-n", "2", "--congruences"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"congruence failure: {item}" for item in failures[:20]]
