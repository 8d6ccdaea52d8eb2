"""Imports: every name that a module of src/graphqss or a demo imports is
used in it; the package exports a fixed set of names; only the commands
that build amplitudes or run the level walk behind k* (``search``,
``threshold`` and ``protocol-run``'s feasibility check) load NumPy; and no
command loads multiprocessing.

The package's ``__init__.py`` imports names only to re-export them, so it is
left out of the unused-import check.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from graphqss import cli

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(tree: ast.AST) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = [p for p in sorted((ROOT / "src" / "graphqss").glob("*.py")) if p.name != "__init__.py"]
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(modules) > 5 and len(demos) > 3
    found = {
        path.relative_to(ROOT).as_posix(): _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in modules + demos
    }
    assert {name: unused for name, unused in found.items() if unused} == {}


PUBLIC_API = {
    "AccessReport", "BoundReport", "CVerdict", "ClassicalShare", "Graph", "PauliOp",
    "ProtocolConfig", "QVerdict", "RecoveredSecret", "StateVector", "ThresholdReport", "Transcript",
    "VertexSet", "access", "access_report", "apply_pauli", "bounds", "c5_power", "complement",
    "counting_inequality", "deal", "delta_complement", "distinguishability", "edge_mask_graph",
    "embed_secret", "encode_classical", "errors", "exhaustive_graph_search", "family", "gf2",
    "graph_state", "graphs", "lexicographic_product", "min_feasible_k", "odd_neighborhood",
    "parse_graph", "privacy_probe", "product_threshold_bound", "protocol", "pure_qss_feasibility",
    "q_accessing", "qstar_threshold", "quantum", "reconstruct", "reconstruction_witnesses",
    "serialize_graph", "shamir", "small_witness",
}


def test_public_api():
    import graphqss
    from graphqss import graph_state, quantum

    assert set(graphqss.__all__) == PUBLIC_API
    for name in graphqss.__all__:
        assert getattr(graphqss, name) is not None
    assert graph_state is quantum.graph_state and graphqss.StateVector is quantum.StateVector
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(graphqss, "no_such_name")


# runs the argv lists it is given through cli.run in one interpreter; prints,
# per command, its exit code, stdout and which heavy modules are loaded after it
CHILD = """
import contextlib, io, json, sys
import graphqss, graphqss.cli, graphqss.protocol

report = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = graphqss.cli.run(argv)
    report.append([code, out.getvalue(), [m for m in ("numpy", "multiprocessing") if m in sys.modules]])
print(json.dumps(report))
"""

INTEGER_COMMANDS = [
    ["bound", "--min-k", "--n", "10000"],
    ["bound", "--pure-qss", "--max-k", "60"],
    ["bound", "--n", "100", "--k", "51"],
    ["classify", "--family", "cycle", "--n", "5", "--B", "0,1,2"],
    ["witness", "--family", "cycle", "--n", "5", "--B", "0,1,2"],
    ["product", "--n1", "5", "--k1", "3", "--n2", "5", "--k2", "3"],
    ["family", "--family", "random", "--n", "6", "--p", "0.5", "--seed", "2"],
]
NUMPY_COMMANDS = [
    ["simulate", "--family", "cycle", "--n", "5", "--B", "0,1,2"],
    ["search", "--n", "4"],
    ["threshold", "--family", "c5pow", "--i", "1"],
    ["threshold", "--family", "c5pow", "--i", "2"],
    ["protocol-run", "--family", "cycle", "--n", "5", "--k", "3", "--coalition", "0,1,2"],
    ["protocol-run", "--family", "cycle", "--n", "13", "--k", "11", "--coalition", "0,1,2,3,4,5,6,7,8,9,10"],
]


def _fresh_run(commands):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _in_process(capsys, argv):
    code = cli.run(argv)
    return [code, capsys.readouterr().out]


def test_integer_commands_load_neither_numpy_nor_multiprocessing(capsys):
    report = _fresh_run(INTEGER_COMMANDS)
    for argv, (code, out, heavy) in zip(INTEGER_COMMANDS, report):
        assert heavy == [], argv
        assert [code, out] == _in_process(capsys, argv)


@pytest.mark.parametrize("argv", NUMPY_COMMANDS, ids=lambda argv: argv[0])
def test_simulate_search_threshold_and_protocol_run_load_numpy(capsys, argv):
    [(code, out, heavy)] = _fresh_run([argv])
    assert "numpy" in heavy and "multiprocessing" not in heavy
    assert [code, out] == _in_process(capsys, argv)
