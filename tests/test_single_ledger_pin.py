"""Tooling pin: one ledger, one run path, one road from a converged state to
a verdict — found by reading the source.

Scans ``src/repro`` with :mod:`ast` (nothing scanned is imported): the
aggregator surface lives in exactly one class, exactly one function picks a
backend, ``TaskGraph`` cannot be rewritten into a sub-graph again, and
``PecExplorer`` has one search and one plane builder that ``run_pec`` enters
once.  A change that re-grows a second aggregator, a second run path or a
batch explorer fails here before any behavioural test has to notice.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _call_count(tree, name):
    return sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
        for node in ast.walk(tree)
    )


def _calls(function, name):
    return _call_count(function, name) > 0


def test_one_ledger_one_run_path():
    ledgers, selectors, task_graph_members = [], [], set()
    for path in sorted(SOURCE.rglob("*.py")):
        module = path.relative_to(SOURCE).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                members = {
                    getattr(item, "name", None) or getattr(getattr(item, "target", None), "id", None)
                    for item in node.body
                }
                if "upstream_planes" in members:
                    ledgers.append(f"{module}:{node.name}")
                if node.name == "TaskGraph":
                    task_graph_members = members
            elif isinstance(node, ast.FunctionDef) and _calls(node, "select_backend"):
                selectors.append(f"{module}:{node.name}")
    assert ledgers == ["engine/aggregator.py:ResultAggregator"]
    assert selectors == ["engine/backends.py:run_graph"]
    assert "tasks" in task_graph_members and "restricted" not in task_graph_members


def test_one_road_from_a_converged_state_to_a_verdict():
    model_source = (SOURCE / "core" / "network_model.py").read_text(encoding="utf-8")
    model = ast.parse(model_source)
    classes = {node.name: node for node in model.body if isinstance(node, ast.ClassDef)}
    # One model-checker construction and one data-plane build, both inside
    # PecExplorer; an outcome carries nothing but the plane, the control
    # plane and the steps, built when read, and the view of the plane that
    # loop freedom reads; the batch road's names stay gone.
    assert _call_count(model, "Explorer") == _call_count(classes["PecExplorer"], "Explorer") == 1
    assert _call_count(model, "build_data_plane") == 1
    assert _call_count(classes["PecExplorer"], "build_data_plane") == 1
    assert [
        node.name
        for node in classes["ConvergedOutcome"].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ] == ["data_plane", "control_plane", "steps", "base", "changed_keys", "fib_of", "kept"]
    for retired in (
        "_explore_streaming",
        "_explore_instance",
        "_explore_bgp_prefix",
        "_explore_ospf_prefix",
        "_combinations",
        "PrefixExplorationResult",
        "options_stop_early",
        "_accept_terminal",
        "_sources_decided",
        "_candidate_engine",
    ):
        assert retired not in model_source, retired
    verifier = ast.parse((SOURCE / "core" / "verifier.py").read_text(encoding="utf-8"))
    assert _call_count(verifier, "explore") == 1
