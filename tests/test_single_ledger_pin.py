"""Tooling pin: one ledger, one run path — found by reading the source.

Scans ``src/repro`` with :mod:`ast` (nothing scanned is imported): the
aggregator surface lives in exactly one class, exactly one function picks a
backend, and ``TaskGraph`` cannot be rewritten into a sub-graph again.  A
change that re-grows a second aggregator or a second run path fails here
before any behavioural test has to notice.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _calls(function, name):
    return any(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
        for node in ast.walk(function)
    )


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
