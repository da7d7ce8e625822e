"""Tooling pin: one model of each protocol in the package.

The SPVP reference simulator, the fork-a-simulator explorer, the unreduced
scenario enumeration and the object-keyed hashing path that existed only to
serve them live in ``tests/oracles/`` (or nowhere).  A change that re-grows
a second model inside ``src/repro`` — or makes the package reach into the
test tree for one — fails here.  The source scan uses :mod:`ast`, so the
docstrings that say where the references went do not count.

One state representation: RPVP and SPVP states are one id-array kernel
(``repro.protocols.interning.IdArrayState``) over one intern table per node
set, so the package holds one ``fingerprint`` and constructs
``RouteInternTable`` in one place.
"""

import ast
import importlib
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"

GONE = {
    "ReferenceSpvpSimulator",
    "NaiveTransientAnalyzer",
    "apply_to_simulator",
    "brute_event_scenarios",
    "StateInterner",
    "queue_component",
    "fingerprint_of",
    "_slot_values",
}


def _identifiers(node):
    """Every name a node defines, imports, reads or reaches by attribute."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node.name
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.name.rpartition(".")[2]
            if alias.asname:
                yield alias.asname


def _package_trees():
    for path in sorted(SOURCE.rglob("*.py")):
        yield path.relative_to(SOURCE).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def test_the_package_holds_no_reference_model_and_imports_no_tests():
    regrown, test_imports = [], []
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            regrown.extend(
                f"{module}:{name}" for name in _identifiers(node) if name in GONE
            )
            imported = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module or ""]
            test_imports.extend(
                f"{module}:{name}"
                for name in imported
                if name == "tests" or name.startswith("tests.")
            )
    assert regrown == []
    assert test_imports == []


@pytest.mark.parametrize(
    "module",
    [
        "repro.protocols",
        "repro.protocols.spvp",
        "repro.transient",
        "repro.scenarios",
        "repro.modelcheck",
        "repro.modelcheck.hashing",
    ],
)
def test_public_namespaces_do_not_expose_the_moved_names(module):
    namespace = importlib.import_module(module)
    exposed = GONE & (set(vars(namespace)) | set(getattr(namespace, "__all__", ())))
    assert exposed == set()


def test_one_state_representation():
    fingerprints, table_sites = [], []
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "fingerprint":
                fingerprints.append(module)
            elif isinstance(node, ast.Call) and "RouteInternTable" in _identifiers(node.func):
                table_sites.append(module)
    assert fingerprints == ["protocols/interning.py"]
    assert table_sites == ["protocols/interning.py"]
