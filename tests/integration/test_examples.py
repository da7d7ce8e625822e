"""Smoke tests: the runnable examples must execute end-to-end.

Each example is executed as a subprocess, the way a user would run it.  Every
example in ``examples/`` is here (each runs in about a second), so an example
that stops importing or running fails the suite.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

EXAMPLES = [
    ("config_files_verification.py", ["HOLDS", "CLI exit code: 0"]),
    ("coverage_gap_bgp_nondeterminism.py", ["coverage", "violating event sequence"]),
    ("datacenter_bgp_waypoint.py", ["waypoint", "VIOLATED"]),
    ("ibgp_over_ospf.py", ["loopbacks first", "HOLDS"]),
    ("incremental_reverify.py", ["from cache", "delta", "restarting"]),
    ("isp_failure_resilience.py", ["single link failure", "HOLDS"]),
    ("quickstart.py", ["loop", "violation"]),
    ("serve_quickstart.py", ["verdict holds", "shutting the server down"]),
    ("transient_analysis.py", ["micro-loop", "transient", "black holes"]),
]


def _run_example(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=240,
    )


def test_every_example_is_run():
    listed = sorted(n for n in os.listdir(EXAMPLES_DIR) if n.endswith(".py"))
    assert [name for name, _ in EXAMPLES] == listed


@pytest.mark.parametrize("name,expected_phrases", EXAMPLES, ids=[n for n, _ in EXAMPLES])
def test_example_runs_and_reports(name, expected_phrases):
    completed = _run_example(name)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    output = completed.stdout.lower()
    for phrase in expected_phrases:
        assert phrase.lower() in output, f"{name}: expected {phrase!r} in output"


def test_example_config_files_exist():
    configs = os.path.join(EXAMPLES_DIR, "configs")
    assert os.path.isfile(os.path.join(configs, "campus.topo"))
    assert os.path.isfile(os.path.join(configs, "campus.cfg"))
