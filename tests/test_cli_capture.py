"""The CLI capture matrix: every output form of ``verify`` and ``transient``,
byte for byte.

Two ``verify`` inputs (one holding, one violated) and two ``transient``
inputs (one holding, one violated, both with ``--scenario``), each in four
forms: the text on stdout, the ``--json`` document, and the ``--report`` file
as Markdown and as JSON.  Wall-clock fields are masked; everything else must
equal the golden file under ``tests/golden/`` exactly.  A refactor of the
result or rendering layers must leave every golden untouched.

To write the goldens from the current tree (only when an output change is
intended, and say so in the change):

    REPRO_WRITE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_capture.py

Server-versus-local equality is ``tests/test_cli.py::TestServerMode``'s.
"""

import os
import re
from pathlib import Path

import pytest

from repro.cli import EXIT_HOLDS, EXIT_VIOLATION, main

from tests.test_cli import BGP_CONFIG, BGP_TOPOLOGY_TEXT, GOOD_CONFIG, LOOPING_CONFIG, TOPOLOGY_TEXT

GOLDEN = Path(__file__).resolve().parent / "golden"
WRITE = bool(os.environ.get("REPRO_WRITE_GOLDEN"))

FILES = {
    "net.topo": TOPOLOGY_TEXT,
    "good.cfg": GOOD_CONFIG,
    "looping.cfg": LOOPING_CONFIG,
    "bgp.topo": BGP_TOPOLOGY_TEXT,
    "bgp.cfg": BGP_CONFIG,
}

#: input name -> (argv with workspace-relative file names, exit code).
INPUTS = {
    "verify-holds": (
        ["verify", "--topology", "net.topo", "--config", "good.cfg",
         "--policy", "reachability", "--sources", "r2,r3", "--max-failures", "1"],
        EXIT_HOLDS,
    ),
    "verify-violated": (
        ["verify", "--topology", "net.topo", "--config", "looping.cfg", "--policy", "loop"],
        EXIT_VIOLATION,
    ),
    "transient-holds": (
        ["transient", "--topology", "bgp.topo", "--config", "bgp.cfg",
         "--max-states", "2000", "--scenario", "maintenance:a"],
        EXIT_HOLDS,
    ),
    "transient-violated": (
        ["transient", "--topology", "bgp.topo", "--config", "bgp.cfg",
         "--max-states", "2000", "--scenario", "crash:m"],
        EXIT_VIOLATION,
    ),
}

#: form name -> (extra argv, golden file suffix); a report form reads the file.
FORMS = {
    "text": ([], "txt"),
    "json": (["--json"], "json"),
    "report-md": (["--report", "report.md"], "report.md"),
    "report-json": (["--report", "report.json"], "report.json"),
}


def masked(text: str) -> str:
    """``text`` with every wall-clock value replaced by a fixed token."""
    text = re.sub(r'"elapsed_seconds": [-+.e0-9]+', '"elapsed_seconds": 0', text)
    text = re.sub(r"\| elapsed \| [.0-9]+ s \|", "| elapsed | 0 s |", text)
    return re.sub(r"\b[0-9]+\.[0-9]{3}s\b", "0s", text)


@pytest.fixture
def workspace(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", INPUTS)
def test_output_equals_golden(name, form, workspace, capsys):
    argv, expected_code = INPUTS[name]
    extra, suffix = FORMS[form]
    known = set(FILES) | {"report.md", "report.json"}
    args = [str(workspace / a) if a in known else a for a in argv + extra]
    code = main(args)
    out = capsys.readouterr().out
    produced = masked((workspace / extra[1]).read_text() if form.startswith("report") else out)
    golden = GOLDEN / f"{name}.{suffix}"
    if WRITE:
        GOLDEN.mkdir(exist_ok=True)
        golden.write_text(produced)
    assert code == expected_code
    assert produced == golden.read_text()
