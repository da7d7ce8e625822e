"""Tests for the report rendering module (repro.reporting) and its CLI hook."""

import json

from repro import Plankton, PlanktonOptions
from repro.cli import EXIT_VIOLATION, main as cli_main
from repro.config import ospf_everywhere
from repro.config.builder import edge_prefix, install_loop_inducing_statics
from repro.policies import LoopFreedom, Reachability
from repro.reporting import (
    render_markdown,
    result_to_dict,
    write_report,
)
from repro.topology import fat_tree


def _passing_result():
    network = ospf_everywhere(fat_tree(4))
    return Plankton(network, PlanktonOptions()).verify(Reachability(any_branch=True))


def _failing_result():
    network = ospf_everywhere(fat_tree(4))
    install_loop_inducing_statics(
        network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
    )
    return Plankton(network, PlanktonOptions()).verify(LoopFreedom())


class TestStructuredForm:
    def test_passing_result_dict(self):
        document = result_to_dict(_passing_result())
        assert document["holds"] is True
        assert document["violations"] == []
        assert document["pecs_analyzed"] > 0
        assert document["pec_runs"]
        assert all("pec_index" in run for run in document["pec_runs"])

    def test_failing_result_dict_contains_trail(self):
        document = result_to_dict(_failing_result())
        assert document["holds"] is False
        violation = document["violations"][0]
        assert violation["policy"] == "loop-freedom"
        assert violation["trail"]
        assert any(step["kind"] == "failure" for step in violation["trail"])

    def test_trails_can_be_omitted(self):
        document = result_to_dict(_failing_result(), include_trails=False)
        assert "trail" not in document["violations"][0]

    def test_json_output_round_trips(self):
        parsed = json.loads(json.dumps(result_to_dict(_failing_result())))
        assert parsed["holds"] is False
        assert parsed["elapsed_seconds"] >= 0


class TestMarkdown:
    def test_passing_report_mentions_holds(self):
        text = render_markdown(_passing_result(), title="Nightly check")
        assert text.startswith("# Nightly check")
        assert "**HOLDS**" in text
        assert "No violations" in text

    def test_failing_report_lists_violations_and_trail(self):
        text = render_markdown(_failing_result())
        assert "**VIOLATED**" in text
        assert "## Violations" in text
        assert "Event trail" in text
        assert "loop" in text.lower()

    def test_summary_table_has_metrics(self):
        text = render_markdown(_passing_result())
        assert "| PECs analysed |" in text
        assert "| failure scenarios |" in text


class TestWriteReport:
    def test_json_suffix_writes_json(self, tmp_path):
        path = write_report(_passing_result(), tmp_path / "report.json")
        parsed = json.loads(path.read_text())
        assert parsed["holds"] is True

    def test_other_suffix_writes_markdown(self, tmp_path):
        path = write_report(_failing_result(), tmp_path / "report.md", title="Change 42")
        text = path.read_text()
        assert text.startswith("# Change 42")
        assert "**VIOLATED**" in text


class TestCliReportOption:
    TOPOLOGY = """
topology triangle
node r1
node r2
node r3
link r1 r2 weight 10
link r2 r3 weight 10
link r1 r3 weight 10
"""
    CONFIG = """
device r1
  ospf
    network 10.0.1.0/24
device r2
  ospf
  static 10.0.1.0/24 next-hop r3
device r3
  ospf
  static 10.0.1.0/24 next-hop r2
"""

    def test_verify_writes_report_file(self, tmp_path, capsys):
        (tmp_path / "net.topo").write_text(self.TOPOLOGY)
        (tmp_path / "net.cfg").write_text(self.CONFIG)
        report_path = tmp_path / "out.json"
        code = cli_main(
            [
                "verify",
                "--topology", str(tmp_path / "net.topo"),
                "--config", str(tmp_path / "net.cfg"),
                "--policy", "loop",
                "--report", str(report_path),
            ]
        )
        assert code == EXIT_VIOLATION
        parsed = json.loads(report_path.read_text())
        assert parsed["holds"] is False
        assert parsed["violations"]
