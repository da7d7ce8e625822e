"""Tests for the command-line interface (``python -m repro``)."""

import json
import re
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import EXIT_ERROR, EXIT_HOLDS, EXIT_VIOLATION, build_parser, main


TOPOLOGY_TEXT = """
topology triangle
node r1 role edge
node r2 role core
node r3 role core
link r1 r2 weight 10
link r2 r3 weight 10
link r1 r3 weight 10
"""

GOOD_CONFIG = """
device r1
  ospf
    network 10.0.1.0/24
device r2
  ospf
device r3
  ospf
"""

# Static routes on r2 and r3 override OSPF for the advertised prefix and send
# packets around the r2 <-> r3 link forever (the Fig. 7a "fail" pattern).
LOOPING_CONFIG = GOOD_CONFIG + """
device r2
  ospf
  static 10.0.1.0/24 next-hop r3
device r3
  ospf
  static 10.0.1.0/24 next-hop r2
"""

# ``s`` load-balances over ``a`` and ``b``; only ``a`` has a route onward.
ECMP_TOPOLOGY_TEXT = """
topology square
node s role edge
node a role core
node b role core
node d role edge
link s a weight 10
link s b weight 10
link a d weight 10
link b d weight 10
"""

ECMP_CONFIG = """
device d
  ospf
    network 10.0.1.0/24
device s
  static 10.0.1.0/24 next-hop a
  static 10.0.1.0/24 next-hop b
device a
  static 10.0.1.0/24 next-hop d
device b
"""


@pytest.fixture
def workspace(tmp_path):
    """A directory containing the triangle topology and both config variants."""
    (tmp_path / "net.topo").write_text(TOPOLOGY_TEXT)
    (tmp_path / "good.cfg").write_text(GOOD_CONFIG)
    (tmp_path / "looping.cfg").write_text(LOOPING_CONFIG)
    return tmp_path


def _run(args):
    return main([str(a) for a in args])


class TestVerifyCommand:
    def test_reachability_holds(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "reachability", "--sources", "r2,r3",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "HOLDS" in out

    def test_cores_flag(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "reachability", "--sources", "r2,r3", "--cores", "2",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "HOLDS" in out

    @pytest.mark.parametrize("command", ["verify", "diff-verify", "transient"])
    def test_the_backend_flag_is_gone(self, workspace, command, capsys):
        """The backend follows from ``--cores``: the old spelling is an
        argparse error (exit 2), not a silently ignored flag."""
        inputs = ["--topology", workspace / "net.topo", "--config", workspace / "good.cfg"]
        if command == "diff-verify":
            inputs = [workspace / "good.cfg", workspace / "good.cfg", *inputs[:2]]
        if command != "transient":
            inputs += ["--policy", "loop"]
        with pytest.raises(SystemExit) as excinfo:
            _run([command, *inputs, "--backend", "serial"])
        assert excinfo.value.code == EXIT_ERROR
        assert "--backend" in capsys.readouterr().err

    def test_loop_violation_detected(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--policy", "loop",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "VIOLATED" in out
        assert "loop" in out.lower()

    def test_json_output_is_parseable(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--policy", "loop", "--json",
        ])
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATION
        assert document["holds"] is False
        assert document["violations"]
        assert document["policy"]

    def test_reachability_under_failures(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "reachability", "--sources", "r2", "--max-failures", "1",
        ])
        assert code == EXIT_HOLDS
        assert "failure scenario" in capsys.readouterr().out

    def test_waypoint_requires_sources_and_waypoints(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "waypoint",
        ])
        assert code == EXIT_ERROR
        assert "requires" in capsys.readouterr().err

    def test_bounded_path_length(self, workspace):
        assert _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "bounded-path-length", "--max-hops", "2",
        ]) == EXIT_HOLDS

    def test_unknown_source_device_is_an_input_error(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "reachability", "--sources", "nope",
        ])
        assert code == EXIT_ERROR
        assert "unknown device" in capsys.readouterr().err

    def test_missing_topology_file_is_an_input_error(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "missing.topo", "--config", workspace / "good.cfg",
            "--policy", "loop",
        ])
        assert code == EXIT_ERROR

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("verify", ["--no-optimizations"]),
            ("verify", ["--config-dir", "configs"]),
            ("transient", ["--fail-session", "o,m"]),
            ("transient", ["--scenario-kinds", "crash"]),
        ],
        ids=["no-optimizations", "config-dir", "fail-session", "scenario-kinds"],
    )
    def test_flags_no_workload_set_are_gone(self, workspace, command, flags):
        """The §4 ablations are a library call (``OptimizationFlags``), a
        session flap is ``--scenario flap:A,B`` and ``--scenario-events``
        enumerates every kind: these spellings are refused."""
        argv = [command, "--topology", str(workspace / "net.topo"),
                "--config", str(workspace / "good.cfg")]
        if command == "verify":
            argv += ["--policy", "loop"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + flags)


class TestPecsCommand:
    def test_lists_packet_equivalence_classes(self, workspace, capsys):
        code = _run([
            "pecs", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "packet equivalence class" in out
        assert "10.0.1.0/24" in out
        assert "no cross-PEC dependencies" in out


class TestSimulateCommand:
    def test_dumps_fibs(self, workspace, capsys):
        code = _run([
            "simulate", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "10.0.1.0/24" in out
        # Every router should have an entry towards the advertised prefix.
        assert "r2:" in out and "r3:" in out


class TestTraceCommand:
    def test_traces_delivered_packet(self, workspace, capsys):
        code = _run([
            "trace", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--source", "r3", "--destination", "10.0.1.7",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "forwarding branches from r3" in out
        assert "delivered" in out

    def test_traces_looping_packet(self, workspace, capsys):
        code = _run([
            "trace", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--source", "r2", "--destination", "10.0.1.7", "--show-fibs",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "loop" in out

    def test_unconfigured_destination_reports_drop(self, workspace, capsys):
        code = _run([
            "trace", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--source", "r1", "--destination", "192.168.55.1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "no configured prefix" in out

    def test_bad_destination_address_is_an_input_error(self, workspace, capsys):
        code = _run([
            "trace", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--source", "r1", "--destination", "not-an-ip",
        ])
        assert code == EXIT_ERROR


class TestParser:
    def test_parser_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "flags",
        [["--frontier", "priority"], ["--minimize-witness"], ["--include-converged"]],
        ids=["frontier", "minimize-witness", "include-converged"],
    )
    def test_transient_refuses_the_removed_search_flags(self, bgp_workspace, flags):
        """One BFS frontier, one witness form, and converged loops are
        ``verify --policy loop``'s: none of these is a flag any more."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["transient", "--topology", str(bgp_workspace / "bgp.topo"),
                 "--config", str(bgp_workspace / "bgp.cfg")] + flags
            )

    def test_every_flag_the_readme_shows_is_accepted(self):
        """Every ``--flag`` on a ``repro <command>`` line of README.md — in a
        code block (continuation lines joined) or an inline code span — is
        an option of that sub-command's parser, so a removed flag cannot stay
        documented."""
        import argparse
        from pathlib import Path

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        parser = build_parser()
        commands = next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        blocks = re.findall(r"```[a-z]*\n(.*?)```", readme, re.S)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
        lines += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
        checked = 0
        for line in lines:
            for match in re.finditer(r"\brepro\s+(--?[\w-]+|[\w-]+)(.*)", line.replace("\n", " ")):
                word, rest = match.groups()
                if word.startswith("-"):
                    command, flags = parser, [word]
                elif word in commands:
                    command, flags = commands[word], re.findall(r"(?<![\w-])--[\w-]+", rest)
                else:
                    continue
                for flag in flags:
                    assert flag in command._option_string_actions, (word, flag, line)
                    checked += 1
        assert checked > 20

    def test_every_transient_flag_fits_the_serve_spec(self, bgp_workspace):
        """What ``repro transient`` sends is exactly what a serve transient
        push accepts, and it rebuilds the options the flags ask for."""
        from repro.cli import _request_payload
        from repro.serve.specs import check_push_fields, transient_options_from_spec

        args = build_parser().parse_args([
            "transient", "--topology", str(bgp_workspace / "bgp.topo"),
            "--config", str(bgp_workspace / "bgp.cfg"), "--property", "blackhole",
            "--sources", "a,b", "--max-states", "77", "--max-depth", "9",
            "--por", "sleep", "--all-violations", "--scenario-events", "1",
        ])
        payload = _request_payload(args, "transient")
        check_push_fields(payload)
        options = transient_options_from_spec(payload["transient"])
        assert (options.max_states, options.max_depth, options.por) == (77, 9, "sleep")
        assert options.stop_at_first_violation is False
        assert options.scenario_events == 1
        assert options.collect_converged is False

    def test_verify_requires_policy(self, workspace):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "--topology", str(workspace / "net.topo"),
                 "--config", str(workspace / "good.cfg")]
            )


# --------------------------------------------------------------------------- transient + incremental CLI
BGP_TOPOLOGY_TEXT = """
topology square
node o role edge
node m role core
node a role core
node b role core
link o m weight 10
link m a weight 10
link m b weight 10
link a b weight 10
"""

BGP_CONFIG = """
device o
  bgp 65000
    network 10.9.0.0/24
    neighbor m remote-as 65001
device m
  bgp 65001
    neighbor o remote-as 65000
    neighbor a remote-as 65002
    neighbor b remote-as 65003
device a
  bgp 65002
    neighbor m remote-as 65001
    neighbor b remote-as 65003
device b
  bgp 65003
    neighbor m remote-as 65001
    neighbor a remote-as 65002
"""


@pytest.fixture
def bgp_workspace(tmp_path):
    (tmp_path / "bgp.topo").write_text(BGP_TOPOLOGY_TEXT)
    (tmp_path / "bgp.cfg").write_text(BGP_CONFIG)
    return tmp_path


class TestSimulationRunsOncePerPrefix:
    """``simulate`` and ``trace`` used to simulate every PEC two or three
    times over (a discarded policy check, then the dump, then the trace)."""

    @pytest.fixture
    def simulated_prefixes(self, monkeypatch):
        from repro.protocols.spvp import SpvpStepper

        prefixes = []
        drain = SpvpStepper.drain

        def counting_drain(stepper, *args, **kwargs):
            prefixes.append(str(stepper.instance.prefix))
            return drain(stepper, *args, **kwargs)

        monkeypatch.setattr(SpvpStepper, "drain", counting_drain)
        return prefixes

    @pytest.fixture
    def two_prefix_workspace(self, bgp_workspace):
        (bgp_workspace / "bgp.cfg").write_text(
            BGP_CONFIG.replace(
                "network 10.9.0.0/24", "network 10.9.0.0/24\n    network 10.8.0.0/24"
            )
        )
        return bgp_workspace

    def test_simulate_runs_spvp_once_per_pec_and_prefix(
        self, two_prefix_workspace, simulated_prefixes, capsys
    ):
        code = _run([
            "simulate", "--topology", two_prefix_workspace / "bgp.topo",
            "--config", two_prefix_workspace / "bgp.cfg",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "10.8.0.0/24" in out and "10.9.0.0/24" in out
        assert sorted(simulated_prefixes) == ["10.8.0.0/24", "10.9.0.0/24"]

    def test_trace_runs_spvp_once_for_the_target_pec(
        self, two_prefix_workspace, simulated_prefixes, capsys
    ):
        code = _run([
            "trace", "--topology", two_prefix_workspace / "bgp.topo",
            "--config", two_prefix_workspace / "bgp.cfg",
            "--source", "a", "--destination", "10.9.0.7", "--show-fibs",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "a -> m -> o [delivered]" in out
        assert simulated_prefixes == ["10.9.0.0/24"]


class TestTransientCommand:
    def test_holds_from_cold_start(self, bgp_workspace, capsys):
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--max-states", "500",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "HOLDS" in out

    def test_session_flap_violation_sets_exit_code(self, bgp_workspace, capsys):
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg",
            "--scenario", "flap:o,m", "--max-states", "2000",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "VIOLATED" in out
        assert "transient forwarding loop" in out

    def test_por_modes_agree_on_the_flap(self, bgp_workspace, capsys):
        """``--por`` is the one exploration knob: the reduced modes and the
        unreduced oracle give the same exit code and violated properties."""
        outcomes = {}
        for por in ("ample", "sleep", "full"):
            code = _run([
                "transient", "--topology", bgp_workspace / "bgp.topo",
                "--config", bgp_workspace / "bgp.cfg", "--scenario", "flap:o,m",
                "--por", por, "--all-violations", "--json",
            ])
            document = json.loads(capsys.readouterr().out)
            violated = {
                violation["property"]
                for run in document["runs"]
                for violation in run["result"]["violations"]
            }
            outcomes[por] = (code, violated)
        assert outcomes["full"] == (EXIT_VIOLATION, {"transient-loop-freedom"})
        assert outcomes["ample"] == outcomes["sleep"] == outcomes["full"]

    def test_json_output_and_report(self, bgp_workspace, tmp_path, capsys):
        report = tmp_path / "transient.md"
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--json",
            "--report", report, "--max-states", "300",
        ])
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_HOLDS
        assert document["holds"] is True
        assert document["runs"]
        assert "Transient analysis" in report.read_text()

    def test_cores_flag_is_plumbed(self, bgp_workspace, capsys):
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--cores", "2", "--max-states", "300",
        ])
        assert code == EXIT_HOLDS

    def test_unknown_flap_device_is_an_input_error(self, bgp_workspace, capsys):
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--scenario", "flap:o,zz",
        ])
        assert code == EXIT_ERROR
        assert "unknown device" in capsys.readouterr().err

    def test_cache_dir_serves_second_run_from_cache(self, bgp_workspace, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = [
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--json",
            "--cache-dir", cache, "--max-states", "300",
        ]
        assert _run(args) == EXIT_HOLDS
        capsys.readouterr()
        assert _run(args) == EXIT_HOLDS
        document = json.loads(capsys.readouterr().out)
        assert document["incremental"]["pecs_from_cache"] == document["incremental"]["pecs_total"]

    def test_rank_immunity_always_runs(self, bgp_workspace, capsys):
        """The ample reduction's rank-immunity refinement has no switch: the
        ledgers prove it ran, and the flag that turned it off is gone."""
        args = [
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--json",
            "--max-states", "2000",
        ]
        assert _run(args) == EXIT_HOLDS
        document = json.loads(capsys.readouterr().out)
        reductions = [run["result"]["reduction"] for run in document["runs"]]
        assert any(r["rank_immune_sessions"] > 0 for r in reductions)
        with pytest.raises(SystemExit):
            _run(args + ["--no-rank-immunity"])

    def test_no_bgp_prefixes_is_inconclusive(self, workspace, capsys):
        # Nothing was searched: no violation, and nothing shown to hold.
        code = _run([
            "transient", "--topology", workspace / "net.topo",
            "--config", workspace / "good.cfg",
        ])
        assert code == EXIT_ERROR
        out = capsys.readouterr().out
        assert "no BGP-originated prefixes" in out
        assert "transient campaign: INCONCLUSIVE (nothing to search);" in out


class TestTransientScenarioFlags:
    """The lifecycle-scenario surface of ``repro transient``: explicit
    ``--scenario`` selections, the ``--scenario-events`` enumerator budget,
    exit codes on bad input, JSON round-trips, and the campaign-cache
    fingerprint covering scenarios."""

    def _args(self, bgp_workspace, *extra):
        return [
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--max-states", "2000",
            *extra,
        ]

    def test_crash_scenario_finds_the_transient_loop(self, bgp_workspace, capsys):
        code = _run(self._args(bgp_workspace, "--scenario", "crash:m"))
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "VIOLATED" in out
        assert "1 event scenario(s)" in out

    def test_maintenance_scenario_holds(self, bgp_workspace, capsys):
        code = _run(self._args(bgp_workspace, "--scenario", "maintenance:a"))
        assert code == EXIT_HOLDS
        assert "HOLDS" in capsys.readouterr().out

    def test_staged_scenario_spec_parses(self, bgp_workspace):
        code = _run(self._args(bgp_workspace, "--scenario", "drain:a+return:a"))
        assert code == EXIT_HOLDS

    def test_unknown_scenario_device_is_an_input_error(self, bgp_workspace, capsys):
        code = _run(self._args(bgp_workspace, "--scenario", "crash:zz"))
        assert code == EXIT_ERROR
        assert "unknown device" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--scenario", "flap:o,a"),
            ("--scenario", "gray:o,a"),
            ("--scenario", "gray:a,a"),
            ("--scenario", "flap:a,a"),
        ],
        ids=["flap-no-session", "gray-no-session", "gray-one-device", "flap-one-device"],
    )
    def test_a_session_event_must_name_a_session(self, bgp_workspace, capsys, flags):
        """``o`` and ``a`` configure no BGP session on the square, and a
        device has no session with itself: such an event used to verify as
        HOLDS over one state."""
        assert _run(self._args(bgp_workspace, *flags)) == EXIT_ERROR
        assert "do not peer over BGP" in capsys.readouterr().err

    @pytest.fixture
    def ibgp_ring_workspace(self, tmp_path):
        """iBGP over OSPF on a ring of six: every pair of devices peers over
        the IGP except the linked pair ``r0``-``r1``."""
        from repro.netaddr import Prefix
        from repro.topology import ring
        from repro.topology.io import format_topology

        topology = ring(6)
        names = sorted(topology.nodes)
        lines = []
        for index, name in enumerate(names):
            loopback = f"10.255.0.{index + 1}/32"
            topology.node(name).loopback = Prefix(loopback)
            lines += [f"device {name}", "  ospf", f"    network {loopback}", "  bgp 65000"]
            if name == "r0":
                lines.append("    network 200.0.0.0/16")
            lines += [
                f"    neighbor {peer} remote-as 65000"
                for peer in names
                if peer != name and {name, peer} != {"r0", "r1"}
            ]
        (tmp_path / "bgp.topo").write_text(format_topology(topology))
        (tmp_path / "bgp.cfg").write_text("\n".join(lines) + "\n")
        return tmp_path

    @pytest.mark.parametrize(
        "flags",
        [("--scenario", "flap:r0,r3"), ("--scenario", "gray:r3,r0")],
        ids=["flap", "gray"],
    )
    def test_a_session_event_may_name_an_ibgp_session_with_no_link(
        self, ibgp_ring_workspace, capsys, flags
    ):
        """No link joins ``r0`` and ``r3``, but they peer over the IGP: the
        event names a real session and runs."""
        assert _run(self._args(ibgp_ring_workspace, *flags)) == EXIT_HOLDS
        assert "1 run(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [("--scenario", "flap:r1,r0"), ("--scenario", "gray:r0,r1")],
        ids=["flap", "gray"],
    )
    def test_a_link_with_no_session_on_it_names_no_session(
        self, ibgp_ring_workspace, capsys, flags
    ):
        assert _run(self._args(ibgp_ring_workspace, *flags)) == EXIT_ERROR
        assert "do not peer over BGP" in capsys.readouterr().err

    def test_malformed_scenario_spec_is_an_input_error(self, bgp_workspace, capsys):
        assert _run(self._args(bgp_workspace, "--scenario", "crash")) == EXIT_ERROR
        capsys.readouterr()
        assert _run(self._args(bgp_workspace, "--scenario", "meteor:m")) == EXIT_ERROR
        assert "unknown" in capsys.readouterr().err

    def test_negative_scenario_events_is_an_input_error(self, bgp_workspace, capsys):
        code = _run(self._args(bgp_workspace, "--scenario-events", "-1"))
        assert code == EXIT_ERROR
        assert "scenario_events must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--max-states", "0"], "max_states must be >= 1"),
            (["--max-states", "-5"], "max_states must be >= 1"),
            (["--max-depth", "-1"], "max_depth must be >= 0"),
        ],
        ids=["no-states", "negative-states", "negative-depth"],
    )
    def test_a_budget_no_search_can_honour_is_an_input_error(
        self, bgp_workspace, capsys, flags, named
    ):
        """Each of these used to run an empty search and print INCONCLUSIVE."""
        assert _run(self._args(bgp_workspace, *flags)) == EXIT_ERROR
        captured = capsys.readouterr()
        assert named in captured.err
        assert "INCONCLUSIVE" not in captured.out

    def test_scenario_enumeration_json_round_trip(self, bgp_workspace, capsys):
        code = _run(self._args(
            bgp_workspace, "--json", "--scenario-events", "1", "--all-violations",
        ))
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATION
        assert document["event_scenarios"] > 1
        labels = {run["scenario"] for run in document["runs"]}
        assert "steady state" in labels
        assert any(label.startswith("crash ") for label in labels)
        assert len(document["runs"]) == document["event_scenarios"]

    def test_explicit_scenario_json_carries_its_name(self, bgp_workspace, capsys):
        code = _run(self._args(
            bgp_workspace, "--json", "--scenario", "maintenance:a",
        ))
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_HOLDS
        assert document["event_scenarios"] == 1
        assert [run["scenario"] for run in document["runs"]] == ["maintenance:a"]

    def test_scenario_without_flags_leaves_json_unchanged(self, bgp_workspace, capsys):
        """No scenario flags: the document keeps its pre-scenario shape."""
        code = _run(self._args(bgp_workspace, "--json"))
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_HOLDS
        assert "event_scenarios" not in document
        assert all("scenario" not in run for run in document["runs"])

    def test_cache_distinguishes_campaigns_by_scenario(self, bgp_workspace, tmp_path, capsys):
        """Regression: two campaigns differing only in their scenario must not
        share a cache entry (the fingerprint now covers the (failure,
        scenario) task shape)."""
        cache = tmp_path / "cache"
        crash = self._args(
            bgp_workspace, "--json", "--cache-dir", cache, "--scenario", "crash:m",
        )
        calm = self._args(
            bgp_workspace, "--json", "--cache-dir", cache, "--scenario", "maintenance:a",
        )
        assert _run(crash) == EXIT_VIOLATION
        capsys.readouterr()
        # A different scenario over the same config must recompute — and
        # reach the opposite verdict, which a stale cache hit could not.
        assert _run(calm) == EXIT_HOLDS
        calm_doc = json.loads(capsys.readouterr().out)
        assert calm_doc["incremental"]["pecs_from_cache"] == 0
        assert calm_doc["holds"] is True
        # Re-running the same scenario IS served from cache, verdict intact.
        assert _run(crash) == EXIT_VIOLATION
        crash_doc = json.loads(capsys.readouterr().out)
        assert crash_doc["incremental"]["pecs_from_cache"] == crash_doc["incremental"]["pecs_total"]
        assert crash_doc["holds"] is False
        assert [run["scenario"] for run in crash_doc["runs"]] == ["crash:m"]


class TestVerifyCacheDir:
    def test_cache_dir_reports_incremental_accounting(self, workspace, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = [
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "loop", "--cache-dir", cache, "--json",
        ]
        assert _run(args) == EXIT_HOLDS
        first = json.loads(capsys.readouterr().out)
        assert first["incremental"]["pecs_recomputed"] == first["incremental"]["pecs_total"]
        assert _run(args) == EXIT_HOLDS
        second = json.loads(capsys.readouterr().out)
        assert second["incremental"]["pecs_from_cache"] == second["incremental"]["pecs_total"]
        assert second["holds"] is first["holds"]

    def test_cache_dir_composes_with_the_pool(self, workspace, tmp_path):
        cache = tmp_path / "cache"
        assert _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "loop", "--cache-dir", cache, "--cores", "2",
        ]) == EXIT_HOLDS

    def test_violation_exit_code_with_cache(self, workspace, tmp_path):
        cache = tmp_path / "cache"
        args = [
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--policy", "loop", "--cache-dir", cache,
        ]
        assert _run(args) == EXIT_VIOLATION
        assert _run(args) == EXIT_VIOLATION


class TestDiffVerifyCommand:
    def test_clean_to_clean_holds(self, workspace, capsys):
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "good.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "no configuration changes" in out

    def test_regression_is_detected_and_explained(self, workspace, capsys):
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "looping.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "static-route change" in out
        assert "VIOLATED" in out

    def test_json_document_carries_old_new_and_delta(self, workspace, capsys):
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "looping.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop", "--json",
        ])
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATION
        assert document["old"]["holds"] is True
        assert document["new"]["holds"] is False
        assert "static-route" in document["delta"]

    def test_cache_dir_and_cores_are_plumbed(self, workspace, tmp_path, capsys):
        cache = tmp_path / "cache"
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "good.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
            "--cache-dir", cache, "--cores", "3",
        ])
        assert code == EXIT_HOLDS
        assert (cache / "plankton_cache.json").exists()

    def test_missing_config_file_is_an_input_error(self, workspace, capsys):
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "missing.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
        ])
        assert code == EXIT_ERROR

    def test_report_file_is_written(self, workspace, tmp_path):
        report = tmp_path / "diff.md"
        _run([
            "diff-verify", workspace / "good.cfg", workspace / "looping.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
            "--report", report,
        ])
        text = report.read_text()
        assert "PECs served from cache" in text or "PECs recomputed" in text


class TestServerMode:
    """``--server URL``: the CLI as a thin client of ``repro serve``.

    Parity tests run a real in-thread server; failure-mode tests use stub
    HTTP servers so each transport failure maps to exit code 3
    (:data:`repro.cli.EXIT_UNAVAILABLE`) — distinct from both "policy
    violated" (1) and "bad input" (2).
    """

    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve import ReproServer

        instance = ReproServer(port=0, workers=1).start()
        yield instance
        instance.stop()

    def _verify_args(self, workspace, config, extra=()):
        return [
            "verify", "--topology", workspace / "net.topo", "--config", workspace / config,
            "--policy", "loop", *extra,
        ]

    #: name → (argv with workspace-relative file names, expected exit code).
    PARITY_COMMANDS = {
        # Local ``verify`` runs with ``--cache-dir`` so that, like every
        # server session, it goes through the incremental verifier.
        "verify": (
            ["verify", "--topology", "net.topo", "--config", "good.cfg", "--policy", "loop",
             "--cache-dir", "cache"],
            EXIT_HOLDS,
        ),
        "diff-verify": (
            ["diff-verify", "good.cfg", "looping.cfg", "--topology", "net.topo",
             "--policy", "loop"],
            EXIT_VIOLATION,
        ),
        "transient": (
            ["transient", "--topology", "bgp.topo", "--config", "bgp.cfg",
             "--scenario", "flap:o,m"],
            EXIT_VIOLATION,
        ),
        # Nothing to analyse (inconclusive): the explanatory note must read
        # the same.
        "transient-no-match": (
            ["transient", "--topology", "bgp.topo", "--config", "bgp.cfg",
             "--destination-prefix", "99.0.0.0/8"],
            EXIT_ERROR,
        ),
    }
    PARITY_MODES = {
        "text": [],
        "json": ["--json"],
        "report-json": ["--report", "report.json"],
        "report-md": ["--report", "report.md"],
    }

    @staticmethod
    def _without_timings(text):
        text = re.sub(r'"elapsed_seconds": [-+.e0-9]+', '"elapsed_seconds": 0', text)
        text = re.sub(r"\| elapsed \| [.0-9]+ s \|", "| elapsed | 0 s |", text)
        return re.sub(r"\b[0-9]+\.[0-9]{3}s\b", "0s", text)

    @pytest.mark.parametrize("mode", PARITY_MODES)
    @pytest.mark.parametrize("command", PARITY_COMMANDS)
    def test_server_mode_output_equals_local(
        self, command, mode, workspace, bgp_workspace, server, capsys
    ):
        """Exit code, stdout and the report file of a ``--server`` run are
        those of the in-process run, wall-clock fields aside."""
        files = {"net.topo", "good.cfg", "looping.cfg", "bgp.topo", "bgp.cfg", "cache",
                 "report.json", "report.md"}
        argv, expected_code = self.PARITY_COMMANDS[command]
        argv = [workspace / a if a in files else a for a in argv + self.PARITY_MODES[mode]]
        observed = []
        for where in ([], ["--server", server.url, "--namespace", f"parity-{command}-{mode}"]):
            code = _run(argv + where)
            report = None
            if mode.startswith("report"):
                report = self._without_timings(argv[-1].read_text())
                argv[-1].unlink()
            observed.append((code, self._without_timings(capsys.readouterr().out), report))
        local, remote = observed
        assert local[0] == expected_code
        assert remote == local

    def test_any_branch_locally_and_through_the_server(self, tmp_path, server, capsys):
        """One of ``s``'s two ECMP branches ends at ``b``, which has no route:
        reachability is VIOLATED on all branches and HOLDS on any branch,
        in-process and with the policy spec's ``any_branch`` on the wire."""
        (tmp_path / "sq.topo").write_text(ECMP_TOPOLOGY_TEXT)
        (tmp_path / "sq.cfg").write_text(ECMP_CONFIG)
        argv = [
            "verify", "--topology", tmp_path / "sq.topo", "--config", tmp_path / "sq.cfg",
            "--policy", "reachability", "--sources", "s",
        ]
        remote = ["--server", server.url, "--namespace", "any-branch"]
        for where in ([], remote):
            assert _run(argv + where) == EXIT_VIOLATION
            assert "s -> b [blackhole]" in capsys.readouterr().out
            assert _run(argv + ["--any-branch"] + where) == EXIT_HOLDS
            assert "HOLDS" in capsys.readouterr().out

    #: The capture matrix's inputs (``tests/test_cli_capture.py::INPUTS``),
    #: spelt by hand on the wire: what a push carries besides its network.
    WIRE = {
        "verify-holds": {
            "kind": "verify",
            "options": {"max_failures": 1},
            "policies": [{"policy": "reachability", "sources": ["r2", "r3"]}],
        },
        "verify-violated": {"kind": "verify", "policies": [{"policy": "loop"}]},
        "transient-holds": {
            "kind": "transient", "transient": {"max_states": 2000}, "scenarios": ["maintenance:a"],
        },
        "transient-violated": {
            "kind": "transient", "transient": {"max_states": 2000}, "scenarios": ["crash:m"],
        },
    }

    def test_the_cli_spelling_is_the_wire_spelling(self):
        """Every request of the capture matrix sends the spec a client would
        write by hand: wire field names, and no field the flags left unset."""
        from repro.cli import _request_payload
        from tests.test_cli_capture import INPUTS

        assert set(INPUTS) == set(self.WIRE)
        for name, (argv, _) in INPUTS.items():
            args = build_parser().parse_args(argv)
            assert _request_payload(args, args.command) == self.WIRE[name], name

    #: Inputs each surface refuses: name → (argv with workspace-relative
    #: file names, the field the message must name).
    REFUSED = {
        "loop-with-sources": (
            ["verify", "--topology", "net.topo", "--config", "good.cfg",
             "--policy", "loop", "--sources", "r1"],
            "sources",
        ),
        "unknown-source": (
            ["verify", "--topology", "net.topo", "--config", "good.cfg",
             "--policy", "reachability", "--sources", "r1,zz"],
            "sources",
        ),
        "empty-state-budget": (
            ["transient", "--topology", "bgp.topo", "--config", "bgp.cfg",
             "--max-states", "0"],
            "max_states",
        ),
        "bad-config": (
            ["verify", "--topology", "net.topo", "--config", "bad.cfg", "--policy", "loop"],
            "bad config: line 3",
        ),
        "bad-topology": (
            ["verify", "--topology", "bad.topo", "--config", "good.cfg", "--policy", "loop"],
            "bad topology: line 3",
        ),
    }

    @pytest.mark.parametrize("name", REFUSED)
    def test_every_surface_refuses_with_one_message(
        self, name, workspace, bgp_workspace, server, capsys
    ):
        """``repro CMD``, ``repro CMD --server`` and a raw push of the same
        request each refuse it, with the same message, naming the field (or
        the file and line the parser stopped at)."""
        from repro.cli import _request_payload

        argv, field = self.REFUSED[name]
        (workspace / "bad.cfg").write_text("device r1\n  ospf\n  bogus\n")
        (workspace / "bad.topo").write_text("topology t\nnode r1\nbogus r2\n")
        files = {"net.topo", "good.cfg", "bgp.topo", "bgp.cfg", "bad.cfg", "bad.topo"}
        argv = [str(workspace / a) if a in files else a for a in argv]
        errors = []
        for where in ([], ["--server", server.url, "--namespace", f"refused-{name}"]):
            assert _run(argv + where) == EXIT_ERROR
            errors.append(capsys.readouterr().err)
        local, remote = errors
        assert local == remote
        assert field in local

        # The files as a raw client sends them: the push parses both.
        args = build_parser().parse_args(argv)
        payload = dict(_request_payload(args, args.command),
                       topology=Path(args.topology).read_text(),
                       config=Path(args.config).read_text())
        request = urllib.request.Request(
            server.url + f"/v1/namespaces/refused-raw-{name}/push",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert f"error: {json.loads(excinfo.value.read())['error']}\n" == local

    def test_unreachable_server_exits_3(self, workspace, capsys):
        # A closed port on localhost: connection refused, never a real server.
        code = _run(self._verify_args(
            workspace, "good.cfg", ["--server", "http://127.0.0.1:1"],
        ))
        captured = capsys.readouterr()
        assert code == 3
        assert "cannot reach verification server" in captured.err

    @staticmethod
    def _stub_server(handler_class):
        """A one-purpose HTTP server on an ephemeral port; returns (httpd, url)."""
        import threading
        from http.server import ThreadingHTTPServer

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler_class)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        return httpd, f"http://127.0.0.1:{httpd.server_address[1]}"

    def test_http_500_exits_3(self, workspace, capsys):
        from http.server import BaseHTTPRequestHandler

        class Erroring(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                body = b'{"error": "internal splat"}'
                self.send_response(500)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd, url = self._stub_server(Erroring)
        try:
            code = _run(self._verify_args(workspace, "good.cfg", ["--server", url]))
        finally:
            httpd.shutdown()
            httpd.server_close()
        captured = capsys.readouterr()
        assert code == 3
        assert "server error 500" in captured.err

    def test_non_json_body_exits_3(self, workspace, capsys):
        from http.server import BaseHTTPRequestHandler

        class Garbling(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                body = b"<html>this is not the API you are looking for</html>"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd, url = self._stub_server(Garbling)
        try:
            code = _run(self._verify_args(workspace, "good.cfg", ["--server", url]))
        finally:
            httpd.shutdown()
            httpd.server_close()
        captured = capsys.readouterr()
        assert code == 3
        assert "non-JSON" in captured.err

    def test_serve_help_lists_service_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--workers", "3"])
        assert args.port == 0
        assert args.workers == 3


class TestRefusedOptions:
    """Values no run can honour are an input error, not a different run."""

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--max-failures", "-1"], "max_failures"),
            (["--cores", "0"], "cores"),
            (["--task-retries", "-1"], "task_retries"),
            (["--task-timeout", "0"], "task_timeout"),
        ],
    )
    def test_nonsense_engine_options_exit_2(self, workspace, capsys, flags, named):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "loop", *flags,
        ])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err

    def test_options_refuse_what_the_cli_refuses(self):
        from repro.core.options import PlanktonOptions

        for bad in (
            {"max_failures": -1},
            {"cores": 0},
            {"task_retries": -1},
            {"task_timeout": 0.0},
            {"max_states_per_pec": 0},
            {"max_seconds_per_pec": -1.0},
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):
                PlanktonOptions(**bad)
        # None is "no budget", and the defaults are of course fine.
        PlanktonOptions(task_timeout=None, max_seconds_per_pec=None)


class TestVersion:
    def test_version_flag_prints_the_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


# --------------------------------------------------------------------------- import budget
def _fresh_python(script, *argv):
    """Run ``script`` in a new interpreter (same ``repro``, fixed hash seed);
    returns the JSON document it prints last."""
    import os
    import subprocess
    import sys

    import repro

    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *[str(a) for a in argv]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


#: Runs ``repro.cli.main(argv)`` and reports the exit code, the stdout and
#: which of the program's and the interpreter's modules ended up loaded.
_MAIN_AND_MODULES = """
import contextlib, io, json, sys
from repro.cli import main
out = io.StringIO()
try:
    with contextlib.redirect_stdout(out):
        code = main(sys.argv[1:])
except SystemExit as stop:
    code = stop.code
print(json.dumps({"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""

#: What a request that explores nothing must not have paid for.
NEVER_ON_A_CACHED_VERIFY = {
    "repro.baselines", "repro.transient", "repro.scenarios", "repro.modelcheck.por.ample", "repro.modelcheck.por.sleep", "repro.core.network_model",
    "repro.protocols.rpvp", "repro.protocols.spvp", "repro.serve.http", "http.server",
    "multiprocessing", "concurrent.futures",
}


class TestImportBudget:
    """Imports per sub-command, as a set of modules (never as a time)."""

    def test_all_hit_verify_loads_no_explorer_no_server_no_pool(self, workspace):
        argv = [
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "loop", "--max-failures", "1", "--json", "--cache-dir", workspace / "warm",
        ]
        cold = _fresh_python(_MAIN_AND_MODULES, *argv)
        assert cold["code"] == EXIT_HOLDS
        assert "repro.core.network_model" in cold["modules"]  # the cold run did explore
        warm = _fresh_python(_MAIN_AND_MODULES, *argv)
        assert warm["code"] == EXIT_HOLDS
        accounting = json.loads(warm["out"])["incremental"]
        assert accounting["tasks_from_cache"] == accounting["tasks_total"] > 0
        assert NEVER_ON_A_CACHED_VERIFY & set(warm["modules"]) == set()

    def test_thin_client_loads_no_verifier(self, workspace):
        from repro.serve import ReproServer

        server = ReproServer(port=0, workers=1).start()
        try:
            remote = _fresh_python(
                _MAIN_AND_MODULES,
                "verify", "--topology", workspace / "net.topo", "--config",
                workspace / "good.cfg", "--policy", "loop",
                "--server", server.url, "--namespace", "budget",
            )
        finally:
            server.stop()
        assert remote["code"] == EXIT_HOLDS and "HOLDS" in remote["out"]
        forbidden = NEVER_ON_A_CACHED_VERIFY | {
            "repro.core.verifier", "repro.incremental", "repro.engine",
        }
        assert forbidden & set(remote["modules"]) == set()

    def test_pecs_loads_no_engine(self, workspace):
        listed = _fresh_python(
            _MAIN_AND_MODULES,
            "pecs", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
        )
        assert listed["code"] == EXIT_HOLDS and "packet equivalence class" in listed["out"]
        assert "repro.engine" not in listed["modules"]
        assert NEVER_ON_A_CACHED_VERIFY & set(listed["modules"]) == set()

    def test_version_loads_the_package_and_argparse(self):
        shown = _fresh_python(_MAIN_AND_MODULES, "--version")
        assert shown["code"] == 0
        loaded = {name for name in shown["modules"] if name.split(".")[0] == "repro"}
        assert loaded <= {
            "repro", "repro.cli", "repro.exceptions", "repro.reporting",
            "repro.core", "repro.core.options",
        }

    def test_pool_workers_inherit_the_explorer(self, workspace):
        """``--cores 2``: the explorer stack is loaded in
        the coordinating process before the pool forks (workers inherit it;
        none imports it again), and the verdict is the serial one."""
        script = """
import json, sys
from repro.config.parser import parse_config
from repro.core.options import PlanktonOptions
from repro.core.verifier import Plankton
from repro.engine.backends import ProcessPoolBackend
from repro.incremental import result_signature_digest
from repro.policies import LoopFreedom
from repro.topology.io import load_topology

network = parse_config(load_topology(sys.argv[1]), open(sys.argv[2]).read())
before_any_run = "repro.core.network_model" in sys.modules
at_pool_creation = []
new_pool = ProcessPoolBackend._new_pool
def watched(*args):
    at_pool_creation.append("repro.core.network_model" in sys.modules)
    return new_pool(*args)
ProcessPoolBackend._new_pool = staticmethod(watched)
def digest(**options):
    options = PlanktonOptions(max_failures=1, stop_at_first_violation=False, **options)
    return result_signature_digest(Plankton(network, options).verify(LoopFreedom()))
pooled = digest(cores=2)
print(json.dumps({"before_any_run": before_any_run, "at_pool_creation": at_pool_creation,
                  "equal": pooled == digest(cores=1)}))
"""
        seen = _fresh_python(script, workspace / "net.topo", workspace / "good.cfg")
        assert seen == {"before_any_run": False, "at_pool_creation": [True], "equal": True}


class TestPackageExports:
    """The package ``__init__``s resolve their public names on first access:
    every name still resolves, to the object its defining module holds."""

    PACKAGES = [
        "repro", "repro.core", "repro.serve", "repro.engine", "repro.incremental",
        "repro.baselines", "repro.transient", "repro.scenarios", "repro.modelcheck.por",
        "repro.protocols",
    ]
    #: Names a package exports from another package's module.
    RE_EXPORTS = {"repro.transient": {"Converge", "FailSession"}}

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_every_public_name_is_the_defining_modules_object(self, package_name):
        import importlib

        package = importlib.import_module(package_name)
        assert len(package.__all__) == len(set(package.__all__)) > 0
        for name in package.__all__:
            value = getattr(package, name)
            origin = package._ORIGINS.get(name)
            if origin is None:  # defined in the package itself (``repro.__version__``)
                assert name in vars(package)
                continue
            assert origin.startswith(package_name + ".") or name in self.RE_EXPORTS.get(
                package_name, ()
            )
            assert value is getattr(importlib.import_module(origin), name), name
        with pytest.raises(AttributeError):
            package.no_such_name
        namespace = {}
        exec(f"from {package_name} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_documented_import_forms_keep_working(self):
        from repro import Plankton, PlanktonOptions, __version__  # noqa: F401
        from repro.config import parse_config  # noqa: F401
        from repro.engine import run_graph  # noqa: F401
        from repro.policies import LoopFreedom  # noqa: F401
        from repro.serve import ReproServer  # noqa: F401

        import repro.engine

        assert repro.engine.run_graph is run_graph
        assert Plankton.__module__ == "repro.core.verifier"
