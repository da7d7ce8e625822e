"""Command-line interface to the Plankton reproduction.

The CLI mirrors how configuration verifiers are run in practice: the operator
points the tool at a topology file and the device configurations, names the
policy to check and the failure environment, and reads a verdict plus a
counterexample trail when the check fails.

Subcommands:

``verify``
    Run the Plankton verifier against one or more policies.  Exit code 0 when
    every policy holds, 1 when a violation is found, 2 on input errors or
    when the run degraded to a partial result (some tasks exhausted their
    retries; see the report's ``errors`` section).

``pecs``
    Print the Packet Equivalence Class partition and the PEC dependency graph
    (paper §3.1/§3.2) without running any verification.

``simulate``
    Run the Batfish-style single-execution simulation and dump the resulting
    FIBs — useful to inspect what "the" converged data plane looks like, with
    the usual caveat that other convergences may exist.

``trace``
    Follow the forwarding branches of one packet (source device + destination
    address) through the simulated data plane.

``transient``
    Explore SPVP message interleavings and check transient properties
    (micro-loops, momentary black holes) in every reachable state, with the
    partial-order reduction of :mod:`repro.transient` exposed as ``--por``.

``serve``
    Run the long-lived verification service: warm per-namespace incremental
    sessions behind a JSON-over-HTTP API (:mod:`repro.serve`).  ``verify``,
    ``diff-verify`` and ``transient`` accept ``--server URL`` to run against
    such a service instead of in-process — the same request executor and
    result rendering, hence the same output and exit codes, plus exit code
    3 when the server cannot be reached.

``diff-verify``
    Verify an old configuration, then *incrementally* re-verify a new one:
    the structural delta is computed, only the impacted Packet Equivalence
    Classes are recomputed, and clean results are merged from the cache
    (:mod:`repro.incremental`).  ``--cache-dir`` persists the cache so a
    later invocation restarts warm; the same flag on ``verify`` gives the
    warm-restart workflow for a single configuration.

Examples::

    python -m repro verify --topology campus.topo --config campus.cfg \\
        --policy reachability --sources acc0,acc1 --max-failures 1
    python -m repro verify --topology campus.topo --config campus.cfg \\
        --policy loop --cache-dir .plankton-cache
    python -m repro diff-verify old.cfg new.cfg --topology campus.topo \\
        --policy loop --cache-dir .plankton-cache
    python -m repro transient --topology dc.topo --config dc.cfg \\
        --scenario flap:agg0_0,edge0_0 --por sleep
    python -m repro pecs --topology campus.topo --config campus.cfg
    python -m repro trace --topology campus.topo --config campus.cfg \\
        --source acc0 --destination 10.1.0.9
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path as FilePath
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# Only what every invocation needs is imported here; each handler imports
# what its sub-command runs, so ``pecs`` loads no engine, the ``--server``
# client no verifier, and ``--version`` nothing at all.
from repro import __version__
from repro.core.options import (
    POLICY_KINDS,
    POR_MODES,
    TRANSIENT_PROPERTIES,
)
from repro.exceptions import ReproError, ServerProtocolError, ServiceUnavailable
# EXIT_HOLDS / EXIT_VIOLATION / EXIT_ERROR are re-exported: callers import them from here.
from repro.reporting import (
    EXIT_ERROR,
    EXIT_HOLDS,
    EXIT_VIOLATION,
    report_form,
    verdict_exit_code,
    write_rendered_report,
)

if TYPE_CHECKING:
    from repro.config.objects import NetworkConfig

#: ``--server`` mode only: the verification server could not be reached or
#: answered unintelligibly.  Distinct from ``EXIT_ERROR`` so CI gates can
#: tell "the check failed" from "the checking infrastructure failed".
EXIT_UNAVAILABLE = 3


class CliError(ReproError):
    """Raised for bad command-line input; reported without a traceback."""


def _configure_logging(verbosity: int) -> None:
    """Surface the engine's structured event stream (``repro.*`` loggers).

    ``-v`` shows supervision events at INFO/WARNING (retries, timeouts,
    pool rebuilds, cache cold starts); ``-vv`` adds DEBUG (per-task
    start/finish).  Without ``-v`` only warnings and errors reach stderr —
    so a degraded run is never silent, even unasked.
    """
    logger = logging.getLogger("repro")
    level = (
        logging.WARNING
        if verbosity <= 0
        else logging.INFO if verbosity == 1 else logging.DEBUG
    )
    logger.setLevel(level)
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)


# --------------------------------------------------------------------------- input loading
def _load_network(topology_path: str, config: str) -> NetworkConfig:
    """Build the :class:`NetworkConfig` named by ``--topology`` and ``--config``
    (a refusal reads as a push's: :func:`repro.serve.specs.refused_as`)."""
    from repro.config.parser import parse_config
    from repro.serve.specs import refused_as

    topology = _load_topology(topology_path)
    with refused_as("config"):
        return parse_config(topology, FilePath(config).read_text())


def _load_topology(topology_path: str):
    """The topology ``--topology`` names, refused as a push's would be."""
    from repro.serve.specs import refused_as
    from repro.topology.io import load_topology

    with refused_as("topology"):
        return load_topology(topology_path)


def _network_payload(topology_path: str, config: str) -> Dict[str, object]:
    """The same inputs as a full-config push payload (``--server`` mode).

    The topology file may be DSL text or JSON; it is normalised through the
    regular loader and re-serialised so the server always receives canonical
    topology text.
    """
    from repro.topology.io import format_topology

    topology_text = format_topology(_load_topology(topology_path))
    return {"topology": topology_text, "config": FilePath(config).read_text()}


# --------------------------------------------------------------------------- request subcommands
def _request_payload(args: argparse.Namespace, kind: str) -> Dict[str, object]:
    """The wire-format request of the parsed flags (:mod:`repro.serve.specs`):
    shipped as the push body in ``--server`` mode, handed to
    :func:`repro.serve.jobs.run_request` in-process otherwise.

    A flag's ``dest`` is its wire field; a flag left unset is left out, so the
    field takes its constructor's default."""
    from repro.serve import specs

    given = {name: value for name, value in vars(args).items() if value is not None}

    def spec(fields: Sequence[str]) -> Dict[str, object]:
        return {name: given[name] for name in fields if name in given}

    payload: Dict[str, object] = {"kind": kind, "options": spec(specs.OPTION_FIELDS)}
    if kind == "verify":
        payload["policies"] = [spec(("policy",) + specs.POLICY_FIELDS)]
    else:
        properties = specs.transient_properties().values()
        payload["transient"] = spec(specs.TRANSIENT_FIELDS)
        payload["property"] = spec(("property",) + specs.fields_of(properties))
        payload.update(spec(("scenarios", "destination_prefix")))
    return {key: value for key, value in payload.items() if value != {}}


def _result_forms(args: argparse.Namespace) -> List[str]:
    """The rendered forms the output flags consume (see :func:`_emit`)."""
    forms = ["document" if args.json else "text"]
    if args.report:
        forms.append(report_form(args.report))
    return forms


def _run_requests(
    args: argparse.Namespace,
    kind: str,
    requests: Sequence[Tuple[str, Sequence[str]]],
) -> List[Dict[str, object]]:
    """Run the flags' request once per ``(config, forms)`` in ``requests`` —
    in order, on one session — and return each run's rendered forms.

    A config is a configuration file read beside ``--topology``.  The
    session is a namespace of the ``--server`` daemon, or in-process a
    :class:`Plankton` (a cache-less single ``verify``: no fingerprinting, no
    result store) or an :class:`IncrementalVerifier` that is ``update()``-d
    from one configuration to the next.
    """
    payload = _request_payload(args, kind)
    if args.server:
        from repro.client import ServiceClient

        client = ServiceClient(args.server)
        rendered = []
        for config, forms in requests:
            push = dict(payload, forms=list(forms), **_network_payload(args.topology, config))
            document = client.run(args.namespace or "default", push)
            if document.get("state") == "failed":
                raise CliError(f"server job {document.get('job')} failed: {document.get('error')}")
            if not isinstance(document.get("result"), dict):
                raise ServerProtocolError(
                    f"finished job {document.get('job')} carries no result payload"
                )
            rendered.append(document["result"])
        return rendered

    from repro.serve.jobs import run_request
    from repro.serve.specs import options_from_spec

    options = options_from_spec(payload.get("options"))
    networks = [_load_network(args.topology, config) for config, _ in requests]
    if kind == "verify" and len(networks) == 1 and not args.cache_dir:
        from repro.core.verifier import Plankton

        verifier = Plankton(networks[0], options)
    else:
        from repro.incremental import IncrementalVerifier

        verifier = IncrementalVerifier(networks[0], options, cache_dir=args.cache_dir or None)
    rendered = []
    delta = None
    for network, (_, forms) in zip(networks, requests):
        if rendered:
            delta = verifier.update(network)
        rendered.append(run_request(verifier, network, kind, payload, delta).render(forms))
    return rendered


def _emit(args: argparse.Namespace, rendered: Dict[str, object]) -> int:
    """Write ``--report``, print the ``--json`` document or the text, and
    map the verdict to the exit code."""
    if args.report:
        write_rendered_report(rendered, args.report)
    if args.json:
        print(json.dumps(rendered["document"], indent=2))
    else:
        print(rendered["text"])
    return verdict_exit_code(rendered["verdict"])


def _cmd_single_request(args: argparse.Namespace) -> int:
    """``verify`` and ``transient``: the subcommand name is the request kind."""
    (rendered,) = _run_requests(args, args.command, [(args.config, _result_forms(args))])
    return _emit(args, rendered)


def _cmd_diff_verify(args: argparse.Namespace) -> int:
    shown = "document" if args.json else "text"
    old, new = _run_requests(
        args,
        "verify",
        [
            (args.old_config, [shown]),
            (args.new_config, _result_forms(args)),
        ],
    )
    # The delta's first line is its one-line summary, as is the text form's.
    delta = str(new["delta"])
    if args.json:
        new["document"] = {
            "old": old["document"],
            "new": new["document"],
            "delta": delta.split("\n", 1)[0],
        }
    else:
        old_summary = str(old["text"]).split("\n", 1)[0]
        new["text"] = (
            f"old configuration: {old_summary}\n\n{delta}\n\nnew configuration: {new['text']}"
        )
    return _emit(args, new)


# --------------------------------------------------------------------------- other subcommands
def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the verification service until SIGTERM/SIGINT/Ctrl-C."""
    import signal

    from repro.serve import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=args.workers,
        queue_depth=args.queue_depth,
    )
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _signum, _frame: server.request_stop())
    # Announce the bound address (port 0 binds an ephemeral port) before
    # blocking, so wrappers can scrape the URL from the first stdout line.
    print(f"repro serve listening on {server.url}", flush=True)
    server.serve_forever()
    return EXIT_HOLDS


def _cmd_pecs(args: argparse.Namespace) -> int:
    from repro.pec.classes import compute_pecs
    from repro.pec.dependencies import build_dependency_graph

    network = _load_network(args.topology, args.config)
    pecs = compute_pecs(network)
    graph = build_dependency_graph(network, pecs)
    print(f"{len(pecs)} packet equivalence class(es)")
    for pec in pecs:
        print(pec.describe())
    print()
    print("dependency graph (PEC index -> depends on):")
    any_dependency = False
    for pec in pecs:
        dependencies = sorted(graph.dependencies_of(pec.index) - {pec.index})
        if dependencies:
            any_dependency = True
            print(f"  {pec.index} -> {', '.join(str(d) for d in dependencies)}")
    if not any_dependency:
        print("  (no cross-PEC dependencies)")
    sccs = [scc for scc in graph.strongly_connected_components() if len(scc) > 1]
    if sccs:
        print("strongly connected components larger than one PEC:")
        for scc in sccs:
            print(f"  {sorted(scc)}")
    return EXIT_HOLDS


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.baselines.simulation import SimulationVerifier

    network = _load_network(args.topology, args.config)
    simulator = SimulationVerifier(network, seed=args.seed)
    printed = 0
    for pec in simulator.pecs:
        if pec.is_empty:
            continue
        printed += 1
        print(pec.describe())
        data_plane, _control = simulator.data_plane(pec)
        print(data_plane.describe())
        print()
    if printed == 0:
        print("no configured prefixes; nothing to simulate")
    return EXIT_HOLDS


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.baselines.simulation import SimulationVerifier
    from repro.dataplane.forwarding import trace_paths
    from repro.netaddr import ip_to_int
    from repro.pec.classes import compute_pecs

    network = _load_network(args.topology, args.config)
    if args.source not in network.topology:
        raise CliError(f"unknown source device {args.source!r}")
    try:
        address = ip_to_int(args.destination)
    except Exception as exc:
        raise CliError(f"bad destination address {args.destination!r}: {exc}") from exc

    pecs = compute_pecs(network, include_default=True)
    target_pec = None
    for pec in pecs:
        if pec.address_range.contains_address(address):
            target_pec = pec
            break
    if target_pec is None or target_pec.is_empty:
        print(f"{args.destination}: no configured prefix covers this address; dropped everywhere")
        return EXIT_HOLDS

    print(f"destination {args.destination} falls into:")
    print(target_pec.describe())
    data_plane, _control = SimulationVerifier(network, seed=args.seed).data_plane(target_pec)

    print()
    print(f"forwarding branches from {args.source}:")
    for branch in trace_paths(data_plane, args.source, address):
        print(f"  {branch.describe()}")
    if args.show_fibs:
        print()
        print(data_plane.describe())
    return EXIT_HOLDS


# --------------------------------------------------------------------------- argument parsing
def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", required=True, help="topology file (.topo text or .json)")
    parser.add_argument("--config", required=True, help="multi-device configuration file (DSL)")


def _device_list(value: str) -> List[str]:
    """A comma-separated device list flag as the wire's list of names."""
    return [item.strip() for item in value.split(",") if item.strip()]


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", required=True, choices=list(POLICY_KINDS))
    parser.add_argument("--sources", type=_device_list, help="comma-separated source devices")
    parser.add_argument("--waypoints", type=_device_list, help="comma-separated waypoint devices")
    parser.add_argument(
        "--protected", type=_device_list, help="comma-separated protected devices (segmentation)"
    )
    parser.add_argument("--destination-prefix", help="restrict the check to one destination prefix")
    parser.add_argument("--max-hops", type=int, help="hop budget for bounded-path-length")
    parser.add_argument(
        "--any-branch",
        action="store_true",
        default=None,
        help="reachability: accept delivery on any ECMP branch instead of all branches",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    # A flag's dest is its wire field (repro.serve.specs) and its default
    # None: an unset flag is left out of the request, and the field takes
    # its dataclass default.
    parser.add_argument("--max-failures", type=int, help="link-failure budget")
    parser.add_argument(
        "--cores", type=int, help="worker processes for PEC tasks (> 1 runs a process pool)"
    )
    parser.add_argument(
        "--all-violations",
        dest="stop_at_first_violation",
        action="store_false",
        default=None,
        help="keep searching after the first violation",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        help=(
            "per-task deadline in seconds; a task that overruns is retried "
            "and, on exhaustion, reported in the result's errors section"
        ),
    )
    parser.add_argument(
        "--task-retries",
        type=int,
        help="retries per failed/timed-out task before it is recorded as failed",
    )
    parser.add_argument(
        "--cache-dir",
        help="directory for the persistent incremental result cache (warm restarts)",
    )
    parser.add_argument(
        "--server",
        help=(
            "run against a repro serve instance at this URL instead of "
            "in-process (e.g. http://127.0.0.1:8080); exit code 3 when the "
            "server is unreachable"
        ),
    )
    parser.add_argument(
        "--namespace",
        default=None,
        help="server namespace (warm session) to push into (default: 'default')",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--report",
        help="also write a report file (.json for structured output, anything else for Markdown)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and documentation tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Plankton-style network configuration verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help=(
            "surface the engine's event stream on stderr (-v: supervision "
            "events — retries, timeouts, pool rebuilds, cache cold starts; "
            "-vv: per-task debug)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    verify = subparsers.add_parser("verify", help="verify a policy over all converged data planes")
    _add_input_arguments(verify)
    _add_policy_arguments(verify)
    _add_engine_arguments(verify)
    verify.set_defaults(handler=_cmd_single_request)

    diff_verify = subparsers.add_parser(
        "diff-verify",
        help="verify OLD, then incrementally re-verify NEW (only impacted PECs recomputed)",
    )
    diff_verify.add_argument("old_config", help="the old multi-device configuration file")
    diff_verify.add_argument("new_config", help="the new multi-device configuration file")
    diff_verify.add_argument(
        "--topology", required=True, help="topology file (.topo text or .json)"
    )
    _add_policy_arguments(diff_verify)
    _add_engine_arguments(diff_verify)
    diff_verify.set_defaults(handler=_cmd_diff_verify)

    transient = subparsers.add_parser(
        "transient",
        help="explore SPVP interleavings and check transient properties",
    )
    _add_input_arguments(transient)
    transient.add_argument(
        "--property",
        choices=list(TRANSIENT_PROPERTIES),
        help="transient property to check (default: loop)",
    )
    transient.add_argument(
        "--sources",
        type=_device_list,
        help="blackhole: restrict the check to these source devices",
    )
    transient.add_argument(
        "--destination-prefix", help="restrict the analysis to PECs covering this prefix"
    )
    transient.add_argument(
        "--max-states", type=int, help="state budget per exploration"
    )
    transient.add_argument(
        "--max-depth", type=int, help="delivery-depth budget per exploration"
    )
    transient.add_argument(
        "--por",
        choices=list(POR_MODES),
        help="partial-order reduction mode (full = unreduced oracle)",
    )
    transient.add_argument(
        "--scenario",
        dest="scenarios",
        metavar="SCENARIO",
        action="append",
        help=(
            "lifecycle scenario to cross with every failure scenario; "
            "KIND:ARGS parts joined with + (crash:NODE, restart:NODE, "
            "drain:NODE, return:NODE, drain-return:NODE (no settle), "
            "maintenance:NODE (drain, settle, return), flap:A,B, gray:A,B; "
            "A and B must peer over BGP); repeatable, one campaign scenario per flag"
        ),
    )
    transient.add_argument(
        "--scenario-events",
        type=int,
        help=(
            "enumerate all symmetry-reduced lifecycle scenarios of up to K "
            "events and cross them with every failure scenario (default: 0)"
        ),
    )
    _add_engine_arguments(transient)
    transient.set_defaults(handler=_cmd_single_request)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived verification service (warm incremental sessions over HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback)")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 binds an ephemeral port)"
    )
    serve.add_argument(
        "--cache-dir",
        help="root directory for per-namespace persistent result caches",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="verification worker threads (default: 2)"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="admission control: maximum queued jobs before pushes get HTTP 429",
    )
    serve.set_defaults(handler=_cmd_serve)

    pecs = subparsers.add_parser("pecs", help="show packet equivalence classes and dependencies")
    _add_input_arguments(pecs)
    pecs.set_defaults(handler=_cmd_pecs)

    simulate = subparsers.add_parser("simulate", help="single-execution simulation; dump FIBs")
    _add_input_arguments(simulate)
    simulate.add_argument("--seed", type=int, default=0, help="message-ordering seed")
    simulate.set_defaults(handler=_cmd_simulate)

    trace = subparsers.add_parser("trace", help="trace one packet through the simulated data plane")
    _add_input_arguments(trace)
    trace.add_argument("--source", required=True, help="source device")
    trace.add_argument("--destination", required=True, help="destination IPv4 address")
    trace.add_argument("--seed", type=int, default=0, help="message-ordering seed")
    trace.add_argument("--show-fibs", action="store_true", help="also dump the simulated FIBs")
    trace.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return int(args.handler(args))
    except (ServiceUnavailable, ServerProtocolError) as exc:
        # Transport-layer failures get their own exit code so CI can tell
        # "the check failed" apart from "the checking service failed".
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except (CliError, ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
