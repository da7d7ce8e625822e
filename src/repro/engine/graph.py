"""Task-graph construction for the parallel execution engine.

The unit of work in the engine is one *(PEC, failure scenario)* pair — the
same unit the paper hands to one SPIN process.  This module expands a
verification request into a :class:`TaskGraph`:

* for a network **without** cross-PEC dependencies every task is a free
  node (the paper's embarrassingly-parallel common case, §3.2), and the
  failure scenarios are reduced per PEC with the §4.3 Link Equivalence
  Class reduction;
* for a network **with** dependencies the SCC schedule of
  :class:`~repro.pec.dependencies.PecDependencyGraph` is unrolled per
  failure scenario into explicit dependency edges, so that mutually
  independent SCC members still run concurrently while every task starts
  only after the tasks whose converged data planes it consumes.

Edges always point from a task to tasks created *earlier* in the graph
order, so the construction order is a valid topological order — the serial
backend simply walks ``graph.tasks`` front to back and reproduces the
pre-engine verifier's execution order exactly (including the handling of
cyclic SCCs, whose members consume only the outcomes of members scheduled
before them).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.options import PlanktonOptions
from repro.core.scheduler import dependency_closure, restrict_schedule
from repro.pec.classes import PacketEquivalenceClass
from repro.pec.dependencies import PecDependencyGraph
from repro.policies.base import Policy
from repro.topology.failures import (
    FailureScenario,
    enumerate_failure_scenarios,
    reduced_failure_scenarios,
)
from repro.topology.graph import Topology


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit of work: explore one PEC under one failure.

    Attributes:
        task_id: Position of the task in the graph (also its topological
            rank: every dependency has a smaller id).
        pec_index: The PEC to explore (resolved against the worker's own
            PEC partition, so only the index crosses process boundaries).
        failure: The failure scenario to apply.
        check_policies: Whether the policies apply to this PEC.  Tasks run
            with ``check_policies=False`` only to materialise converged
            data planes for their dependents.
        collect_outcomes: Whether downstream tasks consume this task's
            converged data planes.
        depends_on: Ids of the tasks whose converged data planes this task
            needs (always smaller than ``task_id``).
        kind: What the task computes: ``"verify"`` (converged-state policy
            checking, the default) or ``"transient"`` (SPVP interleaving
            exploration of the PEC's BGP prefixes under the failure, once
            per lifecycle scenario of the payload).
        transient: The picklable per-task payload of a transient task
            (a :class:`repro.transient.explorer.TransientTaskConfig`).
    """

    task_id: int
    pec_index: int
    failure: FailureScenario
    check_policies: bool = True
    collect_outcomes: bool = False
    depends_on: Tuple[int, ...] = ()
    kind: str = "verify"
    transient: Optional[object] = None

    def stops_at_first_violation(self, options: PlanktonOptions) -> bool:
        """Whether a violation found by this task ends the request early.

        The flag belongs to the request: a transient task carries its
        campaign's :class:`~repro.transient.explorer.TransientOptions`, a
        verify task answers to the engine options.
        """
        if self.transient is not None:
            return self.transient.options.stop_at_first_violation
        return options.stop_at_first_violation


@dataclass
class TaskError:
    """A captured per-task execution error (picklable: strings only).

    ``kind`` names how the attempt died: ``"exception"`` (the task raised),
    ``"timeout"`` (it overran :attr:`PlanktonOptions.task_timeout`),
    ``"crash"`` (its worker process died abruptly), or ``"upstream"`` (a task
    it depends on failed, so it could never run).
    """

    kind: str
    message: str
    exception_type: str = ""
    traceback: str = ""

    @staticmethod
    def from_exception(exc: BaseException, kind: str = "exception") -> "TaskError":
        import traceback as _traceback

        rendered = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return TaskError(
            kind=kind,
            message=str(exc) or type(exc).__name__,
            exception_type=type(exc).__qualname__,
            traceback=rendered[-4000:],
        )


@dataclass
class TaskResult:
    """What one executed task sends back to the aggregator.

    ``runs`` holds one :class:`~repro.core.results.PecRunResult` per
    explored upstream-outcome combination (usually exactly one).
    ``data_planes`` carries the converged data planes when the task's spec
    asked for them (``collect_outcomes``); only the data planes travel
    across process boundaries — the RPVP event steps stay worker-local.
    ``error`` is set instead of ``runs`` when the attempt failed (the
    ledger decides between retry and a structured failure record).
    """

    task_id: int
    runs: List = field(default_factory=list)
    data_planes: List = field(default_factory=list)
    cancelled: bool = False
    error: Optional[TaskError] = None

    @property
    def has_violation(self) -> bool:
        return any(run.violations for run in self.runs)


@dataclass
class TaskGraph:
    """The expanded work items of one verification request."""

    tasks: List[TaskSpec] = field(default_factory=list)
    #: Value for :attr:`VerificationResult.failure_scenarios` (max per-PEC
    #: scenario count in the independent case, total enumeration otherwise —
    #: matching the pre-engine verifier's reporting).
    failure_scenarios: int = 0

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def has_edges(self) -> bool:
        return any(task.depends_on for task in self.tasks)


# --------------------------------------------------------------------------- scenarios
class NetworkSymmetry(NamedTuple):
    """What the symmetry reductions read of a network beyond one PEC.

    Attributes:
        topology: A copy of the topology with each link's weight pair as
            OSPF reads it: a cost override replaces the link weight, and a
            passive interface's weight is ``(cost, "passive")``.  Its link
            ids are the network's, and its rows and equitable partition are
            cached beside :meth:`Topology.compiled`.
        device_colors: Per device, the processes it runs and its OSPF
            settings that name no device (``redistribute_static``).  The most
            common colour is left out, so a network whose devices all run
            alike colours none.
        peers: The BGP session graph (:meth:`NetworkConfig.bgp_peers
            <repro.config.objects.NetworkConfig.bgp_peers>`): what lifecycle
            scenarios draw session events from, and the cone within which
            two events do not commute.
    """

    topology: Topology
    device_colors: Dict[str, object]
    peers: Dict[str, FrozenSet[str]]


def _ospf_weight(device, neighbor: str, weight):
    """The weight of ``device``'s link towards ``neighbor`` as OSPF reads it."""
    if device.ospf is None or neighbor not in device.ospf.interfaces:
        return weight
    cost = device.ospf.cost_to(neighbor, weight)
    return (cost, "passive") if device.ospf.is_passive(neighbor) else cost


def network_symmetry(network) -> NetworkSymmetry:
    """Build :class:`NetworkSymmetry` for ``network``: once per network
    (:attr:`Plankton.symmetry <repro.core.verifier.Plankton.symmetry>`),
    never once per PEC or per request."""
    topology = Topology(network.topology.name)
    for name in network.topology.nodes:
        topology.add_node(name)
    for link in network.topology.links:
        topology.add_link(
            link.a,
            link.b,
            weight=_ospf_weight(network.device(link.a), link.b, link.weight_ab),
            weight_ba=_ospf_weight(network.device(link.b), link.a, link.weight_ba),
        )
    colors = {
        name: (
            device.ospf is not None,
            device.bgp is not None,
            device.ospf is not None and device.ospf.redistribute_static,
        )
        for name, device in network.devices.items()
    }
    counts = Counter(colors.values())
    common = max(counts, key=counts.__getitem__, default=None)
    return NetworkSymmetry(
        topology,
        {name: color for name, color in colors.items() if color != common},
        network.bgp_peers(),
    )


def _origin_colors(symmetry: NetworkSymmetry, pec: PacketEquivalenceClass) -> Dict[str, object]:
    """The initial colours for the symmetry reductions of ``pec``: the device
    colours, and per device with a role in the PEC the prefixes it
    originates into OSPF and BGP and those it routes statically, so
    configuration asymmetry this PEC can see splits classes.  Devices left
    out share the colour ``None``, and readers look only at the partition
    the colours induce."""
    roles: Dict[str, Tuple[List[str], List[str], List[str]]] = {}
    for slot, origins in enumerate((pec.ospf_origins, pec.bgp_origins, pec.static_devices)):
        for prefix, devices in origins:
            for name in set(devices):  # a device lists a prefix once per static route
                roles.setdefault(name, ([], [], []))[slot].append(str(prefix))
    colors = dict(symmetry.device_colors)
    for name, lists in roles.items():
        colors[name] = (
            symmetry.device_colors.get(name),
            tuple(tuple(sorted(prefixes)) for prefixes in lists),
        )
    return colors


def failure_scenarios_for_pec(
    symmetry: NetworkSymmetry,
    pec: PacketEquivalenceClass,
    policies: Sequence[Policy],
    options: PlanktonOptions,
) -> List[FailureScenario]:
    """Failure scenarios for an independently analysed PEC (§4.1.4, §4.3)."""
    if options.max_failures <= 0:
        return [FailureScenario()]
    if not options.optimizations.failure_equivalence:
        return enumerate_failure_scenarios(symmetry.topology, options.max_failures)
    interesting: Set[str] = set()
    for policy in policies:
        nodes = policy.interesting_nodes(pec)
        if nodes:
            interesting.update(nodes)
        sources = policy.source_nodes(pec)
        if sources:
            interesting.update(sources)
    return reduced_failure_scenarios(
        symmetry.topology,
        options.max_failures,
        colors=_origin_colors(symmetry, pec),
        interesting_nodes=sorted(interesting),
    )


# --------------------------------------------------------------------------- builder
def build_task_graph(
    symmetry: NetworkSymmetry,
    pecs: Sequence[PacketEquivalenceClass],
    dependency_graph: PecDependencyGraph,
    policies: Sequence[Policy],
    options: PlanktonOptions,
    relevant: Sequence[PacketEquivalenceClass],
) -> TaskGraph:
    """Expand a verification request on the network ``symmetry`` was built
    from (:func:`network_symmetry`) into the task graph.

    ``relevant`` are the PECs at least one policy applies to; the closure
    of their dependencies decides between the edge-free independent
    expansion and the dependency-aware unrolling of the SCC schedule.
    """
    graph = TaskGraph()
    if not relevant:
        return graph

    needed = dependency_closure(dependency_graph, (pec.index for pec in relevant))
    has_dependencies = any(
        dependency_graph.dependencies_of(index) & needed for index in needed
    )

    if not has_dependencies:
        _expand_independent(graph, symmetry, policies, options, relevant)
    else:
        _expand_dependent(
            graph, symmetry, pecs, dependency_graph, policies, options, relevant, needed
        )
    return graph


def _expand_independent(
    graph: TaskGraph,
    symmetry: NetworkSymmetry,
    policies: Sequence[Policy],
    options: PlanktonOptions,
    relevant: Sequence[PacketEquivalenceClass],
) -> None:
    """Edge-free expansion: every (PEC, failure) pair is a free task."""
    scenario_count = 0
    for pec in relevant:
        scenarios = failure_scenarios_for_pec(symmetry, pec, policies, options)
        scenario_count = max(scenario_count, len(scenarios))
        for failure in scenarios:
            graph.tasks.append(
                TaskSpec(task_id=len(graph.tasks), pec_index=pec.index, failure=failure)
            )
    graph.failure_scenarios = scenario_count


def _expand_dependent(
    graph: TaskGraph,
    symmetry: NetworkSymmetry,
    pecs: Sequence[PacketEquivalenceClass],
    dependency_graph: PecDependencyGraph,
    policies: Sequence[Policy],
    options: PlanktonOptions,
    relevant: Sequence[PacketEquivalenceClass],
    needed: Set[int],
) -> None:
    """Unroll the SCC schedule per failure scenario into dependency edges.

    Failure scenarios are enumerated once for the whole network so topology
    changes are matched across the explorations of different PECs (§3.2).
    Within a cyclic SCC, members consume only the outcomes of members
    scheduled before them — the same fixpoint-free approximation as the
    pre-engine dependency-aware path.
    """
    relevant_indices = {pec.index for pec in relevant}
    schedule = restrict_schedule(dependency_graph, needed)
    scenarios = enumerate_failure_scenarios(symmetry.topology, options.max_failures)
    graph.failure_scenarios = len(scenarios)

    for failure in scenarios:
        created: Dict[int, int] = {}  # pec index -> task id, this failure only
        for scc in schedule:
            for index in scc:
                dependency_indices = sorted(
                    dependency_graph.dependencies_of(index) & needed - {index}
                )
                depends_on = tuple(
                    created[dep] for dep in dependency_indices if dep in created
                )
                task = TaskSpec(
                    task_id=len(graph.tasks),
                    pec_index=index,
                    failure=failure,
                    check_policies=index in relevant_indices,
                    collect_outcomes=bool(
                        dependency_graph.dependents_of(index) & needed
                    ),
                    depends_on=depends_on,
                )
                graph.tasks.append(task)
                created[index] = task.task_id


# --------------------------------------------------------------------------- transient campaigns
def event_scenarios_for_pec(
    symmetry: NetworkSymmetry,
    pec: PacketEquivalenceClass,
    transient_options,
    ledger=None,
) -> List[object]:
    """Lifecycle event scenarios for one PEC's transient campaign.

    The device analogue of :func:`failure_scenarios_for_pec`: enumerate
    k-event lifecycle scenarios (``transient_options.scenario_events``) with
    DEC/LEC symmetry reduction, colouring devices by the same per-PEC origin
    roles the link reduction uses so configuration asymmetry visible to this
    PEC splits equivalence classes.  ``ledger`` (a
    :class:`repro.scenarios.ScenarioLedger`) receives the reduction counts.
    """
    from repro.scenarios.enumerator import enumerate_event_scenarios

    if transient_options.scenario_events <= 0:
        return []
    return enumerate_event_scenarios(
        symmetry.topology,
        symmetry.peers,
        transient_options.scenario_events,
        colors=_origin_colors(symmetry, pec),
        ledger=ledger,
    )


def build_transient_task_graph(
    symmetry: NetworkSymmetry,
    pecs: Sequence[PacketEquivalenceClass],
    options: PlanktonOptions,
    transient,
    failures: Optional[Sequence[FailureScenario]] = None,
    scenarios: Optional[Sequence[object]] = None,
) -> TaskGraph:
    """Expand a transient campaign over ``pecs`` of the network ``symmetry``
    was built from into one task graph.

    One task per (PEC, failure scenario), PEC-major in the order given —
    the unit :func:`build_task_graph` uses.  ``transient`` is the picklable
    campaign payload (:class:`repro.transient.explorer.TransientTaskConfig`).
    Scenarios come from ``failures`` when given, otherwise from the same
    §4.1.4/§4.3 enumeration-plus-LEC reduction converged-state verification
    uses.  Transient tasks are edge-free (an SPVP exploration consumes no
    upstream data planes), so every backend runs them fully concurrently
    with cross-worker early cancellation.

    ``scenarios`` (lifecycle event scenarios — :class:`repro.scenarios.
    Scenario` values) are crossed with the failure scenarios *inside* each
    task: its payload carries the PEC's scenario list, and the task explores
    every scenario from one shared steady state
    (:func:`repro.transient.explorer.execute_transient_task`).  When
    ``scenarios`` is None and ``transient.options.scenario_events > 0`` the
    scenario list is derived per PEC with :func:`event_scenarios_for_pec`
    (deterministic, so warm-cache re-verification re-derives the identical
    payloads).
    """
    import dataclasses

    graph = TaskGraph()
    for pec in pecs:
        failure_list = (
            list(failures)
            if failures is not None
            else failure_scenarios_for_pec(symmetry, pec, (), options)
        )
        pec_scenarios = scenarios
        if pec_scenarios is None and transient.options.scenario_events > 0:
            pec_scenarios = event_scenarios_for_pec(symmetry, pec, transient.options)
        payload = dataclasses.replace(transient, scenarios=tuple(pec_scenarios or ()))
        for failure in failure_list:
            graph.tasks.append(
                TaskSpec(
                    task_id=len(graph.tasks),
                    pec_index=pec.index,
                    failure=failure,
                    kind="transient",
                    transient=payload,
                )
            )
    return graph
