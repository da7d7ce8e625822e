"""Verifier options and optimization flags.

Every optimization of paper §4 can be toggled individually so the Figure 8
ablation experiments (and curious users) can measure its effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

#: Policy kinds of ``--policy`` and of a request's policy spec
#: (:func:`repro.serve.specs.policy_from_spec` builds them).
POLICY_KINDS = (
    "reachability",
    "loop",
    "blackhole",
    "waypoint",
    "segmentation",
    "bounded-path-length",
    "multipath-consistency",
    "path-consistency",
)

#: Transient properties of ``--property`` and of a transient spec
#: (:func:`repro.serve.specs.transient_property_from_spec`).
TRANSIENT_PROPERTIES = ("loop", "blackhole")

#: Accepted values of :attr:`repro.transient.TransientOptions.por` and ``--por``.
POR_MODES = ("ample", "sleep", "full")


@dataclass(frozen=True)
class OptimizationFlags:
    """Switches for the §4 optimizations.

    Attributes:
        consistent_execution: §4.1.1 — explore only executions where a node
            never changes a selected best path.
        deterministic_nodes: §4.1.2 — when a node has a guaranteed winning
            update, execute it without branching over other enabled nodes.
        decision_independence: §4.1.3 — when groups of undecided nodes cannot
            influence each other, fix an arbitrary order between the groups.
        policy_based_pruning: §4.2 — stop an execution once every policy
            source node has decided, and skip converged states whose
            policy-visible signature was already checked.
        failure_equivalence: §4.3 — only fail one representative link per
            Link Equivalence Class (Bonsai-style DEC/LEC reduction).
        state_hashing: §4.4 — intern per-node routing entries and represent
            visited states as tuples of entry ids.
        bitstate_hashing: §5/Figure 9 — track visited states in a Bloom
            filter instead of an exact set (reduced coverage, less memory).
    """

    consistent_execution: bool = True
    deterministic_nodes: bool = True
    decision_independence: bool = True
    policy_based_pruning: bool = True
    failure_equivalence: bool = True
    state_hashing: bool = True
    bitstate_hashing: bool = False

    @staticmethod
    def none_enabled() -> "OptimizationFlags":
        """Naive model checking (the Figure 8 'None' rows)."""
        return OptimizationFlags(
            consistent_execution=False,
            deterministic_nodes=False,
            decision_independence=False,
            policy_based_pruning=False,
            failure_equivalence=False,
            state_hashing=False,
            bitstate_hashing=False,
        )

    def without(self, **disabled: bool) -> "OptimizationFlags":
        """A copy with the named optimizations turned off.

        Example: ``flags.without(deterministic_nodes=True)`` disables the
        deterministic-node detection, keeping everything else.
        """
        updates = {name: False for name, value in disabled.items() if value}
        return replace(self, **updates)


@dataclass
class PlanktonOptions:
    """Top-level verifier options."""

    #: Maximum number of simultaneous link failures to consider (the
    #: environment specification of §2).
    max_failures: int = 0
    #: Optimization switches.
    optimizations: OptimizationFlags = field(default_factory=OptimizationFlags)
    #: Worker processes for PEC runs: more than 1 runs a process pool when
    #: more than one task is planned, 1 runs serially.  The analyses of
    #: independent PECs are embarrassingly parallel (paper §3.2), and the
    #: execution engine also overlaps independent members of a dependency
    #: schedule.
    cores: int = 1
    #: Stop at the first policy violation (SPIN's default behaviour).
    stop_at_first_violation: bool = True
    #: Per-PEC state budget for the model checker.
    max_states_per_pec: int = 2_000_000
    #: Optional wall-clock budget per PEC exploration, seconds.
    max_seconds_per_pec: Optional[float] = None
    #: Take OSPF entries from the cached SPF computation without searching:
    #: it is what the deterministic-node reduction converges to, and it keeps
    #: the pure-Python prototype fast.  Set False to *additionally* run every
    #: OSPF-originated prefix through the model checker for its exploration
    #: statistics (the Figure 8 ablations): the data planes, the BGP searches
    #: and the verdict are the same by construction — only the statistics of
    #: PECs with an OSPF-originated prefix grow.
    fast_ospf: bool = True
    #: Bits in the bitstate Bloom filter when bitstate hashing is enabled.
    bitstate_bits: int = 1 << 22

    # ------------------------------------------------------------- supervision
    # Fault-tolerance knobs enforced by the execution engine's supervisor
    # (:mod:`repro.engine.backends`).  They shape *how* a result is computed,
    # never *what* it contains, so the incremental result cache deliberately
    # excludes them from its fingerprints (like ``cores``).

    #: Wall-clock deadline per task attempt, in seconds (None = no deadline).
    #: The process backend enforces it preemptively (a hung worker is killed
    #: and the pool rebuilt); the serial backend enforces it cooperatively,
    #: polling it before each upstream-outcome combination of a task and
    #: before each run of a transient task — never inside one search.
    task_timeout: Optional[float] = None
    #: How many times a failed or timed-out task is retried before the
    #: supervisor records a structured per-task failure
    #: (:class:`~repro.core.results.TaskFailure`) and degrades the verify to
    #: a partial result instead of raising.  The retry backoff and the
    #: pool's crash-rebuild budget are engine constants
    #: (:mod:`repro.engine.supervision`, :mod:`repro.engine.backends`).
    task_retries: int = 2

    def __post_init__(self) -> None:
        """Refuse values no run can honour (``ValueError``): the CLI and the
        service turn that into an input error instead of verifying something
        other than what was asked."""
        if self.max_failures < 0:
            raise ValueError(f"max_failures must be >= 0 (got {self.max_failures})")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1 (got {self.cores})")
        if self.task_retries < 0:
            raise ValueError(f"task_retries must be >= 0 (got {self.task_retries})")
        for name in ("max_states_per_pec", "max_seconds_per_pec", "task_timeout"):
            budget = getattr(self, name)
            if budget is not None and budget <= 0:
                raise ValueError(f"{name} must be positive or None (got {budget})")
