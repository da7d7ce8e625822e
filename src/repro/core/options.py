"""Verifier options and optimization flags.

Every optimization of paper §4 can be toggled individually so the Figure 8
ablation experiments (and curious users) can measure its effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

#: Backend names accepted by :attr:`PlanktonOptions.backend` and ``--backend``
#: (the implementations live in :mod:`repro.engine.backends`).
BACKEND_CHOICES = ("auto", "serial", "process")


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
    #: Worker processes for PEC runs (1 = serial).  The analyses of
    #: independent PECs are embarrassingly parallel (paper §3.2), and the
    #: execution engine also overlaps independent members of a dependency
    #: schedule.
    cores: int = 1
    #: Execution backend: ``"auto"`` (process pool when ``cores > 1``, serial
    #: otherwise), ``"serial"``, or ``"process"``.
    backend: str = "auto"
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
    #: Keep every converged data plane in the result (memory-hungry; mainly
    #: for tests and for PECs that downstream PECs depend on).
    keep_data_planes: bool = False

    # ------------------------------------------------------------- supervision
    # Fault-tolerance knobs enforced by the execution engine's supervisor
    # (:mod:`repro.engine.backends`).  They shape *how* a result is computed,
    # never *what* it contains, so the incremental result cache deliberately
    # excludes them from its fingerprints (like ``cores``/``backend``).

    #: Wall-clock deadline per task attempt, in seconds (None = no deadline).
    #: The process backend enforces it preemptively (a hung worker is killed
    #: and the pool rebuilt); the serial backend enforces it cooperatively
    #: between exploration steps.
    task_timeout: Optional[float] = None
    #: How many times a failed or timed-out task is retried before the
    #: supervisor records a structured per-task failure
    #: (:class:`~repro.core.results.TaskFailure`) and degrades the verify to
    #: a partial result instead of raising.
    task_retries: int = 2
    #: Base delay of the jittered exponential retry backoff, seconds
    #: (attempt ``n`` waits ``retry_backoff * 2**(n-1)``, capped and jittered
    #: into ``[0.5, 1.0]`` of the nominal delay).
    retry_backoff: float = 0.05
    #: Upper bound on one backoff delay, seconds.
    retry_backoff_cap: float = 2.0
    #: How many *crash*-triggered pool rebuilds the process backend tolerates
    #: before finishing the remaining tasks on the serial backend.
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        """Refuse values no run can honour (``ValueError``): the CLI and the
        service turn that into an input error instead of verifying something
        other than what was asked."""
        if self.max_failures < 0:
            raise ValueError(f"max_failures must be >= 0 (got {self.max_failures})")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1 (got {self.cores})")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; choose from {BACKEND_CHOICES}"
            )
        for name in ("task_retries", "retry_backoff", "retry_backoff_cap", "max_pool_rebuilds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (got {getattr(self, name)})")
        for name in ("max_states_per_pec", "max_seconds_per_pec", "task_timeout"):
            budget = getattr(self, name)
            if budget is not None and budget <= 0:
                raise ValueError(f"{name} must be positive or None (got {budget})")
