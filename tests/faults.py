"""Deterministic fault injection for the execution engine (test harness).

The supervision layer (:mod:`repro.engine.backends`) promises that a
misbehaving task can never take down a whole verify: worker crashes rebuild
the pool and re-run the lost tasks, hung tasks are killed at their deadline,
exceptions are retried with backoff, and exhausted tasks degrade the run to
a partial result with a structured ``errors`` section.  This module is the
chaos harness that *earns* that promise: a seeded, fully deterministic
schedule of faults that the property tests replay against the no-fault
oracle.

A :class:`FaultPlan` is a set of :class:`FaultSpec` triggers keyed on
``(task_id, attempt)``; :func:`fire` runs right before a task attempt
executes.  The engine has no hook for it: :func:`install` replaces the two
engine functions every attempt passes through, where they are read —

* ``run_task_guarded`` on :mod:`repro.engine.supervision` (read by the pool
  workers' batch loop at call time) and on :mod:`repro.engine.backends`
  (which imports it by name for the serial walk), to learn the attempt
  number;
* ``execute_task`` on :mod:`repro.engine.worker` (read by
  ``run_task_guarded`` at call time), to fire the fault inside the guard,
  with the guard's deadline-aware cancellation callback.

Keying on the attempt number makes firing deterministic without any shared
mutable state: the first attempt of task 3 always sees the same faults, its
retry never re-fires them unless the plan says so, and the schedule
survives process boundaries for free — the plan and the patched functions
are installed in the coordinator before the pool forks, so every worker
inherits them.  (Under a ``spawn`` start method the workers would import
the engine afresh, unpatched; the pool suites skip without ``fork``.)

Fault kinds:

``"raise"``
    The attempt raises :class:`FaultInjected` mid-task (captured by the
    guard into a :class:`~repro.engine.graph.TaskError` and retried).
``"kill"``
    The worker process SIGKILLs itself — the OOM-killer scenario.  In the
    process that installed the plan (serial backend, or the coordinator) a
    kill would take down the test process itself, so it downgrades to
    ``raise`` there; the supervision contract under test is the same ("the
    run survives").
``"delay"``
    The attempt stalls for ``duration`` seconds before doing its work,
    polling the guard's cancellation callback so a deadline or stop request
    cuts the stall short — which is exactly how a deadline overrun is
    produced on demand.

:func:`corrupt_cache_file` rounds out the harness for the persistent result
cache: seeded bit flips and truncations that the cache-hardening tests
(:mod:`tests.test_cache_hardening`) drive.
"""

from __future__ import annotations

import os
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

FAULT_KINDS = ("raise", "kill", "delay")


class FaultInjected(RuntimeError):
    """The exception a ``raise`` fault (or a downgraded ``kill``) throws."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what happens when ``task_id`` runs ``attempt``."""

    kind: str
    task_id: int
    attempt: int = 0
    duration: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults keyed on (task_id, attempt)."""

    specs: Tuple[FaultSpec, ...] = ()

    def lookup(self, task_id: int, attempt: int) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.task_id == task_id and spec.attempt == attempt:
                return spec
        return None

    def tasks_exhausted_by(self, retries: int) -> Tuple[int, ...]:
        """Task ids this plan faults on *every* attempt ``0..retries``.

        Those tasks must appear in the partial result's ``errors`` section;
        every other task must recover (possibly after retries).  Only exact
        per-attempt coverage counts — a worker kill also charges a crash
        attempt to innocent in-flight tasks, so the property tests use this
        for plans where that coarseness cannot push an innocent task over
        the retry budget (serial runs, or single-fault plans).
        """
        exhausted = []
        for task_id in sorted({spec.task_id for spec in self.specs}):
            if all(self.lookup(task_id, attempt) is not None for attempt in range(retries + 1)):
                exhausted.append(task_id)
        return tuple(exhausted)

    @staticmethod
    def seeded(
        seed: int,
        task_ids,
        fault_count: int = 1,
        kinds: Tuple[str, ...] = FAULT_KINDS,
        max_attempt: int = 0,
        delay: float = 0.5,
    ) -> "FaultPlan":
        """A reproducible random plan over ``task_ids`` (the property tests'
        schedule generator: same seed, same faults, every run)."""
        rng = random.Random(seed)
        task_ids = list(task_ids)
        specs = []
        seen = set()
        for _ in range(fault_count):
            task_id = rng.choice(task_ids)
            attempt = rng.randint(0, max_attempt)
            if (task_id, attempt) in seen:
                continue
            seen.add((task_id, attempt))
            kind = rng.choice(list(kinds))
            specs.append(
                FaultSpec(
                    kind=kind,
                    task_id=task_id,
                    attempt=attempt,
                    duration=delay if kind == "delay" else 0.0,
                    message=f"seeded fault (seed={seed}, task={task_id}, attempt={attempt})",
                )
            )
        return FaultPlan(specs=tuple(specs))


#: The installed plan (None = fault injection off).
_ACTIVE: Optional[FaultPlan] = None

#: The process that installed the plan: a ``kill`` fault may only really
#: SIGKILL in another one (a forked pool worker).
_INSTALLER_PID: Optional[int] = None

#: The attempt number of the task attempt now running in this process, set
#: by the patched ``run_task_guarded`` for the patched ``execute_task``.
_ATTEMPT = 0

#: The engine functions :func:`install` replaced (empty = none patched).
_ORIGINALS: Dict[str, Callable] = {}


def _guarded(plankton, policies, spec, upstream_planes, should_cancel=None, deadline=None,
             attempt=0):
    global _ATTEMPT
    _ATTEMPT = attempt
    return _ORIGINALS["run_task_guarded"](
        plankton, policies, spec, upstream_planes,
        should_cancel=should_cancel, deadline=deadline, attempt=attempt,
    )


def _execute(plankton, policies, spec, upstream_planes, should_cancel=None):
    fire(spec.task_id, _ATTEMPT, should_cancel)
    return _ORIGINALS["execute_task"](
        plankton, policies, spec, upstream_planes, should_cancel=should_cancel
    )


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (workers forked later inherit it);
    ``None`` uninstalls it and restores the engine's functions."""
    global _ACTIVE, _INSTALLER_PID
    from repro.engine import backends, supervision, worker

    _ACTIVE = plan
    if plan is None:
        if _ORIGINALS:
            supervision.run_task_guarded = _ORIGINALS["run_task_guarded"]
            backends.run_task_guarded = _ORIGINALS["run_task_guarded"]
            worker.execute_task = _ORIGINALS["execute_task"]
            _ORIGINALS.clear()
        return
    _INSTALLER_PID = os.getpid()
    if not _ORIGINALS:
        _ORIGINALS["run_task_guarded"] = supervision.run_task_guarded
        _ORIGINALS["execute_task"] = worker.execute_task
        supervision.run_task_guarded = backends.run_task_guarded = _guarded
        worker.execute_task = _execute


def uninstall() -> None:
    install(None)


@contextmanager
def active(plan: FaultPlan):
    """Scope a fault plan to a ``with`` block (test fixture form)."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def fire(task_id: int, attempt: int, should_cancel: Optional[Callable[[], bool]] = None) -> None:
    """Trigger whatever the active plan schedules for this task attempt."""
    plan = _ACTIVE
    if plan is None:
        return
    spec = plan.lookup(task_id, attempt)
    if spec is None:
        return
    if spec.kind == "delay":
        deadline = time.monotonic() + spec.duration
        while time.monotonic() < deadline:
            if should_cancel is not None and should_cancel():
                return
            time.sleep(0.005)
        return
    if spec.kind == "kill" and os.getpid() != _INSTALLER_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    # "raise", or a "kill" in the installing process (where a real SIGKILL
    # would take the test run down with it).
    raise FaultInjected(spec.message)


# --------------------------------------------------------------------------- cache faults
def corrupt_cache_file(path, seed: int = 0, mode: str = "bitflip") -> None:
    """Deterministically damage a cache file (``bitflip`` or ``truncate``).

    Bit flips are seeded into the second half of the file so they land in
    the entry payload (past the header) on realistic cache sizes; truncation
    keeps the first half, producing an unparsable JSON document.
    """
    target = Path(path)
    data = bytearray(target.read_bytes())
    if not data:
        return
    if mode == "truncate":
        target.write_bytes(bytes(data[: len(data) // 2]))
        return
    if mode != "bitflip":
        raise ValueError(f"unknown corruption mode {mode!r}")
    rng = random.Random(seed)
    index = rng.randrange(len(data) // 2, len(data))
    data[index] ^= 1 << rng.randrange(8)
    target.write_bytes(bytes(data))
