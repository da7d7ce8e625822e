"""Fault-injection property suite for the supervised execution engine.

The supervision contract under test (ISSUE 7 acceptance criteria): under
seeded worker kills, task hangs, mid-task exceptions and cache corruption,
every run **terminates** and yields either

* a result bit-identical (modulo wall-clock) to the no-fault oracle — the
  retries recovered every faulted task — or
* a correctly-labelled *partial* result whose ``errors`` section names
  exactly the tasks that exhausted their retry budget,

never a hang and never a silent wrong verdict.  Bit-identity is asserted
through :func:`repro.incremental.service.result_signature`, the same
wall-clock-free oracle the incremental service pins against.

The fault schedules come from :mod:`tests.faults`: deterministic, keyed on
(task id, attempt number), installed in the coordinator before the worker
pool forks so every process sees the same plan.  The retry backoff is an
engine constant (:data:`repro.engine.supervision.RETRY_BACKOFF`); the
suite switches it off, since determinism comes from the fault plan and
sleeping only slows the suite.
"""

import multiprocessing
import os

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ibgp_over_ospf, ospf_everywhere
from repro.config.builder import edge_prefix, install_loop_inducing_statics
from repro.engine import backends, supervision
from repro.incremental.service import result_signature
from repro.netaddr import Prefix
from repro.policies import LoopFreedom, Reachability
from repro.topology import fat_tree, ring
from tests import faults
from tests.faults import FaultPlan, FaultSpec
from tests.helpers import dependents

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Supervision options shared by every test: retries on.
FAST = dict(task_retries=2)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    """Backoff off for every test; and a test that fails mid-``with
    faults.active(...)`` must not poison the rest of the session."""
    monkeypatch.setattr(supervision, "RETRY_BACKOFF", 0.0)
    yield
    faults.uninstall()


def _clean_network():
    return ospf_everywhere(fat_tree(4))


def _violating_network():
    network = ospf_everywhere(fat_tree(4))
    install_loop_inducing_statics(
        network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
    )
    return network


def _dependent_network():
    return ibgp_over_ospf(ring(6), {"r0": Prefix("200.0.0.0/16")})


def _expand(network, policy, **options):
    """(plankton, task graph) of one verify request — the fault plans are
    written against the graph's deterministic task ids."""
    plankton = Plankton(network, PlanktonOptions(**options))
    _policies, _relevant, graph = plankton.expand_request(policy)
    return plankton, graph


def _oracle(network, policy, **options):
    """The no-fault result signature (always computed on the serial backend;
    the engine's equivalence suite already pins serial == process)."""
    clean = dict(options)
    clean.pop("cores", None)
    clean.pop("backend", None)
    return result_signature(
        Plankton(network, PlanktonOptions(**clean)).verify(policy)
    )


def _run_with_plan(network, policy, plan, **options):
    with faults.active(plan):
        return Plankton(network, PlanktonOptions(**options)).verify(policy)


# --------------------------------------------------------------------------- serial backend
class TestSerialFaults:
    def test_seeded_fault_matrix_recovers_or_labels_exactly(self):
        """Property: for every seeded schedule, the run terminates and is
        either bit-identical to the oracle or partial with ``errors`` naming
        exactly the exhausted tasks (serial charging is exact)."""
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        task_ids = [task.task_id for task in graph.tasks]
        oracle = _oracle(network, policy, **options)

        saw_complete = saw_partial = False
        for seed in range(12):
            plan = FaultPlan.seeded(
                seed, task_ids, fault_count=4, kinds=("raise", "kill"), max_attempt=3
            )
            result = _run_with_plan(network, policy, plan, **options)
            exhausted = plan.tasks_exhausted_by(2)
            assert sorted(f.task_id for f in result.errors) == sorted(exhausted)
            if exhausted:
                saw_partial = True
                assert not result.complete
                assert "[PARTIAL" in result.summary()
                # The completed portion is still a correct verdict source:
                # the clean network cannot produce a violation.
                assert result.holds
            else:
                saw_complete = True
                assert result.complete
                assert result_signature(result) == oracle
        assert saw_complete  # the matrix exercised the recovery path...

    def test_deliberate_exhaustion_names_exactly_the_dead_task(self):
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        dead, flaky = graph.tasks[1].task_id, graph.tasks[3].task_id
        plan = FaultPlan(
            tuple(
                [FaultSpec(kind="raise", task_id=dead, attempt=a) for a in range(3)]
                + [FaultSpec(kind="raise", task_id=flaky, attempt=0)]
            )
        )
        result = _run_with_plan(network, policy, plan, **options)
        assert [f.task_id for f in result.errors] == [dead]
        failure = result.errors[0]
        assert failure.kind == "exception"
        assert failure.attempts == 3
        assert "FaultInjected" in failure.message or "injected" in failure.message
        # The flaky task recovered: one run per task, minus only the dead one.
        oracle = Plankton(network, PlanktonOptions(**options)).verify(policy)
        assert len(result.pec_runs) == len(oracle.pec_runs) - 1

    def test_upstream_cascade_labels_dependents(self):
        """A failed upstream task must cascade — dependents are recorded as
        ``upstream`` failures, never run against empty data planes."""
        network = _dependent_network()
        policy = Reachability(
            destination_prefix=Prefix("200.0.0.0/16"), require_all_branches=False
        )
        options = dict(stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        assert graph.has_edges
        reverse = dependents(graph)
        upstream_id = next(task.task_id for task in graph.tasks if reverse.get(task.task_id))
        downstream = {
            task.task_id for task in graph.tasks if upstream_id in task.depends_on
        }
        plan = FaultPlan(
            tuple(FaultSpec(kind="raise", task_id=upstream_id, attempt=a) for a in range(3))
        )
        result = _run_with_plan(network, policy, plan, **options)
        by_kind = {f.task_id: f.kind for f in result.errors}
        assert by_kind[upstream_id] == "exception"
        assert downstream and all(by_kind.get(t) == "upstream" for t in downstream)

    def test_cooperative_deadline_timeout_then_recovery(self):
        """A hang on attempt 0 is cut by the cooperative deadline; the retry
        completes and the result is bit-identical to the oracle."""
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(stop_at_first_violation=False, task_timeout=0.2, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        hung = graph.tasks[0].task_id
        plan = FaultPlan(
            (FaultSpec(kind="delay", task_id=hung, attempt=0, duration=30.0),)
        )
        result = _run_with_plan(network, policy, plan, **options)
        assert result.complete
        assert result_signature(result) == _oracle(network, policy, **options)

    def test_cooperative_deadline_exhaustion_is_a_timeout_failure(self):
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(
            stop_at_first_violation=False, task_timeout=0.2, task_retries=1
        )
        _plankton, graph = _expand(network, policy, **options)
        hung = graph.tasks[0].task_id
        plan = FaultPlan(
            tuple(
                FaultSpec(kind="delay", task_id=hung, attempt=a, duration=30.0)
                for a in range(2)
            )
        )
        result = _run_with_plan(network, policy, plan, **options)
        assert [f.task_id for f in result.errors] == [hung]
        assert result.errors[0].kind == "timeout"
        assert result.errors[0].attempts == 2


# --------------------------------------------------------------------------- process pool
@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestProcessPoolFaults:
    def test_worker_killed_mid_run_same_verdict_as_clean(self):
        """THE acceptance scenario: a worker SIGKILLed mid-run (the OOM
        case that used to abort the verify with BrokenProcessPool) now
        rebuilds the pool, re-runs the lost tasks and produces a result
        bit-identical to a clean run."""
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(cores=2, stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        victim = graph.tasks[0].task_id
        plan = FaultPlan((FaultSpec(kind="kill", task_id=victim, attempt=0),))
        result = _run_with_plan(network, policy, plan, **options)
        assert result.complete
        assert result_signature(result) == _oracle(network, policy, **options)

    def test_worker_killed_on_violating_network_same_verdict(self):
        network = _violating_network()
        policy = LoopFreedom()
        options = dict(cores=2, stop_at_first_violation=True, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        victim = graph.tasks[0].task_id
        plan = FaultPlan((FaultSpec(kind="kill", task_id=victim, attempt=0),))
        result = _run_with_plan(network, policy, plan, **options)
        clean = Plankton(network, PlanktonOptions(**options)).verify(policy)
        assert result.holds == clean.holds == False
        assert {v.policy for v in result.violations} == {v.policy for v in clean.violations}

    def test_seeded_small_plans_always_recover_bit_identical(self):
        """Property: with at most two seeded faults at attempts <= 1 and a
        retry budget of two, *no* task can exhaust (its own fault charges
        plus crash co-charges are bounded by two), so every run must come
        back complete and bit-identical to the oracle."""
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(cores=2, stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        task_ids = [task.task_id for task in graph.tasks]
        oracle = _oracle(network, policy, **options)
        for seed in range(6):
            plan = FaultPlan.seeded(
                seed, task_ids, fault_count=2, kinds=("raise", "kill"), max_attempt=1
            )
            assert not plan.tasks_exhausted_by(2)
            result = _run_with_plan(network, policy, plan, **options)
            assert result.complete, [f.render() for f in result.errors]
            assert result_signature(result) == oracle

    def test_raise_exhaustion_names_exactly_the_dead_task(self):
        """Worker-side exceptions never poison a future and never co-charge
        innocent tasks, so exhaustion labelling is exact on the pool too."""
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(cores=2, stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        dead = graph.tasks[2].task_id
        plan = FaultPlan(
            tuple(FaultSpec(kind="raise", task_id=dead, attempt=a) for a in range(3))
        )
        result = _run_with_plan(network, policy, plan, **options)
        assert [f.task_id for f in result.errors] == [dead]
        assert result.errors[0].kind == "exception"
        assert result.holds and not result.complete

    def test_hung_worker_is_killed_at_deadline_and_task_recovers(self):
        """Preemptive deadline enforcement: the delay fault never polls its
        way out (no cooperative cancel fires in the pool for deadlines) —
        the supervisor must SIGKILL the pool to get the task back."""
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(
            cores=2, stop_at_first_violation=False, task_timeout=1.0, **FAST
        )
        _plankton, graph = _expand(network, policy, **options)
        hung = graph.tasks[1].task_id
        plan = FaultPlan(
            (FaultSpec(kind="delay", task_id=hung, attempt=0, duration=60.0),)
        )
        result = _run_with_plan(network, policy, plan, **options)
        assert result.complete
        assert result_signature(result) == _oracle(network, policy, **options)

    def test_hung_worker_exhaustion_is_a_timeout_failure(self):
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(
            cores=2, stop_at_first_violation=False, task_timeout=0.5, task_retries=1
        )
        _plankton, graph = _expand(network, policy, **options)
        hung = graph.tasks[1].task_id
        plan = FaultPlan(
            tuple(
                FaultSpec(kind="delay", task_id=hung, attempt=a, duration=60.0)
                for a in range(2)
            )
        )
        result = _run_with_plan(network, policy, plan, **options)
        assert [f.task_id for f in result.errors] == [hung]
        assert result.errors[0].kind == "timeout"
        # Timeout rebuilds requeue innocent in-flight tasks without charging
        # them, so nothing else may appear in the errors section.
        assert result.holds

    def test_crash_budget_exhausted_falls_back_to_serial(self, monkeypatch):
        """After MAX_POOL_REBUILDS crash rebuilds the remaining tasks finish
        on the serial backend — and still produce the oracle's result."""
        monkeypatch.setattr(backends, "MAX_POOL_REBUILDS", 0)
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(cores=2, stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        victim = graph.tasks[0].task_id
        plan = FaultPlan((FaultSpec(kind="kill", task_id=victim, attempt=0),))
        result = _run_with_plan(network, policy, plan, **options)
        assert result.complete
        assert result_signature(result) == _oracle(network, policy, **options)

    def test_serial_finish_continues_the_pools_attempt_count(self, monkeypatch, tmp_path):
        """A crash-budget fallback hands each task to the serial walk at its
        next attempt: the crash that ended the pool is charged, so the victim
        resumes at attempt 1 and no (task, attempt) pair runs twice."""
        monkeypatch.setattr(backends, "MAX_POOL_REBUILDS", 0)
        network = _clean_network()
        policy = LoopFreedom()
        options = dict(cores=2, stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        victim = graph.tasks[0].task_id
        oracle = _oracle(network, policy, **options)
        log = tmp_path / "fired"  # one line per attempt, from every process
        fire = faults.fire

        def spy(task_id, attempt, should_cancel=None):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {task_id} {attempt}\n")
            fire(task_id, attempt, should_cancel)

        monkeypatch.setattr(faults, "fire", spy)
        plan = FaultPlan((FaultSpec(kind="kill", task_id=victim, attempt=0),))
        result = _run_with_plan(network, policy, plan, **options)
        assert result.complete
        assert result_signature(result) == oracle
        fired = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        pairs = [(task_id, attempt) for _pid, task_id, attempt in fired]
        assert len(pairs) == len(set(pairs))
        in_coordinator = [(t, a) for pid, t, a in fired if pid == os.getpid() and t == victim]
        assert in_coordinator == [(victim, 1)]

    def test_early_stop_with_concurrent_fault_terminates(self):
        """The early-stop drain races an in-flight faulted task: the run
        must terminate with the violation verdict, never hang."""
        network = _violating_network()
        policy = LoopFreedom()
        options = dict(cores=2, stop_at_first_violation=True, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        task_ids = [task.task_id for task in graph.tasks]
        plan = FaultPlan(
            tuple(
                FaultSpec(kind="raise", task_id=task_id, attempt=0)
                for task_id in task_ids[::3]
            )
        )
        result = _run_with_plan(network, policy, plan, **options)
        assert not result.holds
        assert result.violations


# --------------------------------------------------------------------------- dependent graphs
@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestDependentGraphFaults:
    def test_kill_on_dependency_schedule_recovers(self):
        network = _dependent_network()
        policy = Reachability(
            destination_prefix=Prefix("200.0.0.0/16"), require_all_branches=False
        )
        options = dict(cores=2, stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        victim = graph.tasks[0].task_id
        plan = FaultPlan((FaultSpec(kind="kill", task_id=victim, attempt=0),))
        result = _run_with_plan(network, policy, plan, **options)
        assert result.complete
        assert result_signature(result) == _oracle(network, policy, **options)

    def test_pool_cascade_matches_the_serial_one(self):
        """A dependency that fails on every attempt: the pool records the
        same ``errors`` — the task and its transitive dependents as
        ``upstream`` failures, with the same attempt counts — and the same
        result as the serial walk."""
        network = _dependent_network()
        policy = Reachability(
            destination_prefix=Prefix("200.0.0.0/16"), require_all_branches=False
        )
        options = dict(stop_at_first_violation=False, **FAST)
        _plankton, graph = _expand(network, policy, **options)
        dead = graph.tasks[0].task_id
        assert dependents(graph)[dead]
        plan = FaultPlan(
            tuple(FaultSpec(kind="raise", task_id=dead, attempt=a) for a in range(3))
        )
        serial = _run_with_plan(network, policy, plan, backend="serial", **options)
        pooled = _run_with_plan(network, policy, plan, cores=2, backend="process", **options)

        def errors(result):
            return [(f.task_id, f.kind, f.attempts) for f in result.errors]

        assert errors(serial)[0] == (dead, "exception", 3)
        assert {kind for _, kind, _ in errors(serial)[1:]} == {"upstream"}
        assert errors(pooled) == errors(serial)
        assert result_signature(pooled) == result_signature(serial)
