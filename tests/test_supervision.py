"""Unit tests for the supervision layer's degradation paths.

The fault-injection suite (:mod:`tests.test_fault_injection`) exercises the
end-to-end properties; this module pins the individual mechanisms: backoff
pacing and batch deadlines, the fault-plan schedule algebra, the
PicklingError → serial-fallback path, the early-stop drain of in-flight
futures, and one runtime per pool: back-to-back pool runs in one process
never serve each other's network.
"""

import concurrent.futures
import multiprocessing
import pickle
import threading

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ospf_everywhere
from repro.config.builder import edge_prefix, install_loop_inducing_statics
from repro.engine.backends import ProcessPoolBackend, _Batch
from repro.engine import supervision
from repro.engine.graph import TaskResult
from repro.engine.supervision import backoff_delay, deadline_from
from repro.incremental.service import result_signature
from repro.policies import LoopFreedom
from repro.topology import fat_tree
from tests.faults import FaultPlan, FaultSpec

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# --------------------------------------------------------------------------- backoff and deadlines
class TestSupervisionSchedule:
    @pytest.mark.parametrize("knob, least", [("task_retries", 0), ("task_timeout", 0.001)])
    def test_options_refuse_negative_knobs(self, knob, least):
        """A negative supervision knob is refused where the options are
        built, never clamped behind the supervisor's back."""
        with pytest.raises(ValueError, match=knob):
            PlanktonOptions(**{knob: -1})
        assert getattr(PlanktonOptions(**{knob: least}), knob) == least

    def test_backoff_is_deterministic_capped_and_grows(self, monkeypatch):
        monkeypatch.setattr(supervision, "RETRY_BACKOFF", 0.1)
        monkeypatch.setattr(supervision, "RETRY_BACKOFF_CAP", 0.3)
        assert backoff_delay(7, 0) == 0.0
        first = backoff_delay(7, 1)
        second = backoff_delay(7, 2)
        assert first == backoff_delay(7, 1)  # same (task, attempt), same delay
        assert 0.05 <= first <= 0.1  # nominal 0.1, jitter in [0.5, 1.0]
        assert second <= 0.3  # doubling, capped
        # Different tasks decorrelate (jitter keyed on the pair, not shared RNG).
        assert backoff_delay(7, 1) != backoff_delay(8, 1)

    def test_default_backoff_is_bounded_by_its_cap(self):
        delays = [backoff_delay(3, attempt) for attempt in range(1, 12)]
        assert 0.025 <= delays[0] <= supervision.RETRY_BACKOFF
        assert max(delays) <= supervision.RETRY_BACKOFF_CAP

    def test_zero_backoff_disables_pacing(self, monkeypatch):
        monkeypatch.setattr(supervision, "RETRY_BACKOFF", 0.0)
        assert backoff_delay(1, 5) == 0.0

    def test_deadline_scales_with_batch_size(self):
        assert deadline_from(2.0, 100.0) == 102.0
        assert deadline_from(2.0, 100.0, tasks=3) == 106.0
        assert deadline_from(None, 100.0) is None


# --------------------------------------------------------------------------- fault plan algebra
class TestFaultPlan:
    def test_the_harness_patches_the_engine_only_while_installed(self):
        """``tests.faults`` replaces ``run_task_guarded`` (where the pool
        workers and the serial walk read it) and ``execute_task`` while a
        plan is active, and puts the engine's own functions back after."""
        from repro.engine import backends, worker

        from tests import faults

        originals = (supervision.run_task_guarded, backends.run_task_guarded,
                     worker.execute_task)
        assert originals[0] is originals[1]
        with faults.active(FaultPlan()):
            assert supervision.run_task_guarded is backends.run_task_guarded
            assert supervision.run_task_guarded is not originals[0]
            assert worker.execute_task is not originals[2]
        assert (supervision.run_task_guarded, backends.run_task_guarded,
                worker.execute_task) == originals

    def test_exhaustion_requires_every_attempt(self):
        plan = FaultPlan(
            tuple(
                [FaultSpec(kind="raise", task_id=1, attempt=a) for a in range(3)]
                + [FaultSpec(kind="raise", task_id=2, attempt=0),
                   FaultSpec(kind="raise", task_id=2, attempt=2)]
            )
        )
        assert plan.tasks_exhausted_by(2) == (1,)  # task 2 has a fault-free attempt 1
        assert plan.tasks_exhausted_by(0) == (1, 2)

    def test_seeded_plans_are_reproducible(self):
        task_ids = range(20)
        assert FaultPlan.seeded(5, task_ids, fault_count=4) == FaultPlan.seeded(
            5, task_ids, fault_count=4
        )
        assert FaultPlan.seeded(5, task_ids, fault_count=4) != FaultPlan.seeded(
            6, task_ids, fault_count=4
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meltdown", task_id=0)


# --------------------------------------------------------------------------- pickling fallback
class _UnpicklablePolicy(LoopFreedom):
    """A policy an operator could plausibly write: closes over a lock."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()  # unpicklable


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestSerialFallback:
    def test_pickling_error_mid_run_degrades_to_serial(self, monkeypatch, caplog):
        """A PicklingError escaping the pool run must complete the remaining
        tasks serially — same result as a clean serial run, plus a logged
        warning — while any other exception still propagates."""
        network = ospf_everywhere(fat_tree(4))
        policy = LoopFreedom()
        options = PlanktonOptions(cores=2, stop_at_first_violation=False)
        oracle = result_signature(Plankton(network, options).verify(policy))

        def explode(self, *args, **kwargs):
            raise pickle.PicklingError("injected: task payload refused to pickle")

        monkeypatch.setattr(ProcessPoolBackend, "_execute_pool", explode)
        with caplog.at_level("WARNING", logger="repro.engine"):
            result = Plankton(network, options).verify(policy)
        assert result.complete
        assert result_signature(result) == oracle
        assert any("serial backend" in record.message for record in caplog.records)

    def test_non_pickling_errors_still_propagate(self, monkeypatch):
        network = ospf_everywhere(fat_tree(4))
        options = PlanktonOptions(cores=2)

        def explode(self, *args, **kwargs):
            raise RuntimeError("genuine bug, must not be swallowed")

        monkeypatch.setattr(ProcessPoolBackend, "_execute_pool", explode)
        with pytest.raises(RuntimeError, match="genuine bug"):
            Plankton(network, options).verify(LoopFreedom())

    def test_unpicklable_policy_verifies_anyway(self):
        """Unpicklable user policies work on the parallel path (fork hands
        them to the workers unpickled) or, after the pre-flight picklability
        probe, on the serial fallback (spawn) — either way, the verify
        succeeds."""
        network = ospf_everywhere(fat_tree(4))
        result = Plankton(
            network, PlanktonOptions(cores=2, stop_at_first_violation=False)
        ).verify(_UnpicklablePolicy())
        assert result.holds and result.complete


# --------------------------------------------------------------------------- early-stop drain
class _RecordingAggregator:
    def __init__(self):
        self.recorded = []

    def record(self, result):
        self.recorded.append(result.task_id)


def _done_future(payload):
    future = concurrent.futures.Future()
    future.set_result(payload)
    return future


class TestDrainAfterStop:
    def test_collects_straggler_results_and_reports_clean(self):
        aggregator = _RecordingAggregator()
        cancel = threading.Event()
        ok = TaskResult(task_id=3)
        cancelled = TaskResult(task_id=4, cancelled=True)
        inflight = {
            _done_future([ok, cancelled]): _Batch([3, 4], submitted_at=0.0, deadline=None)
        }
        clean = ProcessPoolBackend._drain_after_stop(
            inflight, aggregator, cancel, 1.0
        )
        assert clean is True
        assert cancel.is_set()
        assert aggregator.recorded == [3]  # cancelled stragglers are dropped
        assert inflight == {}

    def test_failed_straggler_is_logged_not_raised(self, caplog):
        aggregator = _RecordingAggregator()
        failed = concurrent.futures.Future()
        failed.set_exception(RuntimeError("worker died during early stop"))
        inflight = {failed: _Batch([5], submitted_at=0.0, deadline=None)}
        with caplog.at_level("WARNING", logger="repro.engine"):
            clean = ProcessPoolBackend._drain_after_stop(
                inflight, aggregator, threading.Event(), 1.0
            )
        assert clean is True  # collected (albeit unhappily): pool can join
        assert aggregator.recorded == []
        assert any("early stop" in record.message for record in caplog.records)

    def test_hung_straggler_marks_pool_unclean(self, caplog):
        aggregator = _RecordingAggregator()
        hung = concurrent.futures.Future()
        hung.set_running_or_notify_cancel()  # running: cancel() will fail
        inflight = {hung: _Batch([6], submitted_at=0.0, deadline=None)}
        with caplog.at_level("WARNING", logger="repro.engine"):
            clean = ProcessPoolBackend._drain_after_stop(
                inflight, aggregator, threading.Event(), 0.05
            )
        assert clean is False  # caller must kill the pool, not join it
        assert any("abandoning" in record.message for record in caplog.records)

    def test_unset_timeout_waits_for_completion(self):
        aggregator = _RecordingAggregator()
        ok = TaskResult(task_id=9)
        inflight = {_done_future([ok]): _Batch([9], submitted_at=0.0, deadline=None)}
        clean = ProcessPoolBackend._drain_after_stop(
            inflight, aggregator, threading.Event(), None
        )
        assert clean is True
        assert aggregator.recorded == [9]


# --------------------------------------------------------------------------- one runtime per pool
@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestOneRuntimePerPool:
    def test_back_to_back_pool_runs_return_their_own_verdicts(self):
        """Two ``cores=2`` verifies in one process, with unpicklable policies
        (the case object identities once had to tell apart), on a clean and
        then a violating network: each pool's workers run the network of
        their own call, so each verify returns its own verdict."""
        clean = ospf_everywhere(fat_tree(4))
        violating = ospf_everywhere(fat_tree(4))
        install_loop_inducing_statics(
            violating, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
        )
        options = dict(cores=2, stop_at_first_violation=False)
        verdicts = []
        for network in (clean, violating, clean):
            result = Plankton(network, PlanktonOptions(**options)).verify(_UnpicklablePolicy())
            serial = Plankton(network, PlanktonOptions(stop_at_first_violation=False)).verify(
                _UnpicklablePolicy()
            )
            assert result.complete
            assert result_signature(result) == result_signature(serial)
            verdicts.append(result.holds)
        assert verdicts == [True, False, True]
