"""Unit tests for the supervision layer's degradation paths.

The fault-injection suite (:mod:`tests.test_fault_injection`) exercises the
end-to-end properties; this module pins the individual mechanisms: policy
derivation and backoff pacing, the fault-plan schedule algebra, the
PicklingError → serial-fallback path, the early-stop drain of in-flight
futures, and the pool-nonce collision fix for identity-keyed fingerprints.
"""

import concurrent.futures
import multiprocessing
import pickle
import threading

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ospf_everywhere
from repro.engine.backends import ProcessPoolBackend, _Batch
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.graph import TaskResult
from repro.engine.supervision import SupervisionPolicy
from repro.engine.worker import fresh_pool_nonce, network_fingerprint
from repro.incremental.service import result_signature
from repro.policies import LoopFreedom
from repro.topology import fat_tree

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# --------------------------------------------------------------------------- policy
class TestSupervisionPolicy:
    def test_from_options_clamps_negatives(self):
        options = PlanktonOptions(
            retry_backoff=-1.0, retry_backoff_cap=-1.0, max_pool_rebuilds=-1
        )
        # Construction refuses a negative retry count; the clamp still stands
        # behind it for an options object mutated afterwards.
        with pytest.raises(ValueError, match="task_retries"):
            PlanktonOptions(task_retries=-3)
        options.task_retries = -3
        policy = SupervisionPolicy.from_options(options)
        assert policy.task_retries == 0
        assert policy.retry_backoff == 0.0
        assert policy.retry_backoff_cap == 0.0
        assert policy.max_pool_rebuilds == 0

    def test_backoff_is_deterministic_capped_and_grows(self):
        policy = SupervisionPolicy(retry_backoff=0.1, retry_backoff_cap=0.3)
        assert policy.backoff_delay(7, 0) == 0.0
        first = policy.backoff_delay(7, 1)
        second = policy.backoff_delay(7, 2)
        assert first == policy.backoff_delay(7, 1)  # same (task, attempt), same delay
        assert 0.05 <= first <= 0.1  # nominal 0.1, jitter in [0.5, 1.0]
        assert second <= 0.3  # doubling, capped
        # Different tasks decorrelate (jitter keyed on the pair, not shared RNG).
        assert policy.backoff_delay(7, 1) != policy.backoff_delay(8, 1)

    def test_zero_backoff_disables_pacing(self):
        policy = SupervisionPolicy(retry_backoff=0.0)
        assert policy.backoff_delay(1, 5) == 0.0

    def test_deadline_scales_with_batch_size(self):
        policy = SupervisionPolicy(task_timeout=2.0)
        assert policy.deadline_from(100.0) == 102.0
        assert policy.deadline_from(100.0, tasks=3) == 106.0
        assert SupervisionPolicy().deadline_from(100.0) is None


# --------------------------------------------------------------------------- fault plan algebra
class TestFaultPlan:
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
        """The pre-flight picklability probe plus the fingerprint nonce keep
        unpicklable user policies working on the parallel path (fork) or the
        serial fallback (spawn) — either way, the verify succeeds."""
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
            inflight, aggregator, cancel, SupervisionPolicy(task_timeout=1.0)
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
                inflight, aggregator, threading.Event(), SupervisionPolicy(task_timeout=1.0)
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
                inflight, aggregator, threading.Event(), SupervisionPolicy(task_timeout=0.05)
            )
        assert clean is False  # caller must kill the pool, not join it
        assert any("abandoning" in record.message for record in caplog.records)

    def test_unset_timeout_waits_for_completion(self):
        aggregator = _RecordingAggregator()
        ok = TaskResult(task_id=9)
        inflight = {_done_future([ok]): _Batch([9], submitted_at=0.0, deadline=None)}
        clean = ProcessPoolBackend._drain_after_stop(
            inflight, aggregator, threading.Event(), SupervisionPolicy()
        )
        assert clean is True
        assert aggregator.recorded == [9]


# --------------------------------------------------------------------------- fingerprints
class TestFingerprintNonce:
    def test_nonces_never_repeat(self):
        assert len({fresh_pool_nonce() for _ in range(100)}) == 100

    def test_unpicklable_fingerprints_do_not_collide_across_calls(self):
        """The id()-reuse hazard: two sequential verifies whose unpicklable
        policies land on the same heap address must still produce distinct
        worker-cache keys (each call folds in a fresh nonce)."""
        network = ospf_everywhere(fat_tree(4))
        options = PlanktonOptions()
        policy = _UnpicklablePolicy()
        first = network_fingerprint(network, options, [policy])
        second = network_fingerprint(network, options, [policy])
        assert first != second

    def test_picklable_fingerprints_are_stable(self):
        network = ospf_everywhere(fat_tree(4))
        options = PlanktonOptions()
        assert network_fingerprint(network, options, []) == network_fingerprint(
            network, options, []
        )
