"""Unit tests for the supervision layer's degradation paths.

The fault-injection suite (:mod:`tests.test_fault_injection`) exercises the
end-to-end properties; this module pins the individual mechanisms: policy
derivation and backoff pacing, the fault-plan schedule algebra, the
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
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.graph import TaskResult
from repro.engine.supervision import SupervisionPolicy
from repro.incremental.service import result_signature
from repro.policies import LoopFreedom
from repro.topology import fat_tree

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# --------------------------------------------------------------------------- policy
def _policy(**knobs) -> SupervisionPolicy:
    return SupervisionPolicy.from_options(PlanktonOptions(**knobs))


class TestSupervisionPolicy:
    @pytest.mark.parametrize(
        "knob", ["task_retries", "retry_backoff", "retry_backoff_cap", "max_pool_rebuilds"]
    )
    def test_options_refuse_negative_knobs(self, knob):
        """A negative knob is refused where the options are built, never
        clamped behind the policy's back."""
        with pytest.raises(ValueError, match=knob):
            PlanktonOptions(**{knob: -1})
        assert getattr(_policy(**{knob: 0}), knob) == 0

    def test_policy_reads_every_knob_off_the_options(self):
        options = PlanktonOptions(
            task_timeout=3.0, task_retries=4, retry_backoff=0.2,
            retry_backoff_cap=1.5, max_pool_rebuilds=1,
        )
        assert SupervisionPolicy.from_options(options) == SupervisionPolicy(
            task_timeout=3.0, task_retries=4, retry_backoff=0.2,
            retry_backoff_cap=1.5, max_pool_rebuilds=1,
        )

    def test_backoff_is_deterministic_capped_and_grows(self):
        policy = _policy(retry_backoff=0.1, retry_backoff_cap=0.3)
        assert policy.backoff_delay(7, 0) == 0.0
        first = policy.backoff_delay(7, 1)
        second = policy.backoff_delay(7, 2)
        assert first == policy.backoff_delay(7, 1)  # same (task, attempt), same delay
        assert 0.05 <= first <= 0.1  # nominal 0.1, jitter in [0.5, 1.0]
        assert second <= 0.3  # doubling, capped
        # Different tasks decorrelate (jitter keyed on the pair, not shared RNG).
        assert policy.backoff_delay(7, 1) != policy.backoff_delay(8, 1)

    def test_zero_backoff_disables_pacing(self):
        policy = _policy(retry_backoff=0.0)
        assert policy.backoff_delay(1, 5) == 0.0

    def test_deadline_scales_with_batch_size(self):
        policy = _policy(task_timeout=2.0)
        assert policy.deadline_from(100.0) == 102.0
        assert policy.deadline_from(100.0, tasks=3) == 106.0
        assert _policy().deadline_from(100.0) is None


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
            inflight, aggregator, cancel, _policy(task_timeout=1.0)
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
                inflight, aggregator, threading.Event(), _policy(task_timeout=1.0)
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
                inflight, aggregator, threading.Event(), _policy(task_timeout=0.05)
            )
        assert clean is False  # caller must kill the pool, not join it
        assert any("abandoning" in record.message for record in caplog.records)

    def test_unset_timeout_waits_for_completion(self):
        aggregator = _RecordingAggregator()
        ok = TaskResult(task_id=9)
        inflight = {_done_future([ok]): _Batch([9], submitted_at=0.0, deadline=None)}
        clean = ProcessPoolBackend._drain_after_stop(
            inflight, aggregator, threading.Event(), _policy()
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
        options = dict(cores=2, backend="process", stop_at_first_violation=False)
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
