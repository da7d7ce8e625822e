"""Spans recorded from the benchmark's side of every layer boundary.

The traced run replays a workload in-process with the program's public
callables attribute-wrapped (``TARGETS``).  A span is (name, start, duration,
thread); spans nest through a per-thread stack, and a layer's **self time**
is its spans' duration minus the part their child spans cover, so the self
times of one thread add up to the duration of its root spans by
construction.  Nothing here is imported by the untraced run.

A target that no longer exists (renamed by a later change) is skipped and
listed in ``Tracer.missing``: its layer then reads 0 and its time shows up
in the parent's self time, which is the honest answer until the table here
is brought up to date in a benchmark-only change.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: Spans shorter than this are aggregated but not written as trace events
#: (a quarter of a million 20 us events would bury the picture).
EVENT_MIN_SECONDS = 0.0005

#: (span name, "module:attribute.path").  The span name's prefix is the layer
#: (= the module that owns the time).  Several targets may share one name.
TARGETS: List[Tuple[str, str]] = [
    ("topology.parse", "repro.topology.io:load_topology"),
    ("topology.parse", "repro.topology.io:parse_topology"),
    ("topology.failures", "repro.topology.failures:reduced_failure_scenarios"),
    ("topology.failures", "repro.topology.failures:enumerate_failure_scenarios"),
    ("config.parse", "repro.config.parser:parse_config"),
    ("config.parse", "repro.config.parser:parse_device_config"),
    ("pec.partition", "repro.pec.classes:compute_pecs"),
    ("pec.dependency", "repro.pec.dependencies:build_dependency_graph"),
    ("core.plankton_init", "repro.core.verifier:Plankton.__init__"),
    ("core.expand_request", "repro.core.verifier:Plankton.expand_request"),
    ("core.verify", "repro.core.verifier:Plankton.verify"),
    ("core.run_pec", "repro.core.verifier:Plankton.run_pec"),
    ("core.instance_build", "repro.core.network_model:PecExplorer.bgp_instance"),
    ("core.instance_build", "repro.core.network_model:PecExplorer.ospf_instance"),
    ("core.determinism_build", "repro.core.determinism:BgpDeterminism.__init__"),
    ("core.determinism_build", "repro.core.determinism:OspfDeterminism.__init__"),
    ("core.explore", "repro.core.network_model:PecExplorer.explore"),
    ("core.stability", "repro.core.determinism:BgpDeterminism.decisions_are_stable"),
    ("dataplane.build", "repro.core.network_model:PecExplorer.build_data_plane"),
    ("modelcheck.search", "repro.modelcheck.explorer:Explorer.run"),
    ("modelcheck.por_select", "repro.modelcheck.por.ample:AmpleSelector.select"),
    ("protocols.ospf_compute", "repro.protocols.ospf:OspfComputation.compute"),
    ("protocols.spvp_step", "repro.protocols.spvp:SpvpStepper.deliver"),
    ("protocols.spvp_step", "repro.protocols.spvp:SpvpStepper.drain"),
    ("engine.graph_build", "repro.engine.graph:build_task_graph"),
    ("engine.graph_build", "repro.engine.graph:build_transient_task_graph"),
    ("engine.execute", "repro.engine.backends:SerialBackend.execute"),
    ("engine.execute", "repro.engine.backends:ProcessPoolBackend.execute"),
    ("engine.aggregate", "repro.engine.aggregator:ResultAggregator.record"),
    ("engine.aggregate", "repro.engine.aggregator:ResultAggregator.finalize"),
    ("engine.aggregate", "repro.core.results:VerificationResult.record"),
    ("engine.aggregate", "repro.core.results:VerificationResult.merge"),
    ("scenarios.enumerate", "repro.scenarios.enumerator:enumerate_event_scenarios"),
    ("transient.task", "repro.transient.explorer:execute_transient_task"),
    ("transient.analyze", "repro.transient.explorer:TransientAnalyzer.analyze"),
    ("incremental.verify", "repro.incremental.service:IncrementalVerifier.verify"),
    ("incremental.verify", "repro.incremental.service:IncrementalVerifier.verify_transients"),
    ("incremental.update", "repro.incremental.service:IncrementalVerifier.update"),
    ("incremental.fingerprint", "repro.incremental.cache:verification_fingerprints"),
    ("incremental.fingerprint", "repro.incremental.cache:transient_fingerprint"),
    ("incremental.lookup", "repro.incremental.cache:ResultCache.lookup"),
    ("incremental.decode", "repro.incremental.cache:decode_run"),
    ("incremental.decode", "repro.incremental.cache:decode_data_plane"),
    ("incremental.decode", "repro.incremental.cache:decode_transient_run"),
    ("incremental.encode", "repro.incremental.cache:encode_run"),
    ("incremental.encode", "repro.incremental.cache:encode_data_plane"),
    ("incremental.encode", "repro.incremental.cache:encode_transient_run"),
    ("incremental.load", "repro.incremental.cache:ResultCache.load"),
    ("incremental.save", "repro.incremental.cache:ResultCache.save"),
    ("incremental.delta", "repro.incremental.delta:diff_networks"),
    ("incremental.impact", "repro.incremental.impact:impacted_pecs"),
    ("incremental.signature", "repro.incremental.service:result_signature_digest"),
    ("incremental.signature", "repro.incremental.service:transient_campaign_signature_digest"),
    ("reporting.render", "repro.reporting:result_to_dict"),
    ("reporting.render", "repro.reporting:render_markdown"),
    ("reporting.render", "repro.reporting:verify_document"),
    ("reporting.render", "repro.reporting:transient_campaign_to_dict"),
    ("reporting.render", "repro.reporting:render_transient_markdown"),
    ("reporting.render", "repro.reporting:job_to_dict"),
    ("reporting.render", "repro.reporting:write_report"),
    ("reporting.render", "repro.reporting:write_transient_report"),
    ("serve.execute_job", "repro.serve.jobs:execute_job"),
    ("serve.install", "repro.serve.registry:NamespaceSession.install"),
    ("serve.http", "repro.serve.http:_Handler.do_GET"),
    ("serve.http", "repro.serve.http:_Handler.do_POST"),
]

#: Spans whose latest return value is kept (``Tracer.results``): the result
#: objects the traced run reads determinism counts from.
KEPT_RESULTS = {"core.verify", "incremental.verify"}

#: Modules imported before wrapping so that every ``from x import f`` alias of
#: a target already exists and can be re-pointed.
PRELOAD = [
    "repro.cli", "repro.reporting", "repro.client", "repro.incremental", "repro.serve",
    "repro.serve.http", "repro.transient", "repro.scenarios", "repro.engine",
    "repro.modelcheck.por.ample", "repro.policies", "repro.transient.properties",
]


class _ThreadState:
    __slots__ = ("stack", "spans", "events", "thread_id")

    def __init__(self, thread_id: int) -> None:
        self.stack: List[float] = []  # child-time accumulator per open span
        self.spans: Dict[str, List[float]] = {}  # name -> [count, total, self]
        self.events: List[Tuple[str, float, float]] = []
        self.thread_id = thread_id


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.results: Dict[str, object] = {}
        self.scenario_counts = {"emitted": 0, "pruned": 0}
        self.origin = time.perf_counter()

    # -- recording ------------------------------------------------------
    def _new_state(self) -> _ThreadState:
        with self._lock:
            state = _ThreadState(len(self._states))
            self._states.append(state)
        self._local.state = state
        return state

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        local, new_state, clock = self._local, self._new_state, time.perf_counter
        if name in KEPT_RESULTS:
            inner, results = function, self.results

            def function(*args, **kwargs):
                results[name] = result = inner(*args, **kwargs)
                return result

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            stack.append(0.0)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - started
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                record = state.spans.get(name)
                if record is None:
                    record = state.spans[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - covered
                if duration >= EVENT_MIN_SECONDS or not stack:
                    state.events.append((name, started, duration))

        return functools.update_wrapper(traced, function)

    # -- wrapping -------------------------------------------------------
    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]
                           if isinstance(owner, type) else getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_aliases(self, original: object, replacement: object) -> None:
        """Re-point a module-level function and every ``from x import f``
        alias of it in the program's loaded modules."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, alias, replacement)

    def install(self) -> None:
        """Import the program and wrap every target that exists."""
        for module_name in PRELOAD:
            try:
                importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
        for name, target in TARGETS:
            module_name, _, path = target.partition(":")
            try:
                owner: object = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            if isinstance(original, (staticmethod, classmethod)) or not callable(original):
                self.missing.append(target)
                continue
            if isinstance(owner, type):
                self._patch(owner, attribute, self.wrap(original, name))
            else:
                self._patch_aliases(original, self.wrap(original, name))
        self._wrap_policy_checks()
        self._wrap_explorer_callbacks()
        self._count_scenarios()

    def _wrap_policy_checks(self) -> None:
        """``check`` of every concrete policy / transient property class."""
        for module_name, name in (("repro.policies", "policies.check"),
                                  ("repro.transient.properties", "transient.property_check")):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            for value in list(vars(module).values()):
                if isinstance(value, type) and callable(value.__dict__.get("check")) \
                        and not getattr(value.__dict__["check"], "__isabstractmethod__", False):
                    self._patch(value, "check", self.wrap(value.__dict__["check"], name))

    def _wrap_explorer_callbacks(self) -> None:
        """The successor function and terminal check are closures handed to
        ``Explorer(...)``; wrap them as they pass through the constructor so
        ``modelcheck.search`` self time is the search loop alone."""
        try:
            from repro.modelcheck.explorer import Explorer
        except ImportError:
            self.missing.append("repro.modelcheck.explorer:Explorer.__init__")
            return
        original = Explorer.__dict__["__init__"]
        wrap = self.wrap

        def traced_init(explorer, *args, **kwargs):
            args = list(args)
            if args:
                args[0] = wrap(args[0], "core.successors")
            elif "successors" in kwargs:
                kwargs["successors"] = wrap(kwargs["successors"], "core.successors")
            if len(args) > 1 and args[1] is not None:
                args[1] = wrap(args[1], "core.terminal")
            elif kwargs.get("check_terminal") is not None:
                kwargs["check_terminal"] = wrap(kwargs["check_terminal"], "core.terminal")
            original(explorer, *args, **kwargs)

        self._patch(Explorer, "__init__", traced_init)

    def _count_scenarios(self) -> None:
        """Hand the scenario enumerator a ledger when the caller passed none,
        so emitted / pruned counts are measured where the pruning happens."""
        try:
            enumerator = importlib.import_module("repro.scenarios.enumerator")
            ledger_class = enumerator.ScenarioLedger
            current = enumerator.enumerate_event_scenarios
        except (ImportError, AttributeError):
            return
        counts = self.scenario_counts

        def counted(*args, **kwargs):
            ledger = kwargs.get("ledger")
            if ledger is None:
                ledger = kwargs["ledger"] = ledger_class()
            scenarios = current(*args, **kwargs)
            counts["emitted"] += len(scenarios)
            counts["pruned"] += int(getattr(ledger, "pruned", 0))
            return scenarios

        self._patch_aliases(current, counted)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    # -- reading --------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds), all threads merged."""
        merged: Dict[str, List[float]] = {}
        for state in self._states:
            for name, (count, total, own) in state.spans.items():
                record = merged.setdefault(name, [0, 0.0, 0.0])
                record[0] += count
                record[1] += total
                record[2] += own
        return {name: (int(c), t, s) for name, (c, t, s) in merged.items()}

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        for state in self._states:
            state.spans.clear()
            state.events.clear()
        self.scenario_counts["emitted"] = self.scenario_counts["pruned"] = 0
        self.origin = time.perf_counter()

    def chrome_trace(self, process_name: str) -> dict:
        """The recorded events in Chrome trace-event format (chrome://tracing,
        Perfetto): complete events, one lane per thread."""
        events: List[dict] = [{"ph": "M", "pid": 1, "name": "process_name",
                               "args": {"name": process_name}}]
        for state in self._states:
            for name, started, duration in state.events:
                events.append({
                    "name": name, "cat": name.split(".", 1)[0], "ph": "X", "pid": 1,
                    "tid": state.thread_id,
                    "ts": round((started - self.origin) * 1e6, 1),
                    "dur": round(duration * 1e6, 1),
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
