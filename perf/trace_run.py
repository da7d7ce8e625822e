"""The traced run: one workload replayed in this process under ``Tracer``.

Same inputs, same operations, same verdict checks as the end-to-end run -
but ``repro.cli.main`` / the API driver / a ``ReproServer`` are called here,
with spans around every layer boundary, so the per-layer numbers exist.
Afterwards the same operations run once more with the wrappers removed:
their ratio is ``trace.overhead_ratio``.  All times are raw seconds per
operation (per-layer metrics carry no bound; compare shares, not seconds,
across runs on a drifting machine).
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, List

from harness import (Client, Meter, child_env, median, percentile, pin_to_one_cpu, python_cmd,
                     quartile_spread, say, unpin)
from metrics import PER_LAYER
from tracing import Tracer
from workloads import Op, drift, run_operations

#: Operations replayed untraced for the overhead ratio (at most).
UNTRACED_OPERATIONS = 5


class InProcessDaemon:
    """``ReproServer`` on threads of this process, so its layers are traced;
    the client still talks HTTP to it."""

    def __init__(self, cwd: Path, cache_dir: Path) -> None:
        from repro.serve import ReproServer

        self.server = ReproServer(port=0, cache_dir=str(cache_dir)).start()
        self.client = Client(self.server.host, self.server.port)
        if self.client.request("GET", "/v1/health")[0] != 200:
            raise RuntimeError("in-process server health check failed")
        self.shutdown_seconds = 0.0
        self.peak_rss_mb = 0.0

    def stop(self) -> None:
        started = time.perf_counter()
        self.client.connection.close()
        self.server.stop()
        self.shutdown_seconds = time.perf_counter() - started


def _in_process(workload, tracer: Tracer) -> Callable[[Meter], Op]:
    """The workload's operation as a call into the program in this process."""
    if hasattr(workload, "daemon_factory"):
        return workload.operate  # HTTP to the in-process server

    if hasattr(workload, "driver_args"):
        import api_driver

        def call() -> tuple:
            document = api_driver.drive(*workload.driver_args())
            return (0 if document["holds"] else 1), json.dumps(document)
        root = "api.driver"
    else:
        from repro.cli import main

        def call() -> tuple:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(workload.next_argv())
            return code, buffer.getvalue()
        root = "cli.main"

    call = tracer.wrap(call, root)  # the root span of every operation

    def operate(meter: Meter) -> Op:
        answer = []
        timed = meter.measure(lambda: answer.extend(call()))
        timed.exit_code, timed.stdout = answer
        return workload.judged(timed)

    return operate


def _fresh_import_cost() -> Dict[str, float]:
    """``import repro.cli`` in a fresh interpreter, minus an empty interpreter."""
    def timed(code: str) -> tuple:
        started = time.perf_counter()
        done = subprocess.run(python_cmd("-c", code), env=child_env(), capture_output=True, text=True)
        return time.perf_counter() - started, done.stdout.strip()

    empty = median([timed("pass")[0] for _ in range(3)])
    runs = [timed("import sys, repro.cli; print(len(sys.modules))") for _ in range(3)]
    base = timed("import sys; print(len(sys.modules))")[1]
    return {
        "cli.import_s": max(0.0, median([seconds for seconds, _ in runs]) - empty),
        "cli.modules_imported": float(int(runs[0][1] or 0) - int(base or 0)),
    }


def _result_extras(tracer: Tracer, ops: List[Op]) -> Dict[str, float]:
    """Counts read off the last operation's result object and document."""
    extras: Dict[str, float] = {}
    counts = ops[-1].counts
    result = tracer.results.get("incremental.verify") or tracer.results.get("core.verify")
    runs = list(getattr(result, "pec_runs", None) or [])
    statistics = [run.statistics for run in runs if getattr(run, "statistics", None) is not None]
    extras["engine.tasks"] = float(counts.get("tasks_total", len(runs)))
    extras["engine.failure_scenarios"] = float(counts.get("failure_scenarios", 0))
    extras["engine.task_failures"] = float(len(getattr(result, "errors", None) or []))
    extras["pec.count"] = float(counts.get("pecs_analyzed", 0))
    extras["core.converged_states"] = float(counts.get("converged_states", 0))
    extras["policies.suppressed"] = float(sum(getattr(run, "suppressed_states", 0) for run in runs))
    extras["modelcheck.peak_visited_bytes"] = float(max((s.visited_bytes for s in statistics), default=0))
    extras["modelcheck.truncated_runs"] = float(sum(1 for s in statistics if s.truncated))
    incremental = getattr(result, "incremental", None)
    hits = float(getattr(incremental, "pecs_from_cache", 0))
    misses = float(getattr(incremental, "pecs_recomputed", 0))
    extras["incremental.hits"], extras["incremental.misses"] = hits, misses
    extras["incremental.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    extras["incremental.tasks_recomputed"] = float(counts.get("tasks_recomputed", 0))

    if hasattr(result, "runs"):  # a transient campaign
        analyses = [run.result for run in result.runs]
        enabled = sum(getattr(a.reduction, "transitions_enabled", 0) for a in analyses if a.reduction)
        expanded = sum(getattr(a.reduction, "transitions_expanded", 0) for a in analyses if a.reduction)
        extras["transient.states_explored"] = float(sum(a.states_explored for a in analyses))
        extras["transient.violations"] = float(sum(len(a.violations) for a in analyses))
        extras["transient.truncated_runs"] = float(sum(1 for a in analyses if a.truncated))
        extras["modelcheck.por_transition_ratio"] = enabled / expanded if expanded else 0.0
        extras["engine.tasks"] = float(len(analyses))
        extras["core.states_expanded"] = 0.0
    else:
        extras["core.states_expanded"] = float(counts.get("states_expanded", 0))
    return extras


def _us_per_state(totals: dict, span: str, operations: int, states: float) -> float:
    return totals.get(span, (0, 0.0, 0.0))[1] / operations / states * 1e6 if states else 0.0


def _state_cost_growth(workload, tracer: Tracer, big_us_per_state: float) -> float:
    """Per-state cost at the workload's size over the same at k=8, same process."""
    import api_driver
    import gen

    small = workload.work / "k8"
    gen.write_inputs(small, gen.ospf_fabric(8, workload.plan))
    tracer.reset()
    document = api_driver.drive(str(small / "net.topo"), str(small / "net.cfg"))
    small_us = _us_per_state(tracer.totals(), "core.run_pec", 1, float(document["states_expanded"]))
    return big_us_per_state / small_us if small_us else 0.0


def _pool_speedup(workload) -> float:
    """Engine time of the cold verify on one core over the same on two
    (children of this pinned process get every CPU back first)."""
    elapsed = []
    for cores in ("1", "2"):
        argv = workload.next_argv() + ["--cores", cores]
        done = subprocess.run(python_cmd("-m", "repro", *argv), env=child_env(), capture_output=True,
                              text=True, preexec_fn=unpin)
        elapsed.append(float(json.loads(done.stdout)["elapsed_seconds"]))
    return elapsed[0] / elapsed[1]


def _run_extras(workload, meter: Meter, ops: List[Op], untraced: List[Op], totals: dict) -> Dict[str, float]:
    """What is known only once the operations are over."""
    extras: Dict[str, float] = dict(workload.extras)
    wall = sum(op.timed.seconds for op in ops) / len(ops)
    extras["trace.wall_s"] = wall
    extras["trace.self_sum_s"] = sum(own for _, _, own in totals.values()) / len(ops)
    extras["trace.overhead_ratio"] = wall / median([op.timed.seconds for op in untraced])
    extras["machine.calib_s"] = median(meter.calibrations)
    extras["machine.calib_spread"] = quartile_spread(meter.calibrations)
    extras["reporting.bytes"] = float(median([op.response_bytes for op in ops]))
    extras["config.devices"] = float((workload.inputs / "net.cfg").read_text().count("\ndevice ") + 1)
    cache_files = list(workload.work.glob("**/plankton_cache.json"))
    extras["incremental.cache_bytes"] = float(max((f.stat().st_size for f in cache_files), default=0))
    jobs = [op.job for op in ops if op.job]
    if jobs:
        queue_wait = median([job["started_at"] - job["created_at"] for job in jobs])
        run_time = median([job["finished_at"] - job["started_at"] for job in jobs])
        extras["serve.queue_wait_s"], extras["serve.run_s"] = queue_wait, run_time
        extras["serve.overhead_s"] = median([op.timed.seconds for op in ops]) - queue_wait - run_time
        extras["serve.push_p90_s"] = percentile([op.timed.seconds for op in ops], 0.9)
        extras["serve.response_bytes"] = extras["reporting.bytes"]
        extras["serve.rejected"] = float(sum(1 for op in ops if "answered 429" in op.note))
    return extras


def _print_table(totals: dict, operations: int, extras: Dict[str, float], served: bool) -> None:
    wall, self_sum = extras["trace.wall_s"], extras["trace.self_sum_s"]
    say(f"{'span':28s} {'calls/op':>10s} {'total s/op':>11s} {'self s/op':>11s} {'self %':>7s}")
    for name, (count, total, own) in sorted(totals.items(), key=lambda item: -item[1][2]):
        say(f"{name:28s} {count / operations:10.1f} {total / operations:11.5f} {own / operations:11.5f} "
            f"{100 * own / operations / wall:6.1f}%")
    if served:
        # What the spans do not cover of the client-observed time is HTTP
        # transport, polling and queueing; what they cover twice is server
        # threads overlapping (a poll's handler waiting for the GIL while
        # the job runs is ``serve.http`` self time) - hence the sign.
        say(f"{'(client wait - overlap)':28s} {'':10s} {'':11s} {wall - self_sum:11.5f} "
            f"{100 * (wall - self_sum) / wall:6.1f}%")
    say(f"{'(sum of self times)':28s} {'':10s} {'':11s} {self_sum:11.5f} {100 * self_sum / wall:6.1f}%  "
        f"of traced wall {wall:.5f} s/op; overhead ratio {extras['trace.overhead_ratio']:.3f}")
    say(f"{'cli.import (fresh process)':28s} {'':10s} {'':11s} {extras['cli.import_s']:11.5f}         "
        f"not part of the in-process wall above")


def traced(args, workload, expected: dict, scratch: Path) -> dict:
    pin_to_one_cpu()
    say(f"workload {workload.name}  seed {args.seed}  scale {args.scale}  TRACED (in-process)")
    extras = _fresh_import_cost()
    tracer = Tracer()
    tracer.install()
    served = hasattr(workload, "daemon_factory")
    if served:
        workload.daemon_factory = InProcessDaemon
    meter = Meter()
    workload.prepare()
    try:
        workload.warm_up(meter)
        operate = _in_process(workload, tracer)
        tracer.reset()
        ops = run_operations(operate, meter, args.seconds, workload.max_operations)
        totals = tracer.totals()
        trace_document = tracer.chrome_trace(f"{workload.name} seed {args.seed}")
        extras.update(_result_extras(tracer, ops))
        extras["scenarios.emitted"] = float(tracer.scenario_counts["emitted"]) / len(ops)
        extras["scenarios.pruned"] = float(tracer.scenario_counts["pruned"]) / len(ops)
        extras["core.us_per_state"] = _us_per_state(totals, "core.run_pec", len(ops), extras["core.states_expanded"])
        extras["transient.us_per_state"] = _us_per_state(
            totals, "transient.analyze", len(ops), extras.get("transient.states_explored", 0.0))
        if workload.name == "ospf_mc_k14" and args.scale == "full":
            extras["core.state_cost_growth"] = _state_cost_growth(workload, tracer, extras["core.us_per_state"])
        tracer.uninstall()
        untraced = run_operations(operate, meter, args.seconds, min(len(ops), UNTRACED_OPERATIONS))
        if workload.name == "ebgp_k4_f2" and args.scale == "full":
            extras["engine.pool_speedup"] = _pool_speedup(workload)
    finally:
        tracer.uninstall()
        workload.close()
    extras.update(_run_extras(workload, meter, ops, untraced, totals))
    extras["trace.missing_targets"] = float(len(tracer.missing))

    trace_path = scratch / f"trace-{workload.name}.json"
    trace_path.write_text(json.dumps(trace_document))

    failed = [op for op in ops + untraced if not op.ok]
    for op in failed[:5]:
        say(f"FAILED operation: {op.note}")
    for line in drift(expected.get("pins", {}), ops[-1].counts):
        say(f"count drift  {line}")
    for target in tracer.missing:
        say(f"missing wrap target  {target}")
    say(f"operations {len(ops)} traced + {len(untraced)} untraced   failed {len(failed)}   "
        f"trace file {trace_path.relative_to(scratch.parent.parent)}")
    _print_table(totals, len(ops), extras, served)

    metrics = {}
    for name, unit, _, (kind, key), _ in PER_LAYER:
        if kind == "extra":
            value = extras.get(key, 0.0)
        else:
            count, total, own = totals.get(key, (0, 0.0, 0.0))
            value = {"count": count, "total": total, "self": own}[kind] / len(ops)
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not failed, "attempted": len(ops) + len(untraced), "failed": len(failed),
            "metrics": metrics}
