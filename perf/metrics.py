"""The benchmark's metric declarations - the one place names, units,
directions, bounds and predictions live.  ``python3 perf/metrics.py`` prints
the ``BENCHMARK.json`` they imply; the smoke test keeps the two equal.

Predictions.  Every per-layer metric declares ``moves``: the end-to-end
metric and the workloads it is expected to move when its layer changes.
Everywhere else the prediction is *no change* - so a claim "layer X got
faster" is checked on the listed workloads, and "nothing else got slower" on
the rest.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

#: name -> one line on why the workload exists (the workloads entry of BENCHMARK.json).
WHY = {
    "ebgp_k4_f2": "RFC 7938 eBGP fat-tree k=4, loop check under <=2 link failures (Fig. 7c/d): the RPVP "
                  "explorer dominates; 448 small engine tasks and the cache write path",
    "ospf_mc_k14": "OSPF fat-tree k=14 forced through the model checker via the library API (Fig. 7a): long "
                   "deterministic executions, per-state cost that grows with n",
    "ospf_k16_f1_loop": "OSPF fat-tree k=16 with a static 4-cycle, <=1 failure: the fast_ospf path - no "
                        "exploration, per-(PEC, failure) OSPF compute dominates; the known-violated case",
    "transient_k6_d6": "SPVP transient campaign on eBGP k=6, 40 lifecycle scenarios, depth 6, ample POR: "
                       "the other model plus a 40 MB report, where rendering is a large share",
    "cli_warm": "repeated all-hit `repro verify --cache-dir` invocations: process start, imports, parse, "
                "fingerprint, cache load and decode; the explorer does nothing",
    "serve_edit": "one-rack overlay pushes to a warm `repro serve` session (eBGP k=4, <=1 failure): delta, "
                  "impact, 7/8 PECs from cache beside 1/8 through the explorer and back into the cache",
    "serve_rerun": "run-only pushes to the same kind of session: the daemon's fixed cost - queue, lock, "
                   "fingerprint, lookup, decode, aggregation, five-form rendering, HTTP",
}

COMMAND = ["python3", "perf/run.py"]
PATHS = ["perf"]
RUN_SECONDS = 10

#: ``setup_s`` carries the bound max(its share, this): BENCHMARK.json can only
#: say the share, ``sweep.py --compare`` applies both.
SETUP_FLOOR_SECONDS = 0.05

#: (name, unit, better, bound, what it is)
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("verdict_s", "s", "lower", 0.20,
     "mean time from launching an operation to the verdict in hand, in normalised seconds: every "
     "<=0.25 s of it is scaled by a calibration kernel timed on the same core around it (harness.py)"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "peak resident set of the process that produced the verdict (ru_maxrss of the child; "
     "of the daemon at exit for serve_*)"),
    ("setup_s", "s", "lower", 0.25,
     "set-up, normalised seconds: median of fifteen input generations + file writes, plus (once) cache "
     "population for cli_warm, daemon boot-to-health and the cold first push for serve_*"),
]

RPVP = ("ebgp_k4_f2", "ospf_mc_k14", "serve_edit")
WARM = ("cli_warm", "serve_rerun")
SERVE = ("serve_edit", "serve_rerun")
V = "verdict_s"

#: (name, unit, better, source, moves) - source is ("self"|"total"|"count", span)
#: read from the tracer per operation, or ("extra", key) computed by trace_run.
PER_LAYER: List[Tuple[str, str, str, Tuple[str, str], Tuple[str, Tuple[str, ...]]]] = [
    ("cli.import_s", "s", "lower", ("extra", "cli.import_s"), (V, ("cli_warm",))),
    ("cli.modules_imported", "count", "lower", ("extra", "cli.modules_imported"), (V, ("cli_warm",))),
    ("cli.self_s", "s", "lower", ("self", "cli.main"), (V, ("transient_k6_d6", "cli_warm"))),
    ("topology.parse_s", "s", "lower", ("self", "topology.parse"), (V, ("cli_warm",))),
    ("config.parse_s", "s", "lower", ("self", "config.parse"), (V, ("cli_warm",))),
    ("config.devices", "count", "lower", ("extra", "config.devices"), (V, ("cli_warm",))),
    ("pec.partition_s", "s", "lower", ("self", "pec.partition"), (V, ("cli_warm",))),
    ("pec.dependency_s", "s", "lower", ("self", "pec.dependency"), (V, ("cli_warm",))),
    ("pec.count", "count", "lower", ("extra", "pec.count"), (V, ("cli_warm",))),
    ("core.plankton_init_s", "s", "lower", ("self", "core.plankton_init"), (V, ("cli_warm", "serve_edit"))),
    ("engine.graph_build_s", "s", "lower", ("self", "engine.graph_build"), (V, ("ospf_k16_f1_loop",))),
    ("topology.failures_s", "s", "lower", ("self", "topology.failures"), (V, ("ospf_k16_f1_loop",))),
    ("engine.tasks", "count", "lower", ("extra", "engine.tasks"), (V, ("ospf_k16_f1_loop", "ebgp_k4_f2"))),
    ("engine.failure_scenarios", "count", "lower", ("extra", "engine.failure_scenarios"),
     (V, ("ospf_k16_f1_loop", "ebgp_k4_f2"))),
    ("engine.execute_self_s", "s", "lower", ("self", "engine.execute"), (V, ("ospf_k16_f1_loop", "ebgp_k4_f2"))),
    ("engine.aggregate_s", "s", "lower", ("self", "engine.aggregate"), (V, ("ospf_k16_f1_loop", "ebgp_k4_f2"))),
    ("engine.task_failures", "count", "lower", ("extra", "engine.task_failures"), (V, ("ebgp_k4_f2",))),
    ("engine.pool_speedup", "ratio", "higher", ("extra", "engine.pool_speedup"), (V, ("ebgp_k4_f2",))),
    ("core.run_pec_s", "s", "lower", ("total", "core.run_pec"), (V, RPVP)),
    ("core.run_pec_self_s", "s", "lower", ("self", "core.run_pec"), (V, RPVP)),
    ("core.states_expanded", "count", "lower", ("extra", "core.states_expanded"), (V, RPVP)),
    ("core.converged_states", "count", "lower", ("extra", "core.converged_states"), (V, RPVP)),
    ("core.us_per_state", "us", "lower", ("extra", "core.us_per_state"), (V, RPVP)),
    ("core.instance_build_s", "s", "lower", ("self", "core.instance_build"), (V, ("ospf_mc_k14",))),
    ("core.determinism_build_s", "s", "lower", ("self", "core.determinism_build"), (V, ("ospf_mc_k14",))),
    ("core.explore_self_s", "s", "lower", ("self", "core.explore"), (V, ("ospf_mc_k14",))),
    ("core.successors_s", "s", "lower", ("self", "core.successors"), (V, ("ospf_mc_k14", "ebgp_k4_f2"))),
    ("modelcheck.search_self_s", "s", "lower", ("self", "modelcheck.search"), (V, ("ospf_mc_k14",))),
    ("core.state_cost_growth", "ratio", "lower", ("extra", "core.state_cost_growth"), (V, ("ospf_mc_k14",))),
    ("core.terminal_s", "s", "lower", ("self", "core.terminal"), (V, ("ebgp_k4_f2",))),
    ("dataplane.build_s", "s", "lower", ("self", "dataplane.build"), (V, ("ebgp_k4_f2",))),
    ("dataplane.planes", "count", "lower", ("count", "dataplane.build"), (V, ("ebgp_k4_f2",))),
    ("core.stability_s", "s", "lower", ("self", "core.stability"), (V, ("ebgp_k4_f2",))),
    ("policies.check_s", "s", "lower", ("self", "policies.check"), (V, ("ebgp_k4_f2",))),
    ("policies.checks", "count", "lower", ("count", "policies.check"), (V, ("ebgp_k4_f2",))),
    ("policies.suppressed", "count", "higher", ("extra", "policies.suppressed"), (V, ("ebgp_k4_f2",))),
    ("modelcheck.peak_visited_bytes", "bytes", "lower", ("extra", "modelcheck.peak_visited_bytes"),
     ("peak_rss_mb", ("ospf_mc_k14",))),
    ("modelcheck.truncated_runs", "count", "lower", ("extra", "modelcheck.truncated_runs"),
     (V, ("ospf_mc_k14", "ebgp_k4_f2"))),
    ("protocols.ospf_compute_s", "s", "lower", ("self", "protocols.ospf_compute"), (V, ("ospf_k16_f1_loop",))),
    ("protocols.ospf_computes", "count", "lower", ("count", "protocols.ospf_compute"), (V, ("ospf_k16_f1_loop",))),
    ("transient.analyze_s", "s", "lower", ("self", "transient.analyze"), (V, ("transient_k6_d6",))),
    ("transient.task_self_s", "s", "lower", ("self", "transient.task"), (V, ("transient_k6_d6",))),
    ("transient.property_check_s", "s", "lower", ("self", "transient.property_check"), (V, ("transient_k6_d6",))),
    ("transient.states_explored", "count", "lower", ("extra", "transient.states_explored"), (V, ("transient_k6_d6",))),
    ("transient.us_per_state", "us", "lower", ("extra", "transient.us_per_state"), (V, ("transient_k6_d6",))),
    ("transient.violations", "count", "lower", ("extra", "transient.violations"), (V, ("transient_k6_d6",))),
    ("transient.truncated_runs", "count", "lower", ("extra", "transient.truncated_runs"), (V, ("transient_k6_d6",))),
    ("modelcheck.por_select_s", "s", "lower", ("self", "modelcheck.por_select"), (V, ("transient_k6_d6",))),
    ("modelcheck.por_transition_ratio", "ratio", "higher", ("extra", "modelcheck.por_transition_ratio"),
     (V, ("transient_k6_d6",))),
    ("protocols.spvp_step_s", "s", "lower", ("self", "protocols.spvp_step"), (V, ("transient_k6_d6",))),
    ("scenarios.enumerate_s", "s", "lower", ("self", "scenarios.enumerate"), (V, ("transient_k6_d6",))),
    ("scenarios.emitted", "count", "lower", ("extra", "scenarios.emitted"), (V, ("transient_k6_d6",))),
    ("scenarios.pruned", "count", "higher", ("extra", "scenarios.pruned"), (V, ("transient_k6_d6",))),
    ("reporting.render_s", "s", "lower", ("self", "reporting.render"), (V, ("transient_k6_d6", "serve_rerun"))),
    ("reporting.bytes", "bytes", "lower", ("extra", "reporting.bytes"), ("peak_rss_mb", ("transient_k6_d6",))),
    ("incremental.verify_self_s", "s", "lower", ("self", "incremental.verify"), (V, WARM + ("serve_edit",))),
    ("incremental.fingerprint_s", "s", "lower", ("self", "incremental.fingerprint"), (V, WARM)),
    ("incremental.lookup_s", "s", "lower", ("self", "incremental.lookup"), (V, WARM)),
    ("incremental.hits", "count", "higher", ("extra", "incremental.hits"), (V, WARM)),
    ("incremental.misses", "count", "lower", ("extra", "incremental.misses"), (V, WARM)),
    ("incremental.hit_ratio", "ratio", "higher", ("extra", "incremental.hit_ratio"), (V, WARM)),
    ("incremental.decode_s", "s", "lower", ("self", "incremental.decode"), (V, WARM)),
    ("incremental.load_s", "s", "lower", ("self", "incremental.load"), (V, ("cli_warm",))),
    ("incremental.cache_bytes", "bytes", "lower", ("extra", "incremental.cache_bytes"), (V, ("cli_warm",))),
    ("incremental.encode_s", "s", "lower", ("self", "incremental.encode"), (V, ("serve_edit", "ebgp_k4_f2"))),
    ("incremental.save_s", "s", "lower", ("self", "incremental.save"), (V, ("serve_edit", "ebgp_k4_f2") + WARM)),
    ("incremental.update_self_s", "s", "lower", ("self", "incremental.update"), (V, ("serve_edit",))),
    ("incremental.delta_s", "s", "lower", ("self", "incremental.delta"), (V, ("serve_edit",))),
    ("incremental.impact_s", "s", "lower", ("self", "incremental.impact"), (V, ("serve_edit",))),
    ("incremental.signature_s", "s", "lower", ("self", "incremental.signature"), (V, SERVE)),
    ("incremental.tasks_recomputed", "count", "lower", ("extra", "incremental.tasks_recomputed"),
     (V, ("serve_edit", "ebgp_k4_f2"))),
    ("serve.queue_wait_s", "s", "lower", ("extra", "serve.queue_wait_s"), (V, SERVE)),
    ("serve.run_s", "s", "lower", ("extra", "serve.run_s"), (V, SERVE)),
    ("serve.overhead_s", "s", "lower", ("extra", "serve.overhead_s"), (V, ("serve_rerun",))),
    ("serve.execute_self_s", "s", "lower", ("self", "serve.execute_job"), (V, ("serve_rerun",))),
    ("serve.install_self_s", "s", "lower", ("self", "serve.install"), (V, ("serve_edit",))),
    ("serve.http_s", "s", "lower", ("self", "serve.http"), (V, ("serve_rerun",))),
    ("serve.response_bytes", "bytes", "lower", ("extra", "serve.response_bytes"), (V, ("serve_rerun",))),
    ("serve.rejected", "count", "lower", ("extra", "serve.rejected"), (V, SERVE)),
    ("serve.push_p90_s", "s", "lower", ("extra", "serve.push_p90_s"), (V, SERVE)),
    ("serve.boot_s", "s", "lower", ("extra", "serve.boot_s"), ("setup_s", SERVE)),
    ("serve.shutdown_save_s", "s", "lower", ("extra", "serve.shutdown_save_s"), ("setup_s", SERVE)),
    ("machine.calib_s", "s", "lower", ("extra", "machine.calib_s"), (V, ())),
    ("machine.calib_spread", "ratio", "lower", ("extra", "machine.calib_spread"), (V, ())),
    ("trace.wall_s", "s", "lower", ("extra", "trace.wall_s"), (V, ())),
    ("trace.self_sum_s", "s", "lower", ("extra", "trace.self_sum_s"), (V, ())),
    ("trace.overhead_ratio", "ratio", "lower", ("extra", "trace.overhead_ratio"), (V, ())),
    ("trace.missing_targets", "count", "lower", ("extra", "trace.missing_targets"), (V, ())),
]


def manifest() -> Dict[str, object]:
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better, _, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
