"""The seven workloads: inputs, the user-visible operation, the known answer.

Every workload is a closed loop with one operation in flight: the next
operation starts when the previous verdict is in hand.  The operations go
through the paths a user takes - ``python -m repro ...`` subprocesses, a
fresh-interpreter API script, HTTP against a ``python -m repro serve``
subprocess on one keep-alive connection.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import gen
from harness import PERF_DIR, Daemon, Meter, Timed, median, python_cmd, run_child

#: Sizes.  ``toy`` exists for the smoke test only: same code, seconds in total.
SCALES = {
    "full": {"ebgp_k": 4, "ebgp_failures": 2, "serve_failures": 1, "mc_k": 14, "loop_k": 16,
             "transient_k": 6, "transient_depth": 6},
    "toy": {"ebgp_k": 4, "ebgp_failures": 0, "serve_failures": 0, "mc_k": 4, "loop_k": 4,
            "transient_k": 4, "transient_depth": 4},
}


@dataclass
class Op:
    """One finished operation: its timing, whether the verdict matched the
    known answer, and the determinism counts it reported."""

    timed: Timed
    ok: bool
    note: str = ""
    counts: Dict[str, int] = field(default_factory=dict)
    response_bytes: int = 0
    job: Optional[dict] = None


def run_operations(operate, meter: Meter, seconds: float, limit: int) -> List[Op]:
    """The closed loop: one operation after the other until ``limit`` are
    made or the next one would not fit into ``seconds`` (at least one)."""
    ops: List[Op] = []
    began = time.perf_counter()
    while True:
        ops.append(operate(meter))
        if len(ops) >= limit:
            return ops
        if time.perf_counter() - began + median([op.timed.seconds for op in ops]) > seconds:
            return ops


def drift(pins: dict, counts: dict) -> List[str]:
    """Pinned determinism counts that no longer match (never re-baselined
    silently: a change that moves one says so in its description)."""
    return [f"{key}: pinned {want}, observed {counts.get(key)}"
            for key, want in pins.items() if counts.get(key) != want]


def _parse_json(text: str) -> Optional[dict]:
    try:
        document = json.loads(text)
    except ValueError:
        return None
    return document if isinstance(document, dict) else None


def _judge(timed: Timed, document: Optional[dict], want_exit: int, want_holds: bool) -> str:
    """'' when the verdict is the known answer, else what was wrong."""
    if timed.error:
        return timed.error
    if document is None:
        return "malformed output (not a JSON object)"
    if timed.exit_code is not None and timed.exit_code != want_exit:
        return f"exit code {timed.exit_code}, known answer {want_exit}"
    if document.get("holds") is not want_holds:
        return f"holds={document.get('holds')!r}, known answer {want_holds}"
    if document.get("complete") is False:
        return "partial result"
    return ""


class Workload:
    """Base: seeded inputs in ``self.inputs``; subclasses add the operation."""

    name = ""
    #: Operations per run (the run also ends when ``--seconds`` are used up).
    #: A fixed count keeps per-run state that grows with it - the daemon's job
    #: table, hence its peak RSS - the same from run to run.
    max_operations = 1

    def __init__(self, work: Path, seed: int, scale: str, expected: dict) -> None:
        self.work = work
        self.rng = random.Random(seed)
        self.sizes = SCALES[scale]
        #: The known answer (expected.json).
        self.want_exit: int = expected["exit_code"]
        self.want_holds: bool = expected["holds"]
        self.plan = gen.Plan.draw(self.rng)
        self.inputs = work / "inputs"
        self.digests: Dict[str, str] = {}
        self.extras: Dict[str, float] = {}

    # -- set-up ---------------------------------------------------------
    def files(self) -> Dict[str, str]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate and write the inputs (cheap; timed several times)."""
        rng_state = self.rng.getstate()
        self.digests = gen.write_inputs(self.inputs, self.files())
        self.rng.setstate(rng_state)  # every repetition writes the same files

    def warm_up(self, meter: Meter) -> List[Timed]:
        """Set-up beyond the inputs (cache population, daemon boot), done
        once; returns its measured parts."""
        return []

    def close(self) -> None:
        """Tear down whatever :meth:`warm_up` started."""

    # -- operation ------------------------------------------------------
    def next_argv(self) -> List[str]:
        """CLI workloads: the ``repro`` arguments of the next operation."""
        raise NotImplementedError

    def operate(self, meter: Meter) -> Op:
        """One operation through the user-visible path (CLI unless overridden)."""
        return self.judged(run_child(meter, python_cmd("-m", "repro", *self.next_argv()), self.work))

    def peak_rss_mb(self, ops: List[Op]) -> float:
        return median([op.timed.peak_rss_mb for op in ops])

    def input_args(self) -> List[str]:
        return ["--topology", str(self.inputs / "net.topo"), "--config", str(self.inputs / "net.cfg")]

    def verify_argv(self, failures: int, *extra: str) -> List[str]:
        """``repro`` arguments of the loop check under ``failures`` failures."""
        return ["verify", *self.input_args(), "--policy", "loop",
                "--max-failures", str(failures), "--all-violations", "--json", *extra]

    def judged(self, timed: Timed) -> Op:
        """The operation whose stdout document is ``timed.stdout``, judged."""
        document = _parse_json(timed.stdout)
        note = _judge(timed, document, self.want_exit, self.want_holds)
        return Op(timed, ok=not note, note=note, counts=self.counts_of(document or {}),
                  response_bytes=len(timed.stdout))

    @staticmethod
    def counts_of(document: dict) -> Dict[str, int]:
        counts = {
            key: document[key]
            for key in ("pecs_analyzed", "failure_scenarios", "states_expanded", "converged_states")
            if isinstance(document.get(key), int)
        }
        if isinstance(document.get("violations"), list):
            counts["violations"] = len(document["violations"])
        incremental = document.get("incremental")
        if isinstance(incremental, dict):
            for key in ("tasks_total", "tasks_from_cache", "tasks_recomputed"):
                if isinstance(incremental.get(key), int):
                    counts[key] = incremental[key]
        return counts


# --------------------------------------------------------------------------- cold, single operation
class EbgpK4F2(Workload):
    name = "ebgp_k4_f2"

    def files(self):
        return gen.ebgp_fabric(self.sizes["ebgp_k"], self.plan)

    def next_argv(self):
        cache = self.work / "cold-cache"
        shutil.rmtree(cache, ignore_errors=True)  # every operation starts cold
        return self.verify_argv(self.sizes["ebgp_failures"], "--cache-dir", str(cache))


class OspfMcK14(Workload):
    name = "ospf_mc_k14"

    def files(self):
        return gen.ospf_fabric(self.sizes["mc_k"], self.plan)

    def driver_args(self) -> List[str]:
        return [str(self.inputs / "net.topo"), str(self.inputs / "net.cfg")]

    def operate(self, meter):
        argv = python_cmd(str(PERF_DIR / "api_driver.py"), *self.driver_args())
        return self.judged(run_child(meter, argv, self.work))

    @staticmethod
    def counts_of(document):
        return {k: v for k, v in document.items() if isinstance(v, int) and not isinstance(v, bool)}


class OspfK16F1Loop(Workload):
    name = "ospf_k16_f1_loop"

    def files(self):
        return gen.ospf_loop_fabric(self.sizes["loop_k"], self.plan, self.rng)

    def next_argv(self):
        return self.verify_argv(1)


class TransientK6D6(Workload):
    name = "transient_k6_d6"

    def files(self):
        return gen.ebgp_fabric(self.sizes["transient_k"], self.plan)

    def next_argv(self):
        return ["transient", *self.input_args(), "--por", "ample",
                "--max-depth", str(self.sizes["transient_depth"]), "--scenario-events", "1",
                "--all-violations", "--destination-prefix", self.plan.rack_prefix(0, 0), "--json"]

    @staticmethod
    def counts_of(document):
        runs = [run.get("result", {}) for run in document.get("runs", []) if isinstance(run, dict)]
        return {
            "runs": len(runs),
            "states_expanded": sum(int(r.get("states_explored", 0)) for r in runs),
            "violations": sum(len(r.get("violations", ())) for r in runs),
        }


# --------------------------------------------------------------------------- warm: a populated cache
class CliWarm(Workload):
    """All-hit invocations on the ``ebgp_k4_f2`` inputs; the cache is
    populated by one cold CLI run, which is this workload's set-up."""

    name = "cli_warm"
    max_operations = 32

    def files(self):
        return gen.ebgp_fabric(self.sizes["ebgp_k"], self.plan)

    def next_argv(self):
        return self.verify_argv(self.sizes["ebgp_failures"], "--cache-dir", str(self.work / "cache"))

    def warm_up(self, meter):
        cold = super().judged(run_child(meter, python_cmd("-m", "repro", *self.next_argv()), self.work))
        if not cold.ok:
            raise RuntimeError(f"cache population failed: {cold.note}")
        self.extras["setup.populate_s"] = cold.timed.seconds
        return [cold.timed]

    def judged(self, timed):
        op = super().judged(timed)
        if op.ok and op.counts.get("tasks_from_cache") != op.counts.get("tasks_total"):
            op.ok, op.note = False, "not an all-hit run"
        return op


class _ServeBase(Workload):
    """One ``repro serve`` daemon per run on the ``ebgp_k4`` fabric.  The
    first push carries the full configuration and verifies it cold (set-up);
    the measured pushes follow on the warm session."""

    namespace = "bench"
    #: What serves the pushes; the traced run swaps in an in-process server.
    daemon_factory = Daemon

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.daemon = None
        self.common = {
            "kind": "verify",
            "policies": [{"policy": "loop"}],
            "options": {"max_failures": self.sizes["serve_failures"], "stop_at_first_violation": False},
        }

    def files(self):
        return gen.ebgp_fabric(self.sizes["ebgp_k"], self.plan)

    def warm_up(self, meter):
        def boot():
            self.daemon = self.daemon_factory(self.work, self.work / "cache")
        booted = meter.measure(boot)
        booted.busy = None  # the daemon's start-up: another process's CPU, all of it busy
        self.extras["serve.boot_s"] = booted.seconds
        payload = dict(self.common,
                       topology=(self.inputs / "net.topo").read_text(),
                       config=(self.inputs / "net.cfg").read_text())
        first = self.push(meter, payload)
        self.extras["setup.first_push_s"] = first.timed.seconds
        if not first.ok:
            raise RuntimeError(f"first push failed: {first.note}")
        return [booted, first.timed]

    def close(self):
        if self.daemon is not None:
            self.daemon.stop()
            self.extras["serve.shutdown_save_s"] = self.daemon.shutdown_seconds

    def peak_rss_mb(self, ops):
        return self.daemon.peak_rss_mb

    def push(self, meter: Meter, payload: dict) -> Op:
        timed, job, size = self.daemon.client.push(meter, self.namespace, payload)
        result = (job or {}).get("result") or {}
        document = result.get("document") if isinstance(result, dict) else None
        note = _judge(timed, document, self.want_exit, self.want_holds)
        if not note and (job.get("state") != "done" or result.get("verdict") != "holds"):
            note = f"job state {job.get('state')!r}, verdict {result.get('verdict')!r}"
        return Op(timed, ok=not note, note=note, counts=self.counts_of(document or {}),
                  response_bytes=size, job=job)


class ServeEdit(_ServeBase):
    name = "serve_edit"
    max_operations = 30

    def warm_up(self, meter):
        self.edits = gen.EbgpEdits(self.sizes["ebgp_k"], self.plan, self.rng)
        return super().warm_up(meter)

    def operate(self, meter):
        return self.push(meter, dict(self.common, devices=self.edits.next()))


class ServeRerun(_ServeBase):
    name = "serve_rerun"
    max_operations = 200

    def operate(self, meter):
        return self.push(meter, dict(self.common))


WORKLOADS = {cls.name: cls for cls in
             (EbgpK4F2, OspfMcK14, OspfK16F1Loop, TransientK6D6, CliWarm, ServeEdit, ServeRerun)}
