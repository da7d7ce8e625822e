"""Smoke test of the benchmark itself (tier-1, toy sizes, a few seconds).

It does not measure anything.  It checks that every workload still runs
through its user-visible path and answers the known verdict, that the output
obeys the benchmark contract, that ``BENCHMARK.json`` says what
``metrics.py`` declares, and that a wrong expectation is caught.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declarations():
    spec = importlib.util.spec_from_file_location("perf_metrics_declarations", PERF_DIR / "metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DECLARED = _declarations()


def _launch(workload: str, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--toy", *extra],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(process: subprocess.Popen) -> dict:
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, f"exit {process.returncode}\n{out[-2000:]}\n{err[-2000:]}"
    outcome = json.loads(out.strip().splitlines()[-1])
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(outcome["attempted"], int) and outcome["attempted"] >= 1
    assert isinstance(outcome["failed"], int)
    for name, entry in outcome["metrics"].items():
        assert set(entry) == {"value", "unit"}, name
        assert isinstance(entry["value"], (int, float)), name
    outcome["log"] = out
    return outcome


def test_manifest_is_what_the_declarations_say():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == DECLARED.manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in manifest["workloads"])
    assert all(0 < entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(entry for entry in manifest["end_to_end"] if entry["name"] == "setup_s").items()


def test_every_per_layer_metric_predicts_what_it_moves():
    end_to_end = {name for name, *_ in DECLARED.END_TO_END}
    layers_without_a_workload = {"machine", "trace"}  # validity of the run itself
    for name, _unit, better, (kind, _key), (moved, workloads) in DECLARED.PER_LAYER:
        assert better in ("lower", "higher") and kind in ("self", "total", "count", "extra"), name
        assert moved in end_to_end, name
        assert set(workloads) <= set(DECLARED.WHY), name
        assert workloads or name.split(".")[0] in layers_without_a_workload, name


def test_every_workload_answers_its_known_verdict_at_toy_size():
    running = {name: _launch(name, "--trace", "0") for name in DECLARED.WHY}
    expected = {name for name, *_ in DECLARED.END_TO_END}
    for name, process in running.items():
        outcome = _finish(process)
        assert outcome["correct"] is True and outcome["failed"] == 0, (name, outcome["log"][-1500:])
        assert set(outcome["metrics"]) == expected, name
        assert all(entry["value"] > 0 for entry in outcome["metrics"].values()), (name, outcome["metrics"])
        assert "sha256" in outcome["log"], name


@pytest.mark.parametrize("workload", ["serve_edit", "transient_k6_d6"])
def test_traced_run_reports_every_per_layer_metric(workload):
    outcome = _finish(_launch(workload, "--trace", "1"))
    assert outcome["correct"] is True, outcome["log"][-1500:]
    assert list(outcome["metrics"]) == [name for name, *_ in DECLARED.PER_LAYER]
    metrics = {name: entry["value"] for name, entry in outcome["metrics"].items()}
    assert metrics["trace.missing_targets"] == 0, outcome["log"]
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], rel=0.05) or workload == "serve_edit"
    trace = json.loads((PERF_DIR / ".build" / f"trace-{workload}.json").read_text())
    assert any(event.get("ph") == "X" for event in trace["traceEvents"])
    if workload == "serve_edit":
        assert metrics["incremental.tasks_recomputed"] == 1 and metrics["serve.run_s"] > 0
    else:
        assert metrics["transient.states_explored"] > 0 and metrics["scenarios.emitted"] > 0


def test_a_wrong_expectation_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERF_DIR))
    from harness import Timed
    from workloads import OspfK16F1Loop

    violated = Timed(exit_code=1, stdout=json.dumps({"holds": False, "states_expanded": 0}))
    known = json.loads((PERF_DIR / "expected.json").read_text())["workloads"]["ospf_k16_f1_loop"]
    assert OspfK16F1Loop(tmp_path, 7, "toy", known).judged(violated).ok
    wrong = dict(known, exit_code=0, holds=True)  # it is violated by construction
    op = OspfK16F1Loop(tmp_path, 7, "toy", wrong).judged(violated)
    assert not op.ok and op.note == "exit code 1, known answer 0"
    op = OspfK16F1Loop(tmp_path, 7, "toy", dict(known, holds=True)).judged(violated)
    assert not op.ok and op.note == "holds=False, known answer True"


def test_compare_applies_bounds_floor_and_failed_counts(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERF_DIR))
    import sweep

    def document(verdict_s, setup_s, failed=0, runs=10):
        summary = lambda value: {"median": value, "spread": 0.01}  # noqa: E731
        metrics = {"verdict_s": summary(verdict_s), "peak_rss_mb": summary(30.0), "setup_s": summary(setup_s)}
        entry = {"failed": failed, "attempted": 10, "metrics": metrics}
        path = tmp_path / f"sweep-{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps({"runs": runs, "seconds": DECLARED.RUN_SECONDS, "workloads": {"cli_warm": entry}}))
        return str(path)

    bound = {name: bound for name, _, _, bound, _ in DECLARED.END_TO_END}["verdict_s"]
    base = document(1.0, 0.0010)
    assert sweep.compare(base, document(1.0 + bound / 2, 0.0014)) == 0  # 40 % of a millisecond: under the floor
    assert sweep.compare(base, document(1.0 + bound * 1.1, 0.0010)) == 1
    assert "worse" in capsys.readouterr().out
    assert sweep.compare(document(1.0, 1.0), document(1.0, 1.3)) == 1
    assert sweep.compare(base, document(1.0, 0.0010, failed=1)) == 1
    assert sweep.compare(base, document(1.0, 0.0010, runs=5)) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail."""
    import shutil

    shutil.copytree(PERF_DIR, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "cli_warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
