"""Repeat the benchmark and judge it - what the acceptance rule does, locally.

    python3 perf/sweep.py --runs 10 --out A.json [--workload NAME ...] [--history FILE]
    python3 perf/sweep.py --compare A.json B.json

A sweep makes ``--runs`` end-to-end runs of every workload (seeds 1, 2, ...;
the run length is the one ``BENCHMARK.json`` fixes), round-robin (run 1 of
every workload, then run 2, ...) so that slow drift of the machine lands on
all workloads alike.  Per metric x workload it prints the median, the
quartiles, their spread as a share of the median and the metric's bound.
``--compare`` applies the bounds to two sweeps of the same shape and prints
``better`` / ``same`` / ``worse`` / ``unresolved`` (a spread wider than the
bound) per metric x workload; it exits 1 on any ``worse`` or when B has more
failed operations than A, 2 when the two sweeps were not made alike.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

from harness import median, quartile_spread, quartiles  # noqa: E402
from metrics import END_TO_END, RUN_SECONDS, SETUP_FLOOR_SECONDS, WHY  # noqa: E402

BOUNDS = {name: (better, bound) for name, _, better, bound, _ in END_TO_END}


def fingerprint() -> dict:
    """Enough to tell two machines apart when reading a history file."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_model": model,
        "cpus": os.cpu_count(),
    }


def commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(PERF_DIR), capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def one_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=400,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout[-500:]}\n{done.stderr[-500:]}")
    result = json.loads(lines[-1])
    result["log"] = [line for line in lines[:-1] if not line.startswith("input ")]
    return result


def summarise(values: list) -> dict:
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": quartile_spread(values), "n": len(values), "values": values}


def sweep(args) -> int:
    workloads = args.workload or list(WHY)
    collected = {name: [] for name in workloads}
    for index in range(args.runs):
        for name in workloads:
            result = one_run(name, index + 1)
            collected[name].append(result)
            values = "  ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"run {index + 1}/{args.runs}  {name:18s} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {values}", flush=True)
    document = {"commit": commit(), "date": datetime.datetime.now().isoformat(timespec="seconds"),
                "fingerprint": fingerprint(), "runs": args.runs, "seconds": RUN_SECONDS, "workloads": {}}
    print()
    print(f"{'workload':18s} {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    steady = True
    for name in workloads:
        entry = {"failed": sum(r["failed"] for r in collected[name]),
                 "attempted": sum(r["attempted"] for r in collected[name]),
                 "drift": sorted({line for r in collected[name] for line in r["log"] if line.startswith("count drift")}),
                 "metrics": {}}
        for metric, (_, bound) in BOUNDS.items():
            summary = summarise([r["metrics"][metric]["value"] for r in collected[name]])
            entry["metrics"][metric] = summary
            flag = ""
            if metric != "setup_s" and summary["spread"] > bound:
                flag, steady = "  UNSTEADY (spread > bound)", False
            elif metric != "setup_s" and summary["spread"] > bound / 3:
                flag = "  wide (spread > bound/3)"
            print(f"{name:18s} {metric:18s} {summary['median']:12.4f} {summary['q1']:12.4f} "
                  f"{summary['q3']:12.4f} {summary['spread']:7.3f} {bound:6.2f}{flag}")
        if entry["failed"]:
            print(f"{name:18s} FAILED operations: {entry['failed']} of {entry['attempted']}")
        for line in entry["drift"]:
            print(f"{name:18s} {line}")
        document["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    if args.history:
        record = {key: document[key] for key in ("commit", "date", "fingerprint", "runs")}
        record["metrics"] = {name: {metric: summary["median"] for metric, summary in entry["metrics"].items()}
                             for name, entry in document["workloads"].items()}
        with open(args.history, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    return 0 if steady else 1


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("runs", "seconds"):
        if a.get(key) != b.get(key):
            print(f"error: the sweeps differ in {key} ({a.get(key)} vs {b.get(key)}): their operation "
                  f"counts, and with them peak RSS and the means, are not comparable", file=sys.stderr)
            return 2
    worse = 0
    print(f"{'workload':18s} {'metric':18s} {'A median':>12s} {'B median':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, (better, bound) in BOUNDS.items():
            first, second = entry_a["metrics"][metric], entry_b["metrics"][metric]
            change = (second["median"] - first["median"]) / first["median"]
            loss = change if better == "lower" else -change
            # Set-up of a few milliseconds wobbles by more than any share of
            # itself: below the floor a difference is not a regression.
            small = metric == "setup_s" and abs(second["median"] - first["median"]) <= SETUP_FLOOR_SECONDS
            if metric != "setup_s" and max(first["spread"], second["spread"]) > bound:
                verdict = "unresolved"
            elif loss > bound and not small:
                verdict = "worse"
                worse += 1
            elif loss < -bound and not small:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{name:18s} {metric:18s} {first['median']:12.4f} {second['median']:12.4f} "
                  f"{change:+8.1%} {bound:6.2f}  {verdict}")
        if entry_a["failed"] or entry_b["failed"]:
            more = entry_b["failed"] > entry_a["failed"]
            worse += more
            print(f"{name:18s} failed operations: A {entry_a['failed']} of {entry_a['attempted']}  "
                  f"B {entry_b['failed']} of {entry_b['attempted']}  {'worse' if more else 'same'}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=list(WHY))
    parser.add_argument("--out", help="write the sweep as JSON")
    parser.add_argument("--history", help="append one JSON line (commit, date, fingerprint, medians)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    return compare(*args.compare) if args.compare else sweep(args)


if __name__ == "__main__":
    sys.exit(main())
