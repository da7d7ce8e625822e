"""The benchmark's one command.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

``--trace 0`` (the end-to-end run): generate the workload's input files from
the seed, run its operation through the user-visible path - closed loop, one
in flight - for up to ``S`` seconds with tracing off, check every verdict
against the known answer in ``expected.json``, print every end-to-end metric.

``--trace 1`` (the traced run): replay the same inputs in-process with spans
recorded around each layer's public functions, print the per-layer table,
write ``perf/.build/trace-NAME.json`` (Chrome trace format) and print
every per-layer metric.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Everything the run writes goes under ``perf/.build/`` (which ``perf/.gitignore``
names) - apart from the byte-code ``compileall`` leaves beside the program.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys

from harness import (PERF_DIR, SRC, Meter, address_space_fixed, fix_address_space, median, percentile,
                     pin_to_one_cpu, quartile_spread, say)

SCRATCH = PERF_DIR / ".build"

#: Input generations timed per run (the median is reported).
SETUP_REPEATS = 15


def build() -> None:
    """There is nothing to compile but byte-code: do it once, up front, so
    the first measured child of a fresh checkout is not the one that pays."""
    compileall.compile_dir(str(SRC), quiet=2, workers=1)


def load_expected(name: str, scale: str) -> dict:
    """The workload's known answer and pinned counts (expected.json)."""
    document = json.loads((PERF_DIR / "expected.json").read_text())
    entry = dict(document["workloads"][name])
    if scale != "full":
        entry.pop("pins", None)  # the pinned counts describe the full-size inputs
    return entry


def end_to_end(args, workload, expected) -> dict:
    from workloads import drift, run_operations  # needs src/ on the path: imported late

    # The smoke test runs toy sizes side by side; only a measurement is pinned.
    cpu = pin_to_one_cpu() if args.scale == "full" else None
    say(f"workload {workload.name}  seed {args.seed}  scale {args.scale}  pinned to cpu {cpu}")
    say(f"address space {'fixed' if address_space_fixed() else 'randomised (peak RSS may come out in two modes)'}")

    meter = Meter()
    try:
        generations = [meter.measure(workload.prepare) for _ in range(SETUP_REPEATS)]
        warm = workload.warm_up(meter)
        for name, digest in sorted(workload.digests.items()):
            say(f"input {name} sha256 {digest}")
        say(f"setup  inputs {median([g.seconds for g in generations]):.4f} s raw (median of {SETUP_REPEATS})")
        ops = run_operations(workload.operate, meter, args.seconds, workload.max_operations)
    finally:
        workload.close()

    failed = [op for op in ops if not op.ok]
    for op in failed[:5]:
        say(f"FAILED operation: {op.note}")
    for line in drift(expected.get("pins", {}), ops[-1].counts):
        say(f"count drift  {line}")

    setup_s = median([g.normalised for g in generations]) + sum(part.normalised for part in warm)
    seconds = [op.timed.seconds for op in ops]
    normalised = [op.timed.normalised for op in ops]
    calibration_spread = quartile_spread(meter.calibrations)
    metrics = {
        "verdict_s": {"value": sum(normalised) / len(normalised), "unit": "s"},
        "peak_rss_mb": {"value": workload.peak_rss_mb(ops), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    say(f"operations {len(ops)}  failed {len(failed)}  counts {json.dumps(ops[-1].counts, sort_keys=True)}")
    say(f"raw wall-clock per operation  median {median(seconds):.4f}  min {min(seconds):.4f}  "
        f"p90 {percentile(seconds, 0.9):.4f}  max {max(seconds):.4f} s  (n={len(ops)}; not normalised)")
    say(f"normalised per operation  mean {sum(normalised) / len(normalised):.4f}  median {median(normalised):.4f}  "
        f"p90 {percentile(normalised, 0.9):.4f} s")
    say(f"machine  calib_s {median(meter.calibrations):.6f}  calib_spread {calibration_spread:.3f}  "
        f"noisy {'true' if calibration_spread > 0.15 else 'false'}")
    for key, value in sorted(workload.extras.items()):
        say(f"{key} {value:.4f}")
    for name, entry in metrics.items():
        say(f"{name} {entry['value']:.4f} {entry['unit']}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", dest="scale", action="store_const", const="toy", default="full",
                        help="smoke-test sizes (k=4 everywhere); not a measurement")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is not in this checkout ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if argv is None and (fix_address_space() or os.environ.get("PYTHONHASHSEED") != "0"):
        # The traced run executes the program in this very process: give it
        # what every child gets - the same hash seed and the same address
        # space on every run - or set orders (and with them tie-breaks, state
        # counts and heap layout) would differ from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    build()
    expected = load_expected(args.workload, args.scale)
    work = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.scale, expected)
        if args.trace:
            from trace_run import traced

            outcome = traced(args, workload, expected, SCRATCH)
        else:
            outcome = end_to_end(args, workload, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
