"""Which functions of the shipped package the workloads reach.

    python tests/tools/reach.py run OUT -- COMMAND ...   record the calls COMMAND makes into OUT
    python tests/tools/reach.py check OUT                compare OUT with the allow-list
    python tests/tools/reach.py all OUT                  record the standard runs, then check

Every definition (function or method) in ``src/repro`` that none of the
recorded runs called must have a row in ``reach_allow.txt`` beside this
file: ``module:qualname  reason  note``, where the reason is one of
``REASONS``.  A definition that is unreached and has no row fails the
check, and so does a row that names no definition: either the function
has lost its last caller outside the tests (delete it, or move it to the
tests if they use it as a helper), or the list is out of date.

The recorder is a ``sitecustomize`` module put first on ``PYTHONPATH``.
It records every code object called, through ``sys.setprofile`` and
``threading.setprofile`` (so a daemon's handler threads count), and
writes the ones under ``src/repro`` when the process exits - at exit, or
through ``os._exit``, which is how a forked pool worker ends.  File names
are compared after ``realpath``: the examples put ``examples/../src`` on
the path.

A child that resets ``PYTHONPATH`` (the benchmark's untraced runs do)
records nothing; the traced run (``perf/run.py --trace 1``) replays the
same operations in-process.
"""

from __future__ import annotations

import argparse
import ast
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from urllib.request import urlopen
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOW_LIST = Path(__file__).resolve().parent / "reach_allow.txt"

#: Why a definition may stay unreached by every workload.
REASONS = {
    "targets": "a perf/tracing.py TARGETS name: the traced benchmark wraps it",
    "fault-path": "runs only when a worker, a task, a request or an input fails",
    "abstract": "an abstract method, a protocol default or a dunder no run calls",
    "oracle-reference": "a reference in tests/oracles/ calls it",
    "outside-input": "reads input from outside the program that no workload sends",
    "multi-prefix": "a PEC with several BGP prefixes, which no workload builds",
    "unexercised": "the package calls it (the note says where) on a path no recorded run takes",
}

WORKLOADS = ("ebgp_k4_f2", "ospf_mc_k14", "ospf_k16_f1_loop", "transient_k6_d6",
             "cli_warm", "serve_edit", "serve_rerun")

RECORDER = '''\
import os, sys, threading

_OUT = {out!r}
_PACKAGE = {package!r}
_seen = set()


def _record(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    real = {{}}
    rows = set()
    for code in list(_seen):
        path = real.get(code.co_filename)
        if path is None:
            path = real[code.co_filename] = os.path.realpath(code.co_filename)
        if path.startswith(_PACKAGE):
            rows.add(path + "\\t" + code.co_qualname + "\\n")
    name = os.path.join(_OUT, "%d-%d.txt" % (os.getpid(), id(rows)))
    with open(name, "w") as out:
        out.writelines(sorted(rows))


_exit = os._exit


def _exit_recorded(code):
    try:
        _dump()
    finally:
        _exit(code)


os._exit = _exit_recorded
import atexit
atexit.register(_dump)
threading.setprofile(_record)
sys.setprofile(_record)
'''


def _module(path: Path) -> str:
    """The dotted module name of a file under ``src``."""
    parts = path.relative_to(SRC.resolve()).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def definitions() -> Set[Tuple[str, str]]:
    """(module, qualname) of every function and method ``src/repro`` defines."""
    found: Set[Tuple[str, str]] = set()
    for path in sorted(PACKAGE.resolve().rglob("*.py")):
        module = _module(path)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.add((module, prefix + child.name))
                    visit(child, prefix + child.name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def reached(out: Path) -> Set[Tuple[str, str]]:
    """(module, qualname) of every package function the records name."""
    hits = set()
    for record in out.glob("*.txt"):
        for line in record.read_text().splitlines():
            path, qualname = line.split("\t")
            hits.add((_module(Path(path)), qualname))
    return hits


def read_allow_list(path: Path = ALLOW_LIST) -> Dict[Tuple[str, str], str]:
    """``module:qualname  reason  note`` rows -> reason; ``#`` starts a comment."""
    rows: Dict[Tuple[str, str], str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 2)
        if len(fields) < 3 or ":" not in fields[0]:
            raise ValueError(f"{path.name}:{number}: want 'module:qualname  reason  note', got {line!r}")
        module, qualname = fields[0].split(":", 1)
        if (module, qualname) in rows:
            raise ValueError(f"{path.name}:{number}: {fields[0]} is listed twice")
        rows[(module, qualname)] = fields[1]
    return rows


def problems(
    defined: Set[Tuple[str, str]], hits: Set[Tuple[str, str]], allow: Dict[Tuple[str, str], str]
) -> List[str]:
    """Every unreached definition without a row, and every row that is wrong."""
    found = []
    for module, name in sorted(defined - hits - set(allow)):
        found.append(f"unreached, no allow-list row: {module}:{name}")
    for (module, name), reason in sorted(allow.items()):
        if (module, name) not in defined:
            found.append(f"allow-list row names no definition: {module}:{name}")
        elif reason not in REASONS:
            found.append(f"allow-list row has no known reason: {module}:{name} {reason!r}")
    return found


def recording_env(out: Path) -> Dict[str, str]:
    """The environment of a recorded child: the recorder, then ``src``."""
    hook = out / "hook"
    hook.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(
        RECORDER.format(out=str(out), package=str(PACKAGE.resolve()) + os.sep))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(SRC)]))


def record(out: Path, argv: List[str], cwd: Path = ROOT, timeout: float = 1800.0) -> int:
    """Run ``argv`` with the recorder first on ``PYTHONPATH``; its exit code."""
    print("reach:", " ".join(argv), flush=True)
    return subprocess.run(argv, cwd=str(cwd), env=recording_env(out), timeout=timeout).returncode


def serve_smoke(out: Path, work: Path) -> None:
    """A daemon with the recorder, driven by the CLI client and plain GETs."""
    log = work / "serve.log"
    with open(log, "w") as sink:
        daemon = subprocess.Popen([sys.executable, "-m", "repro", "serve", "--port", "0",
                                   "--cache-dir", str(work / "cache")], cwd=str(work),
                                  env=recording_env(out),
                                  stdout=sink)
    try:
        url = ""
        for _ in range(100):
            text = log.read_text()
            if "listening on " in text:
                url = text.split("listening on ", 1)[1].split()[0]
                break
            time.sleep(0.2)
        if not url:
            raise RuntimeError("repro serve did not start")
        for argv in campus_commands(work, url):
            record(out, argv, cwd=work)
        for path in ("/v1/health", "/metrics", "/v1/namespaces", "/v1/namespaces/smoke"):
            with urlopen(url + path, timeout=30) as response:
                response.read()
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)


def campus_commands(work: Path, server: str = "") -> List[List[str]]:
    """CI's campus calls (with ``server``: its thin-client calls)."""
    topo = str(ROOT / "examples" / "configs" / "campus.topo")
    cfg = str(ROOT / "examples" / "configs" / "campus.cfg")
    edited = work / "edited.cfg"
    lines = []
    for line in Path(cfg).read_text().splitlines(keepends=True):
        lines.append(line)
        if "network 10.2.0.0/24" in line:  # CI's sed: advertise one more subnet
            lines.append("    network 10.3.0.0/24\n")
    edited.write_text("".join(lines))
    repro = [sys.executable, "-m", "repro"]
    net = ["--topology", topo, "--config", cfg]
    if server:
        remote = ["--server", server, "--namespace", "smoke"]
        return [
            repro + ["verify", *remote, *net, "--policy", "loop", "--json"],
            repro + ["diff-verify", *remote, cfg, cfg, "--topology", topo, "--policy", "loop"],
            repro + ["transient", "--server", server, "--namespace", "smoke-transient", *net,
                     "--report", str(work / "remote.md")],
        ]
    commands = [
        repro + ["pecs", *net],
        repro + ["simulate", *net],
        repro + ["simulate", *net, "--seed", "3"],
        repro + ["trace", *net, "--source", "acc0", "--destination", "10.1.0.9"],
        repro + ["verify", *net, "--policy", "loop"],
        repro + ["verify", *net, "--policy", "segmentation", "--sources", "acc0",
                 "--protected", "acc1"],
        repro + ["diff-verify", cfg, str(edited), "--topology", topo, "--policy", "loop", "--json"],
        repro + ["transient", *net],
    ]
    commands += [repro + ["transient", *net, "--por", por] for por in ("ample", "sleep", "full")]
    commands += [repro + ["transient", *net, "--scenario", scenario]
                 for scenario in ("crash:acc0", "restart:acc0", "drain:dist0", "return:dist0",
                                  "maintenance:core0", "drain-return:dist0", "flap:core0,core1",
                                  "gray:dist0,core0", "bogus:acc0")]
    commands.append(repro + ["transient", *net, "--scenario-events", "1"])
    for command in (["verify", "--policy", "loop"], ["transient"]):
        commands.append(repro + [*command, *net, "--json"])
        for report in ("out.md", "out.json"):
            commands.append(repro + [*command, *net, "--report", str(work / report)])
    return commands


def record_all(out: Path) -> None:
    """The runs the allow-list is measured against."""
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        work = Path(scratch)
        record(out, [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     str(ROOT / "benchmarks")])
        for example in sorted((ROOT / "examples").glob("*.py")):
            record(out, [sys.executable, str(example)], cwd=work)
        for argv in campus_commands(work):
            record(out, argv, cwd=work)
        serve_smoke(out, work)
        for workload in WORKLOADS:
            record(out, [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", workload,
                         "--seed", "1", "--seconds", "2", "--trace", "1"])


def report(out: Path) -> int:
    defined, hits, allow = definitions(), reached(out), read_allow_list()
    found = problems(defined, hits, allow)
    print(f"reach: {len(hits & defined)} of {len(defined)} definitions reached, "
          f"{len(allow)} allow-list rows")
    for module, name in sorted(set(allow) & hits):
        print(f"reach: note: listed but reached by this run: {module}:{name}")
    for line in found:
        print(f"reach: {line}")
    return 1 if found else 0


def main(argv: Iterable[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="record one command's calls")
    run.add_argument("out", type=Path)
    run.add_argument("argv", nargs=argparse.REMAINDER)
    check = sub.add_parser("check", help="compare the records with the allow-list")
    check.add_argument("out", type=Path)
    every = sub.add_parser("all", help="record the standard runs, then check")
    every.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.command == "run":
        command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return record(args.out, command)
    if args.command == "all":
        record_all(args.out)
    return report(args.out)


if __name__ == "__main__":
    sys.exit(main())
