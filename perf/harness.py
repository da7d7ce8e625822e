"""Measurement plumbing: calibration kernel, calibrated child runs, a daemon
handle with a one-connection HTTP client, and the small statistics used
everywhere.

Why calibration.  On the shared 2-vCPU box this benchmark was sized on, the
speed of one core drifts by +-25 % over seconds to minutes and halves for
seconds at a time (wall == child CPU time and guest steal is ~0, so it is
host-side contention).  A raw 10 s wall-clock therefore has an
inter-quartile spread of 12-30 % however it is sliced; the two cores drift
independently, so a concurrent reference on the other core does not help
either.  What does help is timing a fixed pure-Python kernel *on the same
core, right around the work*: every operation is cut into slices of at most
``SLICE_SECONDS`` (the child process is SIGSTOPped for the ~13 ms a
calibration takes; paused time is not counted), and the busy share of each
slice is divided by the kernel time measured at its two ends and multiplied
by ``NOMINAL_KERNEL_SECONDS``.  The sum is the duration in **normalised
seconds** - what the work would have taken on a machine on which the kernel
always takes 1.4 ms, which is this box in its calm phases.  Every bounded
time metric is in normalised seconds (spread 2-7 %); raw seconds are always
printed beside them.  perf/README.md has the measurements behind each choice.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Longest stretch of measured work between two calibrations.
SLICE_SECONDS = 0.25
#: Kernel executions per calibration (the median is used).
CALIBRATION_REPEATS = 9
#: The kernel's duration on the nominal machine (the sizing box, unloaded).
NOMINAL_KERNEL_SECONDS = 0.0014

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"


def say(text: str = "") -> None:
    print(text, flush=True)


# --------------------------------------------------------------------------- statistics
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (the maximum when too few values lie beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * share))
    return float(ordered[min(len(ordered), rank) - 1])


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as the acceptance rule computes it."""
    q1, q3 = quartiles(values)
    centre = statistics.median(values)
    return (q3 - q1) / centre if centre else 0.0


# --------------------------------------------------------------------------- calibration
def _kernel() -> int:
    """A fixed slab of interpreter work shaped like the verifier's own inner
    loops: tuple keys, dict read-modify-write, small-int arithmetic, str()."""
    table: Dict[Tuple[int, int], int] = {}
    total = 0
    for i in range(4000):
        key = (i & 255, i >> 3)
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + (hash(key) & 7)
    return total + sorted(table.values())[0]


def calibrate() -> float:
    """Seconds one kernel execution takes on this core right now."""
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - started)
    return median(samples)


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (children inherit) to one CPU so the calibration and
    the measured work share a core.  No-op where affinity is unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_ADDR_NO_RANDOMIZE = 0x0040000


def _personality(value: int = 0xFFFFFFFF) -> int:
    """personality(2); the default argument only queries.  -1 = unavailable."""
    try:
        return ctypes.CDLL(None, use_errno=True).personality(value)
    except (OSError, AttributeError):
        return -1


def address_space_fixed() -> bool:
    current = _personality()
    return current != -1 and bool(current & _ADDR_NO_RANDOMIZE)


def fix_address_space() -> bool:
    """Turn address-space randomisation off for whatever this process
    executes from now on; True when that changed something (the caller
    re-executes itself to be covered too).

    Objects that hash by identity are ordered by their addresses, so with
    randomisation on the program allocates and frees in another order on
    every run.  Counts and verdicts do not move, but whether glibc can trim
    the heap before the 43 MB document of ``transient_k6_d6`` is rendered
    does: its peak RSS is 205 MB on one run in four and 245 MB on the others.
    Where the kernel refuses (a seccomp profile), runs stay randomised.
    """
    current = _personality()
    if current == -1 or current & _ADDR_NO_RANDOMIZE:
        return False
    return _personality(current | _ADDR_NO_RANDOMIZE) != -1


def unpin() -> None:
    """Give the calling process every CPU back (``preexec_fn`` of helper
    children that are meant to use more than one)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, range(os.cpu_count() or 1))


def cpu_seconds(pid: int) -> Optional[float]:
    """CPU time ``pid`` (all its threads) has consumed so far, from the
    scheduler's nanosecond counters; None where /proc does not offer them."""
    try:
        total = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        return total / 1e9
    except (OSError, ValueError, IndexError):
        return None


class Meter:
    """Takes the calibrations that turn slices of wall-clock into normalised
    seconds.  (Smoothing over neighbouring calibrations was tried and made
    long operations steadier by nothing and noisier by up to 2x: the drift
    has fast components.)"""

    #: A calibration older than this is taken again before measured work.
    STALE_SECONDS = 0.02

    def __init__(self) -> None:
        self.calibrations: List[float] = []
        #: CPU seconds this process has spent calibrating (not the work's).
        self.spent = 0.0
        self.refresh()

    def refresh(self) -> None:
        cpu_started = time.process_time()
        self.calibrations.append(calibrate())
        self.spent += time.process_time() - cpu_started
        self.taken_at = time.perf_counter()

    def open(self, busy_pid: Optional[int] = None) -> None:
        """Call right before measured work starts.  ``busy_pid`` names a
        process sharing this core that must not run during a calibration."""
        if time.perf_counter() - self.taken_at > self.STALE_SECONDS:
            if busy_pid is None:
                self.refresh()
            else:
                self.pause_and_close(busy_pid, time.perf_counter(), Timed())

    def close_slice(self, seconds: float) -> Tuple[float, float]:
        """One slice that just ended: (its seconds, kernel seconds around it)."""
        before = self.calibrations[-1]
        self.refresh()
        return seconds, (before + self.calibrations[-1]) / 2.0

    def measure(self, work) -> "Timed":
        """Run ``work()`` in this process as one calibrated slice."""
        self.open()
        started, cpu_started = time.perf_counter(), time.process_time()
        work()
        timed = Timed(busy=time.process_time() - cpu_started)
        timed.slices.append(self.close_slice(time.perf_counter() - started))
        return timed

    def pause_and_close(self, pid: int, slice_started: float, timed: "Timed"):
        """SIGSTOP ``pid``, add the running slice to ``timed``, SIGCONT.

        Returns (instant the process ran again, None) - or, when the process
        had exited instead of stopping, (exit instant, (status, rusage)).
        """
        os.kill(pid, signal.SIGSTOP)
        _, status, usage = os.wait4(pid, os.WUNTRACED)
        stopped = time.perf_counter()
        timed.slices.append(self.close_slice(stopped - slice_started))
        if not os.WIFSTOPPED(status):
            return stopped, (status, usage)
        os.kill(pid, signal.SIGCONT)
        return time.perf_counter(), None


@dataclass
class Timed:
    """One measured operation: its calibrated slices of wall-clock and the
    CPU time the measured processes consumed meanwhile.

    Only busy time scales with the speed of the core; time spent waiting on
    a timer (a poll interval, a delayed TCP ACK, the interpreter's 5 ms
    switch interval) does not.  So the operation's busy share is scaled by
    the calibrations and the rest is taken as it is - without this a push
    that is 80 % waiting came out +-25 %, with it +-3 %.
    """

    busy: Optional[float] = None  #: CPU seconds; None = unknown, taken as all of it
    slices: List[Tuple[float, float]] = field(default_factory=list)
    exit_code: Optional[int] = None
    peak_rss_mb: float = 0.0
    stdout: str = ""
    error: str = ""

    @property
    def seconds(self) -> float:
        """Wall-clock, calibration pauses excluded."""
        return sum(seconds for seconds, _ in self.slices)

    @property
    def normalised(self) -> float:
        """The same in normalised seconds (module docstring)."""
        wall = self.seconds
        share = 1.0 if self.busy is None or wall <= 0 else min(1.0, self.busy / wall)
        return sum(seconds * (1.0 - share + share * NOMINAL_KERNEL_SECONDS / kernel)
                   for seconds, kernel in self.slices)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def python_cmd(*args: str) -> List[str]:
    return [sys.executable, *args]


def run_child(meter: Meter, argv: Sequence[str], cwd: Path, timeout: float = 150.0) -> Timed:
    """Run ``argv`` to completion, calibrated every ``SLICE_SECONDS``.

    SIGCHLD is blocked meanwhile so ``sigtimedwait`` can sleep until "the
    child changed state or the slice is over".  Stdout goes to a file: a
    40 MB document must not fill a pipe while the child is paused.
    """
    out_path = cwd / "stdout.txt"
    timed = Timed()
    old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGCHLD})
    try:
        with open(out_path, "wb") as out:
            meter.open()
            launched = resumed = time.perf_counter()
            child = subprocess.Popen(list(argv), cwd=str(cwd), env=child_env(), stdout=out)
            try:
                while True:
                    if signal.sigtimedwait({signal.SIGCHLD}, SLICE_SECONDS) is None:
                        if time.perf_counter() - launched > timeout and not timed.error:
                            timed.error = f"no verdict within {timeout:.0f}s"
                            child.kill()  # reaped through the exit branch below
                            continue
                        resumed, exited = meter.pause_and_close(child.pid, resumed, timed)
                        if exited is None:
                            continue
                        status, usage = exited
                    else:
                        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
                        if pid == 0:
                            continue  # a stop/continue notification, not the exit
                        timed.slices.append(meter.close_slice(time.perf_counter() - resumed))
                    child.returncode = os.waitstatus_to_exitcode(status)
                    break
            finally:
                if child.returncode is None:
                    child.kill()
                    child.wait()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
    timed.exit_code = child.returncode
    timed.busy = usage.ru_utime + usage.ru_stime
    timed.peak_rss_mb = usage.ru_maxrss / 1024.0
    timed.stdout = out_path.read_text()
    return timed


# --------------------------------------------------------------------------- daemon
class Client:
    """One keep-alive HTTP connection to a ``repro serve`` instance."""

    #: Sleep between two polls of a job.  A run-only push takes 12 ms: on a
    #: 5 ms grid the number of polls it needs flips with the speed of the
    #: machine and the spread across runs was 8-18 %; on 1 ms it is 5 %.
    POLL_SECONDS = 0.001

    def __init__(self, host: str, port: int, pause_pid: Optional[int] = None) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=60)
        #: The server process, when it is one this benchmark may pause.
        self.pause_pid = pause_pid

    def request(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, dict, int]:
        """One round trip: (status, document, bytes)."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        self.connection.request(method, path, body=data, headers=headers)
        if hasattr(socket, "TCP_QUICKACK"):
            # The daemon writes a response as two segments (headers, body) with
            # Nagle on; on a kept-alive connection the kernel delays this
            # side's ACK of the first by 40 ms and the body waits for it:
            # 80 ms of timer per push, 88 % of a run-only one.  Asking for an
            # immediate ACK (the kernel forgets the request at the next send,
            # hence here, every time) leaves the daemon's own cost to measure.
            self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        response = self.connection.getresponse()
        raw = response.read()
        try:
            document = json.loads(raw)
        except ValueError:
            document = None
        return response.status, document if isinstance(document, dict) else {}, len(raw)

    def push(self, meter: Meter, namespace: str, payload: dict, timeout: float = 120.0):
        """POST a push and poll until the job document is final.

        Returns (Timed, job document or None, response bytes).  The server
        process shares this core, so it is paused for every calibration -
        between two polls, never with a request in flight: when a slice has
        run its length, and when the verdict is in hand (whatever the server
        still has to tidy up must not compete with the kernel being timed).
        """
        timed = Timed()
        size = 0
        document: Optional[dict] = None
        error = ""
        meter.open(self.pause_pid)
        server_cpu = cpu_seconds(self.pause_pid) if self.pause_pid is not None else None
        own_cpu = time.process_time() - meter.spent
        sent = resumed = time.perf_counter()
        try:
            status, receipt, _ = self.request("POST", f"/v1/namespaces/{namespace}/push", payload)
            if status != 202 or "job" not in receipt:
                error = f"push answered {status}: {receipt.get('error', receipt)}"
            while not error:
                status, reply, size = self.request("GET", f"/v1/jobs/{receipt['job']}")
                if status != 200:
                    error = f"job poll answered {status}"
                elif reply.get("state") in ("done", "partial", "failed"):
                    document = reply
                    break
                elif time.perf_counter() - sent > timeout:
                    error = f"no verdict within {timeout:.0f}s"
                elif self.pause_pid is not None and time.perf_counter() - resumed >= SLICE_SECONDS:
                    resumed, exited = meter.pause_and_close(self.pause_pid, resumed, timed)
                    if exited is not None:
                        error = "server process exited"
                else:
                    time.sleep(self.POLL_SECONDS)
        except (OSError, http.client.HTTPException) as exc:
            error = f"{type(exc).__name__}: {exc}"
        own_cpu = time.process_time() - meter.spent - own_cpu
        if self.pause_pid is not None and error != "server process exited":
            meter.pause_and_close(self.pause_pid, resumed, timed)
            if server_cpu is not None:
                timed.busy = own_cpu + (cpu_seconds(self.pause_pid) or server_cpu) - server_cpu
        else:
            timed.slices.append(meter.close_slice(time.perf_counter() - resumed))
        timed.error = error
        return timed, document, size


class Daemon:
    """A ``python -m repro serve`` subprocess and a client connected to it."""

    def __init__(self, cwd: Path, cache_dir: Path) -> None:
        self.peak_rss_mb = 0.0
        self.shutdown_seconds = 0.0
        self.client: Optional[Client] = None
        self.log = open(cwd / "serve.log", "wb")
        self.process = subprocess.Popen(
            python_cmd("-m", "repro", "serve", "--port", "0", "--cache-dir", str(cache_dir)),
            cwd=str(cwd), env=child_env(), stdout=subprocess.PIPE, stderr=self.log,
        )
        try:
            line = self.process.stdout.readline().decode()
            if "listening on http://" not in line:
                raise RuntimeError(f"daemon did not announce its address: {line!r}")
            host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
            self.client = Client(host, int(port), pause_pid=self.process.pid)
            if self.client.request("GET", "/v1/health")[0] != 200:
                raise RuntimeError("daemon health check failed")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM, wait, record the daemon's peak RSS and shutdown time.

        The signal is repeated every second until the process is gone: sent
        right after a SIGCONT it can land on a thread other than the main
        one, which then sleeps on in ``Event.wait()`` and never runs the
        handler.
        """
        if self.process.returncode is None:
            started = time.perf_counter()
            try:
                for _ in range(30):
                    self.process.send_signal(signal.SIGTERM)
                    deadline = time.perf_counter() + 1.0
                    pid = 0
                    while pid == 0 and time.perf_counter() < deadline:
                        pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
                        time.sleep(0.005)
                    if pid:
                        break
                else:
                    self.process.kill()
                    _, status, usage = os.wait4(self.process.pid, 0)
            except ChildProcessError:  # a crashed daemon was already reaped by Client.push
                self.process.returncode = -1
            else:
                self.process.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
            self.shutdown_seconds = time.perf_counter() - started
        if self.client is not None:
            self.client.connection.close()
        self.process.stdout.close()
        self.log.close()
