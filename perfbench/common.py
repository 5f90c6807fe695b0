"""Shared helpers: the host speed probe, the run's working directory,
memory, and the subprocesses a run starts."""

from __future__ import annotations

import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

#: The checkout root (the parent of this package's directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The program under test, imported from source.
SRC = os.path.join(ROOT, "src")
#: Per-run working space inside the checkout (listed in .gitignore).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    """A wrong answer, an unreconciled count or a broken set-up."""


#: Iterations of the speed probe's loop, and the CPU seconds one probe
#: took on a shared 2-CPU VM in a quiet period.  On that VM the same
#: pure-Python loop ran at 35 and at 67 rounds/s a few minutes apart, in
#: CPU time as much as in wall time, and every workload's figures moved
#: with it.
PROBE_LOOPS = 50_000
REFERENCE_PROBE_S = 0.0025


def probe_s() -> float:
    """CPU seconds the fixed pure-Python probe loop takes now: the mean
    over the CPUs this process may use of the median of 5 loops pinned to
    each.  On a shared 2-CPU VM the two CPUs' speeds moved independently
    of each other (correlation 0.1), so one CPU's probe says little about
    the other, where a server or a pool worker may be running.  CPU time,
    not wall time: a probe that waits for a CPU says nothing about the
    speed of the CPU it then gets."""
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(5):
                start = time.thread_time()
                total = 0
                for i in range(PROBE_LOOPS):
                    total += i * i
                times.append(time.thread_time() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(per_cpu)


class ReferenceClock:
    """Converts seconds (wall or CPU) into reference seconds: the time the
    work would have taken at the reference speed.

    The host's speed is probed before and after each timed segment, while
    the program is idle; a segment's scale is the reference probe time
    over the mean of its two probes.  A slower program still reads
    slower, a host that slows everything down for a while does not.
    """

    def __init__(self) -> None:
        self.last = probe_s()
        self.probes = [self.last]

    def scale(self) -> float:
        """Probe again; the scale of the segment that just ended."""
        now = probe_s()
        factor = REFERENCE_PROBE_S / ((self.last + now) / 2.0)
        self.last = now
        self.probes.append(now)
        return factor

    def speed(self) -> float:
        """Median host speed over the run (reference = 1)."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)


def make_workdir(tag: str) -> str:
    """A fresh working directory; the caller ``chdir``s into it so every
    socket path stays short and relative."""
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env(workdir: str) -> Dict[str, str]:
    """Environment of every subprocess: the source tree on the path and
    temporary files kept inside the run's directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pid_cpu_s(pid: int) -> float:
    """CPU seconds of a live process, all its threads, to the nanosecond.

    Linux names the CPU clock of process ``pid`` ``(~pid << 3) | 2``
    (``CPUCLOCK_SCHED``); ``/proc/<pid>/stat`` counts in 10 ms ticks,
    too coarse for a chunk of a tenth of a second."""
    return time.clock_gettime(((~pid) << 3) | 2)


def live_cpu_s(pids) -> float:
    """Summed CPU seconds of those of ``pids`` that are still running."""
    total = 0.0
    for pid in pids:
        try:
            total += pid_cpu_s(pid)
        except OSError:
            pass
    return total


def _accepts(path: str) -> bool:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        try:
            probe.connect(path)
        except OSError:
            return False
    return True


class Server:
    """One server subprocess started through :mod:`launch`.

    It shares the caller's working directory, so the relative socket
    paths both sides use stay short.
    """

    def __init__(self, workdir: str, kind: str, args: List[str], *,
                 trace_dir: Optional[str] = None, log_name: str = "server"):
        command = [sys.executable, os.path.join(HERE, "launch.py")]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        command += [kind, "--"] + args
        self.log_path = os.path.join(workdir, f"{log_name}.log")
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, env=child_env(workdir),
            stdout=self._log, stderr=subprocess.STDOUT)

    def wait_for_socket(self, path: str, timeout: float = 60.0) -> None:
        """Block until the server accepts connections on ``path``."""
        deadline = time.monotonic() + timeout
        while not _accepts(path):
            if self.process.poll() is not None:
                raise BenchError(f"server exited with {self.process.returncode}"
                                 f" before binding; see {self.log_path}")
            if time.monotonic() > deadline:
                raise BenchError(f"server did not bind {path} in {timeout}s")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.process.pid)

    def cpu_s(self) -> float:
        return pid_cpu_s(self.process.pid)

    def stop(self, timeout: float = 20.0) -> None:
        """SIGINT (clean shutdown, trace written), then SIGKILL."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout)
        self._log.close()
