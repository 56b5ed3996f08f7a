"""Child processes for the benchmark: the refbroker and `mqttprobe run`.

Every child writes its stderr to a file and its stdout to /dev/null,
never to a pipe nobody drains: a refbroker whose stderr pipe
fills blocks in logging while it holds the router lock, and then no
client gets an answer.  Every child runs under a hard deadline and is
killed if it outlives it.

CPU time comes from os.wait4.  Peak RSS does not: Linux carries the
spawning process's high-water mark across exec into the child's
ru_maxrss, so once this process has held a large trace every later
child would report at least that much.  Peak RSS is instead VmHWM from
/proc/<pid>/status, sampled every 20 ms while the child runs.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from mqttprobe import runner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HOST = "127.0.0.1"
# Longer than the refbroker's 5 s send deadline, so a stalled router
# shows as probe latency instead of as a coin-flip probe failure.
PROBE_TIMEOUT_MS = 10_000
BROKER_START_DEADLINE_S = 20.0
_LISTENING = re.compile(r"listening on [^\s]+:(\d+)")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class Exit:
    """How a child ended: exit code, wall time, CPU time and peak RSS."""

    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool


class Child:
    """A spawned process, with its peak RSS sampled until it is reaped."""

    def __init__(self, command: list[str], stderr_path: str):
        self.started = time.monotonic()
        with open(stderr_path, "wb") as err:
            self.proc = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=err,
                                         env=child_env(), cwd=ROOT)
        # Popen returns after the exec, so every sample is of the new program.
        self.peak_mb = 0.0
        self._reaped = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True,
                                         name=f"bench-rss-{self.proc.pid}")
        self._sampler.start()

    def _sample(self) -> None:
        path = f"/proc/{self.proc.pid}/status"
        while not self._reaped.is_set():
            try:
                with open(path, encoding="ascii", errors="replace") as status:
                    hwm = next((line for line in status if line.startswith("VmHWM:")), None)
            except OSError:
                return
            if hwm is None:  # a zombie has no memory lines
                return
            self.peak_mb = max(self.peak_mb, int(hwm.split()[1]) / 1024)
            self._reaped.wait(0.02)

    def poll(self) -> bool:
        """True while the child has not exited."""
        return self.proc.poll() is None

    def wait(self, deadline_s: float) -> Exit:
        """Reap with os.wait4, killing the child once ``deadline_s`` passes."""
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            try:
                self.proc.kill()
            except OSError:
                pass

        if self.proc.returncode is not None:
            # Already reaped by Popen.poll(); its CPU usage is lost.
            self._reaped.set()
            return Exit(code=self.proc.returncode, wall_s=time.monotonic() - self.started,
                        cpu_s=0.0, maxrss_mb=self.peak_mb, timed_out=False)
        timer = threading.Timer(deadline_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - self.started
        self._reaped.set()
        self._sampler.join()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return Exit(code=self.proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    maxrss_mb=self.peak_mb, timed_out=killed.is_set())


class Broker:
    """`mqttprobe serve --port 0` as a child, the README quick-start way."""

    def __init__(self, stderr_path: str):
        self.stderr_path = stderr_path
        self.child = Child([sys.executable, "-m", "mqttprobe", "serve", "--port", "0"],
                           stderr_path)
        self.endpoint: runner.Endpoint | None = None
        self.exit: Exit | None = None

    @classmethod
    def start(cls, stderr_path: str) -> Broker:
        """Spawn, read the port from stderr and wait for a first CONNACK."""
        broker = cls(stderr_path)
        try:
            broker._await_connack()
        except BaseException:
            broker.stop()
            raise
        return broker

    def _await_connack(self) -> None:
        deadline = self.child.started + BROKER_START_DEADLINE_S
        port = None
        while port is None:
            if not self.child.poll():
                raise RuntimeError(f"broker exited early; see {self.stderr_path}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"broker did not report a port; see {self.stderr_path}")
            time.sleep(0.005)
            with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as err:
                match = _LISTENING.search(err.read())
            if match:
                port = int(match.group(1))
        self.endpoint = runner.Endpoint(HOST, port, io_timeout_ms=PROBE_TIMEOUT_MS)
        while not runner.probe_liveness(self.endpoint).alive:
            if time.monotonic() > deadline:
                raise RuntimeError(f"broker never answered CONNECT; see {self.stderr_path}")
            time.sleep(0.005)

    @property
    def target(self) -> str:
        assert self.endpoint is not None
        return self.endpoint.label

    def stop(self) -> Exit:
        if self.exit is None:
            if self.child.poll():
                self.child.proc.send_signal(signal.SIGTERM)
            self.exit = self.child.wait(10.0)
        return self.exit


def run_cli(argv: list[str], stderr_path: str, deadline_s: float,
            entry: list[str] | None = None) -> Exit:
    """Run one `mqttprobe` command to completion; spawn to exit is wall_s.

    Its stdout goes to /dev/null: callers read the --output report.
    ``entry`` replaces the default ``python -m mqttprobe`` launcher, as
    the traced run does.
    """
    command = [sys.executable] + (entry or ["-m", "mqttprobe"]) + argv
    return Child(command, stderr_path).wait(deadline_s)
