"""Subprocess harness for fleet tests: a real ``repro serve --processes N``.

The in-process :class:`~repro.service.server.ServiceThread` cannot
exercise fork/SO_REUSEPORT/signal behaviour, so fleet tests drive the
actual CLI in a child process, parse the supervisor's banner and
``fleet: worker i pid=...`` lines for the port and worker pids, and
assert on real process state (liveness, respawn, exit codes).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_BANNER_RE = re.compile(r"listening on http://[\d.]+:(\d+)")
_WORKER_RE = re.compile(r"fleet: worker (\d+) pid=(\d+)$")


class FleetProc:
    """One supervised ``repro serve`` fleet as a subprocess."""

    def __init__(self, processes: int = 2, *, args: tuple = (),
                 env: dict | None = None):
        self.processes = processes
        self.extra_args = list(args)
        self.extra_env = dict(env or {})
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        #: worker index -> current pid (updated on respawn lines)
        self.workers: dict[int, int] = {}
        #: every line the supervisor printed, in order
        self.lines: list[str] = []
        self._lock = threading.Lock()
        self._reader: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self, timeout: float = 60.0) -> "FleetProc":
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.update(self.extra_env)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--processes", str(self.processes), "--no-warm",
             *self.extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                ready = (self.port is not None
                         and len(self.workers) >= self.processes)
            if ready:
                break
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "fleet exited during boot:\n" + "\n".join(self.lines))
            time.sleep(0.02)
        else:
            raise TimeoutError(
                "fleet did not become ready:\n" + "\n".join(self.lines))
        # the supervisor names workers at fork time, before their
        # listening sockets exist — wait until a connection is accepted
        import socket

        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", self.port),
                                         timeout=2).close()
                return self
            except OSError:
                time.sleep(0.05)
        raise TimeoutError(
            "fleet never accepted a connection:\n" + "\n".join(self.lines))

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            with self._lock:
                self.lines.append(line)
                m = _BANNER_RE.search(line)
                if m:
                    self.port = int(m.group(1))
                m = _WORKER_RE.search(line)
                if m:
                    self.workers[int(m.group(1))] = int(m.group(2))

    # ------------------------------------------------------------------
    def worker_pids(self) -> dict[int, int]:
        with self._lock:
            return dict(self.workers)

    def wait_respawn(self, index: int, old_pid: int,
                     timeout: float = 30.0) -> int:
        """Block until worker ``index`` runs under a pid != ``old_pid``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pid = self.worker_pids().get(index)
            if pid is not None and pid != old_pid:
                return pid
            time.sleep(0.05)
        raise TimeoutError(
            f"worker {index} not respawned:\n" + "\n".join(self.lines))

    def send(self, sig: int) -> None:
        assert self.proc is not None
        self.proc.send_signal(sig)

    def wait(self, timeout: float = 30.0) -> int:
        assert self.proc is not None
        code = self.proc.wait(timeout)
        if self._reader is not None:
            self._reader.join(5.0)
        return code

    def stop(self, timeout: float = 30.0) -> int:
        """Graceful shutdown; returns the supervisor's exit code."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.send(signal.SIGTERM)
        return self.wait(timeout)

    # ------------------------------------------------------------------
    def __enter__(self) -> "FleetProc":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self.proc is not None and self.proc.poll() is None:
            try:
                self.stop()
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10.0)


def raw_request(port: int, method: str, path: str, body: bytes = b"",
                host: str = "127.0.0.1",
                timeout: float = 30.0) -> tuple[int, bytes]:
    """One fresh-connection HTTP exchange returning the raw body bytes.

    A fresh connection per call matters against a fleet: SO_REUSEPORT
    balances at accept time, so new connections spread across workers
    while a keep-alive one would pin to whichever worker accepted it.
    """
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        head = (f"{method} {path} HTTP/1.1\r\nHost: fleet-test\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
        sock.sendall(head.encode() + body)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    if not data:
        raise ConnectionError("connection dropped before a response")
    headers, _, payload = data.partition(b"\r\n\r\n")
    return int(headers.split()[1]), payload


def metric_value(text: str, name: str, labels: str = "") -> float | None:
    """The value of one exposition line, or None when absent."""
    needle = f"{name}{labels} "
    for line in text.splitlines():
        if line.startswith(needle):
            return float(line.rsplit(" ", 1)[1])
    return None


def metric_total(text: str, name: str) -> float:
    """The sum of every labelled series of one metric."""
    return sum(float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
               if line.startswith((f"{name}{{", f"{name} ")))


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def wait_dead(pids, timeout: float = 15.0) -> bool:
    """True once every pid in ``pids`` is gone."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(pid_alive(p) for p in pids):
            return True
        time.sleep(0.05)
    return False
