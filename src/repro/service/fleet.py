"""Pre-fork fleet supervisor: ``repro serve --processes N``.

One parent process resolves the port, warms the calibration memo,
creates the shared metrics board, then forks N workers.  Each worker
runs the unchanged asyncio server
(:class:`~repro.service.server.ReproService`) with its own prediction
LRU; the on-disk result cache is the fleet's shared warm store, exactly
as for a single process:

- **Socket strategy.**  Where the kernel supports ``SO_REUSEPORT`` the
  parent binds a *placeholder* socket (bound, never listening — it
  pins the resolved port without receiving connections) and every
  worker opens its own listening socket on that port; the kernel then
  load-balances accepts across workers.  Without ``SO_REUSEPORT`` the
  parent listens once and all workers accept on the inherited socket.
- **Crash supervision.**  The parent reaps children (``waitpid``) and
  respawns a crashed worker with a small deterministic backoff; a
  worker that crash-loops (more than ``_MAX_FAST_CRASHES`` consecutive
  exits within ~1 s of spawn) makes the supervisor give up rather than
  fork-bomb.  The ``worker-exit`` fault point drives this path in the
  chaos suite.
- **Graceful drain.**  SIGINT/SIGTERM on the parent forwards SIGTERM
  to every worker; each worker stops accepting, finishes in-flight
  responses and drains its batcher before exiting.  The parent waits
  up to ``drain_timeout_s``, SIGKILLs stragglers, reaps everything —
  no orphans, no zombie sockets — then unlinks the metrics board.
- **Fleet metrics.**  Workers publish registry snapshots into the
  board; the supervisor publishes its own region (live worker count,
  spawn/respawn totals) so any worker's ``/metrics`` answer covers the
  whole fleet.

Workers exit exclusively via ``os._exit`` so a forked child never runs
the parent's atexit hooks (which would unlink shared memory out from
under its siblings).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import signal
import socket
import sys
import time

from .. import __version__
from .server import ReproService, ServiceApp, ServiceConfig
from .shm import MetricsBoard

__all__ = ["run_fleet"]

#: consecutive exits within ``_FAST_CRASH_S`` of spawn before giving up.
_MAX_FAST_CRASHES = 5
_FAST_CRASH_S = 1.0


def _bind(config: ServiceConfig):
    """Resolve the fleet's port; returns ``(placeholder, shared, port)``.

    Exactly one of ``placeholder`` (SO_REUSEPORT path: bound, not
    listening) and ``shared`` (fallback: the one listening socket all
    workers inherit) is non-None.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    reuseport = hasattr(socket, "SO_REUSEPORT")
    if reuseport:
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        except OSError:
            reuseport = False
    sock.bind((config.host, config.port))
    port = sock.getsockname()[1]
    if reuseport:
        return sock, None, port
    sock.listen(1024)
    sock.setblocking(False)
    return None, sock, port


async def _worker_amain(config: ServiceConfig, listen_sock, board) -> None:
    if listen_sock is None:
        # REUSEPORT path: this worker joins the port's listener group
        listen_sock = socket.create_server(
            (config.host, config.port), reuse_port=True, backlog=1024)
    service = ReproService(config, board=board, listen_sock=listen_sock)
    await service.start()
    service.install_signal_handlers()
    try:
        await service.serve_forever()
    finally:
        await service.stop()


def _worker_main(config: ServiceConfig, shared_sock, board,
                 placeholder) -> int:
    # clear the supervisor's handlers inherited through fork; the
    # worker's event loop installs its own graceful-drain handlers
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if placeholder is not None:
        placeholder.close()
    try:
        asyncio.run(_worker_amain(config, shared_sock, board))
    except KeyboardInterrupt:
        pass
    except Exception:  # noqa: BLE001 — worker death is supervised
        import traceback

        traceback.print_exc()
        return 1
    return 0


def run_fleet(config: ServiceConfig) -> int:
    """Blocking supervisor loop for ``repro serve --processes N``."""
    n = config.processes
    if config.warm:
        # one fit, N workers: the memo is inherited through fork
        ServiceApp.warm()
    placeholder, shared, port = _bind(config)
    config = dataclasses.replace(config, port=port, warm=False)
    board = MetricsBoard.create(n + 1)  # region n is the supervisor's

    children: dict[int, int] = {}  # pid -> worker index
    crash_streak = [0] * n
    spawn_time = [0.0] * n
    counts = {"spawned": 0, "respawns": 0}

    def spawn(index: int, *, respawn: bool = False) -> None:
        cfg = dataclasses.replace(config, worker_index=index)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _worker_main(cfg, shared, board, placeholder)
            finally:
                os._exit(code)
        children[pid] = index
        spawn_time[index] = time.monotonic()
        counts["spawned"] += 1
        if respawn:
            counts["respawns"] += 1
        print(f"fleet: worker {index} pid={pid}", flush=True)

    def publish_supervisor() -> None:
        def metric(name, help, value, kind="gauge"):
            return {"name": name, "kind": kind, "help": help,
                    "labels": [], "values": [[[], float(value)]]}

        board.publish(n, {"worker": "supervisor", "metrics": [
            metric("repro_fleet_workers",
                   "Live fleet worker processes.", len(children)),
            metric("repro_fleet_spawned_total",
                   "Worker processes forked since boot.",
                   counts["spawned"], "counter"),
            metric("repro_fleet_respawns_total",
                   "Workers respawned after a crash.",
                   counts["respawns"], "counter"),
        ]})

    stopping: dict = {"sig": None}

    def _on_signal(signum, frame):
        stopping["sig"] = signum

    previous = {sig: signal.signal(sig, _on_signal)
                for sig in (signal.SIGINT, signal.SIGTERM)}

    mode = "reuseport" if placeholder is not None else "shared-socket"
    print(f"repro.fleet {__version__} listening on "
          f"http://{config.host}:{port} (processes={n} mode={mode} "
          f"workers={config.workers} window={config.window_ms}ms "
          f"max-batch={config.max_batch} lru={config.lru_size})",
          flush=True)

    exit_code = 0
    try:
        for index in range(n):
            spawn(index)
        publish_supervisor()
        last_publish = time.monotonic()
        while stopping["sig"] is None:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pid = 0
            if pid:
                index = children.pop(pid)
                fast = (time.monotonic() - spawn_time[index]
                        < _FAST_CRASH_S)
                crash_streak[index] = crash_streak[index] + 1 if fast else 1
                code = os.waitstatus_to_exitcode(status)
                how = (f"signal {-code}" if code < 0 else f"code {code}")
                print(f"fleet: worker {index} pid={pid} exited ({how}) "
                      "— respawning", flush=True)
                if crash_streak[index] > _MAX_FAST_CRASHES:
                    print(f"fleet: worker {index} is crash-looping; "
                          "giving up", file=sys.stderr, flush=True)
                    exit_code = 1
                    break
                # deterministic backoff, proportional to the streak
                time.sleep(0.05 * crash_streak[index])
                spawn(index, respawn=True)
                publish_supervisor()
                continue
            now = time.monotonic()
            if now - last_publish >= 0.5:
                publish_supervisor()
                last_publish = now
            time.sleep(0.05)
    finally:
        # drain: TERM every worker, wait, KILL stragglers, reap all
        for pid in list(children):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + config.drain_timeout_s
        while children and time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid:
                children.pop(pid, None)
            else:
                time.sleep(0.02)
        for pid in list(children):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        while children:
            try:
                pid, _ = os.waitpid(-1, 0)
            except ChildProcessError:
                break
            children.pop(pid, None)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if placeholder is not None:
            placeholder.close()
        if shared is not None:
            shared.close()
        board.destroy()
        print("fleet: drained and stopped", flush=True)
    return exit_code
