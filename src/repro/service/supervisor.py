"""The multi-core serving supervisor: N workers, one port, one owner each.

One supervisor process spawns N worker processes (N = cores by default).
Every worker runs the full :class:`~repro.service.server.QuantileService`
event loop on the *same* public TCP port via ``SO_REUSEPORT`` — the
kernel load-balances incoming connections across the workers' listening
sockets, so there is no user-space proxy on the accept path.  Tenants are
deterministically shard-mapped
(:func:`repro.service.tenants.shard_for_tenant`), so every tenant's
sketch lives on exactly one worker and ingest never takes a cross-process
lock; a request that lands on the wrong worker is forwarded one loopback
hop to the owner (or a smart client asks ``route`` once and connects to
the owner's shard port directly).

The port-reservation trick: the supervisor binds the public port and one
loopback shard port per worker with ``SO_REUSEPORT`` but **never calls
listen()** on them.  A bound, non-listening socket reserves the address
(nobody else can take it) while receiving no connections (the kernel
only balances across *listening* sockets) — so the concrete port numbers
are fixed for the supervisor's lifetime and a respawned worker re-binds
exactly the address its predecessor held.

Liveness is the supervisor's other job: each worker's ``Process.sentinel``
is watched on the event loop; a crashed worker is respawned with backoff
and recovers its shard's tenants from its own rotating checkpoint chain
(`worker-<shard>/` under the checkpoint root), while the sibling workers
keep answering throughout.  Teardown reuses the pool's escalation
machinery (:func:`repro.runtime.pool.reap_processes`): SIGTERM so workers
drain and flush, then join → SIGTERM → SIGKILL so no zombie survives.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing as mp
import os
import signal
import socket
import sys
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from typing import Any

from repro.persist import checkpoint_generations, move_checkpoint_chain
from repro.runtime.pool import reap_processes
from repro.service.server import QuantileService, ServiceConfig
from repro.service.tenants import shard_for_tenant, tenant_chain_name

__all__ = [
    "ServiceSupervisor",
    "default_worker_count",
    "rehome_checkpoints",
    "serve_supervised",
]

#: Bound on one worker's boot (recovery included) before the supervisor
#: gives up on it.
_READY_TIMEOUT_SECONDS = 60.0

#: Respawn backoff: ``base * consecutive_crashes`` capped at ``max``.
_RESPAWN_BACKOFF_SECONDS = 0.5
_RESPAWN_MAX_BACKOFF_SECONDS = 5.0

#: Boot-time spawn retries before the supervisor fails outright.
_BOOT_SPAWN_ATTEMPTS = 3

_WORKER_DIR_PREFIX = "worker-"


def default_worker_count() -> int:
    """Workers to run when ``--workers`` is 0/auto: one per usable core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Checkpoint re-homing
# ----------------------------------------------------------------------

def _chains_under(directory: str) -> set[str]:
    """Tenant names with at least one chain generation in ``directory``."""
    names: set[str] = set()
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return names
    for entry in entries:
        name = tenant_chain_name(entry)
        if name is not None:
            names.add(name)
    return names


def rehome_checkpoints(root: str, workers: int, keep: int = 2) -> int:
    """Move tenant checkpoint chains into the ``workers``-wide layout.

    The single-process service keeps chains directly under ``root``; a
    ``workers > 1`` layout keeps each shard's chains under
    ``root/worker-<shard>/`` with ``shard = shard_for_tenant(name,
    workers)``.  This walks ``root`` and every ``worker-*/`` directory
    and moves each tenant's whole chain (atomic per-generation
    ``os.replace``) to wherever the *target* layout says it belongs — so
    old single-process checkpoints boot into the multi-worker layout,
    and a layout with a different worker count re-shards losslessly.
    Returns the number of tenants moved.
    """
    sources: dict[str, list[str]] = {}  # tenant -> directories holding frames
    for name in _chains_under(root):
        sources.setdefault(name, []).append(root)
    try:
        entries = os.listdir(root)
    except FileNotFoundError:
        entries = []
    for entry in sorted(entries):
        subdir = os.path.join(root, entry)
        if not entry.startswith(_WORKER_DIR_PREFIX) or not os.path.isdir(subdir):
            continue
        for name in _chains_under(subdir):
            sources.setdefault(name, []).append(subdir)
    moved = 0
    for name, src_dirs in sorted(sources.items()):
        if workers == 1:
            target_dir = root
        else:
            target_dir = os.path.join(
                root, f"{_WORKER_DIR_PREFIX}{shard_for_tenant(name, workers)}"
            )
        stem = f"tenant-{name}.ckpt"
        any_moved = False
        for src_dir in src_dirs:
            if os.path.abspath(src_dir) == os.path.abspath(target_dir):
                continue
            os.makedirs(target_dir, exist_ok=True)
            src_stem = os.path.join(src_dir, stem)
            dst_stem = os.path.join(target_dir, stem)
            if os.path.exists(dst_stem):
                # A generation already present in the *target* layout is
                # the one a worker flushed last; frames duplicated at
                # another stem (an interrupted earlier re-home) are
                # stale — merge gap generations in, drop the rest so no
                # straggler can be resurrected by a later layout change.
                for src_gen, dst_gen in zip(
                    checkpoint_generations(src_stem, keep),
                    checkpoint_generations(dst_stem, keep),
                ):
                    if not os.path.exists(src_gen):
                        continue
                    if os.path.exists(dst_gen):
                        os.remove(src_gen)
                    else:
                        os.replace(src_gen, dst_gen)
                        any_moved = True
            elif move_checkpoint_chain(src_stem, dst_stem, keep):
                any_moved = True
        if any_moved:
            moved += 1
    return moved


# ----------------------------------------------------------------------
# Worker side (module-level: spawn-safe)
# ----------------------------------------------------------------------

def _worker_main(config: ServiceConfig, conn: Connection) -> None:
    """Entry point of one worker process (spawn start method)."""
    asyncio.run(_worker_serve(config, conn))


async def _worker_serve(config: ServiceConfig, conn: Connection) -> None:
    service = QuantileService(config)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, service.request_shutdown)
    host, port = await service.start()
    recovery = service.recovery
    if recovery is not None and (recovery.restored or recovery.unrecoverable):
        print(
            f"# shard {config.shard_index} recovered "
            f"{len(recovery.restored)} tenant(s), "
            f"{len(recovery.unrecoverable)} unrecoverable",
            file=sys.stderr,
            flush=True,
        )
    # Parent-death watch: the supervisor holds its pipe end open for the
    # worker's whole life, so *any* readability here is EOF — the parent
    # is gone.  Shut down gracefully (drain + checkpoint flush), exactly
    # as on SIGTERM, so orphaned workers never linger and never lose
    # acknowledged state.
    loop.add_reader(conn.fileno(), service.request_shutdown)
    try:
        conn.send(("ready", config.shard_index, port))
    except (BrokenPipeError, OSError):
        service.request_shutdown()
    try:
        await service.wait_stopped()
    finally:
        with contextlib.suppress(OSError):
            loop.remove_reader(conn.fileno())
        with contextlib.suppress(OSError):
            conn.close()


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------

@dataclass
class _WorkerHandle:
    shard: int
    process: mp.process.BaseProcess
    conn: Connection
    port: int


class ServiceSupervisor:
    """Own the sockets, the worker processes, and their liveness."""

    def __init__(self, config: ServiceConfig, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError(
                "this platform has no SO_REUSEPORT; run with --workers 1"
            )
        self.config = config
        self.workers = workers
        self._ctx = mp.get_context("spawn")
        self._public_socket: socket.socket | None = None
        self._shard_sockets: list[socket.socket] = []
        self._public_addr = (config.host, 0)
        self.shard_ports: tuple[int, ...] = ()
        self._handles: dict[int, _WorkerHandle] = {}
        self._crashes: dict[int, int] = {}
        self._respawn_tasks: set[asyncio.Task[None]] = set()
        self._stopping = False
        self._stopped = asyncio.Event()
        self._shutdown_started = False

    # -- sockets -------------------------------------------------------

    @staticmethod
    def _reserve(host: str, port: int) -> socket.socket:
        """Bind (but never listen on) an SO_REUSEPORT address.

        The bound socket pins the concrete port for the supervisor's
        lifetime; because it does not listen, the kernel delivers every
        connection to the workers' listening sockets on the same
        address.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, port))
        except BaseException:
            sock.close()
            raise
        return sock

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Reserve ports, re-home checkpoints, boot every worker."""
        self._public_socket = self._reserve(self.config.host, self.config.port)
        bound = self._public_socket.getsockname()
        self._public_addr = (str(bound[0]), int(bound[1]))
        if self.workers > 1:
            for _ in range(self.workers):
                sock = self._reserve("127.0.0.1", 0)
                self._shard_sockets.append(sock)
            self.shard_ports = tuple(
                int(sock.getsockname()[1]) for sock in self._shard_sockets
            )
        if self.config.checkpoint_dir is not None:
            rehome_checkpoints(
                self.config.checkpoint_dir,
                self.workers,
                self.config.keep_generations,
            )
        try:
            for shard in range(self.workers):
                await self._spawn(shard, attempts=_BOOT_SPAWN_ATTEMPTS)
        except BaseException:
            await self.shutdown()
            raise
        return self._public_addr

    def request_shutdown(self) -> None:
        """Signal-handler entry point: begin the teardown."""
        if not self._shutdown_started:
            asyncio.ensure_future(self.shutdown())

    async def shutdown(self) -> None:
        """SIGTERM every worker, escalate, release the reserved ports."""
        if self._shutdown_started:
            await self._stopped.wait()
            return
        self._shutdown_started = True
        self._stopping = True
        try:
            for task in list(self._respawn_tasks):
                task.cancel()
            loop = asyncio.get_running_loop()
            handles = list(self._handles.values())
            self._handles.clear()
            for handle in handles:
                with contextlib.suppress(OSError):
                    loop.remove_reader(handle.process.sentinel)
                if handle.process.is_alive():
                    with contextlib.suppress(OSError, ValueError):
                        handle.process.terminate()
            procs = {handle.shard: handle.process for handle in handles}
            if procs:
                # join -> SIGTERM -> SIGKILL, off-loop: a wedged worker
                # costs bounded wall-clock, never a supervisor hang.
                leaked = await loop.run_in_executor(
                    None, reap_processes, procs
                )
                for shard, escalation in sorted(leaked.items()):
                    print(
                        f"# worker shard {shard} needed {escalation} at "
                        "shutdown",
                        file=sys.stderr,
                        flush=True,
                    )
            for handle in handles:
                with contextlib.suppress(OSError):
                    handle.conn.close()
        finally:
            for sock in self._shard_sockets:
                with contextlib.suppress(OSError):
                    sock.close()
            self._shard_sockets.clear()
            if self._public_socket is not None:
                with contextlib.suppress(OSError):
                    self._public_socket.close()
                self._public_socket = None
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until a shutdown has fully completed."""
        await self._stopped.wait()

    # -- workers -------------------------------------------------------

    def _worker_config(self, shard: int) -> ServiceConfig:
        checkpoint_dir = self.config.checkpoint_dir
        if checkpoint_dir is not None and self.workers > 1:
            checkpoint_dir = os.path.join(
                checkpoint_dir, f"{_WORKER_DIR_PREFIX}{shard}"
            )
        return replace(
            self.config,
            host=self._public_addr[0],
            port=self._public_addr[1],
            checkpoint_dir=checkpoint_dir,
            shard_index=shard,
            shard_count=self.workers,
            shard_ports=self.shard_ports,
            reuse_port=True,
        )

    async def _spawn(self, shard: int, attempts: int = 1) -> None:
        last_error: Exception | None = None
        for _ in range(max(1, attempts)):
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(self._worker_config(shard), child_conn),
                name=f"repro-service-worker-{shard}",
            )
            process.start()
            child_conn.close()
            try:
                port = await self._await_ready(parent_conn, shard)
            except RuntimeError as exc:
                last_error = exc
                with contextlib.suppress(OSError):
                    parent_conn.close()
                await asyncio.get_running_loop().run_in_executor(
                    None, reap_processes, {shard: process}
                )
                continue
            handle = _WorkerHandle(
                shard=shard, process=process, conn=parent_conn, port=port
            )
            self._handles[shard] = handle
            self._watch(handle)
            return
        raise RuntimeError(
            f"worker shard {shard} failed to become ready "
            f"after {attempts} attempt(s): {last_error}"
        )

    async def _await_ready(self, conn: Connection, shard: int) -> int:
        loop = asyncio.get_running_loop()
        readable: asyncio.Future[None] = loop.create_future()

        def _on_readable() -> None:
            if not readable.done():
                readable.set_result(None)

        loop.add_reader(conn.fileno(), _on_readable)
        try:
            await asyncio.wait_for(readable, timeout=_READY_TIMEOUT_SECONDS)
            message: Any = conn.recv()
        except (TimeoutError, EOFError, OSError) as exc:
            raise RuntimeError(
                f"worker shard {shard} did not report ready: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            with contextlib.suppress(OSError):
                loop.remove_reader(conn.fileno())
        if (
            not isinstance(message, tuple)
            or len(message) != 3
            or message[0] != "ready"
            or message[1] != shard
        ):
            raise RuntimeError(
                f"worker shard {shard} sent an unexpected handshake: "
                f"{message!r}"
            )
        return int(message[2])

    def _watch(self, handle: _WorkerHandle) -> None:
        loop = asyncio.get_running_loop()

        def _on_exit() -> None:
            with contextlib.suppress(OSError):
                loop.remove_reader(handle.process.sentinel)
            task = asyncio.ensure_future(self._on_worker_exit(handle))
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)

        loop.add_reader(handle.process.sentinel, _on_exit)

    async def _on_worker_exit(self, handle: _WorkerHandle) -> None:
        handle.process.join()
        code = handle.process.exitcode
        with contextlib.suppress(OSError):
            handle.conn.close()
        if self._handles.get(handle.shard) is handle:
            del self._handles[handle.shard]
        if self._stopping:
            return
        crashes = self._crashes.get(handle.shard, 0) + 1
        self._crashes[handle.shard] = crashes
        delay = min(
            _RESPAWN_MAX_BACKOFF_SECONDS, _RESPAWN_BACKOFF_SECONDS * crashes
        )
        print(
            f"# worker shard {handle.shard} exited with code {code}; "
            f"respawning in {delay:.1f}s",
            file=sys.stderr,
            flush=True,
        )
        while not self._stopping:
            await asyncio.sleep(delay)
            if self._stopping:
                return
            try:
                await self._spawn(handle.shard)
            except RuntimeError as exc:
                crashes += 1
                self._crashes[handle.shard] = crashes
                delay = min(
                    _RESPAWN_MAX_BACKOFF_SECONDS,
                    _RESPAWN_BACKOFF_SECONDS * crashes,
                )
                print(
                    f"# worker shard {handle.shard} respawn failed: {exc}; "
                    f"retrying in {delay:.1f}s",
                    file=sys.stderr,
                    flush=True,
                )
                continue
            # The worker is serving again from its own checkpoint chain;
            # the counter resets so a later, unrelated crash starts the
            # backoff ladder from the bottom.
            self._crashes[handle.shard] = 0
            return


async def serve_supervised(config: ServiceConfig, workers: int) -> int:
    """Run the supervisor until SIGTERM/SIGINT; the ``repro serve`` path.

    Prints ``READY <host> <port>`` once every worker has reported ready —
    the same handshake the single-process server prints, so launchers and
    benches need not care which layout answered.
    """
    supervisor = ServiceSupervisor(config, workers)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, supervisor.request_shutdown)
    host, port = await supervisor.start()
    print(f"READY {host} {port}", flush=True)
    await supervisor.wait_stopped()
    return 0
