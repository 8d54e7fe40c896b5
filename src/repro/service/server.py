"""The resilient asyncio quantile service.

One :class:`QuantileService` hosts many tenants' sketches behind the
line/JSON protocol (plus the HTTP shim) of
:mod:`repro.service.protocol`.  The robustness machinery is the point;
each mechanism lives where it can be tested in isolation and is wired
together here:

* **admission control** (:mod:`repro.service.admission`): a global
  in-flight cap plus bounded per-tenant ingest queues; a request that
  does not fit is answered ``overloaded`` with a retry hint — the
  server sheds load explicitly, never silently;
* **one event-loop pass per uncontended request**: an idle tenant's
  ingest applies inline, with no queue, task or future before the ack;
  only while the tenant is *busy* (batches queued, or its checkpoint
  being written) do ingests take the bounded queue, drained in order by
  a worker that lives as long as the backlog;
* **deadlines**: every request carries a budget that is consulted
  before an apply or queue admission, while awaiting a queued apply,
  and between per-quantile units of query work, so work that cannot
  make its deadline stops early; each socket or queue await runs under
  one ``asyncio.timeout`` scope, never a per-call ``wait_for`` task;
* **circuit breaker** (:class:`repro.service.tenants.CircuitBreaker`):
  consecutive ingest-apply failures flip a tenant to degraded-read mode
  — writes are rejected with ``circuit_open`` while reads are served
  from the last good checkpoint snapshot through
  ``merge_snapshots(strict=False)``, annotated with the coverage the
  answer actually rests on;
* **crash safety**: graceful shutdown (SIGTERM) drains the ingest
  queues (bounded) and flushes every tenant through the rotating
  checkpoint chain; boot recovery restores each tenant bit-identically
  from the newest generation whose CRC frame verifies, falling back a
  generation when the latest frame is torn;
* **chaos** (:mod:`repro.service.chaos`): a deterministic fault script
  can inject latency, connection resets, handler crashes, ingest-apply
  failures, and mid-request process death — the test suite's proof that
  every failure maps to an explicit response or a recoverable restart,
  never a wrong answer.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import contextlib
import functools
import json
import os
import time
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from typing import Any

from repro import persist
from repro.core.parallel import merge_snapshots
from repro.core.unknown_n import EstimatorSnapshot
from repro.kernels import BACKEND_ENV_VAR, available_backends
from repro.service.admission import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    Overloaded,
    RateLimited,
    TokenBucket,
)
from repro.service.chaos import ChaosCrash, ChaosPlan
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    merge_metric_payloads,
    render_payload_text,
)
from repro.service.protocol import (
    HTTP_STATUS,
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    Request,
    encode_http_response,
    encode_response,
    error_response,
    http_request_to_request,
    is_http_preamble,
    ok_response,
    parse_line,
)
from repro.service.tenants import (
    CircuitOpenError,
    RecoveryReport,
    TenantRegistry,
    TenantState,
    shard_for_tenant,
)

__all__ = [
    "IngestApplyError",
    "QuantileService",
    "ServiceConfig",
    "ShuttingDown",
    "resolve_backend",
]

#: One queued ingest: its values and the future its request awaits.
_Batch = tuple[list[float], asyncio.Future[int]]

#: Sentinel: abort the connection instead of writing a response.
_RESET = object()

#: Timeout on socket writes/drains; a peer that stops reading cannot
#: wedge a handler forever.
_WRITE_TIMEOUT_SECONDS = 30.0

#: Timeout on reading one HTTP header line / body.
_HTTP_READ_TIMEOUT_SECONDS = 30.0

#: Bound on a closing handshake.
_CLOSE_TIMEOUT_SECONDS = 5.0

#: StreamReader buffer limit: a full legal request line (the protocol's
#: MAX_LINE_BYTES) plus slack for HTTP header lines.  asyncio's default
#: is 64 KiB, far below what a max_batch ingest line legally needs.
_STREAM_LIMIT_BYTES = MAX_LINE_BYTES + 1024

#: Distinct phi tuples memoised per tenant between mutations; the cache
#: is cleared on every ingest, so this only bounds one quiet period.
_QUERY_CACHE_MAX_ENTRIES = 64

#: Ops that act on exactly one tenant's sketch and therefore must run on
#: the worker shard that owns the tenant.
_TENANT_OPS = frozenset({"ingest", "query_many", "inverse_quantile", "snapshot"})

#: Idle peer connections kept per shard in the forwarding pool; traffic
#: beyond the pool opens (and then discards) extra connections rather
#: than serialising behind one.
_PEER_POOL_MAX = 8

#: Ceiling on one peer RPC when the request's own deadline is longer.
_PEER_RPC_TIMEOUT_SECONDS = 10.0


def resolve_backend(configured: str | None) -> str | None:
    """The kernel backend the service plans tenants with.

    Explicit configuration wins; an exported ``REPRO_BACKEND`` keeps its
    degrade-with-warning semantics (pass ``None`` through so
    :func:`repro.kernels.get_backend` honours it); otherwise the service
    defaults to the native backend whenever the extension imports — the
    fastest bit-identical engine should not require opting in.
    """
    if configured is not None:
        return configured
    if os.environ.get(BACKEND_ENV_VAR):
        return None
    return "native" if "native" in available_backends() else None


class ShuttingDown(Exception):
    """The server is draining; new work is explicitly refused."""


class IngestApplyError(Exception):
    """A batch failed to apply (NaN rejection, injected fault, ...)."""


class _Handles:
    """Hot-path metric handles of one label set (an op, or a tenant),
    each resolved once instead of per call, and lazily, so the registry
    exports exactly the series some request has touched."""

    def __init__(self, registry: MetricRegistry, **labels: str) -> None:
        self._registry = registry
        self._labels = labels

    @functools.cached_property
    def requests(self) -> Counter:
        return self._registry.counter("requests_total", **self._labels)

    @functools.cached_property
    def seconds(self) -> Histogram:
        return self._registry.histogram("request_seconds", **self._labels)

    @functools.cached_property
    def breaker_open(self) -> Gauge:
        return self._registry.gauge("breaker_open", **self._labels)

    @functools.cached_property
    def cache_hits(self) -> Counter:
        return self._registry.counter("query_cache_hits_total", **self._labels)

    @functools.cached_property
    def cache_misses(self) -> Counter:
        return self._registry.counter("query_cache_misses_total", **self._labels)


@dataclass
class ServiceConfig:
    """Tunable parameters of one :class:`QuantileService`."""

    host: str = "127.0.0.1"
    port: int = 0
    checkpoint_dir: str | None = None
    eps: float = 0.01
    delta: float = 1e-4
    seed: int = 0
    backend: str | None = None
    #: Pending batches allowed per tenant before ingest sheds.
    queue_depth: int = 64
    #: Values allowed in one ingest batch.
    max_batch: int = 65_536
    #: Concurrent requests allowed past the front door.
    max_inflight: int = 256
    #: Budget (seconds) for requests that carry no ``deadline_ms``.
    default_deadline: float = 5.0
    #: Per-connection idle read timeout (seconds).
    idle_timeout: float = 300.0
    #: Elements between automatic checkpoint flushes of one tenant.
    checkpoint_interval: int = 50_000
    #: Checkpoint generations kept per tenant (>= 1).
    keep_generations: int = 2
    #: Consecutive apply failures that trip a tenant's breaker.
    breaker_threshold: int = 3
    #: Rejected ingests before an open breaker admits a probe.
    breaker_probe_after: int = 4
    #: Bound (seconds) on draining ingest queues at graceful shutdown.
    shutdown_drain: float = 5.0
    #: This process's shard in a multi-worker layout (0-based).
    shard_index: int = 0
    #: Worker shards in the layout; 1 means the classic single process.
    shard_count: int = 1
    #: Loopback peer port of every shard, indexed by shard; set by the
    #: supervisor so workers can forward mis-routed tenant ops.
    shard_ports: tuple[int, ...] = field(default_factory=tuple)
    #: Bind listening sockets with ``SO_REUSEPORT`` (the supervisor holds
    #: a non-listening reservation socket on the same address).
    reuse_port: bool = False
    #: Per-tenant token-bucket rate (requests/second); 0 disables.
    rate_limit: float = 0.0
    #: Token-bucket burst capacity; 0 derives it from the rate.
    rate_burst: int = 0


class QuantileService:
    """A multi-tenant quantile sketch server on one asyncio event loop."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        chaos: ChaosPlan | None = None,
        metrics: MetricRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.chaos = chaos
        #: The kernel backend every tenant plans with (native by default
        #: when the extension is importable; see :func:`resolve_backend`).
        self.backend = resolve_backend(self.config.backend)
        self.shard_index = self.config.shard_index
        self.shard_count = max(1, self.config.shard_count)
        self.shard_ports = tuple(self.config.shard_ports)
        if self.shard_count > 1 and len(self.shard_ports) != self.shard_count:
            raise ValueError(
                f"shard_count={self.shard_count} needs one shard port per "
                f"worker, got {len(self.shard_ports)}"
            )
        self.registry = TenantRegistry(
            self.config.checkpoint_dir,
            eps=self.config.eps,
            delta=self.config.delta,
            master_seed=self.config.seed,
            backend=self.backend,
            keep_generations=self.config.keep_generations,
            breaker_threshold=self.config.breaker_threshold,
            breaker_probe_after=self.config.breaker_probe_after,
        )
        self.recovery: RecoveryReport | None = None
        self._admission = AdmissionController(self.config.max_inflight)
        self._queues: dict[str, asyncio.Queue[_Batch]] = {}
        #: A tenant is busy while it has a draining worker or a checkpoint
        #: write in flight; only then do its ingests take the queue.
        self._workers: dict[str, asyncio.Task[None]] = {}
        self._flushing: dict[str, asyncio.Future[str]] = {}
        self._request_metrics = {op: _Handles(self.metrics, op=op) for op in OPS}
        self._tenant_metrics: dict[str, _Handles] = {}
        self._connections: set[asyncio.Task[None]] = set()
        self._server: asyncio.base_events.Server | None = None
        self._shard_server: asyncio.base_events.Server | None = None
        self._peer_pools: dict[
            int, list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]
        ] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._bound_host = self.config.host
        self._bound_port = 0
        self._request_seq = 0
        self._ready = False
        self._draining = False
        self._stopped = asyncio.Event()
        self._shutdown_started = False
        self._started_at = time.monotonic()
        self._handlers: dict[
            str, Callable[[Request, Deadline], Awaitable[dict[str, Any]]]
        ] = {op: getattr(self, f"_op_{op}") for op in OPS}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Recover tenants, bind the socket, report the bound address.

        The service answers ``ready`` only after recovery has restored
        every tenant found on disk, so a load balancer that gates on
        readiness never routes to a half-recovered process.
        """
        recovery_started = time.perf_counter()
        self.recovery = self.registry.restore_all()
        recovery_ms = (time.perf_counter() - recovery_started) * 1000.0
        self.metrics.gauge("recovery_ms").set(recovery_ms)
        self.metrics.gauge("tenants_restored").set(len(self.recovery.restored))
        self.metrics.gauge("tenants_fallback_generation").set(
            len(self.recovery.fallbacks)
        )
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=_STREAM_LIMIT_BYTES,
            reuse_port=self.config.reuse_port or None,
        )
        if self.shard_count > 1:
            # The loopback peer port: mis-routed tenant ops forwarded by
            # sibling shards arrive here.  The supervisor holds a bound,
            # non-listening SO_REUSEPORT reservation on the same port, so
            # a respawned worker re-binds the identical address.
            self._shard_server = await asyncio.start_server(
                functools.partial(self._on_connection, from_peer=True),
                "127.0.0.1",
                self.shard_ports[self.shard_index],
                limit=_STREAM_LIMIT_BYTES,
                reuse_port=True,
            )
        sockname = self._server.sockets[0].getsockname()
        self._bound_host, self._bound_port = str(sockname[0]), int(sockname[1])
        self._ready = True
        self._started_at = time.monotonic()
        return self._bound_host, self._bound_port

    def request_shutdown(self) -> None:
        """Signal-handler entry point: begin a graceful shutdown."""
        if not self._shutdown_started:
            asyncio.ensure_future(self.shutdown())

    async def shutdown(self, *, flush: bool = True) -> None:
        """Drain, flush checkpoints, close — the SIGTERM path.

        New requests are refused with ``shutting_down`` the moment this
        starts; queued ingest batches get ``shutdown_drain`` seconds to
        apply; then every tenant is checkpointed through the rotating
        chain so a subsequent boot recovers bit-identically.
        """
        if self._shutdown_started:
            await self._stopped.wait()
            return
        self._shutdown_started = True
        try:
            self._draining = True
            self._ready = False
            if self._server is not None:
                self._server.close()
            if self._shard_server is not None:
                self._shard_server.close()
            for pool in self._peer_pools.values():
                for _reader, writer in pool:
                    with contextlib.suppress(Exception):
                        writer.close()
            self._peer_pools.clear()
            drain_deadline = time.monotonic() + self.config.shutdown_drain
            while time.monotonic() < drain_deadline and any(
                not queue.empty() for queue in self._queues.values()
            ):
                await asyncio.sleep(0.01)
            workers = list(self._workers.values())
            for worker in workers:
                worker.cancel()
            if workers:
                await asyncio.gather(*workers, return_exceptions=True)
            self._workers.clear()
            if self._flushing:
                # An executor flush may still be running; wait it out so
                # the final sweep below never races an in-flight
                # checkpoint rotation.
                await asyncio.gather(
                    *list(self._flushing.values()), return_exceptions=True
                )
            if flush and self.registry.durable:
                self._flush_remaining_tenants()
            for connection in list(self._connections):
                connection.cancel()
            if self._connections:
                await asyncio.gather(
                    *self._connections, return_exceptions=True
                )
            self._connections.clear()
            for listener in (self._server, self._shard_server):
                if listener is not None:
                    with contextlib.suppress(TimeoutError):
                        async with asyncio.timeout(_CLOSE_TIMEOUT_SECONDS):
                            await listener.wait_closed()
        finally:
            # Even a shutdown that failed part-way must conclude:
            # wait_stopped()/serve loops unblock and further SIGTERMs
            # are not absorbed into a hang that only SIGKILL ends.
            self._stopped.set()

    def _flush_remaining_tenants(self) -> None:
        """Final checkpoint sweep; one bad disk write must not abort it.

        Each tenant flushes independently — a failure is counted and the
        sweep moves on, so an I/O error on one tenant's chain cannot
        leave every *other* tenant unflushed at exit.
        """
        for name in self.registry.names():
            state = self.registry.get(name)
            if state is None:
                continue
            try:
                self.registry.flush(state)
            except Exception:
                self.metrics.counter(
                    "checkpoint_flush_failures_total", tenant=name
                ).increment()
            else:
                self.metrics.counter("checkpoint_flushes_total").increment()

    async def wait_stopped(self) -> None:
        """Block until a shutdown has fully completed."""
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _on_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        from_peer: bool = False,
    ) -> None:
        """A client connection, or (``from_peer``) a sibling shard's
        forwarding connection on the loopback port.

        Peer requests are already routed: a tenant op for a tenant this
        shard does not own is answered ``shard_unavailable`` instead of
        being forwarded again, so a stale shard map can never bounce a
        request around the ring.
        """
        task = asyncio.ensure_future(
            self._handle_connection(reader, writer, from_peer=from_peer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        from_peer: bool = False,
    ) -> None:
        self.metrics.counter("connections_total").increment()
        try:
            while True:
                try:
                    async with asyncio.timeout(self.config.idle_timeout):
                        line = await reader.readline()
                except (TimeoutError, ConnectionError):
                    return
                except ValueError:
                    # readline overran the stream limit: the frame is
                    # larger than any legal request and its framing is
                    # lost — answer explicitly, then close the
                    # connection (the never-silent contract).
                    self.metrics.counter("errors_total", code="bad_request").increment()
                    overrun = error_response(
                        None,
                        "bad_request",
                        f"request line exceeds {MAX_LINE_BYTES} bytes; "
                        "split the ingest",
                    )
                    writer.write(encode_response(overrun))
                    await self._drain(writer)
                    return
                if not line:
                    return
                if is_http_preamble(line):
                    await self._handle_http(line, reader, writer)
                    return
                stripped = line.strip()
                if not stripped:
                    continue
                seq = self._next_seq()
                try:
                    request = parse_line(stripped)
                except ProtocolError as exc:
                    response: Any = error_response(None, exc.code, str(exc))
                    self.metrics.counter("errors_total", code=exc.code).increment()
                else:
                    response = await self._handle_request(
                        request, seq, from_peer=from_peer
                    )
                if response is _RESET:
                    self._abort(writer)
                    return
                writer.write(encode_response(response))
                if not await self._drain(writer):
                    return
        except asyncio.CancelledError:
            # Shutdown closes the connection under the client; the
            # client observes EOF, never a half-written frame.
            raise
        finally:
            await self._close_writer(writer)

    async def _handle_http(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        seq = self._next_seq()
        try:
            request = await self._read_http_request(first_line, reader)
        except ProtocolError as exc:
            self.metrics.counter("errors_total", code=exc.code).increment()
            payload = error_response(None, exc.code, str(exc))
            writer.write(
                encode_http_response(
                    HTTP_STATUS[exc.code], encode_response(payload)
                )
            )
            await self._drain(writer)
            return
        except (asyncio.IncompleteReadError, TimeoutError, ConnectionError):
            return
        response = await self._handle_request(request, seq)
        if response is _RESET:
            self._abort(writer)
            return
        assert isinstance(response, dict)
        if request.op == "metrics" and response.get("ok"):
            body = str(response.get("text", "")).encode("utf-8")
            payload_bytes, status, content_type = body, 200, "text/plain"
        else:
            status = 200
            if not response.get("ok"):
                status = HTTP_STATUS[response["error"]["code"]]
            elif request.op == "ready" and not response.get("ready"):
                status = 503
            payload_bytes, content_type = encode_response(response), "application/json"
        writer.write(encode_http_response(status, payload_bytes, content_type))
        await self._drain(writer)

    async def _read_http_request(
        self, first_line: bytes, reader: asyncio.StreamReader
    ) -> Request:
        try:
            method, target, _version = first_line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(
                "bad_request", f"malformed HTTP request line: {first_line!r}"
            ) from exc
        content_length = 0
        while True:
            try:
                async with asyncio.timeout(_HTTP_READ_TIMEOUT_SECONDS):
                    header = await reader.readline()
            except ValueError as exc:
                # Stream-limit overrun on an absurdly long header line.
                raise ProtocolError(
                    "bad_request", "HTTP header line exceeds the stream limit"
                ) from exc
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as exc:
                    raise ProtocolError(
                        "bad_request", f"bad Content-Length {value.strip()!r}"
                    ) from exc
                if content_length < 0 or content_length > MAX_LINE_BYTES:
                    raise ProtocolError(
                        "bad_request",
                        f"Content-Length {content_length} outside "
                        f"[0, {MAX_LINE_BYTES}]",
                    )
        body = b""
        if content_length > 0:
            async with asyncio.timeout(_HTTP_READ_TIMEOUT_SECONDS):
                body = await reader.readexactly(content_length)
        return http_request_to_request(method, target, body)

    def _abort(self, writer: asyncio.StreamWriter) -> None:
        """Chaos reset: tear the connection down with no response bytes."""
        self.metrics.counter("chaos_resets_total").increment()
        transport = writer.transport
        transport.abort()

    @staticmethod
    async def _drain(writer: asyncio.StreamWriter) -> bool:
        """Flush written bytes within the write timeout; False if the peer
        is gone or stopped reading."""
        try:
            async with asyncio.timeout(_WRITE_TIMEOUT_SECONDS):
                await writer.drain()
        except (TimeoutError, ConnectionError):
            return False
        return True

    async def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        with contextlib.suppress(Exception):
            writer.close()
            async with asyncio.timeout(_CLOSE_TIMEOUT_SECONDS):
                await writer.wait_closed()

    def _next_seq(self) -> int:
        if self.chaos is not None:
            return self.chaos.next_request_seq()
        seq = self._request_seq
        self._request_seq += 1
        return seq

    # ------------------------------------------------------------------
    # Shard routing and per-tenant rate limits
    # ------------------------------------------------------------------

    def _owning_shard(self, request: Request) -> int | None:
        """The shard a tenant op belongs on, or ``None`` when unrouted."""
        if (
            self.shard_count <= 1
            or request.op not in _TENANT_OPS
            or not request.tenant
        ):
            return None
        return shard_for_tenant(request.tenant, self.shard_count)

    def _bucket_for(self, name: str) -> TokenBucket:
        bucket = self._buckets.get(name)
        if bucket is None:
            burst = (
                self.config.rate_burst
                if self.config.rate_burst > 0
                else max(1, int(self.config.rate_limit))
            )
            bucket = self._buckets[name] = TokenBucket(
                self.config.rate_limit, burst
            )
        return bucket

    def _check_rate_limit(self, request: Request) -> dict[str, Any] | None:
        """The ``rate_limited`` response for an over-limit tenant op.

        Enforced *before* admission control so a tenant over its
        contract never consumes an in-flight slot, and only on the shard
        that owns the tenant, so the bucket is a single global budget
        rather than one budget per ingress worker.  Returns ``None``
        when the request may proceed.
        """
        if (
            self.config.rate_limit <= 0.0
            or request.op not in _TENANT_OPS
            or not request.tenant
        ):
            return None
        try:
            name = self.registry.validate_name(request.tenant)
        except ValueError:
            return None  # the handler rejects it as bad_request
        owner = self._owning_shard(request)
        if owner is not None and owner != self.shard_index:
            return None  # the owner enforces its bucket
        try:
            self._bucket_for(name).admit(name)
        except RateLimited as exc:
            self.metrics.counter("rate_limited_total", tenant=name).increment()
            self.metrics.counter("errors_total", code="rate_limited").increment()
            return error_response(
                request.request_id,
                "rate_limited",
                str(exc),
                retry_after_ms=exc.retry_after_ms,
            )
        return None

    async def _peer_rpc(
        self, shard: int, payload: dict[str, Any], deadline: Deadline
    ) -> dict[str, Any]:
        """One request/response exchange with a sibling shard.

        Connections are pooled per peer on a free list: concurrent
        forwards each pop an idle connection or open a fresh one, so
        proxy traffic never serialises behind a single socket.  Any
        failure maps to ``shard_unavailable`` — the caller's client sees
        an explicit, retryable error, never a hang.
        """
        remaining = deadline.remaining()
        timeout = (
            _PEER_RPC_TIMEOUT_SECONDS
            if remaining is None
            else min(_PEER_RPC_TIMEOUT_SECONDS, max(0.001, remaining))
        )
        pool = self._peer_pools.setdefault(shard, [])
        conn: tuple[asyncio.StreamReader, asyncio.StreamWriter] | None = None
        try:
            async with asyncio.timeout(timeout):
                if pool:
                    conn = pool.pop()
                else:
                    conn = await asyncio.open_connection(
                        "127.0.0.1",
                        self.shard_ports[shard],
                        limit=_STREAM_LIMIT_BYTES,
                    )
                reader, writer = conn
                writer.write(
                    json.dumps(payload, separators=(",", ":")).encode("utf-8")
                    + b"\n"
                )
                await writer.drain()
                line = await reader.readline()
            if not line:
                raise ConnectionError(f"shard {shard} closed the connection")
            decoded = json.loads(line)
            if not isinstance(decoded, dict):
                raise ValueError(f"shard {shard} answered a non-object frame")
        except (TimeoutError, ConnectionError, OSError, ValueError) as exc:
            if conn is not None:
                with contextlib.suppress(Exception):
                    conn[1].close()
            self.metrics.counter(
                "forward_failures_total", shard=str(shard)
            ).increment()
            raise ProtocolError(
                "shard_unavailable",
                f"worker shard {shard} did not answer: "
                f"{type(exc).__name__}: {exc}",
            ) from exc
        if len(pool) < _PEER_POOL_MAX and not self._draining:
            pool.append(conn)
        else:
            with contextlib.suppress(Exception):
                conn[1].close()
        return decoded

    async def _forward_to_shard(
        self, owner: int, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        """Proxy one mis-routed tenant op to the shard that owns it.

        The kernel's ``SO_REUSEPORT`` balancing spreads *connections*
        over workers with no knowledge of tenants, so a request can land
        anywhere; the owning worker is one loopback hop away.  The
        remaining deadline travels with the forwarded frame, and the
        peer's response (its ``id`` echo included) is returned verbatim.
        """
        payload: dict[str, Any] = {
            "op": request.op,
            "tenant": request.tenant,
            **request.args,
        }
        if request.request_id is not None:
            payload["id"] = request.request_id
        remaining = deadline.remaining()
        if remaining is not None:
            payload["deadline_ms"] = max(1.0, remaining * 1000.0)
        response = await self._peer_rpc(owner, payload, deadline)
        self.metrics.counter("forwarded_total", shard=str(owner)).increment()
        return response

    # ------------------------------------------------------------------
    # Dispatch: every failure becomes an explicit, coded response
    # ------------------------------------------------------------------

    async def _handle_request(
        self, request: Request, seq: int, *, from_peer: bool = False
    ) -> Any:
        deadline = Deadline.from_ms(
            request.deadline_ms, self.config.default_deadline
        )
        op_metrics = self._request_metrics[request.op]
        op_metrics.requests.increment()
        started = time.perf_counter()
        code: str | None = None
        limited = self._check_rate_limit(request)
        if limited is not None:
            return limited
        try:
            self._admission.admit()
        except Overloaded as exc:
            self.metrics.counter("shed_total", kind="inflight").increment()
            self.metrics.counter("errors_total", code="overloaded").increment()
            return error_response(
                request.request_id,
                "overloaded",
                str(exc),
                retry_after_ms=exc.retry_after_ms,
            )
        try:
            if self.chaos is not None:
                delay = self.chaos.take_latency(seq)
                if delay > 0.0:
                    self.metrics.counter("chaos_latency_total").increment()
                    await asyncio.sleep(delay)
                self.chaos.maybe_die(seq)
                self.chaos.maybe_crash(seq, f"op {request.op!r}")
            if self._draining and request.op not in ("health", "ready", "metrics"):
                raise ShuttingDown("server is draining for shutdown")
            owner = self._owning_shard(request)
            if owner is not None and owner != self.shard_index:
                if from_peer:
                    # Never re-forward: a forwarded request landing on
                    # the wrong shard means the maps disagree, and
                    # bouncing it onward could loop forever.
                    raise ProtocolError(
                        "shard_unavailable",
                        f"tenant {request.tenant!r} belongs to shard "
                        f"{owner}, not shard {self.shard_index}",
                    )
                response = await self._forward_to_shard(owner, request, deadline)
            else:
                handler = self._handlers[request.op]
                body = await handler(request, deadline)
                response = ok_response(request.request_id, **body)
        except ProtocolError as exc:
            code = exc.code
            response = error_response(request.request_id, code, str(exc))
        except Overloaded as exc:
            code = "overloaded"
            self.metrics.counter("shed_total", kind="queue").increment()
            response = error_response(
                request.request_id, code, str(exc), retry_after_ms=exc.retry_after_ms
            )
        except DeadlineExceeded as exc:
            code = "deadline_exceeded"
            response = error_response(request.request_id, code, str(exc))
        except CircuitOpenError as exc:
            code = "circuit_open"
            response = error_response(
                request.request_id, code, str(exc), degraded_reads=True
            )
        except IngestApplyError as exc:
            code = "ingest_failed"
            response = error_response(request.request_id, code, str(exc))
        except ShuttingDown as exc:
            code = "shutting_down"
            response = error_response(request.request_id, code, str(exc))
        except ChaosCrash as exc:
            # The injected mid-request crash: mapped, never swallowed.
            code = "internal"
            self.metrics.counter("chaos_crashes_total").increment()
            response = error_response(
                request.request_id, code, str(exc), injected=True
            )
        except ValueError as exc:
            code = "bad_request"
            response = error_response(request.request_id, code, str(exc))
        except Exception as exc:
            # Any other handler exception still maps to a coded response;
            # the connection (and the server) outlive the failure.
            code = "internal"
            self.metrics.counter("unexpected_errors_total").increment()
            response = error_response(
                request.request_id, code, f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._admission.release()
            op_metrics.seconds.record(time.perf_counter() - started)
        if code is not None:
            self.metrics.counter("errors_total", code=code).increment()
        if self.chaos is not None and self.chaos.takes_reset(seq):
            return _RESET
        return response

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------

    def _require_tenant_name(self, request: Request) -> str:
        if not request.tenant:
            raise ProtocolError(
                "bad_request", f"op {request.op!r} requires a tenant"
            )
        return self.registry.validate_name(request.tenant)

    def _require_existing_tenant(self, request: Request) -> TenantState:
        name = self._require_tenant_name(request)
        state = self.registry.get(name)
        if state is None:
            raise ProtocolError(
                "unknown_tenant", f"tenant {name!r} has no data on this server"
            )
        return state

    def _tenant_handles(self, name: str) -> _Handles:
        handles = self._tenant_metrics.get(name)
        if handles is None:
            handles = self._tenant_metrics[name] = _Handles(self.metrics, tenant=name)
        return handles

    @functools.cached_property
    def _ingested_values(self) -> Counter:
        return self.metrics.counter("ingested_values_total")

    async def _drain_queue(
        self, state: TenantState, queue: asyncio.Queue[_Batch]
    ) -> None:
        """Apply a busy tenant's queued batches in order, then exit.

        Started by the first enqueue, so an idle tenant holds no task.
        A batch is dequeued only when it can apply at once: never during
        a checkpoint write, never with a suspension before the apply.
        """
        try:
            while True:
                flushing = self._flushing.get(state.name)
                if flushing is not None:
                    await asyncio.wait((flushing,))
                    continue
                try:
                    values, future = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                try:
                    applied = self._apply_batch(state, values)
                except IngestApplyError as exc:
                    if not future.done():
                        future.set_exception(exc)
                    continue
                if not future.done():
                    future.set_result(applied)
        finally:
            self._workers.pop(state.name, None)

    def _apply_batch(self, state: TenantState, values: list[float]) -> int:
        """Apply one batch to the live estimator; the count it accepted.

        A failure raises :class:`IngestApplyError` after the breaker has
        accounted it.  A batch that crosses the checkpoint interval
        starts a background flush; the ack does not wait for it.
        """
        seq = (
            self.chaos.next_apply_seq()
            if self.chaos is not None
            else state.batches_applied
        )
        handles = self._tenant_handles(state.name)
        try:
            if self.chaos is not None:
                self.chaos.maybe_apply_crash(seq, state.name)
            state.estimator.update_batch(values)
        except Exception as exc:
            # NaN rejection is atomic (the batch did not partially apply)
            # and injected crashes never touched the estimator, so the
            # sketch is still exactly its pre-batch state: fail the
            # request explicitly and let the breaker account it.
            state.breaker.record_failure()
            self.metrics.counter(
                "ingest_failures_total", tenant=state.name
            ).increment()
            if state.breaker.state == "open":
                handles.breaker_open.set(1.0)
            raise IngestApplyError(f"{type(exc).__name__}: {exc}") from exc
        state.breaker.record_success()
        handles.breaker_open.set(0.0)
        state.batches_applied += 1
        state.since_checkpoint += len(values)
        # Eagerly drop memoised answers (the version check would catch a
        # stale read anyway; this frees the memory at mutation time).
        state.query_cache.clear()
        self._ingested_values.increment(len(values))
        if (
            self.registry.durable
            and state.since_checkpoint >= self.config.checkpoint_interval
        ):
            self._start_flush(state)
        return len(values)

    def _start_flush(self, state: TenantState) -> asyncio.Future[str]:
        """Checkpoint one tenant in the executor, off the event loop.

        The tenant stays busy until the write lands, so no batch applies
        while ``registry.flush`` serialises its estimator.  A failure
        costs freshness, not correctness: the next batch retries.
        """
        future = asyncio.get_running_loop().run_in_executor(
            None, self.registry.flush, state
        )
        self._flushing[state.name] = future

        def landed(done: asyncio.Future[str]) -> None:
            del self._flushing[state.name]
            if done.cancelled() or done.exception() is not None:
                self.metrics.counter(
                    "checkpoint_flush_failures_total", tenant=state.name
                ).increment()
            else:
                self.metrics.counter("checkpoint_flushes_total").increment()

        future.add_done_callback(landed)
        return future

    async def _flush_tenant(self, state: TenantState) -> str:
        """Checkpoint one tenant now, after any flush already in flight.

        One tenant's flushes never overlap, so its rotation chain is
        never written twice at once; the shield keeps the tracked write
        alive for shutdown even if this request is cancelled.
        """
        while (running := self._flushing.get(state.name)) is not None:
            await asyncio.wait((running,))
        return await asyncio.shield(self._start_flush(state))

    async def _op_ingest(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        name = self._require_tenant_name(request)
        raw = request.args.get("values")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                "bad_request", "ingest needs a non-empty 'values' array"
            )
        if len(raw) > self.config.max_batch:
            raise ProtocolError(
                "bad_request",
                f"batch of {len(raw)} exceeds max_batch="
                f"{self.config.max_batch}; split the ingest",
            )
        try:
            values = [float(value) for value in raw]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "bad_request", f"values must all be numbers: {exc}"
            ) from exc
        eps = request.args.get("eps")
        delta = request.args.get("delta")
        state = self.registry.get_or_create(
            name,
            eps=float(eps) if eps is not None else None,
            delta=float(delta) if delta is not None else None,
        )
        if not state.breaker.allow_ingest():
            raise CircuitOpenError(name, state.breaker.consecutive_failures)
        if name not in self._workers and name not in self._flushing:
            # Idle tenant: apply inline, in this pass of the event loop.
            deadline.check(f"applying ingest for tenant {name!r}")
            applied, pending = self._apply_batch(state, values), 0
        else:
            # Busy tenant: queue behind its backlog (or shed), in order.
            queue = self._queues.get(name)
            if queue is None:
                queue = self._queues[name] = asyncio.Queue(self.config.queue_depth)
            future: asyncio.Future[int] = asyncio.get_running_loop().create_future()
            self._admission.enqueue(
                queue, (values, future), tenant=name, deadline=deadline
            )
            if name not in self._workers:
                self._workers[name] = asyncio.ensure_future(
                    self._drain_queue(state, queue)
                )
            try:
                async with asyncio.timeout(deadline.remaining()):
                    applied = await future
            except TimeoutError:
                raise DeadlineExceeded(
                    f"deadline expired waiting for tenant {name!r} apply; the "
                    "batch may still be applied (at-least-once ingest)"
                ) from None
            pending = queue.qsize()
        return {
            "tenant": name,
            "accepted": applied,
            "n": state.n,
            "pending_batches": pending,
            "breaker": state.breaker.state,
        }

    # ------------------------------------------------------------------
    # Read path (with degraded mode)
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_phis(request: Request) -> list[float]:
        raw = request.args.get("phis")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                "bad_request", "query_many needs a non-empty 'phis' array"
            )
        try:
            return [float(phi) for phi in raw]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "bad_request", f"phis must all be numbers: {exc}"
            ) from exc

    async def _op_query_many(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        state = self._require_existing_tenant(request)
        phis = self._parse_phis(request)
        deadline.check("starting query")
        if state.breaker.state == "open":
            return self._degraded_query(state, phis, deadline)
        if state.n == 0:
            raise ProtocolError(
                "no_data", f"tenant {state.name!r} holds no elements yet"
            )
        return {
            "tenant": state.name,
            "quantiles": self._cached_query_many(state, phis, deadline),
            "n": state.n,
            "degraded": False,
        }

    def _cached_query_many(
        self, state: TenantState, phis: list[float], deadline: Deadline
    ) -> list[float]:
        """Answer a phi list, memoised per tenant between mutations.

        The engine already memoises its merged view per mutation (so a
        burst of queries pays one merge); this layer sits above it and
        skips even the binary searches when an identical phi tuple
        repeats — the common shape for dashboards polling a fixed
        quantile set.  Keyed on :meth:`TenantState.mutation_version`, so
        any ingest (staged or deposited) invalidates; the degraded read
        path never touches it.
        """
        version = state.mutation_version()
        if state.query_cache_version != version:
            state.query_cache.clear()
            state.query_cache_version = version
        key = tuple(phis)
        cached = state.query_cache.get(key)
        handles = self._tenant_handles(state.name)
        if cached is not None:
            handles.cache_hits.increment()
            return list(cached)
        handles.cache_misses.increment()
        # One batched walk over the merged view (a single native call on
        # the C backend) instead of one rank search per phi; the budget
        # is checked once up front since the batch is not interruptible.
        deadline.check(f"querying {len(phis)} phis")
        quantiles = state.estimator.query_many(phis)
        if len(state.query_cache) >= _QUERY_CACHE_MAX_ENTRIES:
            # FIFO bound: drop the oldest phi tuple (dict preserves
            # insertion order) so a scan of unique requests cannot grow
            # the cache without limit inside one quiet period.
            state.query_cache.pop(next(iter(state.query_cache)))
        state.query_cache[key] = list(quantiles)
        return quantiles

    def _degraded_query(
        self, state: TenantState, phis: list[float], deadline: Deadline
    ) -> dict[str, Any]:
        """Serve coverage-annotated answers from the last good snapshot."""
        snapshot = state.last_good_snapshot
        if snapshot is None or snapshot.n == 0:
            raise ProtocolError(
                "degraded_unavailable",
                f"tenant {state.name!r} is degraded and has no good "
                "checkpoint snapshot to serve from",
            )
        merged = merge_snapshots(
            [snapshot],
            strict=False,
            expected_n=max(state.n, snapshot.n),
            seed=self.registry.tenant_seed(f"{state.name}#degraded"),
            backend=self.backend,
        )
        quantiles: list[float] = []
        for phi in phis:
            deadline.check(f"degraded-querying phi={phi:g}")
            quantiles.append(merged.query(phi))
        report = merged.report
        assert report is not None
        self.metrics.counter(
            "degraded_reads_total", tenant=state.name
        ).increment()
        return {
            "tenant": state.name,
            "quantiles": quantiles,
            "n": state.n,
            "degraded": True,
            "coverage": report.weight_coverage,
            "as_of_n": snapshot.n,
        }

    async def _op_inverse_quantile(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        state = self._require_existing_tenant(request)
        raw = request.args.get("value")
        if raw is None or isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ProtocolError(
                "bad_request", "inverse_quantile needs a numeric 'value'"
            )
        deadline.check("starting inverse query")
        if state.breaker.state == "open":
            raise ProtocolError(
                "degraded_unavailable",
                f"tenant {state.name!r} is degraded; inverse queries need "
                "the live summary (retry after the breaker closes)",
            )
        if state.n == 0:
            raise ProtocolError(
                "no_data", f"tenant {state.name!r} holds no elements yet"
            )
        value = float(raw)
        rank = state.estimator.rank(value)
        return {
            "tenant": state.name,
            "value": value,
            "rank": rank,
            "phi": rank / state.n,
            "n": state.n,
        }

    # ------------------------------------------------------------------
    # Introspection ops
    # ------------------------------------------------------------------

    async def _op_snapshot(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        state = self._require_existing_tenant(request)
        deadline.check("building snapshot description")
        extra: dict[str, Any] = {}
        if request.args.get("persist"):
            if not self.registry.durable:
                raise ProtocolError(
                    "bad_request",
                    "persist requested but the service has no "
                    "checkpoint directory",
                )
            extra["checkpoint"] = await self._flush_tenant(state)
            extra["generations_kept"] = self.config.keep_generations
        body = self.registry.describe(state)
        body.update(extra)
        return body

    async def _op_health(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        breakers_open = sum(
            state.breaker.state == "open"
            for state in map(self.registry.get, self.registry.names())
            if state is not None
        )
        return {
            "status": "draining" if self._draining else "serving",
            "uptime_s": time.monotonic() - self._started_at,
            "tenants": len(self.registry),
            "inflight": self._admission.inflight,
            "breakers_open": breakers_open,
            "shed_total": self._admission.shed_total,
            "shard": self.shard_index,
            "workers": self.shard_count,
            "backend": self.backend,
        }

    async def _op_ready(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        recovery: dict[str, Any] = {}
        if self.recovery is not None:
            recovery = {
                "restored": len(self.recovery.restored),
                "fallbacks": dict(self.recovery.fallbacks),
                "unrecoverable": list(self.recovery.unrecoverable),
            }
        return {"ready": self._ready and not self._draining, "recovery": recovery}

    async def _op_metrics(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        if self.shard_count <= 1 or request.args.get("local"):
            return {
                "text": self.metrics.render_text(),
                "metrics": self.metrics.to_dict(),
                "shard": self.shard_index,
            }
        # Aggregated scrape: collect every sibling's registry payload and
        # merge (counters/gauges sum; histograms stay per-worker).  A
        # peer that cannot answer is reported, not silently omitted.
        payloads = {self.shard_index: self.metrics.to_dict()}
        missing: list[int] = []
        for shard in range(self.shard_count):
            if shard == self.shard_index:
                continue
            deadline.check(f"scraping worker shard {shard}")
            try:
                answer = await self._peer_rpc(
                    shard, {"op": "metrics", "local": True}, deadline
                )
            except ProtocolError:
                missing.append(shard)
                continue
            if answer.get("ok") and isinstance(answer.get("metrics"), dict):
                payloads[shard] = answer["metrics"]
            else:
                missing.append(shard)
        merged = merge_metric_payloads(payloads)
        body: dict[str, Any] = {
            "text": render_payload_text(merged),
            "metrics": merged,
        }
        if missing:
            body["shards_missing"] = missing
        return body

    # ------------------------------------------------------------------
    # Shard-aware ops
    # ------------------------------------------------------------------

    async def _op_route(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        """Where a tenant lives: smart clients connect straight to the
        owning shard's loopback port and skip the forwarding hop."""
        name = self._require_tenant_name(request)
        if self.shard_count <= 1:
            return {
                "tenant": name,
                "shard": 0,
                "workers": 1,
                "host": self._bound_host,
                "port": self._bound_port,
            }
        owner = shard_for_tenant(name, self.shard_count)
        return {
            "tenant": name,
            "shard": owner,
            "workers": self.shard_count,
            "host": "127.0.0.1",
            "port": self.shard_ports[owner],
        }

    def _local_shard_info(self) -> dict[str, Any]:
        names = self.registry.names()
        states = [self.registry.get(name) for name in names]
        total_n = sum(state.n for state in states if state is not None)
        return {
            "shard": self.shard_index,
            "pid": os.getpid(),
            "port": (
                self.shard_ports[self.shard_index]
                if self.shard_count > 1
                else self._bound_port
            ),
            "tenants": len(names),
            "n_total": total_n,
        }

    async def _op_shards(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        if self.shard_count <= 1 or request.args.get("local"):
            return {"workers": self.shard_count, "shards": [self._local_shard_info()]}
        shards: list[dict[str, Any]] = [self._local_shard_info()]
        for shard in range(self.shard_count):
            if shard == self.shard_index:
                continue
            deadline.check(f"asking worker shard {shard} for its state")
            try:
                answer = await self._peer_rpc(
                    shard, {"op": "shards", "local": True}, deadline
                )
            except ProtocolError as exc:
                shards.append({"shard": shard, "error": str(exc)})
                continue
            if answer.get("ok") and isinstance(answer.get("shards"), list):
                shards.extend(answer["shards"])
            else:
                shards.append({"shard": shard, "error": "bad peer answer"})
        shards.sort(key=lambda info: int(info.get("shard", -1)))
        return {"workers": self.shard_count, "shards": shards}

    async def _op_export_snapshots(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        """Ship locally-owned tenants' snapshots as checkpoint frames.

        Inherently local — it never forwards — so the fan-out read path
        (:meth:`_op_query_fanout`) cannot loop or deadlock through it.
        A named tenant this shard does not hold exports as ``None``.
        """
        raw = request.args.get("tenants")
        if not isinstance(raw, list) or not all(
            isinstance(name, str) for name in raw
        ):
            raise ProtocolError(
                "bad_request", "export_snapshots needs a 'tenants' name array"
            )
        snapshots: dict[str, str | None] = {}
        for name in raw:
            deadline.check(f"exporting tenant {name!r}")
            state = self.registry.get(name)
            if state is None or state.n == 0:
                snapshots[name] = None
                continue
            frame = persist.dumps(state.estimator.snapshot())
            snapshots[name] = base64.b64encode(frame).decode("ascii")
        return {"shard": self.shard_index, "snapshots": snapshots}

    async def _op_query_fanout(
        self, request: Request, deadline: Deadline
    ) -> dict[str, Any]:
        """Quantiles over the union of several tenants' streams.

        The Section 6 lossless-merge read across shards: each owning
        worker exports checkpoint-framed snapshots, this worker merges
        them (``strict=False``) and answers with the coverage the merge
        actually rests on — a missing shard degrades the answer
        explicitly instead of failing it.
        """
        phis = self._parse_phis(request)
        raw = request.args.get("tenants")
        if (
            not isinstance(raw, list)
            or not raw
            or not all(isinstance(name, str) for name in raw)
        ):
            raise ProtocolError(
                "bad_request", "query_fanout needs a non-empty 'tenants' array"
            )
        tenants = [self.registry.validate_name(name) for name in raw]
        by_shard: dict[int, list[str]] = {}
        for name in tenants:
            owner = (
                shard_for_tenant(name, self.shard_count)
                if self.shard_count > 1
                else self.shard_index
            )
            by_shard.setdefault(owner, []).append(name)
        snapshots: dict[str, EstimatorSnapshot | None] = {}
        for shard, names in sorted(by_shard.items()):
            if shard == self.shard_index:
                for name in names:
                    state = self.registry.get(name)
                    if state is None or state.n == 0:
                        snapshots[name] = None
                    else:
                        snapshots[name] = state.estimator.snapshot()
                continue
            deadline.check(f"collecting snapshots from shard {shard}")
            try:
                answer = await self._peer_rpc(
                    shard,
                    {"op": "export_snapshots", "tenants": names},
                    deadline,
                )
            except ProtocolError:
                for name in names:
                    snapshots[name] = None
                continue
            shipped = answer.get("snapshots") if answer.get("ok") else None
            if not isinstance(shipped, dict):
                shipped = {}
            for name in names:
                snapshots[name] = self._decode_snapshot(shipped.get(name))
        ordered = [snapshots.get(name) for name in tenants]
        missing = [
            name for name, snap in zip(tenants, ordered) if snap is None
        ]
        if all(snap is None for snap in ordered):
            raise ProtocolError(
                "no_data",
                f"none of {tenants!r} holds data anywhere in the layout",
            )
        deadline.check("merging fan-out snapshots")
        merged = merge_snapshots(
            ordered,
            strict=False,
            seed=self.registry.tenant_seed("#fanout"),
            backend=self.backend,
        )
        quantiles: list[float] = []
        for phi in phis:
            deadline.check(f"fan-out querying phi={phi:g}")
            quantiles.append(merged.query(phi))
        report = merged.report
        coverage = report.weight_coverage if report is not None else 1.0
        self.metrics.counter("fanout_queries_total").increment()
        return {
            "tenants": tenants,
            "quantiles": quantiles,
            "n": merged.n,
            "coverage": coverage,
            "missing": missing,
            "degraded": bool(missing),
        }

    @staticmethod
    def _decode_snapshot(encoded: Any) -> EstimatorSnapshot | None:
        if not isinstance(encoded, str):
            return None
        try:
            restored = persist.loads(base64.b64decode(encoded.encode("ascii")))
        except (persist.CheckpointError, binascii.Error, ValueError):
            return None
        return restored if isinstance(restored, EstimatorSnapshot) else None
