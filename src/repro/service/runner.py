"""Process entry point for the quantile service (``repro serve``).

Owns everything process-shaped so :class:`~repro.service.server.QuantileService`
stays a pure event-loop object:

* builds the :class:`~repro.service.server.ServiceConfig` from CLI args;
* installs SIGTERM/SIGINT handlers that begin the *graceful* shutdown
  (drain queues, flush every tenant's rotating checkpoint, then exit 0)
  — SIGKILL is the crash the checkpoint chain exists to survive;
* prints a single ``READY <host> <port>`` line to stdout once recovery
  has finished and the socket is bound, so supervisors and tests can
  bind to port 0 and discover the real port without polling.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from collections.abc import Sequence

from repro.service.chaos import ChaosPlan
from repro.service.server import QuantileService, ServiceConfig
from repro.service.supervisor import (
    default_worker_count,
    rehome_checkpoints,
    serve_supervised,
)

__all__ = [
    "add_serve_parser",
    "build_config",
    "main",
    "resolve_workers",
    "run_from_args",
    "serve_forever",
]


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 = OS-assigned (printed on READY)"
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="per-tenant checkpoint chains live here (omit: in-memory only)",
    )
    parser.add_argument("--eps", type=float, default=0.01)
    parser.add_argument("--delta", type=float, default=1e-4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backend",
        choices=["python", "native"],
        default=None,
        help=(
            "kernel backend (default: $REPRO_BACKEND if set, else native "
            "when the extension is available, else python)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "worker processes sharing the port via SO_REUSEPORT "
            "(0 = one per core; 1 = classic single process)"
        ),
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        help="per-tenant token-bucket rate in requests/second (0 = off)",
    )
    parser.add_argument(
        "--rate-burst",
        type=int,
        default=0,
        help="token-bucket burst capacity (0 = derived from --rate-limit)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="pending ingest batches per tenant before shedding",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="concurrent requests before the front door sheds",
    )
    parser.add_argument(
        "--default-deadline",
        type=float,
        default=5.0,
        help="seconds granted to requests that carry no deadline_ms",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=50_000,
        help="elements between automatic per-tenant checkpoint flushes",
    )
    parser.add_argument(
        "--keep-generations",
        type=int,
        default=2,
        help="checkpoint generations kept per tenant",
    )
    parser.add_argument(
        "--shutdown-drain",
        type=float,
        default=5.0,
        help="seconds granted to queued batches at graceful shutdown",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN_JSON",
        help="deterministic fault-injection plan (tests/benchmarks only)",
    )


def build_config(args: argparse.Namespace) -> ServiceConfig:
    """The :class:`ServiceConfig` described by parsed ``serve`` args."""
    return ServiceConfig(
        host=args.host,
        port=args.port,
        checkpoint_dir=args.checkpoint_dir,
        eps=args.eps,
        delta=args.delta,
        seed=args.seed,
        backend=args.backend,
        queue_depth=args.queue_depth,
        max_inflight=args.max_inflight,
        default_deadline=args.default_deadline,
        checkpoint_interval=args.checkpoint_interval,
        keep_generations=args.keep_generations,
        shutdown_drain=args.shutdown_drain,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
    )


def resolve_workers(args: argparse.Namespace) -> int:
    """The worker count ``serve`` actually runs with.

    ``--workers 0`` (the default) means one worker per usable core.  A
    chaos plan forces a single process: chaos sequencing is a
    deterministic per-process script, and a kernel that load-balances
    connections across workers would scramble it.
    """
    workers = getattr(args, "workers", 0)
    if workers < 0:
        raise ValueError(f"--workers must be >= 0, got {workers}")
    if getattr(args, "chaos", None):
        if workers > 1:
            print(
                "# --chaos forces --workers 1 (deterministic sequencing)",
                file=sys.stderr,
                flush=True,
            )
        return 1
    return workers if workers > 0 else default_worker_count()


async def serve_forever(
    config: ServiceConfig, chaos: ChaosPlan | None = None
) -> int:
    """Run one service until a signal (or a chaos death) stops it."""
    service = QuantileService(config, chaos=chaos)
    host, port = await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, service.request_shutdown)
    print(f"READY {host} {port}", flush=True)
    if service.recovery is not None and service.recovery.restored:
        print(
            f"# recovered {len(service.recovery.restored)} tenant(s); "
            f"fallbacks={service.recovery.fallbacks or '{}'} "
            f"unrecoverable={service.recovery.unrecoverable or '[]'}",
            file=sys.stderr,
            flush=True,
        )
    await service.wait_stopped()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.service``)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Resilient multi-tenant quantile service (line/JSON protocol "
            "plus a minimal HTTP shim)"
        ),
    )
    _add_serve_arguments(parser)
    args = parser.parse_args(argv)
    return run_from_args(args)


def run_from_args(args: argparse.Namespace) -> int:
    """Shared driver for ``repro serve`` and ``python -m repro.service``."""
    chaos = ChaosPlan.from_file(args.chaos) if args.chaos else None
    config = build_config(args)
    workers = resolve_workers(args)
    try:
        if workers > 1:
            return asyncio.run(serve_supervised(config, workers))
        if config.checkpoint_dir is not None:
            # A directory last served by a multi-worker layout folds its
            # worker-*/ chains back under the root before the classic
            # single process recovers.
            rehome_checkpoints(
                config.checkpoint_dir, 1, config.keep_generations
            )
        return asyncio.run(serve_forever(config, chaos))
    except KeyboardInterrupt:
        return 0


def add_serve_parser(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    """Register the ``serve`` subcommand on the top-level repro CLI."""
    serve = sub.add_parser(
        "serve",
        help="run the resilient multi-tenant quantile service",
        description=(
            "Serve ingest/query_many/inverse_quantile/snapshot (plus "
            "health, ready, /metrics) over multi-tenant sketches with "
            "admission control, deadlines, circuit breakers, and "
            "crash-safe rotating checkpoints."
        ),
    )
    _add_serve_arguments(serve)


if __name__ == "__main__":
    raise SystemExit(main())
