"""Command-line interface: ``python -m repro <command>``.

Three commands mirror the library's main uses:

* ``quantile`` — stream numbers from a file (or stdin) through the
  unknown-N estimator and print the requested quantiles.
* ``plan`` — show the memory plan for an (eps, delta) pair, optionally
  next to the known-N plan for a given n (the Table 1 comparison).
* ``histogram`` — equi-depth bucket boundaries of a numeric stream.

Examples::

    seq 1 1000000 | python -m repro quantile --eps 0.01 --phi 0.5 --phi 0.99
    python -m repro plan --eps 0.001 --delta 1e-4 --n 1000000000
    python -m repro histogram --buckets 10 values.txt
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.core.known_n import KnownNQuantiles  # noqa: F401  (re-exported intent)
from repro.core.multi import MultiQuantiles
from repro.core.params import plan_known_n, plan_parameters
from repro.core.unknown_n import UnknownNQuantiles
from repro.kernels import BackendUnavailableError, available_backends, is_nan

if TYPE_CHECKING:
    from repro.runtime import PoolResult

__all__ = ["main"]

#: Parsed values per bulk-ingest chunk (matches the disk-file chunk size).
INGEST_CHUNK = 65_536


class _InputError(Exception):
    """A malformed input token, located for the user (file:line token)."""


def _read_value_chunks(
    path: str | None, chunk_values: int = INGEST_CHUNK
) -> Iterator[list[float]]:
    """Whitespace-separated floats from a file (or stdin), in bulk chunks.

    Chunks feed the estimators' ``update_batch`` (one RNG draw per
    sampling block) instead of boxing
    every value through a scalar ``update``.  Malformed tokens raise
    :class:`_InputError` naming the offending token and its line number
    instead of surfacing a raw ``float()`` traceback; NaN tokens are
    rejected here too (they have no rank downstream).
    """
    stream = open(path, encoding="utf-8") if path else sys.stdin  # noqa: SIM115
    source = path if path else "<stdin>"
    chunk: list[float] = []
    try:
        for lineno, line in enumerate(stream, start=1):
            for token in line.split():
                try:
                    value = float(token)
                except ValueError:
                    raise _InputError(
                        f"{source}:{lineno}: {token!r} is not a number"
                    ) from None
                if is_nan(value):
                    raise _InputError(
                        f"{source}:{lineno}: {token!r} is NaN, which has no "
                        "rank and cannot be summarised"
                    )
                chunk.append(value)
                if len(chunk) == chunk_values:
                    yield chunk
                    chunk = []
        if chunk:
            yield chunk
    finally:
        if path:
            stream.close()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Space-efficient online quantiles "
            "(Manku, Rajagopalan & Lindsay, SIGMOD 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quantile = sub.add_parser(
        "quantile", help="approximate quantiles of a numeric stream"
    )
    quantile.add_argument("file", nargs="?", help="input file (default: stdin)")
    quantile.add_argument("--eps", type=float, default=0.01)
    quantile.add_argument("--delta", type=float, default=1e-4)
    quantile.add_argument(
        "--phi",
        type=float,
        action="append",
        help="quantile(s) to report (repeatable; default: 0.5)",
    )
    quantile.add_argument("--seed", type=int, default=None)
    quantile.add_argument(
        "--backend",
        choices=["python", "native"],
        default=None,
        help="kernel backend (default: $REPRO_BACKEND, else python)",
    )
    _add_parallel_arguments(quantile)

    plan = sub.add_parser("plan", help="memory plan for (eps, delta)")
    plan.add_argument("--eps", type=float, required=True)
    plan.add_argument("--delta", type=float, default=1e-4)
    plan.add_argument(
        "--n", type=int, default=None, help="also show the known-N plan for this n"
    )

    histogram = sub.add_parser(
        "histogram", help="equi-depth bucket boundaries of a numeric stream"
    )
    histogram.add_argument("file", nargs="?", help="input file (default: stdin)")
    histogram.add_argument("--buckets", type=int, default=10)
    histogram.add_argument("--eps", type=float, default=0.005)
    histogram.add_argument("--delta", type=float, default=1e-4)
    histogram.add_argument("--seed", type=int, default=None)
    histogram.add_argument(
        "--backend",
        choices=["python", "native"],
        default=None,
        help="kernel backend (default: $REPRO_BACKEND, else python)",
    )
    _add_parallel_arguments(histogram)

    analyze = sub.add_parser(
        "analyze",
        help="replint: the repo's invariant-aware static analysis gates",
        description=(
            "Run the replint passes (determinism, spawn-safety, "
            "float-discipline, api-hygiene) over source trees; "
            "the same engine as `python -m repro.analysis`."
        ),
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        help="files/directories (default: [tool.replint] default-paths)",
    )
    analyze.add_argument(
        "--format",
        choices=["human", "json", "sarif"],
        default="human",
        help="report renderer (default: human)",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="alias for --format json (kept for compatibility)",
    )
    analyze.add_argument(
        "--select",
        action="append",
        metavar="PASS[,PASS...]",
        help="run only the named passes (repeatable and/or "
        "comma-separated)",
    )
    analyze.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress findings recorded in FILE; fail only on new ones",
    )
    analyze.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="record the current findings to FILE and exit 0",
    )
    analyze.add_argument(
        "--config",
        metavar="PYPROJECT",
        default=None,
        help="pyproject.toml to read [tool.replint] from",
    )
    analyze.add_argument(
        "--list-passes",
        action="store_true",
        help="list registered passes and their finding codes, then exit",
    )

    from repro.service.runner import add_serve_parser

    add_serve_parser(sub)
    return parser


def _add_parallel_arguments(subparser: argparse.ArgumentParser) -> None:
    """The shared parallel-ingest flags of the streaming commands."""
    subparser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "ingest with N parallel worker processes (Section 6 on real "
            "processes); with --float64 each worker scans its own byte "
            "range of the file, otherwise parsed values are striped "
            "across workers in chunks"
        ),
    )
    subparser.add_argument(
        "--float64",
        action="store_true",
        help=(
            "treat the input file as packed little-endian float64 records "
            "(the repro.streams.diskfile format) instead of whitespace-"
            "separated text"
        ),
    )
    subparser.add_argument(
        "--start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method (default: platform default)",
    )


class _EmptyInput(Exception):
    """The input stream held no values at all."""


def _pool_ingest(args: argparse.Namespace, num_quantiles: int) -> PoolResult:
    """Run the multi-process ingest pool for a streaming command.

    Returns a :class:`repro.runtime.PoolResult`; raises :class:`_InputError`
    on malformed text, :class:`_EmptyInput` when there is nothing to
    summarise, and lets backend/worker errors propagate to the caller.
    """
    from repro.core.params import plan_parameters as _plan
    from repro.runtime import run_pool_on_file, run_pool_on_stream
    from repro.streams.diskfile import count_floats

    if args.workers < 1:
        raise _InputError(f"--workers must be >= 1, got {args.workers}")
    plan = _plan(args.eps, args.delta, num_quantiles=num_quantiles)
    if args.float64:
        if not args.file:
            raise _InputError(
                "--float64 needs a file path (stdin is text-only)"
            )
        if count_floats(args.file) == 0:
            raise _EmptyInput
        return run_pool_on_file(
            args.file,
            args.workers,
            plan=plan,
            seed=args.seed,
            backend=args.backend,
            start_method=args.start_method,
        )
    chunks = _read_value_chunks(args.file)
    try:
        first = next(chunks)
    except StopIteration:
        raise _EmptyInput from None
    values = (
        value
        for chunk in _chain_chunks(first, chunks)
        for value in chunk
    )
    return run_pool_on_stream(
        values,
        args.workers,
        plan=plan,
        seed=args.seed,
        backend=args.backend,
        start_method=args.start_method,
    )


def _chain_chunks(
    first: list[float], rest: Iterator[list[float]]
) -> Iterator[list[float]]:
    yield first
    yield from rest


def _pool_footer(args: argparse.Namespace, result: PoolResult) -> str:
    """The stderr summary line of a parallel run."""
    coverage = result.report.weight_coverage
    return (
        f"# n={result.n}  workers={args.workers} "
        f"({result.start_method})  "
        f"rate={result.elements_per_second:,.0f} elems/s  "
        f"shipped={result.shipped_bytes} bytes "
        f"({result.report.shipped_buffers} buffers)  "
        f"merge={result.merge_seconds * 1000:.1f} ms  "
        f"coverage={coverage:.3f}"
    )


def _cmd_quantile(args: argparse.Namespace) -> int:
    phis = sorted(set(args.phi)) if args.phi else [0.5]
    if args.workers is not None:
        return _cmd_quantile_parallel(args, phis)
    try:
        estimator = UnknownNQuantiles(
            args.eps,
            args.delta,
            num_quantiles=len(phis),
            seed=args.seed,
            backend=args.backend,
        )
    except BackendUnavailableError as exc:
        print(f"error: {exc} (available: {available_backends()})", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad eps/delta, or an unknown $REPRO_BACKEND
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.float64:
            if not args.file:
                print(
                    "error: --float64 needs a file path (stdin is text-only)",
                    file=sys.stderr,
                )
                return 2
            from repro.streams.diskfile import ingest_file

            ingest_file(estimator, args.file)
        else:
            for chunk in _read_value_chunks(args.file):
                estimator.update_batch(chunk)
    except (_InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if estimator.n == 0:
        print("no input values", file=sys.stderr)
        return 1
    for phi, answer in zip(phis, estimator.query_many(phis)):
        print(f"phi={phi:g}\t{answer!r}")
    print(
        f"# n={estimator.n}  memory={estimator.memory_elements} elements  "
        f"guarantee=+/-{args.eps:g}*n ranks w.p. {1 - args.delta:g}",
        file=sys.stderr,
    )
    return 0


def _cmd_quantile_parallel(args: argparse.Namespace, phis: list[float]) -> int:
    from repro.runtime import PoolWorkerError

    try:
        result = _pool_ingest(args, num_quantiles=len(phis))
    except BackendUnavailableError as exc:
        print(f"error: {exc} (available: {available_backends()})", file=sys.stderr)
        return 2
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _EmptyInput:
        print("no input values", file=sys.stderr)
        return 1
    except PoolWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for phi, answer in zip(phis, result.query_many(phis)):
        print(f"phi={phi:g}\t{answer!r}")
    print(_pool_footer(args, result), file=sys.stderr)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_parameters(args.eps, args.delta)
    print(
        f"unknown-N: b={plan.b} k={plan.k} h={plan.h} "
        f"alpha={plan.alpha:.3f} memory={plan.memory} elements"
    )
    if args.n is not None:
        known = plan_known_n(args.eps, args.delta, args.n)
        regime = (
            "exact"
            if known.exact
            else ("sampled" if known.rate > 1 else "deterministic")
        )
        print(
            f"known-N (n={args.n}): b={known.b} k={known.k} rate={known.rate} "
            f"memory={known.memory} elements [{regime}]"
        )
        print(f"ratio unknown/known: {plan.memory / known.memory:.2f}")
    return 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    if args.buckets < 2:
        print(f"error: need at least 2 buckets, got {args.buckets}", file=sys.stderr)
        return 2
    if args.workers is not None:
        return _cmd_histogram_parallel(args)
    try:
        estimator = MultiQuantiles(
            args.eps,
            args.delta,
            num_quantiles=args.buckets - 1,
            seed=args.seed,
            backend=args.backend,
        )
    except BackendUnavailableError as exc:
        print(f"error: {exc} (available: {available_backends()})", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad eps/delta, or an unknown $REPRO_BACKEND
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.float64:
            if not args.file:
                print(
                    "error: --float64 needs a file path (stdin is text-only)",
                    file=sys.stderr,
                )
                return 2
            from repro.streams.diskfile import ingest_file

            ingest_file(estimator, args.file)
        else:
            for chunk in _read_value_chunks(args.file):
                estimator.extend(chunk)
    except (_InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if estimator.n == 0:
        print("no input values", file=sys.stderr)
        return 1
    for boundary in estimator.equidepth_boundaries(args.buckets):
        print(repr(boundary))
    print(
        f"# n={estimator.n}  buckets={args.buckets}  "
        f"memory={estimator.memory_elements} elements",
        file=sys.stderr,
    )
    return 0


def _cmd_histogram_parallel(args: argparse.Namespace) -> int:
    from repro.runtime import PoolWorkerError

    try:
        result = _pool_ingest(args, num_quantiles=args.buckets - 1)
    except BackendUnavailableError as exc:
        print(f"error: {exc} (available: {available_backends()})", file=sys.stderr)
        return 2
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _EmptyInput:
        print("no input values", file=sys.stderr)
        return 1
    except PoolWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    phis = [i / args.buckets for i in range(1, args.buckets)]
    for boundary in result.query_many(phis):
        print(repr(boundary))
    print(
        f"# buckets={args.buckets}  " + _pool_footer(args, result).lstrip("# "),
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Delegate to the service runner (signal handling lives there)."""
    from repro.service.runner import run_from_args

    return run_from_args(args)


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Delegate to the replint CLI (same engine, same exit codes)."""
    from repro.analysis.__main__ import main as analysis_main

    argv: list[str] = list(args.paths)
    argv.extend(["--format", args.format])
    if args.json:
        argv.append("--json")
    if args.list_passes:
        argv.append("--list-passes")
    for selected in args.select or ():
        argv.extend(["--select", selected])
    if args.baseline is not None:
        argv.extend(["--baseline", args.baseline])
    if args.write_baseline is not None:
        argv.extend(["--write-baseline", args.write_baseline])
    if args.config is not None:
        argv.extend(["--config", args.config])
    return analysis_main(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "quantile": _cmd_quantile,
        "plan": _cmd_plan,
        "histogram": _cmd_histogram,
        "analyze": _cmd_analyze,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
