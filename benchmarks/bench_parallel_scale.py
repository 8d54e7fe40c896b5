"""E11: multi-process parallel ingest — Section 6 on real processes.

The simulated parallel bench (``bench_parallel.py``) shows the
*protocol* is cheap; this one shows the *runtime* is real: a float64
file is byte-range partitioned across W worker processes
(:func:`repro.runtime.run_pool_on_file`), and we measure aggregate
ingest rate, bytes actually shipped over the result queue, and
coordinator merge time for W in {1, 2, 4}.  The simulated
:class:`~repro.core.parallel.ParallelQuantiles` is run on the *same*
per-worker slices so the real pool's accuracy is checked against both
the union ground truth and its single-process twin.

Both transports run over the same worker grid: ``"bytes"`` (CRC-framed
snapshot blobs on the result queue — the original engine) and ``"shm"``
(persistent workers ingesting into a shared-memory arena segment and
shipping ``(slot, length, weight, level)`` offset descriptors).  Every
row carries a per-phase breakdown — spawn ms, plan ms, ingest ms,
shipped bytes, merge ms — so a scaling regression points at the phase
that caused it.

Shape claims:

* every worker ships at most one full + one partial buffer — asserted
  from ``MergeReport.shipments``, i.e. measured on the wire;
* shipped bytes are tiny next to the input (KBs vs MBs), and the shm
  path ships only descriptor-sized payloads (no float64 blobs at all);
* both transports give bit-identical quantiles for the same seed;
* real and simulated pools are both within 2 eps of the union;
* with >= 4 physical cores, the 4-worker pool ingests >= 3x faster than
  the 1-worker pool and the shm path scales monotonically (criteria
  recorded as skipped on smaller hosts — a 1-core container cannot
  exhibit multi-core scaling).

This file is also a standalone script::

    python benchmarks/bench_parallel_scale.py [--smoke] [--start-method M]

which writes the machine-readable ``BENCH_parallel_scale.json`` at the
repo root.  ``--smoke`` is the fast CI variant; criteria are reported
but only enforced in full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import tempfile
import time

from conftest import format_table, report

from repro.core.parallel import ParallelQuantiles
from repro.core.params import plan_parameters
from repro.kernels import available_backends
from repro.runtime import run_pool_on_file
from repro.stats.rank import rank_error
from repro.streams.diskfile import plan_byte_ranges, read_float_chunks, write_floats

EPS, DELTA = 0.01, 1e-3
WORKER_GRID = [1, 2, 4]
PHIS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]

#: Full-run input size (the ISSUE's 4M-element file); smoke uses less.
FULL_N = 4_000_000
SMOKE_N = 200_000

#: Bytes shipped over the result queue per worker count in the committed
#: pre-arena full run (uncondensed snapshots, JSON-encoded buffer lists).
#: Condensed columnar v2 frames must cut every one of them by >= 3x.
PRE_ARENA_SHIPPED_BYTES = {1: 64_783, 2: 135_370, 4: 294_302}
SHIPPED_REDUCTION_REQUIRED = 3.0

#: The shm path ships offset descriptors, not payloads; anything above
#: this per worker means a float64 blob snuck back onto the queue.
DESCRIPTOR_BYTES_PER_WORKER_MAX = 1_024


def _make_file(directory: str, n: int, seed: int = 47) -> str:
    rng = random.Random(seed)
    path = os.path.join(directory, f"scale_{n}.f64")
    write_floats(path, (rng.random() for _ in range(n)))
    return path


def _pool_stats(result) -> dict:
    return {
        "elems_per_s": round(result.elements_per_second, 1),
        # Per-phase breakdown: where the wall time of one run went.
        "spawn_ms": round(result.spawn_seconds * 1_000, 3),
        "ingest_ms": round(result.ingest_seconds * 1_000, 3),
        "merge_ms": round(result.merge_seconds * 1_000, 3),
        "shipped_bytes": result.shipped_bytes,
        "transport": result.transport,
        "shipped_buffers": result.report.shipped_buffers,
        "within_communication_bound": result.report.within_communication_bound,
        "weight_coverage": result.report.weight_coverage,
    }


def _worst_error(summary, union: list[float]) -> float:
    return max(
        rank_error(union, summary.query(phi), phi) / len(union) for phi in PHIS
    )


def _simulated_twin(path: str, workers: int, plan, seed: int) -> ParallelQuantiles:
    """The single-process simulation fed the exact per-worker slices."""
    pq = ParallelQuantiles(workers, plan=plan, seed=seed)
    for worker_id, (start, stop) in enumerate(plan_byte_ranges(path, workers)):
        for chunk in read_float_chunks(path, start=start, stop=stop):
            pq.extend(worker_id, chunk)
    return pq


def run_scale(
    n: int,
    *,
    backend: str | None = None,
    start_method: str | None = None,
    seed: int = 7,
) -> dict:
    """Measure the worker grid over one n-element file; return the report."""
    # Fastest available backend by default: the scaling question is about
    # the process runtime, so the per-worker kernels should not be the
    # bottleneck being measured.
    if backend is None:
        backend = "native" if "native" in available_backends() else "python"
    plan_started = time.perf_counter()
    plan = plan_parameters(EPS, DELTA)
    plan_ms = (time.perf_counter() - plan_started) * 1_000
    out: dict = {
        "bench": "parallel_scale",
        "n": n,
        "eps": EPS,
        "delta": DELTA,
        "backend": backend,
        "cpu_count": os.cpu_count(),
        # Planning happens once in the coordinator and is shipped to the
        # workers as part of the work spec; it is never per-worker cost.
        "plan_ms": round(plan_ms, 3),
        "workers": {},
        "workers_shm": {},
    }
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as tmp:
        path = _make_file(tmp, n)
        out["file_bytes"] = os.stat(path).st_size
        union: list[float] = []
        for chunk in read_float_chunks(path):
            union.extend(chunk)
        union.sort()
        result = None
        for workers in WORKER_GRID:
            result = run_pool_on_file(
                path,
                workers,
                plan=plan,
                seed=seed,
                backend=backend,
                start_method=start_method,
                timeout=600,
            )
            assert result.n == n
            stats = _pool_stats(result)
            stats["worst_err_over_n"] = round(_worst_error(result, union), 6)
            out["workers"][str(workers)] = stats
            shm_result = run_pool_on_file(
                path,
                workers,
                plan=plan,
                seed=seed,
                backend=backend,
                start_method=start_method,
                timeout=600,
                transport="shm",
            )
            assert shm_result.n == n
            shm_stats = _pool_stats(shm_result)
            shm_stats["worst_err_over_n"] = round(
                _worst_error(shm_result, union), 6
            )
            # Same seed, different transport: the answers must agree bit
            # for bit, or the zero-copy path changed the math.
            shm_stats["bit_identical_to_bytes"] = (
                shm_result.query_many(PHIS) == result.query_many(PHIS)
            )
            out["workers_shm"][str(workers)] = shm_stats
        out["start_method"] = result.start_method
        # Accuracy twin: the simulated pool on the same slices as the
        # widest real pool (folds bench_parallel's check into this bench).
        twin_started = time.perf_counter()
        twin = _simulated_twin(path, WORKER_GRID[-1], plan, seed)
        out["simulated_twin"] = {
            "workers": WORKER_GRID[-1],
            "worst_err_over_n": round(_worst_error(twin, union), 6),
            "seconds": round(time.perf_counter() - twin_started, 3),
        }
    rates = {w: out["workers"][str(w)]["elems_per_s"] for w in WORKER_GRID}
    shm_rates = {
        w: out["workers_shm"][str(w)]["elems_per_s"] for w in WORKER_GRID
    }
    speedup = rates[4] / rates[1]
    cores = out["cpu_count"] or 1
    shipped_reduction = min(
        PRE_ARENA_SHIPPED_BYTES[w] / out["workers"][str(w)]["shipped_bytes"]
        for w in WORKER_GRID
    )
    shm_descriptor_worst = max(
        out["workers_shm"][str(w)]["shipped_bytes"] / w for w in WORKER_GRID
    )
    shm_monotone = all(
        shm_rates[b] >= shm_rates[a]
        for a, b in zip(WORKER_GRID, WORKER_GRID[1:])
    )
    out["pre_arena_baseline"] = {
        "shipped_bytes": {str(w): PRE_ARENA_SHIPPED_BYTES[w] for w in WORKER_GRID}
    }
    out["criteria"] = {
        "per_worker_shipment_bound": {
            "measured": all(
                out["workers"][str(w)]["within_communication_bound"]
                for w in WORKER_GRID
            ),
            "required": True,
            "pass": all(
                out["workers"][str(w)]["within_communication_bound"]
                for w in WORKER_GRID
            ),
        },
        "real_pool_within_2eps": {
            "measured": max(
                out["workers"][str(w)]["worst_err_over_n"] for w in WORKER_GRID
            ),
            "required": 2 * EPS,
            "pass": all(
                out["workers"][str(w)]["worst_err_over_n"] <= 2 * EPS
                for w in WORKER_GRID
            ),
        },
        "simulated_twin_within_2eps": {
            "measured": out["simulated_twin"]["worst_err_over_n"],
            "required": 2 * EPS,
            "pass": out["simulated_twin"]["worst_err_over_n"] <= 2 * EPS,
        },
        # Condensed columnar shipping: worst-case (minimum) reduction in
        # queue bytes across the worker grid vs the pre-arena run.
        "shipped_bytes_reduction_vs_boxed": {
            "measured": round(shipped_reduction, 2),
            "required": SHIPPED_REDUCTION_REQUIRED,
            "pass": shipped_reduction >= SHIPPED_REDUCTION_REQUIRED,
        },
        # The shm path must ship only offset descriptors: a few hundred
        # bytes of plain ints per worker, never a float64 payload.
        "shm_descriptor_only_shipping": {
            "measured": round(shm_descriptor_worst, 1),
            "required": DESCRIPTOR_BYTES_PER_WORKER_MAX,
            "pass": shm_descriptor_worst <= DESCRIPTOR_BYTES_PER_WORKER_MAX,
        },
        "shm_bit_identical_to_bytes": {
            "measured": all(
                out["workers_shm"][str(w)]["bit_identical_to_bytes"]
                for w in WORKER_GRID
            ),
            "required": True,
            "pass": all(
                out["workers_shm"][str(w)]["bit_identical_to_bytes"]
                for w in WORKER_GRID
            ),
        },
        "four_worker_speedup_vs_one": {
            "measured": round(speedup, 2),
            "required": 3.0,
            "pass": speedup >= 3.0,
            # Multi-core scaling cannot be exhibited on < 4 cores; the
            # measurement is still recorded, the criterion is waived.
            "skipped": cores < 4,
            "skip_reason": (
                f"host has {cores} core(s); >= 4 needed to measure scaling"
                if cores < 4
                else None
            ),
        },
        # The headline claim of the shared-memory rebuild: adding workers
        # never makes the shm path slower (monotone elems/s over the grid).
        "shm_monotone_speedup": {
            "measured": {str(w): shm_rates[w] for w in WORKER_GRID},
            "required": "monotone non-decreasing",
            "pass": shm_monotone,
            "skipped": cores < 4,
            "skip_reason": (
                f"host has {cores} core(s); >= 4 needed to measure scaling"
                if cores < 4
                else None
            ),
        },
    }
    return out


def _scale_table(result: dict) -> list[str]:
    rows = [
        [
            w,
            stats["transport"],
            f"{stats['elems_per_s']:,.0f}",
            f"{stats['spawn_ms']:.1f}",
            f"{stats['ingest_ms']:.1f}",
            f"{stats['merge_ms']:.2f}",
            str(stats["shipped_bytes"]),
            str(stats["shipped_buffers"]),
            f"{stats['worst_err_over_n']:.5f}",
        ]
        for table in ("workers", "workers_shm")
        for w, stats in result[table].items()
    ]
    lines = format_table(
        [
            "workers",
            "transport",
            "elems/s",
            "spawn ms",
            "ingest ms",
            "merge ms",
            "shipped bytes",
            "buffers",
            "worst err / N",
        ],
        rows,
    )
    lines.append("")
    lines.append(
        f"n={result['n']:,}  backend={result['backend']}  "
        f"start_method={result['start_method']}  cpus={result['cpu_count']}  "
        f"file={result['file_bytes']:,} bytes"
    )
    twin = result["simulated_twin"]
    lines.append(
        f"simulated twin ({twin['workers']} workers): worst err / N = "
        f"{twin['worst_err_over_n']:.5f} (budget {2 * EPS:g})"
    )
    return lines


def test_parallel_scale_real_processes(benchmark):
    result = benchmark.pedantic(lambda: run_scale(60_000), rounds=1)
    report("e11_parallel_scale", _scale_table(result))
    criteria = result["criteria"]
    assert criteria["per_worker_shipment_bound"]["pass"]
    assert criteria["real_pool_within_2eps"]["pass"]
    assert criteria["simulated_twin_within_2eps"]["pass"]
    # Transport-independent correctness is hardware-independent: assert
    # it even on small hosts.
    assert criteria["shm_bit_identical_to_bytes"]["pass"]
    assert criteria["shm_descriptor_only_shipping"]["pass"]
    # Speedup is hardware-dependent; under pytest only the recorded shape
    # is checked (the standalone full run enforces it on capable hosts).
    assert criteria["four_worker_speedup_vs_one"]["measured"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Real-process parallel ingest scaling -> "
        "BENCH_parallel_scale.json"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small-n fast run (CI); criteria are reported but not enforced",
    )
    parser.add_argument(
        "--start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method (default: platform default)",
    )
    parser.add_argument(
        "--enforce-monotone",
        action="store_true",
        help="fail (even under --smoke) if the shm path's elems/s is not "
        "monotone over the worker grid; no-op on < 4-core hosts, where "
        "the criterion is recorded as skipped",
    )
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_parallel_scale.json"
        ),
        help="output path (default: <repo root>/BENCH_parallel_scale.json)",
    )
    args = parser.parse_args(argv)
    result = run_scale(
        SMOKE_N if args.smoke else FULL_N, start_method=args.start_method
    )
    result["smoke"] = args.smoke
    pathlib.Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if not args.smoke:
        failed = [
            name
            for name, criterion in result["criteria"].items()
            if not criterion["pass"] and not criterion.get("skipped")
        ]
        if failed:
            print(f"FAILED criteria: {failed}")
            return 1
    if args.enforce_monotone:
        monotone = result["criteria"]["shm_monotone_speedup"]
        if not monotone["pass"] and not monotone.get("skipped"):
            print(
                "FAILED criteria: ['shm_monotone_speedup'] "
                f"(rates: {monotone['measured']})"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
