"""E4: stream-ingest throughput of every estimator (engineering bench).

Not from the paper (its evaluation is analytical), but a library users
adopt needs ingest numbers.  Real pytest-benchmark timings of consuming a
50k-element stream.  Shape claims: the unknown-N estimator gets *faster*
per element once sampling starts (most elements are discarded after one
RNG call), and no estimator is pathologically slower than the reservoir
baseline.

This file is also a standalone script: ``python benchmarks/bench_throughput.py``
runs the kernel-backend perf trajectory (1M-element batch ingest and
cached-vs-uncached ``query_many`` on every available backend, plus a
24M-element deep-stream ingest on both backends that pins the
native-vs-python acceptance ratio) and writes the machine-readable
``BENCH_throughput.json`` at the repo root, so the speedups claimed in
docs/PERFORMANCE.md stay pinned to measurements.  Use ``--smoke`` for
the fast CI variant.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import time

import pytest

from repro.core.extreme import ExtremeValueEstimator
from repro.core.known_n import KnownNQuantiles
from repro.core.unknown_n import UnknownNQuantiles
from repro.kernels import available_backends
from repro.sampling.reservoir import ReservoirSampler

N = 50_000
EPS, DELTA = 0.01, 1e-3

BACKENDS = available_backends()

#: Seed-revision constants the perf criteria are measured against
#: (pure-python, element-at-a-time ingest; uncached heapq-merge queries).
SEED_BATCH_INGEST_ELEMS_PER_S = 1_571_605
SEED_QUERY_MANY_MS = 1.635

#: Pre-arena (boxed list[float] buffer storage) batch-ingest rates, from
#: the BENCH_throughput.json committed with the vectorised-kernels PR.
#: The columnar arena must beat them by the required factors below.
PRE_ARENA_BATCH_INGEST_ELEMS_PER_S = {"python": 2_135_131.4}
ARENA_SPEEDUP_REQUIRED = {"python": 1.3}

#: Large-stream ingest: the regime the paper targets (datasets far larger
#: than memory).  24 one-million-element chunks at the same accuracy
#: point as the 1M trajectory; by the later chunks the sampling rate has
#: ramped, so block sampling resolves most elements and the per-block
#: constant factors (RNG draw, slice, sort) dominate — which is exactly
#: where the compiled kernels earn their keep.  The native-vs-python
#: criterion is pinned here, same host, same run.
STREAM_CHUNK_ELEMS = 1_000_000
STREAM_CHUNKS = 24
#: The former gate was native >= 3.0x the (since removed) numpy backend.
#: Re-expressed against python as 3.0 x median(numpy/python) over seven
#: same-process best-of-5 runs on a 2-vCPU x86-64 host (median 1.84),
#: rounded up to one decimal: 5.52 -> 5.6.
NATIVE_STREAM_SPEEDUP_REQUIRED = 5.6
#: One uncached query_many(99 phis) on the native backend must fit the
#: sub-100µs budget (full re-merge + 99 C rank walks, no memoised view).
NATIVE_QUERY_UNCACHED_US_BUDGET = 100.0


def make_data():
    rng = random.Random(42)
    return [rng.random() for _ in range(N)]


DATA = make_data()


def test_throughput_unknown_n(benchmark):
    def run():
        est = UnknownNQuantiles(eps=EPS, delta=DELTA, seed=1)
        est.extend(DATA)
        return est

    est = benchmark(run)
    assert est.n == N


def test_throughput_unknown_n_deep_stream_sampling_regime(benchmark):
    # Pre-warm an estimator past sampling onset, then measure ingest of
    # 50k further elements: the sampled regime should beat the dense one.
    from repro.core.params import Plan

    plan = Plan(
        eps=0.05,
        delta=0.01,
        b=3,
        k=50,
        h=2,
        alpha=0.5,
        leaves_before_sampling=6,
        leaves_per_level=3,
        policy_name="mrl",
    )
    warm = UnknownNQuantiles(plan=plan, seed=2)
    warm.extend(float(i) for i in range(200_000))
    assert warm.sampling_rate >= 64

    def run():
        warm.extend(DATA)
        return warm.sampling_rate

    benchmark(run)


def test_throughput_known_n(benchmark):
    def run():
        est = KnownNQuantiles(EPS, DELTA, N, seed=3)
        est.extend(DATA)
        return est

    est = benchmark(run)
    assert est.n <= N * 1000  # benchmark may re-run; just sanity


def test_throughput_extreme(benchmark):
    def run():
        est = ExtremeValueEstimator(phi=0.99, eps=0.002, delta=DELTA, n=N, seed=4)
        est.extend(DATA)
        return est

    est = benchmark(run)
    assert est.seen == N


def test_throughput_reservoir(benchmark):
    def run():
        sampler = ReservoirSampler(4096, random.Random(5))
        sampler.extend(DATA)
        return sampler

    sampler = benchmark(run)
    assert sampler.seen == N


@pytest.mark.parametrize("backend", BACKENDS)
def test_throughput_unknown_n_batch_ingest(benchmark, backend):
    # The bulk path: one RNG draw per sampling block instead of per element,
    # on every backend the host has (python always; native when built).
    def run():
        est = UnknownNQuantiles(eps=EPS, delta=DELTA, seed=7, backend=backend)
        est.update_batch(DATA)
        return est

    est = benchmark(run)
    assert est.n == N


def test_throughput_gk_successor(benchmark):
    from repro.baselines.gk import GKQuantiles

    def run():
        gk = GKQuantiles(EPS)
        gk.extend(DATA)
        return gk

    gk = benchmark(run)
    assert gk.n == N


def test_throughput_p2_heuristic(benchmark):
    from repro.baselines.p2 import P2Quantile

    def run():
        p2 = P2Quantile(0.5)
        p2.extend(DATA)
        return p2

    p2 = benchmark(run)
    assert p2.n == N


@pytest.mark.parametrize("backend", BACKENDS)
def test_throughput_query_many(benchmark, backend):
    # Repeated queries between updates hit the engine's memoised combined
    # view: every call after the first is b*k binary searches, no re-merge.
    est = UnknownNQuantiles(eps=EPS, delta=DELTA, seed=6, backend=backend)
    est.extend(DATA)
    phis = [i / 100 for i in range(1, 100)]

    def run():
        return est.query_many(phis)

    values = benchmark(run)
    assert len(values) == 99


def test_throughput_query_many_uncached(benchmark):
    # The cache ablation: same queries with the engine's memoised views
    # disabled, i.e. a full weighted re-merge on every call (the seed
    # behaviour).  The cached variant above should win by >= 10x.
    est = UnknownNQuantiles(eps=EPS, delta=DELTA, seed=6)
    est.extend(DATA)
    est._engine._cache_enabled = False
    phis = [i / 100 for i in range(1, 100)]

    def run():
        return est.query_many(phis)

    values = benchmark(run)
    assert len(values) == 99


# ----------------------------------------------------------------------
# Standalone perf trajectory: writes BENCH_throughput.json at repo root
# ----------------------------------------------------------------------

_QUERY_PHIS = [i / 100 for i in range(1, 100)]


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_batch_ingest(backend: str, n: int, repeats: int) -> float:
    """Elements per second of one update_batch over an n-element list."""
    rng = random.Random(99)
    data = [rng.random() for _ in range(n)]

    def run():
        est = UnknownNQuantiles(eps=EPS, delta=DELTA, seed=1, backend=backend)
        est.update_batch(data)

    return n / _best_of(repeats, run)


def _measure_stream_ingest(
    backend: str, chunk_elems: int, chunks: int, repeats: int
) -> float:
    """Elements per second over a deep stream of 1M-element batches."""
    rng = random.Random(99)
    chunk = [rng.random() for _ in range(chunk_elems)]

    def run():
        est = UnknownNQuantiles(eps=EPS, delta=DELTA, seed=1, backend=backend)
        for _ in range(chunks):
            est.update_batch(chunk)

    return (chunk_elems * chunks) / _best_of(repeats, run)


def _measure_query_many(backend: str, n: int, repeats: int, cached: bool) -> float:
    """Milliseconds per query_many(99 phis) between updates."""
    rng = random.Random(99)
    est = UnknownNQuantiles(eps=EPS, delta=DELTA, seed=1, backend=backend)
    est.update_batch([rng.random() for _ in range(n)])
    if not cached:
        est._engine._cache_enabled = False
    est.query_many(_QUERY_PHIS)  # warm (populates the cache when enabled)
    per_call = _best_of(repeats, lambda: est.query_many(_QUERY_PHIS))
    return per_call * 1_000


def run_perf_trajectory(
    n: int = 1_000_000,
    repeats: int = 3,
    stream_chunk_elems: int = STREAM_CHUNK_ELEMS,
    stream_chunks: int = STREAM_CHUNKS,
) -> dict:
    """Measure every backend's ingest + query numbers; return the report."""
    report: dict = {
        "bench": "throughput",
        "n_batch_ingest": n,
        "query_phis": len(_QUERY_PHIS),
        "seed_baseline": {
            "batch_ingest_elems_per_s": SEED_BATCH_INGEST_ELEMS_PER_S,
            "query_many_ms": SEED_QUERY_MANY_MS,
        },
        "pre_arena_baseline": {
            "batch_ingest_elems_per_s": dict(PRE_ARENA_BATCH_INGEST_ELEMS_PER_S),
        },
        "backends": {},
    }
    for backend in available_backends():
        report["backends"][backend] = {
            "batch_ingest_elems_per_s": round(
                _measure_batch_ingest(backend, n, repeats), 1
            ),
            "query_many_cached_ms": round(
                _measure_query_many(backend, n // 20, repeats, cached=True), 4
            ),
            "query_many_uncached_ms": round(
                _measure_query_many(backend, n // 20, repeats, cached=False), 4
            ),
        }
    # Deep-stream ingest on both backends: the native-vs-python acceptance
    # regime (the python reference takes about a second per 24M-value pass
    # once sampling has ramped).
    stream: dict = {}
    for backend in ("python", "native"):
        if backend in report["backends"]:
            stream[backend] = round(
                _measure_stream_ingest(
                    backend, stream_chunk_elems, stream_chunks, repeats
                ),
                1,
            )
    report["stream_ingest"] = {
        "chunk_elems": stream_chunk_elems,
        "chunks": stream_chunks,
        "elems_per_s": stream,
    }
    criteria: dict = {}
    if "native" in stream:
        ratio = stream["native"] / stream["python"]
        criteria["native_stream_ingest_speedup_vs_python"] = {
            "measured": round(ratio, 2),
            "required": NATIVE_STREAM_SPEEDUP_REQUIRED,
            "pass": ratio >= NATIVE_STREAM_SPEEDUP_REQUIRED,
        }
    else:
        # Same-host comparison impossible without the native backend:
        # record the criterion as failed rather than silently dropping it.
        criteria["native_stream_ingest_speedup_vs_python"] = {
            "measured": None,
            "required": NATIVE_STREAM_SPEEDUP_REQUIRED,
            "pass": False,
            "reason": "requires the native backend",
        }
    if "native" in report["backends"]:
        uncached_us = report["backends"]["native"]["query_many_uncached_ms"] * 1_000
        criteria["native_query_many_uncached_us"] = {
            "measured": round(uncached_us, 1),
            "required": NATIVE_QUERY_UNCACHED_US_BUDGET,
            "direction": "below",
            "pass": uncached_us < NATIVE_QUERY_UNCACHED_US_BUDGET,
        }
    else:
        criteria["native_query_many_uncached_us"] = {
            "measured": None,
            "required": NATIVE_QUERY_UNCACHED_US_BUDGET,
            "direction": "below",
            "pass": False,
            "reason": "requires the native backend",
        }
    for name, baseline in PRE_ARENA_BATCH_INGEST_ELEMS_PER_S.items():
        rate = report["backends"][name]["batch_ingest_elems_per_s"]
        arena_speedup = rate / baseline
        required = ARENA_SPEEDUP_REQUIRED[name]
        criteria[f"{name}_arena_batch_ingest_speedup_vs_boxed"] = {
            "measured": round(arena_speedup, 2),
            "required": required,
            "pass": arena_speedup >= required,
        }
    python_stats = report["backends"]["python"]
    cache_speedup = (
        python_stats["query_many_uncached_ms"] / python_stats["query_many_cached_ms"]
    )
    criteria["query_cache_speedup_vs_uncached"] = {
        "measured": round(cache_speedup, 2),
        "required": 10.0,
        "pass": cache_speedup >= 10.0,
    }
    report["criteria"] = criteria
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Kernel-backend perf trajectory -> BENCH_throughput.json"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small-n fast run (CI); criteria are reported but not enforced",
    )
    parser.add_argument(
        "--enforce",
        choices=["all", "native", "none"],
        default=None,
        help="which criteria fail the run: 'all' (full-run default), "
        "'native' (just the native-kernel acceptance pair — the "
        "host-independent same-run ratio and the query budget; what CI "
        "gates on, so slower runners don't trip the absolute-rate "
        "baselines), or 'none' (smoke default; criteria still recorded)",
    )
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_throughput.json"),
        help="output path (default: <repo root>/BENCH_throughput.json)",
    )
    args = parser.parse_args(argv)
    n = 100_000 if args.smoke else 1_000_000
    # Best-of-5 on full runs: single-core CI hosts are noisy and the
    # criteria compare absolute rates against committed baselines.
    report = run_perf_trajectory(
        n=n,
        repeats=2 if args.smoke else 5,
        stream_chunk_elems=100_000 if args.smoke else STREAM_CHUNK_ELEMS,
        stream_chunks=4 if args.smoke else STREAM_CHUNKS,
    )
    report["smoke"] = args.smoke
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    enforce = args.enforce or ("none" if args.smoke else "all")
    if enforce != "none":
        gated = report["criteria"]
        if enforce == "native":
            gated = {k: c for k, c in gated.items() if k.startswith("native_")}
        failed = [k for k, c in gated.items() if not c["pass"]]
        if failed:
            print(f"FAILED criteria: {failed}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
