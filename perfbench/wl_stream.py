"""Workload ``stream``: one in-process sketch ingesting 1M-value chunks.

A seeded pool of contiguous float64 chunks (the shape
``streams.diskfile.read_float_chunks`` yields) is cycled into a fresh
``UnknownNQuantiles(eps=0.01, delta=1e-4, backend="native")`` for a
fixed element count per repetition, with a 99-φ ``query_many`` after
every chunk.  Repetitions run until the measured time is used up; each
is one slice, and successive repetitions run on successive CPUs.  Because the pool is cycled, the
exact quantiles after every whole pool pass are those of the pool,
which is how every answer is checked.
"""

from __future__ import annotations

import time

from common import (
    DELTA, EPS, PHIS_99, Report, Timer, median, rank_errors,
    rotating_cpus, scratch_dir, trace_dir, typical, vm_hwm_mb, host_probe,
)

IDLE_LAYERS = ("service.", "runtime.", "streams.")

CHUNK = 1 << 20
POOL_CHUNKS = 4
#: Chunks per repetition: deep enough that the sampling rate ends >= 64.
CHUNKS_PER_REP = 64
SETUPS = 9
RESTORES_PER_REP = 3


def _setup(seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    chunks = []
    for i in range(POOL_CHUNKS):
        block = rng.standard_normal(CHUNK) * (1 + i) + 2.0 * i
        chunks.append(memoryview(block.tobytes()).cast("d"))
    exact = np.sort(np.frombuffer(b"".join(c.tobytes() for c in chunks)))
    return chunks, exact


class _Reps:
    """Repetitions of the stream, one slice each."""

    def __init__(self, seed: int, chunks, exact, ckpt_dir, report: Report) -> None:
        self.seed = seed
        self.chunks = chunks
        self.exact = exact
        self.path = str(ckpt_dir / "stream.ckpt")
        self.report = report
        self.reps: list[dict] = []
        self.timer = Timer()
        self.probe_s: list[float] = []

    def run(self, seconds: float = 0.0, count: int = 0) -> None:
        """Run repetitions for ``seconds``, or until there are ``count``."""
        deadline = time.perf_counter() + seconds
        with rotating_cpus() as next_cpu:
            while (
                not self.reps
                or len(self.reps) < count
                or (not count and time.perf_counter() < deadline)
            ):
                next_cpu()
                self.probe_s.append(host_probe())
                self.reps.append(self._repetition(len(self.reps)))

    def _repetition(self, index: int) -> dict:
        from repro import UnknownNQuantiles, persist

        report = self.report
        est = UnknownNQuantiles(
            eps=EPS, delta=DELTA, backend="native", seed=self.seed * 100_003 + index,
        )
        clock = time.perf_counter
        ingest, query, restore = [], [], []
        with self.timer:
            for i in range(CHUNKS_PER_REP):
                t0 = clock()
                est.update_batch(self.chunks[i % POOL_CHUNKS])
                t1 = clock()
                answers = est.query_many(PHIS_99)
                t2 = clock()
                ingest.append(t1 - t0)
                query.append(t2 - t1)
                report.op(True)
                report.op(len(answers) == len(PHIS_99), "query_many")
                if (i + 1) % POOL_CHUNKS == 0:
                    worst = max(rank_errors(answers, PHIS_99, self.exact, (i + 1) // POOL_CHUNKS))
                    report.check(worst <= EPS, f"stream rank error {worst:.5f} > eps")
            persist.save_checkpoint_rotating(est, self.path)
            for _ in range(RESTORES_PER_REP):
                t0 = clock()
                restored, _gen = persist.load_checkpoint_rotating(self.path)
                restore.append(clock() - t0)
        report.check(
            restored.query_many(PHIS_99) == est.query_many(PHIS_99),
            "restored stream sketch answers differ",
        )
        report.check(est.n == CHUNKS_PER_REP * CHUNK, "stream n mismatch")
        report.check(est.sampling_rate >= 64, f"sampling rate ended at {est.sampling_rate} < 64")
        return {
            "ingest": ingest, "query": query, "restore": restore,
            "call_s": sum(ingest) + sum(query), "bytes": est.memory_bytes,
            "rate": est.sampling_rate,
        }


def _timed_setups(seed: int):
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        chunks, exact = _setup(seed)
        times.append(time.perf_counter() - t0)
    return chunks, exact, median(times)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    chunks, exact, setup_s = _timed_setups(seed)
    ckpt_dir = scratch_dir(workload)
    if not trace:
        reps = _Reps(seed, chunks, exact, ckpt_dir, report)
        reps.run(seconds=seconds)
        report.slices["rep_call_s"] = [r["call_s"] for r in reps.reps]
        report.slices["probe_s"] = reps.probe_s
        report.metric("setup_s", setup_s, "s", SETUPS)
        report.metric(
            "values_per_s", typical([CHUNKS_PER_REP * CHUNK / sum(r["ingest"]) for r in reps.reps]),
            "1/s", len(reps.reps),
        )
        report.metric(
            "req_per_s", typical([2 * CHUNKS_PER_REP / r["call_s"] for r in reps.reps]),
            "1/s", len(reps.reps),
        )
        report.latency("ingest", [r["ingest"] for r in reps.reps])
        report.latency("query", [r["query"] for r in reps.reps])
        report.metric(
            "recovery_ms", typical([median(r["restore"]) for r in reps.reps]) * 1000.0,
            "ms", RESTORES_PER_REP * len(reps.reps),
        )
        report.metric("sketch_bytes", median([r["bytes"] for r in reps.reps]), "B", len(reps.reps))
        report.metric("server_rss_mb", vm_hwm_mb(), "MiB")
        report.metric("client.cpu_share", reps.timer.cpu / reps.timer.wall, "ratio")
        report.notes.append(
            f"repetitions={len(reps.reps)} final_sampling_rate={reps.reps[-1]['rate']}"
        )
        return report

    # Traced run: half the time untraced, then the same repetitions traced.
    from repro import persist
    from tracing import Tracer, install_kernels_and_core, install_persist, report_layers

    plain = _Reps(seed, chunks, exact, ckpt_dir, report)
    plain.run(seconds=seconds / 2)
    tracer = Tracer()
    install_kernels_and_core(tracer)
    install_persist(tracer, persist)
    traced = _Reps(seed, chunks, exact, ckpt_dir, report)
    try:
        traced.run(count=len(plain.reps))
    finally:
        tracer.uninstall()
    tracer.dump(trace_dir(workload, seed) / "bench.json")
    summary = tracer.summary()
    report_layers(report, summary)
    report.metric("client.cpu_share", plain.timer.cpu / plain.timer.wall, "ratio")
    report.metric("trace.coverage", summary["root_busy_s"] / traced.timer.wall, "ratio")
    report.metric(
        "trace.overhead",
        median([r["call_s"] for r in traced.reps]) / median([r["call_s"] for r in plain.reps]),
        "ratio",
    )
    return report
