"""Workload ``file-scan``: repeated two-worker pool jobs over one file.

Set-up writes a seeded float64 file and sorts it once for the exact
answers.  The measured loop runs ``run_pool_on_file(path, 2,
backend="native", seed=...)`` jobs back to back, with every other
argument at the library default, and checks each job's 99 percentiles
against the exact ones; each job's result is then queried a few more
times, as a caller reading a finished scan does.  Before the jobs, a
single-process sketch of the same file (``streams.ingest_file``) is
checkpointed; each job is followed by three timed restores of that
checkpoint.  A job with its queries and its restore is one slice.
"""

from __future__ import annotations

import itertools
import os
import time

from common import (
    DELTA, EPS, PHIS_99, Report, Timer, median, rank_errors,
    scratch_dir, trace_dir, typical, vm_hwm_mb, host_probe,
)

IDLE_LAYERS = ("service.",)

VALUES = 8_000_000
WORKERS = 2
QUERIES_PER_JOB = 10
RESTORES_PER_JOB = 3
SETUPS = 9
BASELINES = 3


def _setup(seed: int, path):
    import numpy as np

    rng = np.random.default_rng(seed)
    # A drifting mixture, so the two workers' halves differ.
    values = rng.standard_normal(VALUES) + np.linspace(0.0, 4.0, VALUES)
    values.astype("<f8").tofile(path)
    return np.sort(values)


class _Jobs:
    def __init__(self, seed: int, path: str, exact, report: Report, ckpt: str) -> None:
        self.seed = seed
        self.path = path
        self.ckpt = ckpt
        self.exact = exact
        self.report = report
        self.jobs: list[dict] = []
        self.timer = Timer()
        self.home = os.sched_getaffinity(0)
        self.turn = itertools.cycle(sorted(self.home))

    def run(self, seconds: float = 0.0, count: int = 0) -> None:
        """Run jobs for ``seconds``, or until there are ``count``."""
        deadline = time.perf_counter() + seconds
        while (
            not self.jobs
            or len(self.jobs) < count
            or (not count and time.perf_counter() < deadline)
        ):
            self.job()

    def job(self) -> None:
        import repro.runtime as runtime
        from repro import persist

        report = self.report
        clock = time.perf_counter
        query_s, restore_s = [], []
        with self.timer:
            t0 = clock()
            result = runtime.run_pool_on_file(
                self.path, WORKERS, eps=EPS, delta=DELTA, backend="native",
                seed=self.seed * 100_003 + len(self.jobs),
            )
            job_s = clock() - t0
            report.op(result.n == VALUES and not result.leaked, f"pool job n={result.n} leaked={result.leaked}")
            # The pool's workers use every CPU; the queries and the restore
            # run here, on each CPU in turn (see common.rotating_cpus).
            os.sched_setaffinity(0, {next(self.turn)})
            try:
                probe_s = host_probe()
                for _ in range(QUERIES_PER_JOB):
                    t0 = clock()
                    answers = result.query_many(PHIS_99)
                    query_s.append(clock() - t0)
                    report.op(len(answers) == len(PHIS_99), "pool query_many")
                for _ in range(RESTORES_PER_JOB):
                    t0 = clock()
                    persist.load_checkpoint_rotating(self.ckpt)
                    restore_s.append(clock() - t0)
            finally:
                os.sched_setaffinity(0, self.home)
        worst = max(rank_errors(answers, PHIS_99, self.exact))
        report.check(worst <= EPS, f"file-scan rank error {worst:.5f} > eps")
        # Keep only figures: holding every result would grow the heap, and
        # with it the garbage collector's pauses, as the run goes on.
        ingest_s = [w.ingest_seconds for w in result.workers]
        self.jobs.append({
            "job_s": job_s, "query_s": query_s, "restore_s": restore_s, "probe_s": probe_s,
            "sketch_bytes": sum(8 * (w.full_elements + w.partial_elements) for w in result.workers),
            "spawn_s": result.spawn_seconds, "ingest_s": result.ingest_seconds,
            "merge_s": result.merge_seconds, "shipped_bytes": result.shipped_bytes,
            "skew": max(ingest_s) / min(ingest_s), "start_method": result.start_method,
        })


def _baseline(path: str, seed: int, report: Report, exact):
    """Single-process sketch of the same file, through the streams layer."""
    from repro import UnknownNQuantiles
    from repro.streams import diskfile

    est = UnknownNQuantiles(eps=EPS, delta=DELTA, backend="native", seed=seed)
    t0 = time.perf_counter()
    count = diskfile.ingest_file(est, path)
    elapsed = time.perf_counter() - t0
    report.check(count == VALUES, f"ingest_file read {count} values")
    worst = max(rank_errors(est.query_many(PHIS_99), PHIS_99, exact))
    report.check(worst <= EPS, f"baseline rank error {worst:.5f} > eps")
    return est, elapsed


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    from repro import persist

    report = Report()
    tmp = scratch_dir(workload)
    path = str(tmp / "values.f64")
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        exact = _setup(seed, path)
        setups.append(time.perf_counter() - t0)
    est, _ = _baseline(path, seed, report, exact)
    ckpt = str(tmp / "baseline.ckpt")
    persist.save_checkpoint_rotating(est, ckpt)
    restored, _gen = persist.load_checkpoint_rotating(ckpt)
    report.check(restored.query_many(PHIS_99) == est.query_many(PHIS_99), "restored baseline answers differ")

    if not trace:
        jobs = _Jobs(seed, path, exact, report, ckpt)
        jobs.run(seconds=seconds)
        job_s = [job["job_s"] for job in jobs.jobs]
        report.slices["job_s"] = job_s
        report.slices["probe_s"] = [job["probe_s"] for job in jobs.jobs]
        report.metric("setup_s", median(setups), "s", len(setups))
        report.metric("values_per_s", typical([VALUES / t for t in job_s]), "1/s", len(job_s))
        report.metric(
            "req_per_s",
            typical([(1 + QUERIES_PER_JOB) / (job["job_s"] + sum(job["query_s"])) for job in jobs.jobs]),
            "1/s", len(job_s),
        )
        report.latency("ingest", [[t] for t in job_s])
        report.latency("query", [job["query_s"] for job in jobs.jobs])
        report.metric(
            "recovery_ms", typical([median(job["restore_s"]) for job in jobs.jobs]) * 1000.0,
            "ms", RESTORES_PER_JOB * len(job_s),
        )
        sketch = [job["sketch_bytes"] for job in jobs.jobs]
        report.metric("sketch_bytes", median(sketch), "B", len(sketch))
        report.metric("server_rss_mb", vm_hwm_mb(), "MiB")
        report.metric("client.cpu_share", jobs.timer.cpu / jobs.timer.wall, "ratio")
        report.notes.append(f"jobs={len(jobs.jobs)} start_method={jobs.jobs[-1]['start_method']}")
        return report

    # Traced run: half the time untraced, then the same jobs traced.
    import repro.runtime as runtime
    from repro.runtime.pool import PoolResult
    from repro.streams import diskfile
    from tracing import Tracer, install_kernels_and_core, install_persist, report_layers

    plain = _Jobs(seed, path, exact, report, ckpt)
    plain.run(seconds=seconds / 2)
    tracer = Tracer()
    install_kernels_and_core(tracer)
    install_persist(tracer, persist)
    tracer.wrap(runtime, "run_pool_on_file", "runtime.run_pool_on_file")
    tracer.wrap(PoolResult, "query_many", "runtime.query_many")
    tracer.wrap(diskfile, "ingest_file", "streams.ingest_file")
    traced = _Jobs(seed, path, exact, report, ckpt)
    baselines = []
    try:
        traced.run(count=len(plain.jobs))
        with traced.timer:
            for i in range(BASELINES):
                baselines.append(_baseline(path, seed + i, report, exact)[1])
    finally:
        tracer.uninstall()
    tracer.dump(trace_dir(workload, seed) / "bench.json")
    summary = tracer.summary()
    report_layers(report, summary)
    for key, name, unit in (
        ("spawn_s", "runtime.spawn_s", "s"),
        ("ingest_s", "runtime.ingest_s", "s"),
        ("merge_s", "runtime.merge_s", "s"),
        ("shipped_bytes", "runtime.shipped_bytes", "B"),
        ("skew", "runtime.worker_skew", "ratio"),
    ):
        report.metric(name, median([job[key] for job in traced.jobs]), unit)
    report.metric("streams.ingest_file.busy_s", summary["busy_s"]["streams.ingest_file"], "s")
    report.metric(
        "runtime.parallel_efficiency",
        median(baselines) / (WORKERS * median([job["job_s"] for job in plain.jobs])), "ratio",
    )
    report.metric("client.cpu_share", plain.timer.cpu / plain.timer.wall, "ratio")
    report.metric("trace.coverage", summary["root_busy_s"] / traced.timer.wall, "ratio")
    report.metric(
        "trace.overhead",
        median([job["job_s"] for job in traced.jobs]) / median([job["job_s"] for job in plain.jobs]),
        "ratio",
    )
    return report
