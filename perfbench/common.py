"""Shared plumbing of the repository benchmark.

Builds the native kernel extension from the checkout's own source,
stages an importable copy of the package next to it, and holds the
small helpers every workload uses: percentiles, ε-rank checks, peak
RSS, provenance, and the :class:`Report` a workload fills in.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD_DIR = ROOT / ".bench_build"
SRC_PACKAGE = ROOT / "src" / "repro"
NATIVE_SOURCE = SRC_PACKAGE / "kernels" / "_native.c"

#: The sketch every workload plans with.
EPS = 0.01
DELTA = 1e-4
#: The 99 percentiles the ingest-heavy workloads query.
PHIS_99 = [i / 100 for i in range(1, 100)]


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source, no native build, ...)."""


# ----------------------------------------------------------------------
# Native build and staging
# ----------------------------------------------------------------------

def _native_key() -> str:
    digest = hashlib.sha256()
    for path in (NATIVE_SOURCE, ROOT / "setup.py"):
        digest.update(path.read_bytes())
    digest.update(sys.version.encode())
    return digest.hexdigest()[:16]


def build_native() -> Path:
    """Compile ``repro.kernels._native`` from this checkout's ``_native.c``.

    The shared object is cached under ``.bench_build/native/<key>``,
    keyed by the hash of the C source, ``setup.py`` and the interpreter,
    so an edited kernel is always rebuilt and never measured stale.
    """
    if not NATIVE_SOURCE.is_file() or not (ROOT / "setup.py").is_file():
        raise BenchError(f"no package source under {ROOT}; nothing to build")
    out = BUILD_DIR / "native" / _native_key()
    found = sorted((out / "lib" / "repro" / "kernels").glob("_native*.so"))
    if found:
        return found[0]
    env = dict(os.environ, REPRO_REQUIRE_NATIVE="1")
    proc = subprocess.run(
        [
            sys.executable, "setup.py", "-q", "build_ext",
            "--build-lib", str(out / "lib"),
            "--build-temp", str(out / "tmp"),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    found = sorted((out / "lib" / "repro" / "kernels").glob("_native*.so"))
    if proc.returncode != 0 or not found:
        raise BenchError(
            "building repro.kernels._native failed:\n" + proc.stdout + proc.stderr
        )
    return found[0]


def stage_package() -> Path:
    """Copy ``src/repro`` plus the fresh extension into ``.bench_build/stage``.

    Both the in-process workloads and every server or pool worker the
    benchmark starts import ``repro`` from the staged copy, so all of
    them run the checkout's code on its own native build.
    """
    so_path = build_native()
    stage = BUILD_DIR / "stage"
    shutil.rmtree(stage, ignore_errors=True)
    shutil.copytree(
        SRC_PACKAGE, stage / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so"),
    )
    shutil.copy2(so_path, stage / "repro" / "kernels" / so_path.name)
    sys.path.insert(0, str(stage))
    os.environ["PYTHONPATH"] = str(stage)
    os.environ.pop("REPRO_BACKEND", None)
    from repro.kernels import available_backends

    if "native" not in available_backends():
        raise BenchError(
            f"native backend missing after build: {available_backends()}"
        )
    return stage


def scratch_dir(label: str) -> Path:
    """A fresh private directory under ``.bench_build/tmp``."""
    path = BUILD_DIR / "tmp" / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def trace_dir(workload: str, seed: int) -> Path:
    """Where a traced run writes its spans; kept after the run."""
    path = BUILD_DIR / "traces" / f"{workload}-seed{seed}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Statistics and checks
# ----------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def typical(values: list[float], trim: float = 0.1) -> float:
    """Mean of a non-empty sample without its lowest and highest ``trim`` share.

    This is how per-slice figures become one figure for the run (see
    "Slices and CPUs" below).
    """
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


def rank_errors(
    answers: list[float], phis: list[float], exact_sorted, multiplicity: int = 1
) -> list[float]:
    """Rank distance of each answer from its target, as a share of N.

    ``exact_sorted`` is the sorted input as a numpy array, and
    ``multiplicity`` scales ranks when the stream repeated it that many
    times.  An answer holding ranks ``lo+1..hi`` is exact for φ when
    ``lo < φN <= hi``.
    """
    n = len(exact_sorted) * multiplicity
    los = exact_sorted.searchsorted(answers, "left").tolist()
    his = exact_sorted.searchsorted(answers, "right").tolist()
    errors = []
    for phi, lo, hi in zip(phis, los, his):
        target = phi * n
        lo, hi = lo * multiplicity, hi * multiplicity
        errors.append(max(0.0, lo - target, target - hi) / n)
    return errors


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Slices and CPUs
# ----------------------------------------------------------------------
#
# The virtual CPUs of a shared host run at their usual speed most of the
# time, with faster and slower stretches of seconds to minutes, each CPU
# on its own schedule.  A median over every sample of a run jumps between
# the two speeds as the share of fast samples crosses one half, so it
# moves far more from run to run than the share itself does.  So every
# workload runs in short slices of like work (a repetition, a job, half
# a second of load); a rate is taken per slice and a median latency is
# the median within a slice, and the run reports the trimmed mean over
# slices of either (:func:`typical`), which moves only in proportion to
# the share of slow slices.  A p99 over all samples of a run has the same
# flaw at its own quantile: it is set by the slowest stretch if the run
# had one.  So a p99 is taken per window of consecutive slices with at
# least ``P99_WINDOW`` samples, and the run reports the typical window.

#: Fewest samples behind one window's p99.
P99_WINDOW = 100

_PROBE_DATA: list = []


def host_probe() -> float:
    """Seconds a fixed piece of work that is not the program's takes now.

    Some interpreter work and a numpy sort of a cache-resident array; it
    follows the speed of the CPU it runs on.
    """
    if not _PROBE_DATA:
        import numpy as np

        _PROBE_DATA.append(np.random.default_rng(0).standard_normal(1 << 15))
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i & 7
    _PROBE_DATA[0].copy().sort()
    return time.perf_counter() - t0


@contextlib.contextmanager
def rotating_cpus():
    """Yield a function that moves this process to the next CPU in turn.

    Slow and fast stretches hit each CPU on its own schedule; work that
    visits every CPU in turn is not left to whichever CPU the scheduler
    happened to start it on.  The function returns the CPU it moved to.
    The original affinity is restored on exit.
    """
    home = os.sched_getaffinity(0)
    cpus = itertools.cycle(sorted(home))

    def next_cpu() -> int:
        cpu = next(cpus)
        os.sched_setaffinity(0, {cpu})
        return cpu

    try:
        yield next_cpu
    finally:
        os.sched_setaffinity(0, home)


def pin(pid: int, cpu: int) -> None:
    """Move every thread of process ``pid`` to ``cpu``."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), {cpu})
        except ProcessLookupError:
            pass  # the thread ended meanwhile


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _first_line(cmd: list[str]) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (out.stdout or out.stderr).strip().splitlines()[0] if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC_PACKAGE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int) -> dict[str, object]:
    """Where and on what a result was measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = _first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return {
        "commit": commit,
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "compiler": _first_line([cc, "--version"]),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

class Report:
    """What one workload run measured, checked and counted."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        #: Per-slice figures, written to the result file for later study.
        self.slices: dict[str, list[float]] = {}

    def metric(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def latency(self, prefix: str, slices: list[list[float]]) -> None:
        """p50 and p99 of a latency sample in seconds, in milliseconds.

        ``slices`` holds the samples of each slice.  The p50 is the
        :func:`typical` per-slice median.  The p99 is the :func:`typical`
        p99 of windows of consecutive slices holding at least
        ``P99_WINDOW`` samples each.
        """
        slices = [s for s in slices if s]
        if not slices:
            raise BenchError(f"no {prefix} samples were recorded")
        windows: list[list[float]] = [[]]
        for s in slices:
            if len(windows[-1]) >= P99_WINDOW:
                windows.append([])
            windows[-1].extend(s)
        if len(windows) > 1 and len(windows[-1]) < P99_WINDOW:
            windows[-2].extend(windows.pop())
        count = sum(len(s) for s in slices)
        self.metric(f"{prefix}_p50_ms", typical([median(s) * 1000.0 for s in slices]), "ms", count)
        self.metric(f"{prefix}_p99_ms", typical([percentile(w, 0.99) * 1000.0 for w in windows]), "ms", count)

    def check(self, ok: bool, what: str) -> None:
        """Record one output check; a failed one fails the run."""
        if not ok:
            self.failures.append(what)

    def op(self, ok: bool, what: str = "") -> None:
        """Account one attempted operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"failed op: {what}")


class Timer:
    """Accumulates wall and CPU time over several measured windows."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "Timer":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall += time.perf_counter() - self._wall0
        self.cpu += time.process_time() - self._cpu0


def dump_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)
