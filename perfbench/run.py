"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Workloads: ``stream``, ``svc-small``, ``file-scan`` (see
``perfbench/README.md``).  Before anything runs, the native kernel
extension is built from the checkout's own ``_native.c`` and the
package is staged with it under ``.bench_build/``; a missing native
backend is a hard error.  With ``--trace 0`` the run reports every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it reports
every per-layer metric instead, from a run that is half untraced and
half traced.  Every answer the program gives is checked; a failed
check or a failed operation makes the run incorrect and the exit code
non-zero.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import common

WORKLOADS = {
    "stream": "wl_stream",
    "svc-small": "wl_service",
    "file-scan": "wl_filescan",
}


def _spec() -> dict:
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise common.BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def _select(report: common.Report, wanted: list[dict], idle: tuple[str, ...]) -> dict:
    """The metrics BENCHMARK.json lists for this mode, in its order.

    Per-layer metrics of a layer the workload leaves idle read 0; any
    other missing metric is a bug in the benchmark and stops the run.
    """
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in report.metrics:
            if not name.startswith(idle):
                raise common.BenchError(f"workload did not measure {name}")
            report.metric(name, 0.0, entry["unit"])
        value, unit, _samples = report.metrics[name]
        if unit != entry["unit"]:
            raise common.BenchError(f"{name} measured in {unit}, spec says {entry['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = _spec()
        started = time.perf_counter()
        common.stage_package()
        build_s = time.perf_counter() - started
        module = __import__(WORKLOADS[args.workload])
        report = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
        if report.attempted < 1:
            raise common.BenchError("the workload attempted no operation")
        report.metric(
            "success_rate",
            (report.attempted - report.failed) / report.attempted,
            "ratio", report.attempted,
        )
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = _select(report, wanted, module.IDLE_LAYERS if args.trace else ())
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(common.BUILD_DIR / "tmp", ignore_errors=True)

    prov = common.provenance(args.seed)
    prov.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                build_and_stage_s=round(build_s, 3))
    if report.slices.get("probe_s"):
        prov["host_probe_ms"] = round(common.typical(report.slices["probe_s"]) * 1000.0, 4)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for note in report.notes:
        print(f"# {note}")
    for name, (value, unit, samples) in sorted(report.metrics.items()):
        print(f"{args.workload:10s} {name:44s} {value:16.6g} {unit:6s} n={samples}")
    for failure in report.failures:
        print(f"# FAILED {failure}")
    correct = not report.failures and report.failed == 0
    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    common.dump_json(
        common.BUILD_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"provenance": prov, "result": result, "slices": report.slices},
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
