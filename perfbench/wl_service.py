"""Workload ``svc-small``: the real quantile server under small requests.

The server is ``python -m repro.service --workers 1`` with a checkpoint
directory, run as a subprocess.  One client process drives it over two
connections in a closed loop: each connection sends its next
pre-encoded request line only when the previous answer arrived.  Every
request line is encoded during set-up, so the measured loop spends its
client time on socket I/O and on decoding the (short) answers.

Each connection owns four of the eight tenants.  A connection cycles
its tenants, sending the profile's ``ingests_per_query`` ingests from
the tenant's pool of pre-encoded batches followed by one
``query_many``.  The load runs in half-second slices; client and server
share one CPU, which changes from slice to slice (see ``common``).
What each tenant was sent is known exactly, so answers are checked
against the exact quantiles.  After every few slices, every tenant is
checked and persisted, and the server is killed with ``SIGKILL`` and
restarted on the same checkpoint chain: each restart is timed from the
kill to the ``READY`` line and must answer bit-identically to the
server before the kill.  Restarts are spread over the whole run, so
their times sample it as evenly as the load does.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    DELTA, EPS, PHIS_99, BenchError, Report, Timer, median, rank_errors,
    pin, rotating_cpus, scratch_dir, trace_dir, typical, vm_hwm_mb, host_probe,
)

IDLE_LAYERS = ("runtime.", "streams.")

PROFILES = {
    "svc-small": {"values": 32, "ingests_per_query": 4, "phis": [0.5, 0.99], "pool": 64},
}
TENANTS = [f"t{i}" for i in range(8)]
CONNECTIONS = 2
SETUPS = 7
#: Restarts at the end of a traced run.
RESTARTS = 10
SLICE_S = 0.5
#: Slices of load between two restarts of an untraced run.
SLICES_PER_RESTART = 2
PROBE_VALUES = 1 << 17
READY_TIMEOUT_S = 60.0
#: How long past its planned end a call of the load, or a set-up or check
#: exchange, may run.
STALL_S = 30.0
HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve`` process, optionally under the tracing launcher."""

    def __init__(self, ckpt_dir: Path, seed: int, trace_file: Path | None = None) -> None:
        serve_args = [
            "--workers", "1", "--checkpoint-dir", str(ckpt_dir),
            "--eps", str(EPS), "--delta", str(DELTA), "--seed", str(seed),
        ]
        if trace_file is None:
            cmd = [sys.executable, "-m", "repro.service", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "traced_server.py"), str(trace_file), *serve_args]
        self.trace_file = trace_file
        self.log = open(ckpt_dir.parent / f"{ckpt_dir.name}-server.log", "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log)
        self.host, self.port = self._wait_ready()

    def _wait_ready(self) -> tuple[str, int]:
        stdout = self.proc.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], READY_TIMEOUT_S)
        line = stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            self.kill()
            raise BenchError(f"server did not become ready (got {line!r})")
        _, host, port = line.split()
        return host, int(port)

    def dump_trace(self) -> dict:
        """Have a traced server write its trace now, and read it."""
        assert self.trace_file is not None
        self.trace_file.unlink(missing_ok=True)
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not self.trace_file.exists():
            if time.monotonic() > deadline:
                raise BenchError("traced server did not write its trace")
            time.sleep(0.01)
        return json.loads(self.trace_file.read_text())

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self._close()

    def stop(self) -> int:
        """Graceful SIGTERM shutdown; returns the exit code."""
        self.proc.terminate()
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -9
        self._close()
        return code

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------

class Traffic:
    """Every request line of one run, encoded before anything is timed."""

    def __init__(self, profile: dict, seed: int) -> None:
        import numpy as np

        rng = np.random.default_rng(seed)
        self.profile = profile
        self.batches: dict[str, list] = {}
        self.ingest_lines: dict[str, list[bytes]] = {}
        self.query_lines: dict[str, bytes] = {}
        for index, tenant in enumerate(TENANTS):
            pool = [
                rng.lognormal(mean=index * 0.1, sigma=1.0 + 0.1 * index, size=profile["values"])
                for _ in range(profile["pool"])
            ]
            self.batches[tenant] = pool
            self.ingest_lines[tenant] = [
                _line({"op": "ingest", "tenant": tenant, "values": batch.tolist()}) for batch in pool
            ]
            self.query_lines[tenant] = _line(
                {"op": "query_many", "tenant": tenant, "phis": profile["phis"]}
            )
        # How often each pooled batch was acknowledged, per tenant.
        self.acked = {tenant: [0] * profile["pool"] for tenant in TENANTS}

    def exact(self, tenant: str):
        import numpy as np

        values = np.concatenate(self.batches[tenant])
        times = np.repeat(self.acked[tenant], self.profile["values"])
        order = np.argsort(values, kind="stable")
        return np.repeat(values[order], times[order])


def _line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


class Load:
    """Closed-loop load over ``CONNECTIONS`` connections, in slices.

    Each slice is ``SLICE_S`` seconds of load; both connections finish
    their request in flight at its end, so no request spans two slices.
    """

    def __init__(self, traffic: Traffic, report: Report, next_cpu) -> None:
        self.traffic = traffic
        self.report = report
        self.next_cpu = next_cpu
        self.slices: list[dict] = []
        self.timer = Timer()

    async def _drive(self, conn, tenants: list[str], state: dict, stop_at: float, out: dict) -> None:
        reader, writer = conn
        traffic, report = self.traffic, self.report
        per_query = traffic.profile["ingests_per_query"]
        batch = traffic.profile["values"]
        n_phis = len(traffic.profile["phis"])
        pool = traffic.profile["pool"]
        clock = time.perf_counter
        while clock() < stop_at:
            step = state["step"]
            state["step"] = step + 1
            tenant = tenants[(step // (per_query + 1)) % len(tenants)]
            is_query = step % (per_query + 1) == per_query
            if is_query:
                line = traffic.query_lines[tenant]
            else:
                slot = state[tenant] % pool
                state[tenant] += 1
                line = traffic.ingest_lines[tenant][slot]
            t0 = clock()
            writer.write(line)
            answer = await reader.readline()
            elapsed = clock() - t0
            response = json.loads(answer) if answer else {}
            out["requests"] += 1
            if is_query:
                ok = response.get("ok") is True and len(response.get("quantiles", ())) == n_phis
                out["query"].append(elapsed)
            else:
                ok = response.get("ok") is True and response.get("accepted") == batch
                out["ingest"].append(elapsed)
                if ok:
                    traffic.acked[tenant][slot] += 1
                    out["values"] += batch
            report.op(ok, "" if ok else f"{tenant}: {answer[:200]!r}")

    def run(self, server: Server, end: float, slices: int = 0) -> None:
        """Run slices until ``end``, or until there are ``slices`` more.

        At least one slice runs.  The connections last for this call.
        """
        limit = len(self.slices) + slices if slices else None

        async def go() -> None:
            conns = [
                await asyncio.open_connection(server.host, server.port, limit=1 << 24)
                for _ in range(CONNECTIONS)
            ]
            shares = [TENANTS[c::CONNECTIONS] for c in range(CONNECTIONS)]
            states = [dict.fromkeys(["step", *tenants], 0) for tenants in shares]
            first = len(self.slices)
            try:
                with self.timer:
                    while len(self.slices) == first or (
                        time.perf_counter() < end and len(self.slices) != limit
                    ):
                        pin(server.proc.pid, self.next_cpu())
                        out = {"ingest": [], "query": [], "values": 0, "requests": 0, "probe_s": host_probe()}
                        t0 = time.perf_counter()
                        # The first slice of a call runs in full even past ``end``.
                        stop_at = t0 + SLICE_S if len(self.slices) == first else min(end, t0 + SLICE_S)
                        await asyncio.gather(*(
                            self._drive(conn, tenants, state, stop_at, out)
                            for conn, tenants, state in zip(conns, shares, states)
                        ))
                        out["wall"] = time.perf_counter() - t0
                        if out["requests"]:
                            self.slices.append(out)
            finally:
                for _reader, writer in conns:
                    writer.close()
                    await writer.wait_closed()

        async def bounded() -> None:
            # One deadline for the whole call, so the timed loop itself
            # awaits no timeouts; a server that stops answering ends the run.
            budget = max(end - time.perf_counter(), 0.0) + (slices or 1) * SLICE_S + STALL_S
            try:
                await asyncio.wait_for(go(), budget)
            except asyncio.TimeoutError:
                raise BenchError(f"the server stopped answering for {STALL_S:.0f} s") from None

        asyncio.run(bounded())

    def samples(self, kind: str) -> list[float]:
        return [t for out in self.slices for t in out[kind]]

    def rate(self, kind: str) -> float:
        """Typical per-slice ``kind`` ("values", "requests") per second."""
        return typical([out[kind] / out["wall"] for out in self.slices])


def exchange(server: Server, payloads: list[dict]) -> list[dict]:
    """Requests in order on one fresh connection (set-up and checks only)."""
    async def go() -> list[dict]:
        reader, writer = await asyncio.open_connection(server.host, server.port, limit=1 << 24)
        try:
            answers = []
            for payload in payloads:
                writer.write(_line(payload))
                answers.append(json.loads(await reader.readline()))
            return answers
        finally:
            writer.close()
            await writer.wait_closed()

    async def bounded() -> list[dict]:
        try:
            return await asyncio.wait_for(go(), STALL_S)
        except asyncio.TimeoutError:
            raise BenchError(f"the server stopped answering for {STALL_S:.0f} s") from None

    return asyncio.run(bounded())


def request(server: Server, payload: dict) -> dict:
    return exchange(server, [payload])[0]


def _setup(workload: str, seed: int, ckpt_dir: Path, report: Report, trace_file: Path | None):
    """Start the server, check it runs native, encode traffic, prime tenants."""
    server = Server(ckpt_dir, seed, trace_file)
    health = request(server, {"op": "health"})
    if health.get("backend") != "native":
        server.kill()
        raise BenchError(f"server is not running the native backend: {health}")
    traffic = Traffic(PROFILES[workload], seed)
    for tenant in TENANTS:
        # One batch per tenant before the clock starts: no query can
        # ever meet an empty tenant.
        response = request(server, {"op": "ingest", "tenant": tenant, "values": traffic.batches[tenant][0].tolist()})
        ok = response.get("ok") is True
        report.op(ok, f"prime {tenant}: {response}")
        if ok:
            traffic.acked[tenant][0] += 1
    return server, traffic


def _probe_sketch_bytes(server: Server, traffic: Traffic, report: Report) -> int:
    """``memory_bytes`` of a side tenant after a fixed number of batches.

    The load tenants hold as many values as the run had time for; this
    tenant holds the same amount on every run, so its size is a function
    of the seed alone.
    """
    profile = traffic.profile
    batches = [
        {"op": "ingest", "tenant": "probe", "values": traffic.batches[TENANTS[i % len(TENANTS)]][0].tolist()}
        for i in range(PROBE_VALUES // profile["values"])
    ]
    for answer in exchange(server, batches):
        report.op(answer.get("ok") is True, f"probe ingest: {answer}")
    snap = request(server, {"op": "snapshot", "tenant": "probe"})
    report.op(snap.get("ok") is True, f"probe snapshot: {snap}")
    report.check(snap.get("n") == PROBE_VALUES, f"probe tenant n={snap.get('n')}")
    return int(snap.get("memory_bytes", 0))


def _check_and_persist(server: Server, traffic: Traffic, report: Report) -> dict:
    """Persist every tenant and check its final answers; return them."""
    answers = {}
    for tenant in TENANTS:
        snap = request(server, {"op": "snapshot", "tenant": tenant, "persist": True})
        report.op(snap.get("ok") is True, f"snapshot {tenant}: {snap}")
        exact = traffic.exact(tenant)
        report.check(snap.get("n") == len(exact), f"{tenant} n={snap.get('n')} but {len(exact)} values were acknowledged")
        answer = request(server, {"op": "query_many", "tenant": tenant, "phis": PHIS_99})
        report.op(answer.get("ok") is True, f"final query {tenant}: {answer}")
        quantiles = answer.get("quantiles", [])
        answers[tenant] = quantiles
        if len(quantiles) == len(PHIS_99):
            worst = max(rank_errors(quantiles, PHIS_99, exact))
            report.check(worst <= EPS, f"{tenant} rank error {worst:.5f} > eps")
        else:
            report.check(False, f"{tenant} final query returned {answer}")
    return answers


def _restart(server: Server, answers: dict, seed: int, ckpt_dir: Path, report: Report,
             trace_file: Path | None, next_cpu) -> tuple[Server, float]:
    """SIGKILL the server and start it again on its checkpoint chain, timed.

    Returns the new server and the seconds from the kill to ``READY``.
    """
    next_cpu()
    t0 = time.perf_counter()
    server.kill()
    server = Server(ckpt_dir, seed, trace_file)
    recovery = time.perf_counter() - t0
    try:
        for tenant in TENANTS:
            again = request(server, {"op": "query_many", "tenant": tenant, "phis": PHIS_99})
            report.op(again.get("ok") is True, f"restarted query {tenant}: {again}")
            report.check(
                again.get("quantiles") == answers[tenant],
                f"{tenant} answers changed across SIGKILL/restart",
            )
    except BaseException:
        server.kill()
        raise
    return server, recovery


def _restarts(server: Server, answers: dict, seed: int, ckpt_dir: Path, report: Report,
              trace_dir: Path, next_cpu) -> list[dict]:
    """End a traced run: restart the traced server several times, then stop it."""
    traces: list[dict] = []
    for restart in range(RESTARTS):
        if restart > 0:
            traces.append(server.dump_trace())
        server, _ = _restart(
            server, answers, seed, ckpt_dir, report, trace_dir / f"restart{restart}.json", next_cpu,
        )
    code = server.stop()
    report.check(code == 0, f"server exited {code} on SIGTERM")
    traces.append(json.loads(server.trace_file.read_text()))
    return traces


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    # Client and server share one CPU, so every hand-off between them is
    # a local wake-up; with the pair on two virtual CPUs the closed-loop
    # rate varied 1.8x from run to run on a shared host.  The pair moves
    # to the next CPU for every slice of load, set-up and restart (a
    # server inherits the client's CPU when it starts), so one CPU's slow
    # stretch cannot decide the whole run; see ``common.rotating_cpus``.
    with rotating_cpus() as next_cpu:
        next_cpu()
        return _run(workload, seed, seconds, trace, next_cpu)


def _run(workload: str, seed: int, seconds: float, trace: bool, next_cpu) -> Report:
    report = Report()
    tmp = scratch_dir(workload)
    if not trace:
        setups = []
        for attempt in range(SETUPS):
            ckpt_dir = tmp / f"ckpt{attempt}"
            ckpt_dir.mkdir()
            next_cpu()
            t0 = time.perf_counter()
            server, traffic = _setup(workload, seed, ckpt_dir, report, None)
            setups.append(time.perf_counter() - t0)
            if attempt < SETUPS - 1:
                server.kill()
        load = Load(traffic, report, next_cpu)
        recoveries, rss = [], []
        end = time.perf_counter() + seconds
        try:
            while True:
                load.run(server, end, SLICES_PER_RESTART)
                rss.append(vm_hwm_mb(server.proc.pid))
                if recoveries and time.perf_counter() >= end:
                    break
                answers = _check_and_persist(server, traffic, report)
                server, recovery = _restart(server, answers, seed, ckpt_dir, report, None, next_cpu)
                recoveries.append(recovery)
            sketch_bytes = _probe_sketch_bytes(server, traffic, report)
            _check_and_persist(server, traffic, report)
        except BaseException:
            server.kill()
            raise
        code = server.stop()
        report.check(code == 0, f"server exited {code} on SIGTERM")
        report.slices["slice_s_per_request"] = [out["wall"] / out["requests"] for out in load.slices]
        report.slices["recovery_s"] = recoveries
        report.slices["probe_s"] = [out["probe_s"] for out in load.slices]
        report.slices["setup_s"] = setups
        report.metric("setup_s", median(setups), "s", len(setups))
        report.metric("values_per_s", load.rate("values"), "1/s", len(load.slices))
        report.metric("req_per_s", load.rate("requests"), "1/s", len(load.slices))
        report.latency("ingest", [out["ingest"] for out in load.slices])
        report.latency("query", [out["query"] for out in load.slices])
        report.metric("recovery_ms", typical(recoveries) * 1000.0, "ms", len(recoveries))
        report.metric("sketch_bytes", sketch_bytes, "B")
        report.metric("server_rss_mb", median(rss), "MiB", len(rss))
        share = load.timer.cpu / load.timer.wall
        report.metric("client.cpu_share", share, "ratio")
        if share > 0.9:
            report.notes.append(f"WARNING: the load generator used {share:.0%} of its core")
        report.notes.append(f"slices={len(load.slices)} restarts={len(recoveries)}")
        return report

    # Traced run: half the time against the plain server, half traced.
    from tracing import merge_summaries, report_layers

    ckpt_plain = tmp / "plain"
    ckpt_plain.mkdir()
    server, traffic = _setup(workload, seed, ckpt_plain, report, None)
    try:
        plain = Load(traffic, report, next_cpu)
        plain.run(server, time.perf_counter() + seconds / 2)
    finally:
        server.stop()
    ckpt_dir = tmp / "traced"
    ckpt_dir.mkdir()
    traces = trace_dir(workload, seed)
    server, traffic = _setup(workload, seed, ckpt_dir, report, traces / "load.json")
    try:
        traced = Load(traffic, report, next_cpu)
        traced.run(server, time.perf_counter() + seconds / 2)
        load_summary = server.dump_trace()
        answers = _check_and_persist(server, traffic, report)
    except BaseException:
        server.kill()
        raise
    restart_traces = _restarts(server, answers, seed, ckpt_dir, report, traces, next_cpu)
    summary = merge_summaries([load_summary, *restart_traces])
    report_layers(report, summary)
    counters = load_summary["counters"]
    requests = counters.get("service.requests", 0.0) or 1.0
    report.metric("service.server.wait_for_per_request", counters.get("service.server.wait_for", 0.0) / requests, "count")
    report.metric(
        "service.server.metric_lookups_per_request",
        counters.get("service.server.metric_lookups", 0.0) / requests, "count",
    )
    busy_per_request = load_summary["root_busy_s"] / requests
    report.metric(
        "service.server.unaccounted_ms_p50",
        (median(traced.samples("ingest") + traced.samples("query")) - busy_per_request) * 1000.0, "ms",
    )
    report.metric(
        "trace.coverage", load_summary["root_busy_s"] / sum(out["wall"] for out in traced.slices), "ratio",
    )
    report.metric("trace.overhead", plain.rate("requests") / traced.rate("requests"), "ratio")
    report.metric("client.cpu_share", plain.timer.cpu / plain.timer.wall, "ratio")
    return report
