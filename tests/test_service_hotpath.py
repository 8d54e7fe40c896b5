"""The service's per-request pipeline: inline when idle, queued when busy.

An ingest for an idle tenant applies inline, in the same pass of the
event loop that parsed it; a tenant is *busy* while batches are queued
for it or its checkpoint is being written, and only then do its ingests
take the bounded queue.  These tests pin the contract around that split:

* no batch applies while the tenant's checkpoint is being written (the
  executor is serialising that very estimator);
* batches that arrive across a held checkpoint write still apply in
  arrival order, ending bit-identical to a fresh same-seed estimator;
* the queue stays bounded while busy (``overloaded`` with a retry hint);
* an inline ingest still honours its deadline, and an uncontended
  request completes without suspending at all.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import threading

import pytest

from repro.service import QuantileService, ServiceConfig
from repro.service.protocol import parse_line
from repro.service.tenants import TenantRegistry

PHIS = [i / 100 for i in range(1, 100)]


async def _ask(host, port, request, timeout=15.0):
    """One request on its own connection; the decoded response."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(request).encode("utf-8") + b"\n")
        async with asyncio.timeout(timeout):
            await writer.drain()
            line = await reader.readline()
        return json.loads(line)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def _until(predicate, timeout=10.0):
    """Poll ``predicate`` on the loop until it holds (or fail the test)."""
    async with asyncio.timeout(timeout):
        while not predicate():
            await asyncio.sleep(0.002)


def _ingests_seen(service):
    return service.metrics.counter("requests_total", op="ingest").value


def _serve(flow, config):
    async def main():
        service = QuantileService(config)
        host, port = await service.start()
        try:
            return await flow(service, host, port)
        finally:
            await service.shutdown(flush=False)

    return asyncio.run(main())


class _HeldFlush:
    """Replace ``registry.flush`` so its first ``hold`` calls block.

    ``registry.flush`` runs in the executor thread, so the gate is a
    thread event; ``entered`` fires once a held call is inside.
    """

    def __init__(self, registry, hold=1):
        self._real = registry.flush
        self._hold = hold
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        registry.flush = self

    def __call__(self, state):
        self.calls += 1
        if self.calls <= self._hold:
            self.entered.set()
            assert self.release.wait(timeout=30.0)
        return self._real(state)


def _ingest(tenant, values, **extra):
    return {"op": "ingest", "tenant": tenant, "values": list(values), **extra}


def _persist(tenant):
    return {"op": "snapshot", "tenant": tenant, "persist": True}


class TestNoApplyDuringCheckpointWrite:
    def test_ingest_waits_out_a_held_persist(self, tmp_path):
        config = ServiceConfig(
            checkpoint_dir=str(tmp_path), checkpoint_interval=10**9
        )

        async def flow(service, host, port):
            first = await _ask(host, port, _ingest("t", map(float, range(10))))
            assert first["ok"] and first["n"] == 10
            state = service.registry.get("t")
            gate = _HeldFlush(service.registry)
            persist = asyncio.ensure_future(_ask(host, port, _persist("t")))
            await _until(gate.entered.is_set)
            ingest = asyncio.ensure_future(
                _ask(host, port, _ingest("t", map(float, range(10, 20))))
            )
            await _until(lambda: _ingests_seen(service) == 2)
            await asyncio.sleep(0.05)  # room for a wrongly allowed apply
            # The executor is serialising the estimator: hands off.
            assert state.n == 10
            assert not ingest.done()
            gate.release.set()
            persisted, ingested = await persist, await ingest
            assert persisted["ok"] is True
            assert ingested["ok"] is True and ingested["n"] == 20
            # The checkpoint holds exactly the first batch, and the batch
            # applied after it still counts toward the next one.
            assert state.last_good_n == 10
            assert state.since_checkpoint == 10

        _serve(flow, config)

    def test_busy_queue_stays_bounded(self, tmp_path):
        config = ServiceConfig(
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=10**9,
            queue_depth=1,
        )

        async def flow(service, host, port):
            assert (await _ask(host, port, _ingest("t", [1.0])))["ok"]
            gate = _HeldFlush(service.registry)
            persist = asyncio.ensure_future(_ask(host, port, _persist("t")))
            await _until(gate.entered.is_set)
            queued = asyncio.ensure_future(_ask(host, port, _ingest("t", [2.0])))
            await _until(lambda: _ingests_seen(service) == 2)
            shed = await _ask(host, port, _ingest("t", [3.0]))
            assert shed["ok"] is False
            assert shed["error"]["code"] == "overloaded"
            assert shed["error"]["retry_after_ms"] > 0
            gate.release.set()
            assert (await persist)["ok"] is True
            accepted = await queued
            assert accepted["ok"] is True and accepted["n"] == 2
            assert service.registry.get("t").n == 2

        _serve(flow, config)


class TestOrderAcrossHeldIntervalFlush:
    def test_interleaved_batches_match_a_fresh_estimator(self, tmp_path):
        config = ServiceConfig(
            checkpoint_dir=str(tmp_path), checkpoint_interval=64, seed=5
        )
        rng = random.Random(1234)
        batches = [
            [rng.uniform(-1e3, 1e3) for _ in range(40)] for _ in range(10)
        ]

        async def flow(service, host, port):
            gate = _HeldFlush(service.registry)
            acks = []
            for index, batch in enumerate(batches):
                acks.append(asyncio.ensure_future(_ask(host, port, _ingest("t", batch))))
                # Send the next batch only once this one has arrived, so
                # arrival order is batch order.
                await _until(lambda seen=index + 1: _ingests_seen(service) == seen)
            # Batches 0-1 applied inline; batch 1 crossed the interval and
            # started the (held) flush; the other eight wait behind it.
            await _until(gate.entered.is_set)
            state = service.registry.get("t")
            assert state.n == 80
            assert not any(ack.done() for ack in acks[2:])
            gate.release.set()
            responses = await asyncio.gather(*acks)
            assert all(response["ok"] for response in responses)
            assert [response["accepted"] for response in responses] == [40] * 10
            assert state.n == 400
            # The worker exits once its queue is empty: no idle polling.
            await _until(lambda: not service._workers)
            fresh = TenantRegistry(
                None,
                eps=config.eps,
                delta=config.delta,
                master_seed=config.seed,
                backend=service.backend,
            ).get_or_create("t")
            for batch in batches:
                fresh.estimator.update_batch(batch)
            assert state.estimator.to_state_dict() == fresh.estimator.to_state_dict()
            assert state.estimator.query_many(PHIS) == fresh.estimator.query_many(
                PHIS
            )

        _serve(flow, config)


class TestInlinePath:
    def test_expired_deadline_is_refused_and_not_applied(self):
        async def flow(service, host, port):
            assert (await _ask(host, port, _ingest("t", [1.0, 2.0, 3.0])))["ok"]
            late = await _ask(
                host, port, _ingest("t", [4.0, 5.0], deadline_ms=1e-9)
            )
            assert late["ok"] is False
            assert late["error"]["code"] == "deadline_exceeded"
            described = await _ask(host, port, {"op": "snapshot", "tenant": "t"})
            assert described["n"] == 3

        _serve(flow, ServiceConfig())

    @pytest.mark.parametrize(
        "body",
        [
            _ingest("t", [7.0, 8.0]),
            {"op": "query_many", "tenant": "t", "phis": [0.25, 0.75]},
        ],
        ids=["ingest", "query_many"],
    )
    def test_uncontended_request_never_suspends(self, body):
        # One pass of the event loop: the request coroutine runs to
        # completion on its first step, with no queue hop or future.
        async def flow(service, host, port):
            assert (await _ask(host, port, _ingest("t", [1.0, 2.0, 3.0])))["ok"]
            request = parse_line(json.dumps(body).encode("utf-8"))
            step = service._handle_request(request, seq=0)
            with pytest.raises(StopIteration) as finished:
                step.send(None)
            response = finished.value.value
            assert response["ok"] is True
            assert service.registry.get("t").n == (5 if body["op"] == "ingest" else 3)

        _serve(flow, ServiceConfig())
