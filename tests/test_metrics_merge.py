"""Fleet ``/metrics``: how per-worker gauges combine into one payload."""

from __future__ import annotations

from repro.service.metrics import MetricRegistry, merge_metric_payloads


def _merged(*registries: MetricRegistry) -> dict:
    return merge_metric_payloads(
        {worker: registry.to_dict() for worker, registry in enumerate(registries)}
    )


class TestGaugeAggregation:
    def test_recovery_ms_is_the_slowest_worker_not_the_total(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.gauge("recovery_ms").set(300.0)
        b.gauge("recovery_ms").set(300.0)
        assert _merged(a, b)["gauges"]["recovery_ms"] == 300.0
        b.gauge("recovery_ms").set(450.0)
        assert _merged(a, b)["gauges"]["recovery_ms"] == 450.0

    def test_tenant_counts_and_breakers_sum(self):
        a, b = MetricRegistry(), MetricRegistry()
        for registry, restored in ((a, 3), (b, 4)):
            registry.gauge("tenants_restored").set(restored)
            registry.gauge("tenants_fallback_generation").set(1)
            registry.gauge("breaker_open", tenant="t").set(1.0)
        gauges = _merged(a, b)["gauges"]
        assert gauges["tenants_restored"] == 7.0
        assert gauges["tenants_fallback_generation"] == 2.0
        assert gauges['breaker_open{tenant="t"}'] == 2.0
