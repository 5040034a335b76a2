"""Unit tests for the SLO health engine.

Rules are evaluated against a fully injected :class:`SloContext`
(private registry, private slow-op log, fake clock, canned queue and
scheduler views) so every verdict here is deterministic: the tests pin
the threshold semantics (upper vs lower direction, degraded vs
critical ordering), the "no data is ok" contract, the probe-crash →
critical rule, and each default probe's reading of live telemetry.
"""

import math

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.health import (
    EXIT_CODES,
    SloContext,
    SloEngine,
    SloRule,
    default_engine,
    default_rules,
    probe_error_rate,
    probe_p95_request_latency,
    probe_queue_depth,
    probe_scheduler_staleness,
    probe_slow_op_rate,
    worst_verdict,
)
from repro.obs.logging import SlowOpLog


def rule(probe, degraded=1.0, critical=2.0, direction="upper", **kw):
    return SloRule(
        name=kw.pop("name", "r"), description="test rule",
        probe=probe, degraded=degraded, critical=critical,
        direction=direction, **kw,
    )


def context(**kw):
    kw.setdefault("registry", obs_metrics.MetricsRegistry())
    kw.setdefault("slow_ops", SlowOpLog())
    return SloContext(**kw)


class TestVerdictFolding:
    def test_worst_wins(self):
        assert worst_verdict([]) == "ok"
        assert worst_verdict(["ok", "degraded", "ok"]) == "degraded"
        assert worst_verdict(["degraded", "critical"]) == "critical"

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError, match="unknown verdict"):
            worst_verdict(["fine"])

    def test_exit_codes_are_ci_contract(self):
        assert EXIT_CODES == {"ok": 0, "degraded": 1, "critical": 2}


class TestRuleSemantics:
    def test_upper_direction_thresholds(self):
        r = rule(lambda ctx: 0.5)
        assert r.evaluate(context()).verdict == "ok"
        assert rule(lambda ctx: 1.0).evaluate(context()).verdict == "degraded"
        assert rule(lambda ctx: 2.5).evaluate(context()).verdict == "critical"

    def test_lower_direction_inverts(self):
        r = rule(
            lambda ctx: 0.5, degraded=1.0, critical=0.1, direction="lower"
        )
        assert r.evaluate(context()).verdict == "degraded"
        assert rule(
            lambda ctx: 5.0, degraded=1.0, critical=0.1, direction="lower"
        ).evaluate(context()).verdict == "ok"
        assert rule(
            lambda ctx: 0.05, degraded=1.0, critical=0.1, direction="lower"
        ).evaluate(context()).verdict == "critical"

    def test_no_data_is_ok(self):
        verdict = rule(lambda ctx: None).evaluate(context())
        assert verdict.verdict == "ok"
        assert "no data" in verdict.reason

    def test_probe_crash_is_critical(self):
        def broken(ctx):
            raise RuntimeError("boom")

        verdict = rule(broken).evaluate(context())
        assert verdict.verdict == "critical"
        assert "probe failed" in verdict.reason

    def test_breach_reason_names_the_threshold(self):
        verdict = rule(lambda ctx: 1.5, name="latency").evaluate(context())
        assert verdict.verdict == "degraded"
        assert "latency" in verdict.reason
        assert "1.5" in verdict.reason and "1" in verdict.reason

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError, match="severe"):
            rule(lambda ctx: 0, degraded=2.0, critical=1.0)
        with pytest.raises(ValueError, match="severe"):
            rule(
                lambda ctx: 0, degraded=0.1, critical=1.0,
                direction="lower",
            )

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            rule(lambda ctx: 0, direction="middle")

    def test_infinite_value_serialises_as_null(self):
        verdict = rule(lambda ctx: math.inf).evaluate(context())
        assert verdict.verdict == "critical"
        assert verdict.to_dict()["value"] is None


class TestEngine:
    def test_report_folds_and_carries_reasons(self):
        engine = SloEngine([
            rule(lambda ctx: 0.1, name="a"),
            rule(lambda ctx: 1.5, name="b"),
        ])
        report = engine.evaluate(context())
        assert report.verdict == "degraded"
        assert report.exit_code == 1
        assert len(report.reasons) == 1 and "b" in report.reasons[0]
        payload = report.to_dict()
        assert payload["verdict"] == "degraded"
        assert [r["rule"] for r in payload["rules"]] == ["a", "b"]

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloEngine([rule(lambda ctx: 0), rule(lambda ctx: 0)])

    def test_render_lists_every_rule(self):
        engine = default_engine()
        text = engine.evaluate(context()).render()
        for r in default_rules():
            assert r.name in text

    def test_default_engine_on_empty_telemetry_is_ok(self):
        report = default_engine().evaluate(context())
        assert report.verdict == "ok"
        assert report.exit_code == 0

    def test_threshold_overrides_flow_through(self):
        engine = default_engine(queue_depth_degraded=1,
                                queue_depth_critical=2)
        report = engine.evaluate(context(queue_depth=lambda: 1))
        assert report.verdict == "degraded"


class TestDefaultProbes:
    def test_p95_latency_reads_the_request_histogram(self):
        registry = obs_metrics.MetricsRegistry()
        hist = registry.histogram(
            "repro_http_request_seconds", "Latency",
            buckets=(0.1, 1.0, 10.0), labels=("route",),
        )
        for _ in range(100):
            hist.labels(route="/jobs").observe(5.0)
        value = probe_p95_request_latency(context(registry=registry))
        assert 1.0 < value <= 10.0

    def test_p95_latency_none_without_traffic(self):
        assert probe_p95_request_latency(context()) is None

    def test_p95_latency_ignores_blocking_by_design_routes(self):
        # SSE streams and the profiler's sampling window block on
        # purpose; their durations must not trip the SLO.
        registry = obs_metrics.MetricsRegistry()
        hist = registry.histogram(
            "repro_http_request_seconds", "Latency", labels=("route",),
        )
        for route in ("/debug/profile", "/jobs/<id>/events"):
            for _ in range(100):
                hist.labels(route=route).observe(25.0)
        for _ in range(100):
            hist.labels(route="/results").observe(0.01)
        value = probe_p95_request_latency(context(registry=registry))
        assert value is not None and value < 0.5

    def test_p95_latency_counts_job_status_reads(self):
        # GET /jobs/<id> answers at once (no long-poll), so a slow
        # status read is server saturation and must count.
        registry = obs_metrics.MetricsRegistry()
        hist = registry.histogram(
            "repro_http_request_seconds", "Latency",
            buckets=(0.1, 1.0, 10.0), labels=("route",),
        )
        for _ in range(100):
            hist.labels(route="/jobs/<id>").observe(5.0)
        value = probe_p95_request_latency(context(registry=registry))
        assert value is not None and 1.0 < value <= 10.0

    def test_p95_latency_all_blocking_traffic_reads_no_data(self):
        registry = obs_metrics.MetricsRegistry()
        hist = registry.histogram(
            "repro_http_request_seconds", "Latency", labels=("route",),
        )
        hist.labels(route="/debug/profile").observe(25.0)
        assert probe_p95_request_latency(context(registry=registry)) is None

    def test_p95_latency_drives_the_default_rule_into_degraded(self):
        # The acceptance scenario: sustained slow requests flip the
        # latency rule while everything else stays quiet.
        registry = obs_metrics.MetricsRegistry()
        hist = registry.histogram(
            "repro_http_request_seconds", "Latency", labels=("route",),
        )
        for _ in range(50):
            hist.labels(route="/results").observe(0.9)
        report = default_engine().evaluate(context(registry=registry))
        assert report.verdict == "degraded"
        assert any(
            "p95_request_latency" in reason for reason in report.reasons
        )

    def test_error_rate_counts_5xx_share(self):
        registry = obs_metrics.MetricsRegistry()
        counter = registry.counter(
            "repro_http_requests_total", "Requests",
            labels=("route", "method", "status"),
        )
        for _ in range(90):
            counter.labels(route="/jobs", method="GET", status="200").inc()
        for _ in range(10):
            counter.labels(route="/jobs", method="GET", status="500").inc()
        value = probe_error_rate(context(registry=registry))
        assert value == pytest.approx(0.1)

    def test_error_rate_ignores_4xx(self):
        registry = obs_metrics.MetricsRegistry()
        counter = registry.counter(
            "repro_http_requests_total", "Requests",
            labels=("route", "method", "status"),
        )
        counter.labels(route="/jobs", method="GET", status="404").inc(10)
        assert probe_error_rate(context(registry=registry)) == 0.0

    def test_error_rate_none_without_traffic(self):
        assert probe_error_rate(context()) is None

    def test_queue_depth_passthrough(self):
        assert probe_queue_depth(context(queue_depth=lambda: 7)) == 7.0
        assert probe_queue_depth(context()) is None

    def test_staleness_takes_freshest_live_scheduler(self):
        ctx = context(schedulers=lambda: [
            {"alive": True, "staleness_s": 3.0},
            {"alive": True, "staleness_s": 90.0},
        ])
        assert probe_scheduler_staleness(ctx) == 3.0

    def test_staleness_all_dead_is_infinite(self):
        ctx = context(schedulers=lambda: [
            {"alive": False, "staleness_s": 1.0},
        ])
        assert probe_scheduler_staleness(ctx) == math.inf
        report = default_engine().evaluate(ctx)
        assert report.verdict == "critical"

    def test_staleness_none_without_a_fleet(self):
        assert probe_scheduler_staleness(context()) is None

    def test_slow_op_rate_windows_recent_entries(self):
        slow = SlowOpLog()
        now = 1000.0
        for _ in range(3):
            slow.maybe_record("op", 1.0, threshold_s=0.0)
        # maybe_record stamps real wall time; rewrite the ages for
        # determinism (5s and 30s inside the 60s window, 120s outside).
        for entry, age in zip(slow._entries, (5.0, 30.0, 120.0)):
            entry["at"] = now - age
        ctx = context(slow_ops=slow, now=lambda: now)
        assert probe_slow_op_rate(ctx) == pytest.approx(2.0)
