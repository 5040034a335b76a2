"""Declarative SLO rules: raw telemetry in, ``ok/degraded/critical`` out.

PR 7 gave the stack numbers; this module judges them.  An
:class:`SloRule` names one health dimension, a *probe* that reads the
current value from live telemetry (the metrics registry, the slow-op
log, queue/scheduler state handed over in an :class:`SloContext`), and
two thresholds.  The :class:`SloEngine` evaluates every rule and folds
the per-rule verdicts into one overall verdict with human-readable
reasons — the shape served by ``GET /slo``, embedded in ``/healthz``,
and turned into an exit code by ``repro health`` (0 ok / 1 degraded /
2 critical), which makes degradation detection CI- and cron-usable.

Probes *observe* rather than create: a metric that was never
registered reads as "no data", which is ``ok`` — a fresh service is
healthy, not broken.  The default rule set watches the five signals
that precede every production incident this service could have:

* p95 HTTP request latency (histogram-quantile over the cumulative
  buckets of ``repro_http_request_seconds``);
* HTTP 5xx error rate (share of ``repro_http_requests_total``);
* queue depth (jobs sitting in ``queued``);
* scheduler staleness (seconds since *any* live scheduler showed a
  sign of life — a dead/wedged scheduler fleet is critical);
* slow-op rate (storage/queue ops over the slow threshold per minute).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from . import metrics as obs_metrics
from .logging import get_slow_op_log, log_event

__all__ = [
    "HealthReport",
    "RuleVerdict",
    "SloContext",
    "SloEngine",
    "SloRule",
    "VERDICTS",
    "default_engine",
    "worst_verdict",
]

#: severity order; folding takes the maximum.
VERDICTS = ("ok", "degraded", "critical")

EXIT_CODES = {"ok": 0, "degraded": 1, "critical": 2}


def worst_verdict(verdicts) -> str:
    """The most severe of ``verdicts`` (empty folds to ``ok``)."""
    worst = "ok"
    for verdict in verdicts:
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if VERDICTS.index(verdict) > VERDICTS.index(worst):
            worst = verdict
    return worst


@dataclass
class SloContext:
    """Everything a probe may read, injected so rules stay testable.

    ``queue_depth`` / ``schedulers`` are callables: the engine samples
    them at evaluation time, and a service wires them to its live
    queue/scheduler objects.  ``schedulers`` returns one dict per
    hosted scheduler: ``{"alive": bool, "staleness_s": float}``.
    """

    registry: obs_metrics.MetricsRegistry | None = None
    slow_ops: object | None = None
    now: Callable[[], float] = time.time
    queue_depth: Callable[[], int | None] = lambda: None
    schedulers: Callable[[], list[dict]] = lambda: []

    def get_registry(self) -> obs_metrics.MetricsRegistry:
        return self.registry or obs_metrics.get_registry()

    def get_slow_ops(self):
        return self.slow_ops or get_slow_op_log()


@dataclass(frozen=True)
class SloRule:
    """One health dimension.

    ``direction="upper"`` means bigger values are worse (latency,
    depth); ``"lower"`` inverts the comparison.  A probe returning
    ``None`` means "no data", which evaluates ``ok``.
    """

    name: str
    description: str
    probe: Callable[[SloContext], float | None]
    degraded: float
    critical: float
    unit: str = ""
    direction: str = "upper"

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ValueError(
                f"direction must be 'upper' or 'lower', "
                f"got {self.direction!r}"
            )
        bad = (
            self.critical < self.degraded
            if self.direction == "upper"
            else self.critical > self.degraded
        )
        if bad:
            raise ValueError(
                f"{self.name}: critical threshold must be at least as "
                f"severe as degraded"
            )

    def evaluate(self, context: SloContext) -> "RuleVerdict":
        try:
            value = self.probe(context)
        except Exception as err:  # a broken probe is itself a signal
            log_event("slo_probe_error", rule=self.name, error=str(err))
            return RuleVerdict(
                rule=self, verdict="critical", value=None,
                reason=f"{self.name}: probe failed: {err}",
            )
        if value is None:
            return RuleVerdict(
                rule=self, verdict="ok", value=None,
                reason=f"{self.name}: no data",
            )
        value = float(value)
        breached = (
            (lambda threshold: value >= threshold)
            if self.direction == "upper"
            else (lambda threshold: value <= threshold)
        )
        if breached(self.critical):
            verdict = "critical"
        elif breached(self.degraded):
            verdict = "degraded"
        else:
            verdict = "ok"
        shown = "inf" if math.isinf(value) else f"{value:g}"
        comparator = ">=" if self.direction == "upper" else "<="
        threshold = (
            self.critical if verdict == "critical" else self.degraded
        )
        reason = (
            f"{self.name}: {shown}{self.unit}"
            if verdict == "ok"
            else (
                f"{self.name}: {shown}{self.unit} {comparator} "
                f"{verdict} threshold {threshold:g}{self.unit}"
            )
        )
        return RuleVerdict(
            rule=self, verdict=verdict, value=value, reason=reason
        )


@dataclass
class RuleVerdict:
    rule: SloRule
    verdict: str
    value: float | None
    reason: str

    def to_dict(self) -> dict:
        value = self.value
        if value is not None and math.isinf(value):
            value = None  # JSON has no Infinity
        return {
            "rule": self.rule.name,
            "description": self.rule.description,
            "verdict": self.verdict,
            "value": value,
            "unit": self.rule.unit,
            "degraded": self.rule.degraded,
            "critical": self.rule.critical,
            "direction": self.rule.direction,
            "reason": self.reason,
        }


@dataclass
class HealthReport:
    """Every rule's verdict plus the fold — what ``GET /slo`` serves."""

    verdicts: list[RuleVerdict] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return worst_verdict(v.verdict for v in self.verdicts)

    @property
    def reasons(self) -> list[str]:
        """Reasons for every non-ok rule (empty when healthy)."""
        return [v.reason for v in self.verdicts if v.verdict != "ok"]

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reasons": self.reasons,
            "rules": [v.to_dict() for v in self.verdicts],
        }

    def render(self) -> str:
        lines = [f"slo verdict: {self.verdict.upper()}"]
        for reason in self.reasons:
            lines.append(f"  !! {reason}")
        for v in self.verdicts:
            value = (
                "no data" if v.value is None
                else "inf" if math.isinf(v.value)
                else f"{v.value:g}{v.rule.unit}"
            )
            lines.append(
                f"  [{v.verdict:8s}] {v.rule.name:24s} {value:>12s}  "
                f"(degraded {v.rule.degraded:g}{v.rule.unit}, "
                f"critical {v.rule.critical:g}{v.rule.unit})"
            )
        return "\n".join(lines)


class SloEngine:
    """Evaluate a rule set against live telemetry."""

    def __init__(self, rules: list[SloRule]):
        names = [r.name for r in rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names: {names}")
        self.rules = list(rules)

    def evaluate(self, context: SloContext | None = None) -> HealthReport:
        context = context or SloContext()
        return HealthReport(
            verdicts=[rule.evaluate(context) for rule in self.rules]
        )


# -- default probes ------------------------------------------------------


#: Routes whose duration measures client patience, not server
#: saturation: the profiler sleeps for its sampling window and the SSE
#: stream stays open for the job's lifetime.  Counting them would trip
#: the latency SLO on perfectly normal usage.
BLOCKING_ROUTES = frozenset({"/debug/profile", "/jobs/<id>/events"})


def probe_p95_request_latency(context: SloContext) -> float | None:
    histogram = context.get_registry().get("repro_http_request_seconds")
    if histogram is None or not isinstance(histogram, obs_metrics.Histogram):
        return None
    try:
        route_index = histogram.label_names.index("route")
    except ValueError:
        return histogram.quantile(0.95)
    combined = [0] * (len(histogram.buckets) + 1)
    for values, child in histogram.series():
        if values[route_index] in BLOCKING_ROUTES:
            continue
        for i, count in enumerate(child.cumulative()):
            combined[i] += count
    return obs_metrics.quantile_from_buckets(
        histogram.buckets, combined, 0.95
    )


def probe_error_rate(context: SloContext) -> float | None:
    """Share of requests answered 5xx (client errors are the client's
    problem).  ``None`` until any request was served."""
    requests = context.get_registry().get("repro_http_requests_total")
    if requests is None or not isinstance(requests, obs_metrics.Counter):
        return None
    try:
        status_index = requests.label_names.index("status")
    except ValueError:
        return None
    total = errors = 0.0
    for values, child in requests.series():
        total += child.value
        if values[status_index].startswith("5"):
            errors += child.value
    if total <= 0:
        return None
    return errors / total


def probe_queue_depth(context: SloContext) -> float | None:
    depth = context.queue_depth()
    return None if depth is None else float(depth)


def probe_scheduler_staleness(context: SloContext) -> float | None:
    """Seconds since the freshest *live* scheduler did anything; every
    scheduler dead (or none hosted where some were expected) is
    infinite staleness — immediately critical."""
    schedulers = context.schedulers()
    if not schedulers:
        return None  # no scheduler fleet (pure read replica): no rule
    fresh = [
        s.get("staleness_s", math.inf)
        for s in schedulers if s.get("alive")
    ]
    if not fresh:
        return math.inf
    return float(min(fresh))


def probe_slow_op_rate(
    context: SloContext, window_s: float = 60.0
) -> float | None:
    """Slow storage/queue ops per minute over the trailing window."""
    now = context.now()
    entries = context.get_slow_ops().entries()
    recent = [
        e for e in entries if now - e.get("at", 0.0) <= window_s
    ]
    return len(recent) * (60.0 / window_s)


def default_rules(
    latency_degraded_s: float = 0.5,
    latency_critical_s: float = 2.0,
    error_rate_degraded: float = 0.01,
    error_rate_critical: float = 0.10,
    queue_depth_degraded: int = 25,
    queue_depth_critical: int = 200,
    staleness_degraded_s: float = 30.0,
    staleness_critical_s: float = 120.0,
    slow_ops_degraded_per_min: float = 6.0,
    slow_ops_critical_per_min: float = 60.0,
) -> list[SloRule]:
    return [
        SloRule(
            name="p95_request_latency",
            description="95th-percentile HTTP request latency "
            "(histogram estimate over cumulative buckets)",
            probe=probe_p95_request_latency,
            degraded=latency_degraded_s,
            critical=latency_critical_s,
            unit="s",
        ),
        SloRule(
            name="error_rate",
            description="share of HTTP requests answered 5xx",
            probe=probe_error_rate,
            degraded=error_rate_degraded,
            critical=error_rate_critical,
        ),
        SloRule(
            name="queue_depth",
            description="jobs waiting in the queue",
            probe=probe_queue_depth,
            degraded=float(queue_depth_degraded),
            critical=float(queue_depth_critical),
        ),
        SloRule(
            name="scheduler_staleness",
            description="seconds since any live scheduler showed a "
            "sign of life (loop tick or lease heartbeat)",
            probe=probe_scheduler_staleness,
            degraded=staleness_degraded_s,
            critical=staleness_critical_s,
            unit="s",
        ),
        SloRule(
            name="slow_op_rate",
            description="storage/queue ops over the slow threshold, "
            "per minute",
            probe=probe_slow_op_rate,
            degraded=slow_ops_degraded_per_min,
            critical=slow_ops_critical_per_min,
            unit="/min",
        ),
    ]


def default_engine(**thresholds) -> SloEngine:
    """The stock five-rule engine; keyword overrides tune thresholds
    (see :func:`default_rules`)."""
    return SloEngine(default_rules(**thresholds))
