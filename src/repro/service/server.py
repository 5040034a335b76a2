"""Stdlib-only HTTP API over the job queue and scheduler.

``http.server.ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` — no
framework, no new dependencies.  Endpoints:

``POST /jobs``
    Submit a sweep.  JSON body is either a registry grid reference
    (``{"grid": "table3", "params": {...}}``) or inline specs
    (``{"specs": [<ScenarioSpec.to_dict()>, ...]}``), plus an optional
    integer ``priority``.  Responds with the job dict and an
    ``outcome`` of ``queued`` / ``duplicate`` / ``from_store``.

``GET /jobs``
    All jobs, newest last.

``GET /jobs/<id>``
    One job's status with per-node progress; answers at once.  A
    finished job's response embeds its scenario records.  To wait for
    a job, stream ``/jobs/<id>/events``; the removed ``wait`` long-poll
    query parameter is rejected with a 400 that says so.

``GET /jobs/<id>/events``
    Server-sent event stream of the job's lifecycle: ``submitted``,
    ``node``, ``progress``, then exactly one terminal ``done`` /
    ``failed`` / ``cancelled`` event, after which the stream closes.
    In-process scheduler events arrive push-fashion (no polling loop);
    a job worked by a *peer* process on the shared journal degrades to
    queue-state polling inside the same stream.  Idle periods carry
    ``: keepalive`` comment frames.

``DELETE /jobs/<id>``
    Cancel a queued or running job.  Responds with an ``outcome`` of
    ``cancelled`` (the cancellation took effect — the scheduler will
    not dispatch any of the job's pending nodes) or ``noop`` (the job
    was already terminal), plus the job view.

``GET /results?design=&split_layer=&attack=&defense=&tag=&status=``
    Query the results store (:meth:`ResultsStore.query`) without
    running anything.  ``limit`` / ``offset`` / ``order=asc|desc``
    paginate; the response carries ``records`` plus the ``total``
    match count, and the filters/pagination push down into the storage
    backend instead of materialising the full history per request.

``GET /healthz``
    Liveness + queue/scheduler counters, including one entry per
    hosted scheduler (worker id, alive, active jobs, heartbeats) and
    one per live lease (claimant, age, time to expiry) — how an
    operator sees a dead scheduler's jobs being picked up by a peer.
    Carries the SLO engine's overall verdict and reasons under
    ``slo`` — the numbers *judged*, not just reported.

``GET /slo``
    The full SLO report: per-rule ``ok/degraded/critical`` verdicts
    with current values, thresholds and human-readable reasons,
    evaluated live against the metrics registry, slow-op log and
    queue/scheduler state.  ``repro health`` turns this into an exit
    code (0/1/2) for CI and cron probes.

``GET /debug/profile?seconds=N&hz=H``
    Run the stdlib sampling profiler for ``seconds`` (default 1,
    capped) and return collapsed flame-compatible stacks with sample
    counts — "where is the service spending time *right now*",
    answered without restarting anything.

The service can host several scheduler threads (``schedulers=N`` /
``repro serve --schedulers N``); they share one journal, one results
store and one store lock, and cooperate through the queue's lease
protocol — as does a *second* ``repro serve`` process pointed at the
same journal.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from queue import Empty, SimpleQueue
from urllib.parse import parse_qs, urlsplit

from ..experiments.registry import build_grid
from ..experiments.spec import ScenarioSpec
from ..experiments.store import ResultsStore
from ..obs import health as obs_health
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.logging import get_slow_op_log, log_event, set_log_sink
from ..obs.profile import DEFAULT_HZ, SamplingProfiler
from .queue import DEFAULT_COMPACT_TTL_S, DEFAULT_LEASE_S, Job, JobQueue
from .scheduler import SweepScheduler

MAX_BODY_BYTES = 8 * 1024 * 1024
#: /debug/profile bounds: the handler thread blocks for the window, so
#: both knobs are capped against griefing a shared service.
MAX_PROFILE_S = 30.0
MAX_PROFILE_HZ = 250.0
MAX_PROFILE_STACKS = 200
#: Listen backlog of the HTTP socket.  socketserver's default (5) drops
#: connection attempts beyond it when many clients connect at once, and
#: each dropped client only gets in on its SYN retry about a second
#: later, which is what a p99 then measures.
LISTEN_BACKLOG = 128


class _ServiceHTTPServer(ThreadingHTTPServer):
    request_queue_size = LISTEN_BACKLOG


def _http_metrics():
    return (
        obs_metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route template / method / status",
            labels=("route", "method", "status"),
        ),
        obs_metrics.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency by route template and method",
            labels=("route", "method"),
        ),
    )


class ServiceError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _client_number(value, convert, what: str):
    """Convert a client-supplied value, turning bad input into a 400
    (never a 500 from the catch-all handler)."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ServiceError(400, f"{what} must be a number, got {value!r}") \
            from None


class AttackService:
    """Queue + scheduler + HTTP front-end, wired together.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after construction) — how the tests and the in-process benchmark
    run without colliding.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: ResultsStore | None = None,
        queue_path=None,
        workers: int | None = None,
        progress=None,
        compact_ttl_s: float | None = DEFAULT_COMPACT_TTL_S,
        schedulers: int = 1,
        lease_s: float = DEFAULT_LEASE_S,
        poll_interval: float = 0.25,
        clock=None,
        log_json: bool = False,
        slo_engine: obs_health.SloEngine | None = None,
    ):
        self.log_json = log_json
        # The SLO engine judges live telemetry on every /slo and
        # /healthz read; injectable so deployments can tune thresholds
        # or add rules without forking the service.
        self.slo_engine = (
            slo_engine if slo_engine is not None
            else obs_health.default_engine()
        )
        if log_json:
            # One JSON line per request/node/lease event on stdout,
            # each carrying the trace id it belongs to.
            set_log_sink("stdout")
        self.store = store if store is not None else ResultsStore()
        self.queue = JobQueue(queue_path, clock=clock)
        # Startup maintenance: bound the journal's growth by dropping
        # terminal jobs past the TTL (0.0 = drop all terminal jobs,
        # None = keep the journal as-is).  Compaction is safe only when
        # one process owns the journal — the rewrite loses events a
        # *second* process appends mid-replace — so it is skipped when
        # any job is running under a live lease: startup recovery just
        # requeued every expired one, so a surviving claim means a peer
        # service is working this journal right now.  (`repro serve
        # --no-compact` skips unconditionally.)
        self.compaction_skipped = (
            compact_ttl_s is not None and bool(self.queue.running())
        )
        self.compacted_jobs = (
            self.queue.compact(compact_ttl_s)
            if compact_ttl_s is not None and not self.compaction_skipped
            else 0
        )
        # N scheduler threads cooperating through the lease protocol.
        # Worker ids self-generate (pid + process-wide counter) so two
        # services in one process — or two processes on one journal —
        # never collide.  One store lock spans them all: HTTP readers
        # and every scheduler's writes serialise on it.
        store_lock = threading.Lock()
        # Per-job event bus behind the SSE endpoint: scheduler threads
        # publish, each open stream subscribes one SimpleQueue.
        self._watchers: dict[str, list[SimpleQueue]] = {}
        self._watch_lock = threading.Lock()
        self._closing = False
        self.schedulers = [
            SweepScheduler(
                self.queue,
                self.store,
                workers=workers,
                progress=progress,
                store_lock=store_lock,
                lease_s=lease_s,
                poll_interval=poll_interval,
                on_job_event=self._publish_job_event,
            )
            for _ in range(max(1, int(schedulers)))
        ]
        handler = type(
            "BoundServiceHandler", (ServiceHandler,), {"service": self}
        )
        self.httpd = _ServiceHTTPServer((host, port), handler)
        self.host, self.port = self.httpd.server_address[:2]
        self._http_thread: threading.Thread | None = None
        # Jobs we already re-read the store for (cross-process record
        # fetch); bounds job_status to one reload per job.
        self._reloaded_for: set[str] = set()

    @property
    def scheduler(self) -> SweepScheduler:
        """The first hosted scheduler (single-scheduler call sites)."""
        return self.schedulers[0]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "AttackService":
        for scheduler in self.schedulers:
            scheduler.start()
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def stop(self) -> None:
        self._closing = True  # open SSE streams wind down promptly
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(5.0)
            self._http_thread = None
        for scheduler in self.schedulers:
            scheduler.stop()

    def __enter__(self) -> "AttackService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request-level operations (also the in-process test surface) ---
    def submit_payload(self, payload: dict) -> dict:
        if not isinstance(payload, dict):
            raise ServiceError(400, "body must be a JSON object")
        priority = _client_number(
            payload.get("priority", 0), int, "priority"
        )
        if payload.get("grid"):
            params = payload.get("params") or {}
            if not isinstance(params, dict):
                raise ServiceError(400, "params must be an object")
            try:
                specs = build_grid(payload["grid"], **params)
            except (KeyError, TypeError, ValueError) as err:
                raise ServiceError(400, str(err)) from None
            source = {"grid": payload["grid"], "params": params}
        elif payload.get("specs"):
            try:
                specs = [
                    ScenarioSpec.from_dict(s) for s in payload["specs"]
                ]
            except (KeyError, TypeError, ValueError) as err:
                raise ServiceError(400, f"bad spec: {err}") from None
            source = {"specs": len(specs)}
        else:
            raise ServiceError(400, "submit either 'grid' or 'specs'")
        if not specs:
            raise ServiceError(400, "job expands to 0 scenarios")
        job, outcome = self.queue.submit(
            specs, priority=priority, source=source, store=self.store
        )
        return {"outcome": outcome, "job": self._job_view(job)}

    def job_status(self, job_id: str) -> dict:
        job = self.queue.get(job_id)
        if job is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        view = self._job_view(job)
        if job.status == "done":
            with self.scheduler.store_lock:
                records = [
                    self.store.get(h) for h in job.spec_hashes
                ]
                if (
                    any(r is None for r in records)
                    and job_id not in self._reloaded_for
                ):
                    # The job finished in *another* service process on
                    # the shared journal: its records are on disk but
                    # not in this process's store view yet.  At most
                    # one reload per job — a record that is *still*
                    # missing afterwards is permanently gone, and
                    # status polls must not re-read the store forever.
                    self._reloaded_for.add(job_id)
                    self.store.reload()
                    records = [
                        self.store.get(h) for h in job.spec_hashes
                    ]
            view["records"] = [
                r.to_dict() for r in records if r is not None
            ]
        return view

    def cancel_job(self, job_id: str) -> dict:
        job = self.queue.get(job_id)
        if job is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        cancelled = self.queue.cancel(job_id)
        if cancelled:
            self._publish_job_event(job_id, "cancelled", "cancelled", {})
        return {
            "outcome": "cancelled" if cancelled else "noop",
            "job": self._job_view(self.queue.get(job_id)),
        }

    # -- job event streaming -------------------------------------------
    #: SSE fallback-poll chunk; also bounds keepalive frame spacing.
    STREAM_POLL_S = 0.25

    def _publish_job_event(
        self, job_id: str, kind: str, message: str, data: dict
    ) -> None:
        """Scheduler-side ``on_job_event`` hook: fan the event out to
        every open stream for the job (no watchers -> no cost)."""
        with self._watch_lock:
            targets = list(self._watchers.get(job_id, ()))
        if not targets:
            return
        event = {
            "kind": kind, "message": message,
            "job_id": job_id, "data": dict(data or {}),
        }
        for subscription in targets:
            subscription.put(event)

    def _subscribe(self, job_id: str) -> SimpleQueue:
        subscription = SimpleQueue()
        with self._watch_lock:
            self._watchers.setdefault(job_id, []).append(subscription)
        return subscription

    def _unsubscribe(self, job_id: str, subscription: SimpleQueue) -> None:
        with self._watch_lock:
            watchers = self._watchers.get(job_id, [])
            if subscription in watchers:
                watchers.remove(subscription)
            if not watchers:
                self._watchers.pop(job_id, None)

    def _terminal_event(self, job: Job) -> dict:
        data = {
            "status": job.status,
            "nodes_done": job.nodes_done,
            "nodes_total": job.nodes_total,
            "reused": job.reused,
        }
        if job.status == "failed":
            data["error"] = job.error
            return {
                "kind": "failed", "message": job.error or "failed",
                "job_id": job.job_id, "data": data,
            }
        if job.status == "cancelled":
            return {
                "kind": "cancelled", "message": "cancelled",
                "job_id": job.job_id, "data": data,
            }
        return {
            "kind": "done",
            "message": f"done ({job.nodes_done} nodes)",
            "job_id": job.job_id, "data": data,
        }

    def job_events(self, job_id: str):
        """Generator of one job's lifecycle events (the SSE feed).

        Yields event dicts — an initial ``submitted`` snapshot, then
        scheduler-published ``node``/``progress`` events, ending with
        exactly one terminal event — and ``None`` as a keepalive when a
        poll chunk passes quietly.  In-process events arrive through
        the bus with no polling; the queue-state poll underneath only
        does the work when a *peer* process owns the job (its events
        never reach this process's bus) and dedups against whatever the
        bus already delivered.
        """
        # Subscribe before the snapshot: a terminal event published
        # between the two would otherwise reach no one, and the stream
        # would sit out a quiet poll chunk before noticing.
        subscription = self._subscribe(job_id)
        try:
            job = self.queue.get(job_id)
            if job is None:
                raise ServiceError(404, f"unknown job {job_id!r}")
            yield {
                "kind": "submitted",
                "message": (
                    f"{job.status}: {job.job_id} "
                    f"({len(job.spec_hashes)} scenarios)"
                ),
                "job_id": job_id,
                "data": {
                    "status": job.status,
                    "n_scenarios": len(job.spec_hashes),
                },
            }
            if job.done:
                yield self._terminal_event(job)
                return
            last = (job.nodes_done, job.nodes_total, job.reused)
            while not self._closing:
                try:
                    event = subscription.get(timeout=self.STREAM_POLL_S)
                except Empty:
                    event = None
                if event is not None:
                    if event["kind"] == "progress":
                        counters = (
                            event["data"].get("nodes_done"),
                            event["data"].get("nodes_total"),
                            event["data"].get("reused"),
                        )
                        if counters == last:
                            continue
                        last = counters
                    yield event
                    if event["kind"] in ("done", "failed", "cancelled"):
                        return
                    continue
                # Quiet chunk: consult the shared queue for transitions
                # made by peer processes, then keep the stream alive.
                job = self.queue.get(job_id)
                if job is None:
                    return  # journal compacted from under the stream
                counters = (job.nodes_done, job.nodes_total, job.reused)
                if job.nodes_total is not None and counters != last:
                    last = counters
                    yield {
                        "kind": "progress",
                        "message": (
                            f"{job.nodes_done}/{job.nodes_total} nodes"
                        ),
                        "job_id": job_id,
                        "data": {
                            "nodes_done": job.nodes_done,
                            "nodes_total": job.nodes_total,
                            "reused": job.reused,
                        },
                    }
                if job.done:
                    yield self._terminal_event(job)
                    return
                yield None
        finally:
            self._unsubscribe(job_id, subscription)

    def query_results(self, query: dict) -> dict:
        def one(name):
            values = query.get(name)
            return values[0] if values else None

        split_layer = one("split_layer")
        if split_layer is not None:
            split_layer = _client_number(split_layer, int, "split_layer")
        limit = one("limit")
        if limit is not None:
            limit = max(0, _client_number(limit, int, "limit"))
        offset = one("offset")
        offset = (
            0 if offset is None
            else max(0, _client_number(offset, int, "offset"))
        )
        order = one("order") or "asc"
        if order not in ("asc", "desc"):
            raise ServiceError(
                400, f"order must be 'asc' or 'desc', got {order!r}"
            )
        filters = dict(
            design=one("design"),
            split_layer=split_layer,
            attack=one("attack"),
            defense_kind=one("defense"),
            tag=one("tag"),
            status=one("status"),
        )
        with self.scheduler.store_lock:
            total = self.store.count(**filters)
            records = self.store.query(
                **filters, limit=limit, offset=offset, order=order
            )
        return {
            "records": [r.to_dict() for r in records],
            "total": total,
            "limit": limit,
            "offset": offset,
            "order": order,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics``.

        Queue/store depth gauges are sampled here — at scrape time —
        rather than maintained on every transition, so the hot queue
        paths never pay for them.
        """
        jobs = self.queue.jobs()
        depth = obs_metrics.gauge(
            "repro_queue_depth",
            "Jobs currently in the journal by status",
            labels=("status",),
        )
        counts = {"queued": 0, "running": 0, "done": 0,
                  "failed": 0, "cancelled": 0}
        for job in jobs:
            counts[job.status] = counts.get(job.status, 0) + 1
        for status, n in counts.items():
            depth.labels(status=status).set(n)
        obs_metrics.gauge(
            "repro_store_records",
            "Latest-wins records in the results store",
        ).set(len(self.store))
        obs_metrics.gauge(
            "repro_schedulers_alive",
            "Scheduler threads currently dispatching",
        ).set(sum(1 for s in self.schedulers if s.alive))
        return obs_metrics.get_registry().render()

    def debug_traces(self, query: dict) -> dict:
        """``GET /debug/traces``: one job's (or raw trace id's) spans
        still resident in the ring buffer, plus rendered views; with no
        selector, the resident trace ids."""
        def one(name):
            values = query.get(name)
            return values[0] if values else None

        buffer = obs_trace.get_buffer()
        job_id, trace_id = one("job"), one("trace")
        if job_id:
            job = self.queue.get(job_id)
            if job is None:
                raise ServiceError(404, f"unknown job {job_id!r}")
            trace_id = job.trace_id or (
                (job.telemetry or {}).get("trace_id")
            )
            if not trace_id:
                raise ServiceError(
                    404, f"job {job_id!r} has no trace id"
                )
        if trace_id:
            spans = buffer.for_trace(trace_id)
            return {
                "trace_id": trace_id,
                "job_id": job_id,
                "spans": [s.to_dict() for s in spans],
                "tree": obs_trace.render_tree(spans),
                "flame": obs_trace.render_flame(spans),
            }
        return {
            "traces": buffer.trace_ids(),
            "spans_resident": len(buffer),
            "capacity": buffer.capacity,
        }

    def _slo_context(self) -> obs_health.SloContext:
        """Live telemetry handles for the SLO probes — sampled at
        evaluation time, never maintained on the hot paths."""
        return obs_health.SloContext(
            queue_depth=lambda: sum(
                1 for j in self.queue.jobs() if j.status == "queued"
            ),
            schedulers=lambda: [
                {
                    "worker": s.worker_id,
                    "alive": s.alive,
                    "staleness_s": s.staleness_s,
                }
                for s in self.schedulers
            ],
        )

    def slo_report(self) -> dict:
        """``GET /slo``: every rule's verdict, value and reason."""
        return self.slo_engine.evaluate(self._slo_context()).to_dict()

    def debug_profile(self, query: dict) -> dict:
        """``GET /debug/profile``: sample every thread for a bounded
        window and return collapsed stacks.  The handler thread blocks
        for the window; other requests proceed (threading server)."""
        def one(name, default, convert, maximum):
            values = query.get(name)
            if not values:
                return default
            value = _client_number(values[0], convert, name)
            if value <= 0:
                raise ServiceError(400, f"{name} must be positive")
            return min(value, maximum)

        seconds = one("seconds", 1.0, float, MAX_PROFILE_S)
        hz = one("hz", DEFAULT_HZ, float, MAX_PROFILE_HZ)
        profiler = SamplingProfiler(hz=hz)
        with profiler:
            time.sleep(seconds)
        view = profiler.to_dict(max_stacks=MAX_PROFILE_STACKS)
        view["seconds"] = seconds
        return view

    def health(self) -> dict:
        jobs = self.queue.jobs()
        now = self.queue.clock()
        slo = self.slo_engine.evaluate(self._slo_context())
        return {
            # "ok" is liveness (we answered), the SLO verdict is
            # quality — a degraded service is still alive.
            "ok": True,
            "slo": {
                "verdict": slo.verdict,
                "reasons": slo.reasons,
            },
            "jobs": len(jobs),
            "pending": sum(1 for j in jobs if not j.done),
            "queue_depth": sum(1 for j in jobs if j.status == "queued"),
            "nodes_executed": sum(
                s.nodes_executed for s in self.schedulers
            ),
            "schedulers": [
                {
                    "worker": s.worker_id,
                    "alive": s.alive,
                    "active_jobs": s.active_jobs,
                    "nodes_executed": s.nodes_executed,
                    "node_throughput_per_s": round(s.node_throughput, 4),
                    "heartbeats": s.heartbeats_sent,
                }
                for s in self.schedulers
            ],
            "slow_ops": get_slow_op_log().entries()[-10:],
            "leases": [
                {
                    "job_id": j.job_id,
                    "worker": j.claimed_by,
                    "age_s": round(max(0.0, now - j.claimed_at), 3),
                    "expires_in_s": round(j.lease_expires_at - now, 3),
                    "requeues": j.requeues,
                }
                for j in jobs
                if j.status == "running"
            ],
            "store_records": len(self.store),
            "store_path": str(self.store.path),
        }

    def _job_view(self, job: Job) -> dict:
        view = job.to_dict()
        view.pop("specs")  # can be large; hashes identify the work
        view["n_scenarios"] = len(job.spec_hashes)
        return view


class ServiceHandler(BaseHTTPRequestHandler):
    """One request; the bound ``service`` class attribute does the work."""

    service: AttackService  # bound by AttackService via a subclass
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    #: status of the last response line sent (captured for metrics).
    _last_status = 0

    # -- helpers -------------------------------------------------------
    def send_response(self, code, message=None) -> None:
        self._last_status = int(code)
        super().send_response(code, message)

    @staticmethod
    def _route_template(path: str) -> str:
        """Collapse ids out of the path so metric label cardinality is
        bounded by the route table, not by job-id traffic."""
        if path.startswith("/jobs/"):
            return (
                "/jobs/<id>/events" if path.endswith("/events")
                else "/jobs/<id>"
            )
        if path in ("/", "/healthz", "/slo", "/jobs", "/results",
                    "/metrics", "/debug/traces", "/debug/profile"):
            return path
        return "<unknown>"

    def _observed(self, route: str, fn) -> None:
        """Run one route handler inside a request span, with per-route
        counters/latency and one structured log line.  The span is what
        job submissions inherit their trace id from."""
        requests_total, request_seconds = _http_metrics()
        t0 = time.perf_counter()
        self._last_status = 0
        with obs_trace.span(
            "http.request", route=route, method=self.command
        ) as request_span:
            try:
                self._dispatch(fn)
            finally:
                dt = time.perf_counter() - t0
                status = self._last_status or 0
                request_span.set_attr("status", status)
                requests_total.labels(
                    route=route, method=self.command, status=status
                ).inc()
                request_seconds.labels(
                    route=route, method=self.command
                ).observe(dt)
                log_event(
                    "http_request", route=route, method=self.command,
                    path=urlsplit(self.path).path, status=status,
                    seconds=round(dt, 6),
                )

    def _send_text(self, text: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # Error paths may leave an unread request body; under
            # HTTP/1.1 keep-alive those bytes would be parsed as the
            # next request line, so drop the connection instead.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServiceError(400, "missing request body")
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "request body too large")
        try:
            return json.loads(self.rfile.read(length))
        except json.JSONDecodeError as err:
            raise ServiceError(400, f"bad JSON: {err}") from None

    def log_message(self, format, *args):
        pass  # the service's progress hook reports; stderr stays quiet

    def _stream_events(self, job_id: str) -> None:
        events = self.service.job_events(job_id)
        # Pull the first event before sending headers: an unknown job
        # id must surface as a JSON 404, not a half-open stream.
        try:
            first = next(events)
        except StopIteration:
            first = None
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # No Content-Length on a stream: the connection carries it and
        # closes with the terminal event.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        try:
            if first is not None:
                self._write_sse(first)
            for event in events:
                self._write_sse(event)
        finally:
            events.close()  # unsubscribe even on client disconnect

    def _write_sse(self, event: dict | None) -> None:
        if event is None:
            self.wfile.write(b": keepalive\n\n")
        else:
            frame = (
                f"event: {event['kind']}\n"
                f"data: {json.dumps(event)}\n\n"
            )
            self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except ServiceError as err:
            self._send_json({"error": str(err)}, status=err.status)
        except ConnectionError:
            pass  # client gave up on an event stream
        except Exception as err:  # never take the server thread down
            log_event(
                "request_error", path=self.path, error=repr(err)
            )
            self._send_json({"error": f"internal: {err}"}, status=500)

    # -- routes --------------------------------------------------------
    def do_POST(self) -> None:
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/")
        if path == "/jobs":
            self._observed(
                "/jobs",
                lambda: self._send_json(
                    self.service.submit_payload(self._read_json()),
                    status=202,
                ),
            )
        else:
            self._observed(
                self._route_template(path),
                lambda: self._send_json(
                    {"error": "not found"}, status=404
                ),
            )

    def do_DELETE(self) -> None:
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/")
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            self._observed(
                "/jobs/<id>",
                lambda: self._send_json(self.service.cancel_job(job_id)),
            )
        else:
            self._observed(
                self._route_template(path),
                lambda: self._send_json(
                    {"error": "not found"}, status=404
                ),
            )

    def do_GET(self) -> None:
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)

        def route():
            if path == "/healthz":
                self._send_json(self.service.health())
            elif path == "/slo":
                self._send_json(self.service.slo_report())
            elif path == "/metrics":
                self._send_text(self.service.metrics_text())
            elif path == "/debug/traces":
                self._send_json(self.service.debug_traces(query))
            elif path == "/debug/profile":
                self._send_json(self.service.debug_profile(query))
            elif path == "/jobs":
                self._send_json({
                    "jobs": [
                        self.service._job_view(j)
                        for j in self.service.queue.jobs()
                    ]
                })
            elif path.startswith("/jobs/") and path.endswith("/events"):
                job_id = path[len("/jobs/"):-len("/events")]
                self._stream_events(job_id)
            elif path.startswith("/jobs/"):
                job_id = path[len("/jobs/"):]
                if "wait" in query:
                    raise ServiceError(
                        400,
                        "the 'wait' long-poll parameter was removed; stream "
                        f"/jobs/{job_id}/events until the terminal event",
                    )
                self._send_json(self.service.job_status(job_id))
            elif path == "/results":
                self._send_json(self.service.query_results(query))
            else:
                raise ServiceError(404, "not found")

        self._observed(self._route_template(path), route)
