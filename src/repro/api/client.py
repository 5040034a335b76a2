"""The one front door: ``Client`` + ``Job`` + ``ResultSet``.

Every way of running the reproduction's attacks — the DAG sweep
engine in this process, the HTTP attack service — is reachable through
one object, and every paper artifact is a registry grid run through
``client.run(grid, params).report()``::

    from repro.api import Client

    with Client() as client:                     # local backend, serial
        result = client.attack("c432", attacks=("proximity",))
        print(result.render())

    with Client(workers=4) as client:
        result = client.run("table3", {"designs": ["c432", "c880"]})
        print(result.report().render())

    with Client(backend="service") as client:    # auto-spawned service
        job = client.submit("defense-sweep", {"design": "c432"})
        result = job.wait()

``submit`` accepts a registry grid name (+ params), a single
:class:`~repro.experiments.spec.ScenarioSpec` or spec dict, or a list
of either, and returns a :class:`Job`; ``run`` is submit-and-wait.
All backends yield the same :class:`ResultSet` built on
:class:`~repro.experiments.store.ScenarioRecord` rows, with lazy
report accessors reusing :mod:`repro.experiments.reports`, and stream
the same :class:`~repro.api.events.ProgressEvent` callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import AttackConfig
from ..experiments.registry import build_grid
from ..experiments.spec import ScenarioSpec
from ..experiments.store import ResultsStore, ScenarioRecord, record_matches
from .backends import (
    BACKENDS,
    TERMINAL_STATES,
    Backend,
    BackendError,
    BackendOutcome,
    JobCancelled,
    LocalBackend,
    ServiceBackend,
)
from .events import ProgressEvent


class EmptySubmission(ValueError):
    """A submission (grid or spec list) expanded to zero scenarios."""


#: record fields compared by :meth:`ResultSet.diff` — the deterministic
#: payload.  Wall-clock-dependent fields (``runtime_s``,
#: ``train_seconds``, the telemetry in ``extra``) are excluded: two
#: runs of the same grid legitimately differ there.
DIFF_FIELDS = (
    "status",
    "ccr",
    "n_sink_fragments",
    "n_source_fragments",
    "hidden_pins",
    "wirelength",
)


@dataclass
class RecordDelta:
    """One scenario whose deterministic payload changed between sweeps."""

    scenario_hash: str
    scenario: dict  # the spec dict, for human-readable rendering
    fields: dict  # field name -> (ours, theirs)

    def describe(self) -> str:
        spec = ScenarioSpec.from_dict(self.scenario)
        deltas = ", ".join(
            f"{name}: {theirs!r} -> {ours!r}"
            for name, (ours, theirs) in sorted(self.fields.items())
        )
        return f"{spec.describe()}  [{deltas}]"


@dataclass
class ResultSetDiff:
    """Outcome of :meth:`ResultSet.diff` — a sweep-vs-sweep regression
    check.

    ``changed`` lists scenarios present in both sets whose deterministic
    fields disagree; ``added`` / ``removed`` list records only one side
    has (matched by scenario hash).  ``ok`` means the two sweeps agree
    everywhere it matters — the regression gate.
    """

    changed: list[RecordDelta] = field(default_factory=list)
    added: list[ScenarioRecord] = field(default_factory=list)
    removed: list[ScenarioRecord] = field(default_factory=list)
    unchanged: int = 0

    @property
    def ok(self) -> bool:
        return not (self.changed or self.added or self.removed)

    def __bool__(self) -> bool:
        # Truthy when there IS a difference, like a diff tool's exit
        # status inverted: ``if result.diff(baseline): alert()``.
        return not self.ok

    def render(self) -> str:
        if self.ok:
            return (
                f"no regressions: {self.unchanged} scenarios identical"
            )
        lines = [
            f"sweep diff: {len(self.changed)} changed, "
            f"{len(self.added)} added, {len(self.removed)} removed, "
            f"{self.unchanged} unchanged"
        ]
        for delta in self.changed:
            lines.append(f"  ~ {delta.describe()}")
        for record in self.added:
            lines.append(
                f"  + {ScenarioSpec.from_dict(record.scenario).describe()}"
            )
        for record in self.removed:
            lines.append(
                f"  - {ScenarioSpec.from_dict(record.scenario).describe()}"
            )
        return "\n".join(lines)


@dataclass
class ResultSet:
    """Records for one finished job, in spec order.

    Identical across backends: the parity suite hash-compares the
    payloads.  ``executed`` / ``reused`` / ``train_seconds`` carry the
    sweep accounting when the backend exposes it (the service reports
    ``reused`` only).
    """

    specs: list[ScenarioSpec]
    records: list[ScenarioRecord]
    grid: str | None = None
    params: dict = field(default_factory=dict)
    executed: int | None = None
    reused: int | None = None
    train_seconds: dict = field(default_factory=dict)
    job_id: str | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def record_for(self, key: str | ScenarioSpec) -> ScenarioRecord | None:
        """Record by scenario hash (or a spec's hash)."""
        if isinstance(key, ScenarioSpec):
            key = key.scenario_hash
        return next(
            (r for r in self.records if r.scenario_hash == key), None
        )

    def query(
        self,
        design: str | None = None,
        split_layer: int | None = None,
        attack: str | None = None,
        defense_kind: str | None = None,
        tag: str | None = None,
        status: str | None = None,
        limit: int | None = None,
        offset: int = 0,
        order: str = "asc",
    ) -> list[ScenarioRecord]:
        """Filter this result set with the store's query vocabulary
        (including ``limit`` / ``offset`` / ``order`` pagination)."""
        matched = [
            record
            for record in self.records
            if record_matches(
                record,
                design=design,
                split_layer=split_layer,
                attack=attack,
                defense_kind=defense_kind,
                tag=tag,
                status=status,
            )
        ]
        if order == "desc":
            matched.reverse()
        if offset:
            matched = matched[offset:]
        if limit is not None:
            matched = matched[:max(0, int(limit))]
        return matched

    def report(self):
        """The grid's paper report object (lazy).

        ``table3`` grids yield a
        :class:`~repro.eval.table3.Table3Report`, ``figure5`` /
        ``ablation`` a :class:`~repro.eval.figure5.Figure5Report`,
        ``defense-sweep`` a
        :class:`~repro.defense.evaluation.DefenseSweepReport`,
        ``candidate-lists`` a :class:`~repro.eval.zhang.ZhangReport`;
        other grids (and raw spec submissions) have no bespoke report
        and return None — use :meth:`render` for the generic table.
        """
        from ..experiments.reports import (
            candidate_lists_report,
            defense_report,
            figure5_report,
            table3_report,
        )

        if self.grid == "table3":
            return table3_report(
                self.records, train_seconds=self.train_seconds
            )
        if self.grid in ("figure5", "ablation"):
            return figure5_report(
                self.records, split_layer=self.specs[0].split_layer
            )
        if self.grid == "defense-sweep":
            first = self.specs[0]
            return defense_report(
                self.records,
                design=first.design,
                split_layer=first.split_layer,
            )
        if self.grid == "candidate-lists":
            return candidate_lists_report(self.records)
        return None

    def render(self, title: str | None = None) -> str:
        """Human-readable table: the grid's report when one exists,
        the generic record table otherwise."""
        report = self.report()
        if report is not None:
            return report.render()
        from ..experiments.reports import render_records

        if title is None:
            title = f"sweep: {self.grid}" if self.grid else "sweep"
        return render_records(self.records, title=title)

    def to_dicts(self) -> list[dict]:
        return [record.to_dict() for record in self.records]

    def diff(self, other, ccr_tol: float = 0.0) -> ResultSetDiff:
        """Regression check against another sweep of (usually) the same
        grid.

        ``other`` is a :class:`ResultSet` or any iterable of
        :class:`~repro.experiments.store.ScenarioRecord` — e.g. a prior
        run pulled from the store's history.  Records pair up by
        scenario hash; the deterministic fields (:data:`DIFF_FIELDS`)
        are compared, with ``ccr_tol`` allowing that much absolute CCR
        drift before a change is flagged.  Wall-clock fields never
        count.

        ::

            baseline = client.run("figure5")
            ...
            current = client.run("figure5", resume=False)
            regression = current.diff(baseline)
            if regression:
                print(regression.render())
        """
        theirs_records = (
            other.records if isinstance(other, ResultSet) else list(other)
        )
        theirs = {r.scenario_hash: r for r in theirs_records}
        diff = ResultSetDiff()
        seen = set()
        for record in self.records:
            seen.add(record.scenario_hash)
            base = theirs.get(record.scenario_hash)
            if base is None:
                diff.added.append(record)
                continue
            fields = {}
            for name in DIFF_FIELDS:
                ours_value = getattr(record, name)
                theirs_value = getattr(base, name)
                if name == "ccr" and ccr_tol > 0.0:
                    if (
                        ours_value is not None
                        and theirs_value is not None
                        and abs(ours_value - theirs_value) <= ccr_tol
                    ):
                        continue
                if ours_value != theirs_value:
                    fields[name] = (ours_value, theirs_value)
            if fields:
                diff.changed.append(RecordDelta(
                    scenario_hash=record.scenario_hash,
                    scenario=record.scenario,
                    fields=fields,
                ))
            else:
                diff.unchanged += 1
        diff.removed.extend(
            r for h, r in theirs.items() if h not in seen
        )
        return diff


class Job:
    """Handle for one submission: wait for, inspect or cancel it.

    Lifecycle mirrors the service queue: ``queued`` -> ``running`` ->
    ``done`` | ``failed`` | ``cancelled``.  For the local backend the
    work runs inside :meth:`wait`; for the service backend the
    work runs remotely and :meth:`wait` follows the job's SSE stream.
    """

    def __init__(
        self,
        backend: Backend,
        specs: list[ScenarioSpec],
        grid: str | None = None,
        params: dict | None = None,
        priority: int = 0,
        resume: bool = True,
        on_event=None,
    ):
        self.backend = backend
        self.specs = specs
        self.grid = grid
        self.params = dict(params or {})
        self.priority = int(priority)
        self.resume = resume
        self.status = "queued"
        self.job_id: str | None = None  # service-assigned, when remote
        self.outcome: str | None = None  # queued | duplicate | from_store
        self.error: str | None = None
        self._on_event = on_event
        self._result: ResultSet | None = None

    def _emit(self, kind: str, message: str = "", **data) -> None:
        # Not the prebound events.emitter: job_id is assigned by the
        # service after construction, and every event must carry the
        # current value so multiplexed handlers can tell jobs apart.
        if self._on_event is not None:
            self._on_event(
                ProgressEvent(kind, message, job_id=self.job_id, data=data)
            )

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> ResultSet:
        """Block until the job finishes; returns its :class:`ResultSet`.

        Raises :class:`~repro.api.backends.JobCancelled` if the job was
        cancelled and :class:`~repro.api.backends.BackendError` if it
        failed (or, on the service backend, if its event stream broke
        before the end).  ``timeout`` bounds the service backend's wait
        on the job's event stream (:class:`TimeoutError` when it
        elapses; the job keeps running server-side); the local backend
        executes the sweep inside this call and is not preemptible, so
        it ignores it.
        """
        if self._result is not None:
            return self._result
        if self.status == "cancelled":
            raise JobCancelled(f"job {self.job_id or ''} was cancelled")
        if self.status == "failed":
            # Terminal: re-waiting must re-raise, never re-execute the
            # sweep (the local backend runs it inside this call).
            raise BackendError(
                f"job {self.job_id or ''} failed: {self.error}"
            )
        outcome: BackendOutcome = self.backend.run(self, timeout=timeout)
        self.status = "done"
        self._result = ResultSet(
            specs=self.specs,
            records=outcome.records,
            grid=self.grid,
            params=self.params,
            executed=outcome.executed,
            reused=outcome.reused,
            train_seconds=outcome.train_seconds,
            job_id=self.job_id,
        )
        self._emit(
            "done",
            f"{len(self._result.records)} records",
            n_records=len(self._result.records),
        )
        return self._result

    def cancel(self) -> bool:
        """Best-effort cancellation; True when it took effect."""
        return self.backend.cancel(self)


class Client:
    """Unified SDK over every execution backend.

    Parameters
    ----------
    backend:
        ``"local"`` (default: the sweep engine in this process),
        ``"service"``, or an already-constructed
        :class:`~repro.api.backends.Backend`.
    store:
        Results store: a :class:`~repro.experiments.store.ResultsStore`,
        a path, ``None`` for the default location
        (``results/experiments.jsonl`` / ``REPRO_RESULTS_DIR``), or
        ``False`` for no store (results are returned but not recorded).
    workers:
        Worker-process knob for the local backend (and for the
        scheduler of an auto-spawned service); ``None`` reads
        ``REPRO_WORKERS`` and defaults to serial.
    url:
        Service backend only — base URL of a running attack service;
        ``None`` auto-spawns an in-process service on first use.
    queue_path:
        Service backend only — job journal path for a spawned service.
    schedulers:
        Service backend only — scheduler threads for a spawned service
        (they share the journal through leased claims).
    on_event:
        Default :class:`~repro.api.events.ProgressEvent` callback for
        every job submitted through this client (per-call ``on_event``
        overrides it).
    """

    def __init__(
        self,
        backend: str | Backend = "local",
        store=None,
        workers: int | None = None,
        url: str | None = None,
        queue_path=None,
        schedulers: int = 1,
        on_event=None,
        timeout: float = 30.0,
    ):
        self.on_event = on_event
        if isinstance(backend, Backend):
            # A pre-built backend brings its own store; constructing a
            # separate default-path one would make results() query a
            # store the backend never writes.
            self.store = getattr(backend, "store", None)
        elif store is False:
            self.store = None
        elif isinstance(store, ResultsStore):
            self.store = store
        elif backend == "service" and url is not None and store is None:
            # Remote service: results live (and are queried) on the
            # service side, so don't parse a local store per client.
            self.store = None
        else:
            self.store = ResultsStore(store)
        if isinstance(backend, Backend):
            self.backend = backend
        elif backend == "local":
            self.backend = LocalBackend(store=self.store, workers=workers)
        elif backend == "service":
            if store is False:
                raise ValueError(
                    "the service backend always records to its results "
                    "store; use the local backend with store=False"
                )
            if url is not None and store is not None:
                raise ValueError(
                    "a remote service records to its own results store "
                    "(query it with client.results()); store= only "
                    "applies when the service is auto-spawned (url=None)"
                )
            self.backend = ServiceBackend(
                url=url,
                store=self.store,
                workers=workers,
                queue_path=queue_path,
                timeout=timeout,
                schedulers=schedulers,
            )
        else:
            raise ValueError(
                f"unknown backend {backend!r}; known: {sorted(BACKENDS)}"
            )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------
    def _as_specs(
        self, scenarios, params: dict | None
    ) -> tuple[list[ScenarioSpec], str | None]:
        if isinstance(scenarios, str):
            return build_grid(scenarios, **(params or {})), scenarios
        if params:
            raise TypeError("params only apply to a registry grid name")
        if isinstance(scenarios, (ScenarioSpec, dict)):
            scenarios = [scenarios]
        return [
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s)
            for s in scenarios
        ], None

    def submit(
        self,
        scenarios,
        params: dict | None = None,
        priority: int = 0,
        resume: bool = True,
        on_event=None,
    ) -> Job:
        """Submit a grid name, spec(s) or spec dict(s); returns a
        :class:`Job` handle (non-blocking for the service backend)."""
        specs, grid = self._as_specs(scenarios, params)
        if not specs:
            raise EmptySubmission("submission expands to 0 scenarios")
        job = Job(
            self.backend,
            specs,
            grid=grid,
            params=params,
            priority=priority,
            resume=resume,
            on_event=on_event if on_event is not None else self.on_event,
        )
        self.backend.start(job)
        if job.outcome is None:
            job.outcome = "queued"
            job._emit(
                "submitted",
                f"{len(specs)} scenarios on the {self.backend.name} backend",
                n_scenarios=len(specs),
            )
        return job

    def run(
        self,
        scenarios,
        params: dict | None = None,
        priority: int = 0,
        resume: bool = True,
        on_event=None,
        timeout: float | None = None,
    ) -> ResultSet:
        """Submit and wait: the blocking form of :meth:`submit`."""
        return self.submit(
            scenarios,
            params,
            priority=priority,
            resume=resume,
            on_event=on_event,
        ).wait(timeout=timeout)

    def cancel(self, job: Job | str) -> bool:
        """Cancel a :class:`Job` handle, or a service job by id."""
        if isinstance(job, str):
            if not isinstance(self.backend, ServiceBackend):
                raise TypeError(
                    "cancelling by job id requires the service backend"
                )
            return self.backend.cancel_id(job)
        return job.cancel()

    # -- high-level helpers --------------------------------------------
    def attack(
        self,
        design: str,
        split_layer: int = 3,
        attacks: tuple[str, ...] = ("proximity", "flow", "dl"),
        config: AttackConfig | None = None,
        train_names: tuple[str, ...] | None = None,
        flow_timeout_s: float | None = None,
        **run_kwargs,
    ) -> ResultSet:
        """Run one or more attacks on one design (CLI ``attack``)."""
        specs = [
            ScenarioSpec(
                design=design,
                split_layer=split_layer,
                attack=attack,
                config=(
                    (config or AttackConfig.benchmark())
                    if attack == "dl" else None
                ),
                train_names=(
                    train_names if attack in ("dl", "rf") else None
                ),
                flow_timeout_s=(
                    flow_timeout_s if attack == "flow" else None
                ),
            )
            for attack in attacks
        ]
        return self.run(specs, **run_kwargs)

    # -- queries -------------------------------------------------------
    def results(self, **filters) -> list[ScenarioRecord]:
        """Query stored records (local store, or the service's store
        over HTTP when this client points at a remote service).

        Accepts the store's filter vocabulary plus ``limit`` /
        ``offset`` / ``order`` pagination; both travel to the service
        as query parameters and push down into its storage backend.
        """
        if (
            isinstance(self.backend, ServiceBackend)
            and self.backend.url is not None
        ):
            kind = filters.pop("defense_kind", None)
            if kind is not None:
                filters["defense"] = kind
            return [
                ScenarioRecord.from_dict(r)
                for r in self.backend._get_client().results(**filters)
            ]
        if self.store is None:
            return []
        self.store.reload()
        return self.store.query(**filters)
