"""repro.api — the public SDK: one Client, pluggable execution backends.

Every way to run the attacks — the CLI, the scripts, the examples, the
HTTP service — goes through the DAG sweep engine, and this package is
the single stable surface over it:

* :class:`Client` — accepts :class:`~repro.experiments.ScenarioSpec`
  objects, spec dicts, or registry grid names.  Each paper artifact is
  one grid, run as ``client.run(grid, params).report()``
  (``"table3"``, ``"figure5"``, ``"defense-sweep"``,
  ``"candidate-lists"``); ``client.attack(design, ...)`` runs single
  attacks on one design;
* :class:`~repro.api.backends.Backend` — the execution protocol, with
  :class:`LocalBackend` (the sweep engine in this process; serial by
  default, multi-process with ``workers``) and :class:`ServiceBackend`
  (HTTP attack service, auto-spawned when no URL is given) behind an
  unchanged caller surface;
* :class:`Job` -> :class:`ResultSet` — uniform handles and results
  (built on :class:`~repro.experiments.ScenarioRecord`, with lazy
  report accessors reusing :mod:`repro.experiments.reports`, and
  :meth:`ResultSet.diff` for sweep-vs-sweep regression checks);
* :class:`~repro.api.events.ProgressEvent` — one streaming progress
  callback (``on_event``) unifying the engine's ``on_node`` hook with
  the service's SSE event stream.

New workloads register a grid (:func:`repro.experiments.register`) and
are immediately runnable on every backend; new execution strategies
implement ``Backend`` and plug in without touching any caller.
"""

from .backends import (
    BACKENDS,
    Backend,
    BackendError,
    BackendOutcome,
    JobCancelled,
    LocalBackend,
    ServiceBackend,
)
from .client import (
    DIFF_FIELDS,
    Client,
    EmptySubmission,
    Job,
    RecordDelta,
    ResultSet,
    ResultSetDiff,
)
from .events import EVENT_KINDS, ProgressEvent, message_printer

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendError",
    "BackendOutcome",
    "Client",
    "DIFF_FIELDS",
    "EVENT_KINDS",
    "EmptySubmission",
    "Job",
    "JobCancelled",
    "LocalBackend",
    "ProgressEvent",
    "RecordDelta",
    "ResultSet",
    "ResultSetDiff",
    "ServiceBackend",
    "message_printer",
]
