"""Unified progress events for every execution backend.

The sweep engine reports progress through a ``progress(str)`` hook
plus an ``on_node(node, value, seconds)`` callback; the service
streams per-job events over SSE.  The facade narrows both to one
callable — ``on_event(event)`` — with a small, stable vocabulary of
event kinds, so a caller observing a local run and a caller
streaming a remote service's job write the same handler.

Event kinds
-----------
``submitted``
    The job entered its backend (for the service backend this carries
    the server-assigned job id and submit outcome).
``message``
    Free-form progress text (sweep plans, executor batch counters —
    whatever the engine's ``progress`` hook would have printed).
``node``
    One DAG node finished; ``data`` holds ``node_kind``, ``key`` and
    in-worker ``seconds`` (the engine's ``on_node`` hook, and the
    closest the service's counters can be mapped onto).
``progress``
    Per-job node counters changed (``nodes_done``/``nodes_total``/
    ``reused``) — the service stream's native shape; the in-process
    backends emit one summary after the sweep finishes (their
    node-level granularity arrives as ``node`` events instead).
``done`` / ``failed`` / ``cancelled``
    Terminal job states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

EVENT_KINDS = (
    "submitted",
    "message",
    "node",
    "progress",
    "done",
    "failed",
    "cancelled",
)


@dataclass(frozen=True)
class ProgressEvent:
    """One progress observation, backend-agnostic."""

    kind: str
    message: str = ""
    job_id: str | None = None
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        prefix = f"[{self.job_id}] " if self.job_id else ""
        return f"{prefix}{self.kind}: {self.message}"


def engine_hooks(emit):
    """Adapt an emit function to the sweep engine's two native hooks.

    Returns ``(progress, on_node)`` suitable for
    :func:`repro.experiments.run_sweep`: progress strings become
    ``message`` events, completed nodes become ``node`` events.
    """

    def progress(message: str) -> None:
        emit("message", message)

    def on_node(node, value, seconds: float) -> None:
        emit(
            "node",
            f"{node.kind} node done in {seconds:.2f}s",
            node_kind=node.kind,
            key=repr(node.key),
            seconds=seconds,
        )

    return progress, on_node


def message_printer(prefix: str = "  .. ", write=print):
    """An ``on_event`` that prints ``message`` events — the default
    progress rendering of the CLI, the examples and the scripts."""

    def on_event(event: ProgressEvent) -> None:
        if event.kind == "message" and event.message:
            write(f"{prefix}{event.message}")

    return on_event
