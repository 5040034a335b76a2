"""``journal-exhaustive``: every journaled event type must have a fold
handler.

The job queue's durability story is a pure fold over an append-only
journal: every mutation appends ``{"event": <type>, ...}`` and every
reader replays :meth:`JobQueue._apply`, which dispatches on the
``event`` string.  An emitter whose type the fold does not handle is a
*silent data-loss bug* — the event is journaled, replayed, and dropped
on the floor by every reader, so state diverges between the writer's
in-memory view and every recovery.

Statically, per module:

* the *emitted* set is every dict literal carrying an ``"event"`` key
  with a constant string value (the shape ``JobQueue._emit`` /
  :meth:`repro.core.journal.Journal.append` consume);
* the *handled* set comes from any function that binds a variable via
  ``<x>.get("event")`` and compares it against string constants
  (``==`` chains and ``in (...)`` memberships) — the fold's dispatch.

A module with emitters but no fold is not checkable (the fold may
legitimately live elsewhere); a module with both gets the cross-check,
and an emitter without a handler is a hard error.  Handlers without
emitters are tolerated: folds keep back-compat arms for event types
old journals still contain.
"""

from __future__ import annotations

import ast

from ..engine import ModuleSource, Rule


def emitted_events(tree: ast.AST) -> list[tuple[str, int]]:
    """Every ``(event type, line)`` appearing as a constant ``"event"``
    key in a dict literal."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "event"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                out.append((value.value, value.lineno))
    return out


def _event_variables(func: ast.AST) -> set[str]:
    """Names bound from ``<x>.get("event")`` inside ``func``."""
    names: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "get"
            and value.args
            and isinstance(value.args[0], ast.Constant)
            and value.args[0].value == "event"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def handled_events(tree: ast.AST) -> set[str]:
    """Event types some fold function dispatches on: string constants
    compared (``==`` / ``in``) against a variable bound from
    ``.get("event")``."""
    handled: set[str] = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        variables = _event_variables(func)
        if not variables:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if not any(
                isinstance(side, ast.Name) and side.id in variables
                for side in sides
            ):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)) and isinstance(
                    comparator, ast.Constant
                ) and isinstance(comparator.value, str):
                    handled.add(comparator.value)
                elif isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                    comparator, (ast.Tuple, ast.List, ast.Set)
                ):
                    for element in comparator.elts:
                        if isinstance(element, ast.Constant) and \
                                isinstance(element.value, str):
                            handled.add(element.value)
    return handled


class JournalExhaustiveRule(Rule):
    rule_id = "journal-exhaustive"
    severity = "error"
    description = (
        "every journal event type emitted in a module must be handled "
        "by that module's fold (an emitter without a folder silently "
        "drops state on replay)"
    )

    def check(self, module: ModuleSource) -> list:
        emitted = emitted_events(module.tree)
        if not emitted:
            return []
        handled = handled_events(module.tree)
        if not handled:
            return []  # no fold here: not this module's contract
        findings = []
        for event, lineno in emitted:
            if event not in handled:
                findings.append(
                    module.finding(
                        self,
                        lineno,
                        f"journal event {event!r} is emitted but the "
                        f"fold handles only "
                        f"{sorted(handled)}; replay drops it silently",
                    )
                )
        return findings
