"""``lock-discipline``: shared state touched under a lock must always be.

The invariant (queue leases, the metrics registry, the trace buffer,
the results store): an attribute a class ever mutates inside
``with self._lock:`` is *guarded*, and every other mutation of it must
also hold the lock — one unlocked write is a silent race that the
crash-safe lease protocol cannot survive.  This is the stdlib-``ast``
analogue of Clang's Thread Safety Analysis ``GUARDED_BY``, with the
guard set *inferred* instead of annotated:

* a *lock attribute* is any ``self.X`` assigned from a
  ``threading.Lock/RLock/Condition/Semaphore`` call (directly or inside
  a ``x or threading.Lock()`` default), or whose name contains
  ``lock`` (covers locks injected through constructor parameters);
* a *mutation* is an assignment/augmented assignment/deletion through
  ``self.attr`` (including ``self.attr[key] = ...``) or a call of a
  known mutator method (``append``, ``update``, ``pop``, ...) on it;
* a region is *held* inside ``with self.<lockattr>:``; a private
  method whose every intra-class call site is held is itself held
  (one-level caller-propagation to a fixpoint), which is how helpers
  like ``JobQueue._apply`` — only ever called under the lock — pass
  without annotations;
* ``__init__`` is exempt: the object is not shared during
  construction, and plain field initialisation there neither guards an
  attribute nor violates its guard.

Nested functions reset the lock context (their call time is unknown),
so mutations inside them are neither findings nor guard evidence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..engine import ModuleSource, Rule

#: method names that mutate their receiver in place.
MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "setdefault",
    "update",
})

_THREADING_LOCKS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})


def _is_threading_lock_call(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _THREADING_LOCKS
                and isinstance(func.value, ast.Name)
                and func.value.id == "threading"
            ):
                return True
            if isinstance(func, ast.Name) and func.id in _THREADING_LOCKS:
                return True
    return False


def _self_attr(node: ast.AST) -> str | None:
    """The attribute name hanging directly off ``self`` at the base of
    an attribute/subscript chain (``self.a``, ``self.a[k]``,
    ``self.a[k].b`` all resolve to ``"a"``); None otherwise."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _flatten_targets(target: ast.AST):
    """Yield the leaf assignment targets of a (possibly tuple/starred)
    target expression."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten_targets(target.value)
    else:
        yield target


@dataclass
class _Mutation:
    attr: str
    lineno: int
    held: bool
    method: str


@dataclass
class _MethodFacts:
    name: str
    mutations: list[_Mutation] = field(default_factory=list)
    #: intra-class calls: (callee method name, call site held?)
    calls: list[tuple[str, bool]] = field(default_factory=list)


class _MethodScanner(ast.NodeVisitor):
    """Walk one method body tracking whether a lock is held."""

    def __init__(self, method_name: str, lock_attrs: set[str]):
        self.facts = _MethodFacts(name=method_name)
        self.lock_attrs = lock_attrs
        self._held_depth = 0
        self._nested_depth = 0

    @property
    def _held(self) -> bool:
        return self._held_depth > 0 and self._nested_depth == 0

    # -- region tracking ----------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        takes_lock = any(
            _self_attr(item.context_expr) in self.lock_attrs
            for item in node.items
        )
        for item in node.items:
            self.visit(item.context_expr)
        if takes_lock:
            self._held_depth += 1
        for statement in node.body:
            self.visit(statement)
        if takes_lock:
            self._held_depth -= 1

    visit_AsyncWith = visit_With

    def _visit_nested(self, node: ast.AST) -> None:
        # A nested function/lambda runs at an unknown time: its body is
        # analysed with no lock context either way.
        self._nested_depth += 1
        self.generic_visit(node)
        self._nested_depth -= 1

    visit_FunctionDef = _visit_nested
    visit_AsyncFunctionDef = _visit_nested
    visit_Lambda = _visit_nested

    # -- mutations ----------------------------------------------------
    def _record(self, target: ast.AST, lineno: int) -> None:
        attr = _self_attr(target)
        if attr is not None and self._nested_depth == 0:
            self.facts.mutations.append(
                _Mutation(attr, lineno, self._held, self.facts.name)
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for element in _flatten_targets(target):
                self._record(element, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record(target, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = _self_attr(func.value)
            if receiver is not None and func.attr in MUTATORS:
                self._record(func.value, node.lineno)
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and self._nested_depth == 0
            ):
                self.facts.calls.append((func.attr, self._held))
        self.generic_visit(node)


def _lock_attrs(class_node: ast.ClassDef) -> set[str]:
    locks: set[str] = set()
    for node in ast.walk(class_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is None or not isinstance(target, ast.Attribute):
                    continue
                if _is_threading_lock_call(node.value) \
                        or "lock" in attr.lower():
                    locks.add(attr)
    return locks


def _held_methods(methods: dict[str, _MethodFacts]) -> set[str]:
    """Fixpoint: a private helper whose every known intra-class call
    site holds the lock is itself lock-held.  Starts pessimistic, so a
    method with any unlocked caller — or none at all (a public entry
    point) — never qualifies."""
    sites: dict[str, list[tuple[str, bool]]] = {name: [] for name in methods}
    for facts in methods.values():
        for callee, held in facts.calls:
            if callee in sites:
                sites[callee].append((facts.name, held))
    held: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, callers in sites.items():
            if name in held or not callers:
                continue
            if not name.startswith("_") or name.startswith("__"):
                continue  # public API / dunder: callable from anywhere
            if all(h or caller in held for caller, h in callers):
                held.add(name)
                changed = True
    return held


class LockDisciplineRule(Rule):
    rule_id = "lock-discipline"
    severity = "error"
    description = (
        "attributes mutated under `with self._lock:` anywhere in a "
        "class must never be mutated outside a lock-held region"
    )

    def check(self, module: ModuleSource) -> list:
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(
        self, module: ModuleSource, class_node: ast.ClassDef
    ) -> list:
        locks = _lock_attrs(class_node)
        if not locks:
            return []
        methods: dict[str, _MethodFacts] = {}
        for statement in class_node.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                scanner = _MethodScanner(statement.name, locks)
                for part in statement.body:
                    scanner.visit(part)
                methods[statement.name] = scanner.facts
        held = _held_methods(methods)
        guarded: set[str] = set()
        for facts in methods.values():
            if facts.name == "__init__":
                continue
            for mutation in facts.mutations:
                if mutation.held or facts.name in held:
                    guarded.add(mutation.attr)
        guarded -= locks  # `self._lock = ...` is setup, not shared state
        findings = []
        for facts in methods.values():
            if facts.name == "__init__" or facts.name in held:
                continue
            for mutation in facts.mutations:
                if mutation.attr in guarded and not mutation.held:
                    findings.append(
                        module.finding(
                            self,
                            mutation.lineno,
                            f"{class_node.name}.{mutation.attr} is "
                            f"guarded by a lock elsewhere in the class "
                            f"but mutated lock-free in "
                            f"{facts.name}()",
                        )
                    )
        return findings
