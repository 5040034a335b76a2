"""``hash-determinism``: content hashes must be reproducible.

The experiment pipeline keys everything on content hashes —
``scenario_hash`` names result rows, the flow cache fingerprints
configs, the results store dedupes by digest.  Those hashes are only
useful if the same logical input always produces the same digest, on
any machine, in any process.  Inside any function that feeds
``hashlib``, this rule flags the classic determinism leaks:

* ``json.dumps(...)`` without a constant ``sort_keys=True`` — dict
  iteration order is insertion order, which is construction-path
  dependent;
* wall-clock (``time.time`` / ``time.time_ns`` / ``datetime.now`` /
  ``datetime.utcnow``), ``uuid.*``, ``random.*``, ``os.getpid``,
  ``os.urandom`` — different every run by design;
* builtin ``id()`` and ``hash()`` — address- and
  ``PYTHONHASHSEED``-dependent;
* builtin ``repr()`` and ``str()`` — their text is not a canonical
  form: set order follows ``PYTHONHASHSEED``, and library types change
  their ``repr`` across versions (numpy 2 prints ``np.float64(1.0)``).
  A key that is a ``repr`` on purpose says so with a justified
  suppression.

The rule is scoped to hashing functions on purpose: ``time.time()`` in
a scheduler loop is fine; ``time.time()`` folded into a scenario hash
is a cache that never hits twice.
"""

from __future__ import annotations

import ast

from ..engine import ModuleSource, Rule

#: (module alias, attribute) calls that are nondeterministic by design.
_TAINTED_ATTRS = frozenset({
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("os", "getpid"),
    ("os", "urandom"),
})
_TAINTED_MODULES = frozenset({"uuid", "random"})
_TAINTED_BUILTINS = frozenset({"id", "hash"})
_TEXT_BUILTINS = frozenset({"repr", "str"})


def _uses_hashlib(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "hashlib"
        ):
            return True
    return False


def _sort_keys_constant_true(node: ast.Call) -> bool:
    for keyword in node.keywords:
        if keyword.arg == "sort_keys":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


class HashDeterminismRule(Rule):
    rule_id = "hash-determinism"
    severity = "error"
    description = (
        "functions that feed hashlib must canonicalise "
        "(json.dumps(..., sort_keys=True)) and avoid time/uuid/random/"
        "pid/id()/hash()/repr()/str() — nondeterministic digests poison "
        "every cache and dedupe keyed on them"
    )

    def check(self, module: ModuleSource) -> list:
        findings = []
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _uses_hashlib(func):
                continue
            findings.extend(self._check_function(module, func))
        return findings

    def _check_function(self, module: ModuleSource, func: ast.AST) -> list:
        findings = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            reason = self._classify(node)
            if reason is not None:
                findings.append(
                    module.finding(
                        self,
                        node.lineno,
                        f"{reason} inside hashing function "
                        f"{getattr(func, 'name', '?')}()",
                    )
                )
        return findings

    def _classify(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _TAINTED_BUILTINS:
                return (
                    f"builtin {func.id}() is interpreter-/seed-dependent"
                )
            if func.id in _TEXT_BUILTINS:
                return (
                    f"builtin {func.id}() is not a canonical form (set "
                    "order, library reprs)"
                )
            return None
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        if not isinstance(owner, ast.Name):
            return None
        if func.attr == "dumps" and owner.id == "json":
            if not _sort_keys_constant_true(node):
                return (
                    "json.dumps without sort_keys=True (dict order is "
                    "construction-path dependent)"
                )
            return None
        if (owner.id, func.attr) in _TAINTED_ATTRS:
            return f"{owner.id}.{func.attr}() is nondeterministic"
        if owner.id in _TAINTED_MODULES:
            return f"{owner.id}.{func.attr}() is nondeterministic"
        return None
