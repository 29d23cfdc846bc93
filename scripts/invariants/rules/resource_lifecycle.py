"""resource-lifecycle: chips and fault hooks must be released.

Two leak shapes this engine has actually hit in review:

* ``FlashChip``/backend constructed, used and dropped without
  ``close()`` — a ``FileBackend`` holds an OS file handle and buffered
  metadata; dropping it relies on GC finalizers that may never run.
  Flagged when a local is built from a chip/backend constructor, never
  escapes the function (not returned, stored or passed on) and is
  never closed or used as a context manager.
* crash hooks (``crash_after``, ``on_operation``) armed without a
  matching disarm (same method with ``None``) in the same class or
  module — a leaked hook fires during a later, unrelated operation
  (arming in one method and disarming in a paired method of the same
  class is accepted).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from .. import astutil
from ..findings import Finding, Rule

CONSTRUCTORS = {"FlashChip", "MemoryBackend", "FileBackend"}
FACTORY_SUFFIXES = ("FileBackend.open",)

HOOKS = {"crash_after", "on_operation"}


def _is_ctor_call(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = astutil.call_func_name(value)
    if isinstance(value.func, ast.Name) and name in CONSTRUCTORS:
        return True
    dotted = astutil.dotted_name(value.func)
    return dotted is not None and any(
        dotted == s or dotted.endswith("." + s) for s in FACTORY_SUFFIXES
    )


class ResourceLifecycleRule(Rule):
    id = "resource-lifecycle"
    summary = "chip/hook resources acquired without a release on every path"
    hint = (
        "wrap acquisition in try/finally (or a context manager), close "
        "chips/backends, disarm hooks with `...(None)`"
    )

    def run(self, project) -> Iterator[Finding]:
        for mod in project.modules:
            yield from self._check_hooks(mod)
            for func in astutil.walk_functions(mod.tree):
                yield from self._check_locals(mod, func)

    # -- chip/backend locals --------------------------------------------
    def _check_locals(self, mod, func) -> Iterator[Finding]:
        ctor_sites: Dict[str, ast.AST] = {}
        for stmt in astutil.local_statements(func):
            for target, value in astutil.assign_targets(stmt):
                if isinstance(target, ast.Name) and _is_ctor_call(value):
                    ctor_sites[target.id] = value
        for name, site in ctor_sites.items():
            if not self._needs_close(func, name):
                continue
            yield self.finding(
                mod,
                site,
                f"{name} holds a chip/backend that never escapes this "
                "function and is never closed; call .close() in a finally "
                "or use a context manager",
            )

    @staticmethod
    def _needs_close(func, name: str) -> bool:
        """True when ``name`` is only used as a method receiver, sans close."""
        for node in astutil.local_nodes(func):
            if not isinstance(node, ast.Name) or node.id != name:
                continue
            if isinstance(node.ctx, ast.Store):
                continue
            # Walk up any attribute chain: X.a.b -> is the top a call func?
            top = node
            par = astutil.parent(top)
            while isinstance(par, ast.Attribute):
                top = par
                par = astutil.parent(top)
            if (
                isinstance(par, ast.Call)
                and par.func is top
                and isinstance(top, ast.Attribute)
            ):
                if top.attr == "close":
                    return False  # explicitly closed somewhere
                continue  # plain method use, keep scanning
            if isinstance(par, ast.withitem):
                return False  # context-managed
            return False  # escapes: argument, return, store, collection...
        return True

    # -- crash/fault hooks ----------------------------------------------
    def _check_hooks(self, mod) -> Iterator[Finding]:
        classes: Dict[Optional[str], List[ast.Call]] = {}
        disarms: Dict[Optional[str], Set[str]] = {}
        class_methods: Dict[str, Set[str]] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ClassDef):
                class_methods[node.name] = {
                    stmt.name
                    for stmt in node.body
                    if isinstance(stmt, astutil.FUNCTION_TYPES)
                }
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            attr = astutil.call_attr(node)
            if attr not in HOOKS:
                continue
            cls = astutil.enclosing_class(node)
            scope = cls.name if cls is not None else None
            first = node.args[0] if node.args else None
            if first is None or astutil.is_none(first):
                disarms.setdefault(scope, set()).add(attr)
                continue
            receiver = astutil.receiver_dotted(node)
            if (
                receiver == "self"
                and cls is not None
                and attr in class_methods.get(cls.name, ())
            ):
                continue  # the hook's own implementation layer
            classes.setdefault(scope, []).append(node)
        module_disarms = set().union(*disarms.values()) if disarms else set()
        for scope, calls in classes.items():
            for call in calls:
                attr = astutil.call_attr(call)
                scoped = disarms.get(scope, set())
                if attr in scoped or (scope is None and attr in module_disarms):
                    continue
                yield self.finding(
                    mod,
                    call,
                    f"{attr}(...) arms a fault hook with no matching "
                    f"{attr}(None) disarm in the same "
                    f"{'class' if scope else 'module'}; a leaked hook fires "
                    "on later unrelated operations",
                )
