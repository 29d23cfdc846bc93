"""lock-order: the static lock-acquisition graph must stay acyclic.

The engine's deadlock-freedom argument (docs/bufferpool.md) is a total
order: pool ``_lock`` → page ``latch`` → a bare driver's
``_driver_lock`` or, on a sharded array, a shard gate
(docs/concurrency.md: a leaf, nothing is acquired under it); a page
calls its pool (``_pin``/``_unpin``) only with its latch released.
Nothing enforces it at runtime — two
threads acquiring two locks in opposite orders deadlock only under the
right interleaving, which is exactly the kind of bug that survives
every test run until production.

This rule rebuilds the order statically, project-wide:

1. **Lock discovery** — ``self.X = threading.Lock()/RLock()`` in any
   class registers lock ``Class.X``, and so does a list of them
   (``self.X = [threading.Lock() for ...]``: one node for the whole
   family, acquired as ``with self.X[i]:``); ``Condition(self.Y)``
   aliases to ``Y``'s lock; assigning another object's known lock
   attribute (``self._cond = pool._lock``) aliases across classes.
2. **Acquisition graph** — every ``with self.X:`` / ``with obj.Y:`` /
   ``with self.X[i]:`` adds edges from all locks held at that point; calls are resolved
   (``self.m()`` to the same class, other receivers only when the
   method name is unique project-wide) and the callee's transitive
   lock footprint is added under the locks held at the call site.
3. **Cycle detection** — a strongly-connected component of two or more
   locks is a potential deadlock and is reported with one example
   acquisition per edge.  Re-entrant self-acquisition is not flagged
   (the pool lock and page latches are RLocks by design).

Ambiguous receivers (an attribute name owned by several classes) and
ambiguous call targets are skipped rather than guessed — the rule
prefers missing an edge to inventing one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .. import astutil
from ..findings import Finding
from ..registry import Rule, register_rule

LOCK_CTORS = {"Lock", "RLock"}
CONDITION_CTORS = {"Condition"}


@dataclass
class _FuncInfo:
    key: Tuple[str, Optional[str], str]  # (module rel, class, name)
    module: object
    node: object
    cls: Optional[str]
    direct_locks: Set[str] = field(default_factory=set)
    #: (held lock id, acquired lock id, lineno) for nested with-blocks.
    edges: List[Tuple[str, str, int]] = field(default_factory=list)
    #: (held ids at call site, receiver-is-self, callee name, lineno)
    calls: List[Tuple[Tuple[str, ...], bool, str, int]] = field(
        default_factory=list
    )


class _LockIndex:
    """Project-wide map from (class, attr) to a canonical lock id."""

    def __init__(self) -> None:
        # (class, attr) -> ("lock", id) | ("alias_self", attr)
        #                 | ("alias_attr", attr)
        self.entries: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def add_class_assigns(self, cls: ast.ClassDef) -> None:
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                entry = self._classify(cls.name, target.attr, node.value)
                if entry is not None:
                    self.entries.setdefault((cls.name, target.attr), entry)

    def _classify(self, cls: str, attr: str, value: ast.AST):
        calls = (
            [value]
            if isinstance(value, ast.Call)
            else [n for n in ast.walk(value) if isinstance(n, ast.Call)]
        )
        for call in calls:
            name = astutil.call_func_name(call)
            if name in LOCK_CTORS:
                return ("lock", f"{cls}.{attr}")
            if name in CONDITION_CTORS:
                if call.args:
                    arg = call.args[0]
                    if (
                        isinstance(arg, ast.Attribute)
                        and isinstance(arg.value, ast.Name)
                        and arg.value.id == "self"
                    ):
                        return ("alias_self", arg.attr)
                    return None  # condition over a non-self lock: skip
                return ("lock", f"{cls}.{attr}")
        if isinstance(value, ast.Attribute):
            # self.X = other.Y — alias by attribute name, resolved later.
            return ("alias_attr", value.attr)
        return None

    def resolve(self, cls: Optional[str], attr: str) -> Optional[str]:
        return self._resolve_entry(cls, attr, set())

    def _resolve_entry(
        self, cls: Optional[str], attr: str, seen: Set[Tuple[Optional[str], str]]
    ) -> Optional[str]:
        if (cls, attr) in seen:
            return None
        seen.add((cls, attr))
        entry = self.entries.get((cls, attr)) if cls is not None else None
        if entry is None:
            # Fall back to a project-unique attribute name.
            candidates = {
                self._resolve_entry(c, a, set(seen))
                for (c, a) in self.entries
                if a == attr
            }
            candidates.discard(None)
            return candidates.pop() if len(candidates) == 1 else None
        kind, payload = entry
        if kind == "lock":
            return payload
        if kind == "alias_self":
            return self._resolve_entry(cls, payload, seen)
        return self._resolve_entry(None, payload, seen)


@register_rule
class LockOrderRule(Rule):
    id = "lock-order"
    summary = "cycles in the static lock-acquisition graph"
    hint = (
        "acquire locks in the documented order (pool lock -> page latch -> "
        "driver lock or shard gate); restructure one side of the cycle"
    )

    def run(self, project) -> Iterator[Finding]:
        index = _LockIndex()
        for mod in project.modules:
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.ClassDef):
                    index.add_class_assigns(node)
        if not index.entries:
            return

        funcs: Dict[Tuple[str, Optional[str], str], _FuncInfo] = {}
        by_name: Dict[str, List[_FuncInfo]] = {}
        for mod in project.modules:
            for func in astutil.walk_functions(mod.tree):
                cls = astutil.enclosing_class(func)
                info = _FuncInfo(
                    key=(mod.rel, cls.name if cls else None, func.name),
                    module=mod,
                    node=func,
                    cls=cls.name if cls else None,
                )
                self._scan_function(info, func, index)
                funcs[info.key] = info
                by_name.setdefault(func.name, []).append(info)

        closures = self._lock_closures(funcs, by_name)

        # Edge set with one example location each.
        edges: Dict[Tuple[str, str], Tuple[object, int]] = {}
        for info in funcs.values():
            for held, acquired, lineno in info.edges:
                if held != acquired:
                    edges.setdefault((held, acquired), (info.module, lineno))
            for held_ids, is_self, callee, lineno in info.calls:
                target = self._resolve_call(info, is_self, callee, by_name)
                if target is None:
                    continue
                for lock in closures.get(target.key, ()):
                    for held in held_ids:
                        if held != lock:
                            edges.setdefault(
                                (held, lock), (info.module, lineno)
                            )

        yield from self._report_cycles(edges)

    # -- per-function scan ----------------------------------------------
    def _scan_function(
        self, info: _FuncInfo, func, index: _LockIndex
    ) -> None:
        def lock_of(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Subscript):
                expr = expr.value  # one of a family: self._gates[index]
            if not isinstance(expr, ast.Attribute):
                return None
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return index.resolve(info.cls, expr.attr)
            return index.resolve(None, expr.attr)

        def visit(stmts, held: Tuple[str, ...]) -> None:
            for stmt in stmts:
                if isinstance(stmt, astutil.FUNCTION_TYPES + (ast.ClassDef,)):
                    continue
                new_held = held
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    acquired = []
                    for item in stmt.items:
                        lock = lock_of(item.context_expr)
                        if lock is not None:
                            acquired.append(lock)
                    for lock in acquired:
                        info.direct_locks.add(lock)
                        for h in new_held:
                            info.edges.append((h, lock, stmt.lineno))
                        new_held = new_held + (lock,)
                self._record_calls(info, stmt, new_held)
                for name in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, name, None)
                    if inner:
                        visit(inner, new_held)
                for handler in getattr(stmt, "handlers", []) or []:
                    visit(handler.body, new_held)

        visit(func.body, ())

    def _record_calls(self, info: _FuncInfo, stmt, held: Tuple[str, ...]) -> None:
        """Record method calls in ``stmt``'s own expressions (not sub-blocks).

        Nested block statements get their own visit with the right held
        set; calls inside lambdas/nested defs run later, not here, so
        both are excluded by walking up to the nearest statement.
        """
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            anc = astutil.parent(node)
            immediate = True
            while anc is not None and anc is not stmt:
                if isinstance(
                    anc,
                    astutil.FUNCTION_TYPES + (ast.ClassDef, ast.Lambda, ast.stmt),
                ):
                    immediate = False
                    break
                anc = astutil.parent(anc)
            if not immediate:
                continue
            name = astutil.call_func_name(node)
            if name is None:
                continue
            receiver = astutil.receiver_dotted(node)
            is_self = receiver is not None and receiver.split(".")[0] == "self"
            info.calls.append((held, is_self, name, node.lineno))

    # -- closures and call resolution ------------------------------------
    @staticmethod
    def _lock_closures(funcs, by_name) -> Dict[tuple, Set[str]]:
        closures = {key: set(info.direct_locks) for key, info in funcs.items()}
        changed = True
        while changed:
            changed = False
            for key, info in funcs.items():
                for _held, is_self, callee, _lineno in info.calls:
                    target = LockOrderRule._resolve_call(
                        info, is_self, callee, by_name
                    )
                    if target is None:
                        continue
                    before = len(closures[key])
                    closures[key] |= closures[target.key]
                    if len(closures[key]) != before:
                        changed = True
        return closures

    @staticmethod
    def _resolve_call(
        info: _FuncInfo, is_self: bool, callee: str, by_name
    ) -> Optional[_FuncInfo]:
        candidates = by_name.get(callee, [])
        if not candidates:
            return None
        if is_self and info.cls is not None:
            same_class = [
                c for c in candidates
                if c.cls == info.cls and c.module.rel == info.module.rel
            ]
            if len(same_class) == 1:
                return same_class[0]
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- cycle reporting --------------------------------------------------
    def _report_cycles(self, edges) -> Iterator[Finding]:
        graph: Dict[str, Set[str]] = {}
        for (a, b) in edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        for component in _tarjan_sccs(graph):
            if len(component) < 2:
                continue
            locks = sorted(component)
            examples = []
            for (a, b), (mod, lineno) in sorted(
                edges.items(), key=lambda kv: (kv[0][0], kv[0][1])
            ):
                if a in component and b in component:
                    examples.append((a, b, mod, lineno))
            first_mod = examples[0][2]
            first_line = examples[0][3]
            detail = "; ".join(
                f"{a} held while acquiring {b} ({m.rel}:{ln})"
                for a, b, m, ln in examples
            )
            yield Finding(
                rule=self.id,
                path=first_mod.rel,
                line=first_line,
                message=(
                    "lock-order cycle between "
                    + ", ".join(locks)
                    + ": "
                    + detail
                ),
                severity=self.severity,
                hint=self.hint,
            )


def _tarjan_sccs(graph: Dict[str, Set[str]]) -> List[Set[str]]:
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    result: List[Set[str]] = []

    def strongconnect(v: str) -> None:
        index[v] = lowlink[v] = index_counter[0]
        index_counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in graph.get(v, ()):
            if w not in index:
                strongconnect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            component = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.add(w)
                if w == v:
                    break
            result.append(component)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return result
