"""single-writer: shard mutators belong to the sharding layer.

Each shard driver is single-threaded state; the concurrency design
(docs/concurrency.md) gives every shard one writer at a time — the
thread holding its gate, which only the sharded driver takes.
Application code reaches a shard *through* the sharded driver's router,
never by plucking ``driver.shards[i]`` out and mutating it directly: a
direct call holds no gate, so it races with whoever does and corrupts
the shard's mapping tables (the GC hooks raise; nothing else notices).

The rule flags calls to shard mutators (``write_page``, ``flush``,
``load_page``...) on receivers derived from a ``.shards`` sequence —
direct subscripts (``driver.shards[0].flush()``), loop variables
(``for s in driver.shards: s.flush()``), locals
(``s = driver.shards[i]``) and lambda defaults — outside the sharding
layer itself (the driver and recovery modules, which *are* the owning
layer).  Read-only access (stats, counters) is fine and not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from .. import astutil
from ..findings import Finding, Rule
from . import path_matches

MUTATORS = {
    "write_page",
    "write_pages",
    "load_page",
    "load_pages",
    "flush",
    "group_flush",
    "end_of_load",
}

ALLOWED_PATHS = (
    "repro/sharding/driver.py",
    "repro/sharding/recovery.py",
)


def _is_shards_expr(node: ast.AST) -> bool:
    dotted = astutil.dotted_name(node)
    if dotted is None:
        return False
    return dotted.split(".")[-1] in ("shards", "_shards")


def _is_shard_subscript(node: ast.AST) -> bool:
    return isinstance(node, ast.Subscript) and _is_shards_expr(node.value)


class SingleWriterRule(Rule):
    id = "single-writer"
    summary = "shard-owned driver mutators called outside the sharding layer"
    hint = (
        "route the operation through the sharded driver (it owns the "
        "routing and takes the shard's gate) instead of mutating "
        "driver.shards[i] directly"
    )

    def run(self, project) -> Iterator[Finding]:
        for mod in project.modules:
            if path_matches(mod.rel, ALLOWED_PATHS):
                continue
            for func in astutil.walk_functions(mod.tree):
                yield from self._check_scope(
                    mod, list(astutil.local_nodes(func))
                )
            yield from self._check_scope(mod, self._module_level_nodes(mod.tree))
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Lambda):
                    yield from self._check_lambda(mod, node)

    @staticmethod
    def _module_level_nodes(tree) -> list:
        nodes = []
        for stmt in getattr(tree, "body", []):
            if isinstance(stmt, astutil.FUNCTION_TYPES + (ast.ClassDef,)):
                continue
            nodes.extend(ast.walk(stmt))
        return nodes

    def _check_scope(self, mod, nodes) -> Iterator[Finding]:
        shard_names: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.For):
                shard_names.update(self._loop_bindings(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target, value in astutil.assign_targets(node):
                    if isinstance(target, ast.Name) and _is_shard_subscript(value):
                        shard_names.add(target.id)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_call(mod, node, shard_names)

    @staticmethod
    def _loop_bindings(loop: ast.For) -> Set[str]:
        names: Set[str] = set()
        iter_expr = loop.iter
        target = loop.target
        if isinstance(iter_expr, ast.Call) and astutil.call_func_name(iter_expr) in (
            "enumerate",
            "reversed",
            "list",
        ):
            if iter_expr.args:
                inner = iter_expr.args[0]
                if _is_shards_expr(inner):
                    if (
                        astutil.call_func_name(iter_expr) == "enumerate"
                        and isinstance(target, ast.Tuple)
                        and len(target.elts) == 2
                        and isinstance(target.elts[1], ast.Name)
                    ):
                        names.add(target.elts[1].id)
                    elif isinstance(target, ast.Name):
                        names.add(target.id)
        elif _is_shards_expr(iter_expr) and isinstance(target, ast.Name):
            names.add(target.id)
        return names

    def _check_call(
        self, mod, call: ast.Call, shard_names: Set[str]
    ) -> Iterator[Finding]:
        attr = astutil.call_attr(call)
        if attr not in MUTATORS:
            return
        receiver = call.func.value  # type: ignore[union-attr]
        described: Optional[str] = None
        if _is_shard_subscript(receiver):
            described = astutil.dotted_name(receiver.value)  # type: ignore[union-attr]
            described = f"{described}[...]"
        elif isinstance(receiver, ast.Name) and receiver.id in shard_names:
            described = receiver.id
        if described is not None:
            yield self.finding(
                mod,
                call,
                f"direct call to shard mutator {described}.{attr}() outside "
                "the sharding layer violates single-writer ownership",
            )

    def _check_lambda(self, mod, lam: ast.Lambda) -> Iterator[Finding]:
        bound: Set[str] = set()
        args = lam.args
        positional = args.posonlyargs + args.args
        defaults = args.defaults
        if defaults:
            for arg, default in zip(positional[-len(defaults):], defaults):
                if _is_shard_subscript(default) or _is_shards_expr(default):
                    bound.add(arg.arg)
        for kwarg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and (
                _is_shard_subscript(default) or _is_shards_expr(default)
            ):
                bound.add(kwarg.arg)
        if not bound:
            return
        for node in ast.walk(lam.body):
            if isinstance(node, ast.Call):
                yield from self._check_call(mod, node, bound)
