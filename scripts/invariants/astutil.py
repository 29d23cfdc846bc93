"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` chains of Name/Attribute nodes, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_attr(node: ast.Call) -> Optional[str]:
    """The attribute name of a method call (``x.y.foo()`` -> ``foo``)."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def call_func_name(node: ast.Call) -> Optional[str]:
    """The terminal callable name (``foo()`` or ``x.foo()`` -> ``foo``)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def receiver_dotted(node: ast.Call) -> Optional[str]:
    """Dotted receiver of a method call (``a.b.foo()`` -> ``a.b``)."""
    if isinstance(node.func, ast.Attribute):
        return dotted_name(node.func.value)
    return None


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "repro_parent", None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


def enclosing_class(node: ast.AST) -> Optional[ast.ClassDef]:
    for anc in ancestors(node):
        if isinstance(anc, ast.ClassDef):
            return anc
    return None


def in_finally(node: ast.AST) -> bool:
    """True when ``node`` sits inside the ``finally`` block of some try."""
    child = node
    for anc in ancestors(node):
        if isinstance(anc, ast.Try) and _contains(anc.finalbody, child):
            return True
        child = anc
    return False


def _contains(block: List[ast.stmt], node: ast.AST) -> bool:
    return any(stmt is node for stmt in block)


def walk_functions(tree: ast.AST) -> Iterator[FunctionNode]:
    for node in ast.walk(tree):
        if isinstance(node, FUNCTION_TYPES):
            yield node


def local_statements(func: FunctionNode) -> Iterator[ast.stmt]:
    """All statements in ``func``, excluding those of nested functions."""

    def visit(stmts) -> Iterator[ast.stmt]:
        for stmt in stmts:
            yield stmt
            if isinstance(stmt, FUNCTION_TYPES + (ast.ClassDef,)):
                continue
            for name in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, name, None)
                if inner:
                    yield from visit(inner)
            handlers = getattr(stmt, "handlers", None)
            if handlers:
                for handler in handlers:
                    yield from visit(handler.body)

    yield from visit(func.body)


def local_nodes(func: FunctionNode) -> Iterator[ast.AST]:
    """All AST nodes in ``func`` body, excluding nested function bodies."""
    for stmt in local_statements(func):
        yield stmt
        for node in ast.walk(stmt):
            if node is stmt:
                continue
            if isinstance(node, FUNCTION_TYPES):
                continue
            # Skip nodes owned by a nested function definition.
            if any(
                isinstance(anc, FUNCTION_TYPES) and anc is not func
                for anc in _ancestors_until(node, stmt)
            ):
                continue
            yield node


def _ancestors_until(node: ast.AST, stop: ast.AST) -> Iterator[ast.AST]:
    current = getattr(node, "repro_parent", None)
    while current is not None and current is not stop:
        yield current
        current = getattr(current, "repro_parent", None)


def is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def is_false(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def keyword_arg(node: ast.Call, name: str) -> Optional[ast.AST]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def assign_targets(stmt: ast.stmt) -> List[Tuple[ast.AST, ast.AST]]:
    """(target, value) pairs for plain assignments, tuple-unpacked or not."""
    pairs: List[Tuple[ast.AST, ast.AST]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            pairs.append((target, stmt.value))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        pairs.append((stmt.target, stmt.value))
    return pairs
