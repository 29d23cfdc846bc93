"""Source loading: every Python file under the scanned paths, parsed once.

A :class:`Project` is the unit the engine hands to rules.  Each module's
tree has parent links attached (``node.repro_parent``) so rules can
walk upward.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Set

#: Directories never scanned even when nested under a requested path.
_SKIP_DIRS = {".git", "__pycache__", ".venv", "node_modules", ".mypy_cache"}


@dataclass
class Module:
    """One parsed source file."""

    #: POSIX-style path relative to the scan root; the display key.
    rel: str
    tree: ast.AST


@dataclass
class Project:
    modules: List[Module]
    #: Files that failed to parse, as (rel_path, error) pairs.
    broken: List[tuple] = field(default_factory=list)


def _attach_parents(tree: ast.AST) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child.repro_parent = parent  # type: ignore[attr-defined]


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIRS for part in sub.parts):
                    continue
                files.append(sub)
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while keeping order (overlapping path arguments).
    seen: Set[Path] = set()
    unique = []
    for f in files:
        resolved = f.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(f)
    return unique


def load_project(paths: Iterable[Path], root: Path) -> Project:
    """Parse every Python file under ``paths`` into a :class:`Project`.

    ``root`` anchors the relative paths used in findings; files outside
    ``root`` keep their absolute path as the key.
    """
    root = root.resolve()
    modules: List[Module] = []
    broken: List[tuple] = []
    for path in iter_python_files(paths):
        resolved = path.resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            rel = resolved.as_posix()
        try:
            tree = ast.parse(resolved.read_text(encoding="utf-8"), filename=str(resolved))
        except (OSError, SyntaxError, ValueError) as exc:
            broken.append((rel, f"{type(exc).__name__}: {exc}"))
            continue
        _attach_parents(tree)
        modules.append(Module(rel=rel, tree=tree))
    return Project(modules=modules, broken=broken)
