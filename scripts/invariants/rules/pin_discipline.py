"""pin-discipline: raw ``pin()``/``unpin()`` outside the pool internals.

A raw ``pin()`` with an exception before the matching ``unpin()``
leaves the frame unevictable forever — the pool fills with pinned
garbage and ``get_page`` eventually raises ``BufferError`` ("all buffer
frames are pinned").  ``BufferManager.pinned(pid)`` / ``Page.pinned()``
pair the two in a context manager; only ``storage/page.py``, which
defines them, may call the raw methods (the pool counts its own pins
under its lock and never calls them).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Rule
from . import path_matches

ALLOWED_PATHS = ("repro/storage/page.py",)


class PinDisciplineRule(Rule):
    id = "pin-discipline"
    summary = "raw pin()/unpin() calls instead of the pinned() context managers"
    hint = (
        "use `with pool.pinned(pid) as page:` or `with page.pinned():` so the "
        "unpin runs on every exit path"
    )

    def run(self, project) -> Iterator[Finding]:
        for mod in project.modules:
            if path_matches(mod.rel, ALLOWED_PATHS):
                continue
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr in ("pin", "unpin") and not node.args:
                    yield self.finding(
                        mod,
                        node,
                        f"raw .{node.func.attr}() call; an exception between "
                        "pin and unpin leaks the pin count",
                    )
