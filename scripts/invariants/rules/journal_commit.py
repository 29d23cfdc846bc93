"""journal-flush-before-ack: OPEN_BLOCK records must commit in-function.

The mapping journal's one hard ordering rule (docs/recovery.md): the
``OPEN_BLOCK`` record for a freshly opened data block must be group-
committed to flash *before* the block's first program can land.  Every
other record kind may buffer — losing it at a crash is safe because the
seeded tail scan re-derives the state it describes — but an open block
the journal never acknowledged is invisible to that scan, and every
page programmed into it is silently lost.

The enforced shape is lexical, like the other pairing rules: any call
``record(REC_OPEN_BLOCK, ...)`` must be followed, later in the same
function body, by a ``commit()`` call.  A commit *before* the record
does not count (it flushed earlier records, not this one), and commits
inside nested functions do not count either.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from .. import astutil
from ..findings import Finding, Rule


def _is_open_block_record(call: ast.Call) -> bool:
    if astutil.call_func_name(call) != "record" or not call.args:
        return False
    name = astutil.dotted_name(call.args[0])
    return name is not None and name.split(".")[-1] == "REC_OPEN_BLOCK"


class JournalFlushBeforeAckRule(Rule):
    id = "journal-flush-before-ack"
    summary = "OPEN_BLOCK journal record without a following commit()"
    hint = (
        "call commit() after record(REC_OPEN_BLOCK, ...) in the same "
        "function, before the opened block's first program can land"
    )

    def run(self, project) -> Iterator[Finding]:
        for mod in project.modules:
            for func in astutil.walk_functions(mod.tree):
                yield from self._check_function(mod, func)

    def _check_function(self, mod, func) -> Iterator[Finding]:
        records: List[ast.Call] = []
        commits: List[Tuple[int, int]] = []
        for node in astutil.local_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            if _is_open_block_record(node):
                records.append(node)
            elif astutil.call_func_name(node) == "commit":
                commits.append((node.lineno, node.col_offset))
        for call in records:
            pos = (call.lineno, call.col_offset)
            if not any(commit > pos for commit in commits):
                yield self.finding(
                    mod,
                    call,
                    "record(REC_OPEN_BLOCK, ...) is not followed by commit() "
                    "in this function; an unacknowledged open block is "
                    "invisible to the restart tail scan and its pages are "
                    "silently lost",
                )
