"""bare-except: bare ``except:`` and silently swallowed broad catches.

Damage is ordinary input here, and the code that meets it counts it:
the Figure-11 scan reports and quarantines every page it cannot decode,
and fsck records every finding.  What each lets pass on purpose is
narrow — ``mark_obsolete_quietly`` (core/fsck.py, shared by fsck and
the scan) catches only the ``ProgramError`` of marking an
already-quarantined page obsolete.  The broad catches that remain
re-raise: a sharded fan-out finishes every shard, then raises the first
failure (``_join`` in sharding/driver.py), and ``Database.open`` and
``FileBackend`` release what they opened before the error propagates.
A broad catch that drops the error would turn a corrupt page into a
silent wrong answer.  Two shapes are flagged everywhere:

* bare ``except:`` — also catches ``KeyboardInterrupt``/``SystemExit``,
  so nothing can interrupt the code it guards;
* ``except Exception:`` / ``except BaseException:`` whose body is only
  ``pass``/``...`` — the error vanishes without a trace.

There are no worker threads to keep alive and no cleanup path that may
drop an error, so the rule has no exemptions: a best-effort close
catches the specific exception it expects, or re-raises.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Rule

BROAD = {"Exception", "BaseException"}


def _is_broad(expr) -> bool:
    if isinstance(expr, ast.Name) and expr.id in BROAD:
        return True
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(e) for e in expr.elts)
    return False


def _only_pass(body) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


class BareExceptRule(Rule):
    id = "bare-except"
    summary = "bare except clauses and silently swallowed broad exceptions"
    hint = "catch a specific exception, or record/re-raise the error"

    def run(self, project) -> Iterator[Finding]:
        for mod in project.modules:
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield self.finding(
                        mod,
                        node,
                        "bare `except:` also catches KeyboardInterrupt and "
                        "SystemExit; catch a specific exception type",
                    )
                elif _is_broad(node.type) and _only_pass(node.body):
                    name = (
                        node.type.id
                        if isinstance(node.type, ast.Name)
                        else "a broad tuple"
                    )
                    yield self.finding(
                        mod,
                        node,
                        f"`except {name}: pass` swallows the error with no "
                        "trace; log, collect, or re-raise it",
                    )
