"""phase-discipline: phase scopes and timers must survive exceptions.

The per-phase accounting that backs every figure reproduction rests on
strict pairing: a phase pushed onto the thread-local stack must be
popped, a begin hook must see its end hook, a timer started must be
added to its accumulator — *on every exit path*, or a single raising
write skews all later attribution.  Three shapes are enforced:

* ``stats.phase(name)`` must be used as a ``with`` context (or handed
  to ``ExitStack.enter_context``), never called bare — the scope object
  pops the stack in ``__exit__``;
* paired begin/end hooks (``on_write_begin``/``on_write_end``,
  ``pause``/``resume``, ``begin_phase``/``end_phase``) called on the
  same receiver in one function: the end call must sit in a ``finally``
  block, and a begin with no end at all is flagged;
* timers (``x = chip.clock_us`` / ``x = time.perf_counter()``) whose
  elapsed value feeds an accumulator (``+=``) or a ``record*()`` call:
  the sink must sit in a ``finally`` block.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from .. import astutil
from ..findings import Finding, Rule

PAIRS: Tuple[Tuple[str, str], ...] = (
    ("on_write_begin", "on_write_end"),
    ("pause", "resume"),
    ("begin_phase", "end_phase"),
)

_PAIR_NAMES = {name for pair in PAIRS for name in pair}

TIMER_SOURCES = {"perf_counter", "monotonic"}


class PhaseDisciplineRule(Rule):
    id = "phase-discipline"
    summary = "phase scopes, begin/end hooks or timers not exception-safe"
    hint = (
        "use `with stats.phase(name):`, and put end hooks / timer "
        "accumulation in a `finally:` block"
    )

    def run(self, project) -> Iterator[Finding]:
        for mod in project.modules:
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Call):
                    yield from self._check_phase_call(mod, node)
            for func in astutil.walk_functions(mod.tree):
                yield from self._check_pairs(mod, func)
                yield from self._check_timers(mod, func)

    # -- stats.phase(...) must be a context manager ---------------------
    def _check_phase_call(self, mod, call: ast.Call) -> Iterator[Finding]:
        if astutil.call_attr(call) != "phase":
            return
        par = astutil.parent(call)
        if isinstance(par, ast.withitem) and par.context_expr is call:
            return
        if isinstance(par, ast.Call) and astutil.call_func_name(par) == "enter_context":
            return
        yield self.finding(
            mod,
            call,
            "stats.phase(...) called outside a `with` statement; the scope "
            "object only pops the phase stack via __exit__",
        )

    # -- begin/end hook pairing -----------------------------------------
    def _check_pairs(self, mod, func) -> Iterator[Finding]:
        if func.name in _PAIR_NAMES:
            return  # the implementation of a hook, not a use of it
        calls: List[Tuple[str, Optional[str], ast.Call]] = []
        for node in astutil.local_nodes(func):
            if isinstance(node, ast.Call):
                attr = astutil.call_attr(node)
                if attr in _PAIR_NAMES:
                    calls.append((attr, astutil.receiver_dotted(node), node))
        if not calls:
            return
        for begin_name, end_name in PAIRS:
            begins = [c for c in calls if c[0] == begin_name]
            ends = [c for c in calls if c[0] == end_name]
            for _, receiver, begin_call in begins:
                matching = [e for e in ends if e[1] == receiver]
                if not matching:
                    yield self.finding(
                        mod,
                        begin_call,
                        f"{begin_name}() has no matching {end_name}() on the "
                        f"same receiver in this function",
                    )
                    continue
                for _, _, end_call in matching:
                    if not astutil.in_finally(end_call):
                        yield self.finding(
                            mod,
                            end_call,
                            f"{end_name}() must run in a `finally:` block so "
                            f"it executes even when the section between "
                            f"{begin_name}() and {end_name}() raises",
                        )

    # -- timer sinks ----------------------------------------------------
    def _check_timers(self, mod, func) -> Iterator[Finding]:
        timer_vars: Set[str] = set()
        sinks: List[ast.AST] = []
        for stmt in astutil.local_statements(func):
            for target, value in astutil.assign_targets(stmt):
                if isinstance(target, ast.Name) and self._is_timer_expr(
                    value, timer_vars
                ):
                    timer_vars.add(target.id)
            if isinstance(stmt, ast.AugAssign) and self._references(
                stmt.value, timer_vars
            ):
                sinks.append(stmt)
        if not timer_vars:
            return
        for node in astutil.local_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            attr = astutil.call_attr(node)
            if attr is None or not attr.startswith("record"):
                continue
            if any(self._references(arg, timer_vars) for arg in node.args):
                sinks.append(node)
        for sink in sinks:
            if not astutil.in_finally(sink):
                yield self.finding(
                    mod,
                    sink,
                    "timer accumulation must run in a `finally:` block so an "
                    "exception in the timed section cannot skip it",
                )

    @staticmethod
    def _is_timer_expr(value: ast.AST, timer_vars: Set[str]) -> bool:
        """Clock read, or an expression derived from a known timer var."""
        for node in ast.walk(value):
            if isinstance(node, ast.Attribute) and node.attr == "clock_us":
                return True
            if isinstance(node, ast.Call):
                name = astutil.call_func_name(node)
                if name in TIMER_SOURCES:
                    return True
            if isinstance(node, ast.Name) and node.id in timer_vars:
                return True
        return False

    @staticmethod
    def _references(expr: ast.AST, names: Set[str]) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id in names
            for node in ast.walk(expr)
        )
