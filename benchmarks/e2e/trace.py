"""Layer-attributed tracing, entirely from the benchmark's side.

One table, :data:`LAYERS`, names the public entry points of every layer
of the engine.  :meth:`Tracer.installed` replaces each with a timing
shim for the length of the traced pass — patching the name where it is
looked up (the class attribute, or every module namespace that holds a
``from ... import`` alias of a function) — and restores the originals on
exit.  Nothing under ``src/`` is edited; in-program spans are a later
issue (ROADMAP item 5).

A span is ``[op_id, layer, name, start_ns, end_ns, parent, child_ns,
thread, root_layer]`` on a thread-local stack.  ``op_id`` is a tracer-global counter
bumped by each root ``workloads`` span; it is valid on worker threads
because the loop is closed with one op in flight, and for the same
reason a worker's outermost span takes the client thread's innermost
open span as its parent.  A span's *self time* is its duration minus
``child_ns``, the time its direct children cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The layer whose parentless spans delimit ops.
ROOT_LAYER = "workloads"

#: The layer of the benchmark's own work between ops.  Spans under a
#: ``harness`` root (a timed restart of a flash copy, crash-restart's
#: power loss + restart + durability check) are traced, but kept out of
#: the per-op layer figures: they are not what an op costs.
HARNESS_LAYER = "harness"

# Span record slots.  ROOT is the layer of the span's outermost ancestor.
OP, LAYER, NAME, START, END, PARENT, CHILD_NS, THREAD, ROOT = range(9)


@dataclass(frozen=True)
class Target:
    """One entry point: ``module`` + dotted ``qualname`` inside it.
    ``measure(args, result)`` optionally yields a number summed per
    layer at the boundary (bytes written, differential size)."""

    module: str
    qualname: str
    measure: Optional[Callable[[tuple, Any], float]] = None


def _methods(module: str, cls: str, *names: str) -> List[Target]:
    return [Target(module, f"{cls}.{name}") for name in names]


def _program_bytes(args: tuple, _result: Any) -> float:
    return len(args[2]) + len(args[3])  # (self, addr, data, spare)


def _write_bytes(args: tuple, _result: Any) -> float:
    return len(args[2])  # (self, addr, payload, programs)


def _batch_bytes(args: tuple, _result: Any) -> float:
    return sum(len(data) + len(spare) for _addr, data, spare in args[1])


def _backend(cls: str) -> List[Target]:
    module = "repro.flash.backend"
    return _methods(
        module, cls, "read_data", "read_spare", "read_pages", "read_spares",
        "erase_block",
    ) + [
        Target(module, f"{cls}.program_page", _program_bytes),
        Target(module, f"{cls}.program_pages", _batch_bytes),
        Target(module, f"{cls}.write_data", _write_bytes),
        Target(module, f"{cls}.write_spare", _write_bytes),
    ]


_DIFF = "repro.core.differential"

#: layer -> public entry points.  The tracer's whole knowledge of the engine.
LAYERS: Dict[str, List[Target]] = {
    ROOT_LAYER: [Target("workloads", "Workload.execute")],
    HARNESS_LAYER: [
        Target("workloads", "Workload.sample_restart"),
        Target("workloads", "CrashRestart._crash_and_verify"),
    ],
    "bufferpool": _methods(
        "repro.storage.bufferpool.manager", "BufferManager",
        "get_page", "create_page", "flush_page", "flush_all", "clear",
    ),
    "storage": _methods(
        "repro.storage.btree", "BTree", "get", "insert", "delete", "items", "min_item",
    ) + _methods(
        "repro.storage.heap", "HeapFile", "insert", "read", "update", "delete", "scan",
    ),
    "sharding": _methods(
        "repro.sharding.driver", "ShardedDriver",
        "read_page", "write_page", "write_pages", "flush", "group_flush",
    ) + _methods(
        "repro.sharding.executor", "ParallelShardedDriver",
        "read_page", "write_page", "write_pages", "group_flush",
    ),
    "transport": _methods(
        "repro.sharding.executor", "ShardExecutor", "run", "submit", "map",
    ),
    "pdl": _methods(
        "repro.core.pdl", "PdlDriver", "read_page", "write_page", "write_pages", "flush",
    ),
    "codec": [
        Target(_DIFF, "compute_unit_runs"),
        Target(_DIFF, "find_differential"),
        Target(_DIFF, "Differential.from_pages", lambda _args, diff: diff.size),
        Target(_DIFF, "Differential.encode"),
        Target(_DIFF, "Differential.decode_from"),
        Target(_DIFF, "Differential.apply"),
    ],
    "mapping": _methods(
        "repro.core.mapping", "TieredMappingTable",
        "get", "require", "set_base", "move_base", "set_diff",
    ) + _methods(
        "repro.ext.journal", "MappingStore",
        "record", "commit", "snapshot", "load_data_page",
    ),
    "gc": _methods("repro.ftl.gc", "GarbageCollector", "collect", "step"),
    "chip": _methods(
        "repro.flash.chip", "FlashChip",
        "read_page", "read_pages", "read_spares", "program_page", "program_pages",
        "program_spare", "mark_obsolete", "erase_block",
    ),
    "backend": _backend("MemoryBackend") + _backend("FileBackend") + [
        Target("repro.flash.backend", "FileBackend.sync"),  # a no-op in memory
    ],
    "recovery": [
        Target("repro.ext.journal", "restart_driver"),
        Target("repro.core.recovery", "recover_driver"),
    ],
    "fsck": [Target("repro.core.fsck", "fsck_driver")],
}


class Tracer:
    """Collects spans while its shims are installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op_id = 0
        #: Shims pass straight through until this is set, so the tracer
        #: can be installed before set-up (objects built during set-up
        #: capture bound methods, e.g. the allocator's GC callback)
        #: without recording set-up's spans.
        self.recording = False
        #: Per-layer sums of the targets' ``measure`` readings.
        self.measured: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self._local = threading.local()
        self._main_stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target for the ``with`` block, then restore."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._main_stack
        self._local.thread = threading.get_ident()
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    self._patch(layer, target)
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def _patch(self, layer: str, target: Target) -> None:
        module = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        owner: Any = module
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            shim: Any = classmethod(
                self._shim(layer, target.qualname, original.__func__, target.measure)
            )
        else:
            shim = self._shim(layer, target.qualname, original, target.measure)
        if path:
            holders = [owner]
        else:
            # A module-level function: every namespace that imported it
            # by name holds its own reference.
            holders = [
                mod for mod in list(sys.modules.values())
                if mod is not None and getattr(mod, "__dict__", {}).get(attr) is original
            ]
        for holder in holders:
            self._patched.append((holder, attr, original))
            setattr(holder, attr, shim)

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def _begin(self, layer: str, name: str) -> list:
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
            local.thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]  # worker: the client is blocked on us
        else:
            parent = None
            if layer == ROOT_LAYER:
                self.op_id += 1
        root = layer if parent is None else parent[ROOT]
        rec = [self.op_id, layer, name, 0, 0, parent, 0, local.thread, root]
        self.spans.append(rec)
        stack.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _end(self, rec: list) -> None:
        end = time.perf_counter_ns()
        rec[END] = end
        self._local.stack.pop()
        parent = rec[PARENT]
        # A worker's outermost span may have been adopted by a client
        # span that has since returned (``submit`` hands the task over
        # and is gone); the time belongs to the ancestor still waiting.
        while parent is not None and parent[END]:
            parent = rec[PARENT] = parent[PARENT]
        if parent is not None:
            parent[CHILD_NS] += end - rec[START]

    def _shim(self, layer: str, name: str, fn: Callable, measure) -> Callable:
        begin, end, measured = self._begin, self._end, self.measured

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the time between two yields is the
            # consumer's, not this layer's.
            def gen_shim(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                if not self.recording:
                    yield from iterator
                    return
                while True:
                    rec = begin(layer, name)
                    try:
                        value = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end(rec)
                    yield value

            return gen_shim

        def shim(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rec = begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(rec)
            if measure is not None:
                measured[layer] += measure(args, result)
            return result

        return shim

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """One JSON object per span; ``parent`` is the parent's line index."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                parent = rec[PARENT]
                fh.write(json.dumps({
                    "id": i,
                    "op": rec[OP],
                    "layer": rec[LAYER],
                    "name": rec[NAME],
                    "start_ns": rec[START],
                    "end_ns": rec[END],
                    "self_ns": rec[END] - rec[START] - rec[CHILD_NS],
                    "parent": None if parent is None else index[id(parent)],
                    "thread": rec[THREAD],
                }) + "\n")

    def write_chrome_trace(self, path) -> None:
        """Chrome / Perfetto ``traceEvents`` (complete events, us)."""
        origin = self.spans[0][START] if self.spans else 0
        events = [
            {
                "name": rec[NAME],
                "cat": rec[LAYER],
                "ph": "X",
                "ts": (rec[START] - origin) / 1e3,
                "dur": (rec[END] - rec[START]) / 1e3,
                "pid": 0,
                "tid": rec[THREAD],
                "args": {"op": rec[OP]},
            }
            for rec in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)


class TraceSummary:
    """Self time, total time and call counts, by layer and by name, of
    the spans that are op work; the harness's own spans are summed
    apart in ``outside_self_ns``."""

    def __init__(self, spans: List[list]) -> None:
        self.n_spans = len(spans)
        #: layer -> self time of the spans under a ``harness`` root.
        self.outside_self_ns: Dict[str, int] = {}
        self.layer_self_ns: Dict[str, int] = {}
        self.layer_calls: Dict[str, int] = {}
        self.name_self_ns: Dict[str, int] = {}
        self.name_total_ns: Dict[str, int] = {}
        self.name_calls: Dict[str, int] = {}
        #: (child name, parent name) -> calls ("fetches issued by storage").
        self.edge_calls: Dict[Tuple[str, str], int] = {}
        #: Durations of parentless ROOT_LAYER spans, one per op.
        self.op_ns: List[int] = []
        for rec in spans:
            layer, name = rec[LAYER], rec[NAME]
            total = rec[END] - rec[START]
            own = total - rec[CHILD_NS]
            if rec[ROOT] == HARNESS_LAYER:
                self.outside_self_ns[layer] = self.outside_self_ns.get(layer, 0) + own
                continue
            self.layer_self_ns[layer] = self.layer_self_ns.get(layer, 0) + own
            self.layer_calls[layer] = self.layer_calls.get(layer, 0) + 1
            self.name_self_ns[name] = self.name_self_ns.get(name, 0) + own
            self.name_total_ns[name] = self.name_total_ns.get(name, 0) + total
            self.name_calls[name] = self.name_calls.get(name, 0) + 1
            parent = rec[PARENT]
            if parent is None:
                if layer == ROOT_LAYER:
                    self.op_ns.append(total)
            else:
                edge = (name, parent[NAME])
                self.edge_calls[edge] = self.edge_calls.get(edge, 0) + 1

    @property
    def total_self_ns(self) -> int:
        return sum(self.layer_self_ns.values()) + sum(self.outside_self_ns.values())

    def calls(self, *suffixes: str) -> int:
        """Calls of every traced name ending in one of ``suffixes``."""
        return sum(
            count for name, count in self.name_calls.items() if name.endswith(suffixes)
        )

    def self_ns(self, *suffixes: str) -> int:
        return sum(
            ns for name, ns in self.name_self_ns.items() if name.endswith(suffixes)
        )

    def edges(self, child: str, *parent_prefixes: str) -> int:
        """Calls of ``child`` made directly from a span whose name starts
        with one of ``parent_prefixes``."""
        return sum(
            count for (name, parent), count in self.edge_calls.items()
            if name == child and parent.startswith(parent_prefixes)
        )

    def total_ns(self, *suffixes: str) -> int:
        return sum(
            ns for name, ns in self.name_total_ns.items() if name.endswith(suffixes)
        )
