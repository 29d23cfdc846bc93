"""Driver registry: build any of the paper's methods from its figure label.

The experiments compare six configurations; this module maps the paper's
labels to constructed drivers so workloads and benchmarks can be written
against names::

    make_method("PDL (256B)", chip)
    make_method("IPL (18KB)", chip)
    make_method("PDL (256B) x4 gc=cb", chips)   # four chips, cost-benefit GC

A label is one way of writing an :class:`~repro.config.EngineConfig`
down; :meth:`EngineConfig.parse <repro.config.EngineConfig.parse>` is
the one tokenizer and states the grammar (method, ``xN`` shard count,
``gc=<policy>``).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from .config import Chips, EngineConfig
from .ftl.base import PageUpdateMethod
from .sharding.router import ShardRouter

#: The six configurations of the paper's evaluation (Figure 12's legend).
PAPER_METHODS = (
    "IPL (18KB)",
    "IPL (64KB)",
    "PDL (2KB)",
    "PDL (256B)",
    "OPU",
    "IPU",
)

#: The five methods of Figure 17/18 (IPU excluded, as in the paper).
PAPER_METHODS_NO_IPU = tuple(m for m in PAPER_METHODS if m != "IPU")


def make_method(
    label: str, chip: Chips, *, router: Optional[ShardRouter] = None, **fields: Any
) -> PageUpdateMethod:
    """Construct the driver named by a paper-style label.

    ``fields`` are further :class:`~repro.config.EngineConfig` fields
    (e.g. ``diff_unit`` or ``gc=GcConfig(incremental_steps=4)`` for the
    ablations); one the label already sets may not be passed again.
    Sharded labels (``xN``) take exactly N chips; ``router`` overrides
    the default :class:`HashRouter` partition.
    """
    return EngineConfig.parse(label, **fields).build(chip, router)


def method_labels(include_ipu: bool = True) -> List[str]:
    """The standard comparison set, in the paper's plotting order."""
    return list(PAPER_METHODS if include_ipu else PAPER_METHODS_NO_IPU)


def sharded_labels(base: str, shard_counts: Sequence[int]) -> List[str]:
    """Labels for a shard-scaling sweep, e.g. ``["PDL (256B) x1", ...]``."""
    return [f"{base} x{n}" for n in shard_counts]
