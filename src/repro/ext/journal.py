"""Compatibility alias, not a module of its own.

The frozen end-to-end benchmark imports this name in three places
(``benchmarks/e2e/workloads.py:30``, ``trace.py:128`` and ``:141``), and
its files change only with the benchmark itself.  The ROADMAP item "Un-red
the harness and close the measurement loop" re-points those lines and
deletes ``src/repro/ext/``.  These are the same objects, not wrappers:
the tracer patches them by identity.
"""

from ..core.mapping_store import MappingStore
from ..core.restart import restart_driver

__all__ = ["MappingStore", "restart_driver"]
