"""Old names of the one sharded driver and its gate set.

The gates live in :mod:`repro.sharding.driver` and there is one sharded
driver, :class:`~repro.sharding.driver.ShardedDriver`; this module only
keeps the names a frozen benchmark resolves.
"""

from .driver import ShardedDriver, ShardExecutor  # noqa: F401  benchmarks/e2e/trace.py

ParallelShardedDriver = ShardedDriver  # benchmarks/e2e/trace.py
