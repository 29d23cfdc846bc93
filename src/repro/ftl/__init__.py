"""FTL layer: driver contract, allocator/GC framework, baseline methods.

* :class:`PageUpdateMethod` — the driver contract all methods implement.
* :class:`BlockManager` / :class:`GarbageCollector` — out-place free-space
  management shared by OPU and PDL.
* :class:`OpuDriver` / :class:`IpuDriver` — the page-based baselines.
* :class:`IplDriver` — the log-based baseline (in-page logging).
"""

from .allocator import COLD_STREAM, HOT_STREAM, BlockManager
from .base import ChangeRun, PageUpdateMethod, apply_runs
from .errors import (
    ConfigurationError,
    FtlError,
    OutOfSpaceError,
    UnallocatedPageError,
    UnknownPageError,
)
from .gc import (
    GarbageCollector,
    GcConfig,
    RelocationHandler,
    VictimPolicy,
    cost_benefit_policy,
    greedy_policy,
    make_victim_policy,
    victim_policy_names,
    wear_aware_policy,
)
from .ipl import IplDriver, decode_slot, encode_slot
from .ipu import IpuDriver
from .opu import OpuDriver

__all__ = [
    "BlockManager",
    "COLD_STREAM",
    "ChangeRun",
    "ConfigurationError",
    "FtlError",
    "GarbageCollector",
    "GcConfig",
    "HOT_STREAM",
    "IplDriver",
    "IpuDriver",
    "OpuDriver",
    "OutOfSpaceError",
    "PageUpdateMethod",
    "RelocationHandler",
    "UnallocatedPageError",
    "UnknownPageError",
    "VictimPolicy",
    "apply_runs",
    "cost_benefit_policy",
    "decode_slot",
    "encode_slot",
    "greedy_policy",
    "make_victim_policy",
    "victim_policy_names",
    "wear_aware_policy",
]
