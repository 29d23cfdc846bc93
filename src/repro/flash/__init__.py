"""NAND flash emulator substrate (scaled: docs/paper-map.md, "Substitutions").

Public surface:

* :class:`FlashSpec` — chip geometry and Table-1 latencies, with presets.
* :class:`FlashChip` — the emulator: read/program/erase with NAND
  semantics, phase-tagged cost accounting, wear counters, crash injection.
* :class:`SpareArea` / :class:`PageType` — the out-of-band metadata codec.
* :class:`FlashStats` / :class:`OpCounts` — simulated-time accounting.
"""

from .address import PageAddress, block_of, page_range_of_block, split_address
from .backend import (
    BackendError,
    DeviceBackend,
    FaultInjector,
    FileBackend,
    MemoryBackend,
)
from .chip import FlashChip
from .errors import (
    AddressError,
    ChecksumError,
    EraseError,
    FlashError,
    ProgramError,
    SimulatedPowerLoss,
    SpareProgramError,
    WearOutError,
    WrongPageError,
)
from .spare import HEADER_SIZE as SPARE_HEADER_SIZE
from .spare import (
    CHECKSUM_HEADER_SIZE,
    NO_CHECKSUM,
    NO_PID,
    NO_TS,
    PageType,
    SpareArea,
    data_checksum,
    erased_spare,
)
from .spec import (
    BENCH_SPEC,
    BENCH_SPEC_8K,
    SAMSUNG_K9L8G08U0M,
    TINY_SPEC,
    FlashSpec,
    spec_for_database,
)
from .stats import DEFAULT_PHASE, GC, READ_STEP, WRITE_STEP, FlashStats, OpCounts, StatsSnapshot

__all__ = [
    "AddressError",
    "BENCH_SPEC",
    "BENCH_SPEC_8K",
    "BackendError",
    "CHECKSUM_HEADER_SIZE",
    "ChecksumError",
    "DeviceBackend",
    "FaultInjector",
    "FileBackend",
    "MemoryBackend",
    "NO_CHECKSUM",
    "DEFAULT_PHASE",
    "EraseError",
    "FlashChip",
    "FlashError",
    "FlashSpec",
    "FlashStats",
    "GC",
    "NO_PID",
    "NO_TS",
    "OpCounts",
    "PageAddress",
    "PageType",
    "ProgramError",
    "READ_STEP",
    "SAMSUNG_K9L8G08U0M",
    "SPARE_HEADER_SIZE",
    "SimulatedPowerLoss",
    "SpareArea",
    "SpareProgramError",
    "StatsSnapshot",
    "TINY_SPEC",
    "WRITE_STEP",
    "WearOutError",
    "WrongPageError",
    "block_of",
    "data_checksum",
    "erased_spare",
    "page_range_of_block",
    "spec_for_database",
    "split_address",
]
