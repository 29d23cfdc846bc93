"""repro — a reproduction of *Page-Differential Logging* (SIGMOD 2010).

Kim, Whang & Song propose PDL, a DBMS-independent page-update method for
NAND flash that stores each logical page as a base page plus at most one
*page-differential*.  This package re-implements the complete system:

* :mod:`repro.flash` — a NAND chip emulator with the paper's Table-1
  timing model, spare areas, wear counters and crash injection;
* :mod:`repro.ftl` — the driver contract, the allocator/GC framework, and
  the baselines the paper compares against (OPU, IPU, IPL);
* :mod:`repro.core` — PDL itself: the differential codec, write buffer,
  mapping/count tables, the PDL driver, and Figure 11's crash recovery;
* :mod:`repro.sharding` — a sharded multi-chip driver: pluggable hash /
  range routing, batched group flush, aggregated stats and wear, and
  per-shard crash recovery (:func:`recover_all`);
* :mod:`repro.config` — :class:`EngineConfig`, the one value that says
  *which engine*: labels, entry-point keywords, the manifest and the
  scenario grid all spell it, one function assembles it;
* :mod:`repro.storage` — a mini storage engine (buffer pool, slotted
  pages, heap files, B+tree) standing in for the Odysseus ORDBMS;
* :mod:`repro.workloads` — the paper's synthetic update operations and a
  scaled TPC-C implementation;
* :mod:`repro.bench` — orchestrators regenerating every figure of the
  evaluation (Figures 12–18).

Quickstart::

    from repro import FlashChip, FlashSpec, PdlDriver

    chip = FlashChip(FlashSpec(n_blocks=64))
    pdl = PdlDriver(chip, max_differential_size=256)
    pdl.load_page(0, b"a" * chip.spec.page_data_size)
    page = bytearray(pdl.read_page(0))
    page[100:110] = b"0123456789"
    pdl.write_page(0, bytes(page))
    assert pdl.read_page(0)[100:110] == b"0123456789"
"""

from .core import (
    Differential,
    DifferentialWriteBuffer,
    PdlDriver,
    PhysicalPageMappingTable,
    RecoveryReport,
    ValidDifferentialCountTable,
    compute_runs,
    recover_driver,
)
from .flash import (
    BENCH_SPEC,
    SAMSUNG_K9L8G08U0M,
    TINY_SPEC,
    BackendError,
    CrashError,
    DeviceBackend,
    FileBackend,
    FlashChip,
    FlashSpec,
    FlashStats,
    MemoryBackend,
    PageType,
    SpareArea,
    spec_for_database,
)
from .flash.chip import CrashPoint
from .flash.errors import SimulatedPowerLoss
from .ftl import (
    ChangeRun,
    GcConfig,
    IplDriver,
    IpuDriver,
    OpuDriver,
    OutOfSpaceError,
    PageUpdateMethod,
    UnknownPageError,
    apply_runs,
    make_victim_policy,
    register_victim_policy,
    victim_policy_names,
)
from .ftl.errors import ConcurrencyError, UnallocatedPageError
from .config import EngineConfig
from .methods import (
    PAPER_METHODS,
    PAPER_METHODS_NO_IPU,
    make_method,
    method_labels,
    sharded_labels,
)
from .sharding import (
    HashRouter,
    RangeRouter,
    ShardExecutor,
    ShardRouter,
    ShardedDriver,
    make_router,
    recover_all,
)

__version__ = "1.0.0"

__all__ = [
    "BENCH_SPEC",
    "BackendError",
    "ChangeRun",
    "ConcurrencyError",
    "CrashError",
    "CrashPoint",
    "DeviceBackend",
    "Differential",
    "DifferentialWriteBuffer",
    "EngineConfig",
    "FileBackend",
    "FlashChip",
    "FlashSpec",
    "FlashStats",
    "GcConfig",
    "HashRouter",
    "MemoryBackend",
    "IplDriver",
    "IpuDriver",
    "OpuDriver",
    "OutOfSpaceError",
    "PAPER_METHODS",
    "PAPER_METHODS_NO_IPU",
    "PageType",
    "PageUpdateMethod",
    "PdlDriver",
    "PhysicalPageMappingTable",
    "RangeRouter",
    "RecoveryReport",
    "SAMSUNG_K9L8G08U0M",
    "ShardExecutor",
    "ShardRouter",
    "ShardedDriver",
    "SimulatedPowerLoss",
    "SpareArea",
    "TINY_SPEC",
    "UnallocatedPageError",
    "UnknownPageError",
    "ValidDifferentialCountTable",
    "apply_runs",
    "compute_runs",
    "make_method",
    "make_router",
    "make_victim_policy",
    "method_labels",
    "recover_all",
    "recover_driver",
    "register_victim_policy",
    "sharded_labels",
    "spec_for_database",
    "victim_policy_names",
    "__version__",
]
