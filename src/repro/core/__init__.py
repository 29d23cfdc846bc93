"""The paper's contribution: page-differential logging (Section 4).

Its one substitution, the 16-byte diff unit, is in docs/paper-map.md,
"Substitutions".

* :class:`Differential` and the run/page codecs — Section 4.2's structures.
* :class:`DifferentialWriteBuffer` — the one-page staging buffer.
* :class:`PhysicalPageMappingTable` / :class:`ValidDifferentialCountTable`.
* :class:`PdlDriver` — PDL_Writing / PDL_Reading with GC compaction.
* :func:`recover_driver` — PDL_RecoveringfromCrash (Figure 11).
* :func:`fsck_driver` — online single-page failure detection and repair.
"""

from .check import CheckReport, check_driver
from .fsck import FSCK_PHASE, FsckReport, PageFault, fsck_driver
from .differential import (
    DEFAULT_COALESCE_GAP,
    DEFAULT_DIFF_UNIT,
    DIFF_PAGE_MAGIC,
    ENTRY_HEADER_SIZE,
    PAGE_HEADER_SIZE,
    RUN_HEADER_SIZE,
    Differential,
    DifferentialError,
    compute_runs,
    compute_unit_runs,
    decode_differential_page,
    encode_differential_page,
    find_differential,
    merge_from_page,
)
from .pdl import PdlDriver, format_size
from .recovery import RECOVERY_PHASE, RecoveryReport, recover_driver, recover_tables
from .tables import MappingEntry, PhysicalPageMappingTable, ValidDifferentialCountTable
from .write_buffer import BufferFullError, DifferentialWriteBuffer

__all__ = [
    "BufferFullError",
    "CheckReport",
    "check_driver",
    "DEFAULT_COALESCE_GAP",
    "DIFF_PAGE_MAGIC",
    "Differential",
    "DifferentialError",
    "DEFAULT_DIFF_UNIT",
    "DifferentialWriteBuffer",
    "ENTRY_HEADER_SIZE",
    "FSCK_PHASE",
    "FsckReport",
    "MappingEntry",
    "PageFault",
    "PAGE_HEADER_SIZE",
    "PdlDriver",
    "PhysicalPageMappingTable",
    "RECOVERY_PHASE",
    "RUN_HEADER_SIZE",
    "RecoveryReport",
    "ValidDifferentialCountTable",
    "compute_runs",
    "compute_unit_runs",
    "decode_differential_page",
    "encode_differential_page",
    "find_differential",
    "format_size",
    "fsck_driver",
    "merge_from_page",
    "recover_driver",
    "recover_tables",
]
