"""Flash chip geometry and timing parameters (the paper's Table 1).

A :class:`FlashSpec` bundles everything the emulator needs to know about a
chip: geometry (blocks, pages per block, page size), the spare-area size,
per-operation latencies, and programming constraints.  All higher layers
(drivers, workloads, benchmarks) take a spec instead of hard-coding sizes,
so tests can run on tiny chips and benchmarks on paper-scale ones.

The paper's reference chip is the Samsung K9L8G08U0M MLC NAND part
(Table 1): 2,048-byte data areas, 64-byte spare areas, 64 pages per block,
Tread = 110 µs, Twrite = 1,010 µs, Terase = 1,500 µs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class FlashSpec:
    """Immutable description of a NAND flash chip.

    Attributes
    ----------
    n_blocks:
        Number of erase blocks on the chip (``Nblock`` in Table 1).
    pages_per_block:
        Pages in each block (``Npage``); the erase unit is a block, the
        read/write unit is a page.
    page_data_size:
        Bytes in the data area of a page (``Sdata``).
    page_spare_size:
        Bytes in the spare (out-of-band) area (``Sspare``), used for the
        page type, obsolete flag, page id and timestamp.
    t_read_us / t_write_us / t_erase_us:
        Latency charged to the simulated clock per operation (``Tread``,
        ``Twrite``, ``Terase``).
    max_spare_programs:
        How many times the spare area may be programmed without an erase.
        The paper (footnote 9) uses 4; obsoleting a page is the second
        program.  This and ``max_log_page_programs`` are at most 255: a
        page's program counters are u8 in the device image.
    max_log_page_programs:
        Partial-program budget for pages used as IPL log pages.  The
        paper's IPL cost model flushes 1/16-page log buffers, i.e. up to 16
        programs land in one 2 KB log page; this knob documents and bounds
        that relaxation (see docs/paper-map.md, "Substitutions").
    erase_endurance:
        Erase cycles a block sustains before wearing out (~100,000 for the
        paper's chip).  Only enforced when ``enforce_endurance`` is True;
        otherwise wear is just counted for Experiment 6.
    """

    n_blocks: int = 32768
    pages_per_block: int = 64
    page_data_size: int = 2048
    page_spare_size: int = 64
    t_read_us: float = 110.0
    t_write_us: float = 1010.0
    t_erase_us: float = 1500.0
    max_spare_programs: int = 4
    max_log_page_programs: int = 16
    erase_endurance: int = 100_000
    enforce_endurance: bool = False

    def __post_init__(self) -> None:
        if self.n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        if self.pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        if self.page_data_size <= 0:
            raise ValueError("page_data_size must be positive")
        if self.page_spare_size < 16:
            raise ValueError("page_spare_size must hold at least a 16-byte header")
        if min(self.t_read_us, self.t_write_us, self.t_erase_us) < 0:
            raise ValueError("latencies must be non-negative")
        for budget in ("max_spare_programs", "max_log_page_programs"):
            if not 1 <= getattr(self, budget) <= 0xFF:
                raise ValueError(f"{budget} must be in 1..255: the image keeps it in a u8 counter")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        """Total pages on the chip."""
        return self.n_blocks * self.pages_per_block

    @property
    def page_size(self) -> int:
        """Data + spare bytes per page (``Spage``)."""
        return self.page_data_size + self.page_spare_size

    @property
    def block_size(self) -> int:
        """Bytes per block including spare areas (``Sblock``)."""
        return self.pages_per_block * self.page_size

    @property
    def block_data_size(self) -> int:
        """Data bytes per block (excluding spare areas)."""
        return self.pages_per_block * self.page_data_size

    @property
    def data_capacity(self) -> int:
        """Total data-area bytes on the chip."""
        return self.n_pages * self.page_data_size

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def with_timings(
        self,
        t_read_us: Optional[float] = None,
        t_write_us: Optional[float] = None,
        t_erase_us: Optional[float] = None,
    ) -> "FlashSpec":
        """Return a copy with some latencies replaced (Experiment 5)."""
        return replace(
            self,
            t_read_us=self.t_read_us if t_read_us is None else t_read_us,
            t_write_us=self.t_write_us if t_write_us is None else t_write_us,
            t_erase_us=self.t_erase_us if t_erase_us is None else t_erase_us,
        )

    def scaled(self, n_blocks: int) -> "FlashSpec":
        """Return a copy with a different block count (same page geometry)."""
        return replace(self, n_blocks=n_blocks)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

#: The paper's Table 1 chip: Samsung K9L8G08U0M MLC NAND.
SAMSUNG_K9L8G08U0M = FlashSpec()

#: Paper geometry scaled down for laptop-scale benchmarks: identical page
#: and block shape and latencies, fewer blocks (64 MB of data area).
BENCH_SPEC = FlashSpec(n_blocks=512)

#: An 8 KB logical/physical page variant used by Figure 13(b), following
#: Lee & Moon's IPL evaluation.
BENCH_SPEC_8K = FlashSpec(n_blocks=128, page_data_size=8192, page_spare_size=256)

#: A tiny chip for unit and property tests: 16 blocks of 8 × 256-byte pages.
#: The 32-byte spare leaves room for the data-area checksum, so tiny-chip
#: tests exercise the integrity layer too (a 16-byte spare would silently
#: disable it — see :mod:`repro.flash.spare`).
TINY_SPEC = FlashSpec(
    n_blocks=16,
    pages_per_block=8,
    page_data_size=256,
    page_spare_size=32,
)


def spec_for_database(
    database_pages: int,
    utilization: float = 0.25,
    base: FlashSpec = SAMSUNG_K9L8G08U0M,
) -> FlashSpec:
    """Build a spec sized so ``database_pages`` fill ``utilization`` of it.

    The paper loads a 1 GB database onto the Table-1 chip, i.e. roughly a
    quarter of the data capacity; GC pressure and IPL's block layout both
    depend on this ratio, so experiments preserve it while scaling capacity
    down.  At least two spare blocks beyond the exact fit are guaranteed so
    GC and IPL merging always have a relocation target.
    """
    if not 0.0 < utilization <= 1.0:
        raise ValueError("utilization must be in (0, 1]")
    if database_pages <= 0:
        raise ValueError("database_pages must be positive")
    needed_pages = int(database_pages / utilization)
    n_blocks = -(-needed_pages // base.pages_per_block)  # ceil division
    n_blocks = max(n_blocks, -(-database_pages // base.pages_per_block) + 2)
    return replace(base, n_blocks=n_blocks)
