"""Flash persistence of the tiered mapping table: journal + snapshots.

Section 4.5 of the paper sketches the missing piece of mapping-table
persistence: "we have to log the changes in the mapping table into flash
memory".  This module is the one implementation of it, the writer side:
:class:`MappingStore` owns the mapping region, appends the journal and
writes the snapshots; :mod:`repro.core.restart` reads them back.  A
clean-shutdown checkpoint is not a separate mechanism — it is
``driver.flush(); driver.mapping.snapshot()``, a snapshot with an empty
journal, and ``recover_driver(chip, mapping=cfg)`` restarts from it.

Layout — the device's first ``region_blocks`` blocks::

    [ journal blocks | snapshot half 0 | snapshot half 1 ]

* The **journal** is an append-only sequence of fixed-size delta records
  (ppmt/vdct mutations plus OPEN_BLOCK markers), group-committed a page
  at a time.  Records pend in RAM and are flushed only at points where
  losing them is provably safe: before the first program of a freshly
  opened block, before a GC victim's erase, and at ``driver.flush()`` /
  ``end_of_load()``.  Everything pending at a crash is re-derived by
  restart's tail scan.  The journal's last page is reserved for an
  overflow marker: once written, restart ignores the journal and falls
  back to the full scan — overflow degrades performance, never safety.
* A **snapshot** is the whole mapping table as a pid-sorted run of
  packed pages (:mod:`repro.core.mapping` codec), followed by meta pages
  (page directory, active blocks, vdct rows, validity bitmap) and a
  **seal** page programmed *last* at the half's fixed final page — NAND
  imposes no intra-block program order, so seal-last gives atomicity: a
  seal exists iff every page before it does.  Halves ping-pong, so the
  snapshot being replaced survives until its successor is sealed.
"""

from __future__ import annotations

import struct
import weakref
import zlib
from contextlib import contextmanager
from itertools import chain
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from ..flash.chip import FlashChip
from ..flash.errors import ChecksumError
from ..flash.spare import PageType, SpareArea
from ..flash.stats import FlashStats
from ..ftl.errors import ConfigurationError
from .mapping import (
    ENTRY,
    JOURNAL_HEADER,
    MAPPING_PHASE,
    PAGE_HEADER,
    REC_OPEN_BLOCK,
    RECORD,
    MappingConfig,
    MappingFormatError,
    MappingPage,
    TieredMappingTable,
    decode_mapping_page,
    entries_per_page,
    merge_snapshot_rows,
    records_per_page,
    stride_pages,
)

if TYPE_CHECKING:
    from .pdl import PdlDriver

#: Seal page: magic, seq, data pages, meta pages, live entries, CRC32 of
#: the concatenated meta payload, max driver timestamp, max pid + 1.
SEAL = struct.Struct("<IIIIIIQQ")

#: Meta payload prologue: directory length, active-block count, vdct row
#: count, validity-bitmap bytes.
_META_HDR = struct.Struct("<IIII")
_VDCT_ROW = struct.Struct("<II")

JOURNAL_MAGIC = 0x50444C4A  # "PDLJ"
OVERFLOW_MAGIC = 0x50444C4F  # "PDLO"
SEAL_MAGIC = 0x50444C53  # "PDLS"
META_MAGIC = 0x50444C4D  # "PDLM"


class MappingStore:
    """Flash persistence of the tiered mapping table: journal + snapshots.

    Constructed by :class:`~repro.core.pdl.PdlDriver` when a
    :class:`~repro.core.mapping.MappingConfig` is supplied, then bound
    back to the driver (:meth:`bind`, a weak reference: the driver owns
    the store) once the tables exist.  All flash
    traffic is charged to the ``mapping`` phase and counted in
    ``FlashStats.mapping_misses`` / ``mapping_writebacks``.
    """

    def __init__(self, chip: FlashChip, config: MappingConfig) -> None:
        spec = chip.spec
        if config.region_blocks >= spec.n_blocks:
            raise ConfigurationError(
                f"mapping region of {config.region_blocks} blocks leaves no "
                f"data blocks on a chip of {spec.n_blocks}"
            )
        self.chip = chip
        self.spec = spec
        self.config = config
        #: First page of each snapshot half (fixed by the geometry).
        self._half_starts = tuple(
            (config.journal_blocks + half * config.half_blocks) * spec.pages_per_block
            for half in (0, 1)
        )
        self._driver: "Optional[weakref.ref[PdlDriver]]" = None
        #: Current snapshot sequence number (0 = the implicit empty
        #: snapshot a fresh device starts from).
        self.seq = 0
        #: First pid of each snapshot data page (RAM; bisected on lookup,
        #: replaced, never mutated, when a snapshot is taken or adopted).
        self.directory: List[int] = []
        #: Blocks that were open for appends when the snapshot was taken.
        self.snapshot_active_blocks: List[int] = []
        self.journaling = True
        self._pending: List[bytes] = []
        self._cursor = 0
        self._records_since_snapshot = 0
        self._overflowed = False
        self.snapshot_due = False
        # Lifetime counters (RAM-side; flash-side ones live in FlashStats).
        self.journal_records = 0
        self.snapshots_taken = 0

    def bind(self, driver: PdlDriver) -> None:
        self._driver = weakref.ref(driver)

    def _bound_driver(self) -> PdlDriver:
        """The owning driver, dereferenced once per entry point."""
        if self._driver is None:
            raise ConfigurationError("mapping store is not bound to a driver")
        driver = self._driver()
        if driver is None:
            raise ConfigurationError(
                "MappingStore: its driver was freed; a mapping store cannot "
                "outlive the driver that owns it"
            )
        return driver

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def stats(self) -> FlashStats:
        return self.chip.stats

    @property
    def entries_per_page(self) -> int:
        return entries_per_page(self.spec.page_data_size)

    @property
    def records_per_page(self) -> int:
        return records_per_page(self.spec.page_data_size)

    @property
    def data_page_count(self) -> int:
        return len(self.directory)

    @property
    def journal_pages(self) -> int:
        """Total journal pages, including the reserved overflow page."""
        return self.config.journal_blocks * self.spec.pages_per_block

    @property
    def usable_journal_pages(self) -> int:
        return self.journal_pages - 1

    @property
    def half_pages(self) -> int:
        return self.config.half_blocks * self.spec.pages_per_block

    def journal_page_addr(self, index: int) -> int:
        return index  # the journal opens the region, at block 0

    def half_blocks_of(self, half: int) -> range:
        start = self.config.journal_blocks + half * self.config.half_blocks
        return range(start, start + self.config.half_blocks)

    def half_start_page(self, half: int) -> int:
        return self._half_starts[half]

    def seal_addr(self, half: int) -> int:
        return self.half_start_page(half) + self.half_pages - 1

    # ------------------------------------------------------------------
    # Demand paging (the table's clean-tier backend)
    # ------------------------------------------------------------------
    def load_data_page(self, index: int) -> MappingPage:
        # Every load is a miss by definition — a mapping page read from
        # flash because it was not resident — so the counter is recorded
        # here, keeping ``mapping_misses`` equal to the mapping region's
        # raw device reads during normal operation (the stress audit).
        stats = self.chip.stats
        stats.mapping_misses += 1
        addr = self._half_starts[self.seq % 2] + index
        try:
            with stats.phase(MAPPING_PHASE):
                data, _spare = self.chip.read_page(addr)
            return decode_mapping_page(data, expect_seq=self.seq, expect_index=index)
        except (ChecksumError, MappingFormatError) as exc:
            # Same type, so restart's replay ``except`` still sees it.
            raise type(exc)(
                f"snapshot {self.seq} page {index} at flash address {addr}: {exc}"
            ) from exc

    def read_data_pages(self, indexes: Optional[Sequence[int]] = None) -> Iterator[MappingPage]:
        """The current snapshot's data pages ``indexes`` (every one by
        default), in the order given, as :meth:`load_data_page` would
        return them — one miss and one ``Tread`` each, checksum and header
        checked, a failure named the same way — but read in one chip
        call.  A damaged page is found after the whole batch is charged,
        as for any batched read."""
        if indexes is None:
            indexes = range(len(self.directory))
        if not indexes:  # no snapshot yet, or nothing asked for
            return
        start = self._half_starts[self.seq % 2]
        self.stats.mapping_misses += len(indexes)
        try:
            with self.stats.phase(MAPPING_PHASE):
                images = self.chip.read_pages([start + index for index in indexes])
        except ChecksumError as exc:
            addr = exc.addr
            if addr is None:  # pragma: no cover - the chip names the page it read
                raise
            raise ChecksumError(
                f"snapshot {self.seq} page {addr - start} at flash address {addr}: {exc}",
                addr,
            ) from exc
        images.reverse()  # popped in page order: each image goes once decoded
        for index in indexes:
            data, _spare = images.pop()
            try:
                page = decode_mapping_page(data, expect_seq=self.seq, expect_index=index)
            except MappingFormatError as exc:
                raise MappingFormatError(
                    f"snapshot {self.seq} page {index} at flash address {start + index}: {exc}"
                ) from exc
            yield page

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def record(self, kind: int, a: int, b: int = 0, ts: int = 0) -> None:
        """Append one delta record (buffered until a group commit)."""
        if not self.journaling:
            return
        self._pending.append(RECORD.pack(kind, a, b, ts))
        self.journal_records += 1
        self._records_since_snapshot += 1
        if self._records_since_snapshot >= self.config.snapshot_interval:
            self.snapshot_due = True

    @contextmanager
    def suppressed(self) -> Iterator[None]:
        """Disable journaling (replay/restore applies mutations that are
        already represented on flash)."""
        previous = self.journaling
        self.journaling = False
        try:
            yield
        finally:
            self.journaling = previous

    def note_block_open(self, block: int) -> None:
        """Allocator callback: a stream opened ``block``.

        The OPEN_BLOCK record is committed *before* the caller can
        program the block's first page.  This ordering is load-bearing:
        a durable base or differential page in a block the journal never
        acknowledged would be invisible to the restart tail scan, and
        its data silently lost.
        """
        if not self.journaling:
            return
        self.record(REC_OPEN_BLOCK, block)
        self.commit()

    def commit(self) -> None:
        """Group commit: flush pending records to journal pages.

        Once the journal is full an overflow marker is written instead
        and pending records are discarded — the next restart takes the
        full-scan fallback, so discarding is safe — and a snapshot is
        armed to reclaim the journal at the next safe point.
        """
        if not self._pending:
            return
        if self._overflowed:
            self._pending.clear()
            return
        per_page = self.records_per_page
        with self.stats.phase(MAPPING_PHASE):
            while self._pending:
                if self._cursor >= self.usable_journal_pages:
                    self._write_overflow()
                    self._pending.clear()
                    break
                chunk = self._pending[:per_page]
                del self._pending[:per_page]
                body = b"".join(chunk)
                header = JOURNAL_HEADER.pack(
                    JOURNAL_MAGIC, self.seq, self._cursor, len(chunk),
                    zlib.crc32(body),
                )
                self.chip.program_page(
                    self.journal_page_addr(self._cursor),
                    header + body,
                    SpareArea(
                        type=PageType.CHECKPOINT, pid=self._cursor,
                        timestamp=self.seq,
                    ),
                )
                self.stats.record_mapping_writeback()
                self._cursor += 1

    def _write_overflow(self) -> None:
        if self._overflowed:
            return
        header = JOURNAL_HEADER.pack(
            OVERFLOW_MAGIC, self.seq, self.usable_journal_pages, 0, 0
        )
        self.chip.program_page(
            self.journal_page_addr(self.usable_journal_pages),
            header,
            SpareArea(
                type=PageType.CHECKPOINT, pid=self.usable_journal_pages,
                timestamp=self.seq,
            ),
        )
        self.stats.record_mapping_writeback()
        self._overflowed = True
        self.snapshot_due = True

    # ------------------------------------------------------------------
    # Driver pacing
    # ------------------------------------------------------------------
    def tick(self, force: bool = False) -> None:
        """Driver safe point: snapshot when due, else force-commit.

        Snapshots are deferred while a GC victim is in flight — the
        compaction buffer and wholesale-dropped vdct rows are mid-step
        state the snapshot must never capture.
        """
        if self._driver is None:
            return
        if self.snapshot_due and self._safe_to_snapshot():
            self.snapshot()
            return
        if force:
            self.commit()

    def _safe_to_snapshot(self) -> bool:
        driver = self._bound_driver()
        return driver.gc.in_flight_victim is None and driver._gc_buffer.is_empty

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Write a full snapshot to the inactive half; seal it; reset the
        journal.  Returns the new sequence number.

        The merge is at the byte level: old snapshot pages are read in
        pid order and patched with the table's dirty overlay in wire form
        (:func:`~repro.core.mapping.merge_snapshot_rows`), so cost is one
        pass over the table, not over the device, and no row the overlay
        leaves alone is ever unpacked.  Crash safety is ordering: data,
        meta, seal *last*, then the journal erase — until the seal lands,
        restart still sees the previous snapshot with its epoch-matched
        journal intact.
        """
        driver = self._bound_driver()
        table = driver.ppmt
        if not isinstance(table, TieredMappingTable):  # pragma: no cover - guard
            raise ConfigurationError("snapshot requires a TieredMappingTable")
        new_seq = self.seq + 1

        rows = merge_snapshot_rows(
            self.read_data_pages(),
            self.directory,
            table.overlay_items(),
        )
        payloads, directory = stride_pages(rows, new_seq, self.spec.page_data_size)
        count = len(rows) // ENTRY.size
        max_pid = ENTRY.unpack_from(rows, len(rows) - ENTRY.size)[0] if rows else -1

        meta_chunks = self._encode_meta(driver, directory)
        n_data = len(payloads)
        n_meta = len(meta_chunks)
        if n_data + n_meta + 1 > self.half_pages:
            raise ConfigurationError(
                f"snapshot needs {n_data} data + {n_meta} meta pages; half "
                f"holds {self.half_pages} (raise MappingConfig.region_blocks)"
            )
        meta_crc = zlib.crc32(b"".join(meta_chunks))
        seal = SEAL.pack(
            SEAL_MAGIC, new_seq, n_data, n_meta, count, meta_crc,
            driver.current_ts, max_pid + 1,
        )
        half = new_seq % 2
        start = self.half_start_page(half)
        with self.stats.phase(MAPPING_PHASE):
            for block in self.half_blocks_of(half):
                if not self.chip.is_block_erased(block):
                    self.chip.erase_block(block)
            items = [
                (
                    start + index,
                    payload,
                    SpareArea(
                        type=PageType.CHECKPOINT, pid=index, timestamp=new_seq
                    ),
                )
                for index, payload in enumerate(payloads)
            ]
            for offset, chunk in enumerate(meta_chunks):
                index = n_data + offset
                header = PAGE_HEADER.pack(META_MAGIC, new_seq, index, len(chunk))
                items.append(
                    (
                        start + index,
                        header + chunk,
                        SpareArea(
                            type=PageType.CHECKPOINT, pid=index, timestamp=new_seq
                        ),
                    )
                )
            self.chip.program_pages(items)
            # The seal goes down last: its existence certifies every page
            # above.  NAND has no intra-block program-order constraint,
            # so programming the half's final page after a gap is legal.
            self.chip.program_page(
                self.seal_addr(half),
                seal,
                SpareArea(
                    type=PageType.CHECKPOINT,
                    pid=self.half_pages - 1,
                    timestamp=new_seq,
                ),
            )
            for block in range(self.config.journal_blocks):
                if not self.chip.is_block_erased(block):
                    self.chip.erase_block(block)
            self.stats.record_mapping_writeback(n_data + n_meta + 1)

        self.seq = new_seq
        self.directory = directory
        self.snapshot_active_blocks = sorted(driver.blocks.active_blocks())
        table.on_snapshot()
        self._pending.clear()
        self._cursor = 0
        self._records_since_snapshot = 0
        self._overflowed = False
        self.snapshot_due = False
        self.snapshots_taken += 1
        return new_seq

    # ------------------------------------------------------------------
    # Restart (driven by repro.core.restart)
    # ------------------------------------------------------------------
    def adopt(self, seq: int, directory: Sequence[int], active_blocks: Sequence[int]) -> None:
        """Take the sealed snapshot ``seq`` as the current one: the first
        pid of each of its data pages, and the blocks open when it was
        taken."""
        self.seq = seq
        self.directory = list(directory)
        self.snapshot_active_blocks = list(active_blocks)

    def abandon(self) -> None:
        """Drop an adopted snapshot whose replay was rejected: nothing is
        demand-paged from it any more."""
        self.directory = []

    def resume_journal(self, cursor: int, records: int) -> None:
        """Append after the ``cursor`` journal pages a restart replayed,
        which hold ``records`` records since the snapshot."""
        self._cursor = cursor
        self._records_since_snapshot = records

    def _encode_meta(self, driver: PdlDriver, directory: List[int]) -> List[bytes]:
        active = sorted(driver.blocks.active_blocks())
        vdct_rows = sorted(driver.vdct.items())
        bitmap = driver.blocks.valid_bitmap()
        blob = b"".join(
            (
                _META_HDR.pack(len(directory), len(active), len(vdct_rows), len(bitmap)),
                struct.pack(f"<{len(directory)}I", *directory),
                struct.pack(f"<{len(active)}I", *active),
                struct.pack(f"<{2 * len(vdct_rows)}I", *chain.from_iterable(vdct_rows)),
                bitmap,
            )
        )
        room = self.spec.page_data_size - PAGE_HEADER.size
        return [blob[i : i + room] for i in range(0, len(blob), room)] or [b""]


def decode_meta(blob: bytes) -> Tuple[List[int], List[int], List[Tuple[int, int]], bytes]:
    directory_len, n_active, n_vdct, n_bitmap = _META_HDR.unpack_from(blob, 0)
    offset = _META_HDR.size
    need = offset + 4 * directory_len + 4 * n_active + _VDCT_ROW.size * n_vdct + n_bitmap
    if need > len(blob):
        raise MappingFormatError("snapshot meta payload truncated")
    directory = list(struct.unpack_from(f"<{directory_len}I", blob, offset))
    offset += 4 * directory_len
    active = list(struct.unpack_from(f"<{n_active}I", blob, offset))
    offset += 4 * n_active
    vdct_end = offset + _VDCT_ROW.size * n_vdct
    vdct_rows = list(_VDCT_ROW.iter_unpack(blob[offset:vdct_end]))
    offset = vdct_end
    bitmap = blob[offset : offset + n_bitmap]
    return directory, active, vdct_rows, bitmap

