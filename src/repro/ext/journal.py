"""Journaled mapping snapshots — crash restart in O(dirty tail).

Section 4.5 of the paper sketches the missing piece of mapping-table
persistence: "we have to log the changes in the mapping table into flash
memory".  This module is the one implementation of it: together with the
demand-paged table of :mod:`repro.core.mapping` it turns crash restart
from the O(device) Figure-11 scan into snapshot-load + journal-tail
replay.  A clean-shutdown checkpoint is not a separate mechanism — it is
``driver.flush(); driver.mapping.snapshot()``, a snapshot with an empty
journal, and ``recover_driver(chip, mapping=cfg)`` restarts from it.

Layout — the device's first ``region_blocks`` blocks::

    [ journal blocks | snapshot half 0 | snapshot half 1 ]

* The **journal** is an append-only sequence of fixed-size delta records
  (ppmt/vdct mutations plus OPEN_BLOCK markers), group-committed a page
  at a time.  Records pend in RAM and are flushed only at points where
  losing them is provably safe: before the first program of a freshly
  opened block, before a GC victim's erase, and at ``driver.flush()`` /
  ``end_of_load()``.  Everything pending at a crash is re-derived by the
  tail scan (see below).  The journal's last page is reserved for an
  overflow marker: once written, restart ignores the journal and falls
  back to the full scan — overflow degrades performance, never safety.
* A **snapshot** is the whole mapping table as a pid-sorted run of
  packed pages (:mod:`repro.core.mapping` codec), followed by meta pages
  (page directory, active blocks, vdct rows, validity bitmap) and a
  **seal** page programmed *last* at the half's fixed final page — NAND
  imposes no intra-block program order, so seal-last gives atomicity: a
  seal exists iff every page before it does.  Halves ping-pong, so the
  snapshot being replaced survives until its successor is sealed.

Restart (:func:`restart_driver`) reads two seal pages, the meta pages,
and the journal — O(dirty-since-snapshot), never O(device) — then
replays the records and runs a *seeded* Figure-11 scan over only the
snapshot-active and journaled-open blocks to recover mutations whose
records were still pending at the crash.  Any structural damage beyond
a torn tail — including a seal or snapshot page that is programmed but
unreadable — demotes to the full scan, which is always sound, and ends
with a fresh repair snapshot.  ``docs/recovery.md`` walks the decision
tree and every crash window.
"""

from __future__ import annotations

import struct
import zlib
from contextlib import contextmanager
from itertools import chain
from typing import Any, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..core.differential import DifferentialError, decode_differential_page
from ..core.mapping import (
    ENTRY,
    JOURNAL_HEADER,
    MAPPING_PHASE,
    PAGE_HEADER,
    REC_CLEAR_DIFF,
    REC_MOVE_BASE,
    REC_OPEN_BLOCK,
    REC_REMOVE,
    REC_SET_BASE,
    REC_SET_DIFF,
    REC_VDCT_DEC,
    REC_VDCT_DROP,
    REC_VDCT_INC,
    RECORD,
    MappingConfig,
    MappingFormatError,
    MappingPage,
    TieredMappingTable,
    decode_mapping_page,
    directory_index,
    entries_per_page,
    merge_snapshot_rows,
    records_per_page,
    stride_pages,
)
from ..core.pdl import PdlDriver
from ..core.recovery import (
    RECOVERY_PHASE,
    RecoveryReport,
    recover_tables,
)
from ..core.tables import PhysicalPageMappingTable, ValidDifferentialCountTable
from ..flash.chip import FlashChip
from ..flash.errors import ChecksumError, ProgramError, SpareProgramError
from ..flash.spare import PageType, SpareArea
from ..flash.stats import FlashStats
from ..ftl.errors import ConfigurationError

#: Seal page: magic, seq, data pages, meta pages, live entries, CRC32 of
#: the concatenated meta payload, max driver timestamp, max pid + 1.
_SEAL = struct.Struct("<IIIIIIQQ")

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
    back to the driver (:meth:`bind`) once the tables exist.  All flash
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
        self.driver: Optional[PdlDriver] = None
        #: Current snapshot sequence number (0 = the implicit empty
        #: snapshot a fresh device starts from).
        self.seq = 0
        #: First pid of each snapshot data page (RAM; bisected on lookup).
        self.directory: List[int] = []
        self._n_data = 0
        self._n_meta = 0
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
        self.journal_flushes = 0
        self.snapshots_taken = 0

    def bind(self, driver: PdlDriver) -> None:
        self.driver = driver

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
        return self._n_data

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
        first_block = self.config.journal_blocks + half * self.config.half_blocks
        return first_block * self.spec.pages_per_block

    def seal_addr(self, half: int) -> int:
        return self.half_start_page(half) + self.half_pages - 1

    # ------------------------------------------------------------------
    # Demand paging (the table's clean-tier backend)
    # ------------------------------------------------------------------
    def page_index_of(self, pid: int) -> Optional[int]:
        return directory_index(self.directory, pid)

    def load_data_page(self, index: int) -> MappingPage:
        # Every load is a miss by definition — a mapping page read from
        # flash because it was not resident — so the counter is recorded
        # here, keeping ``mapping_misses`` equal to the mapping region's
        # raw device reads during normal operation (the stress audit).
        self.stats.record_mapping_miss()
        addr = self.half_start_page(self.seq % 2) + index
        try:
            with self.stats.phase(MAPPING_PHASE):
                data, _spare = self.chip.read_page(addr)
            return decode_mapping_page(data, expect_seq=self.seq, expect_index=index)
        except (ChecksumError, MappingFormatError) as exc:
            # Same type, so restart's fallback ``except`` still sees it.
            raise type(exc)(
                f"snapshot {self.seq} page {index} at flash address {addr}: {exc}"
            ) from exc

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
        self.journal_flushes += 1

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
        if self.driver is None:
            return
        if self.snapshot_due and self._safe_to_snapshot():
            self.snapshot()
            return
        if force:
            self.commit()

    def _safe_to_snapshot(self) -> bool:
        driver = self.driver
        assert driver is not None
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
        driver = self.driver
        if driver is None:
            raise ConfigurationError("mapping store is not bound to a driver")
        table = driver.ppmt
        if not isinstance(table, TieredMappingTable):  # pragma: no cover - guard
            raise ConfigurationError("snapshot requires a TieredMappingTable")
        new_seq = self.seq + 1

        rows = merge_snapshot_rows(
            (self.load_data_page(index) for index in range(self._n_data)),
            self.directory,
            table.overlay_items(),
        )
        payloads, directory = stride_pages(rows, new_seq, self.spec.page_data_size)
        count = len(rows) // ENTRY.size
        max_pid = ENTRY.unpack_from(rows, len(rows) - ENTRY.size)[0] if rows else -1

        meta_chunks = self._encode_meta(directory)
        n_data = len(payloads)
        n_meta = len(meta_chunks)
        if n_data + n_meta + 1 > self.half_pages:
            raise ConfigurationError(
                f"snapshot needs {n_data} data + {n_meta} meta pages; half "
                f"holds {self.half_pages} (raise MappingConfig.region_blocks)"
            )
        meta_crc = zlib.crc32(b"".join(meta_chunks))
        seal = _SEAL.pack(
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
        self._n_data = n_data
        self._n_meta = n_meta
        self.snapshot_active_blocks = sorted(driver.blocks.active_blocks())
        table.on_snapshot()
        self._pending.clear()
        self._cursor = 0
        self._records_since_snapshot = 0
        self._overflowed = False
        self.snapshot_due = False
        self.snapshots_taken += 1
        return new_seq

    def _encode_meta(self, directory: List[int]) -> List[bytes]:
        driver = self.driver
        assert driver is not None
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


def _decode_meta(blob: bytes) -> Tuple[List[int], List[int], List[Tuple[int, int]], bytes]:
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


# ----------------------------------------------------------------------
# Restart
# ----------------------------------------------------------------------
def restart_driver(
    chip: FlashChip, *, mapping: MappingConfig, **driver_kwargs: Any
) -> Tuple[PdlDriver, RecoveryReport]:
    """Restart a mapping-enabled PDL driver after a crash or shutdown.

    Fast path: newest valid seal → meta load → journal-tail replay →
    seeded Figure-11 scan over only snapshot-active and journaled-open
    blocks.  Structural damage (a seal, meta or snapshot page that is
    programmed but unreadable, mid-journal rot, an overflow marker, a
    journal newer than the adopted seal) demotes to the full-device scan.
    Either way the driver comes back fully operational and, when the
    journal could not simply continue, a fresh repair snapshot is
    written so the *next* restart is fast again.

    ``driver_kwargs`` are :class:`PdlDriver`'s own keywords, forwarded as
    given.  The return contract matches
    :func:`repro.core.recovery.recover_driver` (which delegates here when
    ``mapping`` is set).
    """
    driver = PdlDriver(chip, mapping=mapping, **driver_kwargs)
    store = driver.mapping
    assert store is not None
    report = RecoveryReport()
    with store.suppressed():
        restored = _try_fast_restart(driver, store, report)
        if not restored:
            _full_scan_restart(driver, store, report)
    if report.repaired:
        # One repair snapshot re-arms the fast path; it runs only when
        # the journal could not be continued, so the common clean-prefix
        # restart stays strictly O(dirty tail).
        store.snapshot()
    return driver, report


def _read_seal(
    store: MappingStore, half: int, report: RecoveryReport
) -> Optional[Tuple[int, int, int, int, int, int, int]]:
    """Parse one half's seal page.

    ``None`` means the page is erased: no snapshot was sealed there (a
    fresh device, or a crash mid-snapshot).  A page that is programmed
    but not a valid seal raises (:class:`ChecksumError` from the read, or
    :class:`MappingFormatError`): the snapshot it certified may be the
    newest one, so skipping it like an erased page would silently restart
    from an older table.
    """
    report.pages_scanned += 1
    data, spare = store.chip.read_page(store.seal_addr(half))
    if spare.is_erased:
        return None
    magic, seq, n_data, n_meta, count, meta_crc, max_ts, max_pid1 = (
        _SEAL.unpack_from(data, 0)
    )
    if (
        spare.type is not PageType.CHECKPOINT
        or magic != SEAL_MAGIC
        or seq % 2 != half
        or n_data + n_meta + 1 > store.half_pages
    ):
        raise MappingFormatError(f"seal page of half {half} holds no valid seal")
    return seq, n_data, n_meta, count, meta_crc, max_ts, max_pid1


def _load_snapshot(
    driver: PdlDriver, store: MappingStore, report: RecoveryReport
) -> Tuple[Set[int], int]:
    """Adopt the newest sealed snapshot; returns (valid set, max_ts).

    With both seal pages erased the implicit empty snapshot of sequence 0
    is in effect.  A seal or meta page that is programmed but unreadable
    raises, and the caller falls back to the scan."""
    chip = store.chip
    with chip.stats.phase(MAPPING_PHASE):
        seals = [(_read_seal(store, half, report), half) for half in (0, 1)]
    sealed = [pair for pair in seals if pair[0] is not None]
    if not sealed:
        return set(), 0
    (seq, n_data, n_meta, count, meta_crc, max_ts, max_pid1), half = max(sealed)
    start = store.half_start_page(half) + n_data
    report.pages_scanned += n_meta
    with chip.stats.phase(MAPPING_PHASE):
        pages = chip.read_pages(list(range(start, start + n_meta)))
    chunks: List[bytes] = []
    for index, (data, _spare) in enumerate(pages, n_data):
        magic, page_seq, page_index, size = PAGE_HEADER.unpack_from(data, 0)
        if (magic, page_seq, page_index) != (META_MAGIC, seq, index):
            raise MappingFormatError(f"page {index} of snapshot {seq} is not its meta")
        chunks.append(data[PAGE_HEADER.size : PAGE_HEADER.size + size])
    blob = b"".join(chunks)
    if zlib.crc32(blob) != meta_crc:
        raise MappingFormatError(f"snapshot {seq} meta fails the seal's CRC")
    directory, active, vdct_rows, bitmap = _decode_meta(blob)
    if len(directory) != n_data:
        raise MappingFormatError(f"snapshot {seq} directory disagrees with its seal")
    store.seq = seq
    store.directory = directory
    store._n_data = n_data
    store._n_meta = n_meta
    store.snapshot_active_blocks = list(active)
    table = driver.ppmt
    assert isinstance(table, TieredMappingTable)
    table.seed_counts(count, max_pid1 - 1)
    driver.vdct.seed(vdct_rows)
    bits = np.unpackbits(np.frombuffer(bitmap, dtype=np.uint8), bitorder="little")
    valid: Set[int] = set(np.flatnonzero(bits[: store.spec.n_pages]).tolist())
    report.snapshot_seq = seq
    return valid, max_ts


_Record = Tuple[int, int, int, int]


def _read_journal_page(
    store: MappingStore, index: int, report: RecoveryReport
) -> Tuple[int, int, Optional[List[_Record]]]:
    """Journal page ``index`` as (magic, epoch, records).  Magic is 0 when
    the page fails its checksum; records are ``None`` unless the page is a
    CRC-valid record page written for this slot."""
    report.pages_scanned += 1
    try:
        with store.stats.phase(MAPPING_PHASE):
            data, _spare = store.chip.read_page(store.journal_page_addr(index))
    except ChecksumError:
        return 0, -1, None
    magic, epoch, page_index, n_records, crc = JOURNAL_HEADER.unpack_from(data, 0)
    records = None
    if magic == JOURNAL_MAGIC and page_index == index:
        size = n_records * RECORD.size
        body = data[JOURNAL_HEADER.size : JOURNAL_HEADER.size + size]
        if len(body) == size and zlib.crc32(body) == crc:
            records = list(RECORD.iter_unpack(body))
    return magic, epoch, records


def _classify_journal(
    store: MappingStore, report: RecoveryReport
) -> Tuple[List[_Record], int]:
    """Read and validate the journal; returns (records, valid prefix pages).

    Raises :class:`MappingFormatError` when the journal is structurally
    unusable (overflow marker, a valid page after damage, or a page of a
    *newer* epoch than the adopted seal — the snapshot that epoch belongs
    to is unreadable): the caller must take the full-scan fallback.  A
    torn tail after a valid prefix, or a stale older-epoch journal behind
    a fresh seal, is fine — the prefix replays and ``report.repaired``
    arms the repair snapshot.
    """
    addrs = [store.journal_page_addr(i) for i in range(store.journal_pages)]
    with store.stats.phase(MAPPING_PHASE):
        spares = store.chip.read_spares(addrs)
    report.pages_scanned += len(addrs)
    # Reserved overflow page first: if armed for the current epoch (or a
    # newer one, whose seal is unreadable), the journal's tail was dropped
    # at runtime and only a scan is sound.
    if not spares[-1].is_erased:
        magic, epoch, _ = _read_journal_page(store, len(addrs) - 1, report)
        if magic == OVERFLOW_MAGIC and epoch >= store.seq:
            raise MappingFormatError(f"journal of epoch {epoch} overflowed")
        report.repaired = True  # stale/damaged marker: reclaim via snapshot
    records: List[_Record] = []
    prefix = 0
    in_prefix = True
    for index in range(store.usable_journal_pages):
        if spares[index].is_erased:
            in_prefix = False
            continue
        _magic, epoch, page_records = _read_journal_page(store, index, report)
        if page_records is not None and epoch > store.seq:
            raise MappingFormatError(
                f"journal page {index} is of epoch {epoch}, newer than the "
                f"adopted seal's {store.seq}: that snapshot's seal is unreadable"
            )
        if page_records is None or epoch != store.seq:
            # Torn or stale page.  A pure power loss can only tear the
            # append point, so anything valid *after* this is rot — the
            # full scan handles that; either way the journal region gets
            # reclaimed by a repair snapshot.
            report.repaired = True
            in_prefix = False
            continue
        if not in_prefix:
            raise MappingFormatError(f"valid journal page {index} follows damage")
        records.extend(page_records)
        prefix = index + 1
    return records, prefix


def _try_fast_restart(
    driver: PdlDriver, store: MappingStore, report: RecoveryReport
) -> bool:
    """Snapshot + journal replay + seeded tail scan.  False → fallback."""
    table = driver.ppmt
    assert isinstance(table, TieredMappingTable)
    vdct = driver.vdct
    retire: Set[int] = set()
    try:
        valid, max_ts = _load_snapshot(driver, store, report)
        records, prefix = _classify_journal(store, report)
        report.journal_pages = prefix
        report.journal_records = len(records)
        scan_blocks: Set[int] = set(store.snapshot_active_blocks)
        for kind, a, b, ts in records:
            max_ts = max(max_ts, ts)
            if kind == REC_SET_BASE:
                old = table.set_base(a, b, ts)
                valid.add(b)
                if old is not None and old.base_addr >= 0 and old.base_addr != b:
                    valid.discard(old.base_addr)
                    retire.add(old.base_addr)
            elif kind == REC_MOVE_BASE:
                old = table.require(a)
                if old.base_addr != b:
                    valid.discard(old.base_addr)
                    retire.add(old.base_addr)
                table.hold(a, old)  # the row move_base re-points
                table.move_base(a, b)
                valid.add(b)
            elif kind == REC_SET_DIFF:
                table.set_diff(a, b, ts)
            elif kind == REC_CLEAR_DIFF:
                table.set_diff(a, None)
            elif kind == REC_REMOVE:
                old = table.remove(a)
                if old is not None and old.base_addr >= 0:
                    valid.discard(old.base_addr)
                    retire.add(old.base_addr)
            elif kind == REC_VDCT_INC:
                if vdct.count(a) == 0:
                    valid.add(a)
                vdct.increment(a)
            elif kind == REC_VDCT_DEC:
                if vdct.decrement(a):
                    valid.discard(a)
                    retire.add(a)
            elif kind == REC_VDCT_DROP:
                vdct.remove(a)
                valid.discard(a)
                retire.add(a)
            elif kind == REC_OPEN_BLOCK:
                scan_blocks.add(a)
            else:
                raise MappingFormatError(f"unknown journal record kind {kind}")
        max_ts = max(
            max_ts, _tail_scan(driver, store, valid, retire, scan_blocks, report)
        )
    except (KeyError, struct.error, ChecksumError, MappingFormatError):
        # A seal, meta or snapshot page that is programmed but unreadable
        # (replay and the tail scan demand-page the snapshot), a journal
        # that cannot be continued, or a record stream the tables reject
        # — corrupt in a way the CRCs could not see.  The scan stays sound.
        return False
    report.fast_path = True
    _retire_sweep(driver, retire, valid, report)
    driver.blocks.rebuild(valid)
    driver.resume_ts(max_ts)
    store._cursor = prefix
    store._records_since_snapshot = len(records)
    return True


def _tail_scan(
    driver: PdlDriver,
    store: MappingStore,
    valid: Set[int],
    retire: Set[int],
    scan_blocks: Set[int],
    report: RecoveryReport,
) -> int:
    """Seeded Figure-11 scan over only the blocks writes could have
    reached since the snapshot: re-derives every mutation whose journal
    record was still pending (unflushed) at the crash."""
    chip = driver.chip
    table = driver.ppmt
    assert isinstance(table, TieredMappingTable)
    vdct = driver.vdct
    spec = chip.spec
    placeholders: Set[int] = set()
    max_ts = 0

    def drop_ref(addr: int) -> None:
        if vdct.decrement(addr):
            valid.discard(addr)
            retire.add(addr)

    with chip.stats.phase(RECOVERY_PHASE):
        for block in sorted(scan_blocks):
            if block < driver.blocks.exclude_blocks or block >= spec.n_blocks:
                continue
            start = block * spec.pages_per_block
            addrs = range(start, start + spec.pages_per_block)
            spares = chip.read_spares(addrs)
            report.tail_pages_scanned += len(addrs)
            report.pages_scanned += len(addrs)
            for addr, spare in zip(addrs, spares):
                if spare.is_erased:
                    continue
                max_ts = max(max_ts, spare.timestamp or 0)
                if spare.obsolete or spare.type is PageType.CHECKPOINT:
                    continue
                if spare.is_corrupt or (
                    spare.type is PageType.BASE and spare.pid is None
                ):
                    retire.add(addr)
                    valid.discard(addr)
                    continue
                if spare.type is PageType.BASE:
                    _tail_scan_base(
                        table, addr, spare.pid, spare.timestamp or 0,
                        valid, retire, drop_ref, report,
                    )
                elif spare.type is PageType.DIFFERENTIAL:
                    if vdct.count(addr) > 0:
                        continue  # fully described by replayed records
                    try:
                        data, _ = chip.read_page(addr)
                        diffs = decode_differential_page(data)
                    except (ChecksumError, DifferentialError):
                        retire.add(addr)
                        valid.discard(addr)
                        continue
                    report.pages_scanned += 1
                    adopted = 0
                    for diff in diffs:
                        entry = table.get(diff.pid)
                        base_ts = (
                            entry.base_ts
                            if entry is not None and entry.base_addr >= 0
                            else -1
                        )
                        if diff.timestamp <= base_ts:
                            continue
                        current = (
                            entry.diff_ts
                            if entry is not None and entry.diff_ts is not None
                            else -1
                        )
                        if diff.timestamp <= current:
                            continue
                        if entry is None:
                            table.set_base(diff.pid, -1, -1)
                            placeholders.add(diff.pid)
                        elif entry.diff_addr is not None:
                            drop_ref(entry.diff_addr)
                        table.set_diff(diff.pid, addr, diff.timestamp)
                        vdct.increment(addr)
                        adopted += 1
                        max_ts = max(max_ts, diff.timestamp)
                    report.differentials_adopted += adopted
                    if vdct.count(addr) > 0:
                        valid.add(addr)
                    else:
                        retire.add(addr)
        # Differentials whose base never materialized (torn load).
        for pid in placeholders:
            entry = table.get(pid)
            if entry is not None and entry.base_addr < 0:
                if entry.diff_addr is not None:
                    drop_ref(entry.diff_addr)
                table.remove(pid)
                report.orphan_pids.append(pid)
    return max_ts


def _tail_scan_base(
    table: TieredMappingTable,
    addr: int,
    pid: int,
    ts: int,
    valid: Set[int],
    retire: Set[int],
    drop_ref,
    report: RecoveryReport,
) -> None:
    entry = table.get(pid)
    if entry is not None and addr == entry.base_addr:
        return  # already adopted via the snapshot or a replayed record
    if entry is None or entry.base_addr < 0 or ts > entry.base_ts:
        old_addr = entry.base_addr if entry is not None else None
        old_diff = entry.diff_addr if entry is not None else None
        old_diff_ts = entry.diff_ts if entry is not None else None
        table.set_base(pid, addr, ts)
        valid.add(addr)
        report.base_pages_adopted += 1
        if old_addr is not None and old_addr >= 0:
            valid.discard(old_addr)
            retire.add(old_addr)
        if old_diff is not None:
            if ts > (old_diff_ts if old_diff_ts is not None else -1):
                drop_ref(old_diff)  # the newer base supersedes it
            else:
                table.set_diff(pid, old_diff, old_diff_ts)
        return
    # Stale or tie (identical GC copy): the adopted mapping wins.
    valid.discard(addr)
    retire.add(addr)


def _retire_sweep(
    driver: PdlDriver, retire: Set[int], valid: Set[int], report: RecoveryReport
) -> None:
    """Obsolete pages that lost their last reference during replay/scan.

    All checks are cost-free peeks; only the actual obsolete mark is
    charged.  Pages the final tables still reference, and pages already
    obsolete or erased (the runtime mark landed before the crash, or the
    block was erased), are skipped — the sweep is idempotent across
    repeated crashes and never burns spare-program budget twice.
    """
    chip = driver.chip
    table = driver.ppmt
    vdct = driver.vdct
    with chip.stats.phase(RECOVERY_PHASE):
        for addr in sorted(retire):
            if addr < 0 or addr in valid:
                continue
            spare = chip.peek_spare(addr)
            if spare.is_erased or spare.obsolete:
                continue
            if spare.type is PageType.BASE and spare.pid is not None:
                entry = table.get(spare.pid)
                if entry is not None and entry.base_addr == addr:
                    continue  # pragma: no cover - defensive
            if spare.type is PageType.DIFFERENTIAL and vdct.count(addr) > 0:
                continue  # pragma: no cover - defensive
            if spare.type is PageType.CHECKPOINT:
                continue
            try:
                chip.mark_obsolete(addr)
            except (ProgramError, SpareProgramError):
                continue
            report.stale_pages_obsoleted += 1


def _full_scan_restart(
    driver: PdlDriver, store: MappingStore, report: RecoveryReport
) -> None:
    """Figure-11 fallback for a mapping-enabled driver.

    The scan runs against plain RAM tables — its adoption logic is the
    verified reference implementation — and the result is transferred
    into the tiered table as one big dirty overlay, which the repair
    snapshot then persists.
    """
    report.fallback = True
    report.repaired = True
    chip = store.chip
    table = driver.ppmt
    assert isinstance(table, TieredMappingTable)
    # Whatever a failed fast path adopted or replayed is void.
    store.directory = []
    store._n_data = 0
    store._n_meta = 0
    table.on_snapshot()
    table.seed_counts(0, -1)
    plain_ppmt = PhysicalPageMappingTable()
    plain_vdct = ValidDifferentialCountTable()
    # The region is the store's own: nothing in it can be a data page.
    region_pages = store.config.region_blocks * store.spec.pages_per_block
    scan = recover_tables(chip, plain_ppmt, plain_vdct, first_page=region_pages)
    for name in (
        "pages_scanned",
        "base_pages_adopted",
        "differentials_adopted",
        "stale_pages_obsoleted",
        "corrupt_differential_pages",
        "corrupt_base_pages",
        "corrupt_spare_pages",
        "diff_pages_read",
        "diff_read_batches",
    ):
        setattr(report, name, getattr(report, name) + getattr(scan, name))
    report.orphan_pids.extend(scan.orphan_pids)
    report.max_timestamp = max(report.max_timestamp, scan.max_timestamp)
    # The repair snapshot must outrank every epoch readable anywhere, a
    # journal page's as much as a seal's: a journal whose own seal is
    # unreadable would otherwise share the repair's epoch and be replayed
    # over it after a power loss between the repair seal and the journal
    # erase.  It also lands on the half holding a damaged seal, so one
    # repair leaves both halves sound.
    best_seq, damaged = store.seq, None
    for half in (0, 1):
        try:
            seal = _read_seal(store, half, report)
        except (ChecksumError, MappingFormatError):
            damaged = half
            continue
        if seal is not None:
            best_seq = max(best_seq, seal[0])
    for index in range(store.journal_pages):
        magic, epoch, records = _read_journal_page(store, index, report)
        if records is not None or magic == OVERFLOW_MAGIC:
            best_seq = max(best_seq, epoch)
    if damaged is not None and (best_seq + 1) % 2 != damaged:
        best_seq += 1
    store.seq = best_seq
    valid: Set[int] = set()
    for pid, entry in plain_ppmt.items():
        table.set_base(pid, entry.base_addr, entry.base_ts)
        valid.add(entry.base_addr)
        if entry.diff_addr is not None:
            table.set_diff(pid, entry.diff_addr, entry.diff_ts)
    driver.vdct.seed(list(plain_vdct.items()))
    for diff_page in plain_vdct.pages():
        valid.add(diff_page)
    driver.blocks.rebuild(valid)
    driver.resume_ts(scan.max_timestamp)
