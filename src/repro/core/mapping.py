"""Tiered (demand-paged) mapping table — RAM overlay over flash-resident pages.

The paper leaves mapping persistence as further study (Section 4.5); this
module supplies the DFTL-style answer (Dayan & Bonnet, PAPERS.md): the
authoritative ppmt lives on flash in a compact, struct-packed page format
and only a bounded working set is held in RAM.  A shard can then serve a
device far larger than its mapping RAM — the 10x target held by
``tests/integration/test_extension_claims.py``.

Three cooperating pieces:

* :class:`MappingConfig` — region geometry, cache budget and snapshot
  cadence, frozen plain data that :class:`~repro.config.EngineConfig`
  derives once per engine and hands to every shard's driver.
* :class:`TieredMappingTable` — the ppmt facade the driver mutates.  It
  is two tiers: a *dirty overlay* dict holding every entry touched since
  the last snapshot (authoritative, bounded by the snapshot interval)
  and a *clean cache* of snapshot mapping pages kept in wire form
  (:class:`MappingPage`: the packed rows as read, looked up by direct
  index — the row a gap-free page puts the pid at, ``pid - first`` rows
  in — and bisected only when that row holds another pid),
  demand-paged from the flash region through the store and evicted LRU
  (the cache dict is its own recency order).  Every mutation both updates
  the overlay and appends a journal record through the store, which is
  what makes crash restart O(dirty tail) instead of O(device)
  (:mod:`repro.core.restart`).  The lookup discipline is *one
  translation per page per operation*: a caller that has looked a row up
  and has work pending on it hands the row back (:meth:`~TieredMappingTable.hold`)
  instead of asking again once the clean cache has moved on
  (docs/recovery.md, "The three mapping tiers").
* :class:`JournaledVdct` — the vdct with the same journal emission, so
  tail replay restores differential counts without re-reading any
  differential page.

The page codec here is shared by the snapshot writer and the demand
reader; its wire format is documented in ``docs/recovery.md``.  The
snapshot merge patches a page's dirty rows through the same probe, so a
page costs one read per dirty row; the store reads the old half it
merges in one batched chip call, and a restart the pages its journal
tail names (:meth:`TieredMappingTable.staged`).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple

from ..flash.errors import ChecksumError
from ..flash.spec import FlashSpec
from ..flash.stats import FlashStats
from ..ftl.errors import ConfigurationError
from .tables import MappingEntry, ValidDifferentialCountTable

#: Accounting phase for all mapping-tier flash traffic: demand page-in
#: reads, journal flushes, snapshot writes and restart replay.  Pushed
#: innermost, so the paper's read/write-step phase invariants (at most
#: two flash reads per PDL_Reading, etc.) are unaffected by the tier.
MAPPING_PHASE = "mapping"

# ----------------------------------------------------------------------
# Journal record kinds (fixed-size records; see repro.core.mapping_store)
# ----------------------------------------------------------------------
REC_SET_BASE = 1  #: a = pid, b = base addr, ts = base timestamp
REC_MOVE_BASE = 2  #: a = pid, b = new base addr (GC relocation)
REC_SET_DIFF = 3  #: a = pid, b = diff page addr, ts = differential stamp
REC_CLEAR_DIFF = 4  #: a = pid
REC_REMOVE = 5  #: a = pid
REC_VDCT_INC = 6  #: a = diff page addr
REC_VDCT_DEC = 7  #: a = diff page addr
REC_VDCT_DROP = 8  #: a = diff page addr (row removed wholesale)
REC_OPEN_BLOCK = 9  #: a = block id (journal-flushed before first program)

#: One journal record: kind, two u32 operands, one u64 timestamp.
RECORD = struct.Struct("<BIIQ")

#: Journal page header: magic, snapshot epoch, page index, record count,
#: CRC32 of the packed records.
JOURNAL_HEADER = struct.Struct("<IIIHI")

#: Snapshot mapping-page header: magic, snapshot seq, page index, n_entries.
PAGE_HEADER = struct.Struct("<IIIH")

#: One packed mapping entry: pid, base_addr, base_ts, diff_addr+1, diff_ts+1
#: (+1 shifts keep 0 as "absent", which is also what erased 0xFF regions
#: can never decode to a valid header around).
ENTRY = struct.Struct("<IIQIQ")

#: The leading pid of a packed entry — all a probe needs to read.
_PID = struct.Struct("<I")

# The lookup hot path's struct entry points, bound once.
_ENTRY_SIZE = ENTRY.size
_unpack_pid = _PID.unpack_from
_unpack_row = ENTRY.unpack_from

#: Magic stamped into every snapshot mapping page ("PMAP").
DATA_MAGIC = 0x504D4150


class MappingFormatError(ValueError):
    """A mapping page failed structural validation during decode."""


def entries_per_page(page_data_size: int) -> int:
    """Packed entries one snapshot mapping page holds."""
    count = (page_data_size - PAGE_HEADER.size) // ENTRY.size
    if count < 1:
        raise ConfigurationError(
            f"page data area of {page_data_size} bytes cannot hold even one "
            f"packed mapping entry ({PAGE_HEADER.size + ENTRY.size} bytes)"
        )
    return count


def records_per_page(page_data_size: int) -> int:
    """Journal records one journal page holds."""
    return (page_data_size - JOURNAL_HEADER.size) // RECORD.size


def pack_entry(pid: int, entry: MappingEntry) -> bytes:
    """One ``(pid, entry)`` row in wire form."""
    if entry.base_addr < 0:
        raise MappingFormatError(
            f"pid {pid} has a placeholder base (addr {entry.base_addr}); "
            "placeholders are scan-transient and must never be persisted"
        )
    return ENTRY.pack(
        pid,
        entry.base_addr,
        entry.base_ts,
        0 if entry.diff_addr is None else entry.diff_addr + 1,
        0 if entry.diff_ts is None else entry.diff_ts + 1,
    )


def _unpack_entry(rows: bytes, offset: int) -> Tuple[int, MappingEntry]:
    """The ``(pid, entry)`` packed at ``offset`` (inverse of :func:`pack_entry`)."""
    pid, base, base_ts, diff1, diff_ts1 = _unpack_row(rows, offset)
    return pid, MappingEntry(
        base, base_ts, diff1 - 1 if diff1 else None, diff_ts1 - 1 if diff_ts1 else None
    )


def _find_row(rows: bytes, pid: int) -> int:
    """Byte offset into ``rows`` of ``pid``'s packed row, or -1.

    ``rows`` is a run of pid-sorted packed entries.  Distinct sorted pids
    climb at least one per row, so ``pid`` can sit no further in than
    ``pid - first`` rows — exactly there when the run has no gaps, which
    is read first.  Otherwise the rows below that one are bisected,
    reading only the 4-byte pid of each probed row."""
    if not rows:
        return -1
    size = _ENTRY_SIZE
    unpack_pid = _unpack_pid
    guess = pid - unpack_pid(rows)[0]
    if guess < 0:
        return -1
    count = len(rows) // size
    lo, hi = 0, count
    if guess < count:
        if unpack_pid(rows, guess * size)[0] == pid:
            return guess * size
        hi = guess
    while lo < hi:
        mid = (lo + hi) >> 1
        if unpack_pid(rows, mid * size)[0] < pid:
            lo = mid + 1
        else:
            hi = mid
    if lo < count and unpack_pid(rows, lo * size)[0] == pid:
        return lo * size
    return -1


class MappingPage:
    """One snapshot mapping page, kept in the wire form the chip returned.

    Nothing is unpacked up front: a lookup reads the row a gap-free page
    puts the pid at (falling back to a bisect of the pid-sorted packed
    rows) and builds one fresh :class:`MappingEntry`, so callers own what
    they get and the resident page stays immutable."""

    __slots__ = ("rows", "first")

    def __init__(self, rows: bytes) -> None:
        #: The packed rows alone (header and page padding stripped).
        self.rows = rows
        #: The pid of the first row: the origin of the direct-index probe.
        self.first = _unpack_pid(rows)[0] if rows else 0

    def __len__(self) -> int:
        return len(self.rows) // ENTRY.size

    def get(self, pid: int) -> Optional[MappingEntry]:
        # The probe of :func:`_find_row`, inline: the clean tier's hot path.
        rows = self.rows
        offset = (pid - self.first) * _ENTRY_SIZE
        if not (0 <= offset < len(rows) and _unpack_pid(rows, offset)[0] == pid):
            offset = _find_row(rows, pid)
            if offset < 0:
                return None
        _pid, base, base_ts, diff1, diff_ts1 = _unpack_row(rows, offset)
        return MappingEntry(
            base, base_ts, diff1 - 1 if diff1 else None, diff_ts1 - 1 if diff_ts1 else None
        )

    def items(self) -> Iterator[Tuple[int, MappingEntry]]:
        rows = self.rows
        return (_unpack_entry(rows, offset) for offset in range(0, len(rows), ENTRY.size))


def decode_mapping_page(
    data: bytes, expect_seq: Optional[int] = None, expect_index: Optional[int] = None
) -> MappingPage:
    """Validate a snapshot page's header and wrap its packed rows; raises
    :class:`MappingFormatError` on damage."""
    if len(data) < PAGE_HEADER.size:
        raise MappingFormatError("mapping page shorter than its header")
    magic, seq, index, count = PAGE_HEADER.unpack_from(data)
    if magic != DATA_MAGIC:
        raise MappingFormatError(f"bad mapping page magic 0x{magic:08x}")
    if expect_seq is not None and seq != expect_seq:
        raise MappingFormatError(f"mapping page of snapshot {seq}, expected {expect_seq}")
    if expect_index is not None and index != expect_index:
        raise MappingFormatError(f"mapping page index {index}, expected {expect_index}")
    end = PAGE_HEADER.size + count * ENTRY.size
    if end > len(data):
        raise MappingFormatError(f"mapping page claims {count} entries beyond its size")
    return MappingPage(data[PAGE_HEADER.size : end])


def merge_page_rows(
    rows: bytes, dirty: Sequence[Tuple[int, Optional[MappingEntry]]]
) -> bytes:
    """One page's packed rows with its slice of the dirty overlay applied.

    ``dirty`` is pid-sorted; ``None`` is a tombstone.  When every dirty
    row updates a pid the page already holds, the rows are patched in
    place.  An insert or a tombstone changes the row count, so that page
    alone is re-merged by pid."""
    if not dirty:
        return rows
    size = ENTRY.size
    patched = bytearray(rows)
    for pid, entry in dirty:
        offset = _find_row(rows, pid)
        if entry is None or offset < 0:
            break
        patched[offset : offset + size] = pack_entry(pid, entry)
    else:
        return bytes(patched)
    by_pid = {
        _PID.unpack_from(rows, offset)[0]: rows[offset : offset + size]
        for offset in range(0, len(rows), size)
    }
    for pid, entry in dirty:
        if entry is None:
            by_pid.pop(pid, None)
        else:
            by_pid[pid] = pack_entry(pid, entry)
    return b"".join(by_pid[pid] for pid in sorted(by_pid))


def merge_snapshot_rows(
    pages: Iterable[MappingPage],
    directory: Sequence[int],
    overlay: Sequence[Tuple[int, Optional[MappingEntry]]],
) -> bytes:
    """The next snapshot's rows, packed and pid-sorted: the old snapshot's
    ``pages`` (in order; ``directory`` holds their first pids) merged with
    the pid-sorted dirty ``overlay``.

    Bisecting the overlay against the directory hands each old page the
    dirty rows of its pid range — the first page also takes everything
    below its first pid, the last everything above — so a page no dirty
    row falls into passes through as the bytes it was read as."""
    pids = [pid for pid, _entry in overlay]
    cuts = [bisect_left(pids, first) for first in directory[1:]]
    parts = [
        merge_page_rows(page.rows, overlay[start:end])
        for page, start, end in zip(pages, [0] + cuts, cuts + [len(overlay)])
    ]
    if not parts:  # no snapshot yet: the overlay is the whole table
        parts = [merge_page_rows(b"", overlay)]
    return b"".join(parts)


def stride_pages(
    rows: bytes, seq: int, page_data_size: int
) -> Tuple[List[bytes], List[int]]:
    """Cut pid-sorted packed rows into full snapshot page images; returns
    them with the directory (first pid of each page)."""
    step = entries_per_page(page_data_size) * ENTRY.size
    payloads: List[bytes] = []
    directory: List[int] = []
    for index, start in enumerate(range(0, len(rows), step)):
        chunk = rows[start : start + step]
        header = PAGE_HEADER.pack(DATA_MAGIC, seq, index, len(chunk) // ENTRY.size)
        payloads.append(header + chunk)
        directory.append(_PID.unpack_from(chunk)[0])
    return payloads, directory


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def default_snapshot_interval(spec: FlashSpec) -> int:
    """Journal records between snapshots when the caller names no cadence."""
    return max(64, spec.n_pages // 4)


@dataclass(frozen=True)
class MappingConfig:
    """Geometry and pacing of the tiered mapping subsystem.

    The flash region is the device's first ``region_blocks`` blocks:
    ``journal_blocks`` for the append-only delta journal, then two equal
    snapshot halves (ping-pong — the half being rewritten never
    overwrites the one being relied on).

    ``cache_entries`` is the RAM budget of the clean translation cache
    in *entries* (converted to whole mapping pages); ``0`` keeps every
    demand-paged mapping page resident — still journaled and
    snapshotted, but with unbounded mapping RAM.  ``snapshot_interval``
    is the journal-record count that arms the next snapshot (taken at
    the next driver safe point).
    """

    region_blocks: int
    journal_blocks: int = 1
    cache_entries: int = 0
    snapshot_interval: int = 1024

    def __post_init__(self) -> None:
        if self.journal_blocks < 1:
            raise ConfigurationError("journal_blocks must be at least 1")
        halves = self.region_blocks - self.journal_blocks
        if halves < 2 or halves % 2 != 0:
            raise ConfigurationError(
                "region_blocks must leave an even number (>= 2) of snapshot "
                f"blocks after {self.journal_blocks} journal blocks; got "
                f"{self.region_blocks}"
            )
        if self.cache_entries < 0:
            raise ConfigurationError("cache_entries must be non-negative")
        if self.snapshot_interval < 1:
            raise ConfigurationError("snapshot_interval must be positive")

    @property
    def half_blocks(self) -> int:
        return (self.region_blocks - self.journal_blocks) // 2

    @classmethod
    def auto(
        cls,
        spec: FlashSpec,
        cache_entries: int = 0,
        snapshot_interval: Optional[int] = None,
    ) -> "MappingConfig":
        """Size the region for the worst case of ``spec``'s geometry.

        A snapshot half must hold one packed entry per live logical page
        (bounded by the device's page count) plus the meta sections
        (directory, validity bitmap, vdct rows, active blocks) and the
        seal page.  The journal is sized so roughly one snapshot
        interval of half-full record pages fits before overflow.
        """
        per_page = entries_per_page(spec.page_data_size)
        data_pages = -(-spec.n_pages // per_page)  # ceil
        meta_bytes = (
            4 * data_pages  # directory: first pid per data page
            + -(-spec.n_pages // 8)  # validity bitmap
            + 8 * (spec.n_pages // 8)  # vdct allowance (addr, count pairs)
            + 64  # active-block list and counts
        )
        meta_pages = -(-meta_bytes // max(1, spec.page_data_size - PAGE_HEADER.size))
        half_blocks = -(-(data_pages + meta_pages + 1) // spec.pages_per_block)
        if snapshot_interval is None:
            snapshot_interval = default_snapshot_interval(spec)
        # Half-full journal pages (group commit rarely fills a page), one
        # reserved overflow page, rounded up to whole blocks.
        per_journal_page = max(1, records_per_page(spec.page_data_size))
        journal_pages = 1 + -(-2 * snapshot_interval // per_journal_page)
        journal_blocks = max(1, -(-journal_pages // spec.pages_per_block))
        return cls(
            region_blocks=journal_blocks + 2 * half_blocks,
            journal_blocks=journal_blocks,
            cache_entries=cache_entries,
            snapshot_interval=snapshot_interval,
        )


# ----------------------------------------------------------------------
# Store interface (implemented by repro.core.mapping_store.MappingStore)
# ----------------------------------------------------------------------
class MappingBackend(Protocol):
    """What the tiered table needs from the journal/snapshot store."""

    stats: FlashStats

    #: First pid of each current snapshot data page; the store replaces
    #: the list whenever it adopts a snapshot, so read it per lookup.
    directory: List[int]

    @property
    def entries_per_page(self) -> int: ...

    @property
    def data_page_count(self) -> int: ...

    def load_data_page(self, index: int) -> MappingPage:
        """Demand-read and validate one snapshot mapping page (one Tread)."""

    def read_data_pages(self, indexes: Sequence[int]) -> Iterator[MappingPage]:
        """The snapshot pages ``indexes``, as :meth:`load_data_page` would
        return them, read in one batch (one Tread each)."""

    def record(self, kind: int, a: int, b: int = 0, ts: int = 0) -> None:
        """Append one delta record to the journal (buffered, group-committed)."""


# ----------------------------------------------------------------------
# The tiered table
# ----------------------------------------------------------------------
class TieredMappingTable:
    """ppmt facade: dirty overlay + bounded clean cache + flash snapshot.

    Drop-in for :class:`~repro.core.tables.PhysicalPageMappingTable` —
    every mutator additionally appends a journal record through the
    store, and lookups that miss both RAM tiers demand-page the covering
    snapshot page in.  Entries returned by :meth:`get` / :meth:`require`
    are the table's own objects — the overlay's live row, or the one the
    clean tier last unpacked (which a repeated lookup of the same pid
    gets again, and :meth:`hold` makes the overlay's): callers read them
    and mutate through the table's methods only (the in-place idiom
    would also silently skip the journal), which every driver path does.
    """

    def __init__(self, store: MappingBackend, cache_entries: int = 0) -> None:
        self._store = store
        #: The chip's counters (one object for the chip's life): a hit is
        #: one increment of ``mapping_hits``.
        self._stats = store.stats
        #: pid -> entry dirtied since the last snapshot; ``None`` is a
        #: tombstone shadowing a snapshot-resident row.
        self._overlay: Dict[int, Optional[MappingEntry]] = {}
        #: snapshot page index -> wire-form page (clean tier), in
        #: recency order when bounded: least recently used first.
        self._cache: "OrderedDict[int, MappingPage]" = OrderedDict()
        self._capacity_pages: Optional[int] = None
        if cache_entries > 0:
            self._capacity_pages = max(1, cache_entries // store.entries_per_page)
        #: snapshot page index -> page read ahead in one batch
        #: (:meth:`staged`): a page-in of one of them reads no flash.
        self._staged: Dict[int, MappingPage] = {}
        #: The clean tier's last answer, ``(pid, what it held)``: the write
        #: of a read-change-write cycle asks for the row its read just got.
        #: A pid the overlay has is answered there first, so only a
        #: snapshot can outdate this (:meth:`on_snapshot` forgets it).
        self._last: Tuple[int, Optional[MappingEntry]] = (-1, None)
        self._count = 0
        self._max_pid = -1

    # -- introspection --------------------------------------------------
    @property
    def max_pid(self) -> int:
        """Largest pid ever mapped (monotonic; allocation-horizon input)."""
        return self._max_pid

    @property
    def cached_pages(self) -> int:
        """Clean-tier mapping pages currently resident (occupancy probe)."""
        return len(self._cache)

    @property
    def cache_capacity_pages(self) -> Optional[int]:
        return self._capacity_pages

    @property
    def overlay_size(self) -> int:
        """Dirty entries since the last snapshot (tombstones included)."""
        return len(self._overlay)

    # -- lookups --------------------------------------------------------
    def get(self, pid: int) -> Optional[MappingEntry]:
        overlay = self._overlay
        entry = overlay.get(pid)
        if entry is not None or pid in overlay:  # a row or a tombstone
            self._stats.mapping_hits += 1
            return entry
        last_pid, entry = self._last
        if pid == last_pid:
            self._stats.mapping_hits += 1
            return entry
        entry = self._clean_entry(pid)
        self._last = (pid, entry)
        return entry

    def require(self, pid: int) -> MappingEntry:
        entry = self.get(pid)
        if entry is None:
            raise KeyError(f"logical page {pid} has no mapping entry")
        return entry

    def __contains__(self, pid: int) -> bool:
        return self.get(pid) is not None

    def __len__(self) -> int:
        return self._count

    def _clean_entry(self, pid: int) -> Optional[MappingEntry]:
        directory = self._store.directory
        if not directory or pid < directory[0]:
            self._stats.mapping_hits += 1
            return None
        index = bisect_right(directory, pid) - 1
        page = self._cache.get(index)
        if page is None:
            page = self._staged.get(index)  # its miss was the batch's
            if page is None:
                try:
                    page = self._store.load_data_page(index)  # records the miss
                except (ChecksumError, MappingFormatError) as exc:
                    raise type(exc)(f"translating pid {pid}: {exc}") from exc
            self._admit(index, page)
        else:
            self._stats.mapping_hits += 1
            if self._capacity_pages is not None:
                self._cache.move_to_end(index)
        return page.get(pid)

    def _admit(self, index: int, page: MappingPage) -> None:
        """Page ``index`` in as the most recently used; at capacity the
        least recently used page goes."""
        cache = self._cache
        cache[index] = page
        if self._capacity_pages is not None and len(cache) > self._capacity_pages:
            cache.popitem(last=False)

    @contextmanager
    def staged(self, pids: Iterable[int]) -> Iterator[None]:
        """Read every snapshot page that covers one of ``pids`` in one
        batch, then serve the block's page-ins of those pages from it.

        A staged page still goes through the clean cache the way a
        page-in does (:meth:`_admit`, LRU order and all), so the cache
        ends the block exactly as it would have; the batch only spares
        the flash reads of pages that cache evicted and the block touched
        again.  The staged pages stay in RAM until the block ends,
        however it ends.  A damaged page fails the batch, before the
        block runs, with the store's error naming it."""
        directory = self._store.directory
        indexes = sorted({bisect_right(directory, pid) - 1 for pid in pids} - {-1})
        self._staged = dict(zip(indexes, self._store.read_data_pages(indexes)))
        try:
            yield
        finally:
            self._staged = {}

    def hold(self, pid: int, entry: MappingEntry) -> None:
        """Keep ``pid``'s row resident while work is pending on it.

        ``entry`` is the row the caller just got from :meth:`get` /
        :meth:`require` and will re-point through a mutator later in the
        same operation or at the next buffer flush — by which time the
        bounded clean cache may have evicted the page it was unpacked
        from.  The overlay adopts it, so that mutator costs no second
        translation.  A row the overlay already has wins: every mutation
        since the caller's lookup (a GC relocation under a Case-2 flush,
        say) went through the overlay, so whatever is there is at least as
        new.  Nothing changes logically and no journal record is emitted;
        a held row is a clean one until its mutator runs, and
        :meth:`on_snapshot` may drop it.
        """
        self._overlay.setdefault(pid, entry)

    def _live(self, pid: int) -> MappingEntry:
        """The overlay's mutable entry for ``pid`` (copy-on-write)."""
        entry = self._overlay.get(pid)
        if entry is not None:
            return entry
        if pid in self._overlay:
            raise KeyError(f"logical page {pid} has no mapping entry")
        clean = self._clean_entry(pid)
        if clean is None:
            raise KeyError(f"logical page {pid} has no mapping entry")
        self._overlay[pid] = clean  # unpacked for this call: nobody else holds it
        return clean

    # -- mutators (journal-emitting) ------------------------------------
    def set_base(self, pid: int, addr: int, timestamp: int) -> Optional[MappingEntry]:
        """Point ``pid`` at a new base page and clear its differential;
        returns the row this displaced (``None``: the pid was unmapped)."""
        old = self.get(pid)
        self._overlay[pid] = MappingEntry(base_addr=addr, base_ts=timestamp)
        if old is None:
            self._count += 1
            if pid > self._max_pid:
                self._max_pid = pid
        self._store.record(REC_SET_BASE, pid, addr, timestamp)
        return old

    def move_base(self, pid: int, addr: int) -> None:
        self._live(pid).base_addr = addr
        self._store.record(REC_MOVE_BASE, pid, addr)

    def set_diff(
        self,
        pid: int,
        addr: Optional[int],
        timestamp: Optional[int] = None,
        at: Optional[int] = None,
    ) -> None:
        """As the plain table's; the entry offset ``at`` is kept on the
        overlay row only, never journaled."""
        entry = self._live(pid)
        entry.diff_addr = addr
        if addr is None:
            entry.diff_ts = entry.diff_at = None
            self._store.record(REC_CLEAR_DIFF, pid)
        else:
            entry.diff_ts = timestamp
            entry.diff_at = at
            self._store.record(REC_SET_DIFF, pid, addr, timestamp or 0)

    def remove(self, pid: int) -> Optional[MappingEntry]:
        entry = self.get(pid)
        if entry is None:
            return None
        self._overlay[pid] = None
        self._count -= 1
        self._store.record(REC_REMOVE, pid)
        return entry

    # -- iteration (full table walk: fsck, verification) ----------------
    def items(self) -> Iterator[Tuple[int, MappingEntry]]:
        """Every live row.  Streams snapshot pages without admitting them
        to the clean cache (a full walk would otherwise evict the whole
        working set), then the overlay; demand reads are charged to the
        ``mapping`` phase like any other page-in."""
        for index in range(self._store.data_page_count):
            page = self._cache.get(index)
            if page is None:
                page = self._store.load_data_page(index)  # records the miss
            for pid, entry in page.items():
                if pid not in self._overlay:
                    yield pid, entry
        for pid, entry in self._overlay.items():
            if entry is not None:
                yield pid, entry

    def pids(self) -> Iterator[int]:
        return (pid for pid, _entry in self.items())

    # -- snapshot cooperation (called by the store) ---------------------
    def overlay_items(self) -> List[Tuple[int, Optional[MappingEntry]]]:
        """Dirty rows, pid-sorted, tombstones included (snapshot merge input)."""
        return sorted(self._overlay.items())

    def on_snapshot(self) -> None:
        """The store sealed a new snapshot: the overlay is now flash-resident
        and the clean cache's pages belong to the superseded one.

        Held rows (:meth:`hold`) go with the rest.  One that was still
        clean equals the row just written, so dropping it loses nothing:
        the pending mutator re-faults it from the new snapshot — correct,
        one translation slower.  Nor is one kept by accident: the mutator
        it waits for dirties it, so between snapshots the overlay outgrows
        the dirtied pids only by the rows of differentials still buffered."""
        self._overlay.clear()
        self._last = (-1, None)
        self._cache.clear()

    def seed_counts(self, count: int, max_pid: int) -> None:
        """Adopt persisted table statistics at restart."""
        self._count = count
        self._max_pid = max_pid


class JournaledVdct(ValidDifferentialCountTable):
    """vdct that mirrors every count change into the mapping journal.

    Tail replay applies the records back through the plain superclass
    methods (journaling suppressed), so the restored counts are exactly
    the live ones without reading any differential page's data area.
    """

    def __init__(self, store: MappingBackend) -> None:
        super().__init__()
        self._store = store

    def increment(self, addr: int) -> None:
        super().increment(addr)
        self._store.record(REC_VDCT_INC, addr)

    def decrement(self, addr: int) -> bool:
        reached_zero = super().decrement(addr)
        self._store.record(REC_VDCT_DEC, addr)
        return reached_zero

    def remove(self, addr: int) -> int:
        count = super().remove(addr)
        if count:
            self._store.record(REC_VDCT_DROP, addr)
        return count

