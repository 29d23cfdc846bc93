"""The snapshot mapping-page codec: wire format, header checks, packed lookup;
and the clean tier's recency order.

The wire format is pinned by bytes written with the encoder that
preceded the wire-form clean tier, so a snapshot that version wrote
stays readable.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest

from repro.core.mapping import (
    DATA_MAGIC,
    ENTRY,
    PAGE_HEADER,
    MappingConfig,
    MappingFormatError,
    MappingPage,
    TieredMappingTable,
    _find_row,
    decode_mapping_page,
    entries_per_page,
    pack_entry,
    records_per_page,
    stride_pages,
)
from repro.core.mapping_store import MappingStore
from repro.core.tables import MappingEntry
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.flash.stats import FlashStats
from repro.ftl.errors import ConfigurationError
from repro.storage.bufferpool.policy import LruPolicy

#: A page that holds exactly two rows, so three rows stride into two pages.
TWO_ROW_PAGE = PAGE_HEADER.size + 2 * ENTRY.size

GOLDEN_ROWS = [
    (5, MappingEntry(100, 1000)),
    (9, MappingEntry(101, 1001, diff_addr=0, diff_ts=0)),
    (4_000_000_000, MappingEntry(4_294_967_295, 2**63, diff_addr=7, diff_ts=2**40)),
]
GOLDEN_PAGES = [
    bytes.fromhex(
        "50414d50070000000000000002000500000064000000e8030000000000000000"
        "000000000000000000000900000065000000e903000000000000010000000100"
        "000000000000"
    ),
    bytes.fromhex(
        "50414d500700000001000000010000286beeffffffff00000000000000800800"
        "00000100000000010000"
    ),
]


def packed(rows) -> bytes:
    return b"".join(pack_entry(pid, entry) for pid, entry in rows)


def page_of(rows, seq=1, page_data_size=2048):
    (payload,), _directory = stride_pages(packed(rows), seq, page_data_size)
    return decode_mapping_page(payload, expect_seq=seq, expect_index=0)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
def test_golden_bytes_written():
    payloads, directory = stride_pages(packed(GOLDEN_ROWS), 7, TWO_ROW_PAGE)
    assert payloads == GOLDEN_PAGES
    assert directory == [5, 4_000_000_000]


def test_golden_bytes_read():
    rows = []
    for index, payload in enumerate(GOLDEN_PAGES):
        page = decode_mapping_page(payload, expect_seq=7, expect_index=index)
        rows.extend(page.items())
    assert rows == GOLDEN_ROWS


def test_page_padding_is_ignored():
    padded = GOLDEN_PAGES[1] + b"\xff" * 100
    assert list(decode_mapping_page(padded).items()) == GOLDEN_ROWS[2:]


def test_placeholder_base_is_never_packed():
    with pytest.raises(MappingFormatError, match="placeholder"):
        pack_entry(3, MappingEntry(-1, -1))


# ----------------------------------------------------------------------
# Header rejection
# ----------------------------------------------------------------------
def test_rejects_bad_magic():
    damaged = b"\x00" + GOLDEN_PAGES[0][1:]
    with pytest.raises(MappingFormatError, match="magic"):
        decode_mapping_page(damaged)


def test_rejects_erased_page():
    with pytest.raises(MappingFormatError, match="magic"):
        decode_mapping_page(b"\xff" * 2048)


def test_rejects_wrong_seq():
    with pytest.raises(MappingFormatError, match="snapshot 7, expected 8"):
        decode_mapping_page(GOLDEN_PAGES[0], expect_seq=8)


def test_rejects_wrong_index():
    with pytest.raises(MappingFormatError, match="index 0, expected 1"):
        decode_mapping_page(GOLDEN_PAGES[0], expect_seq=7, expect_index=1)


def test_rejects_count_beyond_size():
    header = PAGE_HEADER.pack(DATA_MAGIC, 7, 0, 3)  # claims 3 rows, holds 2
    with pytest.raises(MappingFormatError, match="3 entries beyond"):
        decode_mapping_page(header + GOLDEN_PAGES[0][PAGE_HEADER.size :])


def test_rejects_short_page():
    with pytest.raises(MappingFormatError, match="shorter than its header"):
        decode_mapping_page(GOLDEN_PAGES[0][: PAGE_HEADER.size - 1])


# ----------------------------------------------------------------------
# Packed lookup
# ----------------------------------------------------------------------
def test_lookup_boundaries_on_a_full_page():
    per_page = entries_per_page(2048)
    assert per_page == 72
    rows = [(10 + 3 * i, MappingEntry(i, 1000 + i)) for i in range(per_page)]
    page = page_of(rows)
    assert len(page) == per_page
    for pid, entry in rows:  # every row, first and last included
        assert page.get(pid) == entry
    assert page.get(9) is None  # below the first pid
    assert page.get(0) is None
    assert page.get(rows[-1][0] + 1) is None  # above the last
    assert page.get(2**32 - 1) is None
    assert page.get(11) is None and page.get(12) is None  # in a gap


def test_lookup_when_the_probed_row_holds_another_pid():
    """A page with gaps puts a pid below the row ``pid - first`` points
    at: the probe reads a wrong pid there (or runs off the end) and the
    bisect below it must still find — or rule out — the row."""
    pids = [10, 12, 13, 20, 21, 22, 40]
    rows = [(pid, MappingEntry(pid, 100 + pid)) for pid in pids]
    page = page_of(rows)
    packed_rows = page.rows
    # The probed row and what it holds instead: 12 -> row 2 (13),
    # 13 -> row 3 (20), 20/21/22 -> past the end, 40 -> past the end.
    for index, (pid, entry) in enumerate(rows):
        assert page.get(pid) == entry
        assert _find_row(packed_rows, pid) == index * ENTRY.size
    # Absent pids whose probed row exists and holds a larger pid.
    for pid in (11, 14, 15):
        assert page.get(pid) is None
        assert _find_row(packed_rows, pid) == -1
    # Absent pids past the last row and below the first.
    for pid in (19, 23, 39, 41, 9, 0):
        assert page.get(pid) is None
        assert _find_row(packed_rows, pid) == -1


def test_lookup_on_a_gap_free_page_reads_the_probed_row():
    rows = [(500 + i, MappingEntry(i, i)) for i in range(72)]
    page = page_of(rows)
    assert page.first == 500
    for index, (pid, entry) in enumerate(rows):
        assert _find_row(page.rows, pid) == index * ENTRY.size
        assert page.get(pid) == entry
    assert page.get(499) is None and page.get(572) is None
    assert _find_row(b"", 500) == -1


def test_lookup_on_a_single_row_page():
    page = page_of([(42, MappingEntry(7, 8))])
    assert page.get(42) == MappingEntry(7, 8)
    assert page.get(41) is None and page.get(43) is None


def test_absent_differential_is_not_differential_zero():
    page = page_of(
        [
            (1, MappingEntry(10, 20)),
            (2, MappingEntry(10, 20, diff_addr=0, diff_ts=0)),
        ]
    )
    assert page.get(1).diff_addr is None and page.get(1).diff_ts is None
    assert page.get(2).diff_addr == 0 and page.get(2).diff_ts == 0


def test_lookup_returns_a_fresh_entry():
    page = page_of([(1, MappingEntry(10, 20))])
    page.get(1).base_addr = 99  # a caller's mutation stays the caller's
    assert page.get(1) == MappingEntry(10, 20)


# ----------------------------------------------------------------------
# Geometry: one source for page and journal capacities
# ----------------------------------------------------------------------
def test_page_too_small_for_one_entry_is_rejected():
    with pytest.raises(ConfigurationError):
        entries_per_page(PAGE_HEADER.size + ENTRY.size - 1)


@pytest.mark.parametrize("page_data_size", [256, 2048])
def test_auto_sizes_the_journal_with_the_stores_geometry(page_data_size):
    spec = FlashSpec(
        n_blocks=64, pages_per_block=8, page_data_size=page_data_size, page_spare_size=16
    )
    config = MappingConfig.auto(spec, snapshot_interval=500)
    store = MappingStore(FlashChip(spec), config)
    assert store.records_per_page == records_per_page(page_data_size)
    assert store.entries_per_page == entries_per_page(page_data_size)
    # auto() reserves one overflow page plus one snapshot interval of
    # half-full pages; with the store's own capacity that is exactly this.
    journal_pages = 1 + -(-2 * 500 // store.records_per_page)
    assert config.journal_blocks == -(-journal_pages // spec.pages_per_block)


# ----------------------------------------------------------------------
# The clean tier: a bounded cache of translation pages, evicted LRU
# ----------------------------------------------------------------------
PER_PAGE = 4


class PagedStore:
    """Snapshot pages of ``PER_PAGE`` consecutive pids held in RAM, with
    the order the table paged them in."""

    entries_per_page = PER_PAGE

    def __init__(self, n_pages):
        self.stats = FlashStats(1, 0.0, 0.0, 0.0)
        self.directory = [index * PER_PAGE for index in range(n_pages)]
        self.pages = [
            MappingPage(packed([(pid, MappingEntry(pid, 1)) for pid in range(first, first + PER_PAGE)]))
            for first in self.directory
        ]
        self.page_ins = []

    @property
    def data_page_count(self):
        return len(self.pages)

    def load_data_page(self, index):
        self.page_ins.append(index)
        self.stats.mapping_misses += 1
        return self.pages[index]

    def record(self, kind, a, b=0, ts=0):
        pass


def lookups(capacity_pages, n_pages, pids):
    store = PagedStore(n_pages)
    table = TieredMappingTable(store, cache_entries=capacity_pages * PER_PAGE)
    for pid in pids:
        assert table.require(pid).base_addr == pid
    return store.page_ins


def test_a_touched_page_survives_and_the_least_recent_goes():
    # Pages 0 and 1 in; page 0 touched; page 2 in evicts page 1, not 0.
    pids = [0, 4, 1, 8, 2, 5]
    assert lookups(2, 3, pids) == [0, 1, 2, 1]


def old_policy_page_ins(capacity_pages, directory, pids):
    """The page-ins the table made when its clean cache was evicted by
    the bufferpool's ``LruPolicy``: touch on a hit; on a miss admit, then
    evict ``select_victim``'s choice while over capacity."""
    policy, resident, page_ins, last = LruPolicy(capacity_pages), set(), [], None
    for pid in pids:
        if pid == last:  # the table answers a repeated pid from its last lookup
            continue
        last = pid
        index = bisect_right(directory, pid) - 1
        if index in resident:
            policy.touch(index)
            continue
        page_ins.append(index)
        resident.add(index)
        policy.admit(index)
        while len(resident) > capacity_pages:
            victim = policy.select_victim(lambda _index: True)
            policy.remove(victim)
            resident.discard(victim)
    return page_ins


@pytest.mark.parametrize("capacity_pages", [1, 3, 7])
def test_page_ins_are_the_old_policys(capacity_pages):
    rng = random.Random(20261019)
    n_pages = 12
    hot = [rng.randrange(n_pages * PER_PAGE) for _ in range(5)]
    pids = [
        rng.choice(hot) if rng.random() < 0.5 else rng.randrange(n_pages * PER_PAGE)
        for _ in range(3000)
    ]
    directory = PagedStore(n_pages).directory
    expected = old_policy_page_ins(capacity_pages, directory, pids)
    assert len(expected) > 100
    assert lookups(capacity_pages, n_pages, pids) == expected
