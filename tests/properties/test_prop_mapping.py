"""Property tests of the wire-form mapping tier.

(a) The byte-level snapshot merge equals a plain dict merge, whatever
    mix of updates, inserts, tombstones and emptied pages the overlay
    holds, and re-strides into full pages with the right directory.
(b) ``TieredMappingTable`` over a page store with a one- or two-page
    clean cache behaves as the all-in-RAM ``PhysicalPageMappingTable``
    does — rows handed back through ``hold`` included — and counts one
    miss per page it reads.
(c) A page's lookup (direct-index probe, bisect behind it) answers as a
    dict of its rows does, for gap-free runs, runs with holes and single
    rows, asked below, above, inside and between them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import (
    DATA_MAGIC,
    ENTRY,
    PAGE_HEADER,
    TieredMappingTable,
    _find_row,
    decode_mapping_page,
    entries_per_page,
    merge_snapshot_rows,
    pack_entry,
    stride_pages,
)
from repro.core.tables import MappingEntry, PhysicalPageMappingTable
from repro.flash.stats import FlashStats

#: Four rows to a page: a few dozen pids span many pages.
PAGE_SIZE = PAGE_HEADER.size + 4 * ENTRY.size
PER_PAGE = entries_per_page(PAGE_SIZE)
N_PIDS = 40

pids = st.integers(0, N_PIDS - 1)
entries = st.builds(
    MappingEntry,
    base_addr=st.integers(0, 2**32 - 1),
    base_ts=st.integers(0, 2**64 - 1),
    diff_addr=st.none() | st.integers(0, 2**32 - 2),
    diff_ts=st.none() | st.integers(0, 2**64 - 2),
)


def write_pages(table, seq):
    """Snapshot pages of a ``{pid: entry}`` table, as the store writes them."""
    rows = b"".join(pack_entry(pid, table[pid]) for pid in sorted(table))
    return stride_pages(rows, seq, PAGE_SIZE)


def read_pages(payloads, seq):
    return [
        decode_mapping_page(payload, expect_seq=seq, expect_index=index)
        for index, payload in enumerate(payloads)
    ]


# ----------------------------------------------------------------------
# (a) byte-level merge == dict merge
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    old=st.dictionaries(pids, entries, max_size=N_PIDS),
    overlay=st.dictionaries(pids, st.none() | entries, max_size=N_PIDS),
)
def test_snapshot_merge_equals_dict_merge(old, overlay):
    payloads, directory = write_pages(old, seq=1)
    model = dict(old)
    for pid, entry in overlay.items():
        if entry is None:
            model.pop(pid, None)
        else:
            model[pid] = entry
    expected = sorted(model.items())

    rows = merge_snapshot_rows(
        read_pages(payloads, seq=1), directory, sorted(overlay.items(), key=lambda r: r[0])
    )
    new_payloads, new_directory = stride_pages(rows, 2, PAGE_SIZE)
    pages = read_pages(new_payloads, seq=2)

    assert [row for page in pages for row in page.items()] == expected
    assert [len(page) for page in pages[:-1]] == [PER_PAGE] * (len(pages) - 1)
    assert new_directory == [pid for pid, _entry in expected[::PER_PAGE]]
    # What the store reads off the packed rows for the seal page.
    assert len(rows) // ENTRY.size == len(model)
    last_pid = ENTRY.unpack_from(rows, len(rows) - ENTRY.size)[0] if rows else -1
    assert last_pid == max(model, default=-1)


# ----------------------------------------------------------------------
# (b) tiered table == plain table; misses == page reads
# ----------------------------------------------------------------------
class PageStore:
    """The table's backend with the chip taken out: snapshot pages held
    as the bytes a flash read would return."""

    def __init__(self):
        self.stats = FlashStats(n_blocks=1, t_read_us=0.0, t_write_us=0.0, t_erase_us=0.0)
        self.entries_per_page = PER_PAGE
        self.seq = 0
        self.payloads = []
        self.directory = []
        self.page_reads = 0

    @property
    def data_page_count(self):
        return len(self.payloads)

    def load_data_page(self, index):
        self.page_reads += 1
        self.stats.mapping_misses += 1
        return decode_mapping_page(
            self.payloads[index], expect_seq=self.seq, expect_index=index
        )

    def record(self, kind, a, b=0, ts=0):
        pass

    def snapshot(self, table):
        rows = merge_snapshot_rows(
            [self.load_data_page(i) for i in range(self.data_page_count)],
            self.directory,
            table.overlay_items(),
        )
        self.seq += 1
        self.payloads, self.directory = stride_pages(rows, self.seq, PAGE_SIZE)
        table.on_snapshot()


ops = st.one_of(
    st.tuples(st.just("get"), pids),
    st.tuples(st.just("set_base"), pids, st.integers(0, 2**32 - 1), st.integers(0, 2**40)),
    st.tuples(st.just("move_base"), pids, st.integers(0, 2**32 - 1)),
    st.tuples(
        st.just("set_diff"), pids, st.none() | st.integers(0, 2**32 - 2), st.integers(0, 2**40)
    ),
    st.tuples(st.just("remove"), pids),
    # The driver's idiom: look a row up, maybe have GC move the page in
    # between (a Case-2 flush), then hand the — possibly stale — row back.
    st.tuples(st.just("hold"), pids, st.none() | st.integers(0, 2**32 - 1)),
    st.tuples(st.just("snapshot")),
)


@settings(max_examples=200, deadline=None)
@given(cache_pages=st.integers(1, 2), sequence=st.lists(ops, max_size=120))
def test_tiered_table_tracks_the_plain_table(cache_pages, sequence):
    store = PageStore()
    tiered = TieredMappingTable(store, cache_entries=cache_pages * PER_PAGE)
    plain = PhysicalPageMappingTable()
    for op, *args in sequence:
        if op == "snapshot":
            store.snapshot(tiered)
        elif op == "hold":
            pid, moved_to = args
            row = tiered.get(pid)
            assert row == plain.get(pid)
            if row is not None:
                if moved_to is not None:
                    tiered.move_base(pid, moved_to)
                    plain.move_base(pid, moved_to)
                tiered.hold(pid, row)
                plain.hold(pid, plain.require(pid))
        elif op in ("move_base", "set_diff") and args[0] not in plain:
            assert tiered.get(args[0]) is None  # both would raise KeyError
        else:
            assert getattr(tiered, op)(*args) == getattr(plain, op)(*args)
        assert tiered.cached_pages <= cache_pages
        assert len(tiered) == len(plain)
    assert sorted(tiered.items(), key=lambda r: r[0]) == sorted(
        plain.items(), key=lambda r: r[0]
    )
    assert store.stats.mapping_misses == store.page_reads


# ----------------------------------------------------------------------
# (c) probe + bisect == dict lookup
# ----------------------------------------------------------------------
@st.composite
def page_pids(draw):
    """Sorted distinct pids one page holds: a gap-free run with some
    rows knocked out (none, a few, or all but one), anywhere in u32."""
    length = draw(st.integers(1, 72))
    first = draw(st.integers(0, 2**32 - 1 - length))
    run = range(first, first + length)
    holes = draw(st.sets(st.sampled_from(run), max_size=length - 1))
    return [pid for pid in run if pid not in holes]


#: Pids scattered anywhere in u32: almost every probe misses its row.
sparse_pids = st.lists(
    st.integers(0, 2**32 - 1), min_size=1, max_size=72, unique=True
).map(sorted)


@settings(max_examples=300, deadline=None)
@given(
    pids=page_pids() | sparse_pids,
    extra=st.lists(st.integers(0, 2**32 - 1), max_size=8),
)
def test_page_lookup_equals_a_dict_of_its_rows(pids, extra):
    model = {pid: MappingEntry(pid % 1000, pid) for pid in pids}
    rows = b"".join(pack_entry(pid, model[pid]) for pid in pids)
    page = decode_mapping_page(PAGE_HEADER.pack(DATA_MAGIC, 1, 0, len(pids)) + rows)
    # Every row, its neighbours (the holes among them), and a few anywhere.
    asked = {q for pid in pids for q in (pid - 1, pid, pid + 1) if 0 <= q < 2**32}
    asked.update(extra)
    offsets = {pid: index * ENTRY.size for index, pid in enumerate(pids)}
    for pid in sorted(asked):
        assert page.get(pid) == model.get(pid), pid
        assert _find_row(rows, pid) == offsets.get(pid, -1), pid
