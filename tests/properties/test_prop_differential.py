"""Property-based tests for the differential codec (hypothesis)."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.differential import (
    DIFF_PAGE_MAGIC,
    Differential,
    DifferentialError,
    compute_runs,
    compute_unit_runs,
    decode_differential_page,
    differential_page_stamps,
    differential_page_stamps_batch,
    encode_differential_page,
    find_differential,
    merge_from_page,
)
from repro.ftl.base import ChangeRun

PAGE = 128

pages = st.binary(min_size=PAGE, max_size=PAGE)
gaps = st.integers(min_value=0, max_value=8)
units = st.sampled_from([1, 4, 8, 16, 32])


class TestComputeApplyInversion:
    """The fundamental invariant: apply(base, diff(base, new)) == new."""

    @given(base=pages, new=pages, gap=gaps)
    def test_bytewise_roundtrip(self, base, new, gap):
        diff = Differential(0, 1, compute_runs(base, new, coalesce_gap=gap))
        assert diff.apply(base) == new

    @given(base=pages, new=pages, unit=units)
    def test_unit_roundtrip(self, base, new, unit):
        diff = Differential(0, 1, compute_unit_runs(base, new, unit=unit))
        assert diff.apply(base) == new

    @given(base=pages, new=pages)
    def test_empty_iff_equal(self, base, new):
        runs = compute_runs(base, new)
        assert (runs == ()) == (base == new)

    @given(base=pages, new=pages, gap=gaps)
    def test_runs_sorted_and_disjoint(self, base, new, gap):
        runs = compute_runs(base, new, coalesce_gap=gap)
        for a, b in zip(runs, runs[1:]):
            assert a.end <= b.offset

    @given(base=pages, new=pages, unit=units)
    def test_unit_runs_cover_every_change(self, base, new, unit):
        covered = set()
        for run in compute_unit_runs(base, new, unit=unit):
            covered.update(range(run.offset, run.end))
        for i, (x, y) in enumerate(zip(base, new)):
            if x != y:
                assert i in covered

    @given(base=pages, new=pages)
    def test_size_counts_encoding_exactly(self, base, new):
        diff = Differential(3, 9, compute_runs(base, new))
        assert len(diff.encode()) == diff.size


class TestCodecRoundTrips:
    diff_strategy = st.builds(
        Differential,
        pid=st.integers(min_value=0, max_value=2**32 - 1),
        timestamp=st.integers(min_value=0, max_value=2**63),
        runs=st.lists(
            st.builds(
                ChangeRun,
                offset=st.integers(min_value=0, max_value=60000),
                data=st.binary(min_size=1, max_size=64),
            ),
            max_size=8,
        ).map(tuple),
    )

    @given(diff=diff_strategy)
    def test_entry_roundtrip(self, diff):
        decoded, pos = Differential.decode_from(diff.encode(), 0)
        assert decoded == diff
        assert pos == diff.size

    @given(diffs=st.lists(diff_strategy, max_size=5, unique_by=lambda d: d.pid))
    @settings(max_examples=50)
    def test_page_roundtrip(self, diffs):
        total = 4 + sum(d.size for d in diffs)
        payload = encode_differential_page(diffs, max(total, 16))
        assert decode_differential_page(payload) == diffs


# ----------------------------------------------------------------------
# The wire format, pinned against a reference encoder
# ----------------------------------------------------------------------
def reference_encode(pid, timestamp, base, new, unit, gap):
    """The object-form encoder this codec replaced, one step at a time:
    compare unit by unit (byte-wise runs for ``unit=None``), then entry
    header, one header per run, one data slice per run."""
    if unit is None:
        runs = [(run.offset, run.data) for run in compute_runs(base, new, gap)]
    else:
        runs = [
            (start, new[start : start + unit])
            for start in range(0, len(base), unit)
            if base[start : start + unit] != new[start : start + unit]
        ]
    out = struct.pack("<IQHH", pid, timestamp, len(runs), sum(len(d) for _, d in runs))
    for offset, data in runs:
        out += struct.pack("<HH", offset, len(data))
    for _offset, data in runs:
        out += data
    return out


@st.composite
def page_pairs(draw):
    """(base, new): untouched, patched in a few places, or fully changed;
    sizes include non-multiples of every unit, so tail runs occur."""
    size = draw(st.sampled_from([64, 70, 100, 128, 130, 203]))
    base = draw(st.binary(min_size=size, max_size=size))
    if draw(st.booleans()):
        fully_changed = bytes(b ^ 0xFF for b in base)
        return base, (fully_changed if draw(st.booleans()) else base)
    image = bytearray(base)
    patches = st.tuples(st.integers(0, size - 1), st.binary(min_size=1, max_size=24))
    for offset, patch in draw(st.lists(patches, min_size=1, max_size=4)):
        patch = patch[: size - offset]
        image[offset : offset + len(patch)] = patch
    return base, bytes(image)


class TestWireFormatPinned:
    @given(
        pair=page_pairs(),
        unit=st.sampled_from([1, 3, 8, 16, 24, 32, 64, 100, None]),
        gap=gaps,
        pid=st.integers(0, 2**32 - 1),
        timestamp=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=300)
    # Identical pages: the entry header alone.
    @example(pair=(bytes(64), bytes(64)), unit=16, gap=0, pid=1, timestamp=2)
    # Only the short tail unit changed: one run, as long as the tail.
    @example(pair=(bytes(70), bytes(69) + b"\x01"), unit=16, gap=0, pid=1, timestamp=2)
    # Every unit changed: the Case-3 page, bigger than the page itself.
    @example(pair=(bytes(128), b"\xff" * 128), unit=16, gap=0, pid=1, timestamp=2)
    # A unit that does not divide the page, changed in a full unit and the tail.
    @example(
        pair=(bytes(100), b"\x07" + bytes(98) + b"\x07"), unit=24, gap=0, pid=1, timestamp=2
    )
    def test_from_pages_matches_reference_encoder(self, pair, unit, gap, pid, timestamp):
        base, new = pair
        diff = Differential.from_pages(pid, timestamp, base, new, coalesce_gap=gap, unit=unit)
        wire = reference_encode(pid, timestamp, base, new, unit, gap)
        assert diff.encode() == wire
        assert diff.size == len(wire)
        assert diff.is_empty == (base == new)
        assert diff.apply(base) == new
        # The derived views and the run constructor agree with the bytes.
        assert Differential(pid, timestamp, diff.runs) == diff
        assert diff.data_len == sum(run.length for run in diff.runs)
        if unit is not None:
            assert diff.runs == compute_unit_runs(base, new, unit=unit)


# ----------------------------------------------------------------------
# The read path's fused pass == find, then apply
# ----------------------------------------------------------------------
def outcome(fn):
    """What ``fn()`` did: its result, or the ``DifferentialError`` text."""
    try:
        return ("ok", fn())
    except DifferentialError as exc:
        return ("DifferentialError", str(exc))


def reference_merge(data, pid, base):
    """PDL_Reading steps 2 and 3 as two steps — the pair ``merge_from_page``
    replaced on the read path and must stay equal to."""
    diff = find_differential(data, pid)
    return None if diff is None else diff.apply(base)


def assert_fused_agrees(data, pid, base):
    fused = outcome(lambda: merge_from_page(data, pid, base))
    assert fused == outcome(lambda: reference_merge(data, pid, base))
    if fused[0] == "ok" and fused[1] is not None:
        assert len(fused[1]) == len(base)
    return fused


class TestFusedReadMatchesReference:
    @given(
        pairs=st.lists(page_pairs(), min_size=1, max_size=5),
        unit=st.sampled_from([1, 3, 8, 16, 24, 32, 64, None]),
        first_pid=st.integers(0, 2**32 - 16),
    )
    @settings(max_examples=300)
    def test_valid_pages(self, pairs, unit, first_pid):
        diffs = [
            Differential.from_pages(first_pid + 2 * i, 7 + i, base, new, unit=unit)
            for i, (base, new) in enumerate(pairs)
        ]
        page = encode_differential_page(diffs, 4 + sum(d.size for d in diffs))
        for diff, (base, new) in zip(diffs, pairs):
            assert assert_fused_agrees(page, diff.pid, base) == ("ok", new)
            if diff.is_empty:
                assert merge_from_page(page, diff.pid, base) is base
            # An absent pid, whatever surrounds it.
            assert assert_fused_agrees(page, diff.pid + 1, base) == ("ok", None)
        # Padding after the last entry (a real page's erased tail) changes nothing.
        padded = page + b"\xff" * 40
        for diff, (base, new) in zip(diffs, pairs):
            assert assert_fused_agrees(padded, diff.pid, base) == ("ok", new)

    @given(diff=TestCodecRoundTrips.diff_strategy, base=pages, slack=st.integers(-2, 2))
    def test_runs_outside_the_page(self, diff, base, slack):
        """Same bounds error: offsets up to 60 000 against a 128-byte base,
        and a base that ends just before, at and just after the last run."""
        page = encode_differential_page([diff], 4 + diff.size)
        assert_fused_agrees(page, diff.pid, base)
        last_end = max((run.end for run in diff.runs), default=4)
        assert_fused_agrees(page, diff.pid, b"\x5a" * max(0, last_end + slack))


# ----------------------------------------------------------------------
# The read path's hinted merge == the walked one
# ----------------------------------------------------------------------
#: The errors a merge raises for damage inside the entry it merges.
ENTRY_ERRORS = (
    "truncated differential run header",
    "truncated differential run data",
    "declares",
    "outside page of",
)


def reference_starts(diffs):
    """Where each of ``diffs`` starts on the page they are encoded on."""
    return [4 + sum(d.size for d in diffs[:k]) for k in range(len(diffs))]


def assert_hint_agrees(data, pid, base, at, timestamp):
    """The merge with the hint ``(at, timestamp)`` does what the walk
    from the first entry for the same stamp does: the same image, or the
    same error."""
    hinted = outcome(lambda: merge_from_page(data, pid, base, at, timestamp))
    assert hinted == outcome(lambda: merge_from_page(data, pid, base, None, timestamp))
    return hinted


class TestHintedMergeMatchesWalk:
    #: Pages as the writer lays them out: entries of distinct pids and
    #: distinct stamps, made from real page pairs.
    laid_out = st.tuples(
        st.lists(page_pairs(), min_size=1, max_size=5),
        st.sampled_from([1, 3, 8, 16, 24, None]),
        st.integers(0, 2**32 - 16),
        st.integers(0, 2**63),
    ).map(
        lambda drawn: (
            [
                Differential.from_pages(drawn[2] + 2 * i, drawn[3] + i, base, new, unit=drawn[1])
                for i, (base, new) in enumerate(drawn[0])
            ],
            drawn[0],
        )
    )

    @given(laid_out=laid_out, padding=st.integers(0, 40))
    @settings(max_examples=300)
    def test_true_hints(self, laid_out, padding):
        diffs, pairs = laid_out
        page = encode_differential_page(diffs, 4 + sum(d.size for d in diffs))
        page += b"\xff" * padding  # a real page's erased tail
        for diff, (base, new), at in zip(diffs, pairs, reference_starts(diffs)):
            hinted = assert_hint_agrees(page, diff.pid, base, at, diff.timestamp)
            assert hinted == ("ok", new)
            assert hinted == outcome(lambda: reference_merge(page, diff.pid, base))

    @given(laid_out=laid_out, inside=st.integers(min_value=0), past=st.integers(0, 64))
    @settings(max_examples=300)
    def test_wrong_hints_walk(self, laid_out, inside, past):
        diffs, pairs = laid_out
        page = encode_differential_page(diffs, 4 + sum(d.size for d in diffs))
        starts = reference_starts(diffs)
        for k, (diff, (base, new)) in enumerate(zip(diffs, pairs)):
            pid, ts, at = diff.pid, diff.timestamp, starts[k]
            hints = [
                (at, None),  # no stamp
                (len(page) + past, ts),  # past the end
                (len(page) - 15, ts),  # a header would run off the page
                (-1, ts),
                (0, ts),  # the page header
            ]
            for j, other in enumerate(diffs):
                if j != k:
                    hints.append((starts[j], ts))  # another pid's entry
                    # Somewhere inside another entry, past its first byte.
                    hints.append((starts[j] + 1 + inside % (other.size - 1), ts))
            hints.append((at + 1 + inside % (diff.size - 1), ts))  # inside its own
            for hint_at, hint_ts in hints:
                if 0 <= hint_at <= len(page) - 16 and hint_at != at:
                    if struct.unpack_from("<IQ", page, hint_at) == (pid, hint_ts):
                        continue  # bytes that read as this very differential's header
                assert assert_hint_agrees(page, pid, base, hint_at, hint_ts) == ("ok", new)
            # A pid the page does not hold, hinted at a real entry.
            assert assert_hint_agrees(page, pid + 1, base, at, ts) == ("ok", None)

    @given(laid_out=laid_out, stale=st.integers(0, 2**64 - 2), padding=st.integers(0, 40))
    def test_stale_stamps_are_never_merged(self, laid_out, stale, padding):
        """An entry of the right pid with another stamp (an older
        differential) is never merged: not through a hint at it, and not
        by the walk, even when it lies in front of the right one."""
        diffs, pairs = laid_out
        page = encode_differential_page(diffs, 4 + sum(d.size for d in diffs)) + b"\xff" * padding
        for k, (diff, (base, new), at) in enumerate(zip(diffs, pairs, reference_starts(diffs))):
            other = stale if stale != diff.timestamp else stale + 1
            # The page holds only the right entry: the other stamp finds nothing.
            for hint_at in (at, None):
                assert assert_hint_agrees(page, diff.pid, base, hint_at, other) == ("ok", None)
            # An older entry of the same pid in front, one that changes nothing.
            laid = [Differential(diff.pid, other, ()), *diffs]
            both = encode_differential_page(laid, 4 + sum(d.size for d in laid))
            older_at, *moved = reference_starts(laid)
            for hint_at in (moved[k], older_at, None):
                assert assert_hint_agrees(both, diff.pid, base, hint_at, diff.timestamp) == ("ok", new)
                assert assert_hint_agrees(both, diff.pid, base, hint_at, other) == ("ok", base)

    @given(
        laid_out=laid_out,
        index=st.integers(min_value=0),
        field=st.sampled_from(["n_runs", "data_len", "run_offset", "run_length", "cut"]),
        value=st.integers(0, 0xFFFF),
    )
    @settings(max_examples=300)
    def test_damage_to_the_hinted_entry(self, laid_out, index, field, value):
        diffs, pairs = laid_out
        index %= len(diffs)
        diff, (base, _new) = diffs[index], pairs[index]
        at = reference_starts(diffs)[index]
        page = bytearray(encode_differential_page(diffs, 4 + sum(d.size for d in diffs)))
        n_runs = struct.unpack_from("<H", page, at + 12)[0]
        if field == "n_runs":
            struct.pack_into("<H", page, at + 12, value)
        elif field == "data_len":
            struct.pack_into("<H", page, at + 14, value)
        elif field == "cut":
            # The header stays whole; the runs are cut short anywhere.
            del page[at + 16 + value % (diff.size - 15) :]
        elif n_runs:
            run = at + 16 + 4 * (value % n_runs)
            struct.pack_into("<H", page, run + (0 if field == "run_offset" else 2), value)
        data = bytes(page)
        hinted = assert_hint_agrees(data, diff.pid, base, at, diff.timestamp)
        assert hinted == outcome(lambda: reference_merge(data, diff.pid, base))
        if hinted[0] == "DifferentialError":
            assert any(error in hinted[1] for error in ENTRY_ERRORS), hinted


# ----------------------------------------------------------------------
# The recovery scan's stamps view == the reference decoder
# ----------------------------------------------------------------------
def reference_stamps(data):
    """Every entry's ``(pid, timestamp)`` the way the page decoder did it
    before the header walk: check the page header, then per entry check
    and unpack its header, unpack its run headers one by one, sum their
    lengths and check the data fits and matches ``data_len``."""
    if len(data) < 4:
        raise DifferentialError("differential page smaller than its header")
    magic, count = struct.unpack_from("<HH", data, 0)
    if magic != DIFF_PAGE_MAGIC:
        raise DifferentialError(f"not a differential page (magic 0x{magic:04X})")
    stamps, pos = [], 4
    for _ in range(count):
        if pos + 16 > len(data):
            raise DifferentialError("truncated differential entry header")
        pid, timestamp, n_runs, data_len = struct.unpack_from("<IQHH", data, pos)
        pos += 16
        if pos + 4 * n_runs > len(data):
            raise DifferentialError("truncated differential run header")
        carried = sum(struct.unpack_from("<HH", data, pos + 4 * i)[1] for i in range(n_runs))
        pos += 4 * n_runs + carried
        if pos > len(data):
            raise DifferentialError("truncated differential run data")
        if carried != data_len:
            raise DifferentialError(
                f"differential for pid {pid} declares {data_len} data bytes "
                f"but carries {carried}"
            )
        stamps.append((pid, timestamp))
    return stamps


def assert_stamps_agree(data):
    """The stamps view and the reference give the same entries, or fail
    with the same ``DifferentialError`` text."""
    stamps = outcome(lambda: differential_page_stamps(data))
    assert stamps == outcome(lambda: reference_stamps(data))
    return stamps


class TestStampsMatchDecode:
    #: Entries as the write path makes them: from two page images.
    entries = st.lists(
        st.tuples(page_pairs(), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 2)),
        min_size=1,
        max_size=5,
    ).map(
        lambda drawn: [
            Differential.from_pages(pid, ts, base, new) for (base, new), pid, ts in drawn
        ]
    )

    @given(diffs=entries, padding=st.integers(0, 40))
    def test_valid_pages(self, diffs, padding):
        page = encode_differential_page(diffs, 4 + sum(d.size for d in diffs))
        expected = ("ok", [(d.pid, d.timestamp) for d in diffs])
        assert assert_stamps_agree(page) == expected
        # A real page's erased tail after the last entry changes nothing.
        assert assert_stamps_agree(page + b"\xff" * padding) == expected

    @given(diffs=entries)
    @settings(max_examples=50)
    def test_every_truncation(self, diffs):
        page = encode_differential_page(diffs, 4 + sum(d.size for d in diffs))
        for cut in range(len(page)):
            assert assert_stamps_agree(page[:cut])[0] == "DifferentialError"

    @given(
        diffs=entries,
        index=st.integers(min_value=0),
        field=st.sampled_from(["n_runs", "data_len", "magic", "count"]),
        value=st.integers(0, 0xFFFF),
    )
    @settings(max_examples=300)
    def test_corrupted_headers(self, diffs, index, field, value):
        page = bytearray(encode_differential_page(diffs, 4 + sum(d.size for d in diffs)))
        if field == "magic":
            struct.pack_into("<H", page, 0, value)
        elif field == "count":
            struct.pack_into("<H", page, 2, value)
        else:
            index %= len(diffs)
            start = 4 + sum(d.size for d in diffs[:index])
            struct.pack_into("<H", page, start + (12 if field == "n_runs" else 14), value)
        assert_stamps_agree(bytes(page))


# ----------------------------------------------------------------------
# The batched stamp reader == the scalar one, page by page
# ----------------------------------------------------------------------
BATCH_PAGE = 160

#: Ways a differential page is damaged, and the error the scalar walk
#: raises for each (``None``: the page is intact).
DAMAGE = {
    "none": None,
    "snug": None,
    "magic": "not a differential page",
    "count": "truncated differential (entry|run) header",
    "entry_header": "truncated differential entry header",
    "run_headers": "truncated differential run header",
    "run_data": "truncated differential run data",
    "data_len": "declares",
}


def damaged_page(diffs, damage, index):
    """``diffs`` encoded on a ``BATCH_PAGE``-byte page (entries that do
    not fit are cut off at the page end) and damaged as ``damage`` says,
    at entry ``index``."""
    page = bytearray(encode_differential_page(diffs, 1 << 16))
    starts = [4 + sum(d.size for d in diffs[:k]) for k in range(len(diffs))]
    at = starts[index % len(diffs)]
    if damage == "magic":
        struct.pack_into("<H", page, 0, DIFF_PAGE_MAGIC ^ 0x0100)
    elif damage == "count":
        # More entries than the page holds: the walk runs off its end.
        struct.pack_into("<H", page, 2, len(diffs) + 1 + BATCH_PAGE // 16)
    elif damage == "entry_header":
        # The entries before ``index``, then one that ends 8 bytes short
        # of the page end, and a count that promises one more.
        del page[at:]
        fill = BATCH_PAGE - 8 - at - 20
        if fill >= 0:
            page += struct.pack("<IQHHHH", 7, 7, 1, fill, 0, fill) + bytes(fill)
        struct.pack_into("<H", page, 2, index % len(diffs) + 2)
    elif damage == "snug":
        # The entries before ``index``, then one whose run headers run to
        # the page's last bytes: intact, with reads right at the page end.
        del page[at:]
        room = BATCH_PAGE - at - 16
        n_runs = room // 4 - 1  # the last few runs carry a byte each
        carrying = room - 4 * n_runs
        if n_runs >= carrying:
            lengths = [0] * (n_runs - carrying) + [1] * carrying
            runs = [field for k, length in enumerate(lengths) for field in (k + 1, length)]
            page += struct.pack(f"<IQHH{len(runs)}H", 9, 9, n_runs, carrying, *runs)
            page += bytes(carrying)
        struct.pack_into("<H", page, 2, index % len(diffs) + (n_runs >= carrying))
    elif damage == "run_headers":
        struct.pack_into("<H", page, at + 12, 0xFFFF)
    elif damage == "run_data":
        n_runs, data_len = struct.unpack_from("<HH", page, at + 12)
        struct.pack_into("<H", page, at + 14, data_len + BATCH_PAGE)
        if n_runs:  # keep data_len equal to the runs' sum
            run = at + 16 + 4 * (n_runs - 1)
            struct.pack_into("<H", page, run + 2, struct.unpack_from("<H", page, run + 2)[0] + BATCH_PAGE)
    elif damage == "data_len":
        n_runs, data_len = struct.unpack_from("<HH", page, at + 12)
        struct.pack_into("<H", page, at + 14, (data_len - 1) % 0x10000 if data_len else 1)
    return bytes(page[:BATCH_PAGE]).ljust(BATCH_PAGE, b"\xff")


def scalar_stamps(page):
    """The scalar walk's stamps, each with where its entry starts (the
    sizes of the entries before it); ``None`` where the walk raises."""
    try:
        stamps = differential_page_stamps(page)
    except DifferentialError:
        return None
    starts = reference_starts(decode_differential_page(page))
    return [(pid, ts, at) for (pid, ts), at in zip(stamps, starts)]


class TestBatchedStampsMatchScalar:
    #: Entries as the write path makes them, small enough that a few fit.
    entries = st.lists(
        st.tuples(page_pairs(), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 2)),
        min_size=1,
        max_size=4,
    ).map(
        lambda drawn: [
            Differential.from_pages(pid, ts, base[:24], new[:24]) for (base, new), pid, ts in drawn
        ]
    )
    pages = st.lists(
        st.tuples(entries, st.sampled_from(sorted(DAMAGE)), st.integers(min_value=0)),
        max_size=8,
    ).map(lambda drawn: [damaged_page(*page) for page in drawn])

    @given(pages=pages)
    @settings(max_examples=300)
    def test_same_stamps_and_same_rejections(self, pages):
        batch = differential_page_stamps_batch(b"".join(pages), BATCH_PAGE)
        assert list(batch) == [scalar_stamps(page) for page in pages]

    @given(
        pages=st.lists(st.binary(min_size=24, max_size=24), max_size=6),
        head=st.booleans(),
    )
    def test_arbitrary_bytes(self, pages, head):
        if head:
            pages = [struct.pack("<HH", DIFF_PAGE_MAGIC, page[0] % 4) + page[4:] for page in pages]
        batch = differential_page_stamps_batch(b"".join(pages), 24)
        assert list(batch) == [scalar_stamps(page) for page in pages]

    def test_every_damage_is_rejected_for_its_reason(self):
        diffs = [
            Differential.from_pages(pid, 10 + pid, bytes(24), bytes([pid + 1]) * 24, unit=4)
            for pid in range(2)
        ]
        for damage, reason in DAMAGE.items():
            page = damaged_page(diffs, damage, 1)
            (stamps,) = differential_page_stamps_batch(page, BATCH_PAGE)
            if reason is None:
                assert stamps == scalar_stamps(page) != [], damage
                continue
            assert stamps is None, damage
            with pytest.raises(DifferentialError, match=reason):
                differential_page_stamps(page)

    def test_pages_too_small_for_a_header_are_all_rejected(self):
        assert list(differential_page_stamps_batch(b"\xff" * 9, 3)) == [None] * 3
        assert list(differential_page_stamps_batch(b"", BATCH_PAGE)) == []


# ----------------------------------------------------------------------
# Damaged input fails loudly, and only one way
# ----------------------------------------------------------------------
def exercise_decoders(data, base, pids=()):
    """Drive every decoder over ``data``, looking for ``pids``, for every
    pid a full decode finds and for whatever sits where the first entry's
    pid would.  Anything but success or ``DifferentialError``
    (``struct.error``, ``IndexError``...) escapes and fails the test; a
    merge may never change the page's length."""
    found = []
    assert_stamps_agree(data)
    try:
        found = decode_differential_page(data)
    except DifferentialError:
        pass
    first = struct.unpack_from("<I", data, 4) if len(data) >= 8 else ()
    for pid in sorted({diff.pid for diff in found} | {0, 1, 7, *first, *pids}):
        assert_fused_agrees(data, pid, base)
        try:
            diff = find_differential(data, pid)
        except DifferentialError:
            continue
        if diff is not None:
            assert diff.pid == pid
            found.append(diff)
    for diff in found:
        assert diff.encode() in data
        try:
            image = diff.apply(base)
        except DifferentialError:
            continue
        assert len(image) == len(base)


class TestDamagedPagesFailLoudly:
    #: (pids, page): the damaged page is searched for the pids it held.
    valid_page = st.lists(
        TestCodecRoundTrips.diff_strategy, min_size=1, max_size=4, unique_by=lambda d: d.pid
    ).map(lambda diffs: ([d.pid for d in diffs], encode_differential_page(diffs, 4096)))

    @given(
        tail=st.binary(max_size=200),
        with_magic=st.booleans(),
        count=st.integers(0, 6),
        base=pages,
    )
    def test_arbitrary_bytes(self, tail, with_magic, count, base):
        head = struct.pack("<HH", DIFF_PAGE_MAGIC, count) if with_magic else b""
        exercise_decoders(head + tail, base)

    @given(page=valid_page, bit=st.integers(min_value=0), base=pages)
    @settings(max_examples=300)
    def test_single_bit_flips(self, page, bit, base):
        pids, page = page
        damaged = bytearray(page)
        bit %= 8 * len(damaged)
        damaged[bit // 8] ^= 1 << (bit % 8)
        exercise_decoders(bytes(damaged), base, pids)

    @given(page=valid_page, cut=st.integers(min_value=0), base=pages)
    def test_truncation(self, page, cut, base):
        pids, page = page
        exercise_decoders(page[: cut % len(page)], base, pids)
