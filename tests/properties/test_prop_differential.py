"""Property-based tests for the differential codec (hypothesis)."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.differential import (
    DIFF_PAGE_MAGIC,
    Differential,
    DifferentialError,
    compute_runs,
    compute_unit_runs,
    decode_differential_page,
    encode_differential_page,
    find_differential,
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
# Damaged input fails loudly, and only one way
# ----------------------------------------------------------------------
def exercise_decoders(data, base):
    """Drive every decoder over ``data``.  Anything but success or
    ``DifferentialError`` (``struct.error``, ``IndexError``...) escapes
    and fails the test; a merge may never change the page's length."""
    found = []
    try:
        found = decode_differential_page(data)
    except DifferentialError:
        pass
    for pid in sorted({diff.pid for diff in found} | {0, 1, 7}):
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
    valid_page = st.lists(
        TestCodecRoundTrips.diff_strategy, min_size=1, max_size=4, unique_by=lambda d: d.pid
    ).map(lambda diffs: encode_differential_page(diffs, 4096))

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
        damaged = bytearray(page)
        bit %= 8 * len(damaged)
        damaged[bit // 8] ^= 1 << (bit % 8)
        exercise_decoders(bytes(damaged), base)

    @given(page=valid_page, cut=st.integers(min_value=0), base=pages)
    def test_truncation(self, page, cut, base):
        exercise_decoders(page[: cut % len(page)], base)
