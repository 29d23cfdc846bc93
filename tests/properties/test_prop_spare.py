"""Property-based tests for the spare-area codec.

The codec is the on-flash metadata contract every driver, the crash
recovery scan, and fsck all share — these properties pin it down over
the whole input space: every page type, every spare size from
header-only up, the optional checksum slot and its reserved all-ones
sentinel, and the decode-only CORRUPT path for damaged type bytes.  The
record-array view the recovery scan triages with must read every raw
spare exactly as ``SpareArea.decode`` does.  A ``SpareArea`` is a named
tuple: what decode and the derived copies return must be one, not a
bare tuple (which would compare equal field for field), and it must
stay immutable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.spare import (
    CHECKSUM_HEADER_SIZE,
    HEADER_SIZE,
    NO_CHECKSUM,
    NO_PID,
    NO_TS,
    PageType,
    SpareArea,
    data_checksum,
    erased_spare,
    spare_kinds,
    spare_records,
)

ENCODABLE_TYPES = [t for t in PageType if t is not PageType.CORRUPT]

spare_sizes = st.sampled_from([HEADER_SIZE, CHECKSUM_HEADER_SIZE, 32, 64])
checksum_sizes = st.sampled_from([CHECKSUM_HEADER_SIZE, 32, 64])
pids = st.none() | st.integers(0, NO_PID - 1)
timestamps = st.none() | st.integers(0, NO_TS - 1)
checksums = st.none() | st.integers(0, NO_CHECKSUM - 1)

spares = st.builds(
    SpareArea,
    type=st.sampled_from(ENCODABLE_TYPES),
    obsolete=st.booleans(),
    pid=pids,
    timestamp=timestamps,
    checksum=checksums,
)


@st.composite
def raw_spares(draw, size):
    """One raw spare area as flash can hold it: written, obsoleted, torn
    (some programmed bits never cleared), erased or arbitrary bytes."""
    state = draw(st.sampled_from(["written", "obsolete", "torn", "erased", "arbitrary"]))
    if state == "erased":
        return erased_spare(size)
    if state == "arbitrary":
        return draw(st.binary(min_size=size, max_size=size))
    spare = draw(spares)
    raw = (spare.as_obsolete() if state == "obsolete" else spare).encode(size)
    if state == "torn":
        unset = draw(st.binary(min_size=size, max_size=size))
        raw = bytes(byte | mask for byte, mask in zip(raw, unset))
    return raw


@st.composite
def spare_runs(draw):
    """A spare size and 1-8 raw spares of that size, back to back."""
    size = draw(spare_sizes)
    return size, draw(st.lists(raw_spares(size), min_size=1, max_size=8))


class TestRoundTrip:
    @given(spare=spares, size=checksum_sizes)
    @settings(max_examples=300)
    def test_encode_decode_identity_with_checksum_room(self, spare, size):
        raw = spare.encode(size)
        assert len(raw) == size
        assert SpareArea.decode(raw) == spare

    @given(spare=spares)
    @settings(max_examples=200)
    def test_header_only_spare_drops_only_the_checksum(self, spare):
        decoded = SpareArea.decode(spare.encode(HEADER_SIZE))
        assert decoded == spare.with_checksum(None)

    @given(spare=spares, size=spare_sizes)
    def test_padding_beyond_checksum_is_erased(self, spare, size):
        raw = spare.encode(size)
        used = CHECKSUM_HEADER_SIZE if size >= CHECKSUM_HEADER_SIZE else HEADER_SIZE
        assert raw[used:] == b"\xff" * (size - used)


class TestNamedTuple:
    @given(spare=spares, size=checksum_sizes, crc=st.integers(0, NO_CHECKSUM - 1))
    def test_decode_of_an_encoding_is_the_spare_with_its_crc(self, spare, size, crc):
        decoded = SpareArea.decode(spare.encode(size, crc))
        assert type(decoded) is SpareArea
        assert decoded == SpareArea(spare.type, spare.obsolete, spare.pid, spare.timestamp, crc)

    @given(spare=spares, crc=checksums)
    def test_derived_copies_are_spare_areas_keeping_the_other_fields(self, spare, crc):
        obsolete = spare.as_obsolete()
        assert type(obsolete) is SpareArea
        assert obsolete == SpareArea(
            spare.type, True, spare.pid, spare.timestamp, spare.checksum
        )
        stamped = spare.with_checksum(crc)
        assert type(stamped) is SpareArea
        assert stamped == SpareArea(spare.type, spare.obsolete, spare.pid, spare.timestamp, crc)

    @given(spare=spares, field=st.sampled_from(SpareArea._fields))
    def test_fields_cannot_be_assigned(self, spare, field):
        with pytest.raises(AttributeError):
            setattr(spare, field, getattr(spare, field))


class TestSentinels:
    @given(spare=spares, size=checksum_sizes)
    def test_no_checksum_encodes_as_all_ones_slot(self, spare, size):
        raw = spare.with_checksum(None).encode(size)
        slot = raw[HEADER_SIZE:CHECKSUM_HEADER_SIZE]
        assert slot == b"\xff\xff\xff\xff"
        assert SpareArea.decode(raw).checksum is None

    @given(size=spare_sizes)
    def test_erased_spare_decodes_as_erased(self, size):
        decoded = SpareArea.decode(erased_spare(size))
        assert decoded.is_erased
        assert not decoded.is_valid
        assert decoded.pid is None
        assert decoded.timestamp is None
        assert decoded.checksum is None
        assert not decoded.obsolete

    @given(spare=spares, size=spare_sizes)
    def test_reserved_sentinels_never_collide_with_values(self, spare, size):
        """None survives the trip exactly when the field was None —
        the sentinel values are excluded from the value strategies."""
        decoded = SpareArea.decode(spare.encode(size))
        assert (decoded.pid is None) == (spare.pid is None)
        assert (decoded.timestamp is None) == (spare.timestamp is None)

    @given(data=st.binary(max_size=256))
    @settings(max_examples=300)
    def test_data_checksum_avoids_the_reserved_value(self, data):
        value = data_checksum(data)
        assert 0 <= value < NO_CHECKSUM
        assert data_checksum(data) == value  # deterministic


class TestCorruptPath:
    @given(
        spare=spares,
        size=spare_sizes,
        type_byte=st.integers(0, 255).filter(
            lambda b: b not in {int(t) for t in PageType}
        ),
    )
    @settings(max_examples=200)
    def test_unknown_type_byte_decodes_as_corrupt(self, spare, size, type_byte):
        raw = bytearray(spare.encode(size))
        raw[0] = type_byte
        decoded = SpareArea.decode(bytes(raw))
        assert decoded.is_corrupt
        assert not decoded.is_valid
        assert not decoded.is_erased

    @given(spare=spares, size=spare_sizes)
    def test_corrupt_preserves_other_fields(self, spare, size):
        raw = bytearray(spare.encode(size))
        raw[0] = 0x42  # no PageType has this value
        decoded = SpareArea.decode(bytes(raw))
        assert decoded.obsolete == spare.obsolete
        assert decoded.pid == spare.pid

    def test_corrupt_is_decode_only(self):
        # No writer encodes CORRUPT; the codec round-trips it to 0x00
        # which still decodes as CORRUPT, but is_valid stays False.
        decoded = SpareArea.decode(SpareArea(type=PageType.CORRUPT).encode(32))
        assert decoded.is_corrupt


class TestNandLegality:
    @given(spare=spares, size=spare_sizes)
    @settings(max_examples=200)
    def test_as_obsolete_only_clears_bits(self, spare, size):
        """Re-programming the obsoleted encoding over the original must
        be NAND-legal: no bit may go from 0 back to 1."""
        before = spare.encode(size)
        after = spare.as_obsolete().encode(size)
        for old, new in zip(before, after):
            assert old & new == new

    @given(spare=spares, size=spare_sizes)
    def test_obsolete_round_trips(self, spare, size):
        decoded = SpareArea.decode(spare.as_obsolete().encode(size))
        assert decoded.obsolete
        assert not decoded.is_valid


class TestValidation:
    @given(size=st.integers(0, HEADER_SIZE - 1))
    def test_undersized_spare_rejected_on_encode(self, size):
        with pytest.raises(ValueError):
            SpareArea().encode(size)

    @given(raw=st.binary(max_size=HEADER_SIZE - 1))
    def test_undersized_spare_rejected_on_decode(self, raw):
        with pytest.raises(ValueError):
            SpareArea.decode(raw)

    @given(raw=st.binary(min_size=HEADER_SIZE, max_size=64))
    @settings(max_examples=300)
    def test_decode_total_over_arbitrary_bytes(self, raw):
        """Any large-enough byte string decodes without raising, and
        decoding is memoization-stable."""
        a = SpareArea.decode(raw)
        b = SpareArea.decode(raw)
        assert a == b
        assert isinstance(a.type, PageType)


class TestRecordView:
    @given(run=spare_runs())
    @settings(max_examples=300)
    def test_record_view_reads_every_field_as_decode(self, run):
        size, raws = run
        records = spare_records(b"".join(raws), size)
        kinds = spare_kinds(records["type"])
        assert len(records) == len(raws)
        for raw, record, kind in zip(raws, records.tolist(), kinds.tolist()):
            _type_byte, valid, pid, ts, *checksum = record
            decoded = SpareArea.decode(raw)
            assert kind == decoded.type
            assert (valid != 0xFF) == decoded.obsolete
            assert (None if pid == NO_PID else pid) == decoded.pid
            assert (None if ts == NO_TS else ts) == decoded.timestamp
            assert [None if crc == NO_CHECKSUM else crc for crc in checksum] == (
                [decoded.checksum] if size >= CHECKSUM_HEADER_SIZE else []
            )

    @given(size=st.integers(0, HEADER_SIZE - 1))
    def test_undersized_spare_rejected_by_the_view(self, size):
        with pytest.raises(ValueError):
            spare_records(b"\xff" * size, size)
