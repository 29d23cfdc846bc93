"""Unit tests for the spare-area codec."""

import pytest

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
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spare",
        [
            SpareArea(type=PageType.BASE, pid=0, timestamp=0),
            SpareArea(type=PageType.BASE, pid=12345, timestamp=999),
            SpareArea(type=PageType.DIFFERENTIAL, timestamp=7),
            SpareArea(type=PageType.DATA, pid=42),
            SpareArea(type=PageType.LOG),
            SpareArea(type=PageType.CHECKPOINT, pid=1, timestamp=2),
            SpareArea(type=PageType.BASE, obsolete=True, pid=9, timestamp=8),
        ],
    )
    def test_encode_decode(self, spare):
        assert SpareArea.decode(spare.encode(64)) == spare

    def test_max_pid_and_ts(self):
        spare = SpareArea(type=PageType.BASE, pid=NO_PID - 1, timestamp=NO_TS - 1)
        assert SpareArea.decode(spare.encode(64)) == spare

    def test_none_fields_survive(self):
        spare = SpareArea(type=PageType.DIFFERENTIAL)
        decoded = SpareArea.decode(spare.encode(16))
        assert decoded.pid is None
        assert decoded.timestamp is None


class TestErasedSemantics:
    def test_erased_spare_is_all_ones(self):
        assert erased_spare(64) == b"\xff" * 64

    def test_erased_decodes_as_erased(self):
        decoded = SpareArea.decode(erased_spare(64))
        assert decoded.type is PageType.ERASED
        assert decoded.is_erased
        assert not decoded.obsolete
        assert decoded.pid is None
        assert decoded.timestamp is None

    def test_unknown_type_byte_decodes_corrupt(self):
        """A damaged type byte must not masquerade as an erased page —
        recovery would re-allocate over it (the old behaviour)."""
        raw = bytearray(erased_spare(64))
        raw[0] = 0x77
        decoded = SpareArea.decode(bytes(raw))
        assert decoded.type is PageType.CORRUPT
        assert decoded.is_corrupt
        assert not decoded.is_erased
        assert not decoded.is_valid


class TestObsolete:
    def test_as_obsolete_sets_flag(self):
        spare = SpareArea(type=PageType.BASE, pid=1, timestamp=2)
        assert spare.as_obsolete().obsolete

    def test_as_obsolete_is_bit_clearing(self):
        """Re-encoding an obsoleted spare only clears bits (NAND-legal)."""
        spare = SpareArea(type=PageType.BASE, pid=1, timestamp=2)
        before = int.from_bytes(spare.encode(64), "little")
        after = int.from_bytes(spare.as_obsolete().encode(64), "little")
        assert before & after == after

    def test_validity_flags(self):
        live = SpareArea(type=PageType.BASE, pid=1)
        dead = live.as_obsolete()
        assert live.is_valid and not dead.is_valid
        assert not SpareArea().is_valid  # erased is not "valid data"


class TestErrors:
    def test_encode_needs_room(self):
        with pytest.raises(ValueError):
            SpareArea().encode(HEADER_SIZE - 1)

    def test_decode_needs_header(self):
        with pytest.raises(ValueError):
            SpareArea.decode(b"\xff" * (HEADER_SIZE - 1))

    def test_pid_out_of_range(self):
        with pytest.raises(ValueError):
            SpareArea(type=PageType.BASE, pid=1 << 33).encode(64)

    def test_ts_out_of_range(self):
        with pytest.raises(ValueError):
            SpareArea(type=PageType.BASE, timestamp=1 << 65).encode(64)

    @pytest.mark.parametrize(
        "spare, checksum",
        [
            (SpareArea(type=PageType.BASE, pid=NO_PID), None),
            (SpareArea(type=PageType.BASE, timestamp=NO_TS), None),
            (SpareArea(type=PageType.BASE, checksum=NO_CHECKSUM), None),
            (SpareArea(type=PageType.BASE), NO_CHECKSUM),
        ],
        ids=["pid", "timestamp", "checksum", "checksum-argument"],
    )
    def test_reserved_all_ones_values_are_rejected(self, spare, checksum):
        """All-ones means "none" on flash: written, it would read back as
        ``None`` instead of the value that was encoded."""
        with pytest.raises(ValueError):
            spare.encode(64, checksum)

    def test_padding_is_erased(self):
        encoded = SpareArea(type=PageType.BASE, pid=1).encode(64)
        assert encoded[CHECKSUM_HEADER_SIZE:] == b"\xff" * (64 - CHECKSUM_HEADER_SIZE)


class TestChecksum:
    def test_roundtrip(self):
        spare = SpareArea(type=PageType.BASE, pid=3, timestamp=9, checksum=0xDEADBEEF)
        decoded = SpareArea.decode(spare.encode(64))
        assert decoded.checksum == 0xDEADBEEF
        assert decoded == spare

    def test_absent_checksum_encodes_sentinel(self):
        encoded = SpareArea(type=PageType.BASE, pid=1).encode(64)
        slot = encoded[HEADER_SIZE:CHECKSUM_HEADER_SIZE]
        assert slot == b"\xff" * 4  # NO_CHECKSUM: the erased state
        assert SpareArea.decode(encoded).checksum is None

    def test_small_spare_drops_checksum(self):
        """A 16-byte spare (pre-checksum layout) has no room for the CRC;
        encode drops it, decode yields None — the compatibility story."""
        spare = SpareArea(type=PageType.BASE, pid=1, checksum=123)
        encoded = spare.encode(HEADER_SIZE)
        assert len(encoded) == HEADER_SIZE
        assert SpareArea.decode(encoded).checksum is None

    def test_with_checksum(self):
        spare = SpareArea(type=PageType.BASE, pid=1, timestamp=2)
        stamped = spare.with_checksum(77)
        assert stamped.checksum == 77
        assert (stamped.type, stamped.pid, stamped.timestamp) == (
            spare.type, spare.pid, spare.timestamp,
        )

    def test_checksum_argument_replaces_the_spares_own(self):
        spare = SpareArea(type=PageType.BASE, pid=1, timestamp=2, checksum=55)
        assert spare.encode(64, 77) == spare.with_checksum(77).encode(64)
        assert spare.encode(64, None) == spare.encode(64)

    def test_as_obsolete_preserves_checksum(self):
        spare = SpareArea(type=PageType.BASE, pid=1, timestamp=2, checksum=55)
        assert spare.as_obsolete().checksum == 55

    def test_data_checksum_never_returns_sentinel(self):
        assert data_checksum(b"") != NO_CHECKSUM
        assert 0 <= data_checksum(b"abc") < NO_CHECKSUM

    def test_checksum_out_of_range(self):
        with pytest.raises(ValueError):
            SpareArea(type=PageType.BASE, checksum=1 << 33).encode(64)
