"""Spare (out-of-band) area codec.

Each flash page carries a small spare area next to its data area.  The
paper stores there the page *type* (base or differential), the *physical
page ID* of the logical page a base page holds, the *creation time stamp*
used by crash recovery to pick the most recent copy, and the *obsolete
bit* flipped when a page's contents are superseded (Section 4.2).

NAND constraints shape the encoding: a fresh spare area reads as all
``0xFF`` and programming can only clear bits, so the valid/obsolete flag
is a byte that starts at ``0xFF`` (valid) and is cleared to ``0x00``
(obsolete) by a second spare program — footnote 9 allows up to four spare
programs between erases.

Layout (16-byte header + optional 4-byte checksum, remaining spare bytes
left ``0xFF``)::

    [0]     type byte   (0xB5 base / 0xDF differential / 0x0D raw data)
    [1]     obsolete    (0xFF valid, 0x00 obsolete)
    [2:6]   pid         (u32 little-endian; 0xFFFFFFFF = none)
    [6:14]  timestamp   (u64 little-endian; all-ones = none)
    [14:16] reserved    (0xFF)
    [16:20] data CRC32  (u32 little-endian; 0xFFFFFFFF = none) — only
            when the spare area is at least 20 bytes

The checksum occupies bytes that earlier images left as ``0xFF``
padding, and the all-ones value means "no checksum" — exactly what an
erased or pre-checksum spare area reads as.  Decoding a pre-checksum
image therefore yields ``checksum=None`` and verification is skipped,
which is the whole backward-compatibility story: no image version bump,
old ``shard-NNNN.flash`` files keep opening and recovering (see
``docs/integrity.md``).
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import NamedTuple, Optional

import numpy as np

HEADER_SIZE = 16
_HEADER = struct.Struct("<BBIQ2s")

#: Where the optional data-area CRC32 lives inside the spare area.
CHECKSUM_OFFSET = HEADER_SIZE
CHECKSUM_SIZE = 4
#: Minimum spare size that can carry a checksum next to the header.
CHECKSUM_HEADER_SIZE = HEADER_SIZE + CHECKSUM_SIZE
_CHECKSUM = struct.Struct("<I")
#: Header and checksum together, packed/unpacked in one struct call on
#: the hot path (spare areas of at least 20 bytes).
_HEADER_CRC = struct.Struct("<BBIQ2sI")

#: All-0xFF spare contents keyed by spare size (see :func:`erased_spare`).
_ERASED_CACHE: dict = {}

#: Memoized decode results keyed by raw spare contents (bounded; cleared
#: wholesale at the cap — entries are tiny and recreated on demand).
_DECODE_CACHE: dict = {}
_DECODE_CACHE_CAP = 16384
#: The memo's probe, for ``FlashChip.read_page``: a spare seen before
#: costs a dict lookup there, not a call into :meth:`SpareArea.decode`
#: (``None`` on a miss; keys are the raw ``bytes``).
decoded_spare = _DECODE_CACHE.get

NO_PID = 0xFFFFFFFF
NO_TS = 0xFFFFFFFFFFFFFFFF
#: All-ones checksum slot means "no checksum recorded" (erased spare
#: bytes and pre-checksum images both read this way).
NO_CHECKSUM = 0xFFFFFFFF


def data_checksum(data: bytes) -> int:
    """CRC32 of a page's data area, avoiding the reserved all-ones value.

    A CRC that happens to equal :data:`NO_CHECKSUM` is mapped to 0 so it
    stays distinguishable from "no checksum recorded"; the mapping is
    deterministic, so verification compares like with like.
    """
    value = zlib.crc32(data) & 0xFFFFFFFF
    return 0 if value == NO_CHECKSUM else value


class PageType(enum.IntEnum):
    """Role of a physical page, stored as the spare type byte.

    Values are chosen so that an erased (all-``0xFF``) spare area decodes
    as :attr:`ERASED` without special-casing.  :attr:`CORRUPT` is a
    decode-side marker for unknown type bytes — no writer ever encodes
    it, so seeing it means the spare area was damaged after programming;
    recovery and fsck count and quarantine such pages instead of
    re-allocating over them.
    """

    ERASED = 0xFF
    BASE = 0xB5
    DIFFERENTIAL = 0xDF
    DATA = 0x0D
    LOG = 0x1C
    CHECKPOINT = 0xC5
    CORRUPT = 0x00


#: The members the per-page predicates below test, as module constants:
#: a global load, where ``PageType.X`` is the enum's member lookup.
_ERASED = PageType.ERASED
_CORRUPT = PageType.CORRUPT

#: Builds a :class:`SpareArea` from its five field values in one C call
#: (:meth:`SpareArea.decode`; the generated ``__new__`` is a Python frame).
_new_tuple = tuple.__new__

#: Type byte -> page type, indexed by all 256 byte values: every byte a
#: writer encodes maps to its type, any other to CORRUPT (one index, not
#: an enum call or an enum attribute lookup, on every memo miss in
#: :meth:`SpareArea.decode`).
_TYPE_OF_BYTE = tuple(
    next((t for t in PageType if t == b), PageType.CORRUPT) for b in range(256)
)


class SpareArea(NamedTuple):
    """Decoded spare-area header of one physical page.

    A named tuple, not a frozen dataclass: every program builds one and
    every first read of a programmed page decodes one, and a tuple is
    built in one step where a frozen dataclass pays an
    ``object.__setattr__`` per field.  Immutable all the same — setting
    a field raises :class:`AttributeError`.
    """

    type: PageType = PageType.ERASED
    obsolete: bool = False
    pid: Optional[int] = None
    timestamp: Optional[int] = None
    checksum: Optional[int] = None

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, spare_size: int, checksum: Optional[int] = None) -> bytes:
        """Serialize to ``spare_size`` bytes (header + 0xFF padding).

        ``checksum``, when given, is stored in place of ``self.checksum``
        — the chip stamps a program's data CRC this way, with no copy of
        the spare.  Header and checksum are packed by one struct call.
        The checksum is emitted only when the spare area has room for it
        (``spare_size >= 20``); on smaller spares it is silently dropped,
        so chips with header-only spare areas keep working unchecked.

        The all-ones values mean "none" on flash, so a pid, timestamp or
        checksum equal to :data:`NO_PID`, :data:`NO_TS` or
        :data:`NO_CHECKSUM` is rejected like any other out-of-range value
        rather than written and read back as ``None``.
        """
        if spare_size < HEADER_SIZE:
            raise ValueError(f"spare area of {spare_size} bytes cannot hold header")
        page_type, obsolete, pid, ts, own_checksum = self  # one unpack, no field lookups
        if pid is None:
            pid = NO_PID
        elif not 0 <= pid < NO_PID:
            raise ValueError(f"pid {pid} out of range [0, 0xFFFFFFFF)")
        if ts is None:
            ts = NO_TS
        elif not 0 <= ts < NO_TS:
            raise ValueError(f"timestamp {ts} out of range [0, 2**64 - 1)")
        valid = 0x00 if obsolete else 0xFF
        if spare_size < CHECKSUM_HEADER_SIZE:
            return _HEADER.pack(page_type, valid, pid, ts, b"\xff\xff") + b"\xff" * (
                spare_size - HEADER_SIZE
            )
        if checksum is None:
            checksum = own_checksum
        if checksum is None:
            checksum = NO_CHECKSUM
        elif not 0 <= checksum < NO_CHECKSUM:
            raise ValueError(f"checksum {checksum} out of range [0, 0xFFFFFFFF)")
        return _HEADER_CRC.pack(page_type, valid, pid, ts, b"\xff\xff", checksum) + b"\xff" * (
            spare_size - CHECKSUM_HEADER_SIZE
        )

    @classmethod
    def decode(cls, raw: bytes) -> "SpareArea":
        """Parse a spare area; unknown type bytes decode as CORRUPT.

        Decoding is deterministic and the result immutable, so results
        are memoized by raw contents — a page's spare is re-read far
        more often than it changes (every ``read_page`` decodes one).
        """
        key = raw if raw.__class__ is bytes else bytes(raw)
        cached = _DECODE_CACHE.get(key)
        if cached is not None:
            return cached
        size = len(raw)
        checksum: Optional[int] = None
        if size >= CHECKSUM_HEADER_SIZE:
            type_byte, valid_byte, pid, ts, _reserved, crc = _HEADER_CRC.unpack_from(
                raw, 0
            )
            checksum = None if crc == NO_CHECKSUM else crc
        elif size >= HEADER_SIZE:
            type_byte, valid_byte, pid, ts, _reserved = _HEADER.unpack_from(raw, 0)
        else:
            raise ValueError(f"spare area of {size} bytes too small to decode")
        decoded = _new_tuple(
            cls,
            (
                _TYPE_OF_BYTE[type_byte],
                valid_byte != 0xFF,
                None if pid == NO_PID else pid,
                None if ts == NO_TS else ts,
                checksum,
            ),
        )
        if len(_DECODE_CACHE) >= _DECODE_CACHE_CAP:
            _DECODE_CACHE.clear()
        _DECODE_CACHE[key] = decoded
        return decoded

    # ------------------------------------------------------------------
    # Derived updates
    # ------------------------------------------------------------------
    def as_obsolete(self) -> "SpareArea":
        """Return a copy with the obsolete flag set.

        Only bit-clearing transitions are produced (the checksum is
        preserved verbatim), so re-programming the spare area with the
        encoded result is always NAND-legal.
        """
        return self._replace(obsolete=True)

    def with_checksum(self, checksum: Optional[int]) -> "SpareArea":
        """Return a copy carrying ``checksum`` (``None`` clears it)."""
        return self._replace(checksum=checksum)

    @property
    def is_erased(self) -> bool:
        return self.type is _ERASED

    @property
    def is_corrupt(self) -> bool:
        """True when the type byte decoded to no known page type."""
        return self.type is _CORRUPT

    @property
    def is_valid(self) -> bool:
        """True for a programmed page that has not been obsoleted."""
        kind = self.type
        return kind is not _ERASED and kind is not _CORRUPT and not self.obsolete


#: Type byte -> page-type value, for a whole array of type bytes at once
#: (:func:`spare_kinds`): unknown bytes map to CORRUPT, as in ``decode``.
_KIND_OF_BYTE = np.array(_TYPE_OF_BYTE, dtype=np.uint8)


def spare_records(raw: bytes, spare_size: int) -> np.ndarray:
    """View concatenated raw spare areas as one numpy record array.

    ``raw`` holds ``len(raw) // spare_size`` spare areas back to back;
    the result has one record per spare, with the fields
    :meth:`SpareArea.decode` reads, undecoded: ``type`` (the raw type
    byte; :func:`spare_kinds` maps it to a page type), ``valid`` (0xFF
    unless obsoleted), ``pid`` (:data:`NO_PID` = none), ``ts``
    (:data:`NO_TS` = none) and, when the spare has room for one,
    ``checksum`` (:data:`NO_CHECKSUM` = none).  It is a view, not a copy:
    the recovery scan triages a chip's spares with array operations
    instead of one ``SpareArea`` per page.
    """
    if spare_size < HEADER_SIZE:
        raise ValueError(f"spare area of {spare_size} bytes too small to decode")
    fields = [("type", "u1", 0), ("valid", "u1", 1), ("pid", "<u4", 2), ("ts", "<u8", 6)]
    if spare_size >= CHECKSUM_HEADER_SIZE:
        fields.append(("checksum", "<u4", CHECKSUM_OFFSET))
    names, formats, offsets = zip(*fields)
    dtype = np.dtype(
        {"names": names, "formats": formats, "offsets": offsets, "itemsize": spare_size}
    )
    return np.frombuffer(raw, dtype=dtype)


def spare_kinds(type_bytes: np.ndarray) -> np.ndarray:
    """The :class:`PageType` value of each type byte (unknown: CORRUPT)."""
    return _KIND_OF_BYTE[type_bytes]


def erased_spare(spare_size: int) -> bytes:
    """The raw contents of an erased spare area (all bits 1).

    Returns a cached immutable object — callers must not mutate it
    (copy into a ``bytearray`` first).
    """
    cached = _ERASED_CACHE.get(spare_size)
    if cached is None:
        cached = _ERASED_CACHE[spare_size] = b"\xff" * spare_size
    return cached
