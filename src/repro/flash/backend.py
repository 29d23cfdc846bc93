"""Device backends: where a chip's bits actually live.

:class:`~repro.flash.chip.FlashChip` enforces NAND *policy* — erase
before program, spare-program budgets, latencies, crash injection — but
delegates the *bits* to a :class:`DeviceBackend`.  Two implementations:

* :class:`MemoryBackend` — the original in-process store (Python lists);
  state dies with the process, which is fine for benchmarks and most
  tests;
* :class:`FileBackend` — a persistent single-file image, so a database
  written by one process can be recovered by the next via the paper's
  Figure-11 spare-area scan (Section 5's "from flash alone" claim needs
  durable media, not resident state).

A backend is deliberately dumber than a chip: it stores raw page images,
raw spare areas, per-page program counters and per-block erase counts,
and answers batched reads/writes.  "Erased" is represented by a zero
program counter, never by content — which lets the file image keep its
data region sparse (an erased page is never read from disk) and makes a
block erase a tiny metadata write instead of a data-region rewrite.

File image layout (little-endian, struct-packed)::

    [0:64]    header: magic "PDLFLSH1", version u16, n_blocks u32,
              pages_per_block u32, page_data_size u32, page_spare_size
              u32, reserved 0xFF padding
    [64:..]   erase counts    u32 × n_blocks
    [..:..]   page meta       (data_programs u8, spare_programs u8) × n_pages
    [..:..]   data region     page_data_size × n_pages
    [..:..]   spare region    page_spare_size × n_pages

Data areas and spare areas live in *separate* contiguous regions so the
recovery scan — which touches every spare area but almost no data areas —
reads one sequential run instead of seeking past 2 KB of data per page.
The file is opened unbuffered: a completed write has reached the OS
before the call returns, so a process that dies (even via ``os._exit``)
loses nothing it was told was written.  ``sync()`` additionally calls
``fsync`` for power-loss durability.

All file I/O is *positional* (``os.pread`` / ``os.pwrite`` in
``_read_at`` / ``_write_at``): one syscall per region touched, no file
position to maintain.  A page read (:meth:`DeviceBackend.read_page`, the
one backend call behind every ``FlashChip.read_page``) is a bounds check,
a look at the RAM meta mirror and at most two ``pread`` calls; a page
program is three ``pwrite`` calls (data, spare, meta); a batched read,
one per contiguous run of addresses and region.  The recovery scan's
bulk reads are fewer still: a chunk's spares are one ``preadv`` straight
into its buffer, and its differential pages' data areas are read in
address order, nearby pages together (:meth:`FileBackend._runs`).  A transfer that
comes up short is finished or reported — never ignored — and the
descriptor is asked of the file object on every call, so use after
``close()`` raises ``ValueError`` rather than touching whatever file the
OS has since handed the same descriptor number to.
"""

from __future__ import annotations

import mmap
import os
import random
import struct
from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import AddressError
from .spare import CHECKSUM_HEADER_SIZE, erased_spare
from .spec import FlashSpec

MAGIC = b"PDLFLSH1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sHIIII")
HEADER_SIZE = 64

#: Bytes of per-page metadata: (data_programs, spare_programs).
_META_SIZE = 2

#: What the scan's bulk reads return: one buffer, raw bytes back to back.
ScanBuffer = Union[bytes, mmap.mmap]


def _scratch(size: int) -> mmap.mmap:
    """A zero-filled ``size``-byte buffer of its own anonymous mapping.

    The scan's per-chunk buffers (a chunk of spares, a chunk's
    differential pages) are hundreds of KiB and live for one chunk.
    Mapped, one goes back to the OS the moment it is dropped; taken from
    the heap, it would stay resident, in pieces, for the rest of the
    process.
    """
    return mmap.mmap(-1, size)


#: Spares a :class:`MemoryBackend` range read joins at a time.
_JOIN_PAGES = 256

#: A batched read joins two requested pages of a region into one
#: ``pread`` when at most this many bytes lie between them (reading them
#: costs less than a second syscall), and never reads more than
#: ``_MAX_READ`` bytes at once (the whole read is held while it is sliced).
_COALESCE_GAP = 16 * 1024
_MAX_READ = 64 * 1024


class BackendError(RuntimeError):
    """Raised when a backend image is missing, corrupt, or mismatched."""


class DeviceBackend(ABC):
    """Raw page store behind a :class:`~repro.flash.chip.FlashChip`.

    All addresses are flat page addresses in ``[0, spec.n_pages)`` and
    all payloads are *raw* encoded bytes (full data-area and spare-area
    images); callers are trusted to have validated NAND legality.
    ``None`` data/spare means erased.
    """

    spec: FlashSpec
    #: ``spec.n_pages`` (a computed property), held once: every call checks it.
    _n_pages: int

    # ------------------------------------------------------------------
    # Single-page operations
    # ------------------------------------------------------------------
    @abstractmethod
    def read_page(self, addr: int) -> Tuple[Optional[bytes], Optional[bytes]]:
        """Raw ``(data, spare)`` of one page in one call — what a chip
        page read costs; the single-page form of :meth:`read_pages`."""

    @abstractmethod
    def read_data(self, addr: int) -> Optional[bytes]:
        """Raw data-area image, or ``None`` when erased."""

    @abstractmethod
    def read_spare(self, addr: int) -> Optional[bytes]:
        """Raw spare-area image, or ``None`` when erased."""

    @abstractmethod
    def program_page(self, addr: int, data: bytes, spare: bytes) -> None:
        """Store a full page (data + spare); program counters become 1/1."""

    @abstractmethod
    def write_data(self, addr: int, data: bytes, programs: int) -> None:
        """Store an updated data-area image (partial-program result) and
        the new data-program count."""

    @abstractmethod
    def write_spare(self, addr: int, spare: bytes, programs: int) -> None:
        """Store a re-programmed spare area and the new spare-program
        count (obsolete marks travel through here)."""

    @abstractmethod
    def erase_block(self, block: int) -> None:
        """Reset every page of the block to erased; bump the erase count."""

    # ------------------------------------------------------------------
    # Batched operations (the hot path)
    # ------------------------------------------------------------------
    @abstractmethod
    def read_pages(
        self, addrs: Sequence[int]
    ) -> List[Tuple[Optional[bytes], Optional[bytes]]]:
        """Raw ``(data, spare)`` pairs for many pages in one call."""

    @abstractmethod
    def read_spares(self, addrs: Sequence[int]) -> List[Optional[bytes]]:
        """Raw spare areas for many pages in one call (recovery scans)."""

    @abstractmethod
    def read_data_areas(self, addrs: Sequence[int]) -> ScanBuffer:
        """The raw data areas of many pages back to back in one buffer,
        an erased page's as all-``0xFF`` bytes: the Figure-11 scan's read
        of a chunk's differential pages, whose spares it already holds."""

    @abstractmethod
    def read_spare_range(self, start: int, stop: int) -> ScanBuffer:
        """The raw spare areas of pages ``start`` to ``stop - 1`` back to
        back in one buffer, an erased page's as all-``0xFF`` bytes: the
        Figure-11 scan's read of a chunk of spares."""

    @abstractmethod
    def program_pages(self, items: Sequence[Tuple[int, bytes, bytes]]) -> None:
        """Store many full pages — ``(addr, data, spare)`` — in one call."""

    # ------------------------------------------------------------------
    # Counters and enumeration
    # ------------------------------------------------------------------
    @abstractmethod
    def data_programs(self, addr: int) -> int:
        """Programs applied to the data area since the last erase."""

    @abstractmethod
    def spare_programs(self, addr: int) -> int:
        """Programs applied to the spare area since the last erase."""

    @abstractmethod
    def erase_count(self, block: int) -> int:
        """Lifetime erase count of the block (wear)."""

    @abstractmethod
    def is_block_erased(self, block: int) -> bool:
        """True when no page of the block has been programmed."""

    @abstractmethod
    def erased_blocks(self) -> List[int]:
        """Every block :meth:`is_block_erased` holds true of, ascending,
        in one call (the allocator's rebuild after a restart)."""

    @abstractmethod
    def iter_programmed(self) -> Iterator[int]:
        """Flat addresses of all pages with a programmed spare area."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Force written state to durable media (no-op in memory)."""

    def close(self) -> None:
        """Release resources; the backend must not be used afterwards."""

    # ------------------------------------------------------------------
    # Shared validation
    # ------------------------------------------------------------------
    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self._n_pages:
            raise AddressError(
                f"page address {addr} outside chip of {self._n_pages} pages"
            )

    def _check_range(self, start: int, stop: int) -> None:
        if start < stop:
            self._check_addr(start)
            self._check_addr(stop - 1)

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.spec.n_blocks:
            raise AddressError(
                f"block {block} outside chip of {self.spec.n_blocks}"
            )


class MemoryBackend(DeviceBackend):
    """The original volatile store: plain Python lists."""

    def __init__(self, spec: FlashSpec) -> None:
        self.spec = spec
        self._n_pages = spec.n_pages
        self._data: List[Optional[bytes]] = [None] * spec.n_pages
        self._spare: List[Optional[bytes]] = [None] * spec.n_pages
        self._data_programs: List[int] = [0] * spec.n_pages
        self._spare_programs: List[int] = [0] * spec.n_pages
        self._erase_counts: List[int] = [0] * spec.n_blocks

    # -- single-page ---------------------------------------------------
    def read_page(self, addr: int) -> Tuple[Optional[bytes], Optional[bytes]]:
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        return self._data[addr], self._spare[addr]

    def read_data(self, addr: int) -> Optional[bytes]:
        self._check_addr(addr)
        return self._data[addr]

    def read_spare(self, addr: int) -> Optional[bytes]:
        self._check_addr(addr)
        return self._spare[addr]

    def program_page(self, addr: int, data: bytes, spare: bytes) -> None:
        self._check_addr(addr)
        self._data[addr] = bytes(data)
        self._spare[addr] = bytes(spare)
        self._data_programs[addr] = 1
        self._spare_programs[addr] = 1

    def write_data(self, addr: int, data: bytes, programs: int) -> None:
        self._check_addr(addr)
        self._data[addr] = bytes(data)
        self._data_programs[addr] = programs

    def write_spare(self, addr: int, spare: bytes, programs: int) -> None:
        self._check_addr(addr)
        self._spare[addr] = bytes(spare)
        self._spare_programs[addr] = programs

    def erase_block(self, block: int) -> None:
        self._check_block(block)
        start = block * self.spec.pages_per_block
        for addr in range(start, start + self.spec.pages_per_block):
            self._data[addr] = None
            self._spare[addr] = None
            self._data_programs[addr] = 0
            self._spare_programs[addr] = 0
        self._erase_counts[block] += 1

    # -- batched -------------------------------------------------------
    def read_pages(
        self, addrs: Sequence[int]
    ) -> List[Tuple[Optional[bytes], Optional[bytes]]]:
        for a in addrs:
            self._check_addr(a)
        data, spare = self._data, self._spare
        return [(data[a], spare[a]) for a in addrs]

    def read_spares(self, addrs: Sequence[int]) -> List[Optional[bytes]]:
        n_pages = self._n_pages
        for a in addrs:
            if not 0 <= a < n_pages:
                self._check_addr(a)
        spare = self._spare
        return [spare[a] for a in addrs]

    def read_data_areas(self, addrs: Sequence[int]) -> ScanBuffer:
        n_pages = self._n_pages
        for a in addrs:
            if not 0 <= a < n_pages:
                self._check_addr(a)
        if not len(addrs):
            return b""
        size = self.spec.page_data_size
        erased = b"\xff" * size
        image = _scratch(size * len(addrs))
        for at, raw in zip(range(0, len(image), size), map(self._data.__getitem__, addrs)):
            image[at : at + size] = erased if raw is None else raw
        return image

    def read_spare_range(self, start: int, stop: int) -> ScanBuffer:
        self._check_range(start, stop)
        if start >= stop:
            return b""
        size = self.spec.page_spare_size
        erased = erased_spare(size)
        image = _scratch(size * (stop - start))
        # Joined a slice at a time: one join of the whole range would
        # take a heap block as large as the image, plus its index.
        for at in range(start, stop, _JOIN_PAGES):
            spares = self._spare[at : min(at + _JOIN_PAGES, stop)]
            image.write(b"".join([erased if raw is None else raw for raw in spares]))
        return image

    def program_pages(self, items: Sequence[Tuple[int, bytes, bytes]]) -> None:
        for addr, data, spare in items:
            self.program_page(addr, data, spare)

    # -- counters / enumeration ----------------------------------------
    def data_programs(self, addr: int) -> int:
        self._check_addr(addr)
        return self._data_programs[addr]

    def spare_programs(self, addr: int) -> int:
        self._check_addr(addr)
        return self._spare_programs[addr]

    def erase_count(self, block: int) -> int:
        self._check_block(block)
        return self._erase_counts[block]

    def is_block_erased(self, block: int) -> bool:
        self._check_block(block)
        start = block * self.spec.pages_per_block
        end = start + self.spec.pages_per_block
        return not any(self._data_programs[start:end]) and not any(
            self._spare_programs[start:end]
        )

    def erased_blocks(self) -> List[int]:
        ppb = self.spec.pages_per_block
        data, spare = self._data_programs, self._spare_programs
        return [
            block
            for block, start in enumerate(range(0, self._n_pages, ppb))
            if not (any(data[start : start + ppb]) or any(spare[start : start + ppb]))
        ]

    def iter_programmed(self) -> Iterator[int]:
        for addr, raw in enumerate(self._spare):
            if raw is not None:
                yield addr


class FileBackend(DeviceBackend):
    """A persistent chip image in a single on-disk file.

    Construct with :meth:`create` (new image; fails when the file
    exists) or :meth:`open` (existing image; validates the header).  The
    bare constructor opens-or-creates, which is what
    :meth:`repro.storage.db.Database.open` wants.

    The data region is kept sparse: the truth about whether a page is
    erased lives in the per-page program counters, so an erase writes
    ``2 × pages_per_block`` bytes of metadata and never touches the data
    region, and reads of erased pages never touch the disk at all.

    The metadata region (program counters + erase counts — a few bytes
    per page) is mirrored in RAM with write-through: it is read from
    disk once at open, every update goes to both copies, and all lookups
    are served from the mirror.  Durability is unaffected (the disk copy
    is always current) and the common case — checking whether a page is
    programmed before touching its data — costs no I/O.
    """

    def __init__(
        self, path: "str | os.PathLike[str]", spec: Optional[FlashSpec] = None
    ) -> None:
        self.path = os.fspath(path)
        if os.path.exists(self.path):
            self._file = open(self.path, "r+b", buffering=0)
            try:
                self._open_existing(spec)
            except BaseException:
                self._file.close()  # a rejected image must not leak its handle
                raise
        else:
            if spec is None:
                raise BackendError(
                    f"no image at {self.path!r} and no spec to create one"
                )
            self._create_new(spec)

    # ------------------------------------------------------------------
    # Explicit constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: "str | os.PathLike", spec: FlashSpec) -> "FileBackend":
        if os.path.exists(os.fspath(path)):
            raise BackendError(f"image {os.fspath(path)!r} already exists")
        return cls(path, spec)

    @classmethod
    def open(
        cls, path: "str | os.PathLike", spec: Optional[FlashSpec] = None
    ) -> "FileBackend":
        if not os.path.exists(os.fspath(path)):
            raise BackendError(f"no image at {os.fspath(path)!r}")
        return cls(path, spec)

    # ------------------------------------------------------------------
    # Image creation / opening
    # ------------------------------------------------------------------
    def _layout(self, spec: FlashSpec) -> None:
        self.spec = spec
        self._n_pages = spec.n_pages
        self._erase_off = HEADER_SIZE
        self._meta_off = self._erase_off + 4 * spec.n_blocks
        self._data_off = self._meta_off + _META_SIZE * spec.n_pages
        self._spare_off = self._data_off + spec.page_data_size * spec.n_pages
        self._size = self._spare_off + spec.page_spare_size * spec.n_pages

    def _create_new(self, spec: FlashSpec) -> None:
        self._layout(spec)
        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            spec.n_blocks,
            spec.pages_per_block,
            spec.page_data_size,
            spec.page_spare_size,
        )
        header += b"\xff" * (HEADER_SIZE - len(header))
        # O_EXCL-free create: callers wanting exclusivity use create().
        self._file = open(self.path, "w+b", buffering=0)
        try:
            # Zeroed counters mean "everything erased"; truncate leaves the
            # data and spare regions sparse.
            self._write_at(
                0, header + bytes(4 * spec.n_blocks + _META_SIZE * spec.n_pages)
            )
            self._file.truncate(self._size)
        except BaseException:
            self._file.close()  # a half-written image must not leak its handle
            raise
        self._meta_mirror = bytearray(_META_SIZE * spec.n_pages)
        self._erase_mirror = [0] * spec.n_blocks

    def _open_existing(self, spec: Optional[FlashSpec]) -> None:
        raw = os.pread(self._file.fileno(), HEADER_SIZE, 0)
        if len(raw) < _HEADER.size:
            raise BackendError(f"image {self.path!r} too short for a header")
        magic, version, n_blocks, ppb, data_size, spare_size = _HEADER.unpack_from(
            raw, 0
        )
        if magic != MAGIC:
            raise BackendError(f"image {self.path!r} has bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise BackendError(
                f"image {self.path!r} is format v{version}, "
                f"expected v{FORMAT_VERSION}"
            )
        if spec is None:
            # Geometry comes from the image; timings use spec defaults.
            spec = FlashSpec(
                n_blocks=n_blocks,
                pages_per_block=ppb,
                page_data_size=data_size,
                page_spare_size=spare_size,
            )
        else:
            stored = (n_blocks, ppb, data_size, spare_size)
            given = (
                spec.n_blocks,
                spec.pages_per_block,
                spec.page_data_size,
                spec.page_spare_size,
            )
            if stored != given:
                raise BackendError(
                    f"image {self.path!r} geometry {stored} does not match "
                    f"requested spec geometry {given}"
                )
        self._layout(spec)
        raw_counts = self._read_at(self._erase_off, 4 * spec.n_blocks)
        self._erase_mirror = list(
            struct.unpack(f"<{spec.n_blocks}I", raw_counts)
        )
        self._meta_mirror = bytearray(
            self._read_at(self._meta_off, _META_SIZE * spec.n_pages)
        )

    # ------------------------------------------------------------------
    # Raw file I/O helpers
    # ------------------------------------------------------------------
    def _read_at(self, offset: int, size: int) -> bytes:
        # ``fileno()`` per call, never a cached number: it raises
        # ValueError once the file is closed, where a remembered
        # descriptor could by then belong to some other open file.
        buf = os.pread(self._file.fileno(), size, offset)
        if len(buf) != size:
            raise BackendError(
                f"short read at {offset} in {self.path!r}: "
                f"wanted {size}, got {len(buf)}"
            )
        return buf

    def _read_into(self, offset: int, buffer: mmap.mmap) -> None:
        """Fill ``buffer`` from ``offset`` with one ``preadv``."""
        got = os.preadv(self._file.fileno(), [buffer], offset)
        if got != len(buffer):
            raise BackendError(
                f"short read at {offset} in {self.path!r}: "
                f"wanted {len(buffer)}, got {got}"
            )

    def _write_at(self, offset: int, payload: bytes) -> None:
        written = os.pwrite(self._file.fileno(), payload, offset)
        if written != len(payload):
            self._finish_write(offset, payload, written)

    def _finish_write(self, offset: int, payload: bytes, written: int) -> None:
        """A ``pwrite`` came up short: write the rest, or say what is
        missing — a page half on disk must never pass for a program."""
        view = memoryview(payload)
        while written < len(view):
            step = os.pwrite(self._file.fileno(), view[written:], offset + written)
            if step <= 0:
                raise BackendError(
                    f"short write at {offset} in {self.path!r}: "
                    f"wanted {len(view)}, wrote {written}"
                )
            written += step

    def _meta(self, addr: int) -> Tuple[int, int]:
        base = _META_SIZE * addr
        return self._meta_mirror[base], self._meta_mirror[base + 1]

    def _set_meta(self, addr: int, data_programs: int, spare_programs: int) -> None:
        payload = bytes((min(data_programs, 0xFF), min(spare_programs, 0xFF)))
        self._meta_mirror[_META_SIZE * addr : _META_SIZE * (addr + 1)] = payload
        self._write_at(self._meta_off + _META_SIZE * addr, payload)

    # -- single-page ---------------------------------------------------
    def read_page(self, addr: int) -> Tuple[Optional[bytes], Optional[bytes]]:
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        meta = self._meta_mirror
        data: Optional[bytes] = None
        spare: Optional[bytes] = None
        if meta[_META_SIZE * addr]:
            size = self.spec.page_data_size
            data = self._read_at(self._data_off + size * addr, size)
        if meta[_META_SIZE * addr + 1]:
            size = self.spec.page_spare_size
            spare = self._read_at(self._spare_off + size * addr, size)
        return data, spare

    def read_data(self, addr: int) -> Optional[bytes]:
        self._check_addr(addr)
        if self._meta(addr)[0] == 0:
            return None
        size = self.spec.page_data_size
        return self._read_at(self._data_off + size * addr, size)

    def read_spare(self, addr: int) -> Optional[bytes]:
        self._check_addr(addr)
        if self._meta(addr)[1] == 0:
            return None
        size = self.spec.page_spare_size
        return self._read_at(self._spare_off + size * addr, size)

    def program_page(self, addr: int, data: bytes, spare: bytes) -> None:
        self._check_addr(addr)
        self._write_at(self._data_off + self.spec.page_data_size * addr, data)
        self._write_at(self._spare_off + self.spec.page_spare_size * addr, spare)
        self._set_meta(addr, 1, 1)

    def write_data(self, addr: int, data: bytes, programs: int) -> None:
        self._check_addr(addr)
        spare_programs = self._meta(addr)[1]
        self._write_at(self._data_off + self.spec.page_data_size * addr, data)
        self._set_meta(addr, programs, spare_programs)

    def write_spare(self, addr: int, spare: bytes, programs: int) -> None:
        self._check_addr(addr)
        data_programs = self._meta(addr)[0]
        self._write_at(self._spare_off + self.spec.page_spare_size * addr, spare)
        self._set_meta(addr, data_programs, programs)

    def erase_block(self, block: int) -> None:
        self._check_block(block)
        ppb = self.spec.pages_per_block
        start = block * ppb
        # One metadata write resets the whole block to "erased"; the
        # stale data/spare bytes are unreachable behind zero counters.
        zeros = bytes(_META_SIZE * ppb)
        self._meta_mirror[_META_SIZE * start : _META_SIZE * (start + ppb)] = zeros
        self._write_at(self._meta_off + _META_SIZE * start, zeros)
        self._erase_mirror[block] += 1
        self._write_at(
            self._erase_off + 4 * block, struct.pack("<I", self._erase_mirror[block])
        )

    # -- batched -------------------------------------------------------
    def read_pages(
        self, addrs: Sequence[int]
    ) -> List[Tuple[Optional[bytes], Optional[bytes]]]:
        metas = self._meta_run(addrs)
        out: List[Tuple[Optional[bytes], Optional[bytes]]] = []
        data_size = self.spec.page_data_size
        spare_size = self.spec.page_spare_size
        for _addr, (dp, sp), data_buf, spare_buf in zip(
            addrs,
            metas,
            self._region_run(addrs, self._data_off, data_size),
            self._region_run(addrs, self._spare_off, spare_size),
        ):
            out.append(
                (data_buf if dp else None, spare_buf if sp else None)
            )
        return out

    def read_spares(self, addrs: Sequence[int]) -> List[Optional[bytes]]:
        metas = self._meta_run(addrs)
        spare_size = self.spec.page_spare_size
        return [
            buf if sp else None
            for (_dp, sp), buf in zip(
                metas, self._region_run(addrs, self._spare_off, spare_size)
            )
        ]

    def read_data_areas(self, addrs: Sequence[int]) -> ScanBuffer:
        pages = np.asarray(addrs, dtype=np.int64).reshape(-1)
        outside = ((pages < 0) | (pages >= self._n_pages)).nonzero()[0]
        if outside.size:
            self._check_addr(int(pages[outside[0]]))
        if not pages.size:
            return b""
        size = self.spec.page_data_size
        image = _scratch(size * len(pages))
        programmed = np.frombuffer(self._meta_mirror, np.uint8)[_META_SIZE * pages] != 0
        np.frombuffer(image, np.uint8).reshape(-1, size)[~programmed] = 0xFF
        for slots, offsets, first, span in self._runs(pages, programmed, size):
            raw = memoryview(self._read_at(self._data_off + size * first, span))
            for slot, at in zip(slots, offsets):
                image[size * slot : size * (slot + 1)] = raw[at : at + size]
        return image

    def read_spare_range(self, start: int, stop: int) -> ScanBuffer:
        self._check_range(start, stop)
        if start >= stop:
            return b""
        size = self.spec.page_spare_size
        image = _scratch(size * (stop - start))
        self._read_into(self._spare_off + size * start, image)
        # The disk keeps whatever an erased page's spare held before its
        # erase (or sparse zeros): the counters say which pages read 0xFF.
        erased = np.frombuffer(self._meta_mirror, np.uint8)[2 * start + 1 : 2 * stop : 2] == 0
        np.frombuffer(image, np.uint8).reshape(-1, size)[erased] = 0xFF
        return image

    @staticmethod
    def _runs(
        pages: np.ndarray, programmed: np.ndarray, size: int
    ) -> List[Tuple[List[int], List[int], int, int]]:
        """How :meth:`read_data_areas` reads the data region: the
        ``pages`` that are ``programmed``, in address order, cut into runs of
        one ``pread`` each.  Pages at most ``_COALESCE_GAP`` bytes apart
        share a run, and no run reads more than ``_MAX_READ`` bytes.  A
        run is (the slots of its pages in ``pages``, their offsets in the
        read, its first page, the bytes it reads).  (Array methods and
        ufuncs only: numpy's Python-level helpers would cost calls.)"""
        slots = programmed.nonzero()[0]
        if not slots.size:
            return []
        wanted = pages[slots]
        if np.logical_or.reduce(wanted[:-1] > wanted[1:]):
            order = sorted(range(len(wanted)), key=wanted.tolist().__getitem__)
            slots, wanted = slots[order], wanted[order]
        window = wanted // max(1, _MAX_READ // size)
        cuts = ((wanted[1:] - wanted[:-1] - 1) * size > _COALESCE_GAP) | (
            window[1:] != window[:-1]
        )
        bounds = [0, *(cuts.nonzero()[0] + 1).tolist(), len(wanted)]
        runs = []
        for lo, hi in zip(bounds, bounds[1:]):
            run = wanted[lo:hi]
            first = int(run[0])
            runs.append(
                (
                    slots[lo:hi].tolist(),
                    ((run - first) * size).tolist(),
                    first,
                    size * (int(run[-1]) + 1 - first),
                )
            )
        return runs

    def program_pages(self, items: Sequence[Tuple[int, bytes, bytes]]) -> None:
        # Coalesce contiguous address runs into single writes per region;
        # allocation is sequential within a block, so flushes, GC
        # relocations and bulk loads almost always form one run.
        for run in _contiguous_runs(items):
            start = run[0][0]
            self._write_at(
                self._data_off + self.spec.page_data_size * start,
                b"".join(data for _a, data, _s in run),
            )
            self._write_at(
                self._spare_off + self.spec.page_spare_size * start,
                b"".join(spare for _a, _d, spare in run),
            )
            ones = b"\x01\x01" * len(run)
            self._meta_mirror[
                _META_SIZE * start : _META_SIZE * (start + len(run))
            ] = ones
            self._write_at(self._meta_off + _META_SIZE * start, ones)

    def _meta_run(self, addrs: Sequence[int]) -> List[Tuple[int, int]]:
        """Per-page meta for many pages (served from the RAM mirror)."""
        out: List[Tuple[int, int]] = []
        for start, count in _address_runs(addrs):
            self._check_addr(start)
            self._check_addr(start + count - 1)
            raw = self._meta_mirror[_META_SIZE * start : _META_SIZE * (start + count)]
            out.extend(zip(raw[0::2], raw[1::2]))
        return out

    def _region_run(
        self, addrs: Sequence[int], region_off: int, item_size: int
    ) -> List[bytes]:
        """Raw images for many pages from one region, coalescing runs."""
        out: List[bytes] = []
        for start, count in _address_runs(addrs):
            raw = self._read_at(region_off + item_size * start, item_size * count)
            out += [raw[at : at + item_size] for at in range(0, item_size * count, item_size)]
        return out

    # -- counters / enumeration ----------------------------------------
    def data_programs(self, addr: int) -> int:
        self._check_addr(addr)
        return self._meta(addr)[0]

    def spare_programs(self, addr: int) -> int:
        self._check_addr(addr)
        return self._meta(addr)[1]

    def erase_count(self, block: int) -> int:
        self._check_block(block)
        return self._erase_mirror[block]

    def is_block_erased(self, block: int) -> bool:
        self._check_block(block)
        ppb = self.spec.pages_per_block
        start = _META_SIZE * block * ppb
        raw = self._meta_mirror[start : start + _META_SIZE * ppb]
        return raw.count(0) == len(raw)

    def erased_blocks(self) -> List[int]:
        meta = np.frombuffer(self._meta_mirror, np.uint8)
        programmed = meta.reshape(self.spec.n_blocks, -1).any(axis=1)
        return np.flatnonzero(~programmed).tolist()

    def iter_programmed(self) -> Iterator[int]:
        raw = self._meta_mirror
        for addr in range(self.spec.n_pages):
            if raw[2 * addr + 1]:
                yield addr

    # -- lifecycle -----------------------------------------------------
    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._file.closed:
            try:
                self.sync()
            finally:
                self._file.close()  # even when the fsync fails

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FileBackend {self.path!r} {self.spec.n_pages} pages>"


#: Fault kinds :class:`FaultInjector` can inject, in dispatch order.
FAULT_KINDS = ("bit_rot", "misdirected_write", "torn_spare")


class FaultInjectionError(RuntimeError):
    """An injection request targets a page that cannot host the fault
    (e.g. bit-rotting an erased page, which has no stored bits)."""


class FaultInjector:
    """Corrupts a backend's stored pages on demand.

    Models the single-page failure classes of Graefe & Kuno on *either*
    backend.  It is a test tool, not a device layer: the chip keeps
    talking to ``backend`` directly, and an injection rewrites that
    backend's stored images in place:

    * **bit rot** — flip bits inside a programmed data area;
    * **misdirected write** — replace a page's data *and* spare with
      another page's images, as if the donor's program pulse landed on
      the wrong word line (the result is internally consistent — its
      checksum still matches — so detection needs the mapping layer);
    * **torn spare program** — a spare program that stopped partway:
      bytes past the tear point revert to erased ``0xFF``.

    Injections bypass NAND legality on purpose (corruption is not a
    legal program) and never touch program counters or erase counts —
    the device believes the page is healthily programmed, which is
    exactly what makes the damage silent until a read verifies it.  An
    injection that would leave both images as they were raises
    :class:`FaultInjectionError` and is not logged.

    All randomness comes from one :class:`random.Random` seeded at
    construction, so a fault sequence is reproducible run-to-run.
    """

    def __init__(self, backend: DeviceBackend, seed: int = 0) -> None:
        self.backend = backend
        self._rng = random.Random(seed)
        #: (kind, addr) in injection order, for test assertions.
        self.fault_log: List[Tuple[str, int]] = []

    def inject(self, kind: str, addr: int, **kwargs: object) -> None:
        """Inject one fault of ``kind`` at page ``addr``."""
        if kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}"
            )
        getattr(self, f"inject_{kind}")(addr, **kwargs)

    def inject_bit_rot(self, addr: int, n_bits: int = 1) -> None:
        """Flip ``n_bits`` distinct bits in a programmed data area."""
        backend = self.backend
        backend._check_addr(addr)
        data = backend.read_data(addr)
        if data is None:
            raise FaultInjectionError(f"page {addr} has no programmed data to rot")
        if not 1 <= n_bits <= len(data) * 8:
            raise FaultInjectionError(f"cannot flip {n_bits} bits in {len(data)} bytes")
        rotted = bytearray(data)
        for position in self._rng.sample(range(len(data) * 8), n_bits):
            rotted[position // 8] ^= 1 << (position % 8)
        backend.write_data(addr, bytes(rotted), backend.data_programs(addr))
        self.fault_log.append(("bit_rot", addr))

    def inject_misdirected_write(self, addr: int, donor: Optional[int] = None) -> None:
        """Overwrite ``addr`` with another programmed page's data + spare.

        ``donor`` defaults to a deterministic pick among the other
        programmed pages.  The victim ends up holding a page that is
        self-consistent but belongs somewhere else entirely.
        """
        backend = self.backend
        backend._check_addr(addr)
        if donor is None:
            candidates = [a for a in backend.iter_programmed() if a != addr]
            if not candidates:
                raise FaultInjectionError(
                    "no programmed page available to misdirect from"
                )
            donor = self._rng.choice(candidates)
        backend._check_addr(donor)
        data = backend.read_data(donor)
        spare = backend.read_spare(donor)
        if data is None or spare is None:
            raise FaultInjectionError(f"donor page {donor} is not fully programmed")
        if (data, spare) == backend.read_page(addr):
            raise FaultInjectionError(
                f"page {addr} already holds donor page {donor}'s images"
            )
        backend.write_data(addr, data, max(1, backend.data_programs(addr)))
        backend.write_spare(addr, spare, max(1, backend.spare_programs(addr)))
        self.fault_log.append(("misdirected_write", addr))

    def inject_torn_spare(self, addr: int, tear_at: Optional[int] = None) -> None:
        """Truncate a spare program: bytes past ``tear_at`` revert to 0xFF.

        The default tear point falls inside the meaningful header+checksum
        prefix (bytes 1..19), where a torn program actually loses
        information — tearing inside the padding would be a no-op.
        """
        backend = self.backend
        backend._check_addr(addr)
        spare = backend.read_spare(addr)
        if spare is None:
            raise FaultInjectionError(f"page {addr} has no programmed spare to tear")
        if tear_at is None:
            limit = min(len(spare), CHECKSUM_HEADER_SIZE)
            tear_at = self._rng.randrange(1, limit)
        if not 0 <= tear_at <= len(spare):
            raise FaultInjectionError(
                f"tear point {tear_at} outside spare of {len(spare)} bytes"
            )
        torn = spare[:tear_at] + b"\xff" * (len(spare) - tear_at)
        if torn == spare:
            raise FaultInjectionError(
                f"tearing page {addr}'s spare at byte {tear_at} loses nothing"
            )
        backend.write_spare(addr, torn, backend.spare_programs(addr))
        self.fault_log.append(("torn_spare", addr))


def _address_runs(addrs: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Split an address sequence into maximal contiguous (start, count) runs."""
    run_start: Optional[int] = None
    prev = -2
    count = 0
    for addr in addrs:
        if run_start is not None and addr == prev + 1:
            count += 1
        else:
            if run_start is not None:
                yield run_start, count
            run_start = addr
            count = 1
        prev = addr
    if run_start is not None:
        yield run_start, count


def _contiguous_runs(
    items: Sequence[Tuple[int, bytes, bytes]]
) -> Iterator[List[Tuple[int, bytes, bytes]]]:
    """Group (addr, data, spare) items into contiguous-address runs."""
    run: List[Tuple[int, bytes, bytes]] = []
    for item in items:
        if run and item[0] != run[-1][0] + 1:
            yield run
            run = []
        run.append(item)
    if run:
        yield run
