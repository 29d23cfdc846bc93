"""Device backend: where a chip's bits actually live.

:class:`~repro.flash.chip.FlashChip` enforces NAND *policy* — erase
before program, spare-program budgets, latencies, crash injection — and
delegates the *bits* to a :class:`DeviceBackend`, the one implementation
of the device model: raw page images, raw spare areas, per-page program
counters and per-block erase counts, read and written one page or a
batch at a time.  Callers are trusted to have validated NAND legality.

"Erased" is a zero program counter, never content.  The counters live
in RAM in the image's own layout (a ``bytearray`` of u8 pairs per page,
u32 erase counts), and every read looks at them before it touches an
image, so an erase zeroes one slice of counters; the old images behind
it are unreachable, and a store may drop them.  Two stores differ only
in where the images live:

* :class:`MemoryBackend` — two lists of immutable ``bytes``, an erased
  page's slots pointing at one shared erased image; state dies with the
  process, which is fine for benchmarks and most tests;
* :class:`FileBackend` — a single-file image, so a database written by
  one process can be recovered by the next via the paper's Figure-11
  spare-area scan (Section 5's "from flash alone" claim needs durable
  media).  Its counters are read once at open and written through.

File image layout (little-endian, struct-packed)::

    [0:64]    header: magic "PDLFLSH1", version u16, n_blocks u32,
              pages_per_block u32, page_data_size u32, page_spare_size
              u32, reserved 0xFF padding
    [64:..]   erase counts    u32 × n_blocks
    [..:..]   page meta       (data_programs u8, spare_programs u8) × n_pages
    [..:..]   data region     page_data_size × n_pages
    [..:..]   spare region    page_spare_size × n_pages

The data region stays sparse (an erased page is never read or written)
and the spare region is one sequential run for the recovery scan.  The
file is opened unbuffered (a process that dies loses nothing it was told
was written) and ``sync()`` adds an ``fsync``.  All file I/O is
positional: a page read is at most two ``pread`` calls, a page program
three ``pwrite`` calls (data, spare, counters), a batch one per
contiguous run and region, a scan chunk's spares one ``preadv``.  A
short transfer is finished or reported, never ignored; use after
``close()`` raises ``ValueError``.
"""

from __future__ import annotations

import mmap
import os
import random
import struct
from typing import (
    Any, BinaryIO, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

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
#: The counters of a page just programmed whole.
_PROGRAMMED = b"\x01\x01"
#: An erase count, as the image stores it.
_ERASE_COUNT = struct.Struct("<I")

#: What the scan's bulk reads return: one buffer, raw bytes back to back.
ScanBuffer = Union[bytes, mmap.mmap]

#: A store container's index: one page address, or a run of them.
Key = Union[int, slice]
#: A page's raw ``(data, spare)``; ``None`` for an erased area.
Pair = Tuple[Optional[bytes], Optional[bytes]]


def _scratch(size: int) -> mmap.mmap:
    """A zero-filled ``size``-byte anonymous map: a scan chunk's buffer
    (hundreds of KiB) goes back to the OS the moment it is dropped, where
    a heap block would stay resident, in pieces."""
    return mmap.mmap(-1, size)


#: Spares a :class:`MemoryBackend` range read joins at a time.
_JOIN_PAGES = 256

#: The scan's data read joins two pages into one ``pread`` when at most
#: this many bytes lie between them (cheaper than a second syscall), and
#: reads at most ``_MAX_READ`` bytes at once (a read is held while sliced).
_COALESCE_GAP = 16 * 1024
_MAX_READ = 64 * 1024


def _geometry(spec: FlashSpec) -> Tuple[int, int, int, int]:
    """The geometry an image header stores, in ``FlashSpec`` field order."""
    return spec.n_blocks, spec.pages_per_block, spec.page_data_size, spec.page_spare_size


class BackendError(RuntimeError):
    """Raised when a backend image is missing, corrupt, or mismatched."""


class DeviceBackend:
    """The device model behind a :class:`~repro.flash.chip.FlashChip`.

    Addresses are flat page addresses in ``[0, spec.n_pages)``, payloads
    raw data-area and spare-area images; ``None`` means erased.

    A store subclass decides only where the bytes live: it runs
    ``DeviceBackend.__init__`` and may replace the four containers this
    class reads and writes with list syntax — by an address, or by a
    ``slice`` over a run of addresses with a list of images:

    * ``_data`` / ``_spare`` — the page images (an erased page's may be
      anything: the counters are the truth);
    * ``_meta`` — a (data_programs, spare_programs) u8 pair per page;
    * ``_erase_counts`` — a little-endian u32 erase count per block.

    A store also copies images into a scan buffer: ``_fill_data(image,
    pages, programmed)`` and ``_fill_spares(image, start)``; and is told
    of an erase, ``_release_block(block)``, once the block's counters are
    zero — where it may drop what its pages held.
    """

    _data: Any
    _spare: Any
    _fill_data: Callable[[mmap.mmap, np.ndarray, np.ndarray], None]
    _fill_spares: Callable[[mmap.mmap, int], None]
    _release_block: Callable[[int], None]

    def __init__(self, spec: FlashSpec) -> None:
        self.spec = spec
        #: ``spec.n_pages`` (a computed property), held once: every call checks it.
        self._n_pages = spec.n_pages
        # The counters in the image's layout, all zero: every page erased.
        self._meta = bytearray(_META_SIZE * spec.n_pages)
        self._erase_counts = bytearray(_ERASE_COUNT.size * spec.n_blocks)

    # -- Reads ---------------------------------------------------------
    def read_page(self, addr: int) -> Pair:
        """Raw ``(data, spare)`` of one page in one call — what a chip
        page read costs; the single-page form of :meth:`read_pages`."""
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        meta, at = self._meta, _META_SIZE * addr
        return (
            self._data[addr] if meta[at] else None,
            self._spare[addr] if meta[at + 1] else None,
        )

    def read_data(self, addr: int) -> Optional[bytes]:
        """Raw data-area image, or ``None`` when erased."""
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        return self._data[addr] if self._meta[_META_SIZE * addr] else None

    def read_spare(self, addr: int) -> Optional[bytes]:
        """Raw spare-area image, or ``None`` when erased."""
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        return self._spare[addr] if self._meta[_META_SIZE * addr + 1] else None

    def read_pages(self, addrs: Sequence[int]) -> List[Pair]:
        """Raw ``(data, spare)`` pairs for many pages in one call: one
        store read per contiguous run of addresses and region."""
        runs = self._checked_runs(addrs)
        data = self._read_runs(runs, 0, self._data)
        return list(zip(data, self._read_runs(runs, 1, self._spare)))

    def read_spares(self, addrs: Sequence[int]) -> List[Optional[bytes]]:
        """Raw spare areas for many pages in one call (recovery scans)."""
        return self._read_runs(self._checked_runs(addrs), 1, self._spare)

    def read_data_areas(self, addrs: Sequence[int]) -> ScanBuffer:
        """The raw data areas of many pages back to back in one buffer,
        an erased page's as all-``0xFF`` bytes: the Figure-11 scan's read
        of a chunk's differential pages, whose spares it already holds."""
        pages = np.asarray(addrs, dtype=np.int64).reshape(-1)
        outside = ((pages < 0) | (pages >= self._n_pages)).nonzero()[0]
        if outside.size:
            self._check_addr(int(pages[outside[0]]))
        if not pages.size:
            return b""
        size = self.spec.page_data_size
        image = _scratch(size * len(pages))
        programmed = np.frombuffer(self._meta, np.uint8)[_META_SIZE * pages] != 0
        np.frombuffer(image, np.uint8).reshape(-1, size)[~programmed] = 0xFF
        self._fill_data(image, pages, programmed)
        return image

    def read_spare_range(self, start: int, stop: int) -> ScanBuffer:
        """The raw spare areas of pages ``start`` to ``stop - 1`` back to
        back in one buffer, an erased page's as all-``0xFF`` bytes: the
        Figure-11 scan's read of a chunk of spares."""
        if start >= stop:
            return b""
        self._check_addr(start)
        self._check_addr(stop - 1)
        size = self.spec.page_spare_size
        image = _scratch(size * (stop - start))
        self._fill_spares(image, start)
        # The store keeps whatever an erased page's spare held before its
        # erase: the counters say which pages read 0xFF.
        spare_programs = np.frombuffer(self._meta, np.uint8)[_META_SIZE * start + 1 :: 2]
        np.frombuffer(image, np.uint8).reshape(-1, size)[spare_programs[: stop - start] == 0] = 0xFF
        return image

    # -- Writes --------------------------------------------------------
    # Payloads may be any buffer; ``bytes()`` makes the store's one owned
    # copy (and returns a ``bytes`` argument itself).
    def program_page(self, addr: int, data: bytes, spare: bytes) -> None:
        """Store a full page (data + spare); program counters become 1/1."""
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        self._data[addr] = bytes(data)
        self._spare[addr] = bytes(spare)
        self._meta[_META_SIZE * addr : _META_SIZE * (addr + 1)] = _PROGRAMMED

    def program_pages(self, items: Sequence[Tuple[int, bytes, bytes]]) -> None:
        """Store many full pages — ``(addr, data, spare)`` — in one call:
        every address is checked, then one store write goes out per
        contiguous run of addresses (flushes, GC relocations and bulk
        loads almost always form one) and region."""
        at = 0
        for start, count in self._checked_runs([addr for addr, _data, _spare in items]):
            run, stop = items[at : at + count], start + count
            at += count
            self._data[start:stop] = [bytes(data) for _addr, data, _spare in run]
            self._spare[start:stop] = [bytes(spare) for _addr, _data, spare in run]
            self._meta[_META_SIZE * start : _META_SIZE * stop] = _PROGRAMMED * count

    def write_data(self, addr: int, data: bytes, programs: int) -> None:
        """Store an updated data-area image (partial-program result) and
        the new data-program count."""
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        self._data[addr] = bytes(data)
        self._meta[_META_SIZE * addr] = programs

    def write_spare(self, addr: int, spare: bytes, programs: int) -> None:
        """Store a re-programmed spare area and the new spare-program
        count (obsolete marks travel through here)."""
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        self._spare[addr] = bytes(spare)
        self._meta[_META_SIZE * addr + 1] = programs

    def erase_block(self, block: int) -> None:
        """Reset every page of the block to erased (zero its counters)
        and bump the block's erase count."""
        count = self.erase_count(block) + 1
        span = _META_SIZE * self.spec.pages_per_block
        self._meta[span * block : span * (block + 1)] = bytes(span)
        at = _ERASE_COUNT.size * block
        self._erase_counts[at : at + _ERASE_COUNT.size] = _ERASE_COUNT.pack(count)
        self._release_block(block)

    # -- Counters and enumeration --------------------------------------
    def data_programs(self, addr: int) -> int:
        """Programs applied to the data area since the last erase."""
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        return self._meta[_META_SIZE * addr]

    def spare_programs(self, addr: int) -> int:
        """Programs applied to the spare area since the last erase."""
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        return self._meta[_META_SIZE * addr + 1]

    def erase_count(self, block: int) -> int:
        """Lifetime erase count of the block (wear)."""
        self._check_block(block)
        count: int = _ERASE_COUNT.unpack_from(self._erase_counts, _ERASE_COUNT.size * block)[0]
        return count

    def is_block_erased(self, block: int) -> bool:
        """True when no page of the block has been programmed."""
        self._check_block(block)
        span = _META_SIZE * self.spec.pages_per_block
        return not any(self._meta[span * block : span * (block + 1)])

    def erased_blocks(self) -> List[int]:
        """Every block :meth:`is_block_erased` holds true of, ascending,
        in one call (the allocator's rebuild after a restart)."""
        meta = np.frombuffer(self._meta, np.uint8).reshape(self.spec.n_blocks, -1)
        erased: List[int] = (~meta.any(axis=1)).nonzero()[0].tolist()
        return erased

    def iter_programmed(self) -> Iterator[int]:
        """Flat addresses of all pages with a programmed spare area."""
        spares = np.frombuffer(self._meta, np.uint8)[1::_META_SIZE]
        programmed: List[int] = spares.nonzero()[0].tolist()
        return iter(programmed)

    # -- Lifecycle -----------------------------------------------------
    def sync(self) -> None:
        """Force written state to durable media (no-op in memory)."""

    def close(self) -> None:
        """Release resources; the backend must not be used afterwards."""

    # -- Validation ----------------------------------------------------
    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self._n_pages:
            raise AddressError(f"page address {addr} outside chip of {self._n_pages} pages")

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.spec.n_blocks:
            raise AddressError(f"block {block} outside chip of {self.spec.n_blocks}")

    def _read_runs(self, runs: List[Tuple[int, int]], area: int, images: Any) -> List[Any]:
        """The ``images`` (data or spare, ``area`` 0 or 1) of the pages of
        ``runs``, ``None`` where erased, read one run at a time."""
        meta = self._meta
        out: List[Optional[bytes]] = []
        for start, count in runs:
            counters = meta[_META_SIZE * start + area : _META_SIZE * (start + count) : _META_SIZE]
            run = images[start : start + count]
            out += [image if programs else None for programs, image in zip(counters, run)]
        return out

    def _checked_runs(self, addrs: Iterable[int]) -> List[Tuple[int, int]]:
        """:func:`_address_runs` of ``addrs``, every run checked first."""
        runs = _address_runs(addrs)
        for start, count in runs:
            if start < 0 or start + count > self._n_pages:
                self._check_addr(start if start < 0 else start + count - 1)
        return runs


class MemoryBackend(DeviceBackend):
    """The volatile store: the images in two lists of immutable ``bytes``."""

    def __init__(self, spec: FlashSpec) -> None:
        super().__init__(spec)
        # A never-programmed or erased slot holds the one shared erased
        # image, so a range of spares joins without a case for it.
        data, spare = b"\xff" * spec.page_data_size, erased_spare(spec.page_spare_size)
        self._data = [data] * spec.n_pages
        self._spare = [spare] * spec.n_pages
        #: One block's slots, erased: what an erase puts back.
        self._erased_block = ([data] * spec.pages_per_block, [spare] * spec.pages_per_block)

    def _release_block(self, block: int) -> None:
        # Back to the shared erased images: an erased block pins no old page.
        start = self.spec.pages_per_block * block
        stop = start + self.spec.pages_per_block
        self._data[start:stop], self._spare[start:stop] = self._erased_block

    def _fill_data(self, image: mmap.mmap, pages: np.ndarray, programmed: np.ndarray) -> None:
        size = self.spec.page_data_size
        slots = programmed.nonzero()[0]
        images = map(self._data.__getitem__, pages[slots].tolist())
        for at, raw in zip((slots * size).tolist(), images):
            image[at : at + size] = raw

    def _fill_spares(self, image: mmap.mmap, start: int) -> None:
        # A slice at a time: one join would take a heap block as large as the image.
        stop = start + len(image) // self.spec.page_spare_size
        for at in range(start, stop, _JOIN_PAGES):
            image.write(b"".join(self._spare[at : min(at + _JOIN_PAGES, stop)]))


class _Region:
    """A region of an image file (the data areas, the spare areas, a run
    of counters) indexed like a list of ``size``-byte items, read and
    written with one positional syscall per access.  The descriptor is
    asked of the file object every time, never remembered: ``fileno()``
    raises ``ValueError`` once the file is closed, where a remembered
    number may by then be another file's."""

    def __init__(self, file: BinaryIO, path: str, offset: int, size: int) -> None:
        self.file, self.path, self.offset, self.size = file, path, offset, size

    def __getitem__(self, key: Key) -> Any:
        """Item ``key`` in one ``pread``, or the items of a slice in one."""
        if isinstance(key, slice):
            raw, size = self.span(key.start, key.stop), self.size
            return [raw[at : at + size] for at in range(0, len(raw), size)]
        offset = self.offset + self.size * key
        raw = os.pread(self.file.fileno(), self.size, offset)
        if len(raw) != self.size:
            raise self._short_read(offset, self.size, len(raw))
        return raw

    def span(self, start: int, stop: int) -> bytes:
        """Items ``start`` to ``stop - 1`` back to back, in one ``pread``."""
        offset, wanted = self.offset + self.size * start, self.size * (stop - start)
        raw = os.pread(self.file.fileno(), wanted, offset)
        if len(raw) != wanted:
            raise self._short_read(offset, wanted, len(raw))
        return raw

    def read_into(self, start: int, buffer: mmap.mmap) -> None:
        """Fill ``buffer`` with the items from ``start`` on, in one ``preadv``."""
        offset = self.offset + self.size * start
        got = os.preadv(self.file.fileno(), [buffer], offset)
        if got != len(buffer):
            raise self._short_read(offset, len(buffer), got)

    def __setitem__(self, key: Key, value: Any) -> None:
        """Write ``value`` from item ``key`` on (a slice's list of items
        joined) in one ``pwrite``.  A short write is finished, or what is
        missing is reported: a page half on disk must never pass for a
        program."""
        if isinstance(key, slice):
            key, value = key.start, b"".join(value)
        offset = self.offset + self.size * key
        written = os.pwrite(self.file.fileno(), value, offset)
        while written < len(value):
            step = os.pwrite(self.file.fileno(), memoryview(value)[written:], offset + written)
            if step <= 0:
                raise BackendError(
                    f"short write at {offset} in {self.path!r}: "
                    f"wanted {len(value)}, wrote {written}"
                )
            written += step

    def _short_read(self, offset: int, wanted: int, got: int) -> BackendError:
        return BackendError(f"short read at {offset} in {self.path!r}: wanted {wanted}, got {got}")


class _WrittenThrough(bytearray):
    """Counters in RAM whose every assignment is also written to their
    ``region`` of the image file (one-byte items): the disk copy is
    always current, and a lookup costs no I/O."""

    def __init__(self, initial: bytes, region: _Region) -> None:
        super().__init__(initial)
        self.region = region

    def __setitem__(self, key: Any, value: Any) -> None:
        bytearray.__setitem__(self, key, value)
        start, stop = (key.start, key.stop) if isinstance(key, slice) else (key, key + 1)
        self.region[start] = self[start:stop]


class FileBackend(DeviceBackend):
    """A persistent chip image in a single on-disk file.

    Construct with :meth:`create` (new image; fails when the file
    exists) or :meth:`open` (existing image; validates the header).  The
    bare constructor opens-or-creates, which is what
    :meth:`repro.storage.db.Database.open` wants.

    The data and spare regions are :class:`_Region` views of the file;
    the counters are read from disk once, at open, and written through.
    """

    def __init__(self, path: "str | os.PathLike[str]", spec: Optional[FlashSpec] = None) -> None:
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
                raise BackendError(f"no image at {self.path!r} and no spec to create one")
            self._create_new(spec)

    # -- Explicit constructors -----------------------------------------
    @classmethod
    def create(cls, path: "str | os.PathLike", spec: FlashSpec) -> "FileBackend":
        if os.path.exists(os.fspath(path)):
            raise BackendError(f"image {os.fspath(path)!r} already exists")
        return cls(path, spec)

    @classmethod
    def open(cls, path: "str | os.PathLike", spec: Optional[FlashSpec] = None) -> "FileBackend":
        if not os.path.exists(os.fspath(path)):
            raise BackendError(f"no image at {os.fspath(path)!r}")
        return cls(path, spec)

    # -- Image creation / opening --------------------------------------
    def _layout(self, spec: FlashSpec) -> None:
        """Place ``spec``'s regions in the image and load its counters."""
        DeviceBackend.__init__(self, spec)
        file, path = self._file, self.path
        self._erase_off = HEADER_SIZE
        self._meta_off = self._erase_off + len(self._erase_counts)
        self._data_off = self._meta_off + len(self._meta)
        self._spare_off = self._data_off + spec.page_data_size * spec.n_pages
        self._size = self._spare_off + spec.page_spare_size * spec.n_pages
        self._data = _Region(file, path, self._data_off, spec.page_data_size)
        self._spare = _Region(file, path, self._spare_off, spec.page_spare_size)
        counters = _Region(file, path, self._erase_off, 1).span(0, self._data_off - HEADER_SIZE)
        split = len(self._erase_counts)
        self._erase_counts = _WrittenThrough(counters[:split], _Region(file, path, HEADER_SIZE, 1))
        self._meta = _WrittenThrough(counters[split:], _Region(file, path, self._meta_off, 1))

    def _create_new(self, spec: FlashSpec) -> None:
        # O_EXCL-free create: callers wanting exclusivity use create().
        self._file = open(self.path, "w+b", buffering=0)
        try:
            head = _HEADER.pack(MAGIC, FORMAT_VERSION, *_geometry(spec)).ljust(HEADER_SIZE, b"\xff")
            # Zero counters: all erased.  Truncation leaves the rest sparse.
            counters = bytes(_ERASE_COUNT.size * spec.n_blocks + _META_SIZE * spec.n_pages)
            _Region(self._file, self.path, 0, 1)[0] = head + counters
            self._layout(spec)
            self._file.truncate(self._size)
        except BaseException:
            self._file.close()  # a half-written image must not leak its handle
            raise

    def _open_existing(self, spec: Optional[FlashSpec]) -> None:
        raw = os.pread(self._file.fileno(), HEADER_SIZE, 0)
        if len(raw) < _HEADER.size:
            raise BackendError(f"image {self.path!r} too short for a header")
        fields = _HEADER.unpack_from(raw, 0)
        magic, version, stored = fields[0], fields[1], fields[2:]
        if magic != MAGIC:
            raise BackendError(f"image {self.path!r} has bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise BackendError(f"image {self.path!r} has format v{version}, not v{FORMAT_VERSION}")
        if spec is None:
            # Geometry comes from the image; timings use spec defaults.
            spec = FlashSpec(*stored)
        elif _geometry(spec) != stored:
            raise BackendError(
                f"image {self.path!r} geometry {stored} does not match "
                f"requested spec geometry {_geometry(spec)}"
            )
        self._layout(spec)

    # -- The scan's bulk reads -----------------------------------------
    def _fill_spares(self, image: mmap.mmap, start: int) -> None:
        self._spare.read_into(start, image)

    def _release_block(self, block: int) -> None:
        """An erase writes nothing to the data or spare region: the
        counters, written through, already say the pages are erased."""

    def _fill_data(self, image: mmap.mmap, pages: np.ndarray, programmed: np.ndarray) -> None:
        size = self.spec.page_data_size
        for slots, offsets, first, stop in self._runs(pages, programmed, size):
            raw = memoryview(self._data.span(first, stop))
            for slot, at in zip(slots, offsets):
                image[size * slot : size * (slot + 1)] = raw[at : at + size]

    @staticmethod
    def _runs(pages: np.ndarray, programmed: np.ndarray, size: int) -> List[Tuple[Any, ...]]:
        """How :meth:`_fill_data` reads the data region: the ``pages``
        that are ``programmed``, in address order, cut into runs of one
        ``pread`` each.  Pages at most ``_COALESCE_GAP`` bytes apart
        share a run, and no run reads more than ``_MAX_READ`` bytes.  A
        run is (the slots of its pages in ``pages``, their offsets in the
        read, its first page, the page after its last).  (Array methods
        and ufuncs only: numpy's Python-level helpers would cost calls.)"""
        slots = programmed.nonzero()[0]
        if not slots.size:
            return []
        wanted = pages[slots]
        if np.logical_or.reduce(wanted[:-1] > wanted[1:]):
            order = sorted(range(len(wanted)), key=wanted.tolist().__getitem__)
            slots, wanted = slots[order], wanted[order]
        window = wanted // max(1, _MAX_READ // size)
        gaps = (wanted[1:] - wanted[:-1] - 1) * size
        cuts = (gaps > _COALESCE_GAP) | (window[1:] != window[:-1])
        bounds = [0, *(cuts.nonzero()[0] + 1).tolist(), len(wanted)]
        runs = []
        for lo, hi in zip(bounds, bounds[1:]):
            run = wanted[lo:hi]
            first = int(run[0])
            offsets = ((run - first) * size).tolist()
            runs.append((slots[lo:hi].tolist(), offsets, first, int(run[-1]) + 1))
        return runs

    # -- Lifecycle -----------------------------------------------------
    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._file.closed:
            try:
                self.sync()
            finally:
                self._file.close()  # even when the fsync fails


#: The entry points the frozen e2e tracer (``benchmarks/e2e/trace.py``,
#: ``_backend``) patches in each store's own class namespace, bound there
#: from :class:`DeviceBackend` until ROADMAP item "Un-red the harness",
#: step (e), re-points ``_backend`` at it; that change deletes this loop.
_TRACED = ("read_data", "read_spare", "read_pages", "read_spares", "erase_block",
           "program_page", "program_pages", "write_data", "write_spare")
for _store in (MemoryBackend, FileBackend):
    for _name in _TRACED:
        setattr(_store, _name, vars(DeviceBackend)[_name])


#: Fault kinds :class:`FaultInjector` can inject, in dispatch order.
FAULT_KINDS = ("bit_rot", "misdirected_write", "torn_spare")


class FaultInjectionError(RuntimeError):
    """An injection request targets a page that cannot host the fault
    (e.g. bit-rotting an erased page, which has no stored bits)."""


class FaultInjector:
    """Corrupts a backend's stored pages on demand.

    Models the single-page failure classes of Graefe & Kuno.  It is a
    test tool, not a device layer: an injection rewrites the stored
    images of the backend the chip keeps talking to, in place:

    * **bit rot** — flip bits inside a programmed data area;
    * **misdirected write** — replace a page's data *and* spare with
      another page's images, as if the donor's program pulse landed on
      the wrong word line (the result is internally consistent — its
      checksum still matches — so detection needs the mapping layer);
    * **torn spare program** — a spare program that stopped partway:
      bytes past the tear point revert to erased ``0xFF``.

    Injections bypass NAND legality on purpose and never touch a counter
    — the device believes the page is healthily programmed, which is
    what makes the damage silent until a read verifies it.  An injection
    that would change nothing raises :class:`FaultInjectionError` and is
    not logged.  All randomness comes from one :class:`random.Random`
    seeded at construction, so a fault sequence is reproducible.
    """

    def __init__(self, backend: DeviceBackend, seed: int = 0) -> None:
        self.backend = backend
        self._rng = random.Random(seed)
        #: (kind, addr) in injection order, for test assertions.
        self.fault_log: List[Tuple[str, int]] = []

    def inject(self, kind: str, addr: int, **kwargs: object) -> None:
        """Inject one fault of ``kind`` at page ``addr``."""
        if kind not in FAULT_KINDS:
            raise FaultInjectionError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
        getattr(self, f"inject_{kind}")(addr, **kwargs)

    def inject_bit_rot(self, addr: int, n_bits: int = 1) -> None:
        """Flip ``n_bits`` distinct bits in a programmed data area."""
        backend = self.backend
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
        """Overwrite ``addr`` with another programmed page's data + spare
        (``donor``, or a seeded pick): a self-consistent page that belongs
        somewhere else entirely."""
        backend = self.backend
        backend._check_addr(addr)
        if donor is None:
            candidates = [a for a in backend.iter_programmed() if a != addr]
            if not candidates:
                raise FaultInjectionError("no programmed page available to misdirect from")
            donor = self._rng.choice(candidates)
        data = backend.read_data(donor)
        spare = backend.read_spare(donor)
        if data is None or spare is None:
            raise FaultInjectionError(f"donor page {donor} is not fully programmed")
        if (data, spare) == backend.read_page(addr):
            raise FaultInjectionError(f"page {addr} already holds donor page {donor}'s images")
        backend.write_data(addr, data, max(1, backend.data_programs(addr)))
        backend.write_spare(addr, spare, max(1, backend.spare_programs(addr)))
        self.fault_log.append(("misdirected_write", addr))

    def inject_torn_spare(self, addr: int, tear_at: Optional[int] = None) -> None:
        """Truncate a spare program: bytes past ``tear_at`` revert to 0xFF.
        The default tear point falls inside the header+checksum prefix
        (bytes 1..19), where a torn program actually loses information."""
        backend = self.backend
        spare = backend.read_spare(addr)
        if spare is None:
            raise FaultInjectionError(f"page {addr} has no programmed spare to tear")
        if tear_at is None:
            limit = min(len(spare), CHECKSUM_HEADER_SIZE)
            tear_at = self._rng.randrange(1, limit)
        if not 0 <= tear_at <= len(spare):
            raise FaultInjectionError(f"tear point {tear_at} outside spare of {len(spare)} bytes")
        torn = spare[:tear_at] + b"\xff" * (len(spare) - tear_at)
        if torn == spare:
            raise FaultInjectionError(
                f"tearing page {addr}'s spare at byte {tear_at} loses nothing"
            )
        backend.write_spare(addr, torn, backend.spare_programs(addr))
        self.fault_log.append(("torn_spare", addr))


def _address_runs(addrs: Iterable[int]) -> List[Tuple[int, int]]:
    """Split an address sequence into maximal contiguous (start, count) runs."""
    runs: List[Tuple[int, int]] = []
    start, count = 0, 0
    for addr in addrs:
        if count and addr == start + count:
            count += 1
            continue
        if count:
            runs.append((start, count))
        start, count = addr, 1
    if count:
        runs.append((start, count))
    return runs
