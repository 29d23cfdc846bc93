"""NAND flash chip emulator: policy over a pluggable device backend.

The chip enforces real NAND semantics (Section 2 of the paper):

* the read/write unit is a page, the erase unit is a block;
* an erased page reads as all bits 1 (``0xFF`` bytes);
* programming can only clear bits (1 → 0) — overwriting a programmed data
  area raises :class:`~repro.flash.errors.ProgramError`;
* the spare area may be re-programmed a limited number of times between
  erases (``FlashSpec.max_spare_programs``, 4 on the paper's chip), which
  is how pages are marked obsolete without an erase;
* log pages may be partially programmed in slots
  (``FlashSpec.max_log_page_programs``), the relaxation IPL's cost model
  requires (see docs/paper-map.md, "Substitutions").

The *bits* live in a :class:`~repro.flash.backend.DeviceBackend` (one
device model) whose page images are kept in memory by default
(:class:`~repro.flash.backend.MemoryBackend`) or in an image file
(:class:`~repro.flash.backend.FileBackend`) for state that survives the
process.  The chip keeps everything the paper's model adds on top:
Table-1 latencies and phase accounting, the monotonic clock, wear
limits, crash injection, and the NAND legality checks above.

A page read is one straight line: :meth:`FlashChip.read_page` makes
exactly **one** backend call (``backend.read_page`` → raw data + raw
spare) and keeps every check and charge — bounds, phase accounting,
clock, spare decode, per-read CRC — inline around it, paying a Python
call only for the ones that cannot be (docs/architecture.md, "Read
path").  Nothing sits between the chip and the device: every page read
charges its ``Tread``.  A page program (:meth:`FlashChip.program_page`,
and each page of :meth:`FlashChip.program_pages`) and an obsolete mark
(:meth:`FlashChip.mark_obsolete`) are straight lines too: the bounds
check, the still-erased or spare-budget check and the observer test are
inline, and a helper is entered only to raise or to pad a short payload
(docs/architecture.md, "Write path").

Batched entry points (:meth:`read_pages`, :meth:`read_spares`,
:meth:`read_data_areas`, :meth:`read_spare_records`,
:meth:`program_pages`) charge exactly the
same per-page latencies as N single calls — simulated cost is identical
by construction — but reach the backend in one call, which amortizes
syscalls on the file backend and per-call overhead in memory.  Crash
injection still fires *between* pages of a batch: the pages admitted
before the failure are persisted, so the post-crash state is a prefix of
completed operations exactly as with single-page calls.

Crash injection: the chip has one observer slot, called before every
*mutating* operation with the operation's name (``program_page``,
``program_partial``, ``program_spare``, ``mark_obsolete``,
``erase_block``).  :meth:`FlashChip.crash_after` fills it with a
countdown that raises :class:`SimulatedPowerLoss` before the k-th next
mutating operation; :meth:`FlashChip.on_operation` installs any other
observer, and one that raises — on the k-th erase, say — is a crash
filtered to that operation kind.  Page programming is atomic at the chip
level (Section 4.5), so the chip state a recovery algorithm sees is
always a prefix of completed operations.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .address import split_address
from .backend import DeviceBackend, MemoryBackend, ScanBuffer
from .errors import (
    AddressError,
    ChecksumError,
    EraseError,
    ProgramError,
    SimulatedPowerLoss,
    SpareProgramError,
    WearOutError,
)
from .spare import (
    SpareArea,
    data_checksum,
    decoded_spare,
    erased_spare,
    spare_records,
)
from .spec import FlashSpec
from .stats import FlashStats

#: Buffers at or above this size take the vectorized legality check;
#: below it, one big-int conversion is cheaper than numpy call overhead.
_VECTORIZE_THRESHOLD = 128

Buffer = Union[bytes, bytearray, memoryview]


def _bits_compatible(old: Buffer, new: Buffer) -> bool:
    """True when programming ``new`` over ``old`` only clears bits.

    NAND programming can move bits 1 → 0 only, i.e. ``old & new == new``
    bytewise.  Page-sized buffers are checked with a vectorized numpy
    bitwise test (no whole-page big-int materialization); small buffers
    (spare areas) keep the int path, which wins under numpy's per-call
    overhead.  Both paths accept any buffer-protocol object.
    """
    if len(old) < _VECTORIZE_THRESHOLD:
        old_int = int.from_bytes(old, "little")
        new_int = int.from_bytes(new, "little")
        return old_int & new_int == new_int
    a = np.frombuffer(old, dtype=np.uint8)
    b = np.frombuffer(new, dtype=np.uint8)
    return bool(((a & b) == b).all())


class FlashChip:
    """An emulated NAND flash chip.

    Parameters
    ----------
    spec:
        Chip geometry and latencies.  May be omitted when ``backend`` is
        given (the backend's spec is adopted).
    backend:
        Device backend holding the bits; defaults to a fresh
        :class:`MemoryBackend`, whose images live in this process.
    """

    def __init__(
        self,
        spec: Optional[FlashSpec] = None,
        *,
        backend: Optional[DeviceBackend] = None,
    ) -> None:
        if spec is None and backend is None:
            raise ValueError("FlashChip needs a spec or a backend")
        if backend is None:
            backend = MemoryBackend(spec)
        if spec is None:
            spec = backend.spec
        elif (
            spec.n_blocks,
            spec.pages_per_block,
            spec.page_data_size,
            spec.page_spare_size,
        ) != (
            backend.spec.n_blocks,
            backend.spec.pages_per_block,
            backend.spec.page_data_size,
            backend.spec.page_spare_size,
        ):
            raise ValueError(
                "spec geometry does not match the backend's image geometry"
            )
        self.spec = spec
        self._n_pages = spec.n_pages  # a computed property; checked per call
        self.backend = backend
        self.stats = FlashStats(
            spec.n_blocks, spec.t_read_us, spec.t_write_us, spec.t_erase_us
        )
        self._clock_us: float = 0.0
        self._on_op: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    # Fault / observation hooks
    # ------------------------------------------------------------------
    def crash_after(self, mutating_ops: Optional[int]) -> None:
        """Raise :class:`SimulatedPowerLoss` before the N-th next mutating op.

        ``crash_after(0)`` makes the very next program/erase fail; the
        crash fires once, and later operations pass.  The countdown is
        the chip's observer (see :meth:`on_operation`): arming it
        replaces any observer installed, and ``crash_after(None)``
        empties the slot.
        """
        if mutating_ops is None:
            self._on_op = None
            return
        if mutating_ops < 0:
            raise ValueError("crash_after needs a non-negative operation count")
        remaining = mutating_ops

        def countdown(op: str) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == -1:
                raise SimulatedPowerLoss(f"simulated power failure before {op}")

        self._on_op = countdown

    def on_operation(self, callback: Optional[Callable[[str], None]]) -> None:
        """Install a per-operation observer (used by failure-injection tests).

        The callback runs before the operation mutates chip state; an
        exception raised from it aborts the operation, which is how
        multi-chip harnesses inject a globally-ordered power loss.
        """
        self._on_op = callback

    def _pre_mutate(self, op: str) -> None:
        if self._on_op is not None:
            self._on_op(op)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def clock_us(self) -> float:
        """Simulated microseconds elapsed since chip creation.

        Unlike :class:`FlashStats`, the clock is never reset, so it can
        order events across warm-up boundaries.
        """
        return self._clock_us

    # ------------------------------------------------------------------
    # Read operations
    # ------------------------------------------------------------------
    def read_page(self, addr: int, verify: bool = True) -> Tuple[bytes, SpareArea]:
        """Read a page's data area and decoded spare area (one Tread,
        one backend call).

        When the spare area carries a data checksum it is verified
        against the data read back; a mismatch raises
        :class:`~repro.flash.errors.ChecksumError` (``verify=False``
        skips the check — fsck reads suspect pages this way to classify
        damage itself).

        The hot path of every driver: each check and charge below is
        inline.  ``_check_addr`` and ``_checksum_mismatch`` are entered
        only to report a failure, ``SpareArea.decode`` only for a spare
        its memo has not seen.
        """
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        self.stats.record_read()
        self._clock_us += self.spec.t_read_us
        data, raw_spare = self.backend.read_page(addr)
        if data is None:
            data = b"\xff" * self.spec.page_data_size
        if raw_spare is None:
            raw_spare = erased_spare(self.spec.page_spare_size)
        spare = decoded_spare(raw_spare) or SpareArea.decode(raw_spare)
        if verify:
            checksum = spare.checksum
            if checksum is not None:
                self.stats.checksum_checks += 1
                if zlib.crc32(data) != checksum:
                    self._checksum_mismatch(addr, data, checksum)
        return data, spare

    def read_spare(self, addr: int) -> SpareArea:
        """Read only the spare area (still one Tread, as in the paper's
        recovery-scan cost estimate of ~60 s for 1 GB)."""
        self._check_addr(addr)
        self.stats.record_read()
        self._clock_us += self.spec.t_read_us
        return self._decode_raw_spare(self.backend.read_spare(addr))

    def read_pages(
        self, addrs: Sequence[int], verify: bool = True
    ) -> List[Tuple[bytes, SpareArea]]:
        """Read many pages in one backend call (N × Tread, batched I/O).

        Charges and results are identical to N :meth:`read_page` calls.

        Checksums are verified per page; the whole batch is charged
        before the first :class:`~repro.flash.errors.ChecksumError`
        propagates (the device did the reads — verification failed
        after them).
        """
        n_pages = self._n_pages
        for addr in addrs:
            if not 0 <= addr < n_pages:
                self._check_addr(addr)
        self.stats.record_reads(len(addrs))
        self._clock_us += self.spec.t_read_us * len(addrs)
        erased = b"\xff" * self.spec.page_data_size
        erased_raw_spare = erased_spare(self.spec.page_spare_size)
        out: List[Tuple[bytes, SpareArea]] = []
        for addr, (raw_data, raw_spare) in zip(addrs, self.backend.read_pages(addrs)):
            data = raw_data if raw_data is not None else erased
            if raw_spare is None:
                raw_spare = erased_raw_spare
            spare = decoded_spare(raw_spare) or SpareArea.decode(raw_spare)
            if verify:
                self._verify_checksum(addr, data, spare)
            out.append((data, spare))
        return out

    def read_spares(self, addrs: Sequence[int]) -> List[SpareArea]:
        """Read many spare areas in one backend call (N × Tread).

        The recovery scan's hot path: on the file backend the spare
        region is contiguous, so scanning a whole chip's spare areas is
        a handful of sequential reads instead of one seek per page.

        As in :meth:`read_page`, the bounds check is inline
        (``_check_addr`` only raises) and a spare the decode memo has
        seen costs a dict lookup, not a call into ``SpareArea.decode``.
        """
        n_pages = self._n_pages
        for addr in addrs:
            if not 0 <= addr < n_pages:
                self._check_addr(addr)
        self.stats.record_reads(len(addrs))
        self._clock_us += self.spec.t_read_us * len(addrs)
        decode = SpareArea.decode
        erased = erased_spare(self.spec.page_spare_size)
        spares: List[SpareArea] = []
        for raw in self.backend.read_spares(addrs):
            if raw is None:
                raw = erased
            spares.append(decoded_spare(raw) or decode(raw))
        return spares

    def read_data_areas(self, addrs: Sequence[int]) -> ScanBuffer:
        """Read many pages' data areas in one backend call (N × Tread),
        back to back in one buffer (an erased page's as all-``0xFF``
        bytes), unverified.

        The recovery scan reads a chunk's differential pages this way: it
        already holds their spares (checksums included) from its spare
        scan, and walks the entries of every page in one pass over the
        buffer.
        """
        n_pages = self._n_pages
        for addr in addrs:
            if not 0 <= addr < n_pages:
                self._check_addr(addr)
        self.stats.record_reads(len(addrs))
        self._clock_us += self.spec.t_read_us * len(addrs)
        return self.backend.read_data_areas(addrs)

    def read_spare_records(self, addrs: range) -> np.ndarray:
        """Read a contiguous range of spare areas in one backend call
        (N × Tread), undecoded.

        Charges exactly what :meth:`read_spares` charges, but returns the
        raw spares as one :func:`~repro.flash.spare.spare_records` array
        (erased pages read as all-``0xFF`` spares) — the recovery scan
        triages a chunk of pages with array operations, no
        :class:`SpareArea` per page.  The backend hands the range over as
        one buffer (``read_spare_range``: one ``preadv`` on file).
        """
        if addrs.step != 1:
            raise ValueError(f"spare records are read over a contiguous range, not {addrs}")
        if addrs:
            self._check_addr(addrs[0])
            self._check_addr(addrs[-1])
        self.stats.record_reads(len(addrs))
        self._clock_us += self.spec.t_read_us * len(addrs)
        raw = self.backend.read_spare_range(addrs.start, addrs.stop)
        return spare_records(raw, self.spec.page_spare_size)

    # ------------------------------------------------------------------
    # Program operations
    # ------------------------------------------------------------------
    def program_page(self, addr: int, data: bytes, spare: SpareArea) -> None:
        """Program a full page (data + spare) in one Twrite.

        The data area must currently be erased: NAND forbids overwriting.
        Short ``data`` is padded with ``0xFF`` (unprogrammed bits).
        When the spare area has room, a CRC32 of the (padded) data area
        is stamped into it automatically unless the caller already
        supplied one — GC relocations pass the decoded spare through, so
        identical copies keep their original, still-valid checksum.  The
        CRC goes straight into the spare's one encode call; no copy of the
        :class:`SpareArea` is made.

        One straight line, as :meth:`read_page` is: the bounds check,
        the still-erased check and the observer test are inline;
        ``_check_addr`` and ``_validate_program`` are entered only to
        raise or to pad a short payload.
        """
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        spec = self.spec
        backend = self.backend
        if len(data) != spec.page_data_size or backend.data_programs(addr) != 0:
            data = self._validate_program(addr, data)
        raw_spare = spare.encode(
            spec.page_spare_size,
            data_checksum(data) if spare.checksum is None else None,
        )
        if self._on_op is not None:
            self._on_op("program_page")
        self.stats.record_write()
        self._clock_us += spec.t_write_us
        backend.program_page(addr, data, raw_spare)

    def program_pages(
        self, items: Sequence[Tuple[int, bytes, SpareArea]]
    ) -> None:
        """Program many full pages in one backend call (N × Twrite).

        Semantically identical to N :meth:`program_page` calls, crash
        injection included: each page passes the crash/observer hook
        individually, and if a :class:`SimulatedPowerLoss` (or a
        validation error) fires at page *i*, pages ``[0, i)`` are
        persisted before the exception propagates — the surviving flash
        state is the same prefix a sequence of single programs would
        have left.
        """
        spec = self.spec
        backend = self.backend
        n_pages = self._n_pages
        staged: List[Tuple[int, bytes, bytes]] = []
        staged_addrs = set()
        try:
            for addr, data, spare in items:
                if addr in staged_addrs:
                    raise ProgramError(
                        f"page {split_address(addr, spec)} programmed "
                        "twice in one batch"
                    )
                # Each page is checked as program_page checks it, inline.
                if not 0 <= addr < n_pages:
                    self._check_addr(addr)
                if len(data) != spec.page_data_size or backend.data_programs(addr) != 0:
                    data = self._validate_program(addr, data)
                raw_spare = spare.encode(
                    spec.page_spare_size,
                    data_checksum(data) if spare.checksum is None else None,
                )
                if self._on_op is not None:
                    self._on_op("program_page")
                self.stats.record_write()
                self._clock_us += spec.t_write_us
                staged.append((addr, data, raw_spare))
                staged_addrs.add(addr)
        finally:
            if staged:
                backend.program_pages(staged)

    def _validate_program(self, addr: int, data: Buffer) -> Buffer:
        """Validate and normalize a program payload without copying it.

        Full-size buffers pass through untouched (bytes, bytearray or
        memoryview — the backend makes the single owning copy where it
        needs one); short payloads are padded into one fresh buffer.
        """
        self._check_addr(addr)
        if len(data) > self.spec.page_data_size:
            raise ProgramError(
                f"data of {len(data)} bytes exceeds page data area "
                f"of {self.spec.page_data_size}"
            )
        if self.backend.data_programs(addr) != 0:
            raise ProgramError(
                f"page {split_address(addr, self.spec)} already programmed; "
                "erase the block before rewriting"
            )
        if len(data) < self.spec.page_data_size:
            padded = bytearray(data)
            padded += b"\xff" * (self.spec.page_data_size - len(padded))
            return padded
        return data

    def program_partial(
        self, addr: int, offset: int, data: bytes, spare: Optional[SpareArea] = None
    ) -> None:
        """Program a slice of a page's data area (one Twrite).

        Used for IPL log pages, which accumulate log slots across several
        partial programs.  The target byte range must still be erased and
        the page's partial-program budget must not be exhausted.  ``spare``
        is programmed alongside the first partial program only.

        No checksum is stamped here: the data area keeps changing across
        partial programs, so a CRC taken at the first one would be stale
        by the second.  Log pages are covered by their own record-level
        framing instead.
        """
        self._check_addr(addr)
        if offset < 0 or offset + len(data) > self.spec.page_data_size:
            raise ProgramError(
                f"partial program [{offset}, {offset + len(data)}) outside "
                f"data area of {self.spec.page_data_size} bytes"
            )
        current = self.backend.read_data(addr)
        if current is None:
            current = b"\xff" * self.spec.page_data_size
        region = current[offset : offset + len(data)]
        if region.count(0xFF) != len(region):
            raise ProgramError(
                f"partial program overlaps programmed bytes at "
                f"{split_address(addr, self.spec)}+{offset}"
            )
        data_programs = self.backend.data_programs(addr)
        if data_programs >= self.spec.max_log_page_programs:
            raise ProgramError(
                f"page {split_address(addr, self.spec)} exhausted its "
                f"{self.spec.max_log_page_programs} partial programs"
            )
        self._pre_mutate("program_partial")
        self.stats.record_write()
        self._clock_us += self.spec.t_write_us
        updated = bytearray(current)
        updated[offset : offset + len(data)] = data
        self.backend.write_data(addr, updated, data_programs + 1)
        if self.backend.spare_programs(addr) == 0:
            chosen = spare if spare is not None else SpareArea()
            self.backend.write_spare(
                addr, chosen.encode(self.spec.page_spare_size), 1
            )

    def program_spare(self, addr: int, spare: SpareArea) -> None:
        """Re-program only the spare area (one Twrite).

        This is how pages are marked obsolete.  The new contents must be
        bit-compatible with the current spare (1 → 0 only) and the spare
        program budget (4 on the paper's chip) must not be exceeded.

        A caller passing a spare without a checksum over a page whose
        spare already carries one would violate bit-compatibility (the
        all-ones "no checksum" slot cannot be restored); the existing
        checksum is preserved automatically in that case.
        """
        self._check_addr(addr)
        current = self.backend.read_spare(addr)
        kept = None
        if current is not None and spare.checksum is None:
            kept = SpareArea.decode(current).checksum
        encoded = spare.encode(self.spec.page_spare_size, kept)
        if current is not None and not _bits_compatible(current, encoded):
            raise SpareProgramError(
                f"spare reprogram at {split_address(addr, self.spec)} "
                "would set bits from 0 to 1"
            )
        spare_programs = self.backend.spare_programs(addr)
        if spare_programs >= self.spec.max_spare_programs:
            raise SpareProgramError(
                f"spare area at {split_address(addr, self.spec)} exhausted its "
                f"{self.spec.max_spare_programs} programs"
            )
        self._pre_mutate("program_spare")
        self.stats.record_write()
        self._clock_us += self.spec.t_write_us
        self.backend.write_spare(addr, encoded, spare_programs + 1)

    def mark_obsolete(self, addr: int) -> None:
        """Clear the obsolete flag byte in a page's spare area (one Twrite).

        This is the paper's "setting the page to obsolete": a second spare
        program that only clears bits, charged as a write operation (the
        paper counts OPU as *two* writes per update for exactly this
        reason).  Marking an erased page obsolete is rejected — it would
        hide an FTL bookkeeping bug.

        A straight line like :meth:`program_page`: ``_check_addr`` is
        entered only to raise, and the observer is tested inline.
        """
        if not 0 <= addr < self._n_pages:
            self._check_addr(addr)
        spec = self.spec
        backend = self.backend
        current = backend.read_spare(addr)
        if current is None:
            raise ProgramError(
                f"cannot obsolete erased page {split_address(addr, spec)}"
            )
        spare_programs = backend.spare_programs(addr)
        if spare_programs >= spec.max_spare_programs:
            raise SpareProgramError(
                f"spare area at {split_address(addr, spec)} exhausted its "
                f"{spec.max_spare_programs} programs"
            )
        if self._on_op is not None:
            self._on_op("mark_obsolete")
        self.stats.record_write()
        self._clock_us += spec.t_write_us
        patched = bytearray(current)
        patched[1] = 0x00
        backend.write_spare(addr, patched, spare_programs + 1)

    # ------------------------------------------------------------------
    # Erase
    # ------------------------------------------------------------------
    def erase_block(self, block: int) -> None:
        """Erase a block: every page returns to all bits 1 (one Terase)."""
        if not 0 <= block < self.spec.n_blocks:
            raise AddressError(f"block {block} outside chip of {self.spec.n_blocks}")
        if (
            self.spec.enforce_endurance
            and self.backend.erase_count(block) >= self.spec.erase_endurance
        ):
            raise WearOutError(
                f"block {block} exceeded endurance of {self.spec.erase_endurance}"
            )
        self._pre_mutate("erase_block")
        self.stats.record_erase(block)
        self._clock_us += self.spec.t_erase_us
        self.backend.erase_block(block)

    # ------------------------------------------------------------------
    # Cost-free inspection (tests, assertions, recovery verification)
    # ------------------------------------------------------------------
    def peek_data(self, addr: int) -> bytes:
        """Data area contents without charging I/O time (test/debug only)."""
        self._check_addr(addr)
        data = self.backend.read_data(addr)
        return data if data is not None else b"\xff" * self.spec.page_data_size

    def peek_spare(self, addr: int) -> SpareArea:
        """Decoded spare area without charging I/O time (test/debug only)."""
        self._check_addr(addr)
        return self._decode_raw_spare(self.backend.read_spare(addr))

    def is_page_erased(self, addr: int) -> bool:
        self._check_addr(addr)
        return (
            self.backend.data_programs(addr) == 0
            and self.backend.spare_programs(addr) == 0
        )

    def is_block_erased(self, block: int) -> bool:
        if not 0 <= block < self.spec.n_blocks:
            raise AddressError(f"block {block} outside chip of {self.spec.n_blocks}")
        return self.backend.is_block_erased(block)

    def erased_blocks(self) -> List[int]:
        """Every erased block, ascending — :meth:`is_block_erased` over the
        whole chip in one backend call."""
        return self.backend.erased_blocks()

    def erase_count(self, block: int) -> int:
        if not 0 <= block < self.spec.n_blocks:
            raise AddressError(f"block {block} outside chip of {self.spec.n_blocks}")
        return self.backend.erase_count(block)

    def iter_programmed_pages(self) -> Iterator[int]:
        """Flat addresses of all pages with a programmed spare area."""
        return self.backend.iter_programmed()

    # ------------------------------------------------------------------
    # Lifecycle (persistent backends)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Push backend state to durable media (no-op in memory)."""
        self.backend.sync()

    def close(self) -> None:
        """Sync and release the backend; the chip is unusable afterwards."""
        self.backend.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _verify_checksum(self, addr: int, data: bytes, spare: SpareArea) -> None:
        """Compare the data read back against the spare's stored CRC
        (the batched readers' form of what :meth:`read_page` does inline)."""
        checksum = spare.checksum
        if checksum is None:
            return
        self.stats.checksum_checks += 1
        if zlib.crc32(data) != checksum:
            self._checksum_mismatch(addr, data, checksum)

    def _checksum_mismatch(self, addr: int, data: bytes, checksum: int) -> None:
        """The raw CRC of ``data`` is not the stored one: a failure,
        unless the CRC is the reserved all-ones value, which
        :func:`~repro.flash.spare.data_checksum` stores as 0."""
        if data_checksum(data) == checksum:
            return
        self.stats.record_checksum_failure()
        raise ChecksumError(
            f"page {split_address(addr, self.spec)} data does not match "
            f"its spare-area checksum",
            addr,
        )

    def _decode_raw_spare(self, raw: Optional[bytes]) -> SpareArea:
        if raw is None:
            raw = erased_spare(self.spec.page_spare_size)
        return SpareArea.decode(raw)

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self._n_pages:
            raise AddressError(
                f"page address {addr} outside chip of {self._n_pages} pages"
            )
