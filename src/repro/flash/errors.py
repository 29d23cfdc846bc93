"""Exception hierarchy for the NAND flash emulator.

Every error raised by :mod:`repro.flash` derives from :class:`FlashError`,
so callers (drivers, the GC engine, tests) can catch emulator failures
without accidentally swallowing unrelated bugs.  Crash injection raises
one of them, :class:`SimulatedPowerLoss`.
"""

from __future__ import annotations

from typing import Optional


class FlashError(Exception):
    """Base class for all flash emulator errors."""


class AddressError(FlashError):
    """A block or page address is outside the chip geometry."""


class ProgramError(FlashError):
    """An illegal program (write) operation.

    NAND flash can only change bits from 1 to 0; programming a page whose
    current contents are incompatible with the requested data, or exceeding
    the per-page partial-program budget, raises this error.
    """


class EraseError(FlashError):
    """An illegal erase operation (e.g. erasing a bad block)."""


class WearOutError(FlashError):
    """A block exceeded its erase endurance limit.

    The emulator only raises this when ``FlashSpec.enforce_endurance`` is
    set; by default wear is merely counted, mirroring the paper, which
    reports erase counts (Experiment 6) but does not fail blocks.
    """


class SimulatedPowerLoss(FlashError):
    """A simulated power failure, raised before a mutating operation.

    :meth:`~repro.flash.chip.FlashChip.crash_after` raises it, and so do
    test observers installed with
    :meth:`~repro.flash.chip.FlashChip.on_operation`.  The chip
    guarantees operation atomicity (page programming is atomic at the
    chip level, as the paper notes in Section 4.5), so a crash occurs
    *between* operations: the in-flight operation either fully completed
    or never happened.
    """


class SpareProgramError(ProgramError):
    """The spare area of a page was programmed more times than allowed."""


class ChecksumError(FlashError):
    """A page's data area does not match the CRC32 in its spare area.

    Raised by the chip's read paths when a stored checksum disagrees
    with the data read back — the single-page failure class of Graefe &
    Kuno: bit rot, a misdirected write, or a torn program.  The page is
    still physically readable; ``fsck`` decides whether it can be
    repaired from a surviving copy or differential chain.

    ``addr`` is the flat address of the page that failed, when the chip
    raised it: a batched read names the culprit among its pages.
    """

    def __init__(self, message: str, addr: Optional[int] = None) -> None:
        super().__init__(message)
        self.addr = addr


class WrongPageError(ChecksumError):
    """A page read back intact is not the page its reference expects.

    A checksum proves that a page is whole, not that it is the right
    one: a misdirected write leaves another page's images, checksum
    included, where this page should be, and a lost one leaves an older
    version of it.  Graefe & Kuno's remedy is that the reference to a
    page carries what the page must say and the read compares the two;
    a PDL mapping row carries the ``(pid, timestamp)`` of its base page
    and of its differential entry.  A :class:`ChecksumError`, so that
    one ``except`` catches both kinds of single-page failure; ``addr``
    is the flat address of the page that was read.
    """
