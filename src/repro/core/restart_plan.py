"""The restart decision as values: what the mapping region holds
(:class:`RegionSurvey`) → what restart does about it (:class:`Fast` or
:class:`Fallback`).  :mod:`repro.core.restart` reads the one and carries
out the other; nothing here touches a chip, a store or a driver, so the
decision tree (``docs/recovery.md``, "Restart decision tree" — one enum
member per leaf) is tested from hand-written surveys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union


class Unread(enum.Enum):
    """A region page that yielded no value."""

    #: Never programmed: no snapshot was sealed there (a fresh device, or
    #: a crash mid-snapshot).
    ERASED = "erased"
    #: Programmed, but rotted or not what belongs there.  It may have
    #: been the newest — skipping it like an erased page would silently
    #: restart from an older table.
    UNREADABLE = "unreadable"


ERASED, UNREADABLE = Unread.ERASED, Unread.UNREADABLE


class Seal(NamedTuple):
    """A valid seal page (parity-checked: ``seq % 2`` is its half)."""

    seq: int
    n_data: int
    n_meta: int
    count: int
    meta_crc: int
    max_ts: int
    max_pid1: int


class Meta(NamedTuple):
    """The adopted snapshot's decoded, CRC-checked meta blob."""

    directory: Tuple[int, ...]
    active_blocks: Tuple[int, ...]
    vdct_rows: Tuple[Tuple[int, int], ...]
    bitmap: bytes


class PageKind(enum.Enum):
    RECORDS = "records"  #: CRC-valid record page written for its slot
    OVERFLOW = "overflow"  #: carries the overflow marker
    DAMAGED = "damaged"  #: torn, rotted or foreign; its epoch means nothing


Record = Tuple[int, int, int, int]


class JournalPage(NamedTuple):
    """One *programmed* journal page (erased slots are simply absent)."""

    index: int
    kind: PageKind
    epoch: int
    records: Tuple[Record, ...] = ()


@dataclass(frozen=True)
class RegionSurvey:
    """Everything restart read from the mapping region, as plain values."""

    seals: Tuple[Union[Seal, Unread], Union[Seal, Unread]]
    #: Meta of the newest seal; ``None`` when it was not read — nothing is
    #: sealed, or a seal is unreadable and the scan is already certain.
    meta: Union[Meta, Unread, None]
    #: Programmed journal pages in read order: the reserved overflow slot
    #: (index ``journal_pages - 1``) first, then ascending.
    journal: Tuple[JournalPage, ...]
    journal_pages: int
    #: Flash pages the survey charged (spare-only reads included).
    pages_read: int


def newest_seal(seals: Iterable[Union[Seal, Unread]]) -> Optional[Seal]:
    """The seal restart adopts; ``None`` is the implicit empty snapshot
    of epoch 0 (nothing sealed yet)."""
    return max((s for s in seals if isinstance(s, Seal)), default=None)


class FallbackReason(enum.Enum):
    """Why the journal cannot be trusted and the Figure-11 scan runs."""

    SEAL_UNREADABLE = "a seal page is programmed but holds no valid seal"
    META_UNREADABLE = "the adopted snapshot's meta pages fail their checks"
    JOURNAL_OVERFLOWED = "the journal overflowed at runtime and dropped its tail"
    JOURNAL_NEWER_THAN_SEAL = "a journal page is of a newer epoch than the adopted seal"
    VALID_PAGE_AFTER_DAMAGE = "a valid journal page follows a damaged or erased one"
    REPLAY_REJECTED = "replay or the tail scan hit an unreadable page or an unknown pid"


class RepairReason(enum.Enum):
    """Why a fast restart still ends with a fresh snapshot: the journal
    region holds pages the appender cannot continue after."""

    TORN_TAIL = "a torn or damaged page ends the journal's valid prefix"
    STALE_EPOCH_PAGES = "journal pages of an older epoch sit behind a newer seal"
    STALE_OVERFLOW_MARKER = "the overflow slot holds a stale or damaged marker"


@dataclass(frozen=True)
class Fast:
    """Adopt snapshot ``seq``, replay ``records`` (the journal's first
    ``prefix_pages`` pages), tail-scan; ``repair`` arms a fresh snapshot."""

    seq: int
    prefix_pages: int
    records: Tuple[Record, ...] = field(repr=False)  # the repr is the log line
    repair: Optional[RepairReason] = None


@dataclass(frozen=True)
class Fallback:
    """Rebuild by the Figure-11 scan, then seal repair snapshot
    ``repair_seq``."""

    reason: FallbackReason
    repair_seq: int


RestartPlan = Union[Fast, Fallback]


def repair_seq(survey: RegionSurvey) -> int:
    """Sequence number of the snapshot that repairs a fallback.

    It outranks every epoch readable anywhere, a journal page's as much
    as a seal's: a journal whose own seal is unreadable would otherwise
    share the repair's epoch and be replayed over it after a power loss
    between the repair seal and the journal erase.  And it has the parity
    of the half holding a damaged seal, so one repair leaves both halves
    sound.
    """
    epochs = [s.seq for s in survey.seals if isinstance(s, Seal)]
    epochs += [p.epoch for p in survey.journal if p.kind is not PageKind.DAMAGED]
    seq = max(epochs, default=0) + 1
    for half in (1, 0):
        if survey.seals[half] is UNREADABLE:
            return seq if seq % 2 == half else seq + 1
    return seq


def plan_restart(survey: RegionSurvey) -> RestartPlan:
    """The restart decision tree; pure, and total over surveys."""
    if UNREADABLE in survey.seals:
        return Fallback(FallbackReason.SEAL_UNREADABLE, repair_seq(survey))
    if survey.meta is UNREADABLE:
        return Fallback(FallbackReason.META_UNREADABLE, repair_seq(survey))
    newest = newest_seal(survey.seals)
    seq = newest.seq if newest is not None else 0
    repair: Optional[RepairReason] = None
    records: List[Record] = []
    prefix = 0
    damaged = False
    for page in survey.journal:
        if page.index == survey.journal_pages - 1:
            # Armed for this epoch — or a newer one, whose seal is
            # unreadable — the journal's tail was dropped at runtime.
            if page.kind is PageKind.OVERFLOW and page.epoch >= seq:
                return Fallback(FallbackReason.JOURNAL_OVERFLOWED, repair_seq(survey))
            repair = repair or RepairReason.STALE_OVERFLOW_MARKER
        elif page.kind is PageKind.RECORDS and page.epoch > seq:
            # The snapshot that epoch belongs to is unreadable.
            return Fallback(FallbackReason.JOURNAL_NEWER_THAN_SEAL, repair_seq(survey))
        elif page.kind is not PageKind.RECORDS:
            damaged = True
            repair = repair or RepairReason.TORN_TAIL
        elif page.epoch < seq:
            damaged = True
            repair = repair or RepairReason.STALE_EPOCH_PAGES
        elif damaged or page.index != prefix:
            # A pure power loss can only tear the append point, so a
            # valid page past damage (or past an erased slot) is rot.
            return Fallback(FallbackReason.VALID_PAGE_AFTER_DAMAGE, repair_seq(survey))
        else:
            records.extend(page.records)
            prefix += 1
    return Fast(seq, prefix, tuple(records), repair)
