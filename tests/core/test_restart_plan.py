"""The restart decision tree, branch for branch, from hand-written surveys.

No chip, store or driver.  The end-to-end matrices (``tests/core/
test_restart.py``, ``tests/integration/test_fault_matrix.py``) check that
executing a plan converges to the scan oracle; this table checks which
plan is chosen, including the leaves no crash or injected fault reaches.
"""

import pytest

from repro.core.restart_plan import (
    ERASED,
    UNREADABLE,
    Fallback,
    FallbackReason,
    Fast,
    JournalPage,
    Meta,
    PageKind,
    RegionSurvey,
    RepairReason,
    Seal,
    plan_restart,
)

J = 8  # journal pages; slot J - 1 is reserved for the overflow marker
R = ((1, 5, 40, 9),)  # one page's records
META = Meta((0,), (3,), (), b"\x00")


def seal(seq):
    return Seal(seq, 1, 1, 10, 0, 99, 10)


def rec(index, epoch):
    return JournalPage(index, PageKind.RECORDS, epoch, R)


def bad(index):
    return JournalPage(index, PageKind.DAMAGED, -1)


def ovf(epoch):
    return JournalPage(J - 1, PageKind.OVERFLOW, epoch)


F, P = FallbackReason, RepairReason
ROWS = {  # name: (seals, meta, journal pages in read order, expected plan)
    # healthy leaves
    "fresh device: epoch 0": ((ERASED, ERASED), None, (), Fast(0, 0, ())),
    "epoch-0 journal, never snapshotted":
        ((ERASED, ERASED), None, (rec(0, 0), rec(1, 0)), Fast(0, 2, R + R)),
    "valid prefix, erased rest":
        ((ERASED, seal(1)), META, (rec(0, 1), rec(1, 1)), Fast(1, 2, R + R)),
    "newest seal wins over an erased half": ((seal(2), ERASED), META, (), Fast(2, 0, ())),
    "newest seal wins over an older one":
        ((seal(2), seal(3)), META, (rec(0, 3),), Fast(3, 1, R)),
    # fast, then a repair snapshot
    "torn tail": ((ERASED, seal(1)), META, (rec(0, 1), bad(1)),
                  Fast(1, 1, R, P.TORN_TAIL)),
    "older-epoch pages only": ((seal(2), seal(1)), META, (rec(0, 1), rec(1, 1)),
                               Fast(2, 0, (), P.STALE_EPOCH_PAGES)),
    "stale overflow marker": ((seal(2), seal(1)), META, (ovf(1),),
                              Fast(2, 0, (), P.STALE_OVERFLOW_MARKER)),
    "damaged overflow marker": ((ERASED, seal(1)), META, (bad(J - 1), rec(0, 1)),
                                Fast(1, 1, R, P.STALE_OVERFLOW_MARKER)),
    # fallbacks; repair_seq outranks every readable epoch, on the damaged half
    "seal 0 unreadable, its journal readable":
        ((UNREADABLE, seal(1)), None, (rec(0, 2),), Fallback(F.SEAL_UNREADABLE, 4)),
    "seal 0 unreadable, parity already right":
        ((UNREADABLE, seal(1)), None, (rec(0, 1),), Fallback(F.SEAL_UNREADABLE, 2)),
    "seal 1 unreadable": ((seal(2), UNREADABLE), None, (rec(0, 3),),
                          Fallback(F.SEAL_UNREADABLE, 5)),
    "both seals unreadable": ((UNREADABLE, UNREADABLE), None, (),
                              Fallback(F.SEAL_UNREADABLE, 1)),
    "meta unreadable": ((ERASED, seal(1)), UNREADABLE, (rec(0, 1),),
                        Fallback(F.META_UNREADABLE, 2)),
    "journal overflowed": ((ERASED, seal(1)), META, (ovf(1), rec(0, 1)),
                           Fallback(F.JOURNAL_OVERFLOWED, 2)),
    "overflow marker of a newer epoch": ((ERASED, seal(1)), META, (ovf(2),),
                                         Fallback(F.JOURNAL_OVERFLOWED, 3)),
    "journal page newer than the seal": ((ERASED, seal(1)), META, (rec(0, 2),),
                                         Fallback(F.JOURNAL_NEWER_THAN_SEAL, 3)),
    "valid page after damage": ((ERASED, seal(1)), META, (rec(0, 1), bad(1), rec(2, 1)),
                                Fallback(F.VALID_PAGE_AFTER_DAMAGE, 2)),
    "valid page after an erased slot": ((ERASED, seal(1)), META, (rec(0, 1), rec(2, 1)),
                                        Fallback(F.VALID_PAGE_AFTER_DAMAGE, 2)),
}


@pytest.mark.parametrize("name", ROWS)
def test_plan_of_survey(name):
    seals, meta, journal, expected = ROWS[name]
    survey = RegionSurvey(seals, meta, journal, journal_pages=J, pages_read=0)
    assert plan_restart(survey) == expected


def test_every_leaf_has_a_row():
    plans = [row[3] for row in ROWS.values()]
    reasons = {p.reason for p in plans if isinstance(p, Fallback)}
    repairs = {p.repair for p in plans if isinstance(p, Fast)}
    # REPLAY_REJECTED is the executor's: test_rotted_snapshot_page_forces_fallback
    assert reasons == set(FallbackReason) - {FallbackReason.REPLAY_REJECTED}
    assert repairs == set(RepairReason) | {None}
