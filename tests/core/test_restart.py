"""Crash matrix for the mapping journal/snapshot restart path.

Every test pits the snapshot-load + journal-tail-replay restart
(:func:`repro.core.restart.restart_driver`) against the Figure-11
full-scan oracle (:func:`repro.core.recovery.recover_tables` on a
private deep copy of the crashed chip) and demands byte-identical
ppmt/vdct state.  The boundaries under attack:

* power loss at every k-th mutating flash op of a write+GC window
  (journal appends, snapshots, GC drops all land inside the sweep);
* a *torn* journal append — the group-commit page itself half-programs
  before the power cut, at every journal program of the window;
* power loss at every op of a snapshot (half erase, data/meta programs,
  the seal, the journal reset) — including the stale-epoch window where
  the new seal exists but the old journal was not yet erased;
* a journal tail strictly newer than the snapshot (the fast path's
  bread and butter);
* journal overflow: the marker page must force the scan fallback;
* single-page damage inside the mapping region (a rotted or misdirected
  newest seal, a rotted snapshot page replay demand-pages): the restart
  must notice and take the scan fallback, never serve an older table;
  a *live* table that demand-pages the damaged page says which pid,
  snapshot, page and flash address it was translating;
* a journal page whose spare tore back to all ``0xFF`` inside the
  programmed prefix: it looks erased, and the valid pages after it must
  still send the restart to the scan;
* a snapshot taken while the write buffer holds differentials — whose
  mapping rows the table keeps resident for the flush, and the snapshot
  drops: power loss at every op of the window around it;
* a journal tail naming more snapshot pages than the clean cache holds:
  the replay reads each of them once, in one batch, leaves the cache as
  page-ins would, demotes to the scan when one of them is damaged and
  never reads a damaged page it does not need.
"""

from __future__ import annotations

import contextlib
import copy
import logging
import random
from bisect import bisect_right
from typing import Dict, Optional, Tuple

import pytest

from repro.core.mapping import (
    MAPPING_PHASE,
    REC_CLEAR_DIFF,
    REC_MOVE_BASE,
    REC_REMOVE,
    REC_SET_BASE,
    REC_SET_DIFF,
    MappingConfig,
    MappingFormatError,
    TieredMappingTable,
)
from repro.core.mapping_store import MappingStore
from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_tables
from repro.core.restart import restart_driver
from repro.core.restart_plan import FallbackReason, RepairReason
from repro.core.tables import PhysicalPageMappingTable, ValidDifferentialCountTable
from repro.flash.backend import FaultInjector, MemoryBackend
from repro.flash.chip import FlashChip
from repro.flash.errors import ChecksumError, SimulatedPowerLoss
from repro.flash.spec import FlashSpec

SPEC = FlashSpec(
    n_blocks=16, pages_per_block=8, page_data_size=256, page_spare_size=32
)
N_PIDS = 10
N_WRITES = 60
SEED = 20100121
MAX_DIFF = 64
INTERVAL = 40  # journal records between snapshots: several per window


def _build(
    interval: int = INTERVAL, cache_entries: int = 8, backend=None
) -> Tuple[FlashChip, PdlDriver, MappingConfig]:
    cfg = MappingConfig.auto(
        SPEC, cache_entries=cache_entries, snapshot_interval=interval
    )
    chip = FlashChip(SPEC, backend=backend)
    driver = PdlDriver(chip, max_differential_size=MAX_DIFF, mapping=cfg)
    return chip, driver, cfg


def _workload(driver: PdlDriver, n_writes: int = N_WRITES) -> None:
    """Deterministic load + patch window with periodic flushes."""
    rng = random.Random(SEED)
    for pid in range(N_PIDS):
        driver.load_page(pid, rng.randbytes(SPEC.page_data_size))
    driver.end_of_load()
    for i in range(n_writes):
        pid = rng.randrange(N_PIDS)
        image = bytearray(driver.read_page(pid))
        offset = rng.randrange(SPEC.page_data_size - 24)
        image[offset : offset + 24] = rng.randbytes(24)
        driver.write_page(pid, bytes(image))
        if i % 9 == 8:
            driver.flush()
    driver.flush()


State = Tuple[Dict[int, Tuple[int, int, Optional[int], Optional[int]]], Dict[int, int]]


def _row(entry) -> Tuple[int, int, Optional[int], Optional[int]]:
    return (entry.base_addr, entry.base_ts, entry.diff_addr, entry.diff_ts)


def _state_of(ppmt, vdct) -> State:
    return {pid: _row(entry) for pid, entry in ppmt.items()}, dict(vdct.items())


def _scan_oracle(chip: FlashChip, first_page: int = 0) -> State:
    """Figure-11 full scan on a private copy (mark_obsolete side effects
    must not leak into the restart's input)."""
    replica = copy.deepcopy(chip)
    ppmt = PhysicalPageMappingTable()
    vdct = ValidDifferentialCountTable()
    recover_tables(replica, ppmt, vdct, first_page=first_page)
    return _state_of(ppmt, vdct)


def _restart(chip: FlashChip, cfg: MappingConfig):
    """Restart a private copy.  Whatever the plan, no seal or journal
    page is read twice: the survey is the one pass, fallback included."""
    replica = copy.deepcopy(chip)
    reads: list = []
    read_page = replica.read_page
    replica.read_page = lambda addr, **kw: reads.append(addr) or read_page(addr, **kw)
    driver, report = restart_driver(replica, max_differential_size=MAX_DIFF, mapping=cfg)
    del replica.read_page
    store = driver.mapping
    journal = [store.journal_page_addr(i) for i in range(store.journal_pages)]
    twice = [a for a in (store.seal_addr(0), store.seal_addr(1), *journal) if reads.count(a) > 1]
    assert not twice, f"{report.plan}: region pages {twice} were read twice"
    return driver, report


class _Countdown:
    """Power loss before the k-th mutating op (armed at construction)."""

    def __init__(self, chip: FlashChip, after: int):
        self.remaining = after
        self.chip = chip
        chip.on_operation(self._tick)

    def _tick(self, op: str) -> None:
        if self.remaining <= 0:
            raise SimulatedPowerLoss(f"power loss before {op}")
        self.remaining -= 1

    def disarm(self) -> None:
        self.chip.on_operation(None)


def _count_ops(run) -> int:
    counter = {"ops": 0}
    chip, driver, _cfg = _build()
    chip.on_operation(lambda _op: counter.__setitem__("ops", counter["ops"] + 1))
    run(chip, driver)
    chip.on_operation(None)
    return counter["ops"]


def test_crash_matrix_every_boundary():
    """Power loss swept across the whole window: restart == scan oracle."""
    total = _count_ops(lambda chip, driver: _workload(driver))
    assert total > 60, "window too small to cover the journal boundaries"
    fast = fallback = 0
    for k in range(0, total, 3):
        chip, driver, cfg = _build()
        guard = _Countdown(chip, k)
        try:
            _workload(driver)
        except SimulatedPowerLoss:
            pass
        else:
            pytest.fail(f"crash point {k} of {total} never fired")
        finally:
            guard.disarm()
        expected = _scan_oracle(chip)
        recovered, report = _restart(chip, cfg)
        assert _state_of(recovered.ppmt, recovered.vdct) == expected, (
            f"crash@{k}: restart diverged from the scan oracle"
        )
        fast += report.fast_path
        fallback += report.fallback
    assert fast > 0, "sweep never exercised the snapshot+journal fast path"


def test_torn_journal_append_replays_valid_prefix():
    """The commit page itself half-programs at the power cut.

    The chip's native crash model only produces clean prefixes, so the
    tear is staged manually: the k-th journal program stores half its
    record payload (erased 0xFF beyond the tear) and the power then
    fails.  Because the journal acks *before* dependent programs start
    (the flush-before-ack contract), replaying the valid prefix plus the
    seeded tail scan must still converge to the oracle.
    """
    total_appends = _count_journal_programs()
    assert total_appends > 4
    torn_fired = 0
    for target in range(total_appends):
        chip, driver, cfg = _build()
        journal = range(
            driver.mapping.journal_page_addr(0),
            driver.mapping.journal_page_addr(0) + driver.mapping.journal_pages,
        )
        orig = chip.program_page
        state = {"seen": 0}

        def tearing(addr, data, spare, _orig=orig, _state=state, _target=target):
            if addr in journal and _state["seen"] == _target:
                half = len(data) // 2
                _orig(addr, data[:half] + b"\xff" * (len(data) - half), spare)
                raise SimulatedPowerLoss(f"torn journal program at {addr}")
            if addr in journal:
                _state["seen"] += 1
            _orig(addr, data, spare)

        chip.program_page = tearing  # type: ignore[method-assign]
        try:
            _workload(driver)
        except SimulatedPowerLoss:
            torn_fired += 1
        finally:
            del chip.program_page
        expected = _scan_oracle(chip)
        recovered, report = _restart(chip, cfg)
        assert _state_of(recovered.ppmt, recovered.vdct) == expected, (
            f"torn append #{target}: restart diverged from the scan oracle"
        )
        if report.fast_path:
            # The torn page is journal damage the restart must have seen
            # and repaired (fresh snapshot at the end of the restart).
            assert report.plan.repair is RepairReason.TORN_TAIL
    assert torn_fired == total_appends


def _count_journal_programs() -> int:
    chip, driver, _cfg = _build()
    journal = range(
        driver.mapping.journal_page_addr(0),
        driver.mapping.journal_page_addr(0) + driver.mapping.journal_pages,
    )
    counter = {"n": 0}
    orig = chip.program_page

    def counting(addr, data, spare):
        if addr in journal:
            counter["n"] += 1
        orig(addr, data, spare)

    chip.program_page = counting  # type: ignore[method-assign]
    try:
        _workload(driver)
    finally:
        del chip.program_page
    return counter["n"]


def test_crash_matrix_mid_snapshot():
    """Power loss at every op of a snapshot: half erase, data/meta
    programs, the seal, the journal reset.  Crashing between the new
    seal and the journal erase leaves stale-epoch journal pages behind
    the fresh snapshot — the classifier must replay none of them."""
    chip, driver, _cfg = _build()
    _workload(driver)
    counter = {"ops": 0}
    chip.on_operation(lambda _op: counter.__setitem__("ops", counter["ops"] + 1))
    driver.mapping.snapshot()
    chip.on_operation(None)
    total = counter["ops"]
    assert total > 5, "snapshot too small for a meaningful sweep"
    for k in range(total):
        chip, driver, cfg = _build()
        _workload(driver)
        guard = _Countdown(chip, k)
        try:
            driver.mapping.snapshot()
        except SimulatedPowerLoss:
            pass
        else:
            pytest.fail(f"snapshot crash point {k} of {total} never fired")
        finally:
            guard.disarm()
        expected = _scan_oracle(chip)
        recovered, report = _restart(chip, cfg)
        assert _state_of(recovered.ppmt, recovered.vdct) == expected, (
            f"snapshot crash@{k}: restart diverged from the scan oracle"
        )


def _snapshot_under_held_rows(driver: PdlDriver) -> None:
    """Updates that stay in the write buffer — the table keeps their rows
    resident for the flush that will re-point them — then a snapshot
    (which drops those rows: they are clean), one more update and the
    flush, which has to fault the dropped rows back in."""
    rng = random.Random(SEED + 1)

    def update(pid: int) -> None:
        image = bytearray(driver.read_page(pid))
        image[8:16] = rng.randbytes(8)
        driver.write_page(pid, bytes(image))

    pids = iter(range(N_PIDS))
    while len(driver.buffer) < 3:  # Case-3 rewrites on the way buffer nothing
        update(next(pids))
    held = set(driver.buffer.pids())
    assert held <= {pid for pid, _entry in driver.ppmt.overlay_items()}
    driver.mapping.snapshot()
    assert set(driver.buffer.pids()) == held and driver.ppmt.overlay_size == 0
    update(next(pids))
    driver.flush()
    assert held < {pid for pid, _entry in driver.ppmt.overlay_items()}


def test_crash_matrix_snapshot_under_held_rows():
    """Held rows are not lost by accident: a snapshot taken while the
    write buffer holds differentials, power loss at every mutating op of
    the window, restart == scan oracle — and without a crash the flush
    re-points exactly the rows the snapshot dropped."""

    def prepared():
        chip, driver, cfg = _build(interval=200)  # only the window's own snapshot
        _workload(driver, n_writes=N_PIDS)
        return chip, driver, cfg

    chip, driver, cfg = prepared()
    counter = {"ops": 0}
    chip.on_operation(lambda _op: counter.__setitem__("ops", counter["ops"] + 1))
    _snapshot_under_held_rows(driver)
    chip.on_operation(None)
    total = counter["ops"]
    assert total > 10, "window too small for a meaningful sweep"
    assert driver.mapping.snapshots_taken == 1
    assert _state_of(driver.ppmt, driver.vdct) == _scan_oracle(chip)

    for k in range(total):
        chip, driver, cfg = prepared()
        guard = _Countdown(chip, k)
        try:
            _snapshot_under_held_rows(driver)
        except SimulatedPowerLoss:
            pass
        else:
            pytest.fail(f"crash point {k} of {total} never fired")
        finally:
            guard.disarm()
        expected = _scan_oracle(chip)
        recovered, _report = _restart(chip, cfg)
        assert _state_of(recovered.ppmt, recovered.vdct) == expected, (
            f"crash@{k}: restart diverged from the scan oracle"
        )


def test_journal_tail_newer_than_snapshot(caplog):
    """The canonical fast path: clean snapshot + a dirty journal tail —
    one INFO line naming the epoch and the journal prefix."""
    chip, driver, cfg = _build()
    _workload(driver)
    driver.mapping.snapshot()
    rng = random.Random(7)
    for _ in range(8):
        pid = rng.randrange(N_PIDS)
        image = bytearray(driver.read_page(pid))
        image[0:8] = rng.randbytes(8)
        driver.write_page(pid, bytes(image))
    driver.flush()
    expected = _scan_oracle(chip)
    with caplog.at_level(logging.INFO, logger="repro.core.restart"):
        recovered, report = _restart(chip, cfg)
    assert report.fast_path and not report.fallback and not report.repaired
    assert report.journal_records > 0
    assert report.snapshot_seq == report.plan.seq
    (line,) = caplog.records
    assert line.levelno == logging.INFO and line.name == "repro.core.restart"
    assert line.getMessage() == (
        f"restart plan: Fast(seq={report.snapshot_seq}, "
        f"prefix_pages={report.journal_pages}, repair=None)"
    )
    assert _state_of(recovered.ppmt, recovered.vdct) == expected
    # The recovered driver stays fully operational, journal included.
    image = bytearray(recovered.read_page(0))
    image[0:4] = b"\xde\xad\xbe\xef"
    recovered.write_page(0, bytes(image))
    recovered.flush()
    assert recovered.read_page(0) == bytes(image)


def test_journal_overflow_marker_forces_fallback(caplog):
    """A full journal writes the overflow marker; with no snapshot ever
    landing (GC kept "in flight" artificially), restart must take the
    scan fallback and still converge — and say so in one WARNING."""
    chip, driver, cfg = _build(interval=24)
    driver.mapping._safe_to_snapshot = lambda: False  # type: ignore[method-assign]
    rng = random.Random(SEED)
    for pid in range(N_PIDS):
        driver.load_page(pid, rng.randbytes(SPEC.page_data_size))
    driver.end_of_load()
    for _ in range(400):
        if driver.mapping._overflowed:
            break
        pid = rng.randrange(N_PIDS)
        image = bytearray(driver.read_page(pid))
        image[0:8] = rng.randbytes(8)
        driver.write_page(pid, bytes(image))
    assert driver.mapping._overflowed, "journal never overflowed"
    expected = _scan_oracle(chip)
    recovered, report = _restart(chip, cfg)
    assert report.plan.reason is FallbackReason.JOURNAL_OVERFLOWED
    assert report.fallback and report.repaired and not report.fast_path
    assert _state_of(recovered.ppmt, recovered.vdct) == expected
    (line,) = caplog.records
    assert line.levelno == logging.WARNING
    assert "JOURNAL_OVERFLOWED" in line.getMessage()
    assert f"repair_seq={recovered.mapping.seq}" in line.getMessage()


def _snapshotted_with_tail(snapshots: int = 1):
    """A flushed device with a fault injector: ``snapshots`` snapshots,
    then a three-write journal tail that touches the first snapshot page."""
    backend = MemoryBackend(SPEC)
    injector = FaultInjector(backend, seed=3)
    chip, driver, cfg = _build(interval=100, backend=backend)
    _workload(driver, n_writes=N_PIDS)
    for _ in range(snapshots):
        driver.mapping.snapshot()
    for pid in range(3):
        image = bytearray(driver.read_page(pid))
        image[0:4] = b"tail"
        driver.write_page(pid, bytes(image))
    driver.flush()
    return injector, chip, driver, cfg


@pytest.mark.parametrize("snapshots", [1, 2])
@pytest.mark.parametrize("fault", ["bit_rot", "misdirected_write"])
def test_damaged_newest_seal_forces_fallback(fault, snapshots):
    """Regression: an unreadable newest seal was skipped like an erased
    one, so restart "succeeded" on the fast path over an empty (or
    one-snapshot-old) table and every acked page went unreadable."""
    injector, chip, driver, cfg = _snapshotted_with_tail(snapshots)
    store = driver.mapping
    injector.inject(fault, store.seal_addr(store.seq % 2))
    # The donor of a misdirected write may be a live base page: the copy
    # now inside the mapping region must never be adopted.
    expected = _scan_oracle(chip, cfg.region_blocks * SPEC.pages_per_block)
    recovered, report = _restart(chip, cfg)
    assert report.plan.reason is FallbackReason.SEAL_UNREADABLE
    assert recovered.mapping.seq == report.plan.repair_seq
    assert _state_of(recovered.ppmt, recovered.vdct) == expected
    assert len(recovered.ppmt) == N_PIDS
    # The repair snapshot replaced the damaged half: the next restart is
    # fast again and still agrees with the oracle.
    again, report = _restart(recovered.chip, cfg)
    assert report.fast_path and not report.fallback
    assert _state_of(again.ppmt, again.vdct) == expected


@pytest.mark.parametrize("snapshots", [1, 2])
def test_power_loss_during_seal_repair(snapshots):
    """Power loss at every op of the restart that repairs a rotted newest
    seal — including between the repair seal and the journal erase, where
    the unreadable snapshot's journal is still on flash and must not be
    replayed over the repair snapshot."""
    injector, chip, driver, cfg = _snapshotted_with_tail(snapshots)
    store = driver.mapping
    injector.inject("bit_rot", store.seal_addr(store.seq % 2))
    expected = _scan_oracle(chip)
    for k in range(64):
        replica = copy.deepcopy(chip)
        guard = _Countdown(replica, k)
        try:
            restart_driver(replica, max_differential_size=MAX_DIFF, mapping=cfg)
            break  # the repair ran to completion: every crash point swept
        except SimulatedPowerLoss:
            pass
        finally:
            guard.disarm()
        recovered, _report = _restart(replica, cfg)
        assert _state_of(recovered.ppmt, recovered.vdct) == expected, (
            f"crash@{k} of the repair: restart diverged from the scan oracle"
        )
    assert 3 < k < 63, "sweep did not cover the repair snapshot"


def test_rotted_snapshot_page_forces_fallback():
    """Regression: journal replay demand-pages the rotted snapshot page
    and the ChecksumError escaped ``restart_driver`` instead of demoting
    to the scan."""
    injector, chip, driver, cfg = _snapshotted_with_tail()
    store = driver.mapping
    injector.inject("bit_rot", store.half_start_page(store.seq % 2))
    expected = _scan_oracle(chip)
    recovered, report = _restart(chip, cfg)
    assert report.plan.reason is FallbackReason.REPLAY_REJECTED
    assert _state_of(recovered.ppmt, recovered.vdct) == expected
    assert len(recovered.ppmt) == N_PIDS


def test_an_erased_looking_slot_inside_the_journal_prefix_forces_fallback():
    """A spare program torn at byte 0 leaves an all-``0xFF`` spare: the
    journal page looks erased in the middle of the programmed prefix.
    The survey reads every slot's spare, so it sees the valid page after
    the gap and plans the scan.  A survey that stopped at the first
    erased slot would trust that spare: it plans a fast restart over the
    page in front of it and resumes the journal at the torn slot, whose
    data area is programmed, so the next commit fails."""
    backend = MemoryBackend(SPEC)
    injector = FaultInjector(backend, seed=3)
    chip, driver, cfg = _build(interval=100, backend=backend)
    _workload(driver, n_writes=N_PIDS)
    store = driver.mapping
    store.snapshot()
    for round in range(3):
        for pid in range(3):
            image = bytearray(driver.read_page(pid))
            image[0:4] = bytes([round + 1]) * 4
            driver.write_page(pid, bytes(image))
        driver.flush()  # commits one journal page
    acked = {pid: driver.read_page(pid) for pid in range(N_PIDS)}
    journal = [store.journal_page_addr(i) for i in range(store.journal_pages)]
    assert [i for i, addr in enumerate(journal) if not chip.peek_spare(addr).is_erased] == [0, 1, 2]
    injector.inject_torn_spare(journal[1], tear_at=0)
    assert chip.peek_spare(journal[1]).is_erased
    expected = _scan_oracle(chip)
    recovered, report = _restart(chip, cfg)
    assert report.plan.reason is FallbackReason.VALID_PAGE_AFTER_DAMAGE
    assert _state_of(recovered.ppmt, recovered.vdct) == expected
    assert {pid: recovered.read_page(pid) for pid in range(N_PIDS)} == acked
    image = bytearray(acked[0])
    image[0:4] = b"next"
    recovered.write_page(0, bytes(image))
    recovered.flush()
    assert recovered.read_page(0) == bytes(image)

@pytest.mark.parametrize(
    "fault, error",
    [("bit_rot", ChecksumError), ("misdirected_write", MappingFormatError)],
)
def test_snapshot_over_a_damaged_old_page_names_it_and_writes_nothing(fault, error):
    """A snapshot reads the old half in one batch: the whole batch is
    charged, then the damaged page is reported as a page-in would report
    it (snapshot, page index, flash address) before anything is erased
    or programmed — the old snapshot stays the current one."""
    injector, chip, driver, _cfg = _snapshotted_with_tail()
    store = driver.mapping
    assert store.data_page_count == 2
    addr = store.half_start_page(store.seq % 2) + 1  # snapshot page 1: pids 8..9
    if fault == "bit_rot":
        injector.inject(fault, addr)
    else:  # a page that reads clean but is no mapping page: a live base
        injector.inject(fault, addr, donor=driver.ppmt.require(2).base_addr)
    seq = store.seq
    misses = chip.stats.mapping_misses
    mapping = chip.stats.of_phase(MAPPING_PHASE)
    reads, programs, erases = mapping.reads, mapping.writes, mapping.erases

    with pytest.raises(error) as caught:
        store.snapshot()

    message = str(caught.value)
    for part in (f"snapshot {seq}", "page 1", f"flash address {addr}"):
        assert part in message, message
    assert caught.value.__cause__ is not None
    assert store.seq == seq
    mapping = chip.stats.of_phase(MAPPING_PHASE)
    assert chip.stats.mapping_misses - misses == 2
    assert mapping.reads - reads == 2
    assert (mapping.writes, mapping.erases) == (programs, erases)


@pytest.mark.parametrize(
    "fault, error",
    [("bit_rot", ChecksumError), ("misdirected_write", MappingFormatError)],
)
def test_live_page_in_of_a_damaged_snapshot_page_names_what_it_translated(fault, error):
    """A live table that demand-pages a damaged snapshot page cannot
    repair it (ROADMAP item 3) — but the error that reaches the caller of
    ``read_page`` says what was being translated, and the table is left
    as it was: a pid on a healthy page still reads."""
    injector, chip, driver, _cfg = _snapshotted_with_tail()
    store, table = driver.mapping, driver.ppmt
    addr = store.half_start_page(store.seq % 2)  # snapshot page 0: pids 0..7
    healthy = driver.read_page(9)  # page 1 takes the one-page clean cache
    if fault == "bit_rot":
        injector.inject(fault, addr)
    else:  # a page that reads clean but is no mapping page: a live base
        injector.inject(fault, addr, donor=table.require(9).base_addr)
    before = (table.overlay_size, table.cached_pages)
    misses = chip.stats.mapping_misses
    reads = chip.stats.of_phase(MAPPING_PHASE).reads

    with pytest.raises(error) as caught:
        driver.read_page(5)

    message = str(caught.value)
    for part in ("pid 5", f"snapshot {store.seq}", "page 0", f"flash address {addr}"):
        assert part in message, message
    assert caught.value.__cause__ is not None
    assert (table.overlay_size, table.cached_pages) == before
    # The failed page-in is the one device read it was, nothing more.
    assert chip.stats.mapping_misses - misses == 1
    assert chip.stats.of_phase(MAPPING_PHASE).reads - reads == 1
    assert driver.read_page(9) == healthy
    assert driver.read_page(0)[:4] == b"tail"  # a dirty row needs no page-in


# ----------------------------------------------------------------------
# The replay reads each snapshot page its journal tail names once
# ----------------------------------------------------------------------
WIDE = FlashSpec(n_blocks=32, pages_per_block=8, page_data_size=256, page_spare_size=32)
WIDE_PIDS = 48  # six snapshot pages of eight rows; the clean cache holds one


def _wide_tail(pages: int):
    """A snapshot of ``WIDE_PIDS`` pids, then a flushed journal tail that
    updates pids of the first ``pages`` snapshot pages, page-interleaved
    (pid 0, 8, 16, …, 1, 9, …): replayed record by record through a
    one-page cache, every record evicts the page the next one needs."""
    backend = MemoryBackend(WIDE)
    injector = FaultInjector(backend, seed=5)
    cfg = MappingConfig.auto(WIDE, cache_entries=8, snapshot_interval=200)
    chip = FlashChip(WIDE, backend=backend)
    driver = PdlDriver(chip, max_differential_size=MAX_DIFF, mapping=cfg)
    rng = random.Random(SEED)
    for pid in range(WIDE_PIDS):
        driver.load_page(pid, rng.randbytes(WIDE.page_data_size))
    driver.end_of_load()
    driver.mapping.snapshot()
    per_page = driver.mapping.entries_per_page
    for row in range(4):
        for page in range(pages):
            pid = page * per_page + row
            image = bytearray(driver.read_page(pid))
            image[0:4] = b"tail"
            driver.write_page(pid, bytes(image))
    driver.flush()
    return injector, chip, driver, cfg


def _traced_restart(chip: FlashChip, cfg: MappingConfig):
    """Restart a private copy; returns the driver, the report, every
    flash address read (single and batched) and the mapping misses."""
    replica = copy.deepcopy(chip)
    reads: list = []
    read_page, read_pages = replica.read_page, replica.read_pages
    replica.read_page = lambda addr, **kw: reads.append(addr) or read_page(addr, **kw)
    replica.read_pages = lambda addrs, **kw: reads.extend(addrs) or read_pages(addrs, **kw)
    misses = replica.stats.mapping_misses
    driver, report = restart_driver(replica, max_differential_size=MAX_DIFF, mapping=cfg)
    del replica.read_page, replica.read_pages
    return driver, report, reads, replica.stats.mapping_misses - misses


def _snapshot_page_reads(driver: PdlDriver, reads) -> Dict[int, int]:
    """How often each current snapshot data page was read."""
    store = driver.mapping
    start = store.half_start_page(store.seq % 2)
    pages = range(start, start + store.data_page_count)
    return {addr - start: reads.count(addr) for addr in sorted(set(reads)) if addr in pages}


def _named_pages(driver: PdlDriver, records) -> set:
    """The snapshot pages covering the pids of the row records."""
    directory = driver.mapping.directory
    return {
        bisect_right(directory, a) - 1
        for kind, a, _b, _ts in records
        if kind in (REC_SET_BASE, REC_MOVE_BASE, REC_SET_DIFF, REC_CLEAR_DIFF, REC_REMOVE)
    }


def test_replay_reads_each_snapshot_page_its_tail_names_once():
    """Six snapshot pages named by the tail, a one-page clean cache: one
    read of each page, in one batch — not one per eviction — every read
    a counted miss, and the tables equal to the scan oracle's."""
    _injector, chip, _driver, cfg = _wide_tail(pages=6)
    expected = _scan_oracle(chip)
    recovered, report, reads, misses = _traced_restart(chip, cfg)
    assert report.fast_path and not report.repaired
    named = _named_pages(recovered, report.plan.records)
    assert len(named) == 6 > recovered.ppmt.cache_capacity_pages
    assert _snapshot_page_reads(recovered, reads) == dict.fromkeys(named, 1)
    assert misses == len(named)
    assert _state_of(recovered.ppmt, recovered.vdct) == expected


def test_batched_replay_leaves_the_clean_cache_as_page_ins_would(monkeypatch):
    """The staged pages go through the cache's own admit path, so the
    restart ends with the same pages, in the same LRU order, as a replay
    that pages each one in when it first needs it."""
    _injector, chip, _driver, cfg = _wide_tail(pages=6)
    batched, _report, _reads, _misses = _traced_restart(chip, cfg)
    monkeypatch.setattr(
        TieredMappingTable, "staged", lambda _self, _pids: contextlib.nullcontext()
    )
    paged, _report, reads, _misses = _traced_restart(chip, cfg)
    assert max(_snapshot_page_reads(paged, reads).values()) > 1  # what the batch spares
    assert list(batched.ppmt._cache) == list(paged.ppmt._cache)
    assert _state_of(batched.ppmt, batched.vdct) == _state_of(paged.ppmt, paged.vdct)


def test_the_staged_pages_end_with_the_restart():
    """The batch lives only as long as the restart: once a later snapshot
    replaces the pages it staged, every lookup pages the new ones in and
    every page reads back its newest image."""
    _injector, chip, _driver, cfg = _wide_tail(pages=6)
    recovered, _report, _reads, _misses = _traced_restart(chip, cfg)
    images = {}
    for pid in range(WIDE_PIDS):
        image = bytearray(recovered.read_page(pid))
        image[4:8] = b"next"
        images[pid] = bytes(image)
        recovered.write_page(pid, images[pid])
    recovered.flush()
    recovered.mapping.snapshot()
    misses = recovered.chip.stats.mapping_misses
    assert {pid: recovered.read_page(pid) for pid in range(WIDE_PIDS)} == images
    assert recovered.chip.stats.mapping_misses - misses >= recovered.mapping.data_page_count


@pytest.mark.parametrize(
    "fault, error",
    [("bit_rot", ChecksumError), ("misdirected_write", MappingFormatError)],
)
def test_a_damaged_page_the_tail_names_rejects_the_replay(monkeypatch, fault, error):
    """The batch reads the damaged page before any record is applied: the
    restart demotes to the scan (``REPLAY_REJECTED``) and equals its
    oracle, and the error the replay caught names snapshot, page and
    flash address the way a page-in does."""
    injector, chip, driver, cfg = _wide_tail(pages=6)
    store = driver.mapping
    addr = store.half_start_page(store.seq % 2) + 2
    if fault == "bit_rot":
        injector.inject(fault, addr)
    else:  # a page that reads clean but is no mapping page: a live base
        injector.inject(fault, addr, donor=driver.ppmt.require(0).base_addr)
    caught: list = []
    batch = MappingStore.read_data_pages

    def spied(self, indexes=None):
        try:
            yield from batch(self, indexes)
        except (ChecksumError, MappingFormatError) as exc:
            caught.append(exc)
            raise

    monkeypatch.setattr(MappingStore, "read_data_pages", spied)
    expected = _scan_oracle(chip, cfg.region_blocks * WIDE.pages_per_block)
    recovered, report, reads, _misses = _traced_restart(chip, cfg)
    assert report.plan.reason is FallbackReason.REPLAY_REJECTED
    assert _state_of(recovered.ppmt, recovered.vdct) == expected
    assert reads.count(addr) == 1
    (exc,) = caught
    assert type(exc) is error and exc.__cause__ is not None
    message = str(exc)
    for part in (f"snapshot {store.seq}", "page 2", f"flash address {addr}"):
        assert part in message, message


def test_a_damaged_page_the_restart_does_not_need_is_never_read():
    """Only the pages the tail names are batched: a rotted page that
    neither the tail names nor the tail scan looks up costs the restart
    nothing, and the restart stays fast with every other row as a
    healthy restart has it."""
    injector, chip, driver, cfg = _wide_tail(pages=3)
    expected = _scan_oracle(chip)
    healthy, report, reads, _misses = _traced_restart(chip, cfg)
    assert _state_of(healthy.ppmt, healthy.vdct) == expected
    assert _named_pages(healthy, report.plan.records) == {0, 1, 2}
    # The tail scan also looks up the bases in the snapshot's open block.
    needed = set(_snapshot_page_reads(healthy, reads))
    store = driver.mapping
    page = min(set(range(store.data_page_count)) - needed)
    assert page > 2
    addr = store.half_start_page(store.seq % 2) + page
    injector.inject("bit_rot", addr)
    recovered, report, reads, _misses = _traced_restart(chip, cfg)
    assert report.fast_path and not report.repaired
    assert addr not in reads
    # A walk of the whole table would read the rotted page: ask per pid.
    directory = store.directory
    elsewhere = set(range(WIDE_PIDS)) - set(range(directory[page], directory[page + 1]))
    rows, vdct = expected
    assert {pid: _row(recovered.ppmt.get(pid)) for pid in elsewhere} == {
        pid: rows[pid] for pid in elsewhere
    }
    assert dict(recovered.vdct.items()) == vdct

